"""The package exports every name of each layer's ``__all__``, listed once
there, plus the command-line entry points, the two errors and the
version; and every function the benchmark's tracer wraps is still
there."""

import importlib.util
from pathlib import Path

import idempotoric
from idempotoric import cli, cones, eigen, errors, finite, lattices, monoids

LAYERS = (lattices, cones, monoids, eigen, finite)
EXTRAS = {
    "SCHEMA": cli,
    "export_dot": cli,
    "run": cli,
    "run_selftest": cli,
    "InputError": errors,
    "InternalCheckError": errors,
}


def test_package_all_is_the_union_of_the_layers():
    union = [name for layer in LAYERS for name in layer.__all__]
    union += [*EXTRAS, "__version__"]
    assert len(set(union)) == len(union)
    assert sorted(idempotoric.__all__) == sorted(union)
    assert "smith_normal_form" in idempotoric.__all__


def test_every_listed_name_imports_from_its_layer():
    namespace = {}
    exec("from idempotoric import *", namespace)
    assert namespace["__version__"] == idempotoric.__version__
    for layer in LAYERS:
        for name in layer.__all__:
            assert namespace[name] is getattr(layer, name)
    for name, home in EXTRAS.items():
        assert namespace[name] is getattr(home, name)


def test_every_traced_name_is_a_function_of_its_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for short, names in tracing.TRACED.items():
        module = importlib.import_module(f"{tracing.PACKAGE}.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{short}.{name}"
