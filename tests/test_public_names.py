"""The package exports every name of each layer's ``__all__``, listed once
there, plus the command-line entry points, the two errors and the
version."""

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
