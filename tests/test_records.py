"""The records are named tuples: immutable, still checked where they were
checked before, and cheap to import.  A launch imports neither
``dataclasses`` nor the ``inspect`` it pulls in."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import relations_of

from idempotoric import finite
from idempotoric.cones import Cone, Face, FacePoset
from idempotoric.eigen import (
    EigenInput,
    ExponentTable,
    PrimitiveRelation,
    character_data,
    eigen_input,
    factor,
)
from idempotoric.errors import InputError
from idempotoric.finite import (
    FiniteSemigroup,
    GreensClasses,
    IndexPeriod,
    greens_classes,
    index_period,
    validate_table,
    zmod_times,
)
from idempotoric.lattices import IntegerMatrix, Sublattice
from idempotoric.monoids import (
    ToricEnvelopeReport,
    WeightMonoid,
    cone_and_poset,
    toric_envelope,
)

SLOW_MODULES = ("dataclasses", "inspect")


def loaded(code, env):
    """The names of SLOW_MODULES loaded after ``code`` ran in a fresh
    interpreter, which prints them as its last line of stderr."""
    names = f"sorted(set({SLOW_MODULES!r}) & set(sys.modules))"
    report = f"import json, sys; print(json.dumps({names}), file=sys.stderr)"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def test_a_launch_imports_neither_dataclasses_nor_inspect(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"eigenvalues": ["2", "3", "6"]}))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    launch = f"from idempotoric import cli\ncli.main(['eigen', '--input', {str(path)!r}])"
    # what the interpreter loads on its own (a site hook, say) is not ours
    assert loaded(launch, env) <= loaded("pass", env)


def one_of_each():
    """One record of each of the 13 types, from the 2, 3, 6 eigen job and
    the multiplicative table of Z/6."""
    e = eigen_input([2, 3, 6])
    t = factor(e)
    w, _ = character_data(t)
    cone, poset = cone_and_poset(w)
    env = toric_envelope(cone, poset)
    s = validate_table(zmod_times(6).table)
    return [
        cone.lineality.basis,
        cone.lineality,
        cone,
        poset.faces[0],
        poset,
        w,
        env,
        e,
        t,
        relations_of(t)[0],
        s,
        index_period(s, 2),
        greens_classes(s),
    ]


def test_one_of_each_record_type():
    types = [type(r) for r in one_of_each()]
    assert types == [
        IntegerMatrix,
        Sublattice,
        Cone,
        Face,
        FacePoset,
        WeightMonoid,
        ToricEnvelopeReport,
        EigenInput,
        ExponentTable,
        PrimitiveRelation,
        FiniteSemigroup,
        IndexPeriod,
        GreensClasses,
    ]


@pytest.mark.parametrize("record", one_of_each(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_weight_monoid_labels_default_to_none():
    assert WeightMonoid(1, ((1,),)).labels is None


@pytest.mark.parametrize(
    "entries, cols, message",
    [
        (((1,), (1, 2)), 1, "matrix row 1 has length 2, expected 1"),
        ((), True, "column count must be an int >= 0, got True"),
        ((), -1, "column count must be an int >= 0, got -1"),
    ],
)
def test_every_integer_matrix_construction_validates(entries, cols, message):
    with pytest.raises(InputError) as direct:
        IntegerMatrix(entries, cols)
    assert str(direct.value) == message
    with pytest.raises(InputError, match=re.escape(message)):
        IntegerMatrix._make((entries, cols))
    with pytest.raises(InputError, match=re.escape(message)):
        IntegerMatrix(((1,),), 1)._replace(entries=entries, cols=cols)


def test_a_replaced_semigroup_finds_its_generating_set_again(monkeypatch):
    table = zmod_times(6).table
    calls = []
    real = finite._generators

    def generators(table):
        calls.append(table)
        return real(table)

    monkeypatch.setattr(finite, "_generators", generators)
    s = validate_table(table)
    assert s._generating_set == s._generating_set
    assert len(calls) == 1
    copy = s._replace()
    assert copy == s and copy._generating_set == s._generating_set
    assert len(calls) == 2
