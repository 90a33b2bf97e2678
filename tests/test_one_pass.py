"""One pass per job: an eigen or monoid job factors its spectrum, builds its
weight monoid, its cone, its faces and its signed circuits once and shares
them with the envelope, the smallest-index check, power invariance, the
relations and the cross-checks; the checks in those functions still fire
on the shared objects.  A finite job finds its generating set once, for
validation and Green's classes, and takes each element's index and
period once, for its report and its idempotent-power cross-check."""

import dataclasses
import itertools
import json
import sys

import pytest

from conftest import random_eigen_lists

from idempotoric import cli, cones, eigen, finite, lattices, monoids
from idempotoric.cones import signed_circuits
from idempotoric.eigen import (
    character_data,
    eigen_input,
    factor,
    power_invariance,
    primitive_relations,
    smallest_idempotent_indices,
)
from idempotoric.errors import InternalCheckError
from idempotoric.lattices import Sublattice
from idempotoric.monoids import cone_and_poset, monoid_from_generators, toric_envelope

COUNTED = {
    "factor": eigen.factor,
    "cone_from_generators": cones.cone_from_generators,
    "enumerate_faces": cones.enumerate_faces,
    "character_data": eigen.character_data,
    "signed_circuits": cones.signed_circuits,
    "rank": lattices.rank,
}


def count_calls(monkeypatch, functions=COUNTED):
    """Count calls to ``functions`` (name to function), rebinding each in
    every module of the package that imported it by name."""
    calls = dict.fromkeys(functions, 0)
    modules = [
        m
        for n, m in sys.modules.items()
        if m is not None and (n == "idempotoric" or n.startswith("idempotoric."))
    ]
    for name, original in functions.items():

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            if mod.__dict__.get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def run_job(tmp_path, capsys, mode, payload):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload))
    code = cli.main([mode, "--input", str(path)])
    return code, json.loads(capsys.readouterr().out)


TWELVE = [
    str(2**a * 3**b * 5**c)
    for a, b, c in itertools.product((0, 1), (0, 1), (1, 2, 3))
]
WIDE = [[1, k] for k in range(11)]


@pytest.mark.parametrize(
    "mode, payload, expected",
    [
        # a unit pair 2, 1/2: the envelope projects out the cone's own
        # lineality space, and the cone's certificate takes the circuits of
        # its two units, the bottom face's generators
        ("eigen", {"eigenvalues": ["2", "1/2", "3", "6"]}, (2, 1, 1, 2, 2, 3)),
        # pointed: the envelope monoid is the weight monoid itself
        ("eigen", {"eigenvalues": ["2", "3", "6"]}, (2, 1, 1, 2, 1, 2)),
        ("monoid", {"ambient_dim": 2, "generators": [[1, 0], [-1, 0], [0, 1]]},
         (0, 1, 1, 0, 2, 3)),
        ("monoid", {"ambient_dim": 2, "generators": [[1, 0], [0, 1], [1, 1]]},
         (0, 1, 1, 0, 1, 2)),
        # past the subset oracle's 10 generators: an eigen job still needs
        # its circuits for the relations, a cone or monoid job does not
        ("eigen", {"eigenvalues": TWELVE}, (2, 1, 1, 2, 1, 2)),
        ("cone", {"ambient_dim": 2, "generators": WIDE}, (0, 1, 1, 0, 0, 2)),
        ("monoid", {"ambient_dim": 2, "generators": WIDE}, (0, 1, 1, 0, 0, 2)),
        ("cone", {"ambient_dim": 2, "generators": WIDE[:10]}, (0, 1, 1, 0, 1, 2)),
    ],
)
def test_job_builds_each_object_once(
    tmp_path, capsys, monkeypatch, mode, payload, expected
):
    calls = count_calls(monkeypatch)
    code, rep = run_job(tmp_path, capsys, mode, payload)
    assert code == 0 and "error" not in rep
    # factor and character_data: the spectrum once, and the squared
    # spectrum for power invariance.  rank: the cone's dimension and the
    # rank of its rays with its lineality space, plus the envelope's rank
    # of the projected generators when there are units; the weight
    # monoid's span is checked by the cone's dimension
    assert tuple(calls.values()) == expected


def test_finite_job_takes_each_index_period_once(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, {"index_period": finite.index_period})
    table = [list(row) for row in finite.zmod_times(12).table]
    code, rep = run_job(tmp_path, capsys, "finite", {"table": table})
    assert code == 0 and rep["crosschecks"] == {"idempotent_powers": "ok"}
    # once per element for the report; the cross-check reuses them
    assert calls == {"index_period": 12}


def test_finite_job_finds_its_generating_set_once(tmp_path, capsys, monkeypatch):
    table = [list(row) for row in finite.zmod_times(12).table]
    calls = count_calls(monkeypatch, {"_generators": finite._generators})
    code, rep = run_job(tmp_path, capsys, "finite", {"table": table})
    assert code == 0 and "error" not in rep
    # found by validate_table, reused by greens_classes
    assert calls == {"_generators": 1}


def test_shared_objects_give_the_standalone_results():
    for vals in random_eigen_lists(seed=1212, count=30):
        e = eigen_input(vals)
        t = factor(e)
        w = character_data(t)
        cone, poset = cone_and_poset(w)
        assert toric_envelope(w, cone, poset) == toric_envelope(w)
        assert smallest_idempotent_indices(w, cone, poset) == (
            smallest_idempotent_indices(w)
        )
        assert power_invariance(e, 3, w)
        # the generators and the exponent rows share their kernel
        circuits = signed_circuits(cone.ambient_dim, cone.generators)
        assert circuits == signed_circuits(len(t.primes), t.matrix)
        assert primitive_relations(t, circuits) == primitive_relations(t)


def wrong_lineality(cone):
    """The cone with a lineality line it does not have, or none if it has one."""
    n = cone.ambient_dim
    line = [(1,) + (0,) * (n - 1)] if cone.lineality.rank == 0 else []
    return dataclasses.replace(cone, lineality=Sublattice.span(n, line))


def minimum_moved_to_the_top(poset):
    return dataclasses.replace(poset, bottom=poset.top)


def test_envelope_checks_the_shared_cone():
    w = monoid_from_generators([(1, 0), (0, 1), (1, 1)])
    cone, poset = cone_and_poset(w)
    # a line the cone does not have: no unit projects off zero, but the
    # envelope loses a dimension its poset keeps
    with pytest.raises(InternalCheckError, match="disagrees with chain length"):
        toric_envelope(w, wrong_lineality(cone), poset)


def test_smallest_indices_check_the_shared_poset():
    e = eigen_input([2, 3, 6])
    w = character_data(factor(e))
    cone, poset = cone_and_poset(w)
    with pytest.raises(InternalCheckError, match="disagrees with the poset minimum"):
        smallest_idempotent_indices(w, cone, minimum_moved_to_the_top(poset))


EIGEN_JOB = {"eigenvalues": ["2", "1/2", "3"]}
MONOID_JOB = {"ambient_dim": 2, "generators": [[1, 0], [0, 1], [1, 1]]}


@pytest.mark.parametrize(
    "mode, payload",
    [
        ("eigen", EIGEN_JOB),
        ("eigen", {"eigenvalues": ["2", "3", "6"]}),
        ("monoid", MONOID_JOB),
        ("monoid", {"ambient_dim": 2, "generators": [[1, 0], [-1, 0], [0, 1]]}),
    ],
)
def test_weight_monoid_job_walks_its_poset_once(
    tmp_path, capsys, monkeypatch, mode, payload
):
    walk = {"maximal_chain_length": monoids.maximal_chain_length}
    calls = count_calls(monkeypatch, walk)
    code, rep = run_job(tmp_path, capsys, mode, payload)
    assert code == 0 and "error" not in rep
    # once, in toric_envelope, which checks the envelope dimension that the
    # report gives as the chain length against it
    assert calls == {"maximal_chain_length": 1}
    assert rep["chain_length"] == rep["envelope"]["envelope_dim"]


def internal_error(tmp_path, capsys, mode="eigen", payload=EIGEN_JOB):
    code, doc = run_job(tmp_path, capsys, mode, payload)
    return code, doc["error"]["kind"], doc["error"]["message"]


def test_main_reports_a_corrupted_shared_cone(tmp_path, capsys, monkeypatch):
    real = cli.toric_envelope

    def envelope(w, cone, poset):
        return real(w, wrong_lineality(cone), poset)

    monkeypatch.setattr(cli, "toric_envelope", envelope)
    # no lineality: the units 2 and 1/2 are projected by the identity
    assert internal_error(tmp_path, capsys) == (
        2,
        "internal",
        "unit generators do not project to zero",
    )


def test_main_reports_a_corrupted_shared_poset(tmp_path, capsys, monkeypatch):
    real = cli.smallest_idempotent_indices

    def smallest(w, cone, poset):
        return real(w, cone, minimum_moved_to_the_top(poset))

    monkeypatch.setattr(cli, "smallest_idempotent_indices", smallest)
    assert internal_error(tmp_path, capsys) == (
        2,
        "internal",
        "lineality membership disagrees with the poset minimum",
    )


def maximum_moved_to_the_bottom(poset):
    return dataclasses.replace(poset, top=poset.bottom)


def test_monoid_job_checks_its_smallest_index_set(tmp_path, capsys, monkeypatch):
    real = cli.smallest_idempotent_indices

    def smallest(w, cone, poset):
        return real(w, cone, minimum_moved_to_the_top(poset))

    monkeypatch.setattr(cli, "smallest_idempotent_indices", smallest)
    assert internal_error(tmp_path, capsys, "monoid", MONOID_JOB) == (
        2,
        "internal",
        "lineality membership disagrees with the poset minimum",
    )


def test_monoid_job_checks_its_largest_index_set(tmp_path, capsys, monkeypatch):
    real = cli.largest_idempotent

    def largest(poset):
        return real(maximum_moved_to_the_bottom(poset))

    monkeypatch.setattr(cli, "largest_idempotent", largest)
    assert internal_error(tmp_path, capsys, "monoid", MONOID_JOB) == (
        2,
        "internal",
        "recorded maximum does not dominate the poset",
    )
