"""One pass per job: an eigen or monoid job factors its spectrum, builds its
weight monoid, its cone, its faces, one Hermite form of its exponent rows
(their span and their kernel) and its signed circuits once and shares
them with the envelope, the smallest-index check, power invariance, the
relations and the cross-checks; the checks in those functions still fire
on the shared objects.  A finite job finds its generating set once, for
validation and Green's classes, and takes each element's index and
period once, for its report and its idempotent-power cross-check."""

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
    "kernel_lattice": lattices.kernel_lattice,
    "hermite_normal_form": lattices.hermite_normal_form,
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
        # lineality space, and the cone's certificate is the positive
        # dependency of its two units, the bottom face's generators, which
        # takes no circuits and no kernel
        ("eigen", {"eigenvalues": ["2", "1/2", "3", "6"]},
         (2, 1, 1, 1, 1, 2, 2, 3)),
        # pointed: the envelope monoid is the weight monoid itself
        ("eigen", {"eigenvalues": ["2", "3", "6"]}, (2, 1, 1, 1, 1, 1, 0, 1)),
        ("monoid", {"ambient_dim": 2, "generators": [[1, 0], [-1, 0], [0, 1]]},
         (0, 1, 1, 0, 1, 2, 3, 3)),
        ("monoid", {"ambient_dim": 2, "generators": [[1, 0], [0, 1], [1, 1]]},
         (0, 1, 1, 0, 1, 1, 1, 1)),
        # past the subset oracle's 10 generators: an eigen job still needs
        # its circuits for the relations, a cone or monoid job does not
        ("eigen", {"eigenvalues": TWELVE}, (2, 1, 1, 1, 1, 1, 0, 1)),
        ("cone", {"ambient_dim": 2, "generators": WIDE}, (0, 1, 1, 0, 0, 1, 0, 0)),
        ("monoid", {"ambient_dim": 2, "generators": WIDE},
         (0, 1, 1, 0, 0, 1, 0, 0)),
        ("cone", {"ambient_dim": 2, "generators": WIDE[:10]},
         (0, 1, 1, 0, 1, 1, 1, 1)),
    ],
)
def test_job_builds_each_object_once(
    tmp_path, capsys, monkeypatch, mode, payload, expected
):
    calls = count_calls(monkeypatch)
    code, rep = run_job(tmp_path, capsys, mode, payload)
    assert code == 0 and "error" not in rep
    # factor: the spectrum once, and the squared spectrum for power
    # invariance, which compares the two tables; character_data: the
    # spectrum's weight monoid alone.  rank: the cone's dimension, plus the
    # envelope's rank of the projected generators when there are units; the
    # weight monoid's span is checked by the cone's dimension.
    # kernel_lattice: none for the exponent rows of an eigen job, whose
    # kernel comes with their span from one Hermite form (counted below),
    # or one of the generators for the circuits of a cone or monoid job; a
    # cone with units adds the two kernels that saturate their span.
    # hermite_normal_form: one per kernel_lattice, plus the exponent rows'
    # one in character_data; a span alone takes none, so a cone or monoid
    # job past the subset oracle takes none
    assert tuple(calls.values()) == expected


@pytest.mark.parametrize(
    "values", [["2", "1/2", "3", "6"], ["2", "3", "6"], TWELVE], ids=len
)
def test_eigen_job_eliminates_its_exponent_rows_once(
    tmp_path, capsys, monkeypatch, values
):
    real = lattices._echelon
    eliminated = []

    def echelon(rows, cols):
        # the rows, less any transform riding along
        eliminated.append(tuple(tuple(row[:cols]) for row in rows))
        return real(rows, cols)

    monkeypatch.setattr(lattices, "_echelon", echelon)
    code, rep = run_job(tmp_path, capsys, "eigen", {"eigenvalues": values})
    assert code == 0 and "error" not in rep
    # one Hermite form gives the weight monoid's lattice and the kernel for
    # the circuits and the relations: neither eliminates the rows again
    rows = tuple(map(tuple, rep["exponent_matrix"]))
    assert eliminated.count(rows) == 1


@pytest.mark.parametrize(
    "dim, gens",
    [
        (2, [(1, 0), (0, 1), (1, 1)]),
        (3, [(2, 1, 3), (0, 1, 1), (1, 1, 1), (-1, -1, -1)]),
        (2, [(1, 0), (-1, 0), (0, 1), (0, -1)]),
        (2, []),
    ],
    ids=["pointed", "with-a-line", "subspace", "no-generators"],
)
def test_each_cone_takes_one_double_description(monkeypatch, dim, gens):
    calls = count_calls(monkeypatch, {"_dd_rays": cones._dd_rays})
    cone = cones.cone_from_generators(dim, gens)
    assert calls == {"_dd_rays": 1}
    # the faces and the rays are read off that pass's facets
    cones.extreme_rays(cone, cones.enumerate_faces(cone))
    assert calls == {"_dd_rays": 1}


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
        w, kernel = character_data(t)
        cone, poset = cone_and_poset(w)
        env = toric_envelope(cone, poset)
        # the job's pair gives what a pair built afresh gives
        again = cone_and_poset(w)
        assert env == toric_envelope(*again)
        assert smallest_idempotent_indices(env, poset) == (
            smallest_idempotent_indices(toric_envelope(*again), again[1])
        )
        assert power_invariance(e, 3, t)
        # the generators and the exponent rows share their kernel
        circuits = signed_circuits(cone.ambient_dim, cone.generators)
        assert circuits == signed_circuits(len(t.primes), t.matrix)
        assert primitive_relations(t, kernel) == standalone_relations(t)


def rows_kernel(t):
    return lattices.kernel_lattice(
        lattices.IntegerMatrix.from_rows(t.matrix, cols=len(t.primes))
    )


def standalone_relations(t):
    """The relations from the rows' kernel, built alone."""
    return primitive_relations(t, rows_kernel(t))


def test_a_shared_kernel_gives_the_standalone_circuits_and_relations():
    for vals in random_eigen_lists(seed=1313, count=30, max_len=8, bound=12):
        t = factor(eigen_input(vals))
        cone, _ = cone_and_poset(character_data(t)[0])
        rows = lattices.IntegerMatrix.from_rows(t.matrix, cols=len(t.primes))
        # the kernel alone, and the one that comes with the span
        for kernel in rows_kernel(t), lattices.span_and_kernel(rows)[1]:
            # the exponent rows' kernel is the weight monoid generators' kernel
            circuits = signed_circuits(cone.ambient_dim, cone.generators, kernel)
            assert circuits == signed_circuits(cone.ambient_dim, cone.generators)
            assert primitive_relations(t, kernel) == standalone_relations(t)


def test_one_hermite_form_of_the_exponent_rows_gives_the_standalone_objects():
    tried = 0
    for vals in random_eigen_lists(seed=1515, count=60, max_len=10, bound=12):
        t = factor(eigen_input(vals))
        rows = lattices.IntegerMatrix.from_rows(t.matrix, cols=len(t.primes))
        lattice, kernel = lattices.span_and_kernel(rows)
        assert lattice == Sublattice.span(rows.cols, rows.entries)
        assert kernel == lattices.kernel_lattice(rows)
        w, shared = character_data(t)
        assert w == monoid_from_generators(t.matrix, w.labels) and shared == kernel
        assert primitive_relations(t, kernel) == standalone_relations(t)
        tried += kernel.rank > 1
    assert tried > 20


def test_a_wrong_shared_kernel_is_not_a_linear_dependency():
    wrong = 0
    for vals in random_eigen_lists(seed=1314, count=30, max_len=8, bound=12):
        t = factor(eigen_input(vals))
        cone, _ = cone_and_poset(character_data(t)[0])
        r = len(cone.generators)
        # z plus a unit vector at a nonzero generator is no dependency
        i = next((i for i, g in enumerate(cone.generators) if any(g)), None)
        for z in rows_kernel(t).basis.entries:
            bumped = tuple(c + (k == i) for k, c in enumerate(z))
            kernel = Sublattice.span(r, [bumped])
            with pytest.raises(InternalCheckError, match="not a linear dependency"):
                signed_circuits(cone.ambient_dim, cone.generators, kernel)
            wrong += 1
    assert wrong > 20


def wrong_lineality(cone):
    """The cone with a lineality line it does not have, or none if it has one."""
    n = cone.ambient_dim
    line = [(1,) + (0,) * (n - 1)] if cone.lineality.rank == 0 else []
    return cone._replace(lineality=Sublattice.span(n, line))


def minimum_moved_to_the_top(poset):
    return poset._replace(bottom=poset.top)


def test_envelope_checks_the_shared_cone():
    w = monoid_from_generators([(1, 0), (0, 1), (1, 1)])
    cone, poset = cone_and_poset(w)
    # a line the cone does not have: no unit projects off zero, but the
    # envelope loses a dimension its poset keeps
    with pytest.raises(InternalCheckError, match="disagrees with chain length"):
        toric_envelope(wrong_lineality(cone), poset)


def test_smallest_indices_check_the_shared_poset():
    e = eigen_input([2, 3, 6])
    w, _ = character_data(factor(e))
    cone, poset = cone_and_poset(w)
    env = toric_envelope(cone, poset)
    with pytest.raises(InternalCheckError, match="disagrees with the poset minimum"):
        smallest_idempotent_indices(env, minimum_moved_to_the_top(poset))


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

    def envelope(cone, poset):
        return real(wrong_lineality(cone), poset)

    monkeypatch.setattr(cli, "toric_envelope", envelope)
    # no lineality: the units 2 and 1/2 are projected by the identity
    assert internal_error(tmp_path, capsys) == (
        2,
        "internal",
        "unit generators do not project to zero",
    )


def test_main_reports_a_corrupted_shared_poset(tmp_path, capsys, monkeypatch):
    real = cli.smallest_idempotent_indices

    def smallest(env, poset):
        return real(env, minimum_moved_to_the_top(poset))

    monkeypatch.setattr(cli, "smallest_idempotent_indices", smallest)
    assert internal_error(tmp_path, capsys) == (
        2,
        "internal",
        "lineality membership disagrees with the poset minimum",
    )


def test_main_reports_a_non_unit_projected_to_zero(tmp_path, capsys, monkeypatch):
    real = cli.toric_envelope

    def envelope(cone, poset):
        env = real(cone, poset)
        # t3 = 3 is no unit; its row of the projection is zeroed
        rows = list(env.projected_generators)
        rows[2] = (0,) * len(rows[2])
        return env._replace(projected_generators=tuple(rows))

    monkeypatch.setattr(cli, "toric_envelope", envelope)
    assert internal_error(tmp_path, capsys) == (
        2,
        "internal",
        "lineality membership disagrees with the poset minimum",
    )


def maximum_moved_to_the_bottom(poset):
    return poset._replace(top=poset.bottom)


def test_monoid_job_checks_its_smallest_index_set(tmp_path, capsys, monkeypatch):
    real = cli.smallest_idempotent_indices

    def smallest(env, poset):
        return real(env, minimum_moved_to_the_top(poset))

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
