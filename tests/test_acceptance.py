"""Acceptance gate: one test per advertised guarantee, timed where stated.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; a failed assert marks the criterion FAILED.
"""

import time

import pytest

from conftest import (
    all_commutative_tables,
    circuit_relations,
    random_cone_inputs,
    random_eigen_lists,
    standard_catalogue,
    subsets,
)
from idempotoric.cli import run
from idempotoric.cones import cone_from_generators, enumerate_faces, is_face
from idempotoric.eigen import (
    character_data,
    check_relation_criterion,
    eigen_input,
    factor,
    power_invariance,
)
from idempotoric.finite import (
    check_smallest_criterion,
    idempotent_elements,
    idempotent_power,
    is_minimum_idempotent,
    smallest_idempotent_commutative,
    zmod_times,
)
from idempotoric.monoids import (
    WeightMonoid,
    cone_and_poset,
    idempotents,
    maximal_chain_length,
    monoid_from_generators,
    toric_envelope,
)

SEED_CONES = 31
SEED_EIGEN = 41
SEED_FILTER = 59

CONE_INPUTS = random_cone_inputs(SEED_CONES, 200, max_dim=5, max_gens=8, bound=4)
EIGEN_LISTS = random_eigen_lists(SEED_EIGEN, 100, max_len=6, bound=50)


def announce(k, elapsed=None, budget=None):
    note = "" if elapsed is None else f" ({elapsed:.2f}s < {budget}s)"
    print(f"ACCEPTANCE {k}: PASS{note}")


def monoid_for(dim, gens):
    # a cone with no generators corresponds to the trivial monoid
    return monoid_from_generators(gens or [(0,) * dim])


def chain_length_set(p):
    """Lengths of all maximal chains of an idempotent poset."""
    succ = {}
    for a, b in p.hasse_edges:
        succ.setdefault(a, []).append(b)
    memo = {}

    def lengths(i):
        if i not in succ:
            return {0}
        if i not in memo:
            memo[i] = {1 + n for j in succ[i] for n in lengths(j)}
        return memo[i]

    return lengths(p.bottom)


def order_isomorphic(p, q):
    """Order isomorphism via the index-set bijection on Hasse diagrams."""
    if len(p.faces) != len(q.faces):
        return False
    p_sets = {f.index_set for f in p.faces}
    q_sets = {f.index_set for f in q.faces}
    if p_sets != q_sets:
        return False

    def edges_by_set(poset):
        name = {i: f.index_set for i, f in enumerate(poset.faces)}
        return {(name[a], name[b]) for a, b in poset.hasse_edges}

    return edges_by_set(p) == edges_by_set(q)


@pytest.fixture(scope="module")
def cone_run():
    """Criterion 3 workload, shared by criteria 5 and 7."""
    t0 = time.perf_counter()
    results = []
    for dim, gens in CONE_INPUTS:
        cone = cone_from_generators(dim, gens)
        poset = enumerate_faces(cone)
        enumerated = {f.index_set for f in poset.faces}
        oracle = {s for s in subsets(len(gens)) if is_face(cone, s) is not None}
        results.append((dim, gens, cone, poset, enumerated, oracle))
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def finite_run():
    """Criterion 7 workload, shared by criteria 8 and 9."""
    t0 = time.perf_counter()
    commutative = [s for n in (1, 2, 3, 4) for s in all_commutative_tables(n)]
    commutative.extend(zmod_times(n) for n in range(1, 31))
    product_checks = []
    for s in commutative:
        idems = idempotent_elements(s)
        smallest = smallest_idempotent_commutative(s)
        folded = idems[0]
        for f in idems[1:]:
            folded = s.table[folded][f]
        minimums = [
            g
            for g in idems
            if all(s.table[g][f] == g and s.table[f][g] == g for f in idems)
        ]
        product_checks.append((smallest, folded, minimums))

    power_checks = []
    criterion_checks = []
    for _, s in standard_catalogue():
        for x in range(s.size):
            f = idempotent_power(s, x)
            powers = set()
            y = x
            while y not in powers:
                powers.add(y)
                y = s.table[y][x]
            power_checks.append((s.table[f][f] == f, f in powers))
        for e in idempotent_elements(s):
            criterion_checks.append(
                check_smallest_criterion(s, e) == is_minimum_idempotent(s, e)
            )
    elapsed = time.perf_counter() - t0
    return {
        "products": product_checks,
        "powers": power_checks,
        "criterion": criterion_checks,
        "elapsed": elapsed,
    }


def test_criterion_01_worked_instance_two_three_six():
    t0 = time.perf_counter()
    rep = run({"mode": "eigen", "payload": {"eigenvalues": ["2", "3", "6"]}})
    elapsed = time.perf_counter() - t0
    sets = [tuple(e["index_set"]) for e in rep["idempotents"]["elements"]]
    assert sets == [(), (1,), (2,), (1, 2, 3)]
    assert rep["lattice_rank"] == 2
    assert {"lhs": [[1, 1], [2, 1]], "rhs": [[3, 1]]} in rep["primitive_relations"]
    assert rep["chain_length"] == 2
    assert rep["envelope"]["envelope_dim"] == 2
    assert elapsed < 1.0
    announce(1, elapsed, 1)


def test_criterion_02_skew_ray_family():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        p = idempotents(monoid_from_generators([(1, 0), (0, 1), (n, -n)]))
        sets = [f.index_set for f in p.faces]
        assert (2,) in sets
        assert len(sets) == 4
        assert maximal_chain_length(p) == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(2, elapsed, 1)


def test_criterion_03_face_oracle_agreement(cone_run):
    results, elapsed = cone_run
    assert len(results) == 200
    for _, _, _, _, enumerated, oracle in results:
        assert enumerated == oracle
    assert elapsed < 60.0
    announce(3, elapsed, 60)


def test_criterion_04_power_invariance():
    t0 = time.perf_counter()
    for values in EIGEN_LISTS:
        e = eigen_input(values)
        for n in (2, 3, 5):
            assert power_invariance(e, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(4, elapsed, 30)


def test_criterion_05_graded_chains(cone_run):
    results, _ = cone_run
    for dim, gens, _, _, _, _ in results:
        w = monoid_for(dim, gens)
        cone, p = cone_and_poset(w)
        expected = w.ambient_rank - cone.lineality.rank
        assert chain_length_set(p) == {expected}
        assert toric_envelope(cone, p).envelope_dim == expected
    announce(5)


def test_criterion_06_envelope_isomorphism():
    monoids = [character_data(factor(eigen_input([2, 3, 6])))[0]]
    monoids.extend(
        monoid_from_generators([(1, 0), (0, 1), (n, -n)]) for n in (2, 3, 4)
    )
    monoids.extend(monoid_for(dim, gens) for dim, gens in CONE_INPUTS)
    monoids.extend(
        character_data(factor(eigen_input(values)))[0] for values in EIGEN_LISTS
    )
    for w in monoids:
        cone, p = cone_and_poset(w)
        rep = toric_envelope(cone, p)
        # the envelope monoid's own idempotents, built from scratch: the
        # original poset with every dimension lowered by the unit rank
        k = rep.unit_lattice.rank
        env = WeightMonoid(w.ambient_rank - k, rep.projected_generators)
        q = idempotents(env)
        assert order_isomorphic(p, q)
        assert [f.dim - k for f in p.faces] == [f.dim for f in q.faces]
    announce(6)


def test_criterion_07_smallest_idempotent_product(cone_run, finite_run):
    results, _ = cone_run
    # the product of two idempotents is the meet of their faces, the
    # intersection of their index sets
    for _, _, _, poset, _, _ in results:
        met = set(poset.faces[poset.top].index_set)
        for f in poset.faces:
            met &= set(f.index_set)
        assert tuple(sorted(met)) == poset.faces[poset.bottom].index_set
    for smallest, folded, minimums in finite_run["products"]:
        assert smallest == folded
        assert minimums == [smallest]
    assert finite_run["elapsed"] < 120.0
    announce(7, finite_run["elapsed"], 120)


def test_criterion_08_idempotent_power(finite_run):
    assert finite_run["powers"]
    for is_idem, among_powers in finite_run["powers"]:
        assert is_idem
        assert among_powers
    announce(8)


def test_criterion_09_smallest_criterion_equivalence(finite_run):
    assert finite_run["criterion"]
    assert all(finite_run["criterion"])
    announce(9)


def test_criterion_10_relation_filter_consistency():
    t0 = time.perf_counter()
    # the relations read off the signed circuits accept exactly the faces
    for values in random_eigen_lists(SEED_FILTER, 100, max_len=6, bound=50):
        t = factor(eigen_input(values))
        rels = circuit_relations(t)
        faces = {f.index_set for f in idempotents(character_data(t)[0]).faces}
        # relations name generators 1-based
        accepted = {
            s
            for s in subsets(len(t.matrix))
            if check_relation_criterion(tuple(i + 1 for i in s), rels)
        }
        assert accepted == faces, values
    rejected = circuit_relations(factor(eigen_input([2, 3, 6])))
    assert not check_relation_criterion((1, 2), rejected)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(10, elapsed, 30)
