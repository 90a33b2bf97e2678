"""Eigenvalue pipeline: factorization, character monoid, relations, poset."""

import json
import random
from fractions import Fraction
from math import isqrt

import pytest

from idempotoric import cli, eigen
from idempotoric.cli import _random_spectra
from idempotoric.cones import signed_circuits
from idempotoric.eigen import (
    ExponentTable,
    PrimitiveRelation,
    _relation_holds,
    character_data,
    check_relation_criterion,
    eigen_input,
    factor,
    power_invariance,
    primitive_relations,
    reconstruct,
    smallest_idempotent_indices,
)
from idempotoric.errors import InputError, InternalCheckError
from idempotoric.lattices import (
    IntegerMatrix,
    kernel_lattice,
    rank,
    smith_normal_form,
)
from idempotoric.monoids import (
    cone_and_poset,
    idempotents,
    monoid_from_generators,
    toric_envelope,
)

from conftest import (
    circuit_relations,
    lattice_member,
    random_eigen_lists,
    relations_of,
    subsets,
)


# -- input handling ----------------------------------------------------------


def test_duplicates_merge_with_multiplicity():
    e = eigen_input([2, 3, 2])
    assert e.eigenvalues == (Fraction(2), Fraction(3))
    assert e.multiplicities == (2, 1)


def test_zero_eigenvalue_rejected_with_guidance():
    with pytest.raises(InputError, match="nonzero"):
        eigen_input([2, 0])


def test_inexact_or_empty_inputs_rejected():
    with pytest.raises(InputError):
        eigen_input([2.5])
    with pytest.raises(InputError):
        eigen_input([True])
    with pytest.raises(InputError):
        eigen_input([])


def test_non_array_spectrum_rejected():
    with pytest.raises(InputError, match="must be an array"):
        eigen_input(None)


# -- factorization -----------------------------------------------------------


def test_factor_integer_triple():
    t = factor(eigen_input([2, 3, 6]))
    assert t.primes == (2, 3)
    assert t.matrix == ((1, 0), (0, 1), (1, 1))
    assert t.signs == (1, 1, 1)


def test_factor_reciprocal_pair():
    t = factor(eigen_input([2, Fraction(1, 2)]))
    assert t.primes == (2,)
    assert t.matrix == ((1,), (-1,))


def test_factor_negative_unit():
    t = factor(eigen_input([-1]))
    assert t.primes == ()
    assert t.matrix == ((),)
    assert t.signs == (-1,)


def test_factor_mixed_rational():
    # nothing splits 12 or 35, so the coprime base keeps them whole
    t = factor(eigen_input([Fraction(12, 35)]))
    assert t.primes == (12, 35)
    assert t.matrix == ((1, -1),)


def test_reconstruct_roundtrip_random():
    for vals in random_eigen_lists(seed=707, count=60):
        e = eigen_input(vals)
        assert reconstruct(factor(e)) == e.eigenvalues


# -- the coprime base against the primes -------------------------------------


def reference_prime_factor(n: int) -> dict[int, int]:
    """Trial division: the prime factorization of n >= 1, O(sqrt n)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def reference_prime_table(e) -> ExponentTable:
    """The exponent table of e over the primes, the reference base."""
    rows = []
    for q in e.eigenvalues:
        row = reference_prime_factor(abs(q.numerator))
        for p, k in reference_prime_factor(q.denominator).items():
            row[p] = row.get(p, 0) - k
        rows.append(row)
    primes = tuple(sorted({p for row in rows for p in row}))
    matrix = tuple(tuple(row.get(p, 0) for p in primes) for row in rows)
    return ExponentTable(primes, matrix, tuple(1 if q > 0 else -1 for q in e.eigenvalues))


def base_spectra():
    spectra = random_eigen_lists(seed=2024, count=150)
    spectra += random_eigen_lists(seed=2025, count=50, max_len=8, bound=2000)
    return spectra


def answers(e, t):
    """What the pipeline reads off an exponent table of e."""
    w, _ = character_data(t)
    cone, p = cone_and_poset(w)
    return (
        rank(IntegerMatrix.from_rows(t.matrix, cols=len(t.primes))),
        [(f.index_set, f.dim) for f in p.faces],
        smallest_idempotent_indices(toric_envelope(cone, p), p),
        relations_of(t),
    )


def test_coprime_base_gives_the_prime_answers():
    for vals in base_spectra():
        e = eigen_input(vals)
        assert answers(e, factor(e)) == answers(e, reference_prime_table(e)), vals


def test_coprime_base_is_coarser_than_the_primes():
    for vals in base_spectra():
        e = eigen_input(vals)
        t = factor(e)
        assert list(t.primes) == sorted(t.primes) and all(b > 1 for b in t.primes)
        primes = set(reference_prime_table(e).primes)
        owner = {}
        for b in t.primes:
            for p in reference_prime_factor(b):
                assert p in primes, (vals, b)
                assert owner.setdefault(p, b) == b, (vals, p)
        assert set(owner) == primes, vals


def test_coprime_base_ignores_the_order_of_the_values():
    rng = random.Random(2026)
    for vals in base_spectra():
        t = factor(eigen_input(vals))
        shuffled = list(vals)
        rng.shuffle(shuffled)
        s = factor(eigen_input(shuffled))
        assert s.primes == t.primes, vals
        rows = dict(zip(eigen_input(shuffled).eigenvalues, s.matrix))
        assert tuple(rows[q] for q in eigen_input(vals).eigenvalues) == t.matrix


def test_coprime_base_of_powers_is_the_powers_of_the_base():
    for vals in base_spectra():
        t = factor(eigen_input(vals))
        for n in (2, 3):
            s = factor(eigen_input([q**n for q in vals]))
            assert s.primes == tuple(b**n for b in t.primes), (vals, n)
            assert s.matrix == t.matrix, (vals, n)


P, Q = 998244353, 1000000007  # primes


def test_coprime_base_keeps_a_semiprime_whole():
    t = factor(eigen_input([P * Q]))
    assert t.primes == (P * Q,)
    assert t.matrix == ((1,),)
    t = factor(eigen_input([P * Q, P]))
    assert t.primes == (P, Q)
    assert t.matrix == ((1, 1), (1, 0))
    t = factor(eigen_input([Fraction(P, Q**2), -Q]))
    assert t.primes == (P, Q)
    assert t.matrix == ((1, -2), (0, 1))
    assert t.signs == (1, -1)


# -- character monoid --------------------------------------------------------


def test_character_data_triple():
    w, kernel = character_data(factor(eigen_input([2, 3, 6])))
    assert w.ambient_rank == 2
    assert w.generators == ((1, 0), (0, 1), (1, 1))
    assert w.labels == ("t1", "t2", "t3")
    # t1·t2 = t3
    assert kernel.basis.entries == ((1, 1, -1),)


def test_character_data_reciprocal():
    w, kernel = character_data(factor(eigen_input([2, Fraction(1, 2)])))
    assert w.ambient_rank == 1
    assert w.generators == ((1,), (-1,))
    assert kernel.basis.entries == ((1, 1),)


def test_character_data_roots_of_unity_are_points():
    for vals in ([1], [-1]):
        w, _ = character_data(factor(eigen_input(vals)))
        assert w.ambient_rank == 0
        assert w.generators == ((),)


# -- primitive relations -----------------------------------------------------


def rel_pairs(rels):
    return [(r.lhs, r.rhs) for r in rels]


def relation_of(z):
    """The relation a kernel vector names, first generator on the left."""
    if next(c for c in z if c) < 0:
        z = [-c for c in z]
    return PrimitiveRelation(
        tuple((i + 1, c) for i, c in enumerate(z) if c > 0),
        tuple((i + 1, -c) for i, c in enumerate(z) if c < 0),
    )


def test_relation_t1_t2_equals_t3():
    rels = relations_of(factor(eigen_input([2, 3, 6])))
    assert rel_pairs(rels) == [(((1, 1), (2, 1)), ((3, 1),))]


def test_relation_with_empty_right_side():
    rels = relations_of(factor(eigen_input([2, Fraction(1, 2)])))
    assert rel_pairs(rels) == [(((1, 1), (2, 1)), ())]


def test_relation_with_squared_exponent():
    rels = relations_of(factor(eigen_input([4, 6, 9])))
    assert rel_pairs(rels) == [(((1, 1), (3, 1)), ((2, 2),))]


def test_relations_are_the_hermite_basis():
    # one relation per Hermite row of the kernel, r - rank of them, in
    # (degree, lhs, rhs) order, and each holds on the squared eigenvalues
    ranks = set()
    for vals in random_eigen_lists(seed=1312, count=40, max_len=9, bound=20):
        e = eigen_input(vals)
        t = factor(e)
        rels = relations_of(t)
        mat = IntegerMatrix.from_rows(t.matrix, cols=len(t.primes))
        basis = kernel_lattice(mat).basis.entries
        assert set(rels) == {relation_of(z) for z in basis}, vals
        assert len(rels) == len(e.eigenvalues) - rank(mat), vals
        keys = [(sum(a for _, a in rel.lhs + rel.rhs), *rel) for rel in rels]
        assert keys == sorted(keys), vals
        squares = [q * q for q in e.eigenvalues]
        assert all(fraction_holds(squares, rel) for rel in rels), vals
        ranks.add(len(rels))
    assert {0, 1, 2, 3} <= ranks


def test_relations_verify_on_squared_values():
    for vals in random_eigen_lists(seed=808, count=40):
        e = eigen_input(vals)
        rels = relations_of(factor(e))
        for rel in rels:
            lhs_sup = {i for i, _ in rel.lhs}
            rhs_sup = {j for j, _ in rel.rhs}
            assert lhs_sup or rhs_sup
            assert not (lhs_sup & rhs_sup)
            left = right = Fraction(1)
            for i, a in rel.lhs:
                left *= e.eigenvalues[i - 1] ** (2 * a)
            for j, b in rel.rhs:
                right *= e.eigenvalues[j - 1] ** (2 * b)
            assert left == right


def fraction_holds(values, rel):
    """The relation check in rationals: Π vᵢ^a over lhs == Π vⱼ^b over rhs."""
    left = right = Fraction(1)
    for i, a in rel.lhs:
        left *= values[i - 1] ** a
    for j, b in rel.rhs:
        right *= values[j - 1] ** b
    return left == right


def bumped(rel):
    """``rel`` with each of its exponents raised by one in turn."""
    for side in ("lhs", "rhs"):
        terms = getattr(rel, side)
        for k, (i, a) in enumerate(terms):
            new = terms[:k] + ((i, a + 1),) + terms[k + 1 :]
            yield PrimitiveRelation(**{"lhs": rel.lhs, "rhs": rel.rhs, side: new})


def test_integer_relation_check_matches_fractions():
    # raw values carry signs and denominators, so the integer products must
    # agree with the rational ones whichever way the relation goes
    spectra = [vals for seed in (2, 3) for vals in _random_spectra(seed, 12)]
    spectra += random_eigen_lists(seed=1415, count=30, max_len=6, bound=30)
    outcomes = set()
    for vals in spectra:
        e = eigen_input(vals)
        squares = [q * q for q in e.eigenvalues]
        for rel in relations_of(factor(e)):
            for r in (rel, *bumped(rel)):
                for values in (e.eigenvalues, squares):
                    pairs = [(q.numerator, q.denominator) for q in values]
                    expected = fraction_holds(values, r)
                    assert _relation_holds(pairs, r) == expected, (vals, r)
                    outcomes.add((values is squares, expected))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_integer_relation_check_trips_on_a_bumped_exponent():
    # one exponent of one Hermite row raised by one is no longer a relation
    spectra = [[2, 3, 6], [-2, Fraction(3, 5), Fraction(-5, 6)], [4, 6, 9]]
    spectra += random_eigen_lists(seed=1416, count=30, max_len=8, bound=12)
    tripped = 0
    for vals in spectra:
        t = factor(eigen_input(vals))
        _, kernel = character_data(t)
        basis = kernel.basis.entries
        for k, z in enumerate(basis):
            for i, c in enumerate(z):
                if not c or not any(t.matrix[i]):
                    continue  # a unit's exponent is free
                wrong = list(z)
                wrong[i] += 1 if c > 0 else -1
                rows = (*basis[:k], tuple(wrong), *basis[k + 1 :])
                bad = kernel._replace(basis=kernel.basis._replace(entries=rows))
                with pytest.raises(InternalCheckError, match="numeric relation"):
                    primitive_relations(t, bad)
                tripped += 1
    assert tripped > 50


def test_relations_deterministic():
    t = factor(eigen_input([2, 3, 6, 12]))
    assert relations_of(t) == relations_of(t)


# -- idempotent poset and criteria -------------------------------------------


def test_idempotent_set_triple():
    p = idempotents(character_data(factor(eigen_input([2, 3, 6])))[0])
    assert [f.index_set for f in p.faces] == [(), (0,), (1,), (0, 1, 2)]


def test_idempotent_set_group_case():
    p = idempotents(character_data(factor(eigen_input([2, Fraction(1, 2)])))[0])
    assert [f.index_set for f in p.faces] == [(0, 1)]


def test_idempotent_set_single_ray():
    p = idempotents(character_data(factor(eigen_input([2])))[0])
    assert [f.index_set for f in p.faces] == [(), (0,)]


def test_relation_criterion_frozen_cases():
    rels = relations_of(factor(eigen_input([2, 3, 6])))
    assert not check_relation_criterion((1, 2), rels)
    assert check_relation_criterion((1, 2, 3), rels)
    grp = relations_of(factor(eigen_input([2, Fraction(1, 2)])))
    assert check_relation_criterion((1, 2), grp)
    assert not check_relation_criterion((1,), grp)


@pytest.mark.parametrize("bad", [True, False, 0, -1, "1", 1.0, None])
def test_relation_criterion_rejects_bad_indices(bad):
    rels = relations_of(factor(eigen_input([2, 3, 6])))
    with pytest.raises(InputError, match="must be an int >= 1"):
        check_relation_criterion((1, bad), rels)


@pytest.mark.parametrize("bad", [5, None, "12", {1, 2}])
def test_relation_criterion_rejects_an_index_set_that_is_no_array(bad):
    rels = relations_of(factor(eigen_input([2, 3, 6])))
    with pytest.raises(InputError, match="an index set must be an array"):
        check_relation_criterion(bad, rels)


def accepted_sets(r, rels):
    """The 0-based index sets the relations, which name generators
    1-based, accept."""
    return {
        s for s in subsets(r) if check_relation_criterion(tuple(i + 1 for i in s), rels)
    }


def test_faces_pass_relation_filter():
    # the relations read off the signed circuits accept exactly the faces,
    # not merely a superset of them, up to the subset oracle's 10
    # generators; the listed Hermite relations accept every face
    spectra = random_eigen_lists(seed=1010, count=25, max_len=5)
    spectra += random_eigen_lists(seed=1314, count=25, max_len=10, bound=12)
    for vals in spectra:
        e = eigen_input(vals)
        t = factor(e)
        rels = circuit_relations(t)
        faces = {f.index_set for f in idempotents(character_data(t)[0]).faces}
        assert accepted_sets(len(e.eigenvalues), rels) == faces, vals
        assert faces <= accepted_sets(len(e.eigenvalues), relations_of(t)), vals


def test_circuit_relations_make_the_criterion_exact():
    # fed the signed circuits alone as relations, the criterion accepts
    # exactly the faces
    for vals in random_eigen_lists(seed=1011, count=25, max_len=7, bound=12):
        e = eigen_input(vals)
        cone, p = cone_and_poset(character_data(factor(e))[0])
        circuits = signed_circuits(cone.ambient_dim, cone.generators)
        rels = [relation_of(z) for z in circuits]
        accepted = accepted_sets(len(e.eigenvalues), rels)
        assert accepted == {f.index_set for f in p.faces}, vals


def test_smallest_idempotent_indices_frozen():
    def smallest(values):
        cone, p = cone_and_poset(character_data(factor(eigen_input(values)))[0])
        return smallest_idempotent_indices(toric_envelope(cone, p), p)

    assert smallest([2, 3, 6]) == ()
    assert smallest([2, Fraction(1, 2)]) == (1, 2)
    assert smallest([1, 5]) == (1,)


def monoids_with_lineality(seed, count):
    """``count`` seeded random weight monoids whose cone has a lineality
    space, each with its cone and poset."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 5)
        gens = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(0, 6))]
        g = [rng.randint(-2, 2) for _ in range(d)]
        w = monoid_from_generators(gens + [g, [-x for x in g]])
        cone, p = cone_and_poset(w)
        if cone.lineality.rank:
            out.append((w, cone, p))
    return out


def test_smallest_indices_are_the_generators_in_the_lineality():
    cases = []
    for i, values in enumerate(random_eigen_lists(seed=1515, count=30)):
        if i % 2:  # with the inverse of its first eigenvalue: a pair of units
            values.append(1 / values[0])
        w, _ = character_data(factor(eigen_input(values)))
        cases.append((w, *cone_and_poset(w)))
    cases += monoids_with_lineality(seed=1516, count=100)
    for w, cone, p in cases:
        env = toric_envelope(cone, p)
        # the last n - k coordinates of each generator times the Smith
        # transform of the lineality's basis
        k = cone.lineality.rank
        v = smith_normal_form(cone.lineality.basis)[2].entries
        assert env.projected_generators == tuple(
            tuple(sum(x * row[j] for x, row in zip(g, v)) for j in range(k, len(v)))
            for g in w.generators
        )
        assert smallest_idempotent_indices(env, p) == tuple(
            i + 1
            for i, g in enumerate(w.generators)
            if lattice_member(cone.lineality, g) is not None
        )


def test_power_invariance_frozen():
    assert power_invariance(eigen_input([2, 3, 6]), 2)
    assert power_invariance(eigen_input([7, Fraction(3, 5)]), 1)
    assert power_invariance(eigen_input([-2]), 2)
    with pytest.raises(InputError):
        power_invariance(eigen_input([2]), 0)


def test_power_invariance_random():
    for vals in random_eigen_lists(seed=909, count=25):
        e = eigen_input(vals)
        for n in (1, 2, 3, 4, 5):
            assert power_invariance(e, n)


def test_power_invariance_merges_the_values_the_power_makes_equal():
    # q and -q square to one value: x² has one row where x has two equal ones
    assert power_invariance(eigen_input([1, -1]), 2)
    assert power_invariance(eigen_input([2, -2, 3]), 2)
    e = eigen_input([2, -2, 3])
    assert power_invariance(e, 2, factor(e))


def generator_set(w):
    """The rank and the set of generators of a weight monoid: what a
    monoid presents, whatever the order or repetition of its generators."""
    return (w.ambient_rank, sorted(set(w.generators)))


def over_the_unsquared_base(real):
    """``factor`` that tables a spectrum of squares over the square roots
    of its natural base, every exponent doubled: a true table of the
    values, but not the one ``factor`` gives."""

    def doubled(e):
        t = real(e)
        return ExponentTable(
            tuple(isqrt(b) for b in t.primes),
            tuple(tuple(2 * k for k in row) for row in t.matrix),
            t.signs,
        )

    return doubled


def test_power_invariance_rejects_a_table_the_monoids_cannot_tell(
    tmp_path, capsys, monkeypatch
):
    e = eigen_input([2, 3, 6])
    t = factor(e)
    monkeypatch.setattr(eigen, "factor", over_the_unsquared_base(factor))
    p = eigen.factor(eigen_input([4, 9, 36]))
    assert reconstruct(p) == (4, 9, 36)
    # comparing the weight monoids' ranks and generator sets would have
    # passed it
    assert generator_set(character_data(p)[0]) == generator_set(character_data(t)[0])
    assert not power_invariance(e, 2, t)
    # the job factors its spectrum with the real factor, and only the
    # squared spectrum with the changed one
    path = tmp_path / "job.json"
    path.write_text('{"eigenvalues": ["2", "3", "6"]}')
    assert cli.main(["eigen", "--input", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == {
        "kind": "internal",
        "message": "squaring the spectrum changed the weight monoid",
    }


def test_power_invariance_checks_the_powered_base(monkeypatch):
    # a factor that forgets the power keeps the rows but not the base
    e = eigen_input([2, 3, 6])
    t = factor(e)
    monkeypatch.setattr(eigen, "factor", lambda powered: t)
    assert not power_invariance(e, 2, t)


def test_idempotent_count_symmetries():
    for vals in random_eigen_lists(seed=1111, count=20):
        e = eigen_input(vals)
        count = len(idempotents(character_data(factor(e))[0]).faces)
        flipped = eigen_input([1 / q for q in e.eigenvalues])
        assert len(idempotents(character_data(factor(flipped))[0]).faces) == count
        shuffled = eigen_input(list(reversed(e.eigenvalues)))
        assert len(idempotents(character_data(factor(shuffled))[0]).faces) == count


def test_canonical_forms_collapse_power_collisions():
    # 2 and -2 square to the same value; the squared input must still
    # present the same monoid
    a = generator_set(character_data(factor(eigen_input([2, -2])))[0])
    b = generator_set(character_data(factor(eigen_input([4])))[0])
    assert a == b
