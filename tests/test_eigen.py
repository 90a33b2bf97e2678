"""Eigenvalue pipeline: factorization, character monoid, relations, poset."""

import random
from fractions import Fraction

import pytest

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
from idempotoric.lattices import IntegerMatrix, kernel_lattice, rank
from idempotoric.monoids import canonical_form, cone_and_poset, idempotents

from conftest import random_eigen_lists, subsets


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
    w = character_data(t)
    cone, p = cone_and_poset(w)
    return (
        rank(IntegerMatrix.from_rows(t.matrix, cols=len(t.primes))),
        [(f.index_set, f.dim) for f in p.faces],
        smallest_idempotent_indices(w, cone, p),
        primitive_relations(t),
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
    w = character_data(factor(eigen_input([2, 3, 6])))
    assert w.ambient_rank == 2
    assert w.generators == ((1, 0), (0, 1), (1, 1))
    assert w.labels == ("t1", "t2", "t3")


def test_character_data_reciprocal():
    w = character_data(factor(eigen_input([2, Fraction(1, 2)])))
    assert w.ambient_rank == 1
    assert w.generators == ((1,), (-1,))


def test_character_data_roots_of_unity_are_points():
    for vals in ([1], [-1]):
        w = character_data(factor(eigen_input(vals)))
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
    rels = primitive_relations(factor(eigen_input([2, 3, 6])))
    assert rel_pairs(rels) == [(((1, 1), (2, 1)), ((3, 1),))]


def test_relation_with_empty_right_side():
    rels = primitive_relations(factor(eigen_input([2, Fraction(1, 2)])))
    assert rel_pairs(rels) == [(((1, 1), (2, 1)), ())]


def test_relation_with_squared_exponent():
    rels = primitive_relations(factor(eigen_input([4, 6, 9])))
    assert rel_pairs(rels) == [(((1, 1), (3, 1)), ((2, 2),))]


def test_relations_are_the_hermite_basis_and_the_circuits():
    for vals in random_eigen_lists(seed=1312, count=25):
        t = factor(eigen_input(vals))
        rels = primitive_relations(t)
        mat = IntegerMatrix.from_rows(t.matrix, cols=len(t.primes))
        basis = kernel_lattice(mat).basis.entries
        circuits = signed_circuits(len(t.primes), t.matrix)
        assert set(rels) == {relation_of(z) for z in basis + circuits}, vals
        assert len(rels) == len(set(rels))


def test_relations_verify_on_squared_values():
    for vals in random_eigen_lists(seed=808, count=40):
        e = eigen_input(vals)
        rels = primitive_relations(factor(e))
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
        for rel in primitive_relations(factor(e)):
            for r in (rel, *bumped(rel)):
                for values in (e.eigenvalues, squares):
                    pairs = [(q.numerator, q.denominator) for q in values]
                    expected = fraction_holds(values, r)
                    assert _relation_holds(pairs, r) == expected, (vals, r)
                    outcomes.add((values is squares, expected))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_integer_relation_check_trips_on_a_bumped_exponent():
    # one exponent of one circuit raised by one is no longer a relation
    spectra = [[2, 3, 6], [-2, Fraction(3, 5), Fraction(-5, 6)], [4, 6, 9]]
    spectra += random_eigen_lists(seed=1416, count=20, max_len=7, bound=12)
    tripped = 0
    for vals in spectra:
        t = factor(eigen_input(vals))
        circuits = signed_circuits(len(t.primes), t.matrix)
        for k, z in enumerate(circuits):
            for i, c in enumerate(z):
                if not c or not any(t.matrix[i]):
                    continue  # a unit's exponent is free
                wrong = list(z)
                wrong[i] += 1 if c > 0 else -1
                bad = [*circuits[:k], tuple(wrong), *circuits[k + 1 :]]
                with pytest.raises(InternalCheckError, match="numeric relation"):
                    primitive_relations(t, bad)
                tripped += 1
    assert tripped > 50


def test_relations_deterministic():
    t = factor(eigen_input([2, 3, 6, 12]))
    assert primitive_relations(t) == primitive_relations(t)


# -- idempotent poset and criteria -------------------------------------------


def test_idempotent_set_triple():
    p = idempotents(character_data(factor(eigen_input([2, 3, 6]))))
    assert [f.index_set for f in p.faces] == [(), (0,), (1,), (0, 1, 2)]


def test_idempotent_set_group_case():
    p = idempotents(character_data(factor(eigen_input([2, Fraction(1, 2)]))))
    assert [f.index_set for f in p.faces] == [(0, 1)]


def test_idempotent_set_single_ray():
    p = idempotents(character_data(factor(eigen_input([2]))))
    assert [f.index_set for f in p.faces] == [(), (0,)]


def test_relation_criterion_frozen_cases():
    rels = primitive_relations(factor(eigen_input([2, 3, 6])))
    assert not check_relation_criterion((1, 2), rels)
    assert check_relation_criterion((1, 2, 3), rels)
    grp = primitive_relations(factor(eigen_input([2, Fraction(1, 2)])))
    assert check_relation_criterion((1, 2), grp)
    assert not check_relation_criterion((1,), grp)


@pytest.mark.parametrize("bad", [True, False, 0, -1, "1", 1.0, None])
def test_relation_criterion_rejects_bad_indices(bad):
    rels = primitive_relations(factor(eigen_input([2, 3, 6])))
    with pytest.raises(InputError, match="must be an int >= 1"):
        check_relation_criterion((1, bad), rels)


def accepted_sets(r, rels):
    """The 0-based index sets the relations, which name generators
    1-based, accept."""
    return {
        s for s in subsets(r) if check_relation_criterion(tuple(i + 1 for i in s), rels)
    }


def test_faces_pass_relation_filter():
    # the primitive relations accept exactly the faces, not merely a
    # superset of them, up to the subset oracle's 10 generators
    spectra = random_eigen_lists(seed=1010, count=25, max_len=5)
    spectra += random_eigen_lists(seed=1314, count=25, max_len=10, bound=12)
    for vals in spectra:
        e = eigen_input(vals)
        rels = primitive_relations(factor(e))
        faces = {f.index_set for f in idempotents(character_data(factor(e))).faces}
        assert accepted_sets(len(e.eigenvalues), rels) == faces, vals


def test_circuit_relations_make_the_criterion_exact():
    # fed the signed circuits alone as relations, the criterion accepts
    # exactly the faces
    for vals in random_eigen_lists(seed=1011, count=25, max_len=7, bound=12):
        e = eigen_input(vals)
        cone, p = cone_and_poset(character_data(factor(e)))
        circuits = signed_circuits(cone.ambient_dim, cone.generators)
        rels = [relation_of(z) for z in circuits]
        accepted = accepted_sets(len(e.eigenvalues), rels)
        assert accepted == {f.index_set for f in p.faces}, vals


def test_smallest_idempotent_indices_frozen():
    def smallest(values):
        return smallest_idempotent_indices(character_data(factor(eigen_input(values))))

    assert smallest([2, 3, 6]) == ()
    assert smallest([2, Fraction(1, 2)]) == (1, 2)
    assert smallest([1, 5]) == (1,)


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


def test_idempotent_count_symmetries():
    for vals in random_eigen_lists(seed=1111, count=20):
        e = eigen_input(vals)
        count = len(idempotents(character_data(factor(e))).faces)
        flipped = eigen_input([1 / q for q in e.eigenvalues])
        assert len(idempotents(character_data(factor(flipped))).faces) == count
        shuffled = eigen_input(list(reversed(e.eigenvalues)))
        assert len(idempotents(character_data(factor(shuffled))).faces) == count


def test_canonical_forms_collapse_power_collisions():
    # 2 and -2 square to the same value; the squared input must still
    # present the same monoid
    a = canonical_form(character_data(factor(eigen_input([2, -2]))))
    b = canonical_form(character_data(factor(eigen_input([4]))))
    assert a == b
