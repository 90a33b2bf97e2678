"""Shared helpers: seeded random instances, named cones and the finite
table catalogues used across test modules."""

import itertools
import random
from fractions import Fraction

from idempotoric.cones import cone_from_generators, signed_circuits
from idempotoric.eigen import PrimitiveRelation, character_data, primitive_relations
from idempotoric.finite import (
    FiniteSemigroup,
    _check_size,
    all_associative_tables,
    validate_table,
    zmod_times,
)
from idempotoric.lattices import _coordinates


def random_cone_inputs(seed, count, max_dim=5, max_gens=8, bound=4):
    """Deterministic list of (ambient_dim, generator list) pairs."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.randint(1, max_dim)
        r = rng.randint(0, max_gens)
        gens = [tuple(rng.randint(-bound, bound) for _ in range(d)) for _ in range(r)]
        out.append((d, gens))
    return out


def random_eigen_lists(seed, count, max_len=6, bound=50):
    """Deterministic list of nonzero rational eigenvalue lists."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r = rng.randint(1, max_len)
        vals = []
        for _ in range(r):
            num = rng.choice([1, -1]) * rng.randint(1, bound)
            den = rng.randint(1, bound)
            vals.append(Fraction(num, den))
        out.append(vals)
    return out


def relations_of(t):
    """``primitive_relations`` of an exponent table, with the kernel from
    its ``character_data``, as an eigen job gives them."""
    return primitive_relations(t, character_data(t)[1])


def circuit_relations(t):
    """The relations read off the signed circuits of an exponent table's
    rows, each circuit's positive part on the left: the relations that
    make ``check_relation_criterion`` exact, which the listed Hermite
    basis does not."""
    return [
        PrimitiveRelation(
            tuple((i + 1, c) for i, c in enumerate(z) if c > 0),
            tuple((i + 1, -c) for i, c in enumerate(z) if c < 0),
        )
        for z in signed_circuits(len(t.primes), t.matrix)
    ]


def lattice_member(sub, v):
    """The coefficients of the int vector ``v`` over the basis rows of the
    ``Sublattice`` ``sub``, or None if it lies outside.  The zero vector
    of a rank-0 lattice gives ``()``, which is falsy: test the result
    with ``is not None``."""
    return next(_coordinates(sub.basis.entries, [list(v)]))


def circuit_criterion(mask: int, circuits) -> bool:
    """Whether the index set with bitmask ``mask`` respects every circuit.

    ``circuits`` holds (positive, negative) mask pairs; the set I passes
    when each pair has C⁺ ⊆ I exactly when C⁻ ⊆ I.  For the ``sign_masks``
    of the ``signed_circuits`` the sets passing are exactly the faces.
    This decides one set, the reference for ``cones._respecting``, which
    decides a whole family of sets at once, one bit per set.
    """
    out = ~mask
    return all((pos & out == 0) == (neg & out == 0) for pos, neg in circuits)


def subsets(n):
    """All subsets of range(n) as sorted tuples."""
    out = []
    for mask in range(1 << n):
        out.append(tuple(i for i in range(n) if mask >> i & 1))
    return out


def cube_cone(d):
    """The cone over the d-cube: generators (1, ±1, ..., ±1)."""
    return cone_from_generators(
        d + 1, [(1, *s) for s in itertools.product((-1, 1), repeat=d)]
    )


def cross_polytope_cone(d):
    """The cone over the d-cross-polytope: generators (1, ±e_i)."""
    gens = []
    for i in range(d):
        for sign in (1, -1):
            gens.append((1, *(sign * int(j == i) for j in range(d))))
    return cone_from_generators(d + 1, gens)


def cube_times_line(d):
    """The cone over the d-cube times a line: generators (1, ±1, ..., ±1, 0)
    and (0, ..., 0, ±1)."""
    gens = [(*g, 0) for g in cube_cone(d).generators]
    gens += [(0,) * (d + 1) + (1,), (0,) * (d + 1) + (-1,)]
    return cone_from_generators(d + 2, gens)


def all_commutative_tables(n: int):
    """Every commutative associative table on {0..n-1}, in lexicographic
    table order."""
    return [s for s in all_associative_tables(n) if s.commutative]


def left_zero(n: int) -> FiniteSemigroup:
    """x·y = x on {0..n-1}."""
    n = _check_size(n)
    return validate_table([[i] * n for i in range(n)])


def right_zero(n: int) -> FiniteSemigroup:
    """x·y = y on {0..n-1}."""
    n = _check_size(n)
    return validate_table([list(range(n)) for _ in range(n)])


def direct_product(s: FiniteSemigroup, u: FiniteSemigroup) -> FiniteSemigroup:
    """S × U, the pair (a, b) labelled a·|U| + b."""
    m = u.size
    table = [
        [s.table[a][c] * m + u.table[b][d] for c in range(s.size) for d in range(m)]
        for a in range(s.size)
        for b in range(m)
    ]
    return validate_table(table)


def standard_catalogue() -> list[tuple[str, FiniteSemigroup]]:
    """The fixed test bed: every associative table of size ≤ 4, modular
    multiplication up to 30, the left/right-zero families, and a few
    direct products."""
    cat: list[tuple[str, FiniteSemigroup]] = []
    for n in (1, 2, 3, 4):
        for i, s in enumerate(all_associative_tables(n)):
            cat.append((f"size{n}_table{i}", s))
    for n in range(1, 31):
        cat.append((f"zmod{n}_times", zmod_times(n)))
    for n in range(2, 6):
        cat.append((f"left_zero_{n}", left_zero(n)))
        cat.append((f"right_zero_{n}", right_zero(n)))
    cat.append(("z2_times_z3", direct_product(zmod_times(2), zmod_times(3))))
    cat.append(("z4_times_z6", direct_product(zmod_times(4), zmod_times(6))))
    cat.append(("left2_times_right3", direct_product(left_zero(2), right_zero(3))))
    cat.append(("left3_times_z5", direct_product(left_zero(3), zmod_times(5))))
    return cat
