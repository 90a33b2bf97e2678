"""Shared helpers: seeded random instances, named cones and the finite
table catalogues used across test modules."""

import itertools
import random
from fractions import Fraction

from idempotoric.cones import cone_from_generators
from idempotoric.finite import (
    FiniteSemigroup,
    _check_size,
    _fill_tables,
    all_associative_tables,
    direct_product,
    left_zero,
    right_zero,
    zmod_times,
)


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
    """Every commutative associative table on {0..n-1}: only the upper
    triangle is searched, the mirror cell is written alongside."""
    n = _check_size(n)
    cells = [(i, j) for i in range(n) for j in range(i, n)]

    def assign(t, cell, v):
        i, j = cell
        t[i][j] = v
        if i != j:
            t[j][i] = v
            return ((i, j), (j, i))
        return ((i, j),)

    yield from _fill_tables(n, cells, assign)


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
