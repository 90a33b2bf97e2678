"""Shared helpers: seeded random instances and named cones used across
test modules."""

import itertools
import random
from fractions import Fraction

from idempotoric.cones import cone_from_generators


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
