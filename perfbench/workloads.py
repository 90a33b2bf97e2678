"""The four job lists, made from a seed.

Each workload is a fixed list of job templates.  A template fixes the
mathematical structure of a job and the order of its eigenvalues or
generators, and with them the work the program has to do: the double
description method and the kernel's Hermite basis both depend on that
order.  The seed picks the rest of the presentation the program sees: the
primes, the signs, a unimodular change of exponent coordinates, a signed
permutation of cone coordinates, a relabelling of table elements.  So
different seeds send different inputs, while the work per pass, and with
it the spread of the figures from seed to seed, stays small.

Each job carries, besides its payload, what the benchmark knows about the
answer from the construction alone (``expect``); ``checks`` compares the
program's report against it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from checks import rational_rank as _rank

WORKLOADS = ("eigen-relations", "eigen-faces", "cone-faces", "finite-tables")

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Six-digit primes in a narrow band, so that trial division costs about the
# same whichever of them a seed picks.
BIG_PRIMES = (
    100003, 100019, 100043, 100049, 100057, 100069, 100103, 100109,
    100129, 100151, 100153, 100169, 100183, 100189, 100193, 100207,
)


@dataclass(frozen=True)
class Job:
    name: str
    mode: str
    payload: dict
    expect: dict = field(default_factory=dict)


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one pass of ``workload`` under ``seed``."""
    makers = {
        "eigen-relations": _eigen_relations,
        "eigen-faces": _eigen_faces,
        "cone-faces": _cone_faces,
        "finite-tables": _finite_tables,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; one of {', '.join(WORKLOADS)}")
    return makers[workload](random.Random(f"{workload}:{seed}"))


# -- eigen jobs ----------------------------------------------------------------


def _spectrum(rng, rows, kinds, mix, invert):
    """Eigenvalues ±∏ p^e for exponent ``rows`` over columns of ``kinds``.

    Small columns get distinct primes from the first ones, big columns
    distinct six-digit primes.  With ``mix`` the small-column exponents go
    through a random unimodular matrix first, which keeps the cone and the
    relations up to a lattice isomorphism.  The eigenvalues keep the order
    of the rows.
    """
    small = [j for j, k in enumerate(kinds) if k == "small"]
    big = [j for j, k in enumerate(kinds) if k == "big"]
    rows = [list(r) for r in rows]
    if mix and len(small) > 1:
        u = [[int(i == j) for j in range(len(small))] for i in range(len(small))]
        for _ in range(2 * len(small)):
            a, b = rng.sample(range(len(small)), 2)
            c = rng.choice((-1, 1))
            for urow in u:
                urow[b] += c * urow[a]
        for r in rows:
            part = [r[j] for j in small]
            for jj, j in enumerate(small):
                r[j] = sum(part[i] * u[i][jj] for i in range(len(small)))
    primes = [0] * len(kinds)
    for j, p in zip(small, rng.sample(SMALL_PRIMES[: len(small)], len(small))):
        primes[j] = p
    for j, p in zip(big, rng.sample(BIG_PRIMES, len(big))):
        primes[j] = p
    values = []
    for r in rows:
        q = Fraction(rng.choice((1, -1)))
        for p, e in zip(primes, r):
            q *= Fraction(p) ** e
        values.append(1 / q if invert else q)
    return values


def _eigen_payload(values):
    return {"eigenvalues": [str(q) for q in values]}


# (eigenvalues, primes, template) per slot; the kernel rank is r − p, 3 to
# 6.  The median and the 90th percentile of a run are order statistics of
# the sorted job costs, so each falls inside a cluster of slots of about
# one cost: the median on five copies of (8, 5) template 1 and three
# others like it, above ten lighter (8, 4) slots; the 90th percentile on
# five copies of (9, 4) template 0 and the heavier (8, 5) template 0,
# below the single (10, 4) slot.
_RELATION_SLOTS = (
    *[(8, 4, k) for k in range(10)],
    *[(8, 5, 1)] * 5,
    (8, 5, 2), (8, 5, 3), (8, 5, 4), (8, 5, 0),
    *[(9, 4, 0)] * 5,
    (10, 4, 0),
)


def _relation_template(r: int, p: int, key: int):
    """A fixed r × p exponent matrix of full column rank with distinct
    nonzero rows, entries 0..2: integer eigenvalues, a pointed cone."""
    trng = random.Random(f"eigen-relations/template/{r}x{p}/{key}")
    while True:
        rows = set()
        while len(rows) < r:
            row = tuple(trng.choice((0, 0, 1, 1, 2)) for _ in range(p))
            if any(row):
                rows.add(row)
        rows = sorted(rows)
        if _rank(rows) == p:
            return rows


def _eigen_relations(rng):
    jobs = []
    for slot, (r, p, key) in enumerate(_RELATION_SLOTS):
        rows = _relation_template(r, p, key)
        values = _spectrum(rng, rows, ["small"] * p, False, rng.random() < 0.5)
        jobs.append(
            Job(f"rel{slot:02d}-r{r}p{p}t{key}", "eigen", _eigen_payload(values),
                {"kernel_rank": r - p})
        )
    return jobs


# Blocks of the eigen-faces spectra: exponent rows over local columns, the
# kind of each column, and every face as a set of local row indices.
_BLOCKS = {
    # t1, t2, t1*t2: the worked 2, 3, 6 example
    "tri": ([(1, 0), (0, 1), (1, 1)], ("small",) * 2,
            [(), (0,), (1,), (0, 1, 2)]),
    # cone over a square: t1*t4 = t2*t3
    "square": ([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], ("small",) * 3,
               [(), (0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 3), (2, 3),
                (0, 1, 2, 3)]),
    # cone over a pentagon, vertices in cyclic order
    "pentagon": ([(0, 0, 1), (1, 0, 1), (2, 1, 1), (1, 2, 1), (0, 1, 1)],
                 ("small",) * 3,
                 [()] + [(i,) for i in range(5)]
                 + [tuple(sorted((i, (i + 1) % 5))) for i in range(5)]
                 + [(0, 1, 2, 3, 4)]),
    # a value and its inverse: a unit, lineality of rank 1
    "unit": ([(1,), (-1,)], ("small",), [(0, 1)]),
    # one free generator over a small prime
    "ray": ([(1,)], ("small",), [(), (0,)]),
    # one free generator P*Q over two six-digit primes
    "bigray": ([(1, 1)], ("big", "big"), [(), (0,)]),
    # a six-digit prime and its inverse
    "bigunit": ([(1,), (-1,)], ("big",), [(0, 1)]),
}

# Eleven or twelve eigenvalues each, so the subset oracle (up to ten
# generators) is skipped; kernel rank 2 to 4; 16 to 200 faces.  As in
# eigen-relations the median falls on a cluster of five slots of one
# product (128 faces), above ten lighter slots, and the 90th percentile on
# a cluster of five (160 faces), below the single 200-face slot.
_LIGHT_FACES = (
    ("tri", "bigunit", "unit", "ray", "ray", "ray", "bigray"),
    ("square", "unit", "unit", "ray", "ray", "bigray"),
    ("square", "unit", "bigunit", "ray", "ray", "bigray"),
    ("pentagon", "unit", "unit", "ray", "bigray"),
    ("pentagon", "tri", "ray", "bigunit"),
)
_FACE_SLOTS = (
    *_LIGHT_FACES, *_LIGHT_FACES,
    *[("tri", "tri", "unit", "ray", "ray", "bigray")] * 5,
    ("pentagon", "tri", "unit", "bigray"),
    ("pentagon", "square", "unit"),
    ("pentagon", "square", "bigunit"),
    ("tri", "unit", "unit", "ray", "bigray", "bigunit"),
    *[("square", "tri", "unit", "ray", "bigray")] * 5,
    ("square", "square", "unit", "bigray"),
)


def _block_product(names):
    """Block-diagonal exponent rows, column kinds and the exact face family
    (0-based row indices) of the product of the named blocks: a face of a
    product of cones is a product of faces."""
    blocks = [_BLOCKS[n] for n in names]
    ncols = sum(len(b[1]) for b in blocks)
    rows, kinds, families = [], [], []
    for brows, bkinds, bfaces in blocks:
        off_r, off_c = len(rows), len(kinds)
        for br in brows:
            row = [0] * ncols
            row[off_c : off_c + len(br)] = br
            rows.append(tuple(row))
        kinds.extend(bkinds)
        families.append([tuple(off_r + i for i in f) for f in bfaces])
    faces = {
        tuple(sorted(i for part in combo for i in part))
        for combo in itertools.product(*families)
    }
    return rows, kinds, faces


def _eigen_faces(rng):
    jobs = []
    for slot, names in enumerate(_FACE_SLOTS):
        rows, kinds, faces = _block_product(names)
        values = _spectrum(rng, rows, kinds, True, False)
        expected = sorted(tuple(i + 1 for i in f) for f in faces)
        jobs.append(
            Job(f"faces{slot:02d}-r{len(rows)}", "eigen", _eigen_payload(values),
                {"index_sets": expected})
        )
    return jobs


# -- cone jobs -----------------------------------------------------------------


def _cube(d):
    return [tuple(s) + (1,) for s in itertools.product((-1, 1), repeat=d)]


def _cross(d):
    gens = []
    for i in range(d):
        for s in (1, -1):
            v = [0] * (d + 1)
            v[i] = s
            v[d] = 1
            gens.append(tuple(v))
    # the centre lies inside: it changes no face count and lifts the
    # generator count above ten, past the subset oracle
    gens.append(tuple([0] * d + [1]))
    return gens


def _cube_fvector(d):
    """Faces of the cone over the d-cube by cone dimension: the apex, then
    C(d, k)·2^(d−k) faces for each k-face of the cube."""
    from math import comb

    return [1] + [comb(d, k) * 2 ** (d - k) for k in range(d + 1)]


def _cross_fvector(d):
    """Faces of the cone over the d-cross-polytope by cone dimension:
    C(d, k)·2^k for its (k−1)-faces, k = 0..d, then the cone itself."""
    from math import comb

    return [comb(d, k) * 2**k for k in range(d + 1)] + [1]


def _random_cone(d, r, key):
    """A fixed pointed cone: the last coordinate of every generator is
    positive, the others lie in −3..3; distinct generators, full rank."""
    trng = random.Random(f"cone-faces/template/{d}/{r}/{key}")
    while True:
        gens = set()
        while len(gens) < r:
            gens.add(
                tuple(trng.randint(-3, 3) for _ in range(d - 1)) + (trng.randint(1, 3),)
            )
        gens = sorted(gens)
        if _rank(gens) == d:
            return gens


# The 5- and 6-cube, the 5- and 6-cross-polytope and thirty-one random
# pointed cones, thirty-five slots, so that the median (slot 18 in order of
# cost) falls on a cluster of five copies of one dimension-5, r = 16 cone
# above fifteen lighter cones, and the 90th percentile (slot 32) on a
# cluster of five copies of one dimension-6, r = 12 cone, below the
# 6-cross-polytope and the 6-cube.
_CONE_SLOTS = (
    *[("random", 5, 12, k) for k in range(12)],
    *[("random", 5, 14, k) for k in range(3)],
    *[("random", 5, 16, 0)] * 5,
    ("cube", 5), ("cross", 5),
    *[("random", 5, 16, k) for k in range(1, 4)],
    *[("random", 5, 20, k) for k in range(3)],
    *[("random", 6, 12, 0)] * 5,
    ("cross", 6), ("cube", 6),
)


def _cone_faces(rng):
    jobs = []
    for slot, spec in enumerate(_CONE_SLOTS):
        expect = {}
        if spec[0] == "cube":
            gens, expect["fvector"] = _cube(spec[1]), _cube_fvector(spec[1])
        elif spec[0] == "cross":
            gens, expect["fvector"] = _cross(spec[1]), _cross_fvector(spec[1])
        else:
            gens = _random_cone(*spec[1:])
        dim = len(gens[0])
        perm = list(range(dim))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(dim)]
        gens = [tuple(signs[j] * g[perm[j]] for j in range(dim)) for g in gens]
        name = "-".join(str(x) for x in spec)
        jobs.append(
            Job(f"cone{slot:02d}-{name}", "cone",
                {"ambient_dim": dim, "generators": [list(g) for g in gens]}, expect)
        )
    return jobs


# -- finite jobs ---------------------------------------------------------------


# (kind, a, b): Z_a under multiplication alone, or times a left- or
# right-zero band of size b.  Sizes a·b from 24 to 90.
_FINITE_SLOTS = (
    ("zmod", 24, 1), ("left", 9, 3), ("zmod", 30, 1), ("right", 8, 4),
    ("zmod", 36, 1), ("left", 10, 4), ("zmod", 42, 1), ("right", 15, 3),
    ("zmod", 48, 1), ("left", 18, 3), ("zmod", 60, 1), ("right", 16, 4),
    ("zmod", 72, 1), ("left", 28, 3), ("zmod", 90, 1),
)


def _finite_tables(rng):
    jobs = []
    for slot, (kind, a, b) in enumerate(_FINITE_SLOTS):
        n = a * b

        def mul(x, y):
            # element x stands for the pair (x // b, x % b)
            g = (x // b) * (y // b) % a
            band = {"zmod": 0, "left": x % b, "right": y % b}[kind]
            return g * b + band

        label = list(range(n))
        rng.shuffle(label)
        table = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                table[label[x]][label[y]] = label[mul(x, y)]
        jobs.append(
            Job(f"fin{slot:02d}-{kind}{a}x{b}", "finite", {"table": table},
                {"kind": kind, "a": a, "b": b, "label": label})
        )
    return jobs
