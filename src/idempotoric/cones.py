"""Rational polyhedral cones from integer generators.

A cone is built by one run of the double description method, on the
generators as inequalities, whose rays are the facet normals.
``enumerate_faces`` certifies that list by the face lattice it closes
over it, every interval of length 2 of which must be a diamond.  All
arithmetic is exact; rays and facet normals are kept as primitive
integer vectors.

Faces are identified with the subsets of generator indices they contain.
``enumerate_faces`` lists every face with its Hasse covers, working on
bitmasks of the generator-facet incidences, ``Cone.incidences``, which
the double description pass's final check compares with every (facet,
generator) product.  That check, the packed certificate
``_certify_rays``, reads a generator's products with all the facets from
the lanes of one big-int sum (``_dd_rays`` gives the lane width and the
proof).  One walk, whose direction is data, closes the facets' generator
masks from the bottom or the generators' facet masks from the top,
whichever side is smaller; the ``enumerate_faces`` docstring gives the
method, its cost and the proof that the facet list is exact.

Two more algorithms decide faces without the facets.  ``signed_circuits``
lists the minimal linear dependencies of the generators, and by
covector/circuit orthogonality (Björner et al., *Oriented Matroids*,
ch. 3) an index set I is a face exactly when every circuit C has
C⁺ ⊆ I ⇔ C⁻ ⊆ I.  ``_respecting`` tests that on the circuits'
``sign_masks`` for a whole family of sets at once, one bit per set: for
each index the family members containing it form one int, and each
circuit costs one AND of those ints per index of its support, so all
2^r subsets of r generators cost c·|support| ANDs of 2^r-bit ints for c
circuits.  Each circuit is certified by its column sums, all taken in
one sum of packed integer lanes, and by the echelon length of its support
less its last generator, which the sums put in the others' span.
``is_face`` decides a single subset as one feasibility question and
returns an integer witness functional; it is far slower and serves as
the reference the tests hold the other two to.  All three must agree.

Every feasibility question, that one through ``solve_affine`` and the
cone build's proof that its bottom face is linear, goes to one routine,
``_phase_one``: phase one of the simplex method on an integer tableau,
under Bland's rule, whose every answer is certified, a solution by its
caller and an infeasible system by the Farkas vector read off its final
costs.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import chain, compress
from math import gcd, lcm
from operator import add, and_, lshift, mul, sub
from typing import NamedTuple

from .errors import InputError, InternalCheckError
from .lattices import (
    IntegerMatrix,
    Sublattice,
    _extend_echelon,
    _primitive,
    kernel_lattice,
    rank,
    saturate,
)

__all__ = [
    "Cone",
    "Face",
    "FacePoset",
    "cone_from_generators",
    "enumerate_faces",
    "extreme_rays",
    "is_face",
    "sign_masks",
    "signed_circuits",
    "solve_affine",
]

Vector = tuple[int, ...]


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


# --------------------------------------------------------------------------
# exact feasibility: one certified simplex
# --------------------------------------------------------------------------


def _phase_one(columns, rhs):
    """Exact phase one of the simplex method: nonnegative x with
    Σ xⱼ·columns[j] = rhs, its basic entries Fractions and the rest int 0,
    or None, certified, when there is none.

    Each row is negated where its rhs is negative and given an artificial
    variable, whose sum w is minimised from the artificial basis, x = 0.
    The tableau is integral (Edmonds, J. Res. NBS 71B, 1967; Bareiss, Math.
    Comp. 22, 1968): for the basis B and D = det B it holds D·B⁻¹ times the
    rows, the artificials' columns and the rhs, and below them D times the
    reduced costs.  A pivot on an entry p > 0 keeps its row; in each other
    row, whose entry in the pivot's column is c, every entry t becomes
    (p·t − c·u) // D, with u the pivot row's entry in t's column.  The
    division is exact, by Cramer's rule, and p is the next D, which so stays
    positive.  The column to enter is the first with a negative cost and the
    row to leave the one of least ratio, ties to the least basic index:
    Bland's rule (Math. OR 2, 1977), under which no basis repeats, so the
    search ends.  It ends feasible as soon as w = 0, at once when rhs = 0.
    Otherwise no column has a negative cost.  With y = c_B·B⁻¹ for the
    costs c, 1 on the artificials, the artificial i then costs D·(1 − yᵢ)
    and a column a costs −D·y·a, so D·y, the rows' signs put back, is a
    Farkas vector: its product is at most 0 with every column and D·w > 0
    with rhs, which no x ≥ 0 allows.  It is checked before None is
    returned.
    """
    n, m = len(columns), len(rhs)
    signs = [-1 if b < 0 else 1 for b in rhs]
    tab = [
        [s * a[i] for a in columns] + [int(k == i) for k in range(m)] + [s * rhs[i]]
        for i, s in enumerate(signs)
    ]
    costs = [-sum(row[j] for row in tab) for j in range(n)]
    tab.append(costs + [0] * m + [-sum(row[-1] for row in tab)])  # -D·w last
    basis = list(range(n, n + m))
    prev = 1
    while tab[m][-1]:
        enter = next((j for j, c in enumerate(tab[m][:n]) if c < 0), None)
        if enter is None:
            break
        out = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0 and (
                out is None
                or (tab[i][-1] * tab[out][enter], basis[i])
                < (tab[out][-1] * a, basis[out])
            ):
                out = i
        pivot = tab[out]
        p = pivot[enter]
        for i, row in enumerate(tab):
            c = row[enter]
            if i != out:
                tab[i] = [(p * t - c * u) // prev for t, u in zip(row, pivot)]
        basis[out], prev = enter, p
    if not tab[m][-1]:
        x = [0] * n
        for i, j in enumerate(basis):
            if j < n:
                x[j] = Fraction(tab[i][-1], prev)
        return tuple(x)
    y = [s * (prev - c) for s, c in zip(signs, tab[m][n:-1])]
    if any(_dot(y, a) > 0 for a in columns) or _dot(y, rhs) <= 0:
        raise InternalCheckError("phase one's Farkas vector does not certify infeasibility")
    return None


def solve_affine(num_vars, equalities, inequalities):
    """Exact rational feasibility with a witness.

    ``equalities`` are pairs ``(coeffs, rhs)`` meaning ``coeffs @ x == rhs``
    and ``inequalities`` mean ``coeffs @ x >= rhs``.  Returns a tuple of
    Fractions satisfying everything, or None when the system is infeasible.
    The system goes to ``_phase_one`` with x = p − q for p, q ≥ 0 and one
    surplus s ≥ 0 per inequality, ``coeffs @ x − s == rhs``, each row
    scaled to integers by its denominators' least common multiple; so a
    None comes with a checked Farkas vector, and a witness is checked here.
    """

    def scaled(coeffs, rhs, kind):
        row = [*map(Fraction, coeffs), Fraction(rhs)]
        if len(row) != num_vars + 1:
            raise InputError(f"{kind} row has the wrong width")
        den = lcm(*(q.denominator for q in row))
        return [int(q * den) for q in row]

    rows = [scaled(*e, "equality") for e in equalities]
    first = len(rows)  # the first inequality's row
    rows += [scaled(*e, "inequality") for e in inequalities]
    p = [[row[j] for row in rows] for j in range(num_vars)]
    surplus = [[-(i == k) for i in range(len(rows))] for k in range(first, len(rows))]
    pq = _phase_one(p + [[-t for t in a] for a in p] + surplus, [row[-1] for row in rows])
    if pq is None:
        return None
    solution = tuple(Fraction(a - b) for a, b in zip(pq, pq[num_vars : 2 * num_vars]))

    # -- certify ------------------------------------------------------------
    for coeffs, rhs in equalities:
        if sum(Fraction(c) * x for c, x in zip(coeffs, solution)) != Fraction(rhs):
            raise InternalCheckError("witness violates an equality")
    for coeffs, rhs in inequalities:
        if sum(Fraction(c) * x for c, x in zip(coeffs, solution)) < Fraction(rhs):
            raise InternalCheckError("witness violates an inequality")
    return solution


# --------------------------------------------------------------------------
# double description
# --------------------------------------------------------------------------


def _dd_rays(dim, ineqs):
    """V-description of {x : a @ x >= 0 for a in ineqs}.

    Returns (rays, lineality_rows, tight_sets): the first two are lists of
    primitive integer tuples, the third gives each ray's bitmask of the
    inequalities it satisfies with equality.  Rays carry these masks
    throughout; the standard combinatorial adjacency test keeps the ray
    list minimal at every step.  Before that scan, a (positive, negative)
    pair is dropped when its rays share fewer than ``cut - 2`` tight
    inequalities, where ``cut`` counts the inequalities so far that cut the
    lineality space (their rank): two rays are adjacent only when their
    common tight set cuts out a 2-face, which takes rank ``cut - 2``
    (Fukuda & Prodon 1996).  Every pair that passes still goes through the
    scan, which decides.  Each step takes one product per (inequality,
    vector) pair, lineality vectors and rays alike.

    The final check, ``_certify_rays``, takes every (inequality, ray)
    product again, on packed lanes (SWAR: Lamport, CACM 18(8), 1975): none
    may be negative, and each ray's zero products must be exactly the tight
    set it carried.  The R rays v_j are packed per coordinate k as
    Q_k = Σ_j v_j[k]·2^{B·j}, so that S = Σ_k a_k·Q_k = Σ_j (a·v_j)·2^{B·j}
    for an inequality a.  The lane width B is the least with
    max‖a‖₁ · max|v| < 2^{B-1}, so every product p_j = a·v_j has
    |p_j| < 2^{B-1}.  Let H hold the top bit of every lane, 2^{B-1}·2^{B·j}
    for j < R, and L hold 2^{B-1} - 1 in every lane.  If every p_j ≥ 0,
    S's lanes are the p_j themselves, none reaching its top bit, so
    S & H = 0.  If not, let j be the lowest negative lane: the lanes below
    it sum to less than 2^{B·j}, so bits B·j and up of S (in two's
    complement, which Python's & uses for negative ints) read
    p_j + 2^B (mod 2^B), whose top bit is set because -2^{B-1} < p_j < 0.
    So every product is nonnegative exactly when S & H = 0, and then
    S ≥ 0; more, the lowest set bit of S & H is the top bit of the lowest
    negative lane.  Below that lane, every lane of S + L is
    p_j + 2^{B-1} - 1 < 2^B with no carry in, whose top bit is set exactly
    when p_j ≠ 0: (S + L) & H marks the nonzero products there, which must
    be the lanes of the rays not tight at a, read off the transpose of the
    tight sets.  A tight set naming an inequality past the last is a fault
    in its ray's lane.  Among all inequalities, the lowest lane with a
    fault names the first ray at fault, and a negative product there comes
    first, so the check raises what taking the rays one by one would.  The
    r inequalities cost r·d products of a d-entry row by R·B-bit ints, in
    place of r·R dot products.
    """
    lin = [[int(i == j) for j in range(dim)] for i in range(dim)]
    rays: list[tuple[Vector, int]] = []
    cut = 0
    for idx, a in enumerate(ineqs):
        bit = 1 << idx
        products = [_dot(a, l) for l in lin]
        hit = next((i for i, d in enumerate(products) if d), None)
        if hit is not None:
            # the constraint cuts the lineality space: one basis vector
            # becomes a ray, the rest get projected into the hyperplane
            cut += 1
            l0, al0 = lin.pop(hit), products.pop(hit)
            if al0 < 0:
                l0, al0 = [-t for t in l0], -al0
            lin = [
                list(_primitive([al0 * x - d * y for x, y in zip(l, l0)]))
                for l, d in zip(lin, products)
            ]
            new_rays = []
            for vec, tight in rays:
                d = _dot(a, vec)
                adj = _primitive([al0 * x - d * y for x, y in zip(vec, l0)])
                if not any(adj):
                    raise InternalCheckError("ray collapsed onto the lineality space")
                new_rays.append((adj, tight | bit))
            new_rays.append((_primitive(l0), bit - 1))
            rays = new_rays
            continue
        pos, neg, zero = [], [], []
        for k, (vec, tight) in enumerate(rays):
            d = _dot(a, vec)
            if d > 0:
                pos.append((k, vec, tight, d))
            elif d < 0:
                neg.append((k, vec, tight, d))
            else:
                zero.append((vec, tight))
        new_rays = [(v, t) for _, v, t, _ in pos] + [(v, t | bit) for v, t in zero]
        for pk, pvec, pt, pd in pos:
            for nk, nvec, nt, nd in neg:
                common = pt & nt
                if common.bit_count() < cut - 2:
                    continue
                adjacent = True
                for k, (_, ot) in enumerate(rays):
                    if ot & common == common and k != pk and k != nk:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = _primitive([pd * x - nd * y for x, y in zip(nvec, pvec)])
                new_rays.append((combo, common | bit))
        if len({v for v, _ in new_rays}) != len(new_rays):
            raise InternalCheckError("duplicate ray generated")
        rays = new_rays
    out_lin = [tuple(l) for l in lin]
    out_rays, tight_sets = [tuple(v) for v, _ in rays], [t for _, t in rays]
    _certify_rays(ineqs, out_rays, tight_sets)
    for l in out_lin:
        if any(_dot(a, l) for a in ineqs):
            raise InternalCheckError("lineality vector violates a constraint")
    return out_rays, out_lin, tight_sets


def _certify_rays(ineqs, rays, tight):
    """The final check of ``_dd_rays``, whose docstring gives the lane
    width and the proof: raise unless every (inequality, ray) product is
    nonnegative and each ray's zero products are exactly its tight set."""
    big = max(map(abs, chain.from_iterable(rays)), default=0)
    norm = max((sum(map(abs, a)) for a in ineqs), default=0)
    width = (norm * big).bit_length() + 1
    ones = ((1 << width * len(rays)) - 1) // ((1 << width) - 1)  # 1 in every lane
    top = ones << width - 1
    fill = top - ones
    shifts = range(0, width * len(rays), width)
    packed = [sum(map(lshift, col, shifts)) for col in zip(*rays)]
    # the tight lanes of each inequality, and the lanes of the rays whose
    # tight sets name an inequality that is not there
    full = (1 << len(ineqs)) - 1
    tight_lanes = [0] * len(ineqs)
    negative, lost = 0, 0
    for j, t in enumerate(tight):
        lane = 1 << width * j + width - 1
        if t & ~full:
            lost |= lane
        for i in _bits(t & full):
            tight_lanes[i] |= lane
    for a, t in zip(ineqs, tight_lanes):
        s = sum(map(mul, a, packed))
        low = s & top
        low &= -low  # the lowest negative lane, if any: exact below it
        negative |= low
        lost |= ((s + fill) & top ^ top ^ t) & (low - 1)
    first = negative | lost
    first &= -first
    if first & negative:
        raise InternalCheckError("double description ray violates a constraint")
    if first:
        raise InternalCheckError("double description lost track of a tight set")


# --------------------------------------------------------------------------
# cones and faces
# --------------------------------------------------------------------------


class Cone(NamedTuple):
    """A rational polyhedral cone: its generators and its facets.

    ``facets`` holds primitive integer normals of the facet-defining valid
    inequalities; it is empty exactly when the cone is a linear subspace.
    ``incidences`` holds, for each facet in order, the bitmask of the
    generators on it.  ``lineality`` is the saturated lattice spanning
    ``cone ∩ -cone``.  The facet list is proved exact only by
    ``enumerate_faces``, and ``extreme_rays`` reads the rays off the face
    lattice it certifies.
    """

    ambient_dim: int
    generators: tuple[Vector, ...]
    facets: tuple[Vector, ...]
    incidences: tuple[int, ...]
    lineality: Sublattice
    dim: int


class Face(NamedTuple):
    """A face, identified by the sorted generator indices lying on it.

    ``witness`` is an integer functional vanishing on the face's generators
    and strictly positive on all others (the zero functional for the cone
    itself).
    """

    index_set: tuple[int, ...]
    dim: int
    witness: Vector


class FacePoset(NamedTuple):
    """All faces, sorted by (dim, index_set), with Hasse covers.

    The order is inclusion of index sets; meets exist (intersection of
    index sets) and ``bottom``/``top`` point at the unique extremes.  For
    a weight monoid's generator cone this is also the idempotent poset
    (``monoids.idempotents``): one idempotent per face, ``bottom`` the
    unit-group idempotent and ``top`` the one fixing every generator.
    """

    faces: tuple[Face, ...]
    hasse_edges: tuple[tuple[int, int], ...]
    bottom: int
    top: int


def cone_from_generators(ambient_dim, generators) -> Cone:
    """Build the cone spanned by integer generator vectors.

    Duplicate and zero generators are allowed; zero generators lie on every
    face.  One double description pass, on the generators as inequalities,
    gives the facets; its final check is the exact sign test of every facet
    on every generator, and its tight sets are the facets' ``incidences``.
    The bottom face B, the generators on every facet, must have a positive
    dependency: λ with every λᵢ ≥ 1 and Σ λᵢgᵢ = 0, checked here by its d
    column sums.  Then 0 is in the relative interior of B's cone, which is
    so a linear space, the lineality face, and ``lineality`` is its
    saturated span.  λ = 1 + μ, for μ ≥ 0 from ``_phase_one`` on B's
    generators as columns with rhs −Σgᵢ; for opposite pairs the rhs is 0
    and μ = 0.
    ``enumerate_faces`` certifies the facet list.  Raises InputError unless
    ``ambient_dim`` is a nonnegative int (not a bool) and the generators
    are ``ambient_dim`` wide: an ``IntegerMatrix``, taken as validated, or
    rows that ``IntegerMatrix.from_rows`` accepts.
    """
    dim_is_int = isinstance(ambient_dim, int) and not isinstance(ambient_dim, bool)
    if not dim_is_int or ambient_dim < 0:
        raise InputError("ambient dimension must be a nonnegative int")
    mat = generators
    if not isinstance(mat, IntegerMatrix):
        mat = IntegerMatrix.from_rows(generators, cols=ambient_dim)
    elif mat.cols != ambient_dim:
        mat = IntegerMatrix(mat.entries, ambient_dim)  # raises unless it has no rows
    gens = mat.entries
    dual_rays, _, tight = _dd_rays(ambient_dim, list(gens))
    dual = sorted(zip(dual_rays, tight))
    facets = tuple(w for w, _ in dual)
    incidences = tuple(t for _, t in dual)
    bottom = reduce(and_, incidences, (1 << len(gens)) - 1)
    # the bottom face's generators span a linear space, positively: some
    # λ ≥ 1 has Σ λᵢgᵢ = 0
    units = [gens[i] for i in _bits(bottom)]
    mu = _phase_one(units, [-sum(col) for col in zip(*units)])
    lam = None if mu is None else [1 + t for t in mu]
    if (
        lam is None
        or len(lam) != len(units)
        or any(t < 1 for t in lam)
        or any(_dot(lam, col) for col in zip(*units))
    ):
        raise InternalCheckError("bottom face is not linear")
    lineality = saturate(Sublattice.span(ambient_dim, units))
    return Cone(ambient_dim, gens, facets, incidences, lineality, rank(mat))


def _closed_sets(full, masks):
    """Every intersection of ``masks`` with its lower covers.

    The empty intersection is ``full``.  The family is closed one mask at a
    time, ``closed |= {s & mask for s in closed}``.  Every lower cover of a
    set s is s's meet with one of the masks, and by the count test of
    Kaibel & Pfetsch (CGTA 2002) a meet c ≠ s is a cover exactly when it
    occurs (masks ⊇ c) − (masks ⊇ s) times: each mask over c and not over s
    meets s in a closed set between c and s, and every one of them is c
    only when no closed set lies strictly between.  Sets are visited by
    increasing number of bits, so each meet's count of masks over it is
    known.  Returns ``(sets, covers)``: the sets in that order, and for
    each the positions in ``sets`` of its lower covers, each before it, as
    a cover has fewer bits.
    """
    closed = {full}
    for mask in masks:
        closed |= {s & mask for s in closed}
    sets = sorted(closed, key=int.bit_count)
    position = {s: k for k, s in enumerate(sets)}
    over, covers = [], []
    meets = Counter()
    for s in sets:
        meets.clear()
        meets.update(map(s.__and__, masks))
        over.append(n := meets.pop(s, 0))
        covers.append([c for t, k in meets.items() if k == over[c := position[t]] - n])
    return sets, covers


def _bits(mask):
    """The positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def enumerate_faces(cone: Cone) -> FacePoset:
    """Every face of the cone, as a graded poset, and the proof that the
    facet list is exact.

    A face is a set of generators and the set T of the facets through it,
    each a bitmask: its generators are those on every facet of T, the AND
    of their ``cone.incidences``, and T holds the facets through every one
    of its generators, the AND of their facet masks.  So the faces are the
    intersections of the incidences (the empty intersection is the cone
    itself), and dually of the facet masks (the empty one is the lineality
    space, on every facet), and the lattice L is closed by ``_closed_sets``
    over whichever of the r generators and m facets is fewer: O(F·min(r, m))
    mask operations for the closure and the count test for the covers,
    after Kaibel & Pfetsch (CGTA 2002).  Closed over the incidences, L's
    order is inclusion and the walk starts at the bottom; closed over the
    facet masks, the faces' T, it is the order-dual and the walk starts at
    the top.  Either way it ends at the other end, its far end, and carries
    each face's set of the other side.  A closed set is the AND of its
    side's masks over the members of the other side it gives: distinct
    closed sets, distinct faces.

    Each face but the start is built from the cover it lists back towards
    the start with the most closed members, which the walk reaches first,
    as a cover has fewer closed members: its carried set is that
    cover's ANDed with the masks of the members it adds, and its height is
    that cover's plus one walking up, minus one walking down, from 0 at the
    start.  Every face but the start must list a cover and every face but
    the far end must be listed, so each face lies on a chain of covers from
    the start to the far end.  Every cover edge b ⋖ s needs height s =
    height b + 1 and a facet through b and off s (their carried sets
    differ), which vanishes on the span of b and is positive on some
    generator of s: every edge raises the true rank by at least one.  So
    from the bottom to the top the height rises by at most the rank does,
    from the bottom's, the length of a fraction-free echelon basis of its
    generators, to the top's, ``cone.dim``.  The walk checks that it rises
    by exactly that, a check named for the far end's rank.  Then along every
    chain from end to end each edge raises the rank by exactly one, and
    each face's dimension is the bottom's rank plus its height above the
    bottom.  The faces the top covers must be exactly the facets' masks, so
    no listed facet is redundant or listed twice.  A face's sorted
    generators and its witness functional, the sum of the normals over T,
    come in the same step from the cover it was built from: walking up,
    that cover's generators merged with those it adds and its witness less
    the normals of the facets it leaves, the bottom's from the sum over
    every facet; walking down, the generators of its carried set and the
    cover's witness plus the normals of the facets it adds, from zero.

    Last, every interval [b, s] of length 2 in L must be a diamond, with
    two middle elements (Ziegler, *Lectures on Polytopes*, lecture 2): the
    paths of two covers back from each face must reach twice as many faces
    as they are.  Then L is the cone's face lattice Φ, and no facet is
    missing.  Each element of L is a face, an intersection of tight sets of
    valid inequalities, of its true dimension, and L's bottom is the
    lineality face (``cone_from_generators``).  So a cover of L is one of
    Φ, L's middle elements are Φ's, reached at most twice, so each exactly
    twice, and every maximal chain of L is a flag of Φ.  Flipping a flag in
    L at F_i swaps F_i for the other middle element of the diamond
    [F_{i-1}, F_{i+1}], which is in L.  Modulo its lineality space Φ is a
    polytope's face lattice, flag-connected (McMullen & Schulte, *Abstract
    Regular Polytopes*, ch. 2): flips reach every flag from any other, so L
    holds every flag of Φ, and every face.  The count takes each path once,
    after the other checks.
    """
    return _walk(cone, len(cone.facets) > len(cone.generators))


_NO_LOWER = "a face above the bottom has no lower cover"
_NO_UPPER = "a face below the top has no upper cover"


def _walk(cone, down):
    """``enumerate_faces`` by the closure over the facets' generator masks,
    from the bottom, or (``down``) over the generators' facet masks, from
    the top."""
    gens, normals, incidences = cone.generators, cone.facets, cone.incidences
    through = [0] * len(gens)  # each generator's facet mask
    for j, inc in enumerate(incidences):
        for i in _bits(inc):
            through[i] |= 1 << j
    all_gens, all_facets = (1 << len(gens)) - 1, (1 << len(incidences)) - 1

    # the orientation: the masks closed over and their full set, the carried
    # side's masks, one per closed member, and its full set; the covers
    # listed back towards the start and those ahead; the height step; the
    # bottom and the top, as the start (0) or the far end (-1); the far end's
    # rank check, and the messages for a face with no cover back or ahead
    lower, upper = [], []  # each face's covers, by walk position
    if down:
        masks, full, cross, carried_full = through, all_facets, incidences, all_gens
        back, ahead, step = upper, lower, -1
        bottom, top, far_rank = -1, 0, "bottom face rank differs from its elimination"
        no_back, no_ahead = _NO_UPPER, _NO_LOWER
    else:
        masks, full, cross, carried_full = incidences, all_gens, through, all_facets
        back, ahead, step = lower, upper, 1
        bottom, top, far_rank = 0, -1, "top face rank differs from the cone's dimension"
        no_back, no_ahead = _NO_LOWER, _NO_UPPER

    sets, listed = _closed_sets(full, masks)
    carried, heights, members, witnesses = [], [], [], []  # by walk position
    gen_masks = carried if down else sets
    # the witness before the start: over no facet walking down, and over
    # every facet walking up, less those off the bottom at the start
    zero = (0,) * cone.ambient_dim
    before = zero if down else tuple(map(sum, zip(zero, *normals)))
    for k, (s, covers) in enumerate(zip(sets, listed)):
        if covers:
            c = max(covers)  # the cover back with the most closed members
            t, h, had, w = carried[c], heights[c] + step, members[c], witnesses[c]
            new = _bits(s & ~sets[c])
        elif k:
            break
        else:  # the walk's start
            t, h, had, w, new = carried_full, 0, (), before, _bits(s)
        was = t
        for i in new:
            t &= cross[i]
        for b in covers:
            if carried[b] == t:
                raise InternalCheckError("face step has no separating facet")
            if heights[b] + step != h:
                raise InternalCheckError("face poset is not graded by dimension")
            ahead[b].append(k)
        heights.append(h)
        carried.append(t)
        back.append(covers)
        ahead.append([])
        # the face's sorted generators, and its witness, the sum of the
        # normals over its T: c's plus the facets it adds walking down, and
        # less the facets it leaves walking up
        if down:
            members.append(tuple(_bits(t)))
            for j in new:
                w = tuple(map(add, w, normals[j]))
        else:
            members.append(tuple(sorted((*had, *new))))
            for j in _bits(was & ~t):
                w = tuple(map(sub, w, normals[j]))
        witnesses.append(w)
    last = len(heights) - 1
    stopped = last < len(sets) - 1
    # the walk stops at a face with no cover back; only the far end may
    # have no cover ahead
    if stopped or ahead.count([]) > 1:
        raise InternalCheckError(no_back if stopped else no_ahead)

    rank = len(_extend_echelon([], [gens[i] for i in members[bottom]]))
    if heights[top] - heights[bottom] != cone.dim - rank:
        raise InternalCheckError(far_rank)
    if sorted(map(gen_masks.__getitem__, lower[top])) != sorted(incidences):
        raise InternalCheckError("a listed facet is not a facet")
    # each face two steps back must be reached by exactly two paths
    back_of = back.__getitem__
    for covers in back:
        two = list(chain.from_iterable(map(back_of, covers)))
        if 2 * len(set(two)) != len(two):
            raise InternalCheckError("an interval of length 2 is not a diamond")

    # heights order the faces as their dimensions do
    shift = rank - heights[bottom]
    order = sorted(range(last + 1), key=list(zip(heights, members)).__getitem__)
    position = dict(zip(order, range(last + 1))).__getitem__
    return FacePoset(
        tuple(Face(members[k], heights[k] + shift, witnesses[k]) for k in order),
        tuple((p, q) for p, k in enumerate(order) for q in sorted(map(position, upper[k]))),
        0,  # the bottom face, of the least dimension, sorts first
        last,  # and the top, of the greatest, last
    )


def extreme_rays(cone: Cone, poset: FacePoset) -> tuple[Vector, ...]:
    """One primitive vector on each ray of the cone modulo ``lineality``,
    sorted.  The rays are the atoms of the face lattice ``poset`` from
    ``enumerate_faces(cone)``, the faces one dimension above the bottom.
    One generator of each atom off the bottom face is reduced by the
    Hermite basis of ``lineality`` until it vanishes on the basis's pivots,
    and made primitive, so the vector depends on the ray alone, not on the
    generators' order."""
    rows = cone.lineality.basis.entries
    basis = [(next(k for k, x in enumerate(row) if x), row) for row in rows]
    bottom = poset.faces[poset.bottom]
    atoms = [f.index_set for f in poset.faces if f.dim == bottom.dim + 1]
    off = [next(i for i in s if i not in bottom.index_set) for s in atoms]
    return tuple(sorted(_extend_echelon(basis, [cone.generators[i]])[-1][1] for i in off))


def sign_masks(vec) -> tuple[int, int]:
    """Bitmasks of the positive and of the negative entries of a vector."""
    pos = neg = 0
    for i, c in enumerate(vec):
        if c > 0:
            pos |= 1 << i
        elif c:
            neg |= 1 << i
    return pos, neg


def _oriented_primitive(vec) -> Vector:
    """``vec`` divided by the gcd of its entries, negated too if its first
    nonzero entry is negative; the zero vector as it is."""
    g = gcd(*vec)
    if next(filter(None, vec), 0) < 0:
        g = -g
    return tuple(vec) if g == 1 or not g else tuple(map(g.__rfloordiv__, vec))


def signed_circuits(ambient_dim, generators, kernel=None) -> tuple[Vector, ...]:
    """Every signed circuit of the generators, as a primitive integer vector.

    A circuit is a linear dependency Σ cᵢgᵢ = 0 whose support is minimal;
    it is unique up to scale on that support, so it depends only on the
    kernel.  Each comes once as the primitive vector (c₁, …, c_r), lowest
    nonzero entry positive, sorted by support size, then ``sign_masks``.
    Zero, duplicate and opposite generators give circuits of size 1 or 2.

    The dependencies form the kernel K of the generator matrix, of dimension
    m = r - rank: ``kernel``, its ``kernel_lattice``, built here unless
    passed in, as the kernel of any rows with the same dependencies may
    be.  The vectors of K vanishing on m - 1 coordinates whose coordinate
    functionals are independent on K form a line, whose support is a
    circuit, and every circuit arises so from coordinates off its support.
    Those coordinate sets are walked depth first over the kernel's basis,
    on an explicit stack, one fraction-free elimination step per column,
    divided by the pivot of the step before (Bareiss); a node of two rows
    a, b gives each column's line directly, a[col]·b − b[col]·a, or a, made
    once, where a[col] = 0.  That is at most C(r, m - 1) leaves.  Each leaf
    is made primitive and oriented in one step (``_oriented_primitive``),
    so v and −v meet in the set of leaves and each circuit is checked once.

    A circuit's support and positive part are read as bitmasks, each the
    sum of the generator bits that ``compress`` selects, and its column
    sums as one product with the packed generators.  It is checked three
    ways: it is not zero; it sums to zero, so a kernel vector that is not
    a dependency fails here; and its prefix, the support less its last
    generator, is independent, by the length of its fraction-free echelon
    basis (``_extend_echelon``), kept for every prefix and built from the
    longest one built before: Σ cᵢgᵢ = 0 with c_last ≠ 0 puts g_last in
    the prefix's span, so the support has rank size - 1 and is minimal.
    The sum is one big int: each generator g is packed once as
    P = Σ_k g[k]·2^{B·k}, with B the least width such that
    ‖c‖₁·max|g| < 2^{B-1} for every leaf c, so lane k of Σ cᵢ·Pᵢ is the
    column sum Σ cᵢ·gᵢ[k], less than 2^{B-1} in size.  Such a sum of lanes
    is zero only when every lane is, since the highest nonzero lane
    outweighs all those below it.
    """
    mat = IntegerMatrix.from_rows(generators, cols=ambient_dim)
    gens = mat.entries
    r = len(gens)
    if kernel is None:
        kernel = kernel_lattice(mat)
    basis = kernel.basis.entries
    # each entry: rows spanning the kernel vectors that vanish on every
    # column chosen so far, the first column still to choose from, and the
    # pivot of the step that made the rows
    stack = [(basis, 0, 1)] if len(basis) > 1 else []
    leaves = set(map(_oriented_primitive, basis)) if len(basis) == 1 else set()
    add = leaves.add
    while stack:
        rows, start, prev = stack.pop()
        if len(rows) == 2:  # one row cleared at col by the other spans a line
            a, b = rows
            line = None  # a, where a[col] = 0 and b[col] != 0
            for col in range(start, r):
                x = a[col]
                if x:
                    y = b[col]
                    add(_oriented_primitive([x * v - y * u for u, v in zip(a, b)]))
                elif line is None and b[col]:
                    line = _oriented_primitive(a)
                    add(line)
            continue
        for col in range(start, r - len(rows) + 2):
            for k, piv in enumerate(rows):
                p = piv[col]
                if p:
                    break
            else:
                continue
            rest = []
            for row in rows[:k] + rows[k + 1 :]:
                c = row[col]
                rest.append([(p * x - c * y) // prev for x, y in zip(row, piv)])
            stack.append((rest, col + 1, p))
    # each generator packed over its coordinates, lanes wide enough that
    # the lanes of Σ cᵢ·Pᵢ, each at most ‖c‖₁·max|g| in size, are exact
    big = max(map(abs, chain.from_iterable(gens)), default=0)
    norm = max((sum(map(abs, vec)) for vec in leaves), default=0)
    width = (norm * big).bit_length() + 1
    shifts = range(0, width * ambient_dim, width)
    packed = [sum(map(lshift, g, shifts)) for g in gens]
    bits = [1 << i for i in range(r)]
    positive = (0).__lt__
    echelons = {0: []}  # the echelon basis of the generators of each mask
    circuits = []
    for vec in leaves:
        support = sum(compress(bits, vec))
        if not support:
            raise InternalCheckError("signed circuit is the zero vector")
        if sum(map(mul, vec, packed)):
            raise InternalCheckError("signed circuit is not a linear dependency")
        prefix = support ^ bits[support.bit_length() - 1]  # less its last generator
        rows = echelons.get(prefix)
        if rows is None:  # built from its longest prefix built before
            mask = prefix
            while mask not in echelons:
                mask ^= bits[mask.bit_length() - 1]
            rows = echelons[mask]
            for i in _bits(prefix ^ mask):
                mask |= bits[i]
                rows = echelons[mask] = _extend_echelon(rows, [gens[i]])
        size = support.bit_count()
        if len(rows) != size - 1:
            raise InternalCheckError("signed circuit support is not minimal")
        pos = sum(compress(bits, map(positive, vec)))
        circuits.append((size, pos, support ^ pos, vec))
    circuits.sort()
    return tuple(vec for *_, vec in circuits)


def _respecting(has, pairs, family):
    """The members of a family that respect every (C⁺, C⁻) mask pair.

    Members are the set bits of ``family``, and ``has[i]`` holds the
    members that contain index i, for every index the pairs name.  The
    members containing a side are the AND of ``has`` over it (all of
    ``family`` for an empty side), and a member respects a pair when it
    contains both sides or neither, so the result is the AND over the pairs
    of ~(AND over C⁺ ^ AND over C⁻): the test of every member at once, in
    c·|support| ANDs of |family|-bit ints for c pairs.
    """
    out = family
    for pos, neg in pairs:
        a = b = family
        while pos:  # each set bit, lowest first
            low = pos & -pos
            a &= has[low.bit_length() - 1]
            pos ^= low
        while neg:
            low = neg & -neg
            b &= has[low.bit_length() - 1]
            neg ^= low
        out &= ~(a ^ b)
    return out


def is_face(cone: Cone, index_set) -> Vector | None:
    """Decide one candidate index set, independently of enumerate_faces.

    Feasibility of {w : w @ g_i == 0 on the set, w @ g_j >= 1 off it} is
    settled by ``solve_affine``, exactly.  On success returns a
    primitive integer witness functional (the zero functional for the full
    set); on failure returns None.  Far slower than the circuit test, it
    is kept as the reference the tests hold the other face algorithms to.
    """
    r = len(cone.generators)
    if not isinstance(index_set, (list, tuple)):
        raise InputError(f"an index set must be an array, got {index_set!r}")
    for i in index_set:
        if isinstance(i, bool) or not isinstance(i, int):
            raise InputError(f"index {i!r} must be an int")
    chosen = set()
    for i in index_set:
        if not 0 <= i < r:
            raise InputError(f"generator index {i!r} out of range")
        chosen.add(i)
    eqs = [(cone.generators[i], 0) for i in sorted(chosen)]
    ineqs = [(cone.generators[j], 1) for j in range(r) if j not in chosen]
    sol = solve_affine(cone.ambient_dim, eqs, ineqs)
    if sol is None:
        return None
    den = lcm(*(q.denominator for q in sol))
    w = _primitive([int(q * den) for q in sol])
    for i in range(r):
        val = _dot(w, cone.generators[i])
        if (val != 0) if i in chosen else (val <= 0):
            raise InternalCheckError("scaled witness lost its sign pattern")
    return w

