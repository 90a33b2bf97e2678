"""Rational polyhedral cones from integer generators.

A cone is built by the double description method run twice: once on the
generators to get the facet inequalities (extreme rays of the dual cone),
once on those inequalities to get the extreme rays and lineality space of
the cone itself.  The second pass certifies the first: the listed facets
cut out a cone that contains the generators' cone, and the two are equal,
so no facet is missing, when every ray of the second pass is a generator
modulo the lineality space and the generators in that space span it
positively.  ``enumerate_faces`` checks that no listed facet is redundant.
All arithmetic is exact; rays and facet normals are kept as primitive
integer vectors.

Faces are identified with the subsets of generator indices they contain.
``enumerate_faces`` lists every face with its Hasse covers, working on
bitmasks of the generator-facet incidences.  The faces are the
intersections of the facets' generator masks and, dually, of the
generators' facet masks, so the lattice is closed over whichever side is
smaller: O(F·min(r, m)) mask operations for F faces, r generators and m
facets.  The lower covers of a set come from the same meets by the count
test of Kaibel & Pfetsch (CGTA 2002), also O(F·min(r, m)).  The masks are
``Cone.incidences``, the tight sets of the double description's dual
pass, whose final check compares them with every (facet, generator)
product, so no facet-generator product is taken twice.  Each face's data
comes from one neighbour in the Hasse diagram: only the bottom face is
eliminated, every other face has its largest lower cover's dimension
plus one, which a facet through each lower cover and off the face, and
the top face's rank against ``cone.dim``, certify; its witness, the sum
of the normals of the facets through it, is an upper cover's witness
plus the normals of the facets it adds.

Two more algorithms decide faces without the facets.  ``signed_circuits``
lists the minimal linear dependencies of the generators, and by
covector/circuit orthogonality (Björner et al., *Oriented Matroids*,
ch. 3) an index set I is a face exactly when every circuit C has
C⁺ ⊆ I ⇔ C⁻ ⊆ I; ``circuit_criterion`` tests that on the circuits'
``sign_masks`` for one set.  ``_respecting`` tests it for a whole family
of sets at once, one bit per set: for each index the family members
containing it form one int, and each circuit costs one AND of those ints
per index of its support, so all 2^r subsets of r generators cost
c·|support| ANDs of 2^r-bit ints for c circuits.  Each circuit is
certified by its column sums and by the rank of its support.
``is_face`` decides a single subset by exact rational Fourier-Motzkin
elimination and returns an integer witness functional; it is far slower
and serves as the reference the tests hold the other two to.  All three
must agree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import add, mul

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
    "circuit_criterion",
    "cone_from_generators",
    "enumerate_faces",
    "is_face",
    "sign_masks",
    "signed_circuits",
    "solve_affine",
]

Vector = tuple[int, ...]


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


# --------------------------------------------------------------------------
# exact affine feasibility (Fourier-Motzkin with witness recovery)
# --------------------------------------------------------------------------


def solve_affine(num_vars, equalities, inequalities):
    """Exact rational feasibility with a witness.

    ``equalities`` are pairs ``(coeffs, rhs)`` meaning ``coeffs @ x == rhs``
    and ``inequalities`` mean ``coeffs @ x >= rhs``.  Returns a tuple of
    Fractions satisfying everything, or None when the system is infeasible.
    Equalities are removed by exact Gauss-Jordan substitution, the rest by
    Fourier-Motzkin elimination; the witness is rebuilt by walking the
    eliminated variables backwards.
    """
    # -- equality reduction ------------------------------------------------
    pivots: list[tuple[int, list[Fraction], Fraction]] = []
    for coeffs, rhs in equalities:
        a = [Fraction(t) for t in coeffs]
        if len(a) != num_vars:
            raise InputError("equality row has the wrong width")
        b = Fraction(rhs)
        for pc, prow, prhs in pivots:
            c = a[pc]
            if c:
                a = [s - c * t for s, t in zip(a, prow)]
                b -= c * prhs
        j = next((idx for idx, t in enumerate(a) if t), None)
        if j is None:
            if b != 0:
                return None
            continue
        inv = a[j]
        a = [t / inv for t in a]
        b /= inv
        for k, (pc, prow, prhs) in enumerate(pivots):
            c = prow[j]
            if c:
                pivots[k] = (pc, [s - c * t for s, t in zip(prow, a)], prhs - c * b)
        pivots.append((j, a, b))
    pivot_map = {pc: (prow, prhs) for pc, prow, prhs in pivots}
    free = [v for v in range(num_vars) if v not in pivot_map]
    nfree = len(free)

    # -- substitute equalities into the inequalities, scale rows to ints ----
    infeasible = False

    def normalized(coeffs, rhs):
        nonlocal infeasible
        den = 1
        for q in list(coeffs) + [rhs]:
            den = den * q.denominator // gcd(den, q.denominator)
        ints = [int(q * den) for q in coeffs]
        r = int(rhs * den)
        g = 0
        for t in ints:
            g = gcd(g, t)
        g = gcd(g, r)
        if g > 1:
            ints = [t // g for t in ints]
            r //= g
        if not any(ints):
            if r > 0:
                infeasible = True
            return None
        return tuple(ints), r

    rows = set()
    for coeffs, rhs in inequalities:
        a = [Fraction(t) for t in coeffs]
        if len(a) != num_vars:
            raise InputError("inequality row has the wrong width")
        b = Fraction(rhs)
        for pc, (prow, prhs) in pivot_map.items():
            c = a[pc]
            if c:
                a = [s - c * t for s, t in zip(a, prow)]
                b -= c * prhs
        norm = normalized([a[v] for v in free], b)
        if infeasible:
            return None
        if norm is not None:
            rows.add(norm)

    # -- Fourier-Motzkin ----------------------------------------------------
    stages = []
    active = list(range(nfree))
    while active:

        def cost(p):
            npos = sum(1 for c, _ in rows if c[p] > 0)
            nneg = sum(1 for c, _ in rows if c[p] < 0)
            return (npos * nneg, p)

        var = min(active, key=cost)
        active.remove(var)
        stages.append((var, tuple(sorted(rows))))
        pos, neg, keep = [], [], set()
        for c, r in rows:
            if c[var] > 0:
                pos.append((c, r))
            elif c[var] < 0:
                neg.append((c, r))
            else:
                keep.add((c, r))
        for pc, pr in pos:
            for nc, nr in neg:
                alpha, beta = -nc[var], pc[var]
                comb = [alpha * x + beta * y for x, y in zip(pc, nc)]
                rhs = alpha * pr + beta * nr
                norm = normalized([Fraction(t) for t in comb], Fraction(rhs))
                if infeasible:
                    return None
                if norm is not None:
                    keep.add(norm)
        rows = keep

    # -- witness recovery ---------------------------------------------------
    values: list[Fraction | None] = [None] * nfree
    for var, snapshot in reversed(stages):
        lo = hi = None
        for c, r in snapshot:
            if not c[var]:
                continue
            rest = sum(
                (c[p] * values[p] for p in range(nfree) if p != var and c[p]),
                Fraction(0),
            )
            bound = Fraction(r - rest, c[var])
            if c[var] > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is not None and hi is not None and lo > hi:
            raise InternalCheckError("elimination left an empty interval")
        if (lo is None or lo <= 0) and (hi is None or hi >= 0):
            values[var] = Fraction(0)
        elif lo is not None and lo > 0:
            values[var] = lo
        else:
            values[var] = hi
    solution = [Fraction(0)] * num_vars
    for p, v in enumerate(free):
        solution[v] = values[p] if values[p] is not None else Fraction(0)
    for pc, (prow, prhs) in pivot_map.items():
        solution[pc] = prhs - sum(
            (prow[v] * solution[v] for v in range(num_vars) if v != pc and prow[v]),
            Fraction(0),
        )

    # -- certify ------------------------------------------------------------
    for coeffs, rhs in equalities:
        if sum(Fraction(c) * x for c, x in zip(coeffs, solution)) != Fraction(rhs):
            raise InternalCheckError("witness violates an equality")
    for coeffs, rhs in inequalities:
        if sum(Fraction(c) * x for c, x in zip(coeffs, solution)) < Fraction(rhs):
            raise InternalCheckError("witness violates an inequality")
    return tuple(solution)


# --------------------------------------------------------------------------
# double description
# --------------------------------------------------------------------------


def _dd_rays(dim, ineqs, eqs):
    """V-description of {x : e @ x == 0 for e in eqs, a @ x >= 0 for a in ineqs}.

    Returns (rays, lineality_rows, tight_sets): the first two are lists of
    primitive integer tuples, the third gives each ray's bitmask of the
    inequalities it satisfies with equality.  Rays carry these masks
    throughout; the standard combinatorial adjacency test keeps the ray
    list minimal at every step.  Before that scan, a (positive, negative)
    pair is dropped when its rays share fewer than ``cut - 2`` tight
    inequalities, where ``cut`` counts the inequalities so far that cut the
    lineality space (their rank on the solutions of ``eqs``): two rays are
    adjacent only when their common tight set cuts out a 2-face, which
    takes rank ``cut - 2`` (Fukuda & Prodon 1996).  Every pair that passes
    still goes through the scan, which decides.  The final check takes
    every (ray, inequality) product once: none may be negative, and each
    ray's zero products must be exactly the tight set it carried.
    """
    if eqs:
        mat = IntegerMatrix.from_rows(eqs, cols=dim)
        lin = [list(r) for r in kernel_lattice(mat.transpose()).basis.entries]
    else:
        lin = [[int(i == j) for j in range(dim)] for i in range(dim)]
    rays: list[tuple[Vector, int]] = []
    cut = 0
    for idx, a in enumerate(ineqs):
        bit = 1 << idx
        hit = next((i for i, l in enumerate(lin) if _dot(a, l)), None)
        if hit is not None:
            # the constraint cuts the lineality space: one basis vector
            # becomes a ray, the rest get projected into the hyperplane
            cut += 1
            l0 = lin.pop(hit)
            if _dot(a, l0) < 0:
                l0 = [-t for t in l0]
            al0 = _dot(a, l0)
            lin = [
                list(_primitive([al0 * x - _dot(a, l) * y for x, y in zip(l, l0)]))
                for l in lin
            ]
            new_rays = []
            for vec, tight in rays:
                adj = _primitive([al0 * x - _dot(a, vec) * y for x, y in zip(vec, l0)])
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
    for v, tight in rays:
        products = [_dot(a, v) for a in ineqs]
        if any(_dot(e, v) for e in eqs) or any(d < 0 for d in products):
            raise InternalCheckError("double description ray violates a constraint")
        if sum(1 << i for i, d in enumerate(products) if not d) != tight:
            raise InternalCheckError("double description lost track of a tight set")
    for l in out_lin:
        if any(_dot(e, l) for e in eqs) or any(_dot(a, l) for a in ineqs):
            raise InternalCheckError("lineality vector violates a constraint")
    return [tuple(v) for v, _ in rays], out_lin, [t for _, t in rays]


# --------------------------------------------------------------------------
# cones and faces
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Cone:
    """A rational polyhedral cone with both descriptions attached.

    ``facets`` holds primitive integer normals of the facet-defining valid
    inequalities; it is empty exactly when the cone is a linear subspace.
    ``incidences`` holds, for each facet in order, the bitmask of the
    generators on it.  ``lineality`` is the saturated lattice spanning
    ``cone ∩ -cone``.
    """

    ambient_dim: int
    generators: tuple[Vector, ...]
    extreme_rays: tuple[Vector, ...]
    facets: tuple[Vector, ...]
    incidences: tuple[int, ...]
    lineality: Sublattice
    dim: int

    @cached_property
    def _facet_sets(self) -> tuple[int, ...]:
        """For each generator, the bitmask of the facets through it: the
        transpose of ``incidences``, one step per set bit."""
        out = [0] * len(self.generators)
        for j, inc in enumerate(self.incidences):
            bit = 1 << j
            for i in _bits(inc):
                out[i] |= bit
        return tuple(out)


@dataclass(frozen=True)
class Face:
    """A face, identified by the sorted generator indices lying on it.

    ``witness`` is an integer functional vanishing on the face's generators
    and strictly positive on all others (the zero functional for the cone
    itself).
    """

    index_set: tuple[int, ...]
    dim: int
    witness: Vector


@dataclass(frozen=True)
class FacePoset:
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
    face.  The facets are the rays of the dual pass, which runs on the
    generators as inequalities, so its final check is the exact sign test
    of every facet on every generator and its tight sets are the facets'
    ``incidences``.

    The primal pass runs on the facets, within the generators' span, and
    gives the rays and the lineality space L of the cone P they cut out,
    which contains the generators' cone C; the rays and L must have the
    rank of the generators.  The bottom face B holds the generators on
    every facet, the ones in L.  P = C, so no facet of C is missing from
    the list, when (a) for each ray, some generator off B lies on every
    facet of the ray's tight set T (the AND of their ``incidences``), so
    that a positive multiple of the ray is that generator minus a vector
    of L, and (b) B spans L positively: the saturated span of B is
    ``lineality`` and the nonnegative ``signed_circuits`` of B cover B,
    which sum to a dependency with every coefficient positive.  That costs
    O(rays·|T|) ANDs and one circuit search on B, none when the cone is
    pointed.  No ray is lost when the facets through each generator off B
    all hold some ray: the smallest face holding the generator holds an
    extreme ray, and a lost ray's generators lie on no other ray's facets.
    That is one set lookup per generator, with a scan of the rays only on
    a miss.  ``enumerate_faces`` checks that no listed facet is redundant.
    Raises InputError unless ``ambient_dim`` is a nonnegative int (not a
    bool) and ``IntegerMatrix.from_rows`` accepts the generators.
    """
    dim_is_int = isinstance(ambient_dim, int) and not isinstance(ambient_dim, bool)
    if not dim_is_int or ambient_dim < 0:
        raise InputError("ambient dimension must be a nonnegative int")
    mat = IntegerMatrix.from_rows(generators, cols=ambient_dim)
    gens = mat.entries
    dual_rays, dual_lin, tight = _dd_rays(ambient_dim, list(gens), [])
    dual = sorted(zip(dual_rays, tight))
    facets = tuple(w for w, _ in dual)
    incidences = tuple(t for _, t in dual)
    rays, lin, ray_tight = _dd_rays(ambient_dim, list(facets), list(dual_lin))
    extreme = tuple(sorted(rays))
    lineality = saturate(Sublattice.span(ambient_dim, lin))
    dim = rank(mat)
    span_rows = list(extreme) + list(lineality.basis.entries)
    if rank(IntegerMatrix.from_rows(span_rows, cols=ambient_dim)) != dim:
        raise InternalCheckError("ray plus lineality span has the wrong rank")
    everything = (1 << len(gens)) - 1
    bottom = everything
    for inc in incidences:
        bottom &= inc
    # (a) each ray is a generator off the bottom face, modulo the lineality
    for t in ray_tight:
        on = everything
        for j in _bits(t):
            on &= incidences[j]
        if not on & ~bottom:
            raise InternalCheckError("a ray holds no generator")
    cone = Cone(ambient_dim, gens, extreme, facets, incidences, lineality, dim)
    # no ray is lost: the facets through each generator off the bottom face
    # all hold some ray
    rays_on = set(ray_tight)
    for i in _bits(everything & ~bottom):
        g = cone._facet_sets[i]
        if g not in rays_on and not any(g & t == g for t in ray_tight):
            raise InternalCheckError("a generator lies on no ray")
    # (b) the bottom face's generators span the lineality space, positively:
    # their nonnegative circuits cover them
    units = [gens[i] for i in _bits(bottom)]
    if saturate(Sublattice.span(ambient_dim, units)) != lineality:
        raise InternalCheckError("bottom face does not span the lineality space")
    covered = 0
    for c in signed_circuits(ambient_dim, units) if units else ():
        pos, neg = sign_masks(c)
        if not neg:
            covered |= pos
    if covered != (1 << len(units)) - 1:
        raise InternalCheckError("bottom face is not linear")
    return cone


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
    known.  Returns a dict from each set, in that order, to its list of
    lower covers.
    """
    closed = {full}
    for mask in masks:
        closed |= {s & mask for s in closed}
    over = {}
    covers_of = {}
    meets = Counter()
    for s in sorted(closed, key=int.bit_count):
        meets.clear()
        meets.update(map(s.__and__, masks))
        over[s] = n = meets.pop(s, 0)
        covers_of[s] = [c for c, k in meets.items() if k == over[c] - n]
    return covers_of


def _bits(mask):
    """The positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def enumerate_faces(cone: Cone) -> FacePoset:
    """Every face of the cone, as a graded poset.

    A face is stored as the bitmask of the generators on it and the bitmask
    T of the facets through it.  The faces are the intersections of the
    facets' ``cone.incidences`` (the empty intersection is the cone
    itself), and dually the intersections of the generators' facet sets Gᵢ
    (the empty one is the lineality space, on every facet), so the lattice
    is closed by ``_closed_sets`` over whichever of the r generators and m
    facets is fewer: O(F·min(r, m)) mask operations for the closure and the
    count test for the covers, after Kaibel & Pfetsch (CGTA 2002).  Closed
    over the Gᵢ, the sets are the faces' T, the lower covers of T are the
    face's upper covers, and a face's generators are the AND of the
    incidences over T, taken from one of those covers by the facets T adds.

    Each face's data comes from one neighbour in the Hasse diagram, so it
    costs what changes along that edge, not the size of the face.  Faces
    are visited by increasing number of generators, so a face's lower
    covers come before it.  Only the bottom face is eliminated, by the
    length of a fraction-free echelon basis of its generators; every other
    face s gets dim c + 1 for its largest lower cover c, and T and the
    sorted generator list grow from c's by the generators s adds.  That is
    the dimension because of two checks on every cover edge b ⋖ s: some
    facet through b misses s, and dim s = dim b + 1.  A facet through b and
    off s vanishes on the span of b and is positive on some generator of s,
    so every edge raises the true rank by at least one: up the chain of
    largest covers from the bottom, the true rank is at least the assigned
    dimension, and down any chain of covers from the top, whose rank must
    equal ``cone.dim``, it is at most that.  So every face below the top
    needs an upper cover.  The top face's lower covers must be exactly the
    facets' masks, so no listed facet is redundant or listed twice; with
    ``cone_from_generators``'s certificate the facet list is then exact.
    Each face's witness functional is the sum of the facet normals over T,
    built from the top down: an upper cover's witness plus the normals of
    the facets T adds to that cover's, taking the cover through the most
    facets.
    """
    gens = cone.generators
    normals = cone.facets
    incidences = cone.incidences
    r, m = len(gens), len(incidences)
    top, full = (1 << r) - 1, (1 << m) - 1
    facet_sets = cone._facet_sets
    if m <= r:
        covers_of = _closed_sets(top, incidences)
    else:
        dual = _closed_sets(full, facet_sets)
        gens_on = {}
        for t, above in dual.items():
            if above:
                c = max(above, key=int.bit_count)
                on = gens_on[c]
            else:
                c, on = 0, top
            for j in _bits(t & ~c):
                on &= incidences[j]
            gens_on[t] = on
        covers_of = {gens_on[t]: [] for t in dual}
        for t, above in dual.items():
            for c in above:
                covers_of[gens_on[c]].append(gens_on[t])
    if sorted(covers_of[top]) != sorted(incidences):
        raise InternalCheckError("a listed facet is not a facet")
    order = sorted(covers_of, key=int.bit_count)
    dims = {}
    through = {}
    index_sets = {}
    up = {}  # each face's upper cover through the most facets
    most = {}  # and their number
    for s in order:
        covers = covers_of[s]
        if covers:
            c = max(covers, key=int.bit_count)
            t, new = through[c], _bits(s & ~c)
            dim = dims[c] + 1
            index_sets[s] = tuple(sorted(index_sets[c] + tuple(new)))
        else:  # the bottom face
            t, new = full, _bits(s)
            dim = len(_extend_echelon([], [gens[i] for i in new]))
            index_sets[s] = tuple(new)
        for i in new:
            t &= facet_sets[i]
        n = t.bit_count()
        for b in covers:
            if through[b] == t:
                raise InternalCheckError("face step has no separating facet")
            if dims[b] + 1 != dim:
                raise InternalCheckError("face poset is not graded by dimension")
            if n > most.get(b, -1):
                most[b], up[b] = n, s
        dims[s] = dim
        through[s] = t
    if dims[top] != cone.dim:
        raise InternalCheckError("top face rank differs from the cone's dimension")
    witness = {}
    faces = []
    for s in reversed(order):
        t = through[s]
        if s in up:
            u = up[s]
            wit, t = witness[u], t & ~through[u]
        elif s == top:
            wit = (0,) * cone.ambient_dim
        else:
            raise InternalCheckError("a face below the top has no upper cover")
        for j in _bits(t):
            wit = tuple(map(add, wit, normals[j]))
        witness[s] = wit
        faces.append((dims[s], index_sets[s], s, wit))
    faces.sort()
    position = {s: k for k, (_, _, s, _) in enumerate(faces)}
    edges = sorted(
        (position[c], position[s]) for s, covers in covers_of.items() for c in covers
    )
    return FacePoset(
        tuple(Face(members, dim, wit) for dim, members, _, wit in faces),
        tuple(edges),
        0,  # the bottom face, of the least dimension, sorts first
        position[top],
    )


def sign_masks(vec) -> tuple[int, int]:
    """Bitmasks of the positive and of the negative entries of a vector."""
    pos = sum(1 << i for i, c in enumerate(vec) if c > 0)
    return pos, sum(1 << i for i, c in enumerate(vec) if c < 0)


def signed_circuits(ambient_dim, generators) -> tuple[Vector, ...]:
    """Every signed circuit of the generators, as a primitive integer vector.

    A circuit is a linear dependency Σ cᵢgᵢ = 0 whose support is minimal;
    it is unique up to scale on that support, so it depends only on the
    kernel.  Each comes once as the primitive vector (c₁, …, c_r), lowest
    nonzero entry positive, sorted by support size, then ``sign_masks``.
    Zero, duplicate and opposite generators give circuits of size 1 or 2.

    The dependencies form the kernel K of the generator matrix, of dimension
    m = r - rank.  The vectors of K vanishing on m - 1 coordinates whose
    coordinate functionals are independent on K form a line, whose support
    is a circuit, and every circuit arises so from coordinates off its
    support.  Those coordinate sets are walked depth first over one kernel
    basis, on an explicit stack, one fraction-free elimination step per
    column, at most C(r, m - 1) leaves.  Each circuit is checked to sum to
    zero, column by column, and to have a support whose generators have rank
    one less than its size, by the length of their fraction-free echelon
    basis (``_extend_echelon``).
    """
    mat = IntegerMatrix.from_rows(generators, cols=ambient_dim)
    gens = mat.entries
    r = len(gens)
    kernel = kernel_lattice(mat)
    found = set()
    # each entry: rows spanning the kernel vectors that vanish on every
    # column chosen so far, and the first column still to choose from
    stack = [(list(kernel.basis.entries), 0)] if kernel.rank else []
    while stack:
        rows, start = stack.pop()
        if len(rows) == 1:
            vec = rows[0]
            first = next((c for c in vec if c), 0)
            found.add(tuple(-c for c in vec) if first < 0 else tuple(vec))
            continue
        for col in range(start, r - len(rows) + 2):
            k = next((k for k, row in enumerate(rows) if row[col]), None)
            if k is None:
                continue
            piv = rows[k]
            p = piv[col]
            rest = [
                _primitive([p * x - row[col] * y for x, y in zip(row, piv)])
                for row in rows[:k] + rows[k + 1 :]
            ]
            stack.append((rest, col + 1))
    columns = list(zip(*gens))
    circuits = []
    for vec in found:
        support = [gens[i] for i, c in enumerate(vec) if c]
        if not support:
            raise InternalCheckError("signed circuit is the zero vector")
        if any(_dot(vec, col) for col in columns):
            raise InternalCheckError("signed circuit is not a linear dependency")
        if len(_extend_echelon([], support)) != len(support) - 1:
            raise InternalCheckError("signed circuit support is not minimal")
        pos, neg = sign_masks(vec)
        circuits.append(((pos | neg).bit_count(), pos, neg, vec))
    circuits.sort()
    return tuple(vec for *_, vec in circuits)


def circuit_criterion(mask: int, circuits) -> bool:
    """Whether the index set with bitmask ``mask`` respects every circuit.

    ``circuits`` holds (positive, negative) mask pairs; the set I passes
    when each pair has C⁺ ⊆ I exactly when C⁻ ⊆ I.  For the ``sign_masks``
    of the ``signed_circuits`` the sets passing are exactly the faces.
    This decides one set; ``_respecting`` decides a whole family of sets
    at once, one bit per set.
    """
    out = ~mask
    return all((pos & out == 0) == (neg & out == 0) for pos, neg in circuits)


def _respecting(has, pairs, family):
    """The members of a family that respect every (C⁺, C⁻) mask pair.

    Members are the set bits of ``family``, and ``has[i]`` holds the
    members that contain index i, for every index the pairs name.  The
    members containing a side are the AND of ``has`` over it (all of
    ``family`` for an empty side), and a member respects a pair when it
    contains both sides or neither, so the result is the AND over the pairs
    of ~(AND over C⁺ ^ AND over C⁻): ``circuit_criterion`` for every member
    at once, in c·|support| ANDs of |family|-bit ints for c pairs.
    """
    out = family
    for pos, neg in pairs:
        a = b = family
        for i in _bits(pos):
            a &= has[i]
        for i in _bits(neg):
            b &= has[i]
        out &= ~(a ^ b)
    return out


def is_face(cone: Cone, index_set) -> Vector | None:
    """Decide one candidate index set, independently of enumerate_faces.

    Feasibility of {w : w @ g_i == 0 on the set, w @ g_j >= 1 off it} is
    settled by exact Fourier-Motzkin elimination.  On success returns a
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
    den = 1
    for q in sol:
        den = den * q.denominator // gcd(den, q.denominator)
    w = _primitive([int(q * den) for q in sol])
    for i in range(r):
        val = _dot(w, cone.generators[i])
        if (val != 0) if i in chosen else (val <= 0):
            raise InternalCheckError("scaled witness lost its sign pattern")
    return w

