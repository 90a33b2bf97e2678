import dataclasses
import gc
import itertools
import json
from fractions import Fraction
from math import comb

import pytest
from conftest import (
    cross_polytope_cone,
    cube_cone,
    cube_times_line,
    random_cone_inputs,
    subsets,
)
from hypothesis import given, settings, strategies as st

from idempotoric import cli, cones
from idempotoric.cones import (
    Cone,
    Face,
    FacePoset,
    _dd_rays,
    _extend_echelon,
    _primitive,
    circuit_criterion,
    cone_from_generators,
    enumerate_faces,
    is_face,
    sign_masks,
    signed_circuits,
    solve_affine,
)
from idempotoric.errors import InputError, InternalCheckError
from idempotoric.lattices import (
    IntegerMatrix,
    Sublattice,
    hermite_normal_form,
    kernel_lattice,
)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def reference_dd_rays(dim, ineqs, eqs):
    """Double description with the unfiltered adjacency scan: every
    (positive, negative) pair is tested against every other ray.  Slow,
    kept to check _dd_rays against, tight sets included."""
    if eqs:
        mat = IntegerMatrix.from_rows(eqs, cols=dim)
        lin = [list(r) for r in kernel_lattice(mat.transpose()).basis.entries]
    else:
        lin = [[int(i == j) for j in range(dim)] for i in range(dim)]
    rays = []
    for idx, a in enumerate(ineqs):
        bit = 1 << idx
        hit = next((i for i, l in enumerate(lin) if dot(a, l)), None)
        if hit is not None:
            l0 = lin.pop(hit)
            if dot(a, l0) < 0:
                l0 = [-t for t in l0]
            al0 = dot(a, l0)
            lin = [
                list(_primitive([al0 * x - dot(a, l) * y for x, y in zip(l, l0)]))
                for l in lin
            ]
            rays = [
                (_primitive([al0 * x - dot(a, v) * y for x, y in zip(v, l0)]), t | bit)
                for v, t in rays
            ]
            rays.append((_primitive(l0), bit - 1))
            continue
        pos = [(v, t, dot(a, v)) for v, t in rays if dot(a, v) > 0]
        neg = [(v, t, dot(a, v)) for v, t in rays if dot(a, v) < 0]
        new_rays = [(v, t) for v, t, _ in pos]
        new_rays += [(v, t | bit) for v, t in rays if dot(a, v) == 0]
        for pvec, pt, pd in pos:
            for nvec, nt, nd in neg:
                common = pt & nt
                others = [t for v, t in rays if v not in (pvec, nvec)]
                if not any(ot & common == common for ot in others):
                    combo = _primitive([pd * x - nd * y for x, y in zip(nvec, pvec)])
                    new_rays.append((combo, common | bit))
        rays = new_rays
    return [tuple(v) for v, _ in rays], [tuple(l) for l in lin], [t for _, t in rays]


def assert_dd_matches_reference(dim, gens):
    # the dual pass on the generators, then the primal pass on the facets
    # with the dual lineality as equations, as cone_from_generators runs them
    dual = _dd_rays(dim, gens, [])
    assert dual == reference_dd_rays(dim, gens, []), (dim, gens)
    facets = sorted(dual[0])
    primal = _dd_rays(dim, facets, dual[1])
    assert primal == reference_dd_rays(dim, facets, dual[1]), (dim, gens)


def reference_faces(cone):
    """The quadratic closure and cubic cover search over frozensets, with
    each dimension read off a Hermite normal form: slow, kept to check
    enumerate_faces against."""
    r = len(cone.generators)
    top = frozenset(range(r))
    incidences = [
        frozenset(i for i, g in enumerate(cone.generators) if dot(w, g) == 0)
        for w in cone.facets
    ]
    found = {top, *incidences}
    work = list(found)
    while work:
        s = work.pop()
        for t in list(found):
            if s & t not in found:
                found.add(s & t)
                work.append(s & t)
    faces = []
    for s in found:
        rows = [cone.generators[i] for i in sorted(s)]
        h, _ = hermite_normal_form(IntegerMatrix.from_rows(rows, cols=cone.ambient_dim))
        wit = [0] * cone.ambient_dim
        for inc, w in zip(incidences, cone.facets):
            if s <= inc:
                wit = [a + b for a, b in zip(wit, w)]
        faces.append(Face(tuple(sorted(s)), sum(map(any, h.entries)), tuple(wit)))
    faces.sort(key=lambda f: (f.dim, f.index_set))
    sets = [set(f.index_set) for f in faces]
    edges = []
    for i, j in itertools.permutations(range(len(faces)), 2):
        if sets[i] < sets[j] and not any(sets[i] < s < sets[j] for s in sets):
            assert faces[j].dim == faces[i].dim + 1
            edges.append((i, j))
    bottom = min(range(len(faces)), key=lambda i: len(sets[i]))
    top_at = next(i for i, s in enumerate(sets) if len(s) == r)
    return FacePoset(tuple(faces), tuple(sorted(edges)), bottom, top_at)


QUADRANT = cone_from_generators(2, [(1, 0), (0, 1), (1, 1)])


# ------------------------------------------------------- cone construction


def test_quadrant_frozen_example():
    c = QUADRANT
    assert set(c.extreme_rays) == {(1, 0), (0, 1)}
    assert set(c.facets) == {(1, 0), (0, 1)}
    assert c.lineality.rank == 0
    assert c.dim == 2


def test_full_line_is_a_subspace():
    c = cone_from_generators(1, [(1,), (-1,)])
    assert c.facets == ()
    assert c.extreme_rays == ()
    assert c.lineality.rank == 1
    assert c.dim == 1


def test_zero_cone_no_generators():
    c = cone_from_generators(2, [])
    assert c.dim == 0
    assert c.facets == ()
    faces = enumerate_faces(c)
    assert len(faces.faces) == 1
    assert faces.faces[0].index_set == ()


def test_zero_generator_lies_on_every_face():
    c = cone_from_generators(2, [(0, 0), (1, 0)])
    faces = enumerate_faces(c)
    sets = sorted(f.index_set for f in faces.faces)
    assert sets == [(0,), (0, 1)]  # index 0 is in the bottom face already


def test_half_plane_two_faces():
    c = HALF_PLANE
    assert c.lineality.basis.entries == ((1, 0),)
    assert c.extreme_rays == ((0, 1),)
    faces = enumerate_faces(c)
    assert [f.index_set for f in faces.faces] == [(0, 1), (0, 1, 2)]
    assert [f.dim for f in faces.faces] == [1, 2]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_interior_generator_cone(n):
    # generators (1,0), (0,1), (n,-n): the first is interior, so proper
    # faces are exactly the two boundary rays
    c = cone_from_generators(2, [(1, 0), (0, 1), (n, -n)])
    faces = enumerate_faces(c)
    sets = [f.index_set for f in faces.faces]
    assert len(sets) == 4
    assert (2,) in sets  # the mixed-sign ray is a face of its own
    assert (1,) in sets
    assert faces.faces[faces.top].dim - faces.faces[faces.bottom].dim == 2


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        cone_from_generators(2, [(1, 0, 0)])


def test_non_int_entries_rejected():
    for bad in (True, 1.0, "1", None):
        with pytest.raises(InputError, match="matrix entries must be plain ints"):
            cone_from_generators(2, [(1, 0), (bad, 1)])


# ------------------------------------------------------------------ faces


def test_quadrant_face_lattice():
    faces = enumerate_faces(QUADRANT)
    assert [f.index_set for f in faces.faces] == [(), (0,), (1,), (0, 1, 2)]
    assert [f.dim for f in faces.faces] == [0, 1, 1, 2]
    assert faces.bottom == 0
    assert faces.top == 3
    assert len(faces.hasse_edges) == 4


def test_quadrant_witnesses_are_exact():
    faces = enumerate_faces(QUADRANT)
    for f in faces.faces:
        inside = set(f.index_set)
        for i, g in enumerate(QUADRANT.generators):
            val = dot(f.witness, g)
            assert (val == 0) if i in inside else (val > 0)


# ---------------------------------------------------------------- is_face


def test_is_face_examples():
    gens = QUADRANT.generators
    w = is_face(QUADRANT, (0,))
    assert w is not None and dot(w, gens[0]) == 0
    assert dot(w, gens[1]) > 0 and dot(w, gens[2]) > 0
    assert is_face(QUADRANT, (0, 1)) is None  # would force the interior gen to 0
    assert is_face(QUADRANT, (2,)) is None
    assert is_face(QUADRANT, (0, 1, 2)) == (0, 0)  # whole cone, zero functional
    empty = is_face(QUADRANT, ())
    assert empty is not None and all(dot(empty, g) > 0 for g in gens)


def test_is_face_validates_indices():
    with pytest.raises(InputError):
        is_face(QUADRANT, (3,))
    with pytest.raises(InputError):
        is_face(QUADRANT, (-1,))


def test_is_face_rejects_a_missing_index_set():
    with pytest.raises(InputError, match="an index set must be an array"):
        is_face(QUADRANT, None)


def test_dual_oracle_agreement_on_random_cones():
    # face enumeration and the Fourier-Motzkin subset oracle must agree on
    # the full power set of generator indices
    for d, gens in random_cone_inputs(seed=101, count=40, max_dim=4, max_gens=6):
        cone = cone_from_generators(d, gens)
        family = {f.index_set for f in enumerate_faces(cone).faces}
        for sub in subsets(len(gens)):
            w = is_face(cone, sub)
            assert (w is not None) == (sub in family), (d, gens, sub)
            if w is not None:
                inside = set(sub)
                for i, g in enumerate(gens):
                    val = dot(w, g)
                    assert (val == 0) if i in inside else (val > 0)


def test_generators_reproduce_from_rays_and_lineality():
    # soundness of the double description output, checked by exact feasibility
    for d, gens in random_cone_inputs(seed=202, count=40, max_dim=4, max_gens=6):
        cone = cone_from_generators(d, gens)
        rays = list(cone.extreme_rays)
        lin = list(cone.lineality.basis.entries)
        k, l = len(rays), len(lin)
        for g in gens:
            eqs = []
            for coord in range(d):
                row = [rays[i][coord] for i in range(k)]
                row += [lin[j][coord] for j in range(l)]
                eqs.append((row, g[coord]))
            ineqs = [([int(i == j) for j in range(k + l)], 0) for i in range(k)]
            sol = solve_affine(k + l, eqs, ineqs)
            assert sol is not None, (d, gens, g)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(
                st.tuples(*[st.integers(min_value=-2, max_value=2)] * d), max_size=10
            ),
        )
    )
)
def test_dd_rays_match_the_unfiltered_scan(case):
    assert_dd_matches_reference(*case)


def test_dd_rays_match_the_unfiltered_scan_on_random_cones():
    # entries in -1..1: repeated and opposite generators, lineality
    cases = random_cone_inputs(seed=708, count=150, max_dim=6, max_gens=12, bound=1)
    for d, gens in cases:
        assert_dd_matches_reference(d, gens)


def test_lost_tight_set_is_reported(monkeypatch):
    # the quadrant's dual pass: the third generator (1, 1) meets the ray
    # (1, 0) with product 1.  Reporting 0 once, when the pass sorts the rays
    # by sign, files the ray as tight there; the final check, which takes
    # every product again, must notice.
    real = cones._dot
    lies = [((1, 1), (1, 0))]

    def dot_lying_once(a, b):
        if (tuple(a), tuple(b)) in lies:
            lies.remove((tuple(a), tuple(b)))
            return 0
        return real(a, b)

    assert _dd_rays(2, [(1, 0), (0, 1), (1, 1)], [])[2] == [0b010, 0b001]
    monkeypatch.setattr(cones, "_dot", dot_lying_once)
    with pytest.raises(InternalCheckError, match="lost track of a tight set"):
        cone_from_generators(2, [(1, 0), (0, 1), (1, 1)])
    assert not lies


def test_face_posets_are_graded():
    for d, gens in random_cone_inputs(seed=303, count=60, max_dim=5, max_gens=7):
        faces = enumerate_faces(cone_from_generators(d, gens))
        for lo, hi in faces.hasse_edges:
            assert faces.faces[hi].dim == faces.faces[lo].dim + 1


def test_meet_is_lattice_meet():
    # the meet of two faces is the face on the intersection of their index
    # sets, so the index sets are closed under intersection
    for d, gens in random_cone_inputs(seed=404, count=25, max_dim=4, max_gens=6):
        faces = enumerate_faces(cone_from_generators(d, gens))
        sets = [set(f.index_set) for f in faces.faces]
        keys = {f.index_set for f in faces.faces}
        for a in sets:
            assert sets[faces.bottom] <= a <= sets[faces.top]
            for b in sets:
                assert tuple(sorted(a & b)) in keys


def test_enumerate_faces_matches_reference_on_random_cones():
    cases = random_cone_inputs(seed=606, count=60, max_dim=5, max_gens=8)
    # entries in -1..1: zero, repeated and opposite generators, lineality
    cases += random_cone_inputs(seed=607, count=60, max_dim=5, max_gens=8, bound=1)
    cases += [
        (3, []),
        (3, [(0, 0, 0), (0, 0, 0)]),
        (2, [(0, 0), (1, 0), (1, 0), (0, 1), (1, 1)]),
        (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 0)]),
        (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)]),
    ]
    # the cyclic 4-polytope on n vertices has n(n - 3)/2 > n facets, so its
    # lattice is closed over the generators; once more with a line
    for n in (6, 7, 8, 9):
        gens = [(1, t, t * t, t**3, t**4, 0) for t in range(-(n // 2), n - n // 2)]
        cases += [(6, gens), (6, gens + [(0,) * 5 + (1,), (0,) * 5 + (-1,)])]
    for d, gens in cases:
        cone = cone_from_generators(d, gens)
        assert enumerate_faces(cone) == reference_faces(cone), (d, gens)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("family", [cube_cone, cross_polytope_cone])
def test_enumerate_faces_matches_reference_on_polytope_cones(family, d):
    cone = family(d)
    assert enumerate_faces(cone) == reference_faces(cone)


def test_seven_cube_cone_closed_form_counts():
    poset = enumerate_faces(cube_cone(7))
    assert len(poset.faces) == 3**7 + 1 == 2188
    dims = [f.dim for f in poset.faces]
    assert dims.count(0) == 1
    for k in range(8):
        # the cone over a k-face of the cube has dimension k + 1
        assert dims.count(k + 1) == comb(7, k) * 2 ** (7 - k)
    assert len(poset.hasse_edges) == 14 * 3**6 + 2**7 == 10334
    assert poset.faces[poset.bottom].index_set == ()
    assert poset.faces[poset.top].index_set == tuple(range(128))


def test_eight_cross_polytope_closed_form_counts():
    # r = 16 generators, m = 256 facets: closed over the generators
    poset = enumerate_faces(cross_polytope_cone(8))
    assert len(poset.faces) == 3**8 + 1 == 6562
    dims = [f.dim for f in poset.faces]
    for k in range(9):
        # the cone over a (k - 1)-face of the cross-polytope has dimension k
        assert dims.count(k) == comb(8, k) * 2**k
    assert dims.count(9) == 1
    assert len(poset.hasse_edges) == 8 * 2 * 3**7 + 2**8 == 35248
    assert poset.faces[poset.bottom].index_set == ()
    assert poset.faces[poset.top].index_set == tuple(range(16))


def cross_polytope_times_line(d):
    """The cone over the d-cross-polytope times a line: generators (1, ±e_i, 0)
    and (0, ..., 0, ±1)."""
    gens = [(*g, 0) for g in cross_polytope_cone(d).generators]
    gens += [(0,) * (d + 1) + (1,), (0,) * (d + 1) + (-1,)]
    return cone_from_generators(d + 2, gens)


HALF_PLANE = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1)])
QUADRANT_TIMES_LINE = cone_from_generators(
    3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 0, -1)]
)


def losing_middle_faces(count):
    """A cover search that loses ``count`` of the sets halfway up its
    lattice (all of them for None) and lists each lost set's covers in its
    place, so the sets above a lost one cover the sets below it."""
    real = cones._closed_sets

    def closed_sets(full, masks):
        covers_of = real(full, masks)
        height = {}
        for s, covers in covers_of.items():
            height[s] = max((height[c] + 1 for c in covers), default=0)
        middle = max(height.values()) // 2
        lost = [s for s in covers_of if height[s] == middle][:count]
        out = {}
        for s, covers in covers_of.items():
            if s not in lost:
                spliced = [
                    b for c in covers for b in (covers_of[c] if c in lost else [c])
                ]
                out[s] = list(dict.fromkeys(spliced))
        return out

    return closed_sets


# one pointed cone and one with a lineality line on each side of
# enumerate_faces: closed over the facets (m <= r) or over the generators.
# Only the bottom face is eliminated; every other dimension is its largest
# lower cover's plus one, so a wrong cover search or a wrong bottom rank
# must be caught by the checks on the cover edges and on the top rank.
@pytest.mark.parametrize(
    "pointed, with_line, over_facets",
    [
        (cube_cone(3), cube_times_line(3), True),
        (cross_polytope_cone(3), cross_polytope_times_line(4), False),
    ],
    ids=["over_facets", "over_generators"],
)
def test_non_graded_poset_is_reported(monkeypatch, pointed, with_line, over_facets):
    for cone in (pointed, with_line):
        assert (len(cone.facets) <= len(cone.generators)) == over_facets
    assert pointed.lineality.rank == 0 and with_line.lineality.rank == 1

    # one face lost from the middle of the lattice: the faces above it now
    # cover the faces below it, an edge that skips a dimension
    monkeypatch.setattr(cones, "_closed_sets", losing_middle_faces(1))
    for cone in (pointed, with_line):
        with pytest.raises(InternalCheckError, match="graded"):
            enumerate_faces(cone)

    # every face of that height lost: each edge still raises the dimension
    # by one, but every chain is one edge short, so the top's dimension is
    # one below its rank
    monkeypatch.setattr(cones, "_closed_sets", losing_middle_faces(None))
    for cone in (pointed, with_line):
        with pytest.raises(InternalCheckError, match="top face rank"):
            enumerate_faces(cone)
    monkeypatch.undo()

    # one spurious row in the bottom face's basis raises every rank by one,
    # which each cover edge accepts; the top rank against cone.dim does not
    def repeat_bottom_row(rows, vectors):
        out = _extend_echelon(rows, vectors)
        return out + out[:1]

    monkeypatch.setattr(cones, "_extend_echelon", repeat_bottom_row)
    with pytest.raises(InternalCheckError, match="top face rank"):
        enumerate_faces(with_line)


@pytest.mark.parametrize(
    "cone",
    [cube_cone(6), cross_polytope_cone(6), cube_times_line(3)],
    ids=["6-cube", "6-cross-polytope", "3-cube-times-line"],
)
def test_only_the_bottom_face_is_eliminated(monkeypatch, cone):
    eliminated = []

    def extend_echelon(rows, vectors):
        eliminated.append(len(vectors))
        return _extend_echelon(rows, vectors)

    monkeypatch.setattr(cones, "_extend_echelon", extend_echelon)
    poset = enumerate_faces(cone)
    # one call per enumeration, on the bottom face's generators
    assert eliminated == [len(poset.faces[poset.bottom].index_set)]


def test_rank_carried_by_single_generator_steps_is_checked(monkeypatch):
    # the half-plane eliminates only at its bottom, the line; its top adds
    # one generator and takes the bottom's rank plus one, so a rank lost at
    # the bottom reaches the top, where the rank against cone.dim trips
    assert [f.index_set for f in enumerate_faces(HALF_PLANE).faces] == [
        (0, 1),
        (0, 1, 2),
    ]
    monkeypatch.setattr(
        "idempotoric.cones._extend_echelon", lambda rows, vectors: list(rows)
    )
    with pytest.raises(InternalCheckError, match="top face rank"):
        enumerate_faces(HALF_PLANE)


def test_single_generator_step_needs_a_separating_facet(monkeypatch):
    # a cover search that passes off {0}, not a face, as the bottom: the
    # one facet through it holds generator 1 as well, so no facet shows
    # that generator 1 leaves the span of {0}
    monkeypatch.setattr(
        "idempotoric.cones._closed_sets",
        lambda full, masks: {0b001: [], 0b011: [0b001], 0b111: [0b011]},
    )
    with pytest.raises(InternalCheckError, match="no separating facet"):
        enumerate_faces(HALF_PLANE)


def test_every_cover_edge_needs_a_separating_facet(monkeypatch):
    # three vertices of the facet x1 = 1 of the cone over the 4-cube, on no
    # common square of it: they span a 3-dimensional cone, as the facet's
    # squares do, but lie on no other facet.  A cover search that lists
    # them, above two of them, below that facet passes every gradedness
    # check; the facet's largest lower covers are its squares, four
    # generators each, and only the edge from the three vertices has no
    # separating facet
    cone = cube_cone(4)
    v0, v1, v2 = (
        cone.generators.index(g)
        for g in [(1, 1, -1, -1, -1), (1, 1, 1, 1, -1), (1, 1, 1, -1, 1)]
    )
    pair, triple = 1 << v0 | 1 << v1, 1 << v0 | 1 << v1 | 1 << v2
    facet = next(inc for inc in cone.incidences if inc & triple == triple)
    real = cones._closed_sets

    def closed_sets(full, masks):
        covers_of = real(full, masks)
        assert pair not in covers_of and triple not in covers_of
        assert max(map(int.bit_count, covers_of[facet])) == 4
        covers_of[pair] = [1 << v0, 1 << v1]
        covers_of[triple] = [pair]
        covers_of[facet] = covers_of[facet] + [triple]
        return dict(sorted(covers_of.items(), key=lambda item: item[0].bit_count()))

    monkeypatch.setattr(cones, "_closed_sets", closed_sets)
    with pytest.raises(InternalCheckError, match="no separating facet"):
        enumerate_faces(cone)


def test_every_face_below_the_top_needs_an_upper_cover(monkeypatch):
    # a cover search that adds {2} to the quadrant's lattice above the
    # bottom and below nothing: generator 2, (1, 1), lies on no facet, so
    # its edge from the bottom is separated and graded, but no chain of
    # covers leads from it to the top, whose rank bounds its dimension
    monkeypatch.setattr(
        cones,
        "_closed_sets",
        lambda full, masks: {
            0: [],
            0b001: [0],
            0b010: [0],
            0b100: [0],
            0b111: [0b001, 0b010],
        },
    )
    with pytest.raises(InternalCheckError, match="no upper cover"):
        enumerate_faces(QUADRANT)


# ------------------------------------------------ the facet certificate

# every cone here has more than 10 generators, past the subset oracle, so
# only the certificate can notice a wrong facet list
TWELVE_GON = [
    (x, y, 1)
    for x, y in [(1, 4), (3, 3), (4, 1), (4, -1), (3, -3), (1, -4)]
    + [(-1, -4), (-3, -3), (-4, -1), (-4, 1), (-3, 3), (-1, 4)]
]
# facets y >= 0, through generator 0 alone, and 10x - y >= 0
WIDE_QUADRANT = [(1, k) for k in range(11)]
WIDE_QUADRANT_TIMES_LINE = [(1, k, 0) for k in range(11)] + [(0, 0, 1), (0, 0, -1)]
# the cone over a 2 x 3 rectangle: 4 facets
GRID = [(x, y, 1) for x in range(3) for y in range(4)]


def without_a_facet_through_generator_0(rays, lin, tight):
    k = next(k for k, t in enumerate(tight) if t & 1)
    return rays[:k] + rays[k + 1 :], lin, tight[:k] + tight[k + 1 :]


def only_two_opposite_facets(rays, lin, tight):
    k = next(k for k, t in enumerate(tight) if not t & tight[0])
    return [rays[0], rays[k]], lin, [tight[0], tight[k]]


def with_a_redundant_facet(rays, lin, tight):
    # the sum of two facet normals, tight where both are
    extra = tuple(a + b for a, b in zip(rays[0], rays[1]))
    return rays + [extra], lin, tight + [tight[0] & tight[1]]


def run_job(tmp_path, capsys, mode, gens):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"ambient_dim": len(gens[0]), "generators": gens}))
    code = cli.main([mode, "--input", str(path)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("mode", ["cone", "monoid"])
@pytest.mark.parametrize(
    "gens, faces, change, message",
    [
        (TWELVE_GON, 26, without_a_facet_through_generator_0,
         "a ray holds no generator"),
        (WIDE_QUADRANT, 4, without_a_facet_through_generator_0,
         "bottom face is not linear"),
        (WIDE_QUADRANT_TIMES_LINE, 4, without_a_facet_through_generator_0,
         "bottom face is not linear"),
        (GRID, 10, only_two_opposite_facets,
         "bottom face does not span the lineality space"),
        (GRID, 10, with_a_redundant_facet, "a listed facet is not a facet"),
    ],
    ids=["12-gon", "quadrant", "quadrant-times-line", "grid-two-facets",
         "grid-redundant-facet"],
)
def test_a_wrong_facet_list_is_reported(
    tmp_path, capsys, monkeypatch, mode, gens, faces, change, message
):
    code, rep = run_job(tmp_path, capsys, mode, gens)
    assert code == 0
    listed = rep["faces"] if mode == "cone" else rep["idempotents"]["elements"]
    assert len(listed) == faces
    assert rep["crosschecks"]["subset_oracle"].startswith("skipped")

    # the change applies to each cone's first pass, the dual one
    real = cones._dd_rays
    passes = []

    def dd_rays(dim, ineqs, eqs):
        passes.append(dim)
        out = real(dim, ineqs, eqs)
        return change(*out) if len(passes) % 2 else out

    monkeypatch.setattr(cones, "_dd_rays", dd_rays)
    code, rep = run_job(tmp_path, capsys, mode, gens)
    assert (code, rep["error"]["kind"], rep["error"]["message"]) == (
        2,
        "internal",
        message,
    )


@pytest.mark.parametrize("mode", ["cone", "monoid"])
def test_a_lost_ray_is_reported(tmp_path, capsys, monkeypatch, mode):
    # the primal pass of the 12-gon cone loses one of its 12 rays: the 11
    # left still have the cone's rank and each holds a generator, but the
    # two facets through the lost ray's generator hold no other ray
    real = cones._dd_rays
    passes = []

    def dd_rays(dim, ineqs, eqs):
        passes.append(dim)
        rays, lin, tight = real(dim, ineqs, eqs)
        return (rays, lin, tight) if len(passes) % 2 else (rays[1:], lin, tight[1:])

    monkeypatch.setattr(cones, "_dd_rays", dd_rays)
    code, rep = run_job(tmp_path, capsys, mode, TWELVE_GON)
    assert (code, rep["error"]["kind"], rep["error"]["message"]) == (
        2,
        "internal",
        "a generator lies on no ray",
    )


def test_index_lookup_leaves_equality_and_repr_alone():
    # Cone._facet_sets, each generator's facet mask, is cached on a frozen
    # dataclass: filling the cache must not change equality, hash or repr
    fresh = dataclasses.replace(QUADRANT)
    used = dataclasses.replace(QUADRANT)
    text = repr(used)
    assert "_facet_sets" not in vars(used)
    assert used._facet_sets == tuple(
        sum(1 << j for j, inc in enumerate(used.incidences) if inc >> i & 1)
        for i in range(len(used.generators))
    )
    assert "_facet_sets" in vars(used)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == text == repr(fresh)


def test_construction_is_deterministic():
    for d, gens in random_cone_inputs(seed=505, count=20):
        assert cone_from_generators(d, gens) == cone_from_generators(d, gens)
        f1 = enumerate_faces(cone_from_generators(d, gens))
        f2 = enumerate_faces(cone_from_generators(d, gens))
        assert f1 == f2


# -------------------------------------------------------- signed circuits


SQUARE = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]


def circuits_of(cone):
    return signed_circuits(cone.ambient_dim, cone.generators)


def test_square_cone_has_one_circuit():
    # t1 + t4 = t2 + t3 over the unit square at height 1
    assert signed_circuits(3, SQUARE) == ((1, -1, -1, 1),)
    assert circuits_of(QUADRANT) == ((1, 1, -1),)
    # primitive, with the coefficients kept: 3·(2,0) + 2·(0,3) = 6·(1,1)
    assert signed_circuits(2, [(2, 0), (0, 3), (1, 1)]) == ((3, 2, -6),)


def test_degenerate_generators_give_small_circuits():
    assert signed_circuits(2, [(1, 0), (0, 0), (0, 1)]) == ((0, 1, 0),)
    assert signed_circuits(2, [(1, 2), (0, 1), (1, 2)]) == ((1, 0, -1),)
    assert signed_circuits(2, [(1, 2), (0, 1), (-1, -2)]) == ((1, 0, 1),)
    # sorted by support size, then by the positive and negative masks
    assert signed_circuits(2, [(0, 0), (1, 2), (1, 2), (-1, -2)]) == (
        (1, 0, 0, 0),
        (0, 1, -1, 0),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
    )


def test_empty_and_all_zero_configurations():
    assert signed_circuits(2, []) == ()
    assert signed_circuits(0, []) == ()
    assert signed_circuits(2, [(1, 0), (0, 1)]) == ()
    for dim in (0, 3):
        zeros = [(0,) * dim] * 3
        assert signed_circuits(dim, zeros) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_sign_masks():
    assert sign_masks(()) == (0, 0)
    assert sign_masks((0, 3, -1, 0, 2)) == (0b10010, 0b00100)


@pytest.mark.parametrize(
    "seed,bound", [(707, 4), (708, 1)], ids=["spread", "duplicates"]
)
def test_circuit_criterion_matches_fourier_motzkin(seed, bound):
    # bound 1 fills the corpus with zero, duplicate and opposite generators
    inputs = random_cone_inputs(seed, count=50, max_dim=4, max_gens=7, bound=bound)
    for d, gens in inputs:
        cone = cone_from_generators(d, gens)
        circuits = circuits_of(cone)
        for z in circuits:
            support = [i for i, c in enumerate(z) if c]
            assert support and z[support[0]] > 0
            assert len(support) <= cone.dim + 1
            assert all(dot(z, col) == 0 for col in zip(*gens))
        masks = [sign_masks(z) for z in circuits]
        assert masks == sorted(masks, key=lambda m: ((m[0] | m[1]).bit_count(), m))
        for mask, sub in enumerate(subsets(len(gens))):
            expected = is_face(cone, sub) is not None
            assert circuit_criterion(mask, masks) == expected, (d, gens, sub)


@pytest.mark.parametrize(
    "dim, gens",
    [
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)]),
        (2, [(1, 0), (0, 1)]),
    ],
    ids=["five-generators", "kernel-rank-0"],
)
def test_circuit_search_leaves_no_garbage(dim, gens):
    # the search holds no reference cycle, so nothing it made waits for
    # the cyclic garbage collector
    gc.collect()
    gc.disable()
    try:
        signed_circuits(dim, gens)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_circuit_guards_trip(monkeypatch):
    # the minimality certificate is the length of the support's echelon
    # basis; one that keeps every row makes the square's circuit look
    # independent
    def keep_every_row(rows, vectors):
        return [*rows, *((0, tuple(v)) for v in vectors)]

    monkeypatch.setattr("idempotoric.cones._extend_echelon", keep_every_row)
    with pytest.raises(InternalCheckError, match="not minimal"):
        signed_circuits(3, SQUARE)
    monkeypatch.undo()
    # a dependency that is not minimal: (1, 1, -2) on three equal generators
    # has support 3 and rank 1
    monkeypatch.setattr(
        "idempotoric.cones.kernel_lattice",
        lambda m: Sublattice.span(m.rows, [(1, 1, -2)]),
    )
    with pytest.raises(InternalCheckError, match="not minimal"):
        signed_circuits(1, [(1,), (1,), (1,)])
    monkeypatch.undo()
    # combinations of the square's generators that are not zero: in every
    # coordinate, then in each coordinate alone
    for vec in [(1, -1, -1, 2), (1, 0, 0, 0), (-1, 1, 0, 0), (-1, 0, 1, 0)]:
        monkeypatch.setattr(
            "idempotoric.cones.kernel_lattice",
            lambda m, vec=vec: Sublattice.span(m.rows, [vec]),
        )
        with pytest.raises(InternalCheckError, match="not a linear dependency"):
            signed_circuits(3, SQUARE)


# ----------------------------------------------------------- solve_affine


def test_solve_affine_simple_system():
    # x + y == 2, x - y >= 0, y >= 1  has the unique-ish solution x=y=1
    sol = solve_affine(2, [((1, 1), 2)], [((1, -1), 0), ((0, 1), 1)])
    assert sol is not None
    x, y = sol
    assert x + y == 2 and x - y >= 0 and y >= 1


def test_solve_affine_infeasible():
    assert solve_affine(1, [((1,), 0)], [((1,), 1)]) is None
    assert solve_affine(2, [((1, 0), 1), ((1, 0), 2)], []) is None
    assert solve_affine(1, [], [((0,), 1)]) is None


def test_solve_affine_unbounded_direction():
    sol = solve_affine(2, [], [((1, 0), 5)])
    assert sol is not None and sol[0] >= 5


def test_solve_affine_rational_answer():
    sol = solve_affine(1, [((3,), 1)], [])
    assert sol == (Fraction(1, 3),)
