import ast
import gc
import itertools
import json
import random
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction
from functools import reduce
from math import comb
from operator import and_
from pathlib import Path

import pytest
from conftest import (
    circuit_criterion,
    cross_polytope_cone,
    cube_cone,
    cube_times_line,
    random_cone_inputs,
    random_eigen_lists,
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
    _phase_one,
    _primitive,
    cone_from_generators,
    enumerate_faces,
    extreme_rays,
    is_face,
    sign_masks,
    signed_circuits,
    solve_affine,
)
from idempotoric.eigen import eigen_input, factor
from idempotoric.errors import InputError, InternalCheckError
from idempotoric.lattices import (
    IntegerMatrix,
    Sublattice,
    hermite_normal_form,
    kernel_lattice,
)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def reference_dd_rays(dim, ineqs):
    """Double description with the unfiltered adjacency scan: every
    (positive, negative) pair is tested against every other ray.  Slow,
    kept to check _dd_rays against, tight sets included."""
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
    # the one pass cone_from_generators runs, on the generators
    assert _dd_rays(dim, gens) == reference_dd_rays(dim, gens), (dim, gens)


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


def rays_of(cone):
    return extreme_rays(cone, enumerate_faces(cone))


# ------------------------------------------------------- cone construction


def test_quadrant_frozen_example():
    c = QUADRANT
    assert set(rays_of(c)) == {(1, 0), (0, 1)}
    assert set(c.facets) == {(1, 0), (0, 1)}
    assert c.lineality.rank == 0
    assert c.dim == 2


def test_full_line_is_a_subspace():
    c = cone_from_generators(1, [(1,), (-1,)])
    assert c.facets == ()
    assert rays_of(c) == ()
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
    assert rays_of(c) == ((0, 1),)
    faces = enumerate_faces(c)
    assert [f.index_set for f in faces.faces] == [(0, 1), (0, 1, 2)]
    assert [f.dim for f in faces.faces] == [1, 2]


def test_rays_modulo_a_line_do_not_depend_on_the_generator_order():
    # each ray is its generator reduced by the lineality's Hermite basis
    # until it vanishes on the basis's pivot, then made primitive:
    # (2, 1, 3) - 2 (1, 1, 1) and (0, 1, 1), in every order
    gens = [(2, 1, 3), (0, 1, 1), (1, 1, 1), (-1, -1, -1)]
    for order in itertools.permutations(gens):
        cone = cone_from_generators(3, order)
        assert cone.lineality.basis.entries == ((1, 1, 1),)
        assert rays_of(cone) == ((0, -1, 1), (0, 1, 1))


def test_rays_are_the_atoms_in_any_generator_order():
    # entries in -1..1: repeated and opposite generators, lineality
    cases = random_cone_inputs(seed=909, count=60, max_dim=5, max_gens=8, bound=1)
    rng = random.Random(909)
    for d, gens in cases:
        cone = cone_from_generators(d, gens)
        poset = enumerate_faces(cone)
        atoms = [f for f in poset.faces if f.dim == cone.lineality.rank + 1]
        rays = extreme_rays(cone, poset)
        assert len(rays) == len(atoms), (d, gens)
        pivots = [next(k for k, x in enumerate(row) if x)
                  for row in cone.lineality.basis.entries]
        for ray in rays:
            assert not any(ray[p] for p in pivots) and _primitive(ray) == ray
        shuffled = rng.sample(gens, len(gens))
        assert rays_of(cone_from_generators(d, shuffled)) == rays


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


def test_a_matrix_of_the_wrong_width_is_rejected_as_the_rows_are():
    for rows, dim in (((1, 0, 0),), 2), (((1,), (2,)), 3), (((0, 1),), 0):
        with pytest.raises(InputError) as listed:
            cone_from_generators(dim, [list(g) for g in rows])
        with pytest.raises(InputError) as matrix:
            cone_from_generators(dim, IntegerMatrix(rows, len(rows[0])))
        assert str(matrix.value) == str(listed.value)
        assert str(listed.value).startswith("matrix row 0 has length")


def test_a_matrix_and_its_rows_give_equal_cones():
    cases = random_cone_inputs(seed=2929, count=30)
    cases += [(0, []), (3, [])]
    for d, gens in cases:
        listed = cone_from_generators(d, [list(g) for g in gens])
        assert cone_from_generators(d, IntegerMatrix(tuple(gens), d)) == listed
    # a matrix with no rows takes ambient_dim for its width, as a list does
    assert cone_from_generators(3, IntegerMatrix((), 5)) == cone_from_generators(3, [])


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
    # face enumeration and the simplex subset oracle must agree on the full
    # power set of generator indices
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
        rays = list(rays_of(cone))
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
    # the quadrant's double description pass: the third generator (1, 1)
    # meets the ray (1, 0) with product 1.  Reporting 0 once, when the pass
    # sorts the rays by sign, files the ray as tight there; the final check,
    # which takes every product again, must notice.
    real = cones._dot
    lies = [((1, 1), (1, 0))]

    def dot_lying_once(a, b):
        if (tuple(a), tuple(b)) in lies:
            lies.remove((tuple(a), tuple(b)))
            return 0
        return real(a, b)

    assert _dd_rays(2, [(1, 0), (0, 1), (1, 1)])[2] == [0b010, 0b001]
    monkeypatch.setattr(cones, "_dot", dot_lying_once)
    with pytest.raises(InternalCheckError, match="lost track of a tight set"):
        cone_from_generators(2, [(1, 0), (0, 1), (1, 1)])
    assert not lies


VIOLATED = "double description ray violates a constraint"
LOST = "double description lost track of a tight set"


def reference_certificate(ineqs, rays, tight):
    """The final check of _dd_rays as one loop over the rays, one product
    per (ray, inequality) pair: slow, kept to hold the packed check to."""
    for v, t in zip(rays, tight):
        products = [dot(a, v) for a in ineqs]
        if any(d < 0 for d in products):
            raise InternalCheckError(VIOLATED)
        if sum(1 << i for i, d in enumerate(products) if not d) != t:
            raise InternalCheckError(LOST)


def certificate_outcome(check, ineqs, rays, tight):
    """None when ``check`` accepts, else the message it raises."""
    try:
        check(ineqs, rays, tight)
    except InternalCheckError as e:
        return str(e)
    return None


def assert_certificates_agree(ineqs, rays, tight):
    expected = certificate_outcome(reference_certificate, ineqs, rays, tight)
    assert certificate_outcome(cones._certify_rays, ineqs, rays, tight) == expected
    return expected


def exact_tight(ineqs, rays):
    return [sum(1 << i for i, a in enumerate(ineqs) if not dot(a, v)) for v in rays]


@st.composite
def certificate_cases(draw):
    """Inequalities and rays with entries up to 10^40, zero rows among
    them, and the true tight sets with a few bits flipped, some past the
    last inequality.  Entries that are all nonnegative make every product
    nonnegative, so that the tight sets decide."""
    d = draw(st.integers(min_value=0, max_value=4))
    bound = draw(st.sampled_from([1, 3, 10**40]))
    low = draw(st.sampled_from([-bound, 0]))
    vector = st.tuples(*[st.integers(min_value=low, max_value=bound)] * d)
    row = st.one_of(vector, st.just((0,) * d))
    ineqs = draw(st.lists(row, max_size=5))
    rays = draw(st.lists(row, max_size=6))
    tight = exact_tight(ineqs, rays)
    if rays:
        at = st.tuples(
            st.integers(min_value=0, max_value=len(rays) - 1),
            st.integers(min_value=0, max_value=len(ineqs)),
        )
        for j, i in draw(st.lists(at, max_size=2)):
            tight[j] ^= 1 << i
    return ineqs, rays, tight


@settings(max_examples=400, deadline=None)
@given(certificate_cases())
def test_packed_certificate_matches_the_loop(case):
    assert_certificates_agree(*case)


@pytest.mark.parametrize(
    "ineqs, rays, tight, expected",
    [
        ([(1, 2), (3, -1)], [], [], None),
        ([], [(1, 2)], [0], None),
        ([], [(1, 2)], [1], "lost track"),
        ([(0, 0), (0, 0)], [(5, -7), (1, 1)], [3, 3], None),
        ([(0, 0), (1, 0)], [(5, -7)], [1], None),
        ([(0, 0), (1, 0)], [(-5, 7)], [1], "violates"),
        ([(0, 0), (1, 0)], [(5, -7)], [3], "lost track"),
        ([(2, -1)], [(1, 2)], [1], None),
        ([(2, -1)], [(1, 2)], [0], "lost track"),
        ([(2, -1)], [(1, 2)], [-1], "lost track"),
        # ‖a‖₁·max|v| = 2^64 - 1: products of ±(2^{B-1} - 1) fill a lane
        ([((1 << 64) - 1, 0)], [(1, 1)] * 3, [0] * 3, None),
        ([(1 << 63, (1 << 63) - 1)], [(1, 1), (-1, -1), (1, 1)], [0] * 3, "violates"),
    ],
    ids=["no-rays", "no-inequalities", "no-inequalities-stray-bit", "zero-rows",
         "one-lane", "one-lane-negative", "one-lane-wrong-tight-set", "one-lane-tight",
         "one-lane-lost-tight-bit", "negative-tight-mask", "full-lanes",
         "full-lanes-negative"],
)
def test_packed_certificate_edge_cases(ineqs, rays, tight, expected):
    message = assert_certificates_agree(ineqs, rays, tight)
    assert (message is None) if expected is None else (expected in message)


# a product of this size in any position, of either sign
BOUND_RAYS = [(1, 1), (-1, -1), (1, -1), (-1, 1), (0, 0), (1, 0), (0, -1)]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.data())
def test_packed_certificate_at_the_lane_bound(k, data):
    # ‖a‖₁·max|v| = 2^k - 1, so the lanes are k + 1 bits wide and the
    # products a·(1, 1) and a·(-1, -1) are ±(2^{B-1} - 1)
    x = (1 << k) - 1
    u = data.draw(st.integers(min_value=0, max_value=x))
    a = (u, x - u)
    ineqs = data.draw(st.sampled_from([[a], [a, (-u, u - x)], [(0, 0), a]]))
    rays = data.draw(st.lists(st.sampled_from(BOUND_RAYS), min_size=1, max_size=6))
    tight = exact_tight(ineqs, rays)
    if data.draw(st.booleans()):
        j = data.draw(st.integers(min_value=0, max_value=len(rays) - 1))
        tight[j] ^= 1 << data.draw(st.integers(min_value=0, max_value=len(ineqs) - 1))
    assert_certificates_agree(ineqs, rays, tight)


@pytest.mark.parametrize(
    "cone",
    [QUADRANT, cube_cone(5), cross_polytope_cone(6)],
    ids=["quadrant", "5-cube", "6-cross-polytope"],
)
def test_packed_certificate_finds_a_fault_in_every_lane_position(cone):
    gens, rays, tight = cone.generators, list(cone.facets), list(cone.incidences)
    assert assert_certificates_agree(gens, rays, tight) is None
    # the atoms' witnesses vanish on one generator and are positive on the
    # rest; the facet normals' sum is positive on every generator
    witness = {f.index_set: f.witness for f in enumerate_faces(cone).faces}
    inner = [sum(col) for col in zip(*rays)]
    scale = max(dot(inner, g) for g in gens) + 1
    last = len(rays) - 1
    for j in sorted({0, last // 2, last}):
        faults = []
        # one product turned negative: the facet's normal scaled up and moved
        # by a functional negative on one of its generators alone
        i = (tight[j] & -tight[j]).bit_length() - 1
        shift = [scale * w - t for w, t in zip(witness[(i,)], inner)]
        big = max(abs(dot(shift, g)) for g in gens) + 1
        moved = tuple(big * x + y for x, y in zip(rays[j], shift))
        assert [k for k, g in enumerate(gens) if dot(moved, g) < 0] == [i]
        faults.append((rays[:j] + [moved] + rays[j + 1 :], tight, VIOLATED))
        # one tight bit flipped on, one off
        off = next(k for k in range(len(gens)) if not tight[j] >> k & 1)
        for flip in (1 << off, 1 << i):
            flipped = tight[:j] + [tight[j] ^ flip] + tight[j + 1 :]
            faults.append((rays, flipped, LOST))
        for faulty_rays, faulty_tight, message in faults:
            got = assert_certificates_agree(gens, faulty_rays, faulty_tight)
            assert got == message, j


@pytest.mark.parametrize("d", range(2, 9))
def test_dd_rays_takes_one_product_per_pair(monkeypatch, d):
    # on the d unit generators each of the d steps takes one product per
    # lineality vector or ray, d in all, and the final check none
    real, calls = cones._dot, []

    def counted(a, b):
        calls.append(None)
        return real(a, b)

    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    expected = _dd_rays(d, units)
    monkeypatch.setattr(cones, "_dot", counted)
    assert _dd_rays(d, units) == expected
    assert len(calls) <= d * (d + 1)


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
DIAMOND = "an interval of length 2 is not a diamond"
QUADRANT_TIMES_LINE = cone_from_generators(
    3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 0, -1)]
)


def as_dict(search):
    """A cover search's ``(sets, covers)`` as a dict from each set, in its
    order, to the sets of its lower covers."""
    sets, covers = search
    return {s: [sets[c] for c in listed] for s, listed in zip(sets, covers)}


def as_positions(covers_of):
    """The inverse of ``as_dict``: a dict from each set to its lower covers
    as the cover search's ``(sets, covers)``, covers by position."""
    sets = list(covers_of)
    position = {s: k for k, s in enumerate(sets)}
    return sets, [[position[c] for c in listed] for listed in covers_of.values()]


def losing_middle_faces(count, splice=True):
    """A cover search that loses ``count`` of the sets halfway up its
    lattice (all of them for None).  With ``splice`` it lists each lost
    set's covers in its place, so the sets above a lost one cover the sets
    below it; without, the edges through a lost set are only dropped."""
    real = cones._closed_sets

    def closed_sets(full, masks):
        covers_of = as_dict(real(full, masks))
        height = {}
        for s, covers in covers_of.items():
            height[s] = max((height[c] + 1 for c in covers), default=0)
        middle = max(height.values()) // 2
        lost = [s for s in covers_of if height[s] == middle][:count]
        out = {}
        for s, covers in covers_of.items():
            if s not in lost:
                spliced = []
                for c in covers:
                    if c not in lost:
                        spliced.append(c)
                    elif splice:
                        spliced += covers_of[c]
                out[s] = list(dict.fromkeys(spliced))
        return as_positions(out)

    return closed_sets


# one pointed cone and one with a lineality line on each side of
# enumerate_faces: walked up over the facets' generator masks (m <= r) or
# down over the generators' facet masks.  Every face's height is one
# cover's plus or minus one from the walk's start, so a wrong cover search
# or a wrong rank at either end must be caught by the checks on the cover
# edges, the diamonds and the far end's rank against the start's: the
# top's named walking up, the bottom's walking down.
TOP_RANK = "top face rank differs from the cone's dimension"
BOTTOM_RANK = "bottom face rank differs from its elimination"


@pytest.mark.parametrize(
    "pointed, with_line, over_facets, far_end",
    [
        (cube_cone(3), cube_times_line(3), True, TOP_RANK),
        (cross_polytope_cone(3), cross_polytope_times_line(4), False, BOTTOM_RANK),
    ],
    ids=["over_facets", "over_generators"],
)
def test_non_graded_poset_is_reported(monkeypatch, pointed, with_line, over_facets, far_end):
    for cone in (pointed, with_line):
        assert (len(cone.facets) <= len(cone.generators)) == over_facets
    assert pointed.lineality.rank == 0 and with_line.lineality.rank == 1

    # one face lost from the middle of the lattice: the faces above it now
    # cover the faces below it, an edge that skips a dimension
    monkeypatch.setattr(cones, "_closed_sets", losing_middle_faces(1))
    for cone in (pointed, with_line):
        with pytest.raises(InternalCheckError, match="graded"):
            enumerate_faces(cone)

    # every face of that height lost: each edge still changes the dimension
    # by one, but every chain is one edge short, so the far end's dimension
    # is one off its rank, which is checked before the diamonds
    monkeypatch.setattr(cones, "_closed_sets", losing_middle_faces(None))
    for cone in (pointed, with_line):
        with pytest.raises(InternalCheckError, match=far_end):
            enumerate_faces(cone)
    monkeypatch.undo()

    # one spurious row in the bottom face's basis raises its rank by one,
    # which each cover edge accepts; walking up, every rank rises and the
    # top's against cone.dim trips, walking down the bottom's does
    def repeat_bottom_row(rows, vectors):
        out = _extend_echelon(rows, vectors)
        return out + out[:1]

    monkeypatch.setattr(cones, "_extend_echelon", repeat_bottom_row)
    with pytest.raises(InternalCheckError, match=far_end):
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
        lambda full, masks: as_positions({0b001: [], 0b011: [0b001], 0b111: [0b011]}),
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
        covers_of = as_dict(real(full, masks))
        assert pair not in covers_of and triple not in covers_of
        assert max(map(int.bit_count, covers_of[facet])) == 4
        covers_of[pair] = [1 << v0, 1 << v1]
        covers_of[triple] = [pair]
        covers_of[facet] = covers_of[facet] + [triple]
        return as_positions(
            dict(sorted(covers_of.items(), key=lambda item: item[0].bit_count()))
        )

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
        lambda full, masks: as_positions({
            0: [],
            0b001: [0],
            0b010: [0],
            0b100: [0],
            0b111: [0b001, 0b010],
        }),
    )
    with pytest.raises(InternalCheckError, match="no upper cover"):
        enumerate_faces(QUADRANT)


def test_every_face_above_the_bottom_needs_a_lower_cover(monkeypatch):
    # a cover search that lists {2} as a second face with no covers, below
    # the top: the walk up cannot build it from a face it reached, and
    # names the missing cover there, before any check on the top's edges
    monkeypatch.setattr(
        cones,
        "_closed_sets",
        lambda full, masks: as_positions({
            0: [],
            0b100: [],
            0b001: [0],
            0b010: [0],
            0b111: [0b001, 0b010, 0b100],
        }),
    )
    with pytest.raises(InternalCheckError, match="no lower cover"):
        enumerate_faces(QUADRANT)


def test_the_two_walks_agree():
    # the walk works in either direction on either side of m = r: both must
    # give the same poset, on polytope cones with and without a line and on
    # random cones
    families = (cube_cone, cross_polytope_cone)
    named = [family(d) for d in (3, 4, 5, 6) for family in families]
    named += [cube_times_line(d) for d in (3, 4)]
    named += [cross_polytope_times_line(d) for d in (3, 4, 5)]
    cases = [(c.ambient_dim, c.generators) for c in named]
    cases += random_cone_inputs(seed=2222, count=30, max_dim=5, max_gens=9)
    # entries in -1..1: zero, repeated and opposite generators, lineality
    cases += random_cone_inputs(seed=2223, count=20, max_dim=5, max_gens=9, bound=1)
    # pointed cones in dimension 4 to 6, most with more facets than generators
    rng = random.Random(2224)
    for _ in range(20):
        d = rng.randint(4, 6)
        cases.append((d, [(rng.randint(1, 3), *(rng.randint(-3, 3) for _ in range(d - 1)))
                          for _ in range(rng.randint(d + 1, 12))]))
    sides = []
    for d, gens in cases:
        cone = cone_from_generators(d, gens)
        assert cones._walk(cone, False) == cones._walk(cone, True), (d, gens)
        sides.append(len(cone.facets) > len(cone.generators))
    assert sides.count(True) >= 20 and sides.count(False) >= 20


def facet_masks(cone):
    """Each generator's mask of the facets through it."""
    return [sum(1 << j for j, inc in enumerate(cone.incidences) if inc >> i & 1)
            for i in range(len(cone.generators))]


def assert_cover_search_contract(full, masks):
    sets, covers = cones._closed_sets(full, masks)
    # exactly the intersections of the masks, the empty one being full, by
    # non-decreasing bit count
    meets = {
        reduce(and_, chosen, full)
        for k in range(len(masks) + 1)
        for chosen in itertools.combinations(masks, k)
    }
    assert len(sets) == len(meets) and set(sets) == meets
    assert list(map(int.bit_count, sets)) == sorted(map(int.bit_count, sets))
    # each set's covers: the closed c ⊊ s with no closed set strictly
    # between, listed once each, by their positions before s
    assert len(covers) == len(sets)
    for k, s in enumerate(sets):
        below = [c for c in range(len(sets)) if c != k and sets[c] & s == sets[c]]
        expected = [
            c for c in below
            if not any(d != c and sets[d] & sets[c] == sets[c] for d in below)
        ]
        assert all(c < k for c in covers[k])
        assert sorted(covers[k]) == expected


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda w: st.tuples(
            st.just((1 << w) - 1),
            st.lists(st.integers(min_value=0, max_value=(1 << w) - 1), max_size=8),
        )
    )
)
def test_the_cover_search_on_random_mask_families(case):
    assert_cover_search_contract(*case)


@pytest.mark.parametrize("family", [cube_cone, cross_polytope_cone])
def test_the_cover_search_on_polytope_cones(family):
    # both sides of the cone over the 4-cube and the 4-cross-polytope: the
    # facets' generator masks, and the generators' facet masks
    cone = family(4)
    assert_cover_search_contract((1 << len(cone.generators)) - 1, list(cone.incidences))
    assert_cover_search_contract((1 << len(cone.facets)) - 1, facet_masks(cone))


@pytest.mark.parametrize("family", [cube_cone, cross_polytope_cone])
def test_the_walk_peaks_near_the_poset_it_keeps(family):
    # each cover is held once, by position, so the face walk's peak is at
    # most 2.1 times what its poset keeps; holding each cover twice, as a
    # mask and as a position, takes it to 2.3 to 2.5 times
    cone = family(8)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        poset = enumerate_faces(cone)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(poset.faces) == 3**8 + 1
    assert peak - before <= 2.1 * (kept - before)


def cover_search_changed(change):
    """A cover search over the generators' facet masks that returns
    ``change`` of the real one's dict (``as_dict``), from each T, in the
    walk's order, to its lower covers (the face's upper covers)."""
    real = cones._closed_sets
    return lambda full, masks: as_positions(change(as_dict(real(full, masks))))


def below_a_ray_with_its_generators(covers_of):
    # a ray of the octahedron's cone lies on four facets: three of them,
    # listed below the ray, keep its generators, as no facet separates them
    ray = next(t for t in covers_of if t.bit_count() == 4)
    out = {}
    for t, above in covers_of.items():
        out[t] = above
        if t == ray:
            out[ray & (ray - 1)] = [ray]
    return out


def a_facet_below_nothing(covers_of):
    return {**covers_of, 1: []}


def two_opposite_facets_over_nothing(covers_of):
    # facets 0 and 7 of the octahedron's cone hold no common generator, so
    # {0, 7} is no face; listed below both, it passes every check but has
    # no chain of covers down to the bottom, whose rank would bound its own
    assert 1 << 0 | 1 << 7 not in covers_of
    covers_of[1 << 0 | 1 << 7] = [1 << 0, 1 << 7]
    return dict(sorted(covers_of.items(), key=lambda item: item[0].bit_count()))


@pytest.mark.parametrize(
    "change, message",
    [
        (below_a_ray_with_its_generators, "face step has no separating facet"),
        (a_facet_below_nothing, "a face below the top has no upper cover"),
        (two_opposite_facets_over_nothing, "a face above the bottom has no lower cover"),
    ],
    ids=["separating-facet", "upper-cover", "lower-cover"],
)
def test_each_check_of_the_walk_down_trips(monkeypatch, change, message):
    # the gradedness, far-end rank and diamond checks of the walk down trip
    # in test_non_graded_poset_is_reported and
    # test_a_lost_diamond_middle_is_reported, the facet list check in
    # test_a_wrong_facet_list_is_reported
    cone = cross_polytope_cone(3)
    assert len(cone.facets) > len(cone.generators)
    assert cone.incidences[0] & cone.incidences[7] == 0
    monkeypatch.setattr(cones, "_closed_sets", cover_search_changed(change))
    with pytest.raises(InternalCheckError, match=message):
        enumerate_faces(cone)


def check_messages(tree):
    """Each ``InternalCheckError`` message of a module, counted once for
    every raise statement that can raise it.  A message held by a name is
    followed through the module's assignments, tuples element by element,
    a conditional expression can raise either branch's, and an f-string
    stands for itself as written."""
    values = defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                for name, value in pairs:
                    if isinstance(name, ast.Name):
                        values[name.id].append(value)

    def messages(node):
        if isinstance(node, ast.Constant):
            return {node.value}
        if isinstance(node, ast.JoinedStr):
            return {ast.unparse(node)}
        if isinstance(node, ast.IfExp):
            return messages(node.body) | messages(node.orelse)
        assert isinstance(node, ast.Name) and values[node.id], ast.unparse(node)
        return set().union(*map(messages, values[node.id]))

    sites = Counter()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "InternalCheckError"
        ):
            sites.update(messages(node.exc.args[0]))
    return sites


def test_each_check_message_has_one_raise_site():
    # a message names the check that failed, whichever way the face
    # lattice was walked, and in whichever module of the package
    sites = Counter()
    raising = []
    for path in sorted(Path(cones.__file__).parent.glob("*.py")):
        found = check_messages(ast.parse(path.read_text()))
        sites.update(found)
        if found:
            raising.append(path.stem)
    assert raising == ["cli", "cones", "eigen", "finite", "lattices", "monoids"]
    assert TOP_RANK in sites and BOTTOM_RANK in sites
    assert {message: n for message, n in sites.items() if n != 1} == {}

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
# 12 generators and 64 facets: its lattice is walked down
CROSS_6 = list(cross_polytope_cone(6).generators)


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
        (TWELVE_GON, 26, without_a_facet_through_generator_0, DIAMOND),
        (WIDE_QUADRANT, 4, without_a_facet_through_generator_0,
         "bottom face is not linear"),
        (WIDE_QUADRANT_TIMES_LINE, 4, without_a_facet_through_generator_0,
         "bottom face is not linear"),
        (GRID, 10, only_two_opposite_facets,
         "top face rank differs from the cone's dimension"),
        (GRID, 10, with_a_redundant_facet, "a listed facet is not a facet"),
        (CROSS_6, 730, without_a_facet_through_generator_0, DIAMOND),
        (CROSS_6, 730, with_a_redundant_facet, "a listed facet is not a facet"),
    ],
    ids=["12-gon", "quadrant", "quadrant-times-line", "grid-two-facets",
         "grid-redundant-facet", "6-cross-polytope", "6-cross-polytope-redundant-facet"],
)
def test_a_wrong_facet_list_is_reported(
    tmp_path, capsys, monkeypatch, mode, gens, faces, change, message
):
    code, rep = run_job(tmp_path, capsys, mode, gens)
    assert code == 0
    listed = rep["faces"] if mode == "cone" else rep["idempotents"]["elements"]
    assert len(listed) == faces
    assert rep["crosschecks"]["subset_oracle"].startswith("skipped")

    # the change applies to the cone's one double description pass
    real = cones._dd_rays
    monkeypatch.setattr(cones, "_dd_rays", lambda *args: change(*real(*args)))
    code, rep = run_job(tmp_path, capsys, mode, gens)
    assert (code, rep["error"]["kind"], rep["error"]["message"]) == (
        2,
        "internal",
        message,
    )


@pytest.mark.parametrize("mode", ["cone", "monoid"])
def test_a_lost_ray_is_reported(tmp_path, capsys, monkeypatch, mode):
    # a cover search that loses one of the 12-gon cone's 12 rays: the two
    # 2-faces through it still cover a ray each, so every edge is graded
    # and separated and the top keeps its rank and its facets, but each of
    # those 2-faces is now one path above the bottom face, not two
    real = cones._closed_sets

    def closed_sets(full, masks):
        covers_of = as_dict(real(full, masks))
        assert covers_of[1] == [0]
        del covers_of[1]
        return as_positions(
            {s: [c for c in covers if c != 1] for s, covers in covers_of.items()}
        )

    monkeypatch.setattr(cones, "_closed_sets", closed_sets)
    code, rep = run_job(tmp_path, capsys, mode, TWELVE_GON)
    assert (code, rep["error"]["kind"], rep["error"]["message"]) == (
        2,
        "internal",
        DIAMOND,
    )


@pytest.mark.parametrize(
    "cone",
    [cube_cone(3), cube_times_line(3), cross_polytope_cone(3),
     cross_polytope_times_line(4)],
    ids=["3-cube", "3-cube-times-line", "3-cross-polytope",
         "4-cross-polytope-times-line"],
)
def test_a_lost_diamond_middle_is_reported(monkeypatch, cone):
    # one face lost from the middle of the lattice and nothing spliced in
    # its place: every edge left is a true cover, so the grading holds, but
    # the intervals through the lost face have one middle element
    monkeypatch.setattr(cones, "_closed_sets", losing_middle_faces(1, splice=False))
    with pytest.raises(InternalCheckError, match=DIAMOND):
        enumerate_faces(cone)


# a line of three units, one of them repeated, and two rays: the units'
# rhs −Σgᵢ is (1, 0, 0), so their λ takes simplex pivots
LINE_OF_THREE = [[1, 0, 0], [-1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]]


def with_lambda_zero_at_the_last_unit(mu):
    # λ = (1, 1, 0): its column sums still vanish
    return (0,) * (len(mu) - 1) + (-1,)


def with_a_column_sum_off_by_one(mu):
    # λ₀ one more: every λᵢ ≥ 1, but the first column sums to 1
    return (mu[0] + 1, *mu[1:])


def with_the_last_unit_left_out(mu):
    # λ = (1, 1) over the first two units alone: its sums vanish
    return (0,) * (len(mu) - 1)


def with_no_dependency(mu):
    return None


@pytest.mark.parametrize("mode", ["cone", "monoid"])
@pytest.mark.parametrize(
    "change",
    [
        with_lambda_zero_at_the_last_unit,
        with_a_column_sum_off_by_one,
        with_the_last_unit_left_out,
        with_no_dependency,
    ],
    ids=["lambda-zero", "column-sum-off", "unit-left-out", "none"],
)
def test_a_wrong_lineality_certificate_is_reported(
    tmp_path, capsys, monkeypatch, mode, change
):
    code, rep = run_job(tmp_path, capsys, mode, LINE_OF_THREE)
    assert code == 0
    if mode == "monoid":
        assert rep["smallest_index_set"] == [1, 2, 3]

    # the change applies to the answer the cone build gets for its units
    real = cones._phase_one
    monkeypatch.setattr(cones, "_phase_one", lambda *args: change(real(*args)))
    code, rep = run_job(tmp_path, capsys, mode, LINE_OF_THREE)
    assert (code, rep["error"]["kind"], rep["error"]["message"]) == (
        2,
        "internal",
        "bottom face is not linear",
    )


def mutation_corpus():
    """The cones whose facet lists the mutation test corrupts: named ones
    on both sides of enumerate_faces, with and without a line, and seeded
    random ones in dimension 3 to 5 with at most 12 generators."""
    named = [
        (3, TWELVE_GON),
        (3, GRID),
        *((c.ambient_dim, list(c.generators)) for c in (
            cube_cone(3), cube_cone(4), cross_polytope_cone(4),
            cross_polytope_times_line(3),
        )),
    ]
    rng = random.Random(2121)
    drawn = []
    while len(drawn) < 20:
        d = rng.randint(3, 5)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d))
                for _ in range(rng.randint(d + 1, 12))]
        if len(cone_from_generators(d, gens).facets) >= 2:
            drawn.append((d, gens))
    return named + drawn


def test_every_dropped_facet_is_reported(tmp_path, capsys, monkeypatch):
    # drop each facet, then each pair of facets, from the one double
    # description pass: the certificate must fail every such job
    real = cones._dd_rays
    dropped = []

    def dd_rays(dim, ineqs):
        rays, lin, tight = real(dim, ineqs)
        keep = [k for k in range(len(rays)) if k not in dropped]
        return [rays[k] for k in keep], lin, [tight[k] for k in keep]

    monkeypatch.setattr(cones, "_dd_rays", dd_rays)
    mutations = 0
    for d, gens in mutation_corpus():
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"ambient_dim": d, "generators": gens}))
        m = len(real(d, gens)[0])
        for size in (1, 2):
            for drop in itertools.combinations(range(m), size):
                dropped[:] = drop
                code = cli.main(["cone", "--input", str(path)])
                doc = json.loads(capsys.readouterr().out)
                assert (code, doc["error"]["kind"]) == (2, "internal"), (
                    d, gens, dropped)
                mutations += 1
    assert mutations > 1000


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
def test_circuit_criterion_matches_is_face(seed, bound):
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


def reference_circuits(dim, gens):
    """The circuits from every minimal dependent index set S, each the
    primitive kernel vector of S's generators, lowest entry positive:
    exponential, kept to check the search against."""
    def rank_of(idx):
        return len(_extend_echelon([], [gens[i] for i in idx]))

    out = set()
    for idx in subsets(len(gens)):
        if rank_of(idx) == len(idx) - 1 and all(
            rank_of(idx[:k] + idx[k + 1 :]) == len(idx) - 1 for k in range(len(idx))
        ):
            sub = IntegerMatrix.from_rows([gens[i] for i in idx], cols=dim)
            (vec,) = kernel_lattice(sub).basis.entries
            full = [0] * len(gens)
            for i, c in zip(idx, vec):
                full[i] = c
            vec = _primitive(full)
            out.add(vec if next(c for c in vec if c) > 0 else tuple(-c for c in vec))
    return out


def test_circuits_are_the_minimal_dependent_sets():
    cases = random_cone_inputs(seed=909, count=40, max_dim=4, max_gens=7)
    cases += random_cone_inputs(seed=910, count=30, max_dim=4, max_gens=7, bound=1)
    # a kernel of rank 5 over 8 generators: four elimination steps deep
    cases.append((3, [(1, 2, 3), (2, -1, 0), (0, 1, 1), (3, 1, 4), (1, 0, -2),
                      (2, 2, 1), (-1, 3, 2), (4, 0, 1)]))
    for d, gens in cases:
        assert set(signed_circuits(d, gens)) == reference_circuits(d, gens), (d, gens)


def test_each_prefix_echelon_is_built_once_and_nothing_more(monkeypatch):
    # the certificate reads the echelon of each circuit's prefix, the
    # support less its last generator, built from the longest one built
    # before by dropping top generators; one extension per mask on those
    # chains, and none for the support itself
    calls = []

    def counted(rows, vectors):
        calls.append(len(rows))
        return _extend_echelon(rows, vectors)

    monkeypatch.setattr("idempotoric.cones._extend_echelon", counted)
    tried = 0
    for vals in random_eigen_lists(seed=3434, count=40, max_len=9, bound=12):
        t = factor(eigen_input(vals))
        calls.clear()
        circuits = signed_circuits(len(t.primes), t.matrix)
        chains = set()
        for z in circuits:
            mask = sum(1 << i for i, c in enumerate(z) if c)
            mask ^= 1 << (mask.bit_length() - 1)
            while mask:
                chains.add(mask)
                mask ^= 1 << (mask.bit_length() - 1)
        assert len(calls) == len(chains), vals
        tried += len(circuits) > 1
    assert tried > 10


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
    # the minimality certificate is the length of the prefix's echelon
    # basis; one that drops every row it would add makes each prefix look
    # dependent, so no support of two or more reads as minimal
    def drop_the_new_row(rows, vectors):
        return list(rows)

    monkeypatch.setattr("idempotoric.cones._extend_echelon", drop_the_new_row)
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


def test_solve_affine_fraction_coefficients():
    # x/2 + y/3 == 5/6 and y - x/4 >= 1/7: the rows are scaled to integers
    eqs = [((Fraction(1, 2), Fraction(1, 3)), Fraction(5, 6))]
    ineqs = [((Fraction(-1, 4), 1), Fraction(1, 7))]
    x, y = solve_affine(2, eqs, ineqs)
    assert x / 2 + y / 3 == Fraction(5, 6) and y - x / 4 >= Fraction(1, 7)
    # x/2 >= 1/3 and x/3 <= 1/9 leave no x
    assert solve_affine(1, [], [((Fraction(1, 2),), Fraction(1, 3)),
                                ((Fraction(-1, 3),), Fraction(-1, 9))]) is None


# ---------------------------------------------------------------- _phase_one


def assert_solves(columns, rhs, x):
    assert x is not None and len(x) == len(columns) and min(x, default=0) >= 0
    assert [sum(t * a[i] for t, a in zip(x, columns)) for i in range(len(rhs))] == list(rhs)


# Beale's cycling example (Beale, Naval Res. Logist. Q. 2, 1955), as
# equalities with the slacks x1, x2, x3 first and the rows scaled to
# integers; with Dantzig's rule, ties to the lowest row, in place of
# Bland's, this phase one never ends on it:
#   x4/4 − 8x5 − x6 + 9x7 + x1 = 0,  x4/2 − 12x5 − x6/2 + 3x7 + x2 = 0,
#   x6 + x3 = 1;
# its objective, 3x4/4 − 20x5 + x6/2 − 6x7, is at most 5/4
BEALE = [
    [4, 0, 0, 1, -32, -4, 36],
    [0, 2, 0, 1, -24, -1, 6],
    [0, 0, 1, 0, 0, 1, 0],
]
BEALE_OBJECTIVE = [0, 0, 0, 3, -80, 2, -24]  # four times the objective


def columns_of(rows):
    return [list(col) for col in zip(*rows)]


def test_phase_one_terminates_on_beales_example():
    columns = columns_of(BEALE)
    assert_solves(columns, [0, 0, 1], _phase_one(columns, [0, 0, 1]))
    # the objective held at its maximum, and just above it
    columns = columns_of(BEALE + [BEALE_OBJECTIVE])
    assert_solves(columns, [0, 0, 1, 5], _phase_one(columns, [0, 0, 1, 5]))
    columns = columns_of(BEALE + [[100 * t for t in BEALE_OBJECTIVE]])
    assert _phase_one(columns, [0, 0, 1, 501]) is None


@pytest.mark.parametrize(
    "columns, rhs",
    [
        ([(1,), (1,)], (-1,)),  # x + y = -1
        ([(1, 1)], (1, 2)),  # x = 1 and x = 2
        ([(1, 1), (-1, -1)], (1, 0)),  # x - y = 1 and x - y = 0: y·a = 0 on every column
        ([], (3,)),  # no columns: 0 = 3
        ([(1, 0), (0, 1)], (1, -1)),  # the quadrant misses (1, -1)
    ],
)
def test_phase_one_returns_none_when_infeasible(columns, rhs):
    assert _phase_one(columns, rhs) is None


def test_phase_one_edge_cases():
    assert _phase_one([], ()) == ()
    assert _phase_one([(), ()], ()) == (0, 0)
    # a zero rhs: x = 0, the starting point, before any pivot
    assert _phase_one([(1, -1), (-1, 1)], (0, 0)) == (0, 0)
    # columns that span the plane positively reach any rhs
    for rhs in [(1, 0), (-3, 5), (7, 7)]:
        columns = [(1, 0), (0, 1), (-2, -1)]
        assert_solves(columns, rhs, _phase_one(columns, rhs))


def test_a_farkas_vector_of_the_wrong_sign_is_refused(monkeypatch):
    # every product with the certificate negated: on x - y = 1, x - y = 0
    # y·a is 0 on both columns, so only y·rhs > 0 can refuse it
    real = cones._dot
    monkeypatch.setattr(cones, "_dot", lambda a, b: -real(a, b))
    with pytest.raises(InternalCheckError, match="Farkas vector"):
        _phase_one([(1, 1), (-1, -1)], (1, 0))
    with pytest.raises(InternalCheckError, match="Farkas vector"):
        _phase_one([(1,), (1,)], (-1,))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=4).flatmap(
        lambda m: st.tuples(
            st.lists(st.tuples(*[st.integers(-3, 3)] * m), max_size=6),
            st.tuples(*[st.integers(-4, 4)] * m),
        )
    )
)
def test_phase_one_answers_are_certified(case):
    # a None has passed its Farkas check; an x must solve the system
    columns, rhs = case
    x = _phase_one(columns, rhs)
    if x is not None:
        assert_solves(columns, rhs, x)
