"""Monoid layer: re-coordinatization, idempotent posets, the envelope."""

import pytest

from idempotoric import monoids
from idempotoric.cones import cone_from_generators, enumerate_faces
from idempotoric.eigen import character_data, eigen_input, factor
from idempotoric.errors import InputError, InternalCheckError
from idempotoric.lattices import IntegerMatrix, Sublattice
from idempotoric.monoids import (
    WeightMonoid,
    cone_and_poset,
    idempotents,
    maximal_chain_length,
    monoid_from_generators,
    toric_envelope,
)

from conftest import random_cone_inputs, random_eigen_lists


def quadrant_monoid():
    return monoid_from_generators([(1, 0), (0, 1), (1, 1)])


def envelope_of(w):
    return toric_envelope(*cone_and_poset(w))


def reference_envelope_poset(w, rep):
    """The envelope monoid's idempotents built from scratch: a cone and a
    face lattice of its own on the projected generators.  Kept to check
    toric_envelope's claim, that they are the original poset with every
    dimension lowered by the unit rank, against."""
    k = rep.unit_lattice.rank
    env = WeightMonoid(w.ambient_rank - k, rep.projected_generators)
    return idempotents(env)


# -- re-coordinatization -----------------------------------------------------


def test_scaled_generators_land_in_lattice_coordinates():
    w = monoid_from_generators([(2, 0), (0, 2), (2, 2)])
    assert w.ambient_rank == 2
    assert w.generators == ((1, 0), (0, 1), (1, 1))


def test_unimodular_generators_unchanged():
    w = monoid_from_generators([(1, 0), (0, 1)])
    assert w.ambient_rank == 2
    assert w.generators == ((1, 0), (0, 1))


def test_zero_generator_gives_trivial_monoid():
    w = monoid_from_generators([(0, 0)])
    assert w.ambient_rank == 0
    assert w.generators == ((),)


def test_skewed_lattice_coordinates():
    # lattice generated by (2,1) and (0,3); coordinates must be exact
    w = monoid_from_generators([(2, 1), (0, 3), (2, 4)])
    assert w.ambient_rank == 2
    cols = len(w.generators[0])
    assert cols == 2
    assert w.generators[2] == tuple(
        a + b for a, b in zip(w.generators[0], w.generators[1])
    )


def test_empty_generator_list_rejected():
    with pytest.raises(InputError, match="need at least one generator vector"):
        monoid_from_generators([])


def test_empty_generator_matrix_rejected():
    # a matrix is read by its rows, as a list is
    with pytest.raises(InputError, match="need at least one generator vector"):
        monoid_from_generators(IntegerMatrix((), 2))


def test_ragged_generators_rejected():
    with pytest.raises(InputError):
        monoid_from_generators([(1, 0), (1,)])


@pytest.mark.parametrize(
    "gens, lattice",
    [
        ([(1,)], Sublattice.span(1, [(2,)])),
        ([(0, 1)], Sublattice.span(2, [(1, 0)])),
    ],
    ids=["pivot-does-not-divide", "residue-after-the-last-row"],
)
def test_a_lattice_missing_a_generator_is_caught(gens, lattice):
    with pytest.raises(InternalCheckError, match="escaped its own span"):
        monoid_from_generators(gens, lattice=lattice)


# -- idempotent posets -------------------------------------------------------


def test_quadrant_poset_frozen():
    p = idempotents(quadrant_monoid())
    assert [f.index_set for f in p.faces] == [(), (0,), (1,), (0, 1, 2)]
    assert [f.dim for f in p.faces] == [0, 1, 1, 2]
    assert p.bottom == 0
    assert p.top == 3
    assert maximal_chain_length(p) == 2


def test_group_case_single_idempotent():
    p = idempotents(monoid_from_generators([(1,), (-1,)]))
    assert len(p.faces) == 1
    assert p.faces[0].index_set == (0, 1)
    assert p.bottom == p.top
    assert maximal_chain_length(p) == 0


def test_trivial_monoid_single_idempotent():
    p = idempotents(monoid_from_generators([(0, 0)]))
    assert len(p.faces) == 1
    assert p.faces[0].index_set == (0,)
    assert p.bottom == p.top


def test_interior_generator_cone_chain():
    p = idempotents(monoid_from_generators([(1, 0), (0, 1), (2, -2)]))
    assert len(p.faces) == 4
    assert (2,) in [f.index_set for f in p.faces]
    assert maximal_chain_length(p) == 2


def test_zero_generator_lies_in_every_idempotent():
    p = idempotents(monoid_from_generators([(0, 0), (1, 0)]))
    for f in p.faces:
        assert 0 in f.index_set


# -- toric envelope ----------------------------------------------------------


def test_envelope_of_group_is_a_point():
    w = monoid_from_generators([(1,), (-1,)])
    rep = envelope_of(w)
    assert rep.envelope_dim == 0
    assert rep.unit_lattice.basis.entries == ((1,),)
    assert rep.projected_generators == ((), ())
    assert len(reference_envelope_poset(w, rep).faces) == 1


def test_envelope_of_pointed_cone_is_itself():
    w = quadrant_monoid()
    rep = envelope_of(w)
    assert rep.envelope_dim == 2
    assert rep.unit_lattice.rank == 0
    assert rep.projected_generators == w.generators
    assert reference_envelope_poset(w, rep) == idempotents(w)


def test_envelope_projects_out_lineality_line():
    w = monoid_from_generators([(1, 0), (-1, 0), (0, 1)])
    rep = envelope_of(w)
    assert rep.unit_lattice.basis.entries == ((1, 0),)
    assert rep.envelope_dim == 1
    assert rep.projected_generators == ((0,), (0,), (1,))
    assert len(reference_envelope_poset(w, rep).faces) == 2


def test_envelope_matches_chain_length_and_poset_shape():
    monoids_with_units = 0
    cases = [
        monoid_from_generators(gens or [(0,) * dim])
        for dim, gens in random_cone_inputs(seed=606, count=40, max_dim=4, max_gens=6)
    ]
    for values in random_eigen_lists(seed=616, count=20):
        cases.append(character_data(factor(eigen_input(values)))[0])
        # with the inverse of its first eigenvalue: a pair of units
        cases.append(character_data(factor(eigen_input(values + [1 / values[0]])))[0])
    for w in cases:
        p = idempotents(w)
        rep = envelope_of(w)
        assert rep.envelope_dim == maximal_chain_length(p)
        assert rep.envelope_dim == w.ambient_rank - rep.unit_lattice.rank
        # the envelope poset is the original one, every dimension lowered
        # by the unit rank
        env = reference_envelope_poset(w, rep)
        k = rep.unit_lattice.rank
        assert [(f.index_set, f.dim) for f in env.faces] == [
            (f.index_set, f.dim - k) for f in p.faces
        ]
        assert env.hasse_edges == p.hasse_edges
        assert (env.bottom, env.top) == (p.bottom, p.top)
        monoids_with_units += k > 0
    # units are projected out often
    assert monoids_with_units == 30


def units_off_the_kernel(real):
    # the transform's columns reversed: the units land in kept coordinates
    def smith(m):
        s, u, v = real(m)
        return s, u, IntegerMatrix(tuple(row[::-1] for row in v.entries), v.cols)

    return smith


def last_column_lost(real):
    # the transform's last column zeroed: a kept coordinate is lost
    def smith(m):
        s, u, v = real(m)
        return s, u, IntegerMatrix(tuple((*row[:-1], 0) for row in v.entries), v.cols)

    return smith


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (units_off_the_kernel, "do not project to zero"),
        (last_column_lost, "do not span the quotient"),
    ],
    ids=["units-off-the-kernel", "loses-dimension"],
)
def test_envelope_projection_faults_are_reported(monkeypatch, corrupt, message):
    # a line of units, projected out
    w = monoid_from_generators([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)])
    cone, poset = cone_and_poset(w)
    assert cone.lineality.rank == 1
    monkeypatch.setattr(monoids, "smith_normal_form", corrupt(monoids.smith_normal_form))
    with pytest.raises(InternalCheckError, match=message):
        toric_envelope(cone, poset)


def test_envelope_needs_a_cone_that_spans_its_space():
    cone = cone_from_generators(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)])
    with pytest.raises(InputError, match="does not span its space"):
        toric_envelope(cone, enumerate_faces(cone))


def test_direct_construction_validated_at_use():
    bad = WeightMonoid(2, ((1, 0),))
    with pytest.raises(InputError):
        idempotents(bad)
