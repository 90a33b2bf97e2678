"""Finitely generated commutative monoids inside a lattice.

A monoid is stored as (lattice, generator images): the lattice is always
re-coordinatized to ZZ^ambient_rank so that the generators span it with
full rank.  Idempotents of the associated algebraic monoid are the faces
of the cone the generators span, so the idempotent poset is the cone's
``FacePoset``, with 0-based generator index sets; the poset operations
here read it directly.  The envelope projects the lattice along the
units, the generators on the poset's bottom face, reading the one cone
and poset a job builds with ``cone_and_poset``.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .cones import Face, FacePoset, cone_from_generators, enumerate_faces
from .errors import InputError, InternalCheckError
from .lattices import (
    IntegerMatrix,
    Sublattice,
    _coordinates,
    rank,
    smith_normal_form,
)

__all__ = [
    "ToricEnvelopeReport",
    "WeightMonoid",
    "cone_and_poset",
    "idempotents",
    "largest_idempotent",
    "maximal_chain_length",
    "monoid_from_generators",
    "toric_envelope",
]


class WeightMonoid(NamedTuple):
    """Generators of a commutative monoid, written in coordinates on the
    lattice they generate (so the generators always have full rank)."""

    ambient_rank: int
    generators: tuple[tuple[int, ...], ...]


class ToricEnvelopeReport(NamedTuple):
    """The smallest irreducible closed subsemigroup containing all the
    idempotents, described by projecting the lattice along the saturated
    unit sublattice.  Its idempotent poset is the monoid's own with every
    dimension lowered by ``unit_lattice.rank``, and a generator's
    projection is zero exactly when it is a unit, on the bottom face."""

    envelope_dim: int
    unit_lattice: Sublattice
    projected_generators: tuple[tuple[int, ...], ...]


def monoid_from_generators(raw, lattice=None) -> WeightMonoid:
    """Build a WeightMonoid from integer vectors in any ambient space.

    ``raw`` is checked by ``IntegerMatrix.from_rows`` unless it is one.
    The lattice it generates is computed exactly, as ``Sublattice.span``
    unless passed in as ``lattice``, its span from a Hermite form taken
    elsewhere (``span_and_kernel``).  ``_coordinates`` writes each vector
    in that lattice's Hermite basis, failing for a vector outside it, so
    the result's ambient_rank equals the rank actually spanned.  All-zero
    input is allowed and yields the rank-0 trivial monoid.
    """
    rows = raw.entries if isinstance(raw, IntegerMatrix) else raw
    if isinstance(rows, (list, tuple)) and not rows:
        raise InputError("need at least one generator vector")
    mat = raw if isinstance(raw, IntegerMatrix) else IntegerMatrix.from_rows(raw)
    lam = Sublattice.span(mat.cols, mat.entries) if lattice is None else lattice
    gens = tuple(_coordinates(lam.basis.entries, mat.entries))
    if None in gens:
        raise InternalCheckError("generator escaped its own span")
    return WeightMonoid(lam.rank, gens)


def cone_and_poset(w: WeightMonoid):
    """The generator cone of ``w`` together with its idempotent poset, the
    cone's ``enumerate_faces``, for callers that need both from one
    construction.  Raises InputError unless the generators span the
    lattice, that is unless the cone's dimension is ``w.ambient_rank``."""
    cone = cone_from_generators(w.ambient_rank, w.generators)
    if cone.dim != w.ambient_rank:
        raise InputError(
            "generators do not span the lattice; build via monoid_from_generators"
        )
    return cone, enumerate_faces(cone)


def idempotents(w: WeightMonoid) -> FacePoset:
    """The idempotent poset: one element per face of the generator cone,
    ordered by inclusion of (0-based) generator index sets."""
    return cone_and_poset(w)[1]


def largest_idempotent(p: FacePoset) -> Face:
    top = p.faces[p.top]
    cover = set(top.index_set)
    for f in p.faces:
        if not set(f.index_set) <= cover:
            raise InternalCheckError("recorded maximum does not dominate the poset")
    return top


def maximal_chain_length(p: FacePoset) -> int:
    """Common length of every maximal chain from smallest to largest.

    The face poset is graded by dimension, so each cover edge must step by
    exactly one; anything else is an enumeration bug, reported hard.
    """
    for lo, hi in p.hasse_edges:
        if p.faces[hi].dim != p.faces[lo].dim + 1:
            raise InternalCheckError("idempotent poset is not graded")
    return p.faces[p.top].dim - p.faces[p.bottom].dim


def toric_envelope(cone, poset) -> ToricEnvelopeReport:
    """Project the generators of ``cone`` along its lineality space.

    ``cone`` and ``poset`` are a weight monoid's ``cone_and_poset`` pair.
    ``cone_from_generators`` certifies that the units, the generators on
    every facet and on the poset's bottom face, span ``cone.lineality`` =
    Λ₀ positively, and ``enumerate_faces`` that the facet list is
    complete.  Λ₀ is split off by a Smith normal form change of basis
    ``v`` with a unit diagonal: a generator's dot products with the last
    n − k columns of ``v``, k = rank(Λ₀), are its image in Λ/Λ₀, and the
    images define the envelope monoid.  The units must project to zero and
    the images must have rank n − k, so the projection's kernel is
    Λ₀ ⊗ Q.  Every facet normal vanishes there and factors through the
    projection, so the envelope cone has the same facets, meeting the
    generators as the original ones do: the same faces, index set for
    index set, and the same covers.  Every face contains Λ₀ ⊗ Q, so each
    face's rank drops by exactly k: the envelope poset is the original
    one with every dimension lowered by k = ``unit_lattice.rank``, and is
    not built again.  The envelope dimension must equal the chain length.
    """
    if cone.dim != cone.ambient_dim:
        raise InputError("cone does not span its space; build it with cone_and_poset")
    lam0 = cone.lineality
    k = lam0.rank
    s, _, v = smith_normal_form(lam0.basis)
    for i in range(k):
        if s.entries[i][i] != 1:
            raise InternalCheckError("saturated unit lattice is not a direct summand")
    kept = tuple(zip(*v.entries))[k:]
    projected = tuple(tuple(sum(map(mul, g, c)) for c in kept) for g in cone.generators)
    dim = cone.dim - k
    if any(any(projected[i]) for i in poset.faces[poset.bottom].index_set):
        raise InternalCheckError("unit generators do not project to zero")
    # for k = 0 the projection is the identity, whose rank is the cone's
    if k and rank(IntegerMatrix.from_rows(projected, cols=dim)) != dim:
        raise InternalCheckError("projected generators do not span the quotient")
    if dim != maximal_chain_length(poset):
        raise InternalCheckError("envelope dimension disagrees with chain length")
    return ToricEnvelopeReport(dim, lam0, projected)
