"""Finitely generated commutative monoids inside a lattice.

A monoid is stored as (lattice, generator images): the lattice is always
re-coordinatized to ZZ^ambient_rank so that the generators span it with
full rank.  Idempotents of the associated algebraic monoid are the faces
of the cone the generators span, so the idempotent poset is the cone's
``FacePoset``, with 0-based generator index sets; the poset operations
here read it directly.  The envelope construction projects the ambient
lattice along the unit part.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import Face, FacePoset, cone_from_generators, enumerate_faces
from .errors import InputError, InternalCheckError
from .lattices import (
    IntegerMatrix,
    Sublattice,
    lattice_member,
    rank,
    row_times_matrix,
    smith_normal_form,
)

__all__ = [
    "ToricEnvelopeReport",
    "WeightMonoid",
    "canonical_form",
    "cone_and_poset",
    "idempotents",
    "largest_idempotent",
    "maximal_chain_length",
    "monoid_from_generators",
    "toric_envelope",
]


@dataclass(frozen=True)
class WeightMonoid:
    """Generators of a commutative monoid, written in coordinates on the
    lattice they generate (so the generators always have full rank)."""

    ambient_rank: int
    generators: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ToricEnvelopeReport:
    """The smallest irreducible closed subsemigroup containing all the
    idempotents, described by projecting the lattice along the saturated
    unit sublattice.  Its idempotent poset is the monoid's own with every
    dimension lowered by ``unit_lattice.rank``."""

    envelope_dim: int
    unit_lattice: Sublattice
    projected_generators: tuple[tuple[int, ...], ...]


def monoid_from_generators(raw, labels=None) -> WeightMonoid:
    """Build a WeightMonoid from integer vectors in any ambient space.

    The lattice generated by the vectors is computed exactly; each vector
    is re-expressed in the canonical Hermite basis of that lattice, so the
    result's ambient_rank equals the rank actually spanned.  All-zero
    input is allowed and yields the rank-0 trivial monoid.
    """
    if isinstance(raw, (list, tuple)) and not raw:
        raise InputError("need at least one generator vector")
    # the lattice layer rejects non-array rows, non-int entries and ragged rows
    mat = IntegerMatrix.from_rows(raw)
    lam = Sublattice.span(mat.cols, mat.entries)
    gens = []
    for v in mat.entries:
        coords = lattice_member(lam, v)
        if coords is None:
            raise InternalCheckError("generator escaped its own span")
        gens.append(coords)
    if labels is not None:
        if not isinstance(labels, (list, tuple)):
            raise InputError("labels must be an array")
        labels = tuple(str(x) for x in labels)
        if len(labels) != len(gens):
            raise InputError("one label per generator required")
    return WeightMonoid(lam.rank, tuple(gens), labels)


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


def canonical_form(w: WeightMonoid):
    """Hashable form invariant under generator order, repetition, and the
    re-coordinatization monoid_from_generators applies.

    Repeats are dropped: lists of eigenvalue exponent vectors may collide
    after a power map even when the inputs were distinct, and the generated
    monoid cannot tell.
    """
    return (w.ambient_rank, tuple(sorted(set(w.generators))))


def toric_envelope(w: WeightMonoid, cone=None, poset=None) -> ToricEnvelopeReport:
    """Project along the lineality space of the generator cone.

    ``cone_from_generators`` certifies that the generators on every facet,
    the units, span ``cone.lineality`` = Λ₀ positively and that the facet
    list is complete.  Λ₀ is split off by a Smith normal form change of
    basis with a unit diagonal, so the images of all generators in Λ/Λ₀
    define the envelope monoid.  The units must project to zero and the
    projected generators must have rank dim Λ − k, k = rank(Λ₀), so the
    projection's kernel is Λ₀ ⊗ Q.  Every facet normal vanishes there and
    factors through the projection, so the envelope cone has the same
    facets, meeting the generators as the original ones do: the same
    faces, index set for index set, and the same covers.  Every face
    contains Λ₀ ⊗ Q, so each face's rank drops by exactly k: the
    envelope poset is the original one with every dimension lowered by
    k = ``unit_lattice.rank``, and is not built again.  The envelope
    dimension must equal the poset's chain length.

    The pair ``cone_and_poset(w)`` is reused when passed in (else built).
    """
    if cone is None or poset is None:
        cone, poset = cone_and_poset(w)
    lam0 = cone.lineality
    k = lam0.rank
    s, _, v = smith_normal_form(lam0.basis)
    for i in range(k):
        if s.entries[i][i] != 1:
            raise InternalCheckError("saturated unit lattice is not a direct summand")
    projected = tuple(tuple(row_times_matrix(g, v)[k:]) for g in w.generators)
    dim = w.ambient_rank - k
    on_every_facet = (1 << len(w.generators)) - 1
    for inc in cone.incidences:
        on_every_facet &= inc
    if any(any(g) for i, g in enumerate(projected) if on_every_facet >> i & 1):
        raise InternalCheckError("unit generators do not project to zero")
    # for k = 0 the projection is the identity, whose rank cone_and_poset
    # checked
    if k and rank(IntegerMatrix.from_rows(projected, cols=dim)) != dim:
        raise InternalCheckError("projected generators do not span the quotient")
    if dim != maximal_chain_length(poset):
        raise InternalCheckError("envelope dimension disagrees with chain length")
    return ToricEnvelopeReport(dim, lam0, projected)
