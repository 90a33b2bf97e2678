"""From a rational spectrum to the idempotents of the matrix's closure.

The powers of a diagonalizable matrix with nonzero rational eigenvalues
land in a commutative algebraic monoid; its character data is the lattice
generated by the eigenvalue exponent vectors.  Signs are discarded because
squaring kills the only torsion ℚ* has (±1), so every question below is
asked about |λᵢ| and answered for λᵢ².

Pipeline, each step once per job: eigen_input → factor → character_data →
cone and face poset (monoids layer) and signed circuits (cones layer),
shared by the envelope, the smallest indices, power invariance (which
factors only xⁿ), the primitive relations and the relation checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cones import circuit_criterion, signed_circuits
from .errors import InputError, InternalCheckError
from .lattices import IntegerMatrix, kernel_lattice, lattice_member
from .monoids import (
    IdempotentPoset,
    WeightMonoid,
    canonical_form,
    cone_and_poset,
    idempotents,
    monoid_from_generators,
)

__all__ = [
    "EigenInput",
    "ExponentTable",
    "PrimitiveRelation",
    "character_data",
    "check_relation_criterion",
    "eigen_input",
    "factor",
    "idempotent_set",
    "power_invariance",
    "primitive_relations",
    "reconstruct",
    "relation_masks",
    "smallest_idempotent_indices",
]


@dataclass(frozen=True)
class EigenInput:
    """Distinct nonzero rational eigenvalues, in first-seen order, with the
    multiplicity each value had in the raw list."""

    eigenvalues: tuple[Fraction, ...]
    multiplicities: tuple[int, ...]


@dataclass(frozen=True)
class ExponentTable:
    """Prime exponent vectors of the |eigenvalues|.

    Row i of ``matrix`` holds the exponents of |λᵢ| over ``primes``
    (denominator primes negative), and signs[i]·∏ p^matrix[i] == λᵢ.
    """

    primes: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]


@dataclass(frozen=True)
class PrimitiveRelation:
    """A multiplicative relation ∏ tᵢ^aᵢ = ∏ tⱼ^bⱼ with disjoint supports.

    Sides are tuples of (1-based generator index, positive exponent); the
    right side may be empty, meaning the left product is 1.
    """

    lhs: tuple[tuple[int, int], ...]
    rhs: tuple[tuple[int, int], ...]


def eigen_input(values) -> EigenInput:
    """Validate and deduplicate a list of exact rational eigenvalues.

    Zero is rejected: the operator acts nilpotently on the generalized
    kernel, which contributes nothing to the closure's idempotents beyond
    the projection itself — pass only the nonzero spectrum.  Floats are
    rejected outright; exactness is the point.
    """
    vals: list[Fraction] = []
    mult: list[int] = []
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise InputError(f"eigenvalues must be exact rationals, got {x!r}")
        q = Fraction(x)
        if q == 0:
            raise InputError(
                "zero eigenvalue: the nilpotent part never contributes; "
                "pass only the nonzero spectrum"
            )
        if q in vals:
            mult[vals.index(q)] += 1
        else:
            vals.append(q)
            mult.append(1)
    if not vals:
        raise InputError("need at least one eigenvalue")
    return EigenInput(tuple(vals), tuple(mult))


def _trial_factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def factor(e: EigenInput) -> ExponentTable:
    """Exact prime factorization of every |eigenvalue|."""
    exps: list[dict[int, int]] = []
    primes: set[int] = set()
    for q in e.eigenvalues:
        if q == 0:
            raise InputError("zero eigenvalue: pass only the nonzero spectrum")
        row = _trial_factor(abs(q.numerator))
        for p, k in _trial_factor(q.denominator).items():
            row[p] = row.get(p, 0) - k
        row = {p: k for p, k in row.items() if k}
        primes.update(row)
        exps.append(row)
    cols = tuple(sorted(primes))
    table = ExponentTable(
        cols,
        tuple(tuple(row.get(p, 0) for p in cols) for row in exps),
        tuple(1 if q > 0 else -1 for q in e.eigenvalues),
    )
    if reconstruct(table) != e.eigenvalues:
        raise InternalCheckError("factorization does not reproduce the eigenvalues")
    return table


def reconstruct(t: ExponentTable) -> tuple[Fraction, ...]:
    """Invert factor: the exact eigenvalues encoded by an ExponentTable."""
    out = []
    for row, sign in zip(t.matrix, t.signs):
        q = Fraction(sign)
        for p, k in zip(t.primes, row):
            q *= Fraction(p) ** k
        out.append(q)
    return tuple(out)


def character_data(t: ExponentTable) -> WeightMonoid:
    """The weight monoid generated by the exponent rows, labeled t1..tr.

    Signs are dropped: the sign subgroup is torsion, and raising everything
    to an even power removes it without changing the closure's idempotents.
    """
    labels = tuple(f"t{i + 1}" for i in range(len(t.matrix)))
    return monoid_from_generators(t.matrix, labels=labels)


def _relation_from_vector(z) -> PrimitiveRelation:
    first = next(x for x in z if x)
    if first < 0:
        z = tuple(-x for x in z)
    lhs = tuple((i + 1, x) for i, x in enumerate(z) if x > 0)
    rhs = tuple((i + 1, -x) for i, x in enumerate(z) if x < 0)
    return PrimitiveRelation(lhs, rhs)


def primitive_relations(t: ExponentTable, circuits=None):
    """Multiplicative relations among the |eigenvalues|, found in the
    kernel of the exponent matrix.

    Emits one relation per Hermite basis vector of the kernel, which
    generate all relations over Z, plus one per signed circuit of the rows
    (``cones.signed_circuits``, computed unless passed in; rows with the
    same kernel, such as the weight monoid's generators, give the same
    ones), which make ``check_relation_criterion`` exact.  Relations are
    oriented so the first involved generator sits on the left,
    deduplicated, sorted by total degree and re-verified numerically on
    the squared eigenvalues.
    """
    if circuits is None:
        circuits = signed_circuits(len(t.primes), t.matrix)
    ker = kernel_lattice(IntegerMatrix.from_rows(t.matrix, cols=len(t.primes)))
    seen = set()
    rels = []
    for z in [*ker.basis.entries, *circuits]:
        rel = _relation_from_vector(z)
        if rel in seen:
            continue
        seen.add(rel)
        rels.append(rel)
    squares = [q * q for q in reconstruct(t)]
    for rel in rels:
        left = right = Fraction(1)
        for i, a in rel.lhs:
            left *= squares[i - 1] ** a
        for j, b in rel.rhs:
            right *= squares[j - 1] ** b
        if left != right:
            raise InternalCheckError("kernel vector failed the numeric relation check")
    def degree(r: PrimitiveRelation) -> int:
        return sum(a for _, a in r.lhs) + sum(b for _, b in r.rhs)

    rels.sort(key=lambda r: (degree(r), r.lhs, r.rhs))
    return rels


def idempotent_set(e: EigenInput) -> IdempotentPoset:
    """Idempotents of the closure of the matrix powers.

    Each index set I names the diagonal idempotent with 1 in the
    eigenspaces listed and 0 elsewhere.
    """
    return idempotents(character_data(factor(e)))


def relation_masks(rels) -> list[tuple[int, int]]:
    """The supports of each relation's sides as bitmasks (lhs, rhs), bit
    i - 1 standing for generator i, as in ``cones.sign_masks``."""

    def side(terms):
        return sum(1 << (i - 1) for i, _ in terms)

    return [(side(rel.lhs), side(rel.rhs)) for rel in rels]


def check_relation_criterion(index_set, rels) -> bool:
    """Whether I can name an idempotent as far as the relations tell:
    sending the listed generators to 1 and the rest to 0 must respect
    every relation, i.e. for each relation the left support lies in I iff
    the right one does.

    An empty right side (product = 1) therefore forces the left support
    into I.  The condition is necessary for any relations; it is exact,
    accepting precisely the faces, when the relations include the signed
    circuits of the generators (``cones.signed_circuits``: a relation's
    lhs and rhs are a circuit's positive and negative parts), as those of
    ``primitive_relations`` do.

    Each index must be an int >= 1.  Indices above the number of
    generators r are the caller's to rule out: the relations do not
    carry r.
    """
    chosen = 0
    for i in index_set:
        if isinstance(i, bool) or not isinstance(i, int) or i < 1:
            raise InputError(f"index {i!r} must be an int >= 1")
        chosen |= 1 << (i - 1)
    return circuit_criterion(chosen, relation_masks(rels))


def smallest_idempotent_indices(
    e: EigenInput, w=None, cone=None, poset=None
) -> tuple[int, ...]:
    """1-based indices of eigenvalues whose exponent row is a unit
    direction — exactly the invertible coordinates of the closure.

    Computed by lattice membership in the lineality space and checked
    against the minimum of the idempotent poset.  The weight monoid ``w``
    of ``e`` and its ``cone_and_poset`` pair are reused when passed in.
    """
    if w is None:
        w = character_data(factor(e))
    if cone is None or poset is None:
        cone, poset = cone_and_poset(w)
    inside = tuple(
        i + 1
        for i, g in enumerate(w.generators)
        if lattice_member(cone.lineality, g) is not None
    )
    if inside != poset.elements[poset.smallest].index_set:
        raise InternalCheckError("lineality membership disagrees with the poset minimum")
    return inside


def power_invariance(e: EigenInput, n: int, w=None) -> bool:
    """Whether the closure of x and of xⁿ present the same weight monoid.

    True for every n ≥ 1: raising to the n-th power scales the exponent
    lattice and its generators together, so the canonical forms coincide.
    Exposed as a check rather than a constant because it exercises the
    whole re-coordinatization path; ``w`` may carry the weight monoid
    ``character_data(factor(e))``, and only xⁿ is then factored.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError("power must be an int >= 1")
    if w is None:
        w = character_data(factor(e))
    powered = eigen_input([q**n for q in e.eigenvalues])
    return canonical_form(w) == canonical_form(character_data(factor(powered)))
