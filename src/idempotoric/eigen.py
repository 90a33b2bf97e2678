"""From a rational spectrum to the idempotents of the matrix's closure.

The powers of a diagonalizable matrix with nonzero rational eigenvalues
land in a commutative algebraic monoid; its character data is the lattice
generated by the eigenvalue exponent vectors.  Signs are discarded because
squaring kills the only torsion ℚ* has (±1), so every question below is
asked about |λᵢ| and answered for λᵢ².  The exponents are taken over the
natural coprime base of the values, not over primes: any base of
multiplicatively independent integers gives the same lattice up to a
change of coordinates, and so the same cone and idempotents, and this one
takes only gcds to find.

Pipeline, each step once per job: eigen_input → factor → character_data →
cone and face poset (monoids layer) and signed circuits (cones layer),
shared by the envelope, the smallest indices, power invariance (which
factors only xⁿ), the primitive relations and the relation checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cones import circuit_criterion, signed_circuits
from .errors import InputError, InternalCheckError
from .lattices import IntegerMatrix, kernel_lattice, lattice_member
from .monoids import (
    WeightMonoid,
    canonical_form,
    cone_and_poset,
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
    """Exponent vectors of the |eigenvalues| over a coprime base.

    ``primes`` holds the natural coprime base (see ``factor``): pairwise
    coprime integers > 1, ascending, which are primes only when the values
    force them to be.  Row i of ``matrix`` holds the exponents of |λᵢ|
    over it (denominator exponents negative), and
    signs[i]·∏ b^matrix[i] == λᵢ.
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
    if not isinstance(values, (list, tuple)):
        raise InputError("eigenvalues must be an array")
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


def _coprime_base(values) -> list[int]:
    """The natural coprime base of integers > 1, ascending.

    Factor refinement: while two elements a, b share g = gcd(a, b) > 1,
    replace them by a/g, g and b/g, dropping 1s (equal elements collapse
    to one).  The product of the elements falls by g at each step, so it
    ends, and its result does not depend on the order of the values.
    """
    base: list[int] = []
    for n in values:
        pending = [n]
        while pending:
            a = pending.pop()
            for i, b in enumerate(base):
                g = gcd(a, b)
                if g > 1:
                    del base[i]
                    pending += [x for x in (a // g, g, b // g) if x > 1]
                    break
            else:
                base.append(a)
    return sorted(base)


def _valuation(n: int, b: int) -> int:
    k = 0
    while n % b == 0:
        n //= b
        k += 1
    return k


def factor(e: EigenInput) -> ExponentTable:
    """Exponent vectors of every |eigenvalue| over the spectrum's natural
    coprime base.

    The base is what factor refinement (Bach, Driscoll and Shallit, 1993;
    Bernstein, 2005) leaves of the numerators and denominators > 1:
    pairwise coprime integers of which each value is a product of powers.
    Its elements are primes only when the values force them to be: [6]
    keeps 6, [6, 2] gives 2 and 3, and 12/35 gives 12 and 35.  It takes
    gcds and exact division alone, so no value is factored into primes.
    The base is unique, whatever the order of the values, and the base of
    the n-th powers is the n-th powers of the base, with the same matrix.
    The table is checked by ``reconstruct``.
    """
    for q in e.eigenvalues:
        if q == 0:
            raise InputError("zero eigenvalue: pass only the nonzero spectrum")
    parts = [(abs(q.numerator), q.denominator) for q in e.eigenvalues]
    cols = tuple(_coprime_base(x for pair in parts for x in pair if x > 1))
    table = ExponentTable(
        cols,
        tuple(
            tuple(_valuation(num, b) - _valuation(den, b) for b in cols)
            for num, den in parts
        ),
        tuple(1 if q > 0 else -1 for q in e.eigenvalues),
    )
    if reconstruct(table) != e.eigenvalues:
        raise InternalCheckError("factorization does not reproduce the eigenvalues")
    return table


def reconstruct(t: ExponentTable) -> tuple[Fraction, ...]:
    """Invert factor: the exact eigenvalues encoded by an ExponentTable."""
    out = []
    for row, sign in zip(t.matrix, t.signs):
        num = den = 1
        for b, k in zip(t.primes, row):
            if k > 0:
                num *= b**k
            elif k < 0:
                den *= b**-k
        out.append(Fraction(sign * num, den))
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


def _relation_holds(values, rel: PrimitiveRelation) -> bool:
    """Whether Π vᵢ^a over ``rel.lhs`` equals Π vⱼ^b over ``rel.rhs``, for
    values given as (numerator, positive denominator) pairs.  Exact, by
    cross-multiplying: Π nᵢ^a · Π dⱼ^b = Π nⱼ^b · Π dᵢ^a."""
    left = right = 1
    for i, a in rel.lhs:
        num, den = values[i - 1]
        left *= num**a
        right *= den**a
    for j, b in rel.rhs:
        num, den = values[j - 1]
        right *= num**b
        left *= den**b
    return left == right


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
    the squared eigenvalues, in integers (``_relation_holds``).
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
    squares = [(q.numerator**2, q.denominator**2) for q in reconstruct(t)]
    for rel in rels:
        if not _relation_holds(squares, rel):
            raise InternalCheckError("kernel vector failed the numeric relation check")
    def degree(r: PrimitiveRelation) -> int:
        return sum(a for _, a in r.lhs) + sum(b for _, b in r.rhs)

    rels.sort(key=lambda r: (degree(r), r.lhs, r.rhs))
    return rels


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
    w: WeightMonoid, cone=None, poset=None
) -> tuple[int, ...]:
    """1-based indices of the generators of ``w`` that lie in the lineality
    space of their cone: for an eigenvalue list, the eigenvalues whose
    exponent row is a unit direction, exactly the invertible coordinates
    of the closure.

    Computed by lattice membership in the lineality space and checked
    against the minimum of the idempotent poset, the bottom face, whose
    index set is 0-based.  The ``cone_and_poset`` pair of ``w`` is reused
    when passed in.
    """
    if cone is None or poset is None:
        cone, poset = cone_and_poset(w)
    inside = tuple(
        i + 1
        for i, g in enumerate(w.generators)
        if lattice_member(cone.lineality, g) is not None
    )
    if inside != tuple(i + 1 for i in poset.faces[poset.bottom].index_set):
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
