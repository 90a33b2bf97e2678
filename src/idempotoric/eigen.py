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

Pipeline, each step once per job: eigen_input → factor →
character_data, whose one Hermite form of the exponent rows
(``span_and_kernel``) gives the weight monoid's lattice and the rows'
kernel → cone and face poset (monoids layer) → envelope, whose zero
projections are the smallest indices; the primitive relations, one per
Hermite row of the kernel; the kernel's signed circuits (cones layer),
which only the relation checks read; power invariance factors only xⁿ.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import InputError, InternalCheckError
from .lattices import IntegerMatrix, Sublattice, span_and_kernel
from .monoids import ToricEnvelopeReport, WeightMonoid, monoid_from_generators

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
    "smallest_idempotent_indices",
]


class EigenInput(NamedTuple):
    """Distinct nonzero rational eigenvalues, in first-seen order, with the
    multiplicity each value had in the raw list."""

    eigenvalues: tuple[Fraction, ...]
    multiplicities: tuple[int, ...]


class ExponentTable(NamedTuple):
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


class PrimitiveRelation(NamedTuple):
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
    mult: dict[Fraction, int] = {}  # in first-seen order
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise InputError(f"eigenvalues must be exact rationals, got {x!r}")
        q = Fraction(x)
        if q == 0:
            raise InputError(
                "zero eigenvalue: the nilpotent part never contributes; "
                "pass only the nonzero spectrum"
            )
        mult[q] = mult.get(q, 0) + 1
    if not mult:
        raise InputError("need at least one eigenvalue")
    return EigenInput(tuple(mult), tuple(mult.values()))


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


def character_data(t: ExponentTable) -> tuple[WeightMonoid, Sublattice]:
    """The weight monoid generated by the exponent rows, and the rows'
    kernel, both from one Hermite form of the rows
    (``span_and_kernel``).

    Its nonzero rows, the rows' span, are the weight monoid's lattice, and
    the transform rows beside its zero rows span the kernel, which the
    weight monoid's generators share, so it serves their signed circuits
    and the relations.  The rows are validated once, for both.
    Signs are dropped: the sign subgroup is torsion, and raising everything
    to an even power removes it without changing the closure's idempotents.
    """
    rows = IntegerMatrix.from_rows(t.matrix, cols=len(t.primes))
    lattice, kernel = span_and_kernel(rows)
    return monoid_from_generators(rows, lattice), kernel


def _relation_from_vector(z) -> tuple[int, tuple, tuple]:
    """The total degree and the two sides of a kernel vector's relation,
    in one pass: the entries of the sign of its first nonzero entry on the
    left, the others on the right, so ``z`` and ``-z`` give one relation."""
    plus, minus = [], []
    for i, x in enumerate(z, 1):
        if x > 0:
            plus.append((i, x))
        elif x:
            minus.append((i, -x))
    if minus and (not plus or minus[0] < plus[0]):
        plus, minus = minus, plus
    return sum(map(abs, z)), tuple(plus), tuple(minus)


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


def primitive_relations(t: ExponentTable, kernel):
    """Multiplicative relations among the |eigenvalues|, found in the
    kernel of the exponent matrix.

    Emits one relation per Hermite basis vector of ``kernel``, the rows'
    kernel from ``character_data``: r - rank of them, which generate all
    relations over Z.  Each vector gives its relation and total degree in
    one pass (``_relation_from_vector``), with the first involved
    generator on the left; the Hermite rows' pivots are positive, so that
    is the positive side and no vector is negated.  The relations are
    sorted by total degree and re-verified numerically on the squared
    eigenvalues, in integers (``_relation_holds``).

    The rows' signed circuits, which decide the faces, are not listed:
    the relation filter reads them from the job.
    """
    found = sorted(map(_relation_from_vector, kernel.basis.entries))
    rels = [PrimitiveRelation(lhs, rhs) for _, lhs, rhs in found]
    squares = [(q.numerator**2, q.denominator**2) for q in reconstruct(t)]
    for rel in rels:
        if not _relation_holds(squares, rel):
            raise InternalCheckError("kernel vector failed the numeric relation check")
    return rels


def check_relation_criterion(index_set, rels) -> bool:
    """Whether I can name an idempotent as far as the relations tell:
    sending the listed generators to 1 and the rest to 0 must respect
    every relation, i.e. for each relation the left support lies in I iff
    the right one does.

    An empty right side (product = 1) therefore forces the left support
    into I.  The condition is necessary for any relations; it is exact,
    accepting precisely the faces, when the relations include the signed
    circuits of the generators (``cones.signed_circuits``: a relation's
    lhs and rhs are a circuit's positive and negative parts).  The Hermite
    basis that ``primitive_relations`` lists is not enough for that.

    The index set must be an array, each index an int >= 1.  Indices
    above the number of generators r are the caller's to rule out: the
    relations do not carry r.
    """
    if not isinstance(index_set, (list, tuple)):
        raise InputError(f"an index set must be an array, got {index_set!r}")
    for i in index_set:
        if isinstance(i, bool) or not isinstance(i, int) or i < 1:
            raise InputError(f"index {i!r} must be an int >= 1")
    chosen = set(index_set)
    return all(
        all(i in chosen for i, _ in lhs) == all(j in chosen for j, _ in rhs)
        for lhs, rhs in rels
    )


def smallest_idempotent_indices(env: ToricEnvelopeReport, poset) -> tuple[int, ...]:
    """1-based indices of the generators that lie in the lineality space
    Λ₀ of their cone: for an eigenvalue list, the eigenvalues whose
    exponent row is a unit direction, exactly the invertible coordinates
    of the closure.

    They are the zero rows of ``env.projected_generators``, ``env`` the
    ``toric_envelope`` of a ``cone_and_poset`` pair.  The envelope checks
    the Smith form's unit diagonal, so the projection's kernel on Zⁿ is
    exactly the saturated Λ₀: a zero row means membership in Λ₀.  The
    envelope checks that the units, the minimum of the idempotent poset,
    project to zero; this function that the zero rows are exactly the
    minimum's (0-based) index set.
    """
    inside = tuple(i + 1 for i, g in enumerate(env.projected_generators) if not any(g))
    if inside != tuple(i + 1 for i in poset.faces[poset.bottom].index_set):
        raise InternalCheckError("lineality membership disagrees with the poset minimum")
    return inside


def power_invariance(e: EigenInput, n: int, t=None) -> bool:
    """Whether the closure of x and of xⁿ present the same weight monoid.

    True for every n ≥ 1: ``factor`` takes the base of the n-th powers to
    the n-th powers of the base, with the same exponent rows, and the
    check asks exactly that of the two tables.  ``t`` may carry
    ``factor(e)``; only xⁿ is then factored, and no weight monoid is built.

    The table check implies that the two weight monoids have the same
    rank and the same set of generators: ``character_data`` gives
    ``monoid_from_generators`` of the exponent rows, whose lattice is the
    span of the rows and whose generators are each row's coordinates on
    that lattice's Hermite basis, so the generator set depends only on the
    set of rows.  The rows are compared as sets because ``eigen_input``
    merges values that the power makes equal: q and -q give one row of
    xⁿ for two of x when n is even.  It is stricter than comparing the
    generator sets: a table of xⁿ over the base itself with every row
    doubled presents the same monoid up to coordinates, and fails.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError("power must be an int >= 1")
    if t is None:
        t = factor(e)
    p = factor(eigen_input([q**n for q in e.eigenvalues]))
    return p.primes == tuple(b**n for b in t.primes) and set(p.matrix) == set(t.matrix)
