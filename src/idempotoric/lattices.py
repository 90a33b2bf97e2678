"""Exact integer matrix and lattice arithmetic.

Row conventions are used throughout: vectors are rows, a sublattice is the
row span of its basis matrix, and transforms multiply on the left, so
``u @ m`` applies ``u`` to the rows of ``m``.  Entries are plain Python
ints and every algorithm is exact; nothing here ever rounds.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import InputError, InternalCheckError

__all__ = [
    "IntegerMatrix",
    "Sublattice",
    "hermite_normal_form",
    "kernel_lattice",
    "rank",
    "saturate",
    "smith_normal_form",
    "span_and_kernel",
]


class _IntegerMatrix(NamedTuple):
    entries: tuple[tuple[int, ...], ...]
    cols: int


class IntegerMatrix(_IntegerMatrix):
    """Immutable row-major integer matrix.

    ``cols`` is stored explicitly so that matrices with zero rows keep a
    well-defined width (a 0 x n kernel basis is still n wide).  Every
    construction checks the width, ``_make`` and ``_replace`` too.
    """

    __slots__ = ()

    def __new__(cls, entries, cols):
        if isinstance(cols, bool) or not isinstance(cols, int) or cols < 0:
            raise InputError(f"column count must be an int >= 0, got {cols!r}")
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise InputError(
                    f"matrix row {i} has length {len(row)}, expected {cols}"
                )
        return super().__new__(cls, entries, cols)

    @classmethod
    def _make(cls, iterable) -> "IntegerMatrix":
        return cls(*iterable)

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntegerMatrix":
        """The one validator of integer rows: an array of arrays of ints
        (not bool), each ``cols`` long (default: the first row's length);
        each fault is an InputError naming the row."""
        if not isinstance(rows, (list, tuple)):
            raise InputError("matrix rows must be an array of arrays")
        for i, row in enumerate(rows):
            if not isinstance(row, (list, tuple)):
                raise InputError(f"matrix row {i} must be an array")
            if not set(map(type, row)) <= {int}:
                # name the first entry that is not an int (subclasses pass)
                for x in row:
                    if isinstance(x, bool) or not isinstance(x, int):
                        raise InputError(
                            f"matrix entries must be plain ints, got {x!r} in row {i}"
                        )
        data = tuple(map(tuple, rows))
        if cols is None:
            if not data:
                raise InputError("column count required for a matrix with no rows")
            cols = len(data[0])
        return cls(data, cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def transpose(self) -> "IntegerMatrix":
        if not self.entries:
            return IntegerMatrix(tuple(() for _ in range(self.cols)), 0)
        return IntegerMatrix(tuple(zip(*self.entries)), len(self.entries))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _combine(r1, r2, a, b, c, d):
    # rows (r1, r2) <- (a*r1 + b*r2, c*r1 + d*r2); caller keeps a*d - b*c = +-1
    new1 = [a * x + b * y for x, y in zip(r1, r2)]
    new2 = [c * x + d * y for x, y in zip(r1, r2)]
    return new1, new2


def _freeze(rows, cols) -> IntegerMatrix:
    return IntegerMatrix(tuple(tuple(row) for row in rows), cols)


def _echelon(rows, cols: int):
    """Bring ``rows``, lists of ints, to row Hermite form on their first
    ``cols`` entries, in place, and return them.

    Entries past ``cols`` ride along: every row operation acts on the whole
    row, so rows [mᵢ | eᵢ] of ``m`` beside the identity end as [hᵢ | uᵢ]
    with ``u @ m == h``, and rows of ``m`` alone cost no transform.  The
    pivot of a column is its first nonzero entry at or below the current
    row (Cohen, *A Course in Computational Algebraic Number Theory*, 1993,
    §2.4).  An entry below it that the pivot divides is cleared by one
    shear, ``rᵢ -= q·r_pivot``, which leaves the pivot row alone; any other
    is folded in by the extended gcd, which rewrites both rows and leaves
    the gcd as the pivot.  The pivot is then made positive and the entries
    above it reduced into ``[0, pivot)``.
    """
    n = len(rows)
    row = 0
    for col in range(cols):
        piv = next((i for i in range(row, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        top = rows[row]
        for i in range(row + 1, n):
            b = rows[i][col]
            if not b:
                continue
            a = top[col]
            q, r = divmod(b, a)
            if r:
                g, x, y = _xgcd(a, b)
                top, rows[i] = _combine(top, rows[i], x, y, -(b // g), a // g)
            else:
                rows[i] = [s - q * t for s, t in zip(rows[i], top)]
        if top[col] < 0:
            top = [-t for t in top]
        rows[row] = top
        piv_val = top[col]
        for i in range(row):
            q = rows[i][col] // piv_val
            if q:
                rows[i] = [s - q * t for s, t in zip(rows[i], top)]
        row += 1
        if row == n:
            break
    return rows


def hermite_normal_form(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Row Hermite normal form.

    Returns ``(h, u)`` with ``u @ m == h`` and ``u`` unimodular.  ``h`` is
    the canonical echelon form: pivots positive, entries above each pivot
    reduced into ``[0, pivot)``, zero rows at the bottom.  The form depends
    only on the row span (plus the row count), so two generating sets of
    the same lattice produce the same nonzero rows.  ``u`` is not unique;
    it is what the elimination of ``_echelon`` on ``m`` beside the identity
    builds: a shear where the pivot divides the entry below it, an
    extended gcd step where it does not.
    """
    n, cols = m.rows, m.cols
    rows = _echelon(
        [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m.entries)],
        cols,
    )
    return _freeze((r[:cols] for r in rows), cols), _freeze((r[cols:] for r in rows), n)


def smith_normal_form(
    m: IntegerMatrix,
) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Smith normal form.

    Returns ``(s, u, v)`` with ``u @ m @ v == s``, both transforms
    unimodular, ``s`` diagonal with nonnegative entries and each diagonal
    entry dividing the next.
    """
    nr, nc = m.rows, m.cols
    s = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def col_combine(j1, j2, a, b, c, d):
        for mat in (s, v):
            for row in mat:
                row[j1], row[j2] = a * row[j1] + b * row[j2], c * row[j1] + d * row[j2]

    for k in range(min(nr, nc)):
        piv = None
        for i in range(k, nr):
            for j in range(k, nc):
                if s[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi != k:
            s[k], s[pi] = s[pi], s[k]
            u[k], u[pi] = u[pi], u[k]
        if pj != k:
            col_combine(k, pj, 0, 1, 1, 0)
        while True:
            # a plain shear when the pivot divides keeps the pivot row and
            # column clean; the full gcd combine strictly shrinks the pivot,
            # which is what bounds this loop
            for i in range(nr):
                if i != k and s[i][k]:
                    if s[i][k] % s[k][k] == 0:
                        q = s[i][k] // s[k][k]
                        s[i] = [a - q * b for a, b in zip(s[i], s[k])]
                        u[i] = [a - q * b for a, b in zip(u[i], u[k])]
                    else:
                        g, x, y = _xgcd(s[k][k], s[i][k])
                        p, q = s[k][k] // g, s[i][k] // g
                        s[k], s[i] = _combine(s[k], s[i], x, y, -q, p)
                        u[k], u[i] = _combine(u[k], u[i], x, y, -q, p)
            row_dirty = False
            for j in range(nc):
                if j != k and s[k][j]:
                    if s[k][j] % s[k][k] == 0:
                        col_combine(k, j, 1, 0, -(s[k][j] // s[k][k]), 1)
                    else:
                        g, x, y = _xgcd(s[k][k], s[k][j])
                        p, q = s[k][k] // g, s[k][j] // g
                        col_combine(k, j, x, y, -q, p)
                        row_dirty = True
            if row_dirty:
                continue  # column k may have been re-dirtied
            if any(s[i][k] for i in range(nr) if i != k):
                continue
            d = s[k][k]
            bad = None
            for i in range(k + 1, nr):
                for j in range(k + 1, nc):
                    if s[i][j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            # fold the offending row in and shrink the pivot to a gcd
            s[k] = [a + b for a, b in zip(s[k], s[bad])]
            u[k] = [a + b for a, b in zip(u[k], u[bad])]
    for k in range(min(nr, nc)):
        if s[k][k] < 0:
            s[k] = [-t for t in s[k]]
            u[k] = [-t for t in u[k]]
    diag = [s[k][k] for k in range(min(nr, nc))]
    for i in range(nr):
        for j in range(nc):
            if i != j and s[i][j]:
                raise InternalCheckError("smith form is not diagonal")
    for a, b in zip(diag, diag[1:]):
        if b and (a == 0 or b % a):
            raise InternalCheckError("invariant factor chain broken")
    return _freeze(s, nc), _freeze(u, nr), _freeze(v, nc)


def _primitive(vec) -> tuple[int, ...]:
    g = gcd(*vec)
    if g > 1:
        return tuple(t // g for t in vec)
    return tuple(vec)


def _extend_echelon(rows, vectors):
    """Extend an echelon basis by ``vectors``, fraction-free.

    ``rows`` is a list of (pivot column, primitive row) pairs in which each
    row vanishes on the pivots of the rows before it, so one pass over the
    rows clears every pivot of a vector.  A nonzero remainder is
    independent of the rows; it joins them, made primitive, pivoting on its
    first nonzero entry.  Returns a new list, leaving ``rows`` alone, whose
    length is the rank of the rows and the vectors together.  This is the
    package's one exact rank routine: ``rank`` calls it, and so do the cone
    layer's face dimensions and circuit certificates.
    """
    out = list(rows)
    for v in vectors:
        for p, row in out:
            c = v[p]
            if c:
                a = row[p]
                v = [a * x - c * y for x, y in zip(v, row)]
        for pivot, x in enumerate(v):
            if x:
                out.append((pivot, _primitive(v)))
                break
    return out


def rank(m: IntegerMatrix) -> int:
    """Exact rank: the length of an echelon basis of the rows, built by
    ``_extend_echelon``; no unimodular transform is built."""
    return len(_extend_echelon([], m.entries))


class Sublattice(NamedTuple):
    """A sublattice of Z^ambient_rank, stored as the row span of ``basis``.

    The basis is kept in canonical Hermite form with zero rows dropped, so
    equality of ``Sublattice`` values is equality of lattices.
    """

    ambient_rank: int
    basis: IntegerMatrix

    @classmethod
    def span(cls, ambient_rank: int, rows) -> "Sublattice":
        mat = IntegerMatrix.from_rows(rows, cols=ambient_rank)
        # the Hermite form alone: no transform is built to be thrown away
        h = _echelon(list(map(list, mat.entries)), ambient_rank)
        nz = tuple(tuple(row) for row in h if any(row))
        return cls(ambient_rank, IntegerMatrix(nz, ambient_rank))

    @property
    def rank(self) -> int:
        return self.basis.rows


def span_and_kernel(m: IntegerMatrix) -> tuple[Sublattice, Sublattice]:
    """The row span of ``m`` and its kernel, from one ``hermite_normal_form``.

    ``_echelon`` chooses its pivots on the first ``m.cols`` entries alone,
    so the form ``h`` is the one ``Sublattice.span`` builds of the rows, and
    its nonzero rows are the span's canonical basis.  The transform rows
    beside the zero rows of ``h`` span ``{z in Z^m.rows : z @ m == 0}``,
    which is saturated and is brought to its own Hermite basis.
    """
    h, u = hermite_normal_form(m)
    k = sum(map(any, h.entries))  # the zero rows are at the bottom
    span = Sublattice(m.cols, IntegerMatrix(h.entries[:k], m.cols))
    return span, Sublattice.span(m.rows, u.entries[k:])


def kernel_lattice(m: IntegerMatrix) -> Sublattice:
    """Basis of ``{z in Z^m.rows : z @ m == 0}``, from ``span_and_kernel``.

    The kernel of an integer matrix is saturated, so the result needs no
    further saturation.
    """
    return span_and_kernel(m)[1]


def saturate(sub: Sublattice) -> Sublattice:
    """Smallest saturated sublattice containing ``sub``.

    Computed as the integer points of the rational span, via a double
    orthogonal complement: two kernel computations.  The zero lattice is
    its own saturation.
    """
    if not sub.rank:
        return sub
    right = kernel_lattice(sub.basis.transpose())
    sat = kernel_lattice(right.basis.transpose())
    if sat.rank != sub.rank:
        raise InternalCheckError("saturation changed the rank")
    if None in _coordinates(sat.basis.entries, sub.basis.entries):
        raise InternalCheckError("saturation lost a basis vector")
    return sat


def _coordinates(basis, vectors):
    """Yield each int vector's coefficients over the echelon ``basis`` rows,
    or None if it is outside their span; each pivot is found once."""
    pivots = [(row.index(next(filter(None, row))), row) for row in basis]
    for vec in vectors:
        coeffs = []
        for p, row in pivots:
            q, rem = divmod(vec[p], row[p])
            if rem:
                break
            if q:
                vec = [a - q * b for a, b in zip(vec, row)]
            coeffs.append(q)
        yield tuple(coeffs) if len(coeffs) == len(pivots) and not any(vec) else None
