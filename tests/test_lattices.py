import random
from math import gcd
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from idempotoric.errors import InputError
from idempotoric.lattices import (
    IntegerMatrix,
    Sublattice,
    _primitive,
    hermite_normal_form,
    kernel_lattice,
    rank,
    saturate,
    smith_normal_form,
    span_and_kernel,
)

from conftest import lattice_member

M = IntegerMatrix.from_rows

settings.register_profile("exact", deadline=None, max_examples=80)
settings.load_profile("exact")

entry = st.integers(min_value=-9, max_value=9)


def matrices(max_rows=4, max_cols=4):
    def build(shape):
        r, c = shape
        return st.lists(
            st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r
        ).map(lambda rows: M(rows, cols=c))

    return st.tuples(
        st.integers(min_value=1, max_value=max_rows),
        st.integers(min_value=1, max_value=max_cols),
    ).flatmap(build)


def matmul(a, b):
    """The product of two integer matrices, for the unimodularity checks."""
    assert a.cols == b.rows, "matrix shape mismatch in product"
    cols = b.transpose().entries
    return IntegerMatrix(
        tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
            for row in a.entries
        ),
        b.cols,
    )


def determinant(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise InputError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def is_canonical_hermite(h):
    pivots = []
    for row in h.entries:
        nz = [j for j, t in enumerate(row) if t]
        pivots.append(nz[0] if nz else None)
    seen_zero = False
    prev = -1
    for i, p in enumerate(pivots):
        if p is None:
            seen_zero = True
            continue
        if seen_zero:
            return False  # nonzero row below a zero row
        if p <= prev:
            return False  # pivot columns must strictly increase
        prev = p
        if h.entries[i][p] <= 0:
            return False
        for k in range(i):
            if not 0 <= h.entries[k][p] < h.entries[i][p]:
                return False
    return True


# ---------------------------------------------------------------- hermite


def test_hermite_frozen_example():
    m = M([[2, 4], [1, 1]])
    h, u = hermite_normal_form(m)
    assert h.entries == ((1, 1), (0, 2))
    assert matmul(u, m).entries == h.entries
    assert abs(determinant(u)) == 1


def test_hermite_zero_row_retained():
    h, u = hermite_normal_form(M([[0, 0]]))
    assert h.entries == ((0, 0),)
    assert u.entries == ((1,),)


def test_hermite_pivot_sign_normalized():
    h, u = hermite_normal_form(M([[-1]]))
    assert h.entries == ((1,),)
    assert u.entries == ((-1,),)


def test_hermite_degenerate_shapes():
    h, u = hermite_normal_form(IntegerMatrix((), 3))
    assert h.entries == () and h.cols == 3
    assert u.entries == ()
    h, u = hermite_normal_form(M([[], [], []], cols=0))
    assert h.entries == ((), (), ())
    assert u.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@given(matrices())
def test_hermite_properties(m):
    h, u = hermite_normal_form(m)
    assert matmul(u, m).entries == h.entries
    assert abs(determinant(u)) == 1
    assert is_canonical_hermite(h)


@given(
    matrices(),
    st.lists(
        st.tuples(
            st.sampled_from(["swap", "neg", "add"]),
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=-3, max_value=3),
        ),
        max_size=6,
    ),
)
def test_hermite_canonical_under_row_transforms(m, ops):
    # applying any unimodular transform on the left leaves the form unchanged
    rows = [list(r) for r in m.entries]
    n = len(rows)
    for kind, i, j, k in ops:
        i, j = i % n, j % n
        if kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "neg":
            rows[i] = [-t for t in rows[i]]
        elif i != j:
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    h1, _ = hermite_normal_form(m)
    h2, _ = hermite_normal_form(M(rows, cols=m.cols))
    assert h1.entries == h2.entries


def test_hermite_shear_where_the_pivot_divides():
    # 2 divides 4: row 2 loses twice row 1 and row 1 is left as it was
    m = M([[2, 1], [4, 3]])
    h, u = hermite_normal_form(m)
    assert h.entries == ((2, 0), (0, 1))
    assert u.entries == ((3, -1), (-2, 1))
    assert matmul(u, m).entries == h.entries


def test_hermite_gcd_step_where_the_pivot_does_not_divide():
    # 4 does not divide 6: both rows are rewritten, gcd 2 = -4 + 6 on top
    m = M([[4, 1], [6, 1]])
    h, u = hermite_normal_form(m)
    assert h.entries == ((2, 0), (0, 1))
    assert u.entries == ((-1, 1), (3, -2))
    assert matmul(u, m).entries == h.entries


def test_hermite_transform_of_300_digit_entries():
    # 14 rows in 6 columns: eight kernel rows of u, whose entries grow far
    # past the input's; the transform must stay exact and unimodular
    rng = random.Random(5)
    m = M([[rng.randint(-(10**300), 10**300) for _ in range(6)] for _ in range(14)])
    h, u = hermite_normal_form(m)
    assert matmul(u, m).entries == h.entries
    assert abs(determinant(u)) == 1
    assert is_canonical_hermite(h)
    assert h.entries[:6] == tuple(tuple(int(i == j) for j in range(6)) for i in range(6))


@given(matrices(max_rows=6))
def test_span_basis_is_the_nonzero_hermite_rows(m):
    # span runs the same elimination without the transform
    h, _ = hermite_normal_form(m)
    basis = Sublattice.span(m.cols, m.entries).basis
    assert basis.entries == tuple(row for row in h.entries if any(row))
    assert basis.cols == m.cols


# ------------------------------------------------------------------ smith


def test_smith_frozen_example():
    m = M([[2, 0], [0, 3]])
    s, u, v = smith_normal_form(m)
    assert s.entries == ((1, 0), (0, 6))
    assert matmul(matmul(u, m), v).entries == s.entries
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1


def test_smith_zero_matrix():
    s, u, v = smith_normal_form(M([[0, 0], [0, 0]]))
    assert s.entries == ((0, 0), (0, 0))


@given(matrices())
def test_smith_properties(m):
    s, u, v = smith_normal_form(m)
    assert matmul(matmul(u, m), v).entries == s.entries
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = [s.entries[i][i] for i in range(min(s.rows, s.cols))]
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j:
                assert s.entries[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if b:
            assert a != 0 and b % a == 0


# ----------------------------------------------------------------- kernel


def test_kernel_frozen_example():
    k = kernel_lattice(M([[1, 0], [0, 1], [1, 1]]))
    assert k.ambient_rank == 3
    assert k.basis.entries == ((1, 1, -1),)


def test_kernel_of_full_rank_is_trivial():
    k = kernel_lattice(M([[1, 0], [0, 1]]))
    assert k.rank == 0
    assert k.basis.entries == ()


@given(matrices())
def test_kernel_properties(m):
    k = kernel_lattice(m)
    assert k.ambient_rank == m.rows
    for z in k.basis.entries:
        assert all(sum(map(mul, z, col)) == 0 for col in zip(*m.entries))
    assert k.rank == m.rows - rank(m)
    assert saturate(k) == k  # kernels are saturated


@given(matrices(max_rows=6))
def test_one_hermite_form_gives_the_span_and_the_kernel(m):
    span, kernel = span_and_kernel(m)
    # the nonzero rows of the form with its transform are the span's own
    assert span == Sublattice.span(m.cols, m.entries)
    assert span.rank == rank(m)
    h, u = hermite_normal_form(m)
    zero_rows = [z for row, z in zip(h.entries, u.entries) if not any(row)]
    assert kernel == Sublattice.span(m.rows, zero_rows) == kernel_lattice(m)


# --------------------------------------------------------------- saturate


def test_saturate_frozen_example():
    sub = Sublattice.span(2, [(2, 0)])
    assert saturate(sub).basis.entries == ((1, 0),)


def test_saturate_preserves_saturated():
    sub = Sublattice.span(2, [(1, 0), (0, 1)])
    assert saturate(sub) == sub


def test_saturate_zero_lattice():
    sub = Sublattice.span(3, [])
    sat = saturate(sub)
    assert sat.rank == 0 and sat.ambient_rank == 3


@given(matrices())
def test_saturate_properties(m):
    sub = Sublattice.span(m.cols, m.entries)
    sat = saturate(sub)
    assert sat.rank == sub.rank
    for row in sub.basis.entries:
        assert lattice_member(sat, row) is not None
    assert saturate(sat) == sat


# ----------------------------------------------------------------- member


def test_member_examples():
    sub = Sublattice.span(2, [(2, 0)])
    assert lattice_member(sub, (2, 0)) == (1,)
    assert lattice_member(sub, (4, 0)) == (2,)
    assert lattice_member(sub, (1, 0)) is None
    assert lattice_member(sub, (0, 1)) is None
    assert lattice_member(sub, (0, 0)) == (0,)
    # rank-0 lattice: the zero vector is a member with empty (falsy) coefficients
    zero = Sublattice.span(2, [])
    assert lattice_member(zero, (0, 0)) == ()
    assert lattice_member(zero, (1, 0)) is None


@given(matrices())
@example(IntegerMatrix((), 3))
@example(M([[], []], cols=0))
@example(M([[0, 0], [0, 0]]))
def test_rank_matches_hermite(m):
    h, _ = hermite_normal_form(m)
    assert rank(m) == sum(1 for row in h.entries if any(row))
    assert rank(m.transpose()) == rank(m)


def test_rank_examples():
    assert rank(M([[2, 4], [1, 2], [0, 0]])) == 1
    assert rank(M([[0, 3, 1], [0, 6, 5], [7, 0, 0]])) == 3
    assert rank(M([[10**30, 1], [10**30 + 1, 1]])) == 2


def primitive_by_loop(vec):
    """``_primitive`` as one gcd per entry: the reference for the one-call gcd."""
    g = 0
    for t in vec:
        g = gcd(g, t)
    return tuple(t // g for t in vec) if g > 1 else tuple(vec)


@given(st.lists(st.integers(min_value=-(10**40), max_value=10**40), max_size=6))
@example([])
@example([0, 0, 0])
@example([-6, 0, -4])
@example([-3])
def test_primitive_matches_the_gcd_loop(vec):
    got = _primitive(vec)
    assert got == primitive_by_loop(vec)
    assert isinstance(got, tuple)


@given(matrices(), st.lists(st.integers(min_value=-3, max_value=3), max_size=4))
def test_member_roundtrip(m, coeffs):
    sub = Sublattice.span(m.cols, m.entries)
    coeffs = (coeffs + [0] * sub.rank)[: sub.rank]
    v = [0] * m.cols
    for q, row in zip(coeffs, sub.basis.entries):
        v = [a + q * b for a, b in zip(v, row)]
    got = lattice_member(sub, v)
    assert got == tuple(coeffs)


# ------------------------------------------------------------ matrix type


def test_matrix_rejects_non_int_entries():
    with pytest.raises(InputError):
        M([[1.5]])
    with pytest.raises(InputError):
        M([[True]])


def test_matrix_rejects_ragged_rows():
    with pytest.raises(InputError):
        M([[1, 2], [3]])


def test_matrix_rejects_a_non_int_column_count():
    with pytest.raises(InputError, match="column count must be an int >= 0"):
        M([(1,)], cols="a")


def test_span_rejects_a_boolean_ambient_rank():
    with pytest.raises(InputError, match="column count must be an int >= 0"):
        Sublattice.span(True, [(1,)])


def test_determinant_examples():
    assert determinant(M([[2, 1], [1, 1]])) == 1
    assert determinant(M([[0, 1], [1, 0]])) == -1
    assert determinant(M([[2, 0, 0], [0, 3, 0], [0, 0, 4]])) == 24
    assert determinant(IntegerMatrix((), 0)) == 1
    with pytest.raises(InputError):
        determinant(M([[1, 2]]))
