"""The matrix operations and the array kernels: each kernel against
plain field calls, entry checks, and row_rank against an enumeration
oracle.

Wrapping a field in experiments.CountingField sends it to the field
kernel, where each operation goes through the field's own checked
arithmetic; the kernel's products, adds and subtractions and row_rank
over the wrapped field are the reference the prime kernel must match.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nxmds.errors import FieldMismatch, ShapeMismatch
from nxmds.experiments import CountingField
from nxmds.field import make_field
from nxmds.matrix import kernel, row_rank

F7 = make_field(7)
GF8 = make_field(2, 3)
P_BIG = 3_000_000_019  # len(b) * (p-1)^2 passes int64: the kernel's Python-int products
BULK_FIELDS = [make_field(2), F7, make_field(257), make_field(P_BIG)]
EDGE_P, PAST_EDGE_P = oracles.edge_primes(6)
# every kind of kernel: prime within int64 (up to the largest p whose
# products of 6 terms fit), prime past int64, extension, instrumented
KERNEL_FIELDS = {"GF2": make_field(2), "GF4": make_field(2, 2), "GF8": GF8,
                 "GF9": make_field(3, 2), "GF257": make_field(257),
                 "edge": make_field(EDGE_P), "past-edge": make_field(PAST_EDGE_P),
                 "p3000000019": make_field(P_BIG), "counting-GF7": CountingField(F7)}


def matrices(q, rows, cols):
    return st.lists(
        st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    )


@st.composite
def field_and_pair(draw, same_shape):
    """A bulk field and two matrices: equal shapes, or conformable for a
    product, up to 8 x 64."""
    f = draw(st.sampled_from(BULK_FIELDS))
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 64))
    s = c if same_shape else draw(st.integers(1, 8))
    a = draw(matrices(f.q, r, s if same_shape else c))
    b = draw(matrices(f.q, r if same_shape else c, s))
    return f, a, b


def checked(op, f, a, b):
    """The kernel operation `op` of f on the matrices a and b, each
    checked by the kernel's asarray first; the answer as lists."""
    kern = kernel(f)
    return getattr(kern, op)(kern.asarray(a), kern.asarray(b)).tolist()


@settings(max_examples=200, deadline=None)
@given(field_and_pair(same_shape=False))
def test_mat_mul_bulk_matches_scalar(case):
    f, a, b = case
    assert checked("matmul", f, a, b) == checked("matmul", CountingField(f), a, b)


@settings(max_examples=200, deadline=None)
@given(field_and_pair(same_shape=True))
def test_add_sub_rank_bulk_match_scalar(case):
    f, a, b = case
    ref = CountingField(f)
    assert checked("add", f, a, b) == checked("add", ref, a, b)
    assert checked("sub", f, a, b) == checked("sub", ref, a, b)
    assert row_rank(f, a) == row_rank(ref, a)


def test_reference_path_counts_field_ops():
    ref = CountingField(F7)
    checked("add", ref, [[1, 2]], [[3, 4]])
    assert ref.count == 2
    row_rank(ref, [[1, 2], [2, 4]])
    assert ref.count > 2


def test_mat_mul_exact_past_int64():
    top = P_BIG - 1
    a = [[top] * 3]
    b = [[top], [top], [1]]
    assert checked("matmul", make_field(P_BIG), a, b) == [[(2 * top * top + top) % P_BIG]]


@st.composite
def low_rank_rows(draw):
    """Rows spanning a space of random dimension, small enough for the
    enumeration oracle: combinations of `f` random base rows."""
    fld = draw(st.sampled_from([make_field(2), make_field(3), F7, GF8, make_field(257)]))
    rows = 1
    while fld.q ** (rows + 1) <= 2401 and rows < 6:
        rows += 1
    rows = draw(st.integers(1, rows))
    cols = draw(st.integers(1, 8))
    f = draw(st.integers(0, rows))
    bases = draw(matrices(fld.q, f, cols))
    coeffs = draw(matrices(fld.q, rows, f))
    out = []
    for cs in coeffs:
        vec = [0] * cols
        for c, base in zip(cs, bases):
            vec = [fld.add(v, fld.mul(c, x)) for v, x in zip(vec, base)]
        out.append(vec)
    return fld, out


@settings(max_examples=120, deadline=None)
@given(low_rank_rows())
def test_row_rank_matches_row_space_oracle(case):
    f, rows = case
    assert row_rank(f, rows) == oracles.row_space_rank(f, rows)


# GF(2^3) runs row_rank on the field kernel: wide rows, zero rows, repeated
# and dependent rows, and a pivot column that moves past the first
GF8_RANK_CASES = [
    ([[1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4]], 1),
    ([[0] * 12, [0] * 12], 0),
    ([[0, 0, 0, 5, 1, 1, 0, 2, 7, 3], [0] * 10, [0, 0, 0, 5, 1, 1, 0, 2, 7, 3]], 1),
    ([[1, 2, 3, 4, 5, 6, 7, 1], [2, 4, 6, 3, 1, 7, 5, 2], [3, 6, 5, 7, 4, 1, 2, 3]], 1),
    ([[0, 1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 1],
      [0, 1, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 3, 0, 0, 0, 0]], 3),
    ([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]], 3),
]


@pytest.mark.parametrize("rows,rank", GF8_RANK_CASES)
def test_row_rank_gf8_wide_and_deficient(rows, rank):
    assert row_rank(GF8, rows) == rank
    if GF8.q ** len(rows) <= 2401:
        assert rank == oracles.row_space_rank(GF8, rows)
    # a combination of the first and last rows adds nothing
    combo = [GF8.add(GF8.mul(3, x), GF8.mul(5, y)) for x, y in zip(rows[0], rows[-1])]
    assert row_rank(GF8, rows + [combo]) == rank


def _with(entry, at):
    m = [[1, 2], [3, 4]]
    m[at[0]][at[1]] = entry
    return m


# each kernel operation, its operands checked by asarray, and row_rank
KERNELS = {
    "mat_mul": lambda f, m: checked("matmul", f, m, [[1, 0], [0, 1]]),
    "mat_mul-right": lambda f, m: checked("matmul", f, [[1, 0], [0, 1]], m),
    "mat_add": lambda f, m: checked("add", f, m, [[1, 1], [1, 1]]),
    "mat_sub": lambda f, m: checked("sub", f, [[1, 1], [1, 1]], m),
    "row_rank": lambda f, m: row_rank(f, m),
}


@pytest.mark.parametrize("f", [F7, GF8], ids=["GF7", "GF8"])
@pytest.mark.parametrize("bad", ["q", -1, 2.0])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("at", [(0, 0), (1, 1)])
def test_kernels_reject_non_elements(f, bad, kernel, at):
    # the out-of-range integer is the field order: 7 for GF(7), 8 for
    # GF(2^3), whose characteristic 2 is itself an element
    entry = f.q if bad == "q" else bad
    with pytest.raises(FieldMismatch, match="is not an element of"):
        KERNELS[kernel](f, _with(entry, at))


def test_bulk_accepts_what_check_accepts():
    # bool is an int subclass, so PrimeField.check lets it through
    assert checked("add", F7, [[True, 6]], [[1, 1]]) == [[2, 0]]
    assert checked("matmul", F7, [[True]], [[5]]) == [[5]]


def test_mat_mul_shape_errors():
    # ragged rows are refused on either side of a product; a product of
    # no rows has no rows
    with pytest.raises(ShapeMismatch):
        checked("matmul", F7, [[1, 2], [3]], [[1], [2]])
    with pytest.raises(ShapeMismatch):
        checked("matmul", F7, [[1, 2]], [[1], [2, 3]])
    assert checked("matmul", F7, np.zeros((0, 1), dtype=np.int64), [[1]]) == []


@pytest.mark.parametrize("f", [F7, GF8], ids=["GF7", "GF8"])
def test_shape_errors_raise(f):
    with pytest.raises(ShapeMismatch):
        checked("add", f, [[1, 2], [3]], [[1, 2], [3, 4]])
    with pytest.raises(ShapeMismatch):
        checked("sub", f, [[1, 2], [3, 4]], [[1, 2], [3]])
    with pytest.raises(ShapeMismatch):
        row_rank(f, [[1, 2], [3]])
    with pytest.raises(ShapeMismatch):
        checked("matmul", f, [[1, 2]], np.array([1, 2]))  # a vector is no matrix
    assert checked("matmul", f, [[], []], []) == [[], []]  # sums of no terms


# -- the kernels against plain field calls ---------------------------------

def ref_matmul(f, a, b):
    return [[functools.reduce(f.add, map(f.mul, row, col), 0) for col in zip(*b)]
            for row in a]


def ref_rank(f, rows):
    """Column-by-column Gauss-Jordan elimination with field calls."""
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = f.inv(pivot[col])
        rows = [[f.sub(x, f.mul(f.mul(r[col], inv), y)) for x, y in zip(r, pivot)]
                for r in rows]
        rank += 1
    return rank


@st.composite
def kernel_case(draw):
    """A kernel field and two stacks of 1-3 conformable matrices, with
    up to 8 terms per sum: past the 6 that EDGE_P's int64 products hold."""
    f = draw(st.sampled_from(list(KERNEL_FIELDS.values())))
    s, r, K, c = (draw(st.integers(1, top)) for top in (3, 4, 8, 4))
    a = draw(st.lists(matrices(f.q, r, K), min_size=s, max_size=s))
    b = draw(st.lists(matrices(f.q, K, c), min_size=s, max_size=s))
    return f, a, b


def _stack(kern, mats):
    return np.stack([kern.asarray(m) for m in mats])


@settings(max_examples=200, deadline=None)
@given(kernel_case())
def test_kernel_ops_match_field_calls(case):
    f, a, b = case
    kern = kernel(f)
    A, B = _stack(kern, a), _stack(kern, b)
    assert kern.matmul(A, B).tolist() == [ref_matmul(f, x, y) for x, y in zip(a, b)]
    assert kern.matmul(A[0], B).tolist() == [ref_matmul(f, a[0], y) for y in b]
    other = A[::-1]
    for op in ("add", "sub", "mul"):
        want = [[list(map(getattr(f, op), u, v)) for u, v in zip(x, y)]
                for x, y in zip(A.tolist(), other.tolist())]
        assert getattr(kern, op)(A, other).tolist() == want
    nonzero = A[A != 0]
    assert kern.inv(nonzero).tolist() == [f.inv(x) for x in nonzero.tolist()]
    for m in a + b:
        assert row_rank(f, m) == ref_rank(f, m)


@pytest.mark.parametrize("p", [17, 257, 65521, 65537])
def test_prime_inverses_of_every_element(p):
    # up to 2^16 (65521 is the largest prime below) inv gathers from the
    # kernel's table; 65537 calls field.inv per entry
    f = make_field(p)
    kern = kernel(f)
    assert (kern._inverses is not None) == (p <= 2 ** 16)
    x = np.arange(1, p, dtype=np.int64)
    got = kern.inv(x)
    assert got.dtype == np.int64 and got.tolist() == [f.inv(v) for v in range(1, p)]
    assert kern.inv(x[:6].reshape(2, 3)).tolist() == [[f.inv(v) for v in range(j, j + 3)] for j in (1, 4)]
    for zero in ([0], [[5, 0], [1, 2]], [p - 1, 0, 1]):
        with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
            kern.inv(np.array(zero))
    for outside in (-1, p):
        with pytest.raises(FieldMismatch):
            kern.inv(np.array([1, outside]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_asarray_refuses_what_check_refuses(data):
    f = data.draw(st.sampled_from(list(KERNEL_FIELDS.values())))
    rows = data.draw(matrices(f.q, 2, 3))
    i, j = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 2))
    rows[i][j] = value = data.draw(st.one_of(
        st.integers(-3, f.q + 3), st.integers(-2 ** 70, 2 ** 70), st.booleans(),
        st.floats(allow_nan=False), st.builds(np.int64, st.integers(0, 6))))
    try:
        f.check(value)
    except FieldMismatch:
        with pytest.raises(FieldMismatch, match="is not an element of"):
            kernel(f).asarray(rows)
    else:
        assert kernel(f).asarray(rows).tolist() == [[int(x) for x in row] for row in rows]
    if isinstance(value, (int, np.integer)) and -2 ** 63 <= value < 2 ** 63:
        # the same entries as an integer array: one vectorised range test
        arr = np.array([[int(x) for x in row] for row in rows], dtype=np.int64)
        if 0 <= value < f.q:
            assert kernel(f).asarray(arr).tolist() == arr.tolist()
        else:
            with pytest.raises(FieldMismatch):
                kernel(f).asarray(arr)


@pytest.mark.parametrize("f", KERNEL_FIELDS.values(), ids=KERNEL_FIELDS.keys())
def test_asarray_takes_only_matrices(f):
    kern = kernel(f)
    for bad in ([[1, 0], [1]], np.zeros(3, dtype=np.int64), np.zeros((2, 2, 2), dtype=np.int64)):
        with pytest.raises(ShapeMismatch):
            kern.asarray(bad)
    assert kern.asarray([]).shape == (0, 0)
    assert kern.asarray(np.zeros((2, 3), dtype=np.uint8)).dtype == kern.dtype
    with pytest.raises(FieldMismatch):  # a float is no element, integral or not
        kern.asarray(np.zeros((2, 3)))
