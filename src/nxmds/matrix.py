"""The array kernel that all the library's arithmetic on matrices runs
on, and row_rank.

kernel(field), built once per field, is the one place that decides how
field elements are held in arrays:

  prime    any PrimeField: numpy int64 arrays, each operation one numpy
           call reduced mod p.  A product whose sums could pass
           2^63 - 1 (int64_fits false, e.g. the p ~ 3*10^9 that `params`
           picks at M = 10^9 bits) runs in object dtype over exact
           Python ints and comes back as int64.
  field    any other field object (an extension field, or an
           instrumented wrapper such as experiments.CountingField):
           object arrays of Python ints, each elementwise operation one
           call of the field's own arithmetic (np.frompyfunc), so a
           counting wrapper sees every operation.

Both kernels offer asarray, matmul (stacked operands broadcast as in
np.matmul), add, sub, mul and inv, and the dtype of their arrays.
asarray is the one element check: over nested sequences it applies
exactly field.check to every entry (so bool passes and a numpy integer
scalar does not), over an integer ndarray one vectorised range test,
and it raises ShapeMismatch unless it has a matrix.  The other
operations check nothing; they also take the int64 arrays an rng
returns.

row_rank takes a matrix as a list of rows or an array and checks it
with asarray.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import FieldMismatch, ShapeMismatch
from .field import PrimeField

_INT64_MAX = 2 ** 63 - 1


def int64_fits(p: int, terms: int) -> bool:
    """Whether a sum of `terms` products of residues mod p stays within
    int64: the guard of every int64 product over GF(p)."""
    return terms * (p - 1) ** 2 <= _INT64_MAX


def _width(rows) -> int:
    """The common length of the rows of a nested sequence."""
    width = len(rows[0]) if len(rows) else 0
    if any(len(row) != width for row in rows):
        raise ShapeMismatch("rows must share one length")
    return width


def _check_each(field, rows) -> None:
    """field.check on every entry, in row-major order: FieldMismatch
    names the first one that is not an element."""
    for x in itertools.chain.from_iterable(rows):
        field.check(x)


def _in_range(field, arr: np.ndarray, dtype) -> np.ndarray:
    """arr as a matrix of `dtype` once one vectorised test found every
    entry an integer in [0, q); entries of any other dtype go through
    field.check one by one."""
    if arr.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got {arr.ndim} dimension(s)")
    if arr.size and (arr.dtype.kind not in "biu" or arr.min() < 0 or arr.max() >= field.q):
        _check_each(field, arr.tolist())
        if arr.dtype.kind != "O":
            raise FieldMismatch(f"entries of dtype {arr.dtype} are not elements of {field!r}")
    return arr.astype(dtype, copy=False)


class _PrimeKernel:
    """The kernel of a PrimeField: int64 arrays."""

    dtype = np.int64

    def __init__(self, field):
        self.field = field
        self.p = field.p
        self._inv = np.frompyfunc(field.inv, 1, 1)

    def asarray(self, rows) -> np.ndarray:
        if not isinstance(rows, np.ndarray):
            width = _width(rows)
            if not set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
                _check_each(self.field, rows)  # bool passes, as field.check lets it
            try:
                rows = np.array(rows, dtype=np.int64).reshape(len(rows), width)
            except OverflowError:
                _check_each(self.field, rows)
                raise
        return _in_range(self.field, rows, np.int64)

    def _exact(self, op, a, b, terms: int) -> np.ndarray:
        """op(a, b) mod p: in int64 when its sums of `terms` products
        fit, otherwise over Python ints."""
        if int64_fits(self.p, terms):
            return op(a, b) % self.p
        return (op(a.astype(object), b.astype(object)) % self.p).astype(np.int64)

    def matmul(self, a, b) -> np.ndarray:
        return self._exact(np.matmul, a, b, a.shape[-1])

    def mul(self, a, b) -> np.ndarray:
        return self._exact(np.multiply, a, b, 1)

    def add(self, a, b) -> np.ndarray:
        return (a + b) % self.p

    def sub(self, a, b) -> np.ndarray:
        return (a - b) % self.p

    def inv(self, a) -> np.ndarray:
        return self._inv(a).astype(np.int64)


class _FieldKernel:
    """The kernel of any other field object: object arrays of Python
    ints, every elementwise operation a call of the field."""

    dtype = object

    def __init__(self, field):
        self.field = field
        self.add = np.frompyfunc(field.add, 2, 1)
        self.sub = np.frompyfunc(field.sub, 2, 1)
        self.mul = np.frompyfunc(field.mul, 2, 1)
        self.inv = np.frompyfunc(field.inv, 1, 1)

    def asarray(self, rows) -> np.ndarray:
        if isinstance(rows, np.ndarray):
            return _in_range(self.field, rows, object)
        width = _width(rows)
        _check_each(self.field, rows)
        return np.array(rows, dtype=object).reshape(len(rows), width)

    def matmul(self, a, b) -> np.ndarray:
        """One multiply-accumulate step per term of the sums."""
        acc = None
        for j in range(a.shape[-1]):
            term = self.mul(a[..., :, j, None], b[..., j, None, :])
            acc = term if acc is None else self.add(acc, term)
        if acc is None:  # sums of no terms
            shape = np.broadcast_shapes(a.shape[:-1] + (1,), b.shape[:-2] + (1, b.shape[-1]))
            acc = np.zeros(shape, dtype=object)
        return acc


@lru_cache(maxsize=None)
def kernel(field):
    """The array kernel of the field (module docstring)."""
    return _PrimeKernel(field) if isinstance(field, PrimeField) else _FieldKernel(field)


def row_rank(field, rows) -> int:
    """Rank by forward elimination on a copy.  Each step takes the first
    remaining row as pivot and clears its leading column from the rows
    not yet used, without scaling the pivot; rows that become zero drop
    out, so the scan stops once every remaining row is zero."""
    kern = kernel(field)
    rest = kern.asarray(rows)
    rank = 0
    while True:
        rest = rest[(rest != 0).any(axis=1)]
        if not len(rest):
            return rank
        pivot, rest = rest[0], rest[1:]
        col = int((pivot != 0).argmax())
        scale = kern.mul(rest[:, col:col + 1], kern.inv(pivot[col:col + 1]))
        rest = kern.sub(rest, kern.mul(scale, pivot))
        rank += 1
