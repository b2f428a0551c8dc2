"""The array kernel that all the library's arithmetic on matrices runs
on, and row_rank.

kernel(field), built once per field, is the one place that decides how
field elements are held in arrays:

  prime    any PrimeField: numpy int64 arrays, each operation one numpy
           call reduced mod p.  A product whose sums could pass
           2^63 - 1 (int64_fits false, e.g. the p ~ 3*10^9 that `params`
           picks at M = 10^9 bits) runs in object dtype over exact
           Python ints and comes back as int64.  For p <= 2^16, inv is
           a gather from a table of inverses built with the kernel.
  field    any other field object (an extension field, or an
           instrumented wrapper such as experiments.CountingField):
           object arrays of Python ints, each elementwise operation one
           call of the field's own arithmetic (np.frompyfunc), so a
           counting wrapper sees every operation.

Both kernels offer asarray, matmul (stacked operands broadcast as in
np.matmul), add, sub, mul and inv, and the dtype of their arrays.
asarray is the one element check: symbol_matrix with the field's
order and field.check, so an entry passes exactly when field.check
would pass it (bool does, a numpy integer scalar does not), one
vectorised range test covers every entry, and field.check is called
only to name the first entry that fails.  It raises ShapeMismatch
unless it has a matrix.  The .nxm codec (container) checks its symbols
with the same symbol_matrix.  The other operations check nothing; they
also take the int64 arrays an rng returns.

row_rank takes a matrix as a list of rows or an array and checks it
with asarray.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import ShapeMismatch
from .field import PrimeField

_INT64_MAX = 2 ** 63 - 1


def int64_fits(p: int, terms: int) -> bool:
    """Whether a sum of `terms` products of residues mod p stays within
    int64: the guard of every int64 product over GF(p)."""
    return terms * (p - 1) ** 2 <= _INT64_MAX


def symbol_matrix(rows, q: int, check) -> np.ndarray:
    """rows, a nested sequence or an ndarray, as a 2-D array once every
    entry passed the one element test: an int in [0, q), where bool
    counts and a numpy scalar does not.  Ragged rows, a flat sequence
    and an array of other than two dimensions raise ShapeMismatch.  The
    entry types of a sequence or an object array are scanned (an
    integer dtype needs no scan), then one vectorised range test covers
    every entry.  Only when either fails is check(x) called on each
    entry in row-major order, so the caller's own error names the first
    bad symbol; check must raise for every x that fails the test.  A
    sequence comes back in int64, or in object dtype when an entry does
    not fit int64; an array keeps its dtype."""
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2:
            raise ShapeMismatch(f"expected a matrix, got {rows.ndim} dimension(s)")
        arr = rows
        ints = arr.dtype.kind in "biu" or all(issubclass(t, int) for t in set(map(type, arr.flat)))
    else:
        try:
            widths = set(map(len, rows))
        except TypeError:  # an entry with no length: a flat list unless some row has one
            if any(hasattr(row, "__len__") for row in rows):
                raise ShapeMismatch("rows must share one length") from None
            raise ShapeMismatch("expected a matrix, got 1 dimension(s)") from None
        if len(widths) > 1:
            raise ShapeMismatch("rows must share one length")
        width = widths.pop() if widths else 0
        ints = all(issubclass(t, int) for t in set(map(type, itertools.chain.from_iterable(rows))))
        if ints:
            try:
                arr = np.array(rows, dtype=np.int64)
            except OverflowError:
                arr = np.array(rows, dtype=object)
            arr = arr.reshape(len(rows), width)
    if ints and not (arr.size and (int(arr.min()) < 0 or int(arr.max()) >= q)):
        return arr
    for x in itertools.chain.from_iterable(rows.tolist() if isinstance(rows, np.ndarray) else rows):
        check(x)


# the largest p whose kernel keeps a table of inverses
_TABLE_MAX = 2 ** 16


def _inverse_table(p: int) -> np.ndarray:
    """x^(p-2) mod p for every residue x, by square and multiply over
    all of them at once: x's inverse for x != 0 (Fermat).  Products of
    residues below 2^16 + 1 fit int64."""
    x = np.arange(p, dtype=np.int64)
    out = np.ones(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


class _PrimeKernel:
    """The kernel of a PrimeField: int64 arrays."""

    dtype = np.int64

    def __init__(self, field):
        self.field = field
        self.p = field.p
        self._inv = np.frompyfunc(field.inv, 1, 1)
        self._inverses = _inverse_table(self.p) if self.p <= _TABLE_MAX else None

    def asarray(self, rows) -> np.ndarray:
        return symbol_matrix(rows, self.p, self.field.check).astype(np.int64, copy=False)

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
        """A gather from the inverse table when p <= 2^16 and every entry
        is a nonzero residue; otherwise field.inv per entry, which
        raises for a zero or a non-element."""
        a = np.asarray(a)
        if (self._inverses is None or a.dtype.kind not in "iu"
                or (a.size and (a.min() <= 0 or a.max() >= self.p))):
            return self._inv(a).astype(np.int64)
        return self._inverses[a]


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
        return symbol_matrix(rows, self.field.q, self.field.check).astype(object, copy=False)

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
