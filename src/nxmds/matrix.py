"""Small dense matrix/vector helpers over a finite field.

Matrices are lists of row lists of ints.  Exactness matters more than
speed, but the audit is a chain of linear maps over F_q (encode, inject
errors, check their rank, project onto r), so the matrix kernels take a
bulk path over prime fields:

  check once   mat_mul, row_dots, mat_add, mat_sub and row_rank first
               test every input entry with the test of PrimeField.check
               (prime_checked: an int in [0, p), else FieldMismatch),
               then compute with no per-operation call; code.encode
               runs the same test before its batched int64 product
  mat_mul      numpy int64 products reduced mod p; when a sum of
  row_dots     products could pass 2^63 - 1 (int64_fits fails, e.g. for
               the p ~ 3*10^9 that `params` picks at M = 10^9 bits) they
               keep the exact Python-int dot path
  the rest     native Python ints with a single % p; at the shapes in
               play numpy's per-call cost outweighs the work

int64_checked is the entry of callers that keep their own int64 arrays
(code's bulk decoder, the Monte Carlo engine's hash products): one
vectorised test that every entry is an integer in [0, p), instead of a
per-entry check on every call.

Any other field object (an extension field, or an instrumented wrapper
such as experiments.CountingField) takes the scalar path: every
operation goes through the field, which checks its operands.  dot and
mat_vec check nothing over prime fields: an inner product there is
native integer arithmetic with a single final reduction.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .errors import FieldMismatch, ShapeMismatch
from .field import PrimeField

_INT64_MAX = 2 ** 63 - 1


def int64_fits(p: int, terms: int) -> bool:
    """Whether a sum of `terms` products of residues mod p stays within
    int64: the guard of every numpy kernel over GF(p)."""
    return terms * (p - 1) ** 2 <= _INT64_MAX


def _inner(field, u, v) -> int:
    if field.s == 1:
        return sum(map(operator.mul, u, v)) % field.p
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def dot(field, u, v) -> int:
    """Inner product of two equal-length vectors."""
    if len(u) != len(v):
        raise ShapeMismatch(f"dot of lengths {len(u)} and {len(v)}")
    return _inner(field, u, v)


def mat_vec(field, rows, v) -> list[int]:
    N = len(v)
    if any(len(row) != N for row in rows):
        raise ShapeMismatch(f"rows must have length {N}")
    return [_inner(field, row, v) for row in rows]


def prime_checked(field, *mats) -> int | None:
    """p once every entry of every matrix has passed PrimeField.check;
    None when the field is not a PrimeField (the scalar path)."""
    if not isinstance(field, PrimeField):
        return None
    p = field.p
    for m in mats:
        for row in m:
            for x in row:
                if type(x) is not int or not 0 <= x < p:
                    field.check(x)  # raises unless x is an in-range int subclass
    return p


def int64_checked(field, rows) -> np.ndarray:
    """`rows`, nested lists or an array, as a 2-D numpy int64 array whose
    every entry passed one vectorised test of being an element of the
    PrimeField `field`: an integer in [0, p).  The test reads the array's
    dtype, so numpy integer scalars pass, which field.check refuses.
    When the test fails, the entries go through field.check in row-major
    order, so FieldMismatch names the first bad one."""
    try:
        arr = np.asarray(rows)
    except ValueError as exc:  # ragged rows
        raise ShapeMismatch("rows must share one length") from exc
    if arr.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got {arr.ndim} dimension(s)")
    if arr.size and (arr.dtype.kind not in "biu" or arr.min() < 0 or arr.max() >= field.p):
        entries = arr.tolist() if isinstance(rows, np.ndarray) else rows
        for x in itertools.chain.from_iterable(entries):
            field.check(x)
        raise FieldMismatch(f"entries of dtype {arr.dtype} are not elements of {field!r}")
    return arr.astype(np.int64, copy=False)


def mat_mul(field, a, b) -> list[list[int]]:
    if not a or not b:
        return []
    if any(len(row) != len(b) for row in a) or any(len(row) != len(b[0]) for row in b):
        raise ShapeMismatch(f"mat_mul of {len(a)}x{len(a[0])} and {len(b)}x{len(b[0])}")
    p = prime_checked(field, a, b)
    if p is not None and int64_fits(p, len(b)):
        prod = np.array(a, dtype=np.int64) @ np.array(b, dtype=np.int64)
        return (prod % p).tolist()
    bt = list(zip(*b))
    return [[_inner(field, row, col) for col in bt] for row in a]


def row_dots(field, a, b) -> list[int]:
    """<a[j], b[j]> for every j: the inner products of paired rows of
    two equal-shape matrices, in one call."""
    N = len(a[0]) if a else 0
    if len(a) != len(b) or any(len(u) != N or len(v) != N for u, v in zip(a, b)):
        raise ShapeMismatch("row_dots needs paired rows of one length")
    if not a:
        return []
    p = prime_checked(field, a, b)
    if p is not None and int64_fits(p, N):
        prod = np.array(a, dtype=np.int64) * np.array(b, dtype=np.int64)
        return (prod.sum(axis=1) % p).tolist()
    return [_inner(field, u, v) for u, v in zip(a, b)]


def _same_shape(a, b, name):
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        raise ShapeMismatch(f"{name} of unequal shapes")


def mat_add(field, a, b) -> list[list[int]]:
    _same_shape(a, b, "mat_add")
    p = prime_checked(field, a, b)
    if p is None:
        return [[field.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return [[(x + y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(field, a, b) -> list[list[int]]:
    _same_shape(a, b, "mat_sub")
    p = prime_checked(field, a, b)
    if p is None:
        return [[field.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return [[(x - y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def row_rank(field, rows) -> int:
    """Rank by forward elimination on a copy.  Each step takes the first
    remaining row as pivot and clears its leading column from the rows
    not yet used, without scaling the pivot; rows that become zero drop
    out, so the scan stops once every remaining row is zero."""
    p = prime_checked(field, rows)
    if p is None:
        def eliminate(row, col, pivot, inv):
            c = field.mul(row[col], inv)
            return [field.sub(x, field.mul(c, y)) for x, y in zip(row, pivot)]

        inverse = field.inv
    else:
        def eliminate(row, col, pivot, inv):
            c = row[col] * inv % p
            return [(x - c * y) % p for x, y in zip(row, pivot)]

        def inverse(a):
            return pow(a, p - 2, p)

    rest = [list(r) for r in rows if any(r)]
    rank = 0
    while rest:
        pivot, *rest = rest
        col = next(j for j, x in enumerate(pivot) if x != 0)
        inv = inverse(pivot[col])
        rank += 1
        rest = [r for r in (eliminate(r, col, pivot, inv) if r[col] != 0 else r
                            for r in rest) if any(r)]
    return rank
