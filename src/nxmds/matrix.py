"""Small dense matrix/vector helpers over a finite field.

Matrices are lists of row lists of ints.  Nothing here is clever; the
shapes in play are tiny (dozens of rows) and exactness matters more than
speed.  The one concession to speed is a fast path for prime fields,
where a dot product collapses to native integer arithmetic with a single
final reduction.
"""

from __future__ import annotations

import operator

from .errors import ShapeMismatch


def dot(field, u, v) -> int:
    """Inner product of two equal-length vectors."""
    if len(u) != len(v):
        raise ShapeMismatch(f"dot of lengths {len(u)} and {len(v)}")
    if field.s == 1:
        p = field.p
        return sum(map(operator.mul, u, v)) % p
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def mat_vec(field, rows, v) -> list[int]:
    return [dot(field, row, v) for row in rows]


def mat_mul(field, a, b) -> list[list[int]]:
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise ShapeMismatch(f"mat_mul of {len(a)}x{len(a[0])} and {len(b)}x{len(b[0])}")
    bt = list(zip(*b))
    return [[dot(field, row, col) for col in bt] for row in a]


def mat_add(field, a, b) -> list[list[int]]:
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        raise ShapeMismatch("mat_add of unequal shapes")
    return [[field.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(field, a, b) -> list[list[int]]:
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        raise ShapeMismatch("mat_sub of unequal shapes")
    return [[field.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def row_rank(field, rows) -> int:
    """Rank by fraction-free-ish Gaussian elimination (copies its input)."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = field.inv(m[rank][col])
        m[rank] = [field.mul(inv, x) for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                c = m[r][col]
                m[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank
