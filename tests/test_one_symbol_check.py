"""The kernels' asarray and the .nxm codec share one element test
(matrix.symbol_matrix): for the same matrix they accept the same
symbols, refuse the same ones, name the same first bad symbol in
row-major order and refuse the same shapes (raggedness before any
symbol), each with its own error.
A matrix of good symbols passes without one field.check call."""

import itertools

import numpy as np
import pytest

from nxmds import container
from nxmds.errors import ContainerError, FieldMismatch, NxmdsError, ShapeMismatch
from nxmds.field import make_field
from nxmds.matrix import kernel

FIELDS = {"GF17": make_field(17), "GF9": make_field(3, 2)}


def header_of(f):
    return container.ContainerHeader(f.p, f.s, 4, 2, 3, tuple(f.modulus), 1)


def first_bad(rows, q):
    """The reference rule: the first entry of a list of rows, in
    row-major order, that is not an int in [0, q), or None."""
    entries = itertools.chain.from_iterable(rows)
    return next((x for x in entries if not (isinstance(x, int) and 0 <= x < q)), None)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except NxmdsError as exc:
        return type(exc), str(exc)


def list_cases(q):
    """Two-row matrices holding each pair of these entries, one early
    and one late in row-major order."""
    entries = [True, np.int64(3), 1.0, "7", -1, q, 2 ** 64]
    for early, late in itertools.product(entries, repeat=2):
        yield [[1, 2, early], [late, 0, q - 1]]


ARRAY_CASES = {
    "1-D": np.zeros(3, dtype=np.int64),
    "3-D": np.zeros((2, 2, 2), dtype=np.int64),
    "float": np.ones((2, 2)),
    "object np.int64": np.array([[4, np.int64(1)]], dtype=object),
    "uint64 2^63": np.array([[1, 2 ** 63]], dtype=np.uint64),
    "object ints": np.array([[0, 8, True]], dtype=object),
    "int64": np.array([[0, 8], [3, -2]], dtype=np.int64),
    "bool": np.array([[True, False]]),
    "empty float": np.zeros((0, 3)),
}


@pytest.mark.parametrize("f", FIELDS.values(), ids=FIELDS.keys())
def test_kernel_and_codec_agree(f):
    q, header = f.q, header_of(f)
    seen = set()
    flat = [1, 2]  # a list of symbols, not of rows
    for rows in [*list_cases(q), [[1, 2], ["7"]], flat, *ARRAY_CASES.values()]:
        entries = rows.tolist() if isinstance(rows, np.ndarray) else rows
        kind, got = outcome(kernel(f).asarray, rows)
        ckind, cgot = outcome(container.serialize_matrix, header, rows)
        ndim = rows.ndim if isinstance(rows, np.ndarray) else 1 if rows is flat else 2
        if ndim != 2:
            message = f"expected a matrix, got {ndim} dimension(s)"
            assert (kind, got, ckind, cgot) == (ShapeMismatch, message, ContainerError, message)
            seen.add("shape")
            continue
        if len({len(row) for row in entries}) > 1:
            assert (kind, got) == (ShapeMismatch, "rows must share one length")
            assert (ckind, cgot) == (ContainerError, "ragged matrix")
            seen.add("ragged")
            continue
        bad = first_bad(entries, q)
        if bad is None:
            assert kind == ckind == "ok"
            want = [[int(x) for x in row] for row in entries]
            assert got.tolist() == container.deserialize_matrix(cgot)[1].tolist() == want
            seen.add("ok")
            continue
        assert (kind, got) == (FieldMismatch, f"{bad!r} is not an element of {f!r}")
        if isinstance(bad, int):
            assert (ckind, cgot) == (ContainerError, f"symbol {bad} out of range for q={q}")
        else:
            assert (ckind, cgot) == (ContainerError, f"symbol {bad!r} is not an integer")
        seen.add(type(bad))
    assert seen == {"shape", "ragged", "ok", int, float, str, np.int64}


def test_good_symbols_take_no_field_check(monkeypatch):
    f = FIELDS["GF9"]
    calls = []
    check = type(f).check

    def spy(self, a):
        calls.append(a)
        return check(self, a)

    monkeypatch.setattr(type(f), "check", spy)
    row = [v % f.q for v in range(4096)]
    for rows in (np.array([row], dtype=object), [row]):
        assert kernel(f).asarray(rows).tolist() == [row]
    assert calls == []
    # a bad symbol is named by field.check, which stops at it
    row[5] = f.q
    with pytest.raises(FieldMismatch, match=f"^{f.q} is not an element"):
        kernel(f).asarray(np.array([row], dtype=object))
    assert calls == row[:6]
