import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from nxmds import container
from nxmds.code import make_code
from nxmds.errors import (
    BadMagic,
    ContainerError,
    TruncatedPayload,
    VersionMismatch,
)
from nxmds.field import make_field

F5 = make_field(5)


def small_matrix():
    q = st.sampled_from([2, 3, 5, 17, 257])
    return q.flatmap(
        lambda qq: st.tuples(
            st.just(qq),
            st.lists(
                st.lists(st.integers(0, qq - 1), min_size=1, max_size=4),
                min_size=1,
                max_size=6,
            ).filter(lambda rows: len({len(r) for r in rows}) == 1),
        )
    )


def read_back(blob):
    """deserialize_matrix's header and its matrix as lists of rows, after
    checking the array: int64 when q <= 2^63, else Python ints in an
    object array."""
    header, symbols = container.deserialize_matrix(blob)
    assert isinstance(symbols, np.ndarray) and symbols.ndim == 2
    if header.q <= 2 ** 63:
        assert symbols.dtype == np.int64
    else:
        assert symbols.dtype == object and all(type(v) is int for v in symbols.flat)
    return header, symbols.tolist()


def test_symbol_width():
    assert container.symbol_width(2) == 1
    assert container.symbol_width(5) == 1
    assert container.symbol_width(256) == 1
    assert container.symbol_width(257) == 2
    assert container.symbol_width(2 ** 16 + 1) == 3


def test_single_symbol_bytes():
    params, _ = make_code(4, 2, F5, 1)
    header = container.header_for(params)
    blob = container.serialize_matrix(header, [[4]])
    assert blob.endswith(b"\x04")
    assert blob[: len(container.MAGIC)] == b"NXMDS1"


def test_node_slice_roundtrip():
    params, G = make_code(4, 2, F5, 3)
    rng = np.random.default_rng(5)
    rows = [[int(v) for v in r] for r in rng.integers(0, 5, size=(2, 3))]
    header = container.header_for(params, node_id=2)
    back_header, back = read_back(container.serialize_matrix(header, rows))
    assert back == rows
    assert back_header == header
    assert back_header.node_id == 2 and back_header.q == 5


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_roundtrip_random(case):
    q, rows = case
    header = container.ContainerHeader(q, 1, 2, 1, len(rows[0]), (0, 1))
    back_header, back = read_back(container.serialize_matrix(header, rows))
    assert back == rows and back_header == header


@pytest.mark.parametrize("q,width", [(2, 1), (257, 2), (65537, 3)])
def test_roundtrip_each_symbol_width(q, width):
    rng = np.random.default_rng(q)
    rows = [[0, 1, q - 1]] + [[int(v) for v in r]
                              for r in rng.integers(0, q, size=(4, 3))]
    header = container.ContainerHeader(q, 1, 4, 2, 3, (0, 1), 2)
    blob = container.serialize_matrix(header, rows)
    assert len(blob) == len(container.pack_header(header)) + 16 + 15 * width
    assert read_back(blob) == (header, rows)
    # the first out-of-range symbol is the one named
    bad = bytearray(blob)
    bad[-2 * width:] = b"\xff" * (2 * width)
    with pytest.raises(ContainerError, match=f"symbol {256 ** width - 1} out"):
        container.deserialize_matrix(bytes(bad))


# (p, s) with one q = p^s per symbol width 1..9, plus 2^64 - 59, whose
# symbols can pass 2^63.  The header stores p in 8 bytes, so the width-9
# field is a square; none of these needs to be a field.
WIDTH_FIELDS = [(2, 1), (257, 1), (65537, 1), (2 ** 31 - 1, 1), (2 ** 32 + 15, 1),
                (2 ** 40 + 15, 1), (2 ** 48 + 21, 1), (9 * 10 ** 18 + 7, 1),
                (2 ** 64 - 59, 1), (2 ** 32 + 15, 2)]


def test_width_fields_cover_every_width():
    widths = [container.symbol_width(p ** s) for p, s in WIDTH_FIELDS]
    assert widths == [1, 2, 3, 4, 5, 6, 7, 8, 8, 9]


@st.composite
def codec_case(draw):
    """A header from WIDTH_FIELDS and a 1x1, 1xN or MxN matrix of its
    symbols."""
    p, s = draw(st.sampled_from(WIDTH_FIELDS))
    header = container.ContainerHeader(p, s, 4, 2, 3, (0,) * s + (1,), 1)
    nrows, ncols = draw(st.one_of(
        st.just((1, 1)),
        st.tuples(st.just(1), st.integers(2, 9)),
        st.tuples(st.integers(2, 5), st.integers(1, 9))))
    symbol = st.integers(0, header.q - 1)
    rows = draw(st.lists(st.lists(symbol, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return header, rows


def bad_positions(draw, rows):
    cells = [(r, c) for r in range(len(rows)) for c in range(len(rows[0]))]
    return draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3, unique=True))


def container_error(fn, *args):
    with pytest.raises(ContainerError) as info:
        fn(*args)
    return str(info.value)


@settings(max_examples=150, deadline=None)
@given(codec_case())
def test_bulk_codec_matches_reference(case):
    header, rows = case
    blob = container.serialize_matrix(header, rows)
    assert blob == oracles.pack_matrix(header, rows)
    assert read_back(blob) == oracles.parse_matrix(blob) == (header, rows)


def non_symbols(q):
    return st.one_of(
        st.integers(q, q + 2 ** 70), st.integers(max_value=-1),
        st.floats(), st.text(max_size=2), st.none(),
        st.integers(0, q - 1).map(lambda v: np.uint64(v % 2 ** 64)))


@settings(max_examples=150, deadline=None)
@given(codec_case(), st.data())
def test_bulk_codec_names_first_bad_symbol_on_write(case, data):
    header, rows = case
    for r, c in bad_positions(data.draw, rows):
        rows[r][c] = data.draw(non_symbols(header.q))
    message = container_error(container.serialize_matrix, header, rows)
    assert message == container_error(oracles.pack_matrix, header, rows)


@settings(max_examples=150, deadline=None)
@given(codec_case(), st.data())
def test_bulk_codec_names_first_bad_symbol_on_read(case, data):
    header, rows = case
    q, width = header.q, container.symbol_width(header.q)
    blob = bytearray(container.serialize_matrix(header, rows))
    start = len(blob) - len(rows) * len(rows[0]) * width
    for r, c in bad_positions(data.draw, rows):
        j = start + (r * len(rows[0]) + c) * width
        blob[j:j + width] = data.draw(st.integers(q, 256 ** width - 1)).to_bytes(width, "little")
    message = container_error(container.deserialize_matrix, bytes(blob))
    assert message == container_error(oracles.parse_matrix, bytes(blob))
    assert message.startswith("symbol ") and message.endswith(f"out of range for q={q}")


def as_array(header, rows):
    """rows as the array the kernel holds for q: int64 up to 2^63, Python
    ints in an object array above."""
    return np.array(rows, dtype=np.int64 if header.q <= 2 ** 63 else object)


@pytest.mark.parametrize("p,s", WIDTH_FIELDS, ids=[f"{p}^{s}" for p, s in WIDTH_FIELDS])
def test_array_roundtrip_every_width(p, s):
    header = container.ContainerHeader(p, s, 4, 2, 3, (0,) * s + (1,), 1)
    q = header.q
    rand = random.Random(q)
    rows = [[0, 1, q - 1, q - 2, q // 2, min(q - 1, 2 ** 63 + 5)]]
    rows += [[rand.randrange(q) for _ in range(6)] for _ in range(3)]
    if q > 2 ** 63:
        assert max(max(row) for row in rows) > 2 ** 63
    blob = container.serialize_matrix(header, as_array(header, rows))
    assert blob == container.serialize_matrix(header, rows) == oracles.pack_matrix(header, rows)
    assert read_back(blob) == (header, rows)
    if q <= 2 ** 64:  # symbols in an unsigned array take the same range test
        assert container.serialize_matrix(header, np.array(rows, dtype=np.uint64)) == blob


@settings(max_examples=150, deadline=None)
@given(codec_case(), st.data())
def test_integer_array_names_first_bad_symbol(case, data):
    header, rows = case
    q = header.q
    if q > 2 ** 63:  # no int64 entry is out of range above q
        header = container.ContainerHeader(257, 1, 4, 2, 3, (0, 1), 1)
        rows, q = [[v % 257 for v in row] for row in rows], 257
    for r, c in bad_positions(data.draw, rows):
        rows[r][c] = data.draw(st.one_of(st.integers(-2 ** 63, -1), st.integers(q, 2 ** 63 - 1)))
    message = container_error(container.serialize_matrix, header, np.array(rows, dtype=np.int64))
    assert message == container_error(oracles.pack_matrix, header, rows)
    assert message.startswith("symbol ") and message.endswith(f"out of range for q={q}")


def test_array_shape_and_dtype_rules():
    header = container.ContainerHeader(5, 1, 4, 2, 3, (0, 1), 1)
    with pytest.raises(ContainerError, match="symbol 1.0 is not an integer"):
        container.serialize_matrix(header, np.ones((2, 2)))
    with pytest.raises(ContainerError, match="symbol 'a' is not an integer"):
        container.serialize_matrix(header, np.array([[1, "a"]], dtype=object))
    # an object array takes the list rule: Python ints pass, numpy scalars do not
    assert (container.serialize_matrix(header, np.array([[4, 0]], dtype=object))
            == container.serialize_matrix(header, [[4, 0]]))
    with pytest.raises(ContainerError, match="is not an integer"):
        container.serialize_matrix(header, np.array([[4, np.int64(1)]], dtype=object))
    with pytest.raises(ContainerError, match="symbol 5 out of range"):
        container.serialize_matrix(header, np.array([[4, 5]], dtype=object))
    with pytest.raises(ContainerError, match="expected a matrix"):
        container.serialize_matrix(header, np.zeros(3, dtype=np.int64))
    with pytest.raises(ContainerError, match="rows without columns"):
        container.serialize_matrix(header, np.zeros((2, 0), dtype=np.int64))
    # bools count as 0 and 1, in an array as in a list; a transposed view
    # packs in row-major order
    assert (container.serialize_matrix(header, np.array([[True, False]]))
            == container.serialize_matrix(header, [[1, 0]]))
    m = np.arange(6, dtype=np.int64).reshape(2, 3) % 5
    assert container.serialize_matrix(header, m.T) == container.serialize_matrix(header, m.T.tolist())


def test_extension_field_header_roundtrip():
    fld = make_field(2, 3)
    params, _ = make_code(6, 3, fld, 2)
    header = container.header_for(params, node_id=1)
    assert header.modulus == (1, 1, 0, 1)
    back_header, _ = container.deserialize_matrix(
        container.serialize_matrix(header, [[7, 0], [1, 6], [3, 3]])
    )
    rebuilt, G = container.code_for(back_header)
    assert rebuilt == params
    assert G == make_code(6, 3, fld, 2)[1]


def test_code_for_rejects_noncanonical_modulus():
    header = container.ContainerHeader(2, 3, 6, 3, 2, (1, 0, 1, 1))
    with pytest.raises(ContainerError):
        container.code_for(header)


def test_bad_magic():
    params, _ = make_code(4, 2, F5, 1)
    blob = container.serialize_matrix(container.header_for(params), [[1]])
    with pytest.raises(BadMagic):
        container.deserialize_matrix(b"XXMDS1" + blob[6:])


def test_bad_version():
    params, _ = make_code(4, 2, F5, 1)
    blob = bytearray(container.serialize_matrix(container.header_for(params), [[1]]))
    blob[6] = 9
    with pytest.raises(VersionMismatch):
        container.deserialize_matrix(bytes(blob))


def test_truncation_every_prefix():
    params, _ = make_code(4, 2, F5, 2)
    blob = container.serialize_matrix(
        container.header_for(params, node_id=1), [[1, 2], [3, 4]]
    )
    for cut in range(len(blob)):
        with pytest.raises(TruncatedPayload):
            container.deserialize_matrix(blob[:cut])


def test_trailing_bytes_rejected():
    params, _ = make_code(4, 2, F5, 1)
    blob = container.serialize_matrix(container.header_for(params), [[1]])
    with pytest.raises(ContainerError):
        container.deserialize_matrix(blob + b"\x00")


def test_oversized_empty_frame_rejected():
    params, _ = make_code(4, 2, F5, 1)
    frame = container.pack_header(container.header_for(params))
    for nrows, ncols in [(0, 2 ** 63), (0, 2 ** 64 - 1), (2 ** 62, 0)]:
        with pytest.raises(ContainerError, match="too large"):
            container.deserialize_matrix(
                frame + nrows.to_bytes(8, "little") + ncols.to_bytes(8, "little"))
    empty = frame + (0).to_bytes(8, "little") + (2 ** 40).to_bytes(8, "little")
    assert read_back(empty)[1] == []


def test_rows_without_columns_rejected():
    # a 73-byte frame declaring 2^20 x 0 parsed into 2^20 empty rows
    params, _ = make_code(4, 2, F5, 1)
    frame = container.pack_header(container.header_for(params))
    for nrows in (1, 2 ** 20, 2 ** 64 - 1):
        blob = frame + nrows.to_bytes(8, "little") + (0).to_bytes(8, "little")
        with pytest.raises(ContainerError, match="rows without columns"):
            container.deserialize_matrix(blob)
    # nor is such a frame written
    with pytest.raises(ContainerError, match="rows without columns"):
        container.serialize_matrix(container.header_for(params), [[], []])


def test_out_of_range_symbol_rejected():
    params, _ = make_code(4, 2, F5, 1)
    header = container.header_for(params)
    with pytest.raises(ContainerError):
        container.serialize_matrix(header, [[5]])
    good = bytearray(container.serialize_matrix(header, [[1]]))
    good[-1] = 5
    with pytest.raises(ContainerError):
        container.deserialize_matrix(bytes(good))


@pytest.mark.parametrize("bad", [1.5, np.int64(3), "7", None],
                         ids=["float", "np.int64", "str", "None"])
def test_non_int_symbol_rejected(bad):
    params, _ = make_code(4, 2, F5, 2)
    with pytest.raises(ContainerError, match="is not an integer"):
        container.serialize_matrix(container.header_for(params), [[1, bad]])


def test_bools_pack_as_bits():
    params, _ = make_code(4, 2, F5, 2)
    header = container.header_for(params)
    assert (container.serialize_matrix(header, [[True, False]])
            == container.serialize_matrix(header, [[1, 0]]))


def test_ragged_matrix_rejected():
    params, _ = make_code(4, 2, F5, 2)
    with pytest.raises(ContainerError):
        container.serialize_matrix(container.header_for(params), [[1, 2], [3]])


def test_wide_symbols_little_endian():
    f257 = make_field(257)
    params, _ = make_code(4, 2, f257, 1)
    blob = container.serialize_matrix(container.header_for(params), [[256]])
    assert blob.endswith(b"\x00\x01")


def test_file_helpers(tmp_path):
    params, _ = make_code(4, 2, F5, 3)
    header = container.header_for(params, node_id=3)
    rows = [[1, 2, 3], [4, 0, 1]]
    path = tmp_path / "node_3.nxm"
    container.write_matrix(path, header, rows)
    back_header, back = container.read_matrix(path)
    assert (back_header, back.tolist()) == (header, rows)


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    params, _ = make_code(4, 2, F5, 3)
    header = container.header_for(params, node_id=3)
    path = tmp_path / "node_3.nxm"
    container.write_matrix(path, header, [[1, 2, 3], [4, 0, 1]])
    before = path.read_bytes()

    class HalfWriter:
        """File whose write stores half the bytes, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(container, "open",
                        lambda *a, **kw: HalfWriter(open(*a, **kw)), raising=False)
    with pytest.raises(OSError):
        container.write_matrix(path, header, [[0, 0, 0], [2, 2, 2]])
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["node_3.nxm"]
