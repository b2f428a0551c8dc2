import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    back_header, back = container.deserialize_matrix(
        container.serialize_matrix(header, rows)
    )
    assert back == rows
    assert back_header == header
    assert back_header.node_id == 2 and back_header.q == 5


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_roundtrip_random(case):
    q, rows = case
    header = container.ContainerHeader(q, 1, 2, 1, len(rows[0]), (0, 1))
    back_header, back = container.deserialize_matrix(
        container.serialize_matrix(header, rows)
    )
    assert back == rows and back_header == header


@pytest.mark.parametrize("q,width", [(2, 1), (257, 2), (65537, 3)])
def test_roundtrip_each_symbol_width(q, width):
    rng = np.random.default_rng(q)
    rows = [[0, 1, q - 1]] + [[int(v) for v in r]
                              for r in rng.integers(0, q, size=(4, 3))]
    header = container.ContainerHeader(q, 1, 4, 2, 3, (0, 1), 2)
    blob = container.serialize_matrix(header, rows)
    assert len(blob) == len(container.pack_header(header)) + 16 + 15 * width
    assert container.deserialize_matrix(blob) == (header, rows)
    # the first out-of-range symbol is the one named
    bad = bytearray(blob)
    bad[-2 * width:] = b"\xff" * (2 * width)
    with pytest.raises(ContainerError, match=f"symbol {256 ** width - 1} out"):
        container.deserialize_matrix(bytes(bad))


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


def test_out_of_range_symbol_rejected():
    params, _ = make_code(4, 2, F5, 1)
    header = container.header_for(params)
    with pytest.raises(ContainerError):
        container.serialize_matrix(header, [[5]])
    good = bytearray(container.serialize_matrix(header, [[1]]))
    good[-1] = 5
    with pytest.raises(ContainerError):
        container.deserialize_matrix(bytes(good))


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
    assert (back_header, back) == (header, rows)


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
