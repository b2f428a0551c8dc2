"""On-disk container format for data, node slices, hashes, and seeds.

Every file starts with a fixed header (magic, version, code parameters,
field modulus, node id) followed by one row-major symbol matrix framed
by its row and column counts.  Symbols occupy a whole number of
little-endian bytes each; sub-byte packing is deliberately avoided so
files stay inspectable with a hex dump.  The bit-exact figures live in
the accounting report instead.
"""

import os
from dataclasses import dataclass

from .code import CodeParams, make_code
from .errors import BadMagic, ContainerError, TruncatedPayload, VersionMismatch
from .field import lowest_irreducible, make_field, symbol_bits

MAGIC = b"NXMDS1"
VERSION = 1


@dataclass(frozen=True)
class ContainerHeader:
    """Parameters identifying the code and (for node files) the node.

    node_id 0 marks a file that is not tied to a single node: the
    message matrix, a hash vector, or a generator seed.
    """

    p: int
    s: int
    n: int
    k: int
    N: int
    modulus: tuple
    node_id: int = 0

    @property
    def q(self) -> int:
        return self.p ** self.s


def symbol_width(q: int) -> int:
    """Bytes used to store one F_q symbol."""
    return (symbol_bits(q) + 7) // 8


def header_for(params: CodeParams, node_id: int = 0) -> ContainerHeader:
    f = params.field
    return ContainerHeader(f.p, f.s, params.n, params.k, params.N,
                           tuple(f.modulus), node_id)


def code_for(header: ContainerHeader):
    """Rebuild (CodeParams, GeneratorMatrix) from a parsed header.

    The stored modulus must be the canonical one for (p, s); anything
    else would silently change the arithmetic, so it is rejected.
    """
    field = make_field(header.p, header.s)
    expected = (lowest_irreducible(make_field(header.p), header.s)
                if header.s > 1 else (0, 1))
    if tuple(header.modulus) != expected:
        raise ContainerError(
            f"modulus {header.modulus} is not the canonical modulus "
            f"{expected} for GF({header.p}^{header.s})"
        )
    return make_code(header.n, header.k, field, header.N)


def _u64(value: int) -> bytes:
    return value.to_bytes(8, "little")


def pack_header(header: ContainerHeader) -> bytes:
    if len(header.modulus) != header.s + 1:
        raise ContainerError(
            f"modulus needs {header.s + 1} coefficients, got {len(header.modulus)}"
        )
    if any(not 0 <= c <= 255 for c in header.modulus):
        raise ContainerError("modulus coefficients must fit in one byte each")
    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    for value in (header.p, header.s, header.n, header.k, header.N):
        out += _u64(value)
    out += bytes(header.modulus)
    out += _u64(header.node_id)
    return bytes(out)


def parse_header(data: bytes) -> tuple[ContainerHeader, int]:
    """Return (header, offset of first payload byte)."""
    if len(data) < len(MAGIC) + 1:
        raise TruncatedPayload("file shorter than magic and version")
    if data[: len(MAGIC)] != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, got {data[:len(MAGIC)]!r}")
    version = data[len(MAGIC)]
    if version != VERSION:
        raise VersionMismatch(f"unsupported format version {version}")
    pos = len(MAGIC) + 1
    fixed = []
    for _ in range(5):
        if len(data) < pos + 8:
            raise TruncatedPayload("header cut short")
        fixed.append(int.from_bytes(data[pos:pos + 8], "little"))
        pos += 8
    p, s, n, k, N = fixed
    if len(data) < pos + s + 1 + 8:
        raise TruncatedPayload("header cut short")
    modulus = tuple(data[pos:pos + s + 1])
    pos += s + 1
    node_id = int.from_bytes(data[pos:pos + 8], "little")
    pos += 8
    return ContainerHeader(p, s, n, k, N, modulus, node_id), pos


def serialize_matrix(header: ContainerHeader, rows) -> bytes:
    q = header.q
    width = symbol_width(q)
    cols = len(rows[0]) if rows else 0
    out = bytearray(pack_header(header))
    out += _u64(len(rows))
    out += _u64(cols)
    for row in rows:
        if len(row) != cols:
            raise ContainerError("ragged matrix")
        for v in row:
            if not 0 <= v < q:
                raise ContainerError(f"symbol {v} out of range for q={q}")
            out += v.to_bytes(width, "little")
    return bytes(out)


def deserialize_matrix(data: bytes) -> tuple[ContainerHeader, list[list[int]]]:
    header, pos = parse_header(data)
    if len(data) < pos + 16:
        raise TruncatedPayload("missing matrix frame")
    nrows = int.from_bytes(data[pos:pos + 8], "little")
    ncols = int.from_bytes(data[pos + 8:pos + 16], "little")
    pos += 16
    q = header.q
    width = symbol_width(q)
    need = nrows * ncols * width
    if len(data) < pos + need:
        raise TruncatedPayload(
            f"payload needs {need} bytes, only {len(data) - pos} present"
        )
    if len(data) > pos + need:
        raise ContainerError("trailing bytes after payload")
    flat = [int.from_bytes(data[j:j + width], "little")
            for j in range(pos, pos + need, width)]
    if flat and max(flat) >= q:
        v = next(v for v in flat if v >= q)
        raise ContainerError(f"symbol {v} out of range for q={q}")
    return header, [flat[r * ncols:(r + 1) * ncols] for r in range(nrows)]


def write_matrix(path, header: ContainerHeader, rows) -> None:
    """Write to a temporary file beside `path`, then rename it over
    `path`: a failed write leaves any previous file as it was."""
    data = serialize_matrix(header, rows)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_matrix(path) -> tuple[ContainerHeader, list[list[int]]]:
    with open(path, "rb") as fh:
        return deserialize_matrix(fh.read())
