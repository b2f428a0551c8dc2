"""On-disk container format for data, node slices, hashes, and seeds.

Every file starts with a fixed header (magic, version, code parameters,
field modulus, node id) followed by one row-major symbol matrix framed
by its row and column counts.  Symbols occupy a whole number of
little-endian bytes each; sub-byte packing is deliberately avoided so
files stay inspectable with a hex dump.  The bit-exact figures live in
the accounting report instead.

A symbol is an `int` (bools count, as 0 and 1) in [0, q).  A matrix is
written from a list of rows, where anything else is refused (numpy
integer scalars included), or from a 2-D ndarray of an integer dtype
(or of object dtype holding ints).  matrix.symbol_matrix, the kernels'
own element test, checks it: entry types scanned, then one vectorised
range test.  A read returns an ndarray: int64 when q <= 2^63, Python
ints in object dtype above, its stored values range-tested the same
way.  A bad symbol raises ContainerError naming the first one in
row-major order, on write and on read alike.
The codec packs a whole matrix in one numpy pass: symbols are staged as
little-endian uint64 and the low `symbol_width(q)` bytes of each are
kept, and reading reverses that, so every width up to 8 bytes takes the
same path.  Symbols wider than 8 bytes (q > 2^64) do not fit the
staging view and are packed one `int.to_bytes` at a time instead.
"""

import os
from dataclasses import dataclass

import numpy as np

from .code import CodeParams, make_code
from .errors import BadMagic, ContainerError, ShapeMismatch, TruncatedPayload, VersionMismatch
from .field import make_field, symbol_bits
from .matrix import symbol_matrix

MAGIC = b"NXMDS1"
VERSION = 1
# bytes per symbol of the numpy staging view; wider symbols (q > 2^64)
# are packed one at a time
_STAGE = 8


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
    if tuple(header.modulus) != field.modulus:
        raise ContainerError(
            f"modulus {header.modulus} is not the canonical modulus "
            f"{field.modulus} for GF({header.p}^{header.s})"
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


def _symbols(rows, q: int) -> np.ndarray:
    """`rows` as a 2-D ndarray once every symbol passed the module
    docstring's rule (matrix.symbol_matrix, the kernels' element test),
    with the container's messages: the first bad symbol in row-major
    order, a ragged matrix, or a wrong number of dimensions."""

    def check(v):
        if not isinstance(v, int):
            raise ContainerError(f"symbol {v!r} is not an integer")
        if not 0 <= v < q:
            raise ContainerError(f"symbol {v} out of range for q={q}")

    try:
        return symbol_matrix(rows, q, check)
    except ShapeMismatch as exc:  # the number of dimensions, or a list's ragged rows
        message = str(exc)
        raise ContainerError("ragged matrix" if message == "rows must share one length"
                             else message) from None


def serialize_matrix(header: ContainerHeader, rows) -> bytes:
    q = header.q
    width = symbol_width(q)
    head = pack_header(header)
    symbols = _symbols(rows, q)
    nrows, cols = symbols.shape
    if nrows and not cols:  # deserialize_matrix refuses such a frame
        raise ContainerError(f"matrix {nrows} x 0: rows without columns")
    frame = head + _u64(nrows) + _u64(cols)
    if width > _STAGE:
        return frame + b"".join(v.to_bytes(width, "little") for row in symbols.tolist() for v in row)
    staged = symbols.astype("<u8", order="C")
    return frame + staged.view(np.uint8).reshape(-1, _STAGE)[:, :width].tobytes()


def deserialize_matrix(data: bytes) -> tuple[ContainerHeader, np.ndarray]:
    header, pos = parse_header(data)
    if len(data) < pos + 16:
        raise TruncatedPayload("missing matrix frame")
    nrows = int.from_bytes(data[pos:pos + 8], "little")
    ncols = int.from_bytes(data[pos + 8:pos + 16], "little")
    pos += 16
    if nrows and not ncols:  # it holds no symbols, so no byte bounds nrows
        raise ContainerError(f"matrix frame {nrows} x 0 too large: rows without columns")
    q = header.q
    width = symbol_width(q)
    need = nrows * ncols * width
    if len(data) < pos + need:
        raise TruncatedPayload(
            f"payload needs {need} bytes, only {len(data) - pos} present"
        )
    if len(data) > pos + need:
        raise ContainerError("trailing bytes after payload")
    if width > _STAGE:
        flat = np.array([int.from_bytes(data[j:j + width], "little")
                         for j in range(pos, pos + need, width)], dtype=object)
    else:
        stage = np.zeros((nrows * ncols, _STAGE), np.uint8)
        stage[:, :width] = np.frombuffer(data, np.uint8, need, pos).reshape(-1, width)
        flat = stage.view("<u8")
    try:
        symbols = flat.reshape(nrows, ncols)
    except ValueError as exc:  # an empty frame too large for numpy to shape
        raise ContainerError(f"matrix frame {nrows} x {ncols} too large") from exc
    return header, _symbols(symbols, q).astype(np.int64 if q <= 2 ** 63 else object, copy=False)


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


def read_matrix(path) -> tuple[ContainerHeader, np.ndarray]:
    with open(path, "rb") as fh:
        return deserialize_matrix(fh.read())
