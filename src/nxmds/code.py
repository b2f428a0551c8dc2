"""The (n,k) MDS code in the row-extended layout.

Data is a matrix X with k*alpha rows and N columns, alpha = n - k.  The
message rows are split into alpha groups of k; group g is encoded with a
systematic Reed-Solomon (n,k) code, and node i stores one symbol row per
group.  Concretely, coded row i*alpha + g (0-based) is symbol i of group
g's codeword.  Stacking any k node blocks therefore determines X, and
locating erroneous node blocks in a hash vector reduces to alpha
independent classical RS decodes.

hash_word_decode is the one rule from decoded group words to flagged
nodes: it decodes a matrix of hash vectors, one per column, and both
verifier.verify (one column) and the Monte Carlo engine
(experiments.mc_failure_rate, a block of audits) go through it.  It
runs on the field's array kernel (matrix.kernel), for every field: the
block becomes one kernel array, every symbol checked once by the
kernel's asarray.  One parity product screens every group word of every
column; the errored ones decode together (_gao_block: one product with
Gao's interpolation matrix, the extended Euclid word by word, one
product with the evaluation rows), and one parity product confirms
every corrected word.  encode is one stacked product of the same
kernel.  The fixed arrays are cached per CodeParams (_tables), and
decode_codeword is the one-column case.

Evaluation points are the first n elements of the canonical enumeration
0, 1, g, g^2, ... (g the field's generator), so the construction is
reproducible from the parameters alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BadNodeId,
    FieldTooSmall,
    ShapeMismatch,
    SingularSystem,
    TooFewNodes,
)
from .field import iter_elements
from .matrix import kernel, mat_mul


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    field: object
    N: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n <= self.k:
            raise ValueError(f"need n > k, got n={self.n} k={self.k}")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.n > self.field.q:
            raise FieldTooSmall(
                f"n={self.n} distinct evaluation points need q >= n, "
                f"got q={self.field.q}"
            )

    @property
    def alpha(self) -> int:
        return self.n - self.k

    @property
    def t1(self) -> int:
        return (self.n - self.k) // 2

    @property
    def eval_points(self) -> tuple[int, ...]:
        return tuple(itertools.islice(iter_elements(self.field), self.n))

    def __repr__(self):
        return f"CodeParams(n={self.n}, k={self.k}, q={self.field.q}, N={self.N})"


@dataclass(frozen=True)
class GeneratorMatrix:
    """The k x n systematic per-group RS generator.  The full
    n*alpha x k*alpha generator is this block repeated on the diagonal,
    row-interleaved by node; encode applies it group-wise."""

    params: CodeParams
    rs: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _rs_rows(params: CodeParams) -> tuple[tuple[int, ...], ...]:
    """Systematic RS generator: row d, column i is L_d(pt_i), where L_d
    is the Lagrange basis polynomial through the first k points."""
    return tuple(zip(*_subset_weights(params, tuple(range(params.k)))))


def make_code(n: int, k: int, field, N: int = 1) -> tuple[CodeParams, GeneratorMatrix]:
    params = CodeParams(n, k, field, N)
    return params, GeneratorMatrix(params, _rs_rows(params))


def node_rows(params: CodeParams, i: int) -> range:
    """Row labels owned by node i, numbered from 1: (i-1)*alpha+1 .. i*alpha."""
    if not 1 <= i <= params.n:
        raise BadNodeId(f"node id {i} outside 1..{params.n}")
    a = params.alpha
    return range((i - 1) * a + 1, i * a + 1)


def encode(params: CodeParams, G: GeneratorMatrix, X) -> list[list[int]]:
    """Column-wise encoding: output row i*alpha+g is symbol i of group g's
    RS codeword: group g's k message rows times the n x k transpose
    of G.rs (the cached interpolation weights at anchors 0..k-1).

    Every symbol must be a field element (FieldMismatch otherwise): the
    data is checked by the kernel's asarray, then encoded by
    encode_array."""
    a, k, N = params.alpha, params.k, params.N
    if len(X) != k * a or any(len(row) != N for row in X):
        raise ShapeMismatch(f"data must be {k * a} x {N}")
    return encode_array(params, kernel(params.field).asarray(X)).tolist()


def encode_array(params: CodeParams, X: np.ndarray) -> np.ndarray:
    """encode from and to arrays of the field's kernel: X is the
    k*alpha x N data, whose entries must already be field elements (an
    rng's draw, or data the kernel's asarray checked); they are not
    checked again.  One stacked product of the n x k weights with all
    alpha groups, interleaved by node."""
    a, k, n, N = params.alpha, params.k, params.n, params.N
    groups = kernel(params.field).matmul(_tables(params)[0], X.reshape(a, k, N))
    return groups.transpose(1, 0, 2).reshape(n * a, N)  # groups: alpha x n x N


@lru_cache(maxsize=None)
def _subset_weights(params: CodeParams, positions: tuple[int, ...]):
    """n x k evaluation matrix: given codeword values at the k listed
    positions, left-multiplying recovers the whole codeword.  At
    positions 0..k-1 it is the transposed systematic generator."""
    f = params.field
    pts = params.eval_points
    anchor = [pts[p] for p in positions]
    k = len(anchor)
    W = []
    for i in range(params.n):
        row = []
        for j in range(k):
            num, den = 1, 1
            for l in range(k):
                if l != j:
                    num = f.mul(num, f.sub(pts[i], anchor[l]))
                    den = f.mul(den, f.sub(anchor[j], anchor[l]))
            row.append(f.div(num, den))
        W.append(tuple(row))
    return tuple(W)


def interpolate(params: CodeParams, nodes, targets) -> list[list[list[int]]]:
    """Blocks (alpha x N each) of the target node ids, rebuilt from >= k
    node contents {node id: alpha x N matrix}.

    The first k nodes (by id) anchor the interpolation, group by group;
    every further node is cross-checked against its prediction, and a
    mismatch raises SingularSystem (corrupted input).
    """
    items, targets = dict(nodes), list(targets)
    a, k, N = params.alpha, params.k, params.N
    for i in [*items, *targets]:
        if not 1 <= i <= params.n:
            raise BadNodeId(f"node id {i} outside 1..{params.n}")
    if len(items) < k:
        raise TooFewNodes(f"need {k} nodes, got {len(items)}")
    for i, content in items.items():
        if len(content) != a or any(len(row) != N for row in content):
            raise ShapeMismatch(f"node {i} content must be {a} x {N}")
    ids = sorted(items)
    anchors, extras = ids[:k], ids[k:]
    W = _subset_weights(params, tuple(i - 1 for i in anchors))
    # the rows that produce the targets, then those that predict the extras
    rows = tuple(W[i - 1] for i in targets + extras)
    blocks = [[None] * a for _ in targets]
    for g in range(a):
        cw = mat_mul(params.field, rows, [items[i][g] for i in anchors])
        for i, got in zip(extras, cw[len(targets):]):
            if got != list(items[i][g]):
                raise SingularSystem(
                    f"node {i} disagrees with interpolation in group {g}"
                )
        for block, row in zip(blocks, cw):
            block[g] = row
    return blocks


def erasure_decode(params: CodeParams, G: GeneratorMatrix, nodes) -> list[list[int]]:
    """Recover X from >= k node contents {node id: alpha x N matrix}.

    The code is systematic, so row g*k + d of X is group g's row of
    node d+1 as interpolate rebuilds it; a node beyond the first k that
    disagrees raises SingularSystem.
    """
    blocks = interpolate(params, nodes, range(1, params.k + 1))
    return [block[g] for g in range(params.alpha) for block in blocks]


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of decoding one received word against the (n,k) code."""

    ok: bool
    codeword: tuple[int, ...] | None
    message: tuple[int, ...] | None
    errors: frozenset[int] | None  # 0-based symbol positions


_UNDECODABLE = DecodeOutcome(False, None, None, None)


def _strip(a: list[int]) -> list[int]:
    """Drop trailing zero coefficients in place; the zero polynomial is []."""
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(f, a, b) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b != 0.  Polynomials are coefficient
    lists in ascending degree without trailing zeros."""
    r = list(a)
    *low, lead = b
    db = len(low)
    inv = f.inv(lead)
    q = [0] * max(len(r) - db, 0)
    for i in reversed(range(len(q))):
        c = q[i] = r[i + db] * inv % f.p if f.s == 1 else f.mul(r[i + db], inv)
        for j, x in enumerate(low, i):
            r[j] = (r[j] - c * x) % f.p if f.s == 1 else f.sub(r[j], f.mul(c, x))
    return q, _strip(r[:db])


def _poly_sub_mul(f, a, q, b) -> list[int]:
    """a - q*b."""
    out = list(a) + [0] * max(len(q) + len(b) - 1 - len(a), 0)
    for i, c in enumerate(q):
        for j, x in enumerate(b, i):
            out[j] = (out[j] - c * x) % f.p if f.s == 1 else f.sub(out[j], f.mul(c, x))
    return _strip(out)


@lru_cache(maxsize=None)
def _tables(params: CodeParams):
    """The code's fixed arrays, in the field's kernel: the n x k
    systematic weights (_subset_weights at anchors 0..k-1; encode's
    generator, whose rows k..n-1 are the parity checks), and Gao's fixed
    polynomials: g0 = prod (x - a_i) over the evaluation points (a
    tuple), the n x n interpolation matrix (row j maps a word to
    coefficient j of the polynomial of degree < n through it) and the
    n x k evaluation rows (1, a_i, ..., a_i^(k-1))."""
    f, k, pts = params.field, params.k, params.eval_points
    kern = kernel(f)
    g0 = [1]
    for a in pts:
        g0 = _poly_sub_mul(f, [0] + g0, [a], g0)
    columns = []
    for a in pts:
        # Lagrange basis polynomial of a: g0 / (x - a), scaled to 1 at a
        basis, _ = _poly_divmod(f, g0, [f.neg(a), 1])
        den = 1
        for b in pts:
            if b != a:
                den = f.mul(den, f.sub(a, b))
        inv = f.inv(den)
        columns.append([f.mul(inv, c) for c in basis])
    interp = list(zip(*columns))
    evals = [[f.pow(a, j) for j in range(k)] for a in pts]
    weights = _subset_weights(params, tuple(range(k)))
    return kern.asarray(weights), tuple(g0), kern.asarray(interp), kern.asarray(evals)


def _parity_fails(params: CodeParams, words: np.ndarray) -> np.ndarray:
    """Per column of the n x m kernel array: whether the word fails the
    code's n-k parity checks, i.e. its last n-k symbols differ from the
    systematic interpolation of its first k."""
    k = params.k
    checks = _tables(params)[0][k:]
    return (kernel(params.field).matmul(checks, words[:k]) != words[k:]).any(axis=0)


def _column(params: CodeParams, word) -> np.ndarray:
    """The n-symbol word as an n x 1 kernel array, every symbol checked."""
    if len(word) != params.n:
        raise ShapeMismatch(f"received word must have {params.n} symbols")
    return kernel(params.field).asarray([[v] for v in word])


def is_codeword(params: CodeParams, word) -> bool:
    """True when the n-symbol word satisfies the code's n-k parity
    checks."""
    return not _parity_fails(params, _column(params, word))[0]


def decode_codeword(params: CodeParams, word) -> DecodeOutcome:
    """Bounded-distance decoding: the unique codeword within distance t1
    of the word, or failure.  The one-column case of _decode_words.

    A codeword within t1 is unique (2*t1 < n-k+1), so this is also the
    minimum-distance answer whenever one exists within the radius.  A
    word that passes is_codeword is returned as is.  Any other word
    goes through Gao's decoder (S. Gao, "A new algorithm for
    decoding Reed-Solomon codes", 2003): interpolate g1 through the word,
    run the extended Euclidean algorithm on g0 = prod (x - a_i) and g1
    until the remainder g = u*g0 + v*g1 has degree < (n+k)/2, and divide
    g by v.  With at most t1 errors the division is exact and the
    quotient is the message polynomial.  The result is accepted only
    when the remainder is 0 and the quotient has degree < k.  That costs
    O(n^2) field operations per word.
    """
    received = _column(params, word)
    cw, ok = _decode_words(params, received)
    if not ok[0]:
        return _UNDECODABLE
    errs = frozenset(np.flatnonzero(cw[:, 0] != received[:, 0]).tolist())
    cw = tuple(cw[:, 0].tolist())
    return DecodeOutcome(True, cw, cw[:params.k], errs)


def hash_word_decode(params: CodeParams, H) -> list[frozenset[int] | None]:
    """The verifier's rule from hash vectors to flagged nodes.  H has
    n*alpha rows, one column per hash vector in node-block order, so
    row i*alpha + g is symbol i of group g's word and H[g::alpha] holds
    group g's word of every column.  Every symbol must be a field
    element (FieldMismatch otherwise; the kernel's asarray is the check).
    Per column the result is the 1-based node ids at the union of its
    groups' error positions, or None when any group word is
    undecodable.  A word the decoder corrected that is not a codeword
    means the construction is broken: SingularSystem.

    H is viewed as the n x alpha*B matrix of every group word of the
    block (column g*B + b is group g's word of hash vector b), and all
    of them go through one _decode_words call."""
    a, n = params.alpha, params.n
    if len(H) != n * a:
        raise ShapeMismatch(f"hash vectors must have {n * a} symbols")
    H = kernel(params.field).asarray(H)
    B = H.shape[1]
    words = H.reshape(n, a * B)
    cw, ok = _decode_words(params, words)
    nodes = (cw != words).reshape(n, a, B).any(axis=1).T.tolist()
    lost = (~ok).reshape(a, B).any(axis=0).tolist()
    return [None if gone else frozenset(i for i, bad in enumerate(row, 1) if bad)
            for row, gone in zip(nodes, lost)]


def _decode_words(params: CodeParams, words: np.ndarray):
    """Every column of the n x m kernel array `words` decoded: returns
    the codewords (n x m) and the mask of decodable columns.  One parity
    product screens the columns; only those that fail it go through
    _gao_block, together.  An undecodable column keeps its received
    symbols.  One parity product confirms every corrected word
    (SingularSystem when one is not a codeword)."""
    cw, ok = words.copy(), np.ones(words.shape[1], dtype=bool)
    errored = np.flatnonzero(_parity_fails(params, words))
    if errored.size:
        fixed, good = _gao_block(params, words[:, errored])
        if _parity_fails(params, fixed[:, good]).any():
            raise SingularSystem("corrected hash word is not a codeword")
        cw[:, errored[good]] = fixed[:, good]
        ok[errored[~good]] = False
    return cw, ok


def _gao_block(params: CodeParams, words):
    """Gao's decoder (decode_codeword) on every column of the n x m
    kernel array `words`: one product with the interpolation matrix gives
    every word's g1, the extended Euclid runs word by word
    (_gao_message), and one product with the evaluation rows re-encodes
    the messages.  Returns the codewords (n x m) and the mask of words
    whose Euclid ended in an exact division of degree < k.  Such a word
    needs no radius test: its errors lie at roots of v1, and
    deg v1 = n - deg r0 <= (n-k)/2 when the Euclid stops."""
    n, k, f = params.n, params.k, params.field
    kern = kernel(f)
    _, g0, interp, evals = _tables(params)
    msgs, ok = [], []
    for g1 in kern.matmul(interp, words).T.tolist():
        msg = _gao_message(f, n, k, g0, g1)
        ok.append(msg is not None)
        msgs.append(msg or [0] * k)
    return kern.matmul(evals, np.array(msgs, dtype=kern.dtype).T), np.array(ok)


def _gao_message(f, n: int, k: int, g0, g1) -> list[int] | None:
    """Gao's extended Euclid and final division from the interpolated
    g1: the k message coefficients, or None when the division is not
    exact or its degree is >= k."""
    r0, r1 = g0, _strip(g1)
    v0, v1 = [], [1]
    while 2 * (len(r1) - 1) >= n + k:  # deg r1 >= (n+k)/2
        quot, rem = _poly_divmod(f, r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, _poly_sub_mul(f, v0, quot, v1)
    msg, rem = _poly_divmod(f, r1, v1)
    if rem or len(msg) > k:
        return None
    return msg + [0] * (k - len(msg))
