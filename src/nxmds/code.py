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
takes one of two paths, chosen here on the field type, as matrix does:

  bulk     a PrimeField whose sums of n products fit int64
           (matrix.int64_fits): the block becomes one int64 array,
           every symbol checked once by one vectorised range test
           (matrix.int64_checked; verifier.verify, which takes outside
           input, checks each symbol with field.check first).  One parity product screens every
           group word of every column; the errored ones decode together
           (_gao_block: one product with Gao's interpolation matrix, the
           extended Euclid word by word in native ints, one product with
           the evaluation rows), and one parity product confirms every
           corrected word.  The int64 tables are cached per CodeParams.
  scalar   any other field object (an extension field, a p past int64,
           an instrumented wrapper such as experiments.CountingField):
           every symbol goes through field.check, then each group is
           screened by decode_columns and its errored words decode one
           by one through _gao_decode, every operation a field call.
           decode_codeword is this path for one word, and the reference
           the bulk path is tested against.

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
from .field import PrimeField, iter_elements
from .matrix import dot, int64_checked, int64_fits, mat_mul, mat_vec, prime_checked


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

    Every symbol must be a field element (FieldMismatch otherwise).  Over
    a PrimeField whose sums of k products fit int64 the symbols pass one
    type-and-range test each (matrix.prime_checked) and go through
    encode_array; over any other field each group is one mat_mul, every
    operation a field call."""
    a, k, n, N = params.alpha, params.k, params.n, params.N
    if len(X) != k * a or any(len(row) != N for row in X):
        raise ShapeMismatch(f"data must be {k * a} x {N}")
    if _int64_generator(params) is not None:
        prime_checked(params.field, X)
        return encode_array(params, np.array(X, dtype=np.int64)).tolist()
    W = _subset_weights(params, tuple(range(k)))  # n x k
    groups = [mat_mul(params.field, W, X[g * k:(g + 1) * k]) for g in range(a)]
    return [groups[g][i] for i in range(n) for g in range(a)]


def encode_array(params: CodeParams, X: np.ndarray) -> np.ndarray:
    """encode over a PrimeField, from and to int64 arrays: X is the
    k*alpha x N data, whose entries must already be field elements (an
    rng's draw in [0, p), or data encode checked); they are not checked
    again.  When the field's sums of k products fit int64 this is one
    batched product of the n x k weights with all alpha groups,
    interleaved by node; otherwise it is encode's per-group path."""
    W = _int64_generator(params)
    if W is None:
        return np.array(encode(params, None, X.tolist()), dtype=np.int64)
    a, k, n, N = params.alpha, params.k, params.n, params.N
    groups = W @ X.reshape(a, k, N) % params.field.p  # alpha x n x N
    return groups.transpose(1, 0, 2).reshape(n * a, N)


@lru_cache(maxsize=None)
def _int64_generator(params: CodeParams):
    """encode's weights (_subset_weights at anchors 0..k-1) as an n x k
    int64 array; None unless the field is a PrimeField whose sums of k
    products fit int64."""
    f = params.field
    if not isinstance(f, PrimeField) or not int64_fits(f.p, params.k):
        return None
    return np.array(_subset_weights(params, tuple(range(params.k))), dtype=np.int64)


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
        c = q[i] = f.mul(r[i + db], inv)
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
def _decoder_tables(params: CodeParams):
    """What is_codeword and decode_codeword need besides the word: the
    systematic weights of positions k..n-1 (_subset_weights at anchors
    0..k-1), and Gao's fixed polynomials: g0 = prod (x - a_i) over the
    evaluation points, the n x n interpolation matrix (row j maps a word
    to coefficient j of the polynomial of degree < n through it) and
    the n x k evaluation rows (1, a_i, ..., a_i^(k-1))."""
    f, k, pts = params.field, params.k, params.eval_points
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
    interp = tuple(zip(*columns))
    evals = tuple(tuple(f.pow(a, j) for j in range(k)) for a in pts)
    checks = _subset_weights(params, tuple(range(k)))[k:]
    return checks, tuple(g0), interp, evals


def is_codeword(params: CodeParams, word) -> bool:
    """True when the n-symbol word satisfies the code's n-k parity
    checks: its last n-k symbols are the systematic interpolation of
    its first k.  Costs n-k dot products of length k."""
    k, f = params.k, params.field
    head = word[:k]
    checks = _decoder_tables(params)[0]
    return all(dot(f, row, head) == v for row, v in zip(checks, word[k:]))


def decode_codeword(params: CodeParams, word) -> DecodeOutcome:
    """Bounded-distance decoding: the unique codeword within distance t1
    of the word, or failure.

    A codeword within t1 is unique (2*t1 < n-k+1), so this is also the
    minimum-distance answer whenever one exists within the radius.  A
    word that passes is_codeword is returned as is.  Any other word
    goes through Gao's decoder (S. Gao, "A new algorithm for
    decoding Reed-Solomon codes", 2003): interpolate g1 through the word,
    run the extended Euclidean algorithm on g0 = prod (x - a_i) and g1
    until the remainder g = u*g0 + v*g1 has degree < (n+k)/2, and divide
    g by v.  With at most t1 errors the division is exact and the
    quotient is the message polynomial.  The result is accepted only
    when the remainder is 0, the quotient has degree < k and its
    codeword differs from the word in at most t1 positions.  That costs
    O(n^2) field operations per word.
    """
    n, k = params.n, params.k
    if len(word) != n:
        raise ShapeMismatch(f"received word must have {n} symbols")
    word = tuple(word)
    if is_codeword(params, word):
        return DecodeOutcome(True, word, word[:k], frozenset())
    return _gao_decode(params, word)


def _gao_decode(params: CodeParams, word: tuple[int, ...]) -> DecodeOutcome:
    """decode_codeword past its parity check: Gao's decoder on an
    n-symbol word that is not a codeword."""
    n, k, f = params.n, params.k, params.field
    _, g0, interp, evals = _decoder_tables(params)
    r0, r1 = g0, _strip(mat_vec(f, interp, word))
    v0, v1 = [], [1]
    while 2 * (len(r1) - 1) >= n + k:  # deg r1 >= (n+k)/2
        quot, rem = _poly_divmod(f, r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, _poly_sub_mul(f, v0, quot, v1)
    msg, rem = _poly_divmod(f, r1, v1)
    if rem or len(msg) > k:
        return _UNDECODABLE
    msg += [0] * (k - len(msg))
    cw = tuple(mat_vec(f, evals, msg))
    errs = frozenset(p for p in range(n) if cw[p] != word[p])
    if len(errs) > params.t1:
        return _UNDECODABLE
    return DecodeOutcome(True, cw, cw[:k], errs)


def decode_columns(params: CodeParams, words) -> dict[int, DecodeOutcome]:
    """decode_codeword for a block of words, the columns of the n-row
    matrix `words`, keyed by column.  One product of the parity checks
    with the block's first k rows screens every column, with the test of
    is_codeword; the clean columns are left out of the result, and only
    the others go through Gao's decoder."""
    n, k = params.n, params.k
    if len(words) != n:
        raise ShapeMismatch(f"a block of words must have {n} rows")
    parity = mat_mul(params.field, _decoder_tables(params)[0], words[:k])
    return {
        b: _gao_decode(params, tuple(row[b] for row in words))
        for b, (want, got) in enumerate(zip(zip(*parity), zip(*words[k:])))
        if want != got
    }


def hash_word_decode(params: CodeParams, H) -> list[frozenset[int] | None]:
    """The verifier's rule from hash vectors to flagged nodes.  H has
    n*alpha rows, one column per hash vector in node-block order, so
    row i*alpha + g is symbol i of group g's word and H[g::alpha] holds
    group g's word of every column.  Every symbol must be a field
    element (FieldMismatch otherwise).  Per column the result is the
    1-based node ids at the union of its groups' error positions, or
    None when any group word is undecodable.  A word the decoder
    corrected that is not a codeword means the construction is broken:
    SingularSystem.

    Over a PrimeField whose sums of n products fit int64 the whole
    block goes through _bulk_hash_word_decode; any other field object
    (an extension field, a p past int64, an instrumented wrapper) takes
    the scalar reference: each group is screened by one decode_columns
    call, every symbol checked by the field."""
    a, n = params.alpha, params.n
    if len(H) != n * a:
        raise ShapeMismatch(f"hash vectors must have {n * a} symbols")
    if _bulk_tables(params) is not None:
        return _bulk_hash_word_decode(params, H)
    if isinstance(H, np.ndarray):
        H = H.tolist()
    for row in H:
        for v in row:
            params.field.check(v)
    flagged = [set() for _ in H[0]]
    undecodable = set()
    for g in range(a):
        for b, out in decode_columns(params, H[g::a]).items():
            if not out.ok:
                undecodable.add(b)
            elif not is_codeword(params, out.codeword):
                raise SingularSystem("corrected hash word is not a codeword")
            else:
                flagged[b].update(p + 1 for p in out.errors)
    return [None if b in undecodable else frozenset(nodes)
            for b, nodes in enumerate(flagged)]


@lru_cache(maxsize=None)
def _bulk_tables(params: CodeParams):
    """_decoder_tables for the bulk path: the parity checks, the
    interpolation matrix and the evaluation rows as int64 arrays, g0 as
    a tuple.  None when the bulk path does not apply: the field is not a
    PrimeField, or a sum of n products mod p could pass int64 (every
    product of the path sums at most n)."""
    f = params.field
    if not isinstance(f, PrimeField) or not int64_fits(f.p, params.n):
        return None
    checks, g0, interp, evals = _decoder_tables(params)
    return (np.array(checks, np.int64), g0,
            np.array(interp, np.int64), np.array(evals, np.int64))


def _bulk_hash_word_decode(params: CodeParams, H) -> list[frozenset[int] | None]:
    """hash_word_decode over GF(p) in int64 arrays.  H becomes one
    int64 array, range-checked once, and is viewed as the n x alpha*B
    matrix of every group word of the block (column g*B + b is group
    g's word of hash vector b).  One parity product screens them all;
    the errored ones decode together in _gao_block, and one parity
    product confirms every corrected word."""
    n, k, a, p = params.n, params.k, params.alpha, params.field.p
    checks = _bulk_tables(params)[0]
    H = int64_checked(params.field, H)
    B = H.shape[1]
    words = H.reshape(n, a * B)
    errored = np.flatnonzero(((checks @ words[:k]) % p != words[k:]).any(axis=0))
    flagged = np.zeros((n, a * B), dtype=bool)
    undecodable = np.zeros(a * B, dtype=bool)
    if errored.size:
        received = words[:, errored]
        cw, ok = _gao_block(params, received)
        errs = cw != received
        if ((checks @ cw[:k, ok]) % p != cw[k:, ok]).any():
            raise SingularSystem("corrected hash word is not a codeword")
        flagged[:, errored[ok]] = errs[:, ok]
        undecodable[errored[~ok]] = True
    nodes = flagged.reshape(n, a, B).any(axis=1).T.tolist()
    lost = undecodable.reshape(a, B).any(axis=0).tolist()
    return [None if gone else frozenset(i for i, bad in enumerate(row, 1) if bad)
            for row, gone in zip(nodes, lost)]


def _gao_block(params: CodeParams, words):
    """Gao's decoder, as in _gao_decode, on every column of the n x m
    int64 array `words`: one product with the interpolation matrix gives
    every word's g1, the extended Euclid runs word by word in native
    ints (_gao_message), and one product with the evaluation rows
    re-encodes the messages.  Returns the codewords (n x m) and the
    mask of words whose Euclid ended in an exact division of degree < k.
    Such a word needs no radius test: its errors lie at roots of v1, and
    deg v1 = n - deg r0 <= (n-k)/2 when the Euclid stops."""
    n, k, p = params.n, params.k, params.field.p
    _, g0, interp, evals = _bulk_tables(params)
    msgs, ok = [], []
    for g1 in ((interp @ words) % p).T.tolist():
        msg = _gao_message(p, n, k, g0, g1)
        ok.append(msg is not None)
        msgs.append(msg or [0] * k)
    return (evals @ np.array(msgs, dtype=np.int64).T) % p, np.array(ok)


def _gao_message(p: int, n: int, k: int, g0, g1) -> list[int] | None:
    """_gao_decode's extended Euclid and final division over GF(p) in
    native ints, from the interpolated g1: the k message coefficients,
    or None when the division is not exact or its degree is >= k."""
    r0, r1 = g0, _strip(g1)
    v0, v1 = [], [1]
    while 2 * (len(r1) - 1) >= n + k:  # deg r1 >= (n+k)/2
        quot, rem = _divmod_p(p, r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, _sub_mul_p(p, v0, quot, v1)
    msg, rem = _divmod_p(p, r1, v1)
    if rem or len(msg) > k:
        return None
    return msg + [0] * (k - len(msg))


def _divmod_p(p: int, a, b) -> tuple[list[int], list[int]]:
    """_poly_divmod over GF(p) in native ints, reducing each
    coefficient only when it is read."""
    r = list(a)
    *low, lead = b
    db = len(low)
    inv = pow(lead, -1, p)
    q = [0] * max(len(r) - db, 0)
    for i in reversed(range(len(q))):
        c = q[i] = r[i + db] * inv % p
        for j, x in enumerate(low, i):
            r[j] -= c * x
    return q, _strip([x % p for x in r[:db]])


def _sub_mul_p(p: int, a, q, b) -> list[int]:
    """_poly_sub_mul over GF(p) in native ints: a - q*b."""
    out = list(a) + [0] * max(len(q) + len(b) - 1 - len(a), 0)
    for i, c in enumerate(q):
        for j, x in enumerate(b, i):
            out[j] -= c * x
    return _strip([x % p for x in out])
