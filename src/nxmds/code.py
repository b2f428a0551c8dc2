"""The (n,k) MDS code in the row-extended layout.

Data is a matrix X with k*alpha rows and N columns, alpha = n - k.  The
message rows are split into alpha groups of k; group g is encoded with a
systematic Reed-Solomon (n,k) code, and node i stores one symbol row per
group.  Every per-node array is node-major: encode_array gives
n x alpha x N, and [i, g] (0-based) is symbol i of group g's codeword.
A hash vector is a column of n*alpha symbols in node-block order, so
its row i*alpha + g is [i, g] flattened (node_rows, hash_word_decode).
Stacking any k node blocks therefore determines X, and locating
erroneous node blocks in a hash vector reduces to alpha independent
classical RS decodes.  Node ids are 1-based and checked by
check_node_id alone.

hash_word_decode is the one rule from decoded group words to flagged
nodes: it decodes a matrix of hash vectors, one per column, and both
verifier.verify (one column) and the Monte Carlo engine
(experiments.mc_failure_rate, a block of audits) go through it.  It
runs on the field's array kernel (matrix.kernel), for every field: the
block becomes one kernel array, every symbol checked once by the
kernel's asarray.  One syndrome product with the GRS parity-check
matrix screens every group word of every column; the errored ones
decode together in a fixed number of kernel operations (_lockstep_block:
inversionless Berlekamp-Massey, a Chien search and Forney's formula,
over all words at once), and one parity product confirms every
corrected word.  Gao's decoder is the independent check in
tests/oracles.py.  encode_array and interpolate are each one stacked
product of the same kernel over the alpha groups and, like
erasure_decode, answer in its arrays.  The fixed arrays are cached per
CodeParams (_tables), and decode_codeword is the one-column case.

Evaluation points are the first n elements of the canonical enumeration
0, 1, g, g^2, ... (g the field's generator), so the construction is
reproducible from the parameters alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    BadNodeId,
    FieldTooSmall,
    ShapeMismatch,
    SingularSystem,
    TooFewNodes,
)
from .field import iter_elements
from .matrix import kernel


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
    """The code's generator, named by its parameters: per group the
    systematic RS generator, which encode_array applies group-wise from
    the cached weights (_tables)."""

    params: CodeParams


def make_code(n: int, k: int, field, N: int = 1) -> tuple[CodeParams, GeneratorMatrix]:
    params = CodeParams(n, k, field, N)
    return params, GeneratorMatrix(params)


def check_node_id(params: CodeParams, i: int) -> int:
    """i, once it is a node id of the code (1..n); BadNodeId otherwise."""
    if not 1 <= i <= params.n:
        raise BadNodeId(f"node id {i} outside 1..{params.n}")
    return i


def node_rows(params: CodeParams, i: int) -> range:
    """Row labels owned by node i in a hash vector, numbered from 1:
    (i-1)*alpha+1 .. i*alpha."""
    a = params.alpha
    return range((check_node_id(params, i) - 1) * a + 1, i * a + 1)


def encode_array(params: CodeParams, X) -> np.ndarray:
    """Column-wise encoding into an n x alpha x N array of the field's
    kernel, node-major: [i, g] is symbol i of group g's RS codeword,
    group g's k message rows times the n x k systematic weights (the
    interpolation weights at anchors 0..k-1).  X is the k*alpha x N data
    as a list of rows or an array; every symbol must be a field element
    (FieldMismatch otherwise, from the kernel's asarray).  One stacked
    product with all alpha groups, its group and node axes swapped."""
    a, k, N = params.alpha, params.k, params.N
    kern = kernel(params.field)
    X = kern.asarray(X)
    if X.shape != (k * a, N):
        raise ShapeMismatch(f"data must be {k * a} x {N}")
    groups = kern.matmul(_tables(params).weights, X.reshape(a, k, N))
    return groups.transpose(1, 0, 2)  # groups: alpha x n x N


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


def interpolate(params: CodeParams, nodes, targets) -> np.ndarray:
    """Blocks of the target node ids, a targets x alpha x N kernel
    array, rebuilt from >= k node contents {node id: alpha x N matrix},
    given as lists of rows or arrays and checked by the kernel's asarray.

    The first k nodes (by id) anchor the interpolation.  One stacked
    kernel product over the alpha groups applies their weights both to
    the targets and to every further node, whose prediction must match
    its content: a mismatch raises SingularSystem (corrupted input).
    """
    given, targets, kern = dict(nodes), list(targets), kernel(params.field)
    a, k, N = params.alpha, params.k, params.N
    for i in [*given, *targets]:
        check_node_id(params, i)
    if len(given) < k:
        raise TooFewNodes(f"need {k} nodes, got {len(given)}")
    ids = sorted(given)
    items = {i: kern.asarray(given[i]) for i in ids}
    for i, content in items.items():
        if content.shape != (a, N):
            raise ShapeMismatch(f"node {i} content must be {a} x {N}")
    anchors, extras = ids[:k], ids[k:]
    W = kern.asarray(_subset_weights(params, tuple(i - 1 for i in anchors)))
    # the rows that produce the targets, then those that predict the extras
    rows = W[[i - 1 for i in targets + extras]]
    # cw[g] holds group g of every target, then every extra
    cw = kern.matmul(rows, np.stack([items[i] for i in anchors], axis=1))
    if extras:
        off = (cw[:, len(targets):] != np.stack([items[i] for i in extras], axis=1)).any(axis=2)
        if off.any():
            g, j = np.argwhere(off)[0]
            raise SingularSystem(f"node {extras[j]} disagrees with interpolation in group {g}")
    return cw[:, :len(targets)].transpose(1, 0, 2)


def erasure_decode(params: CodeParams, nodes) -> np.ndarray:
    """Recover X, a k*alpha x N kernel array, from >= k node contents
    {node id: alpha x N matrix}.

    The code is systematic, so row g*k + d of X is group g's row of
    node d+1 as interpolate rebuilds it; a node beyond the first k that
    disagrees raises SingularSystem.
    """
    blocks = interpolate(params, nodes, range(1, params.k + 1))
    return blocks.transpose(1, 0, 2).reshape(params.k * params.alpha, params.N)


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of decoding one received word against the (n,k) code."""

    ok: bool
    codeword: tuple[int, ...] | None
    message: tuple[int, ...] | None
    errors: frozenset[int] | None  # 0-based symbol positions


_UNDECODABLE = DecodeOutcome(False, None, None, None)


class _Tables(NamedTuple):
    """The code's fixed arrays, in the field's kernel (_tables)."""

    weights: np.ndarray  # n x k systematic weights; encode's generator
    checks: np.ndarray   # n-k x n parity checks H[j][i] = v_i a_i^j
    chien: np.ndarray    # t1+1 x n-1: a_i^-j at the nonzero points
    slope: np.ndarray    # t1 x n-1: (j+1) a_i^-j, the locator's derivative
    forney: np.ndarray   # n-1: -a_i at the nonzero points
    scale: np.ndarray    # n: 1/v_i = prod_{l != i} (a_i - a_l)
    lag: np.ndarray      # t1+1 x n-k int index j - i, n-k where j < i


@lru_cache(maxsize=None)
def _tables(params: CodeParams) -> _Tables:
    """The code's fixed arrays (_Tables), built once per CodeParams with
    field calls.  v_i is the column multiplier of the dual code: with
    the evaluation points a_i, sum_i v_i a_i^j c_i = 0 for every
    codeword c and j < n-k.  The Chien, slope and Forney rows skip
    a_0 = 0 (node 1), which the decoder handles apart."""
    f, n, k, t1 = params.field, params.n, params.k, params.t1
    d = n - k
    kern = kernel(f)
    pts = params.eval_points
    scale = []
    for a in pts:
        acc = 1
        for b in pts:
            if b != a:
                acc = f.mul(acc, f.sub(a, b))
        scale.append(acc)
    checks = [[f.inv(s) for s in scale]]
    for _ in range(d - 1):
        checks.append([f.mul(h, a) for h, a in zip(checks[-1], pts)])
    chien = [[1] * (n - 1)]
    for _ in range(t1):
        chien.append([f.div(c, a) for c, a in zip(chien[-1], pts[1:])])
    slope, j = [], 0
    for row in chien[:t1]:
        j = f.add(j, 1)  # the integer j+1 as a field element
        slope.append([f.mul(j, c) for c in row])
    lag = np.arange(d)[None, :] - np.arange(t1 + 1)[:, None]
    lag[lag < 0] = d
    return _Tables(kern.asarray(_subset_weights(params, tuple(range(k)))),
                   kern.asarray(checks), kern.asarray(chien),
                   kern.asarray(slope).reshape(t1, n - 1),
                   kern.asarray([[f.neg(a) for a in pts[1:]]])[0],
                   kern.asarray([scale])[0], lag)


def _syndromes(params: CodeParams, words: np.ndarray) -> np.ndarray:
    """The n-k x m syndromes H words of the n x m kernel array."""
    return kernel(params.field).matmul(_tables(params).checks, words)


def _parity_fails(params: CodeParams, words: np.ndarray) -> np.ndarray:
    """Per column of the n x m kernel array: whether the word has a
    nonzero syndrome, i.e. fails one of the code's n-k parity checks."""
    return (_syndromes(params, words) != 0).any(axis=0)


def _column(params: CodeParams, word) -> np.ndarray:
    """The n-symbol word as an n x 1 kernel array, every symbol checked."""
    if len(word) != params.n:
        raise ShapeMismatch(f"received word must have {params.n} symbols")
    return kernel(params.field).asarray([[v] for v in word])


def decode_codeword(params: CodeParams, word) -> DecodeOutcome:
    """Bounded-distance decoding: the unique codeword within distance t1
    of the word, or failure.  The one-column case of _decode_words.

    A codeword within t1 is unique (2*t1 < n-k+1), so this is also the
    minimum-distance answer whenever one exists within the radius.  A
    word whose syndrome is zero is returned as is; any other goes
    through the syndrome decoder (_lockstep_block), O((n-k)^2 + n t1)
    field operations per word.
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
    the codewords (n x m) and the mask of decodable columns.  One
    syndrome product screens the columns; only those with a nonzero
    syndrome go through _lockstep_block, together.  An undecodable
    column keeps its received symbols.  One parity product confirms
    every corrected word (SingularSystem when one is not a codeword)."""
    S = _syndromes(params, words)
    cw, ok = words.copy(), np.ones(words.shape[1], dtype=bool)
    errored = np.flatnonzero((S != 0).any(axis=0))
    if errored.size:
        errors, good = _lockstep_block(params, S[:, errored])
        fixed = kernel(params.field).sub(words[:, errored[good]], errors[:, good])
        if _parity_fails(params, fixed).any():
            raise SingularSystem("corrected hash word is not a codeword")
        cw[:, errored[good]] = fixed
        ok[errored[~good]] = False
    return cw, ok


def _lockstep_block(params: CodeParams, S: np.ndarray):
    """Syndrome decoding of m words at once, from their n-k x m
    syndromes S (column w: S_j = sum_i v_i a_i^j e_i over the error
    pattern e of word w).  Returns the error patterns (n x m, zero for
    an undecodable word) and the mask of decodable words.

    Every step is one kernel operation over all m words:
      * the inversionless Berlekamp-Massey recursion (iBM in D. V.
        Sarwate and N. R. Shanbhag, "High-speed architectures for
        Reed-Solomon decoders", IEEE Trans. VLSI Systems, 2001) runs
        exactly n-k steps, its branches replaced by np.where selects.
        It gives each word's register length L and a nonzero multiple
        of its connection polynomial Lambda (Lambda_0 != 0);
      * the error locator is sigma(x) = x^L Lambda(1/x), whose roots
        are the error points a_i.  Point a_0 = 0 (node 1) is a root iff
        Lambda_L = 0; every other point is one iff Lambda(1/a_i) = 0,
        the Chien search, one product with the powers of the 1/a_i;
      * a word is decodable iff L <= t1 and sigma has L roots among the
        points (it then has exactly one error at each);
      * Forney's formula gives the error values at the nonzero points,
        e_i = -a_i Omega(1/a_i) / (Lambda'(1/a_i) v_i) with
        Omega = S Lambda mod x^(n-k), and the error at point 0 is what
        is left of S_0: (S_0 - sum of the others' v_i e_i) / v_0.
    Lambda, B and the rows of T are kept to their first t1+1
    coefficients.  L never decreases, so a word whose L passes t1 is
    undecodable whatever its later steps compute; until it does,
    deg Lambda <= L <= t1, and every x B that enters a step has degree
    at most the new L.  Omega of a decodable word has no term past
    x^(L-1), so its first t1 terms are computed.
    Characteristic 2 needs nothing apart: the derivative's row j
    carries the field element j, zero for even j."""
    kern, t1, d = kernel(params.field), params.t1, params.n - params.k
    tab = _tables(params)
    m = S.shape[1]
    zero = np.zeros((m, 1), dtype=kern.dtype)
    # T[w, i, j] = S_(j-i) of word w, 0 for i > j: (S Lambda)_j = Lambda_w . T[w, :, j]
    T = np.concatenate([S.T, zero], axis=1)[:, tab.lag]
    lam = np.concatenate([zero + 1, np.zeros((m, t1), dtype=kern.dtype)], axis=1)
    B, gamma, L = lam, zero[:, 0] + 1, np.zeros(m, dtype=np.int64)
    for r in range(d):
        delta = kern.matmul(lam[:, None, :], T[:, :, r:r + 1])[:, 0, 0]
        xB = np.concatenate([zero, B[:, :-1]], axis=1)
        grow = (delta != 0) & (2 * L <= r)
        lam, B = (kern.sub(kern.mul(gamma[:, None], lam), kern.mul(delta[:, None], xB)),
                  np.where(grow[:, None], lam, xB))
        L = np.where(grow, r + 1 - L, L)
        gamma = np.where(grow, delta, gamma)
    at_zero = lam[np.arange(m), np.minimum(L, t1)] == 0
    roots = kern.matmul(lam, tab.chien) == 0
    ok = (L <= t1) & (roots.sum(axis=1) + at_zero == L)
    errors = np.zeros((m, params.n), dtype=kern.dtype)
    g = np.flatnonzero(ok)
    if g.size:
        lam, T = lam[g], T[g]
        omega = kern.matmul(lam[:, None, :t1], T[:, :t1, :t1])[:, 0, :]
        w, i = np.nonzero(roots[g])
        num = kern.matmul(omega[w, None, :], tab.chien[:t1, i].T[:, :, None])[:, 0, 0]
        den = kern.matmul(lam[w, None, 1:], tab.slope[:, i].T[:, :, None])[:, 0, 0]
        Y = np.zeros((g.size, params.n), dtype=kern.dtype)  # Y_i = v_i e_i
        Y[w, i + 1] = kern.mul(kern.mul(tab.forney[i], num), kern.inv(den))
        rest = kern.sub(S[0, g], kern.matmul(Y, np.ones((params.n, 1), dtype=kern.dtype))[:, 0])
        Y[:, 0] = np.where(at_zero[g], rest, 0)
        errors[g] = kern.mul(Y, tab.scale)
    return errors.T, ok
