"""The trusted verifier.

Collects the per-node hash blocks, decodes the resulting vector against
the code to flag erroneous nodes, rebuilds node content from honest
helpers, and prices an audit's bits (accounting, the one pricing, which
takes the shared randomness's from hashing.seed_bit_count and the naive
fetch's from naive_fetch_bits).  The verifier never sees the original
data; with at most t1 = (n-k)//2 corrupted nodes it flags a subset of
the truly erroneous ones, and exactly all of them unless some node's
every error row is orthogonal to the projection vector (the protocol's
documented failure event).

A hash vector is its symbols: the read-only 1-D kernel array of
n*alpha symbols, in node-block order, that collect_hashes returns and
verify decodes.  A report is the verdict alone, status and flagged
nodes; what the audit cost comes from accounting.  Rebuilt blocks stay
the kernel arrays that code.interpolate returns.

Flags come from code.hash_word_decode, the one rule from decoded group
words to flagged nodes; the Monte Carlo engine (experiments) calls the
same function and the same check_commitment, the one check that error
plans predate the projection vector.

This module owns what each randomness kind guarantees: THEOREMS maps
the paper's two theorems to the kinds of hashing, and failure_bound is
the probability of that failure event under each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .code import CodeParams, GeneratorMatrix, check_node_id, hash_word_decode, interpolate
from .errors import (
    CommitmentViolation,
    CorruptHelper,
    DegenerateCode,
    ShapeMismatch,
    SingularSystem,
    TooFewHelpers,
)
from .field import make_field, next_prime_power, symbol_bits
from .hashing import PSEUDORANDOM, TRUE_RANDOM, node_hash, seed_bit_count
from .matrix import kernel
from .storage import SystemState

STATUS_CLEAN = "clean"
STATUS_LOCATED = "errors-located"
STATUS_UNDECODABLE = "undecodable"

# Theorem 1: a true-random vector; Theorem 2: one grown from a short
# seed by the small-bias generator.
THEOREMS = {"thm1": TRUE_RANDOM, "thm2": PSEUDORANDOM}


@dataclass(frozen=True)
class VerificationReport:
    status: str
    flagged: frozenset[int]


@dataclass(frozen=True)
class AuditBudget:
    data_bits: int  # M
    hash_bits: int
    naive_bits: int
    seed_bits: int
    seed_distribution_bits: int


def check_commitment(plans, r) -> None:
    """Error plans must predate the projection vector: nodes do not know
    r when errors are committed, and a plan stamped after r was drawn
    is a protocol violation."""
    for plan in plans:
        if plan.committed_at > r.drawn_at:
            raise CommitmentViolation(
                "error plan was committed after the projection vector was drawn"
            )


def collect_hashes(state: SystemState, r, *, liars=None) -> np.ndarray:
    """Ask every node for its hash block: the hash vector, a read-only
    1-D kernel array of n*alpha symbols in node-block order.

    Corrupted nodes hash their corrupted content; `liars` can override
    single blocks with arbitrary field elements to model nodes that
    misreport outright.  A block that is not alpha symbols (a bare
    symbol, too few, a matrix) raises ShapeMismatch, and every liar
    symbol must be a field element as given: each block is checked as a
    one-row matrix by the kernel's asarray (FieldMismatch otherwise).
    The state's error plans must pass check_commitment.  One node_hash
    call hashes the n*alpha stored rows, the node-major content viewed
    in node-block order; the liars' blocks then replace theirs in its
    array.
    """
    check_commitment(state.plans, r)
    params = state.params
    a = params.alpha
    liars = dict(liars) if liars else {}
    for i, block in liars.items():
        check_node_id(params, i)
        block = np.array(block, dtype=object)  # exact ints, as verify reads a list
        if block.shape != (a,):
            raise ShapeMismatch(f"liar block for node {i} must have alpha symbols")
        liars[i] = kernel(params.field).asarray(block[None])[0]
    out = node_hash(state.nodes.reshape(params.n * a, params.N), r)
    for i, block in liars.items():
        out[(i - 1) * a:i * a] = block
    out.flags.writeable = False
    return out


def verify(H, params: CodeParams, G: GeneratorMatrix) -> VerificationReport:
    """Decode the hash vector H, an array or a list of n*alpha symbols
    (a list read as exact Python ints), and flag the error positions, by
    hash_word_decode.  H not 1-D with n*alpha symbols raises
    ShapeMismatch; every symbol must be a field element (FieldMismatch
    otherwise, from hash_word_decode's check).  G is not consulted: the
    parity checks come from the cached per-code tables."""
    if not isinstance(H, np.ndarray):
        H = np.array(H, dtype=object)  # exact ints; a ragged list is 1-D
    size = params.n * params.alpha
    if H.shape != (size,):
        raise ShapeMismatch(f"a hash vector must be 1-D with n*alpha = {size} symbols")
    (flagged,) = hash_word_decode(params, H[:, None])
    if flagged is None:
        status, flagged = STATUS_UNDECODABLE, frozenset()
    else:
        status = STATUS_LOCATED if flagged else STATUS_CLEAN
    return VerificationReport(status, flagged)


def repair_node(state: SystemState, target: int, helpers) -> np.ndarray:
    """Rebuild a node's content, an alpha x N kernel array, from >= k
    helper nodes by interpolation.

    The first k helpers anchor it.  Helper corruption is detectable only
    with more than k helpers (any k blocks are consistent with some
    data); every further helper is cross-checked against the
    interpolation, and a mismatch raises CorruptHelper.
    """
    params = state.params
    check_node_id(params, target)
    helpers = sorted(set(helpers))
    if target in helpers:
        raise ValueError(f"target node {target} cannot be its own helper")
    if len(helpers) < params.k:
        raise TooFewHelpers(f"need {params.k} helpers, got {len(helpers)}")
    try:
        (block,) = interpolate(params, {h: state.content(h) for h in helpers}, [target])
    except SingularSystem as exc:
        raise CorruptHelper(str(exc)) from exc
    return block


def accounting(params: CodeParams, kind: str = TRUE_RANDOM) -> AuditBudget:
    """Bit costs of one audit versus shipping the data.

    Whole-bit symbol widths throughout: M = k*alpha*N*ceil(log2 q) bits
    of stored data, n*alpha*ceil(log2 q) hash bits (independent of N),
    naive_fetch_bits for the fetch-everything baseline, and the
    shared-randomness cost per kind, broadcast to all n nodes.
    """
    b = symbol_bits(params.field.q)
    a = params.alpha
    M = params.k * a * params.N * b
    seed = seed_bit_count(kind, params)
    return AuditBudget(
        data_bits=M,
        hash_bits=params.n * a * b,
        naive_bits=naive_fetch_bits(params.n, params.k, M),
        seed_bits=seed,
        seed_distribution_bits=params.n * seed,
    )


def naive_fetch_bits(n: int, k: int, data_bits: int) -> int:
    """Bits of the naive baseline that fetches all n nodes' content,
    ceil(n/k * M) for M data bits: every node stores M/k of them."""
    return -(-n * data_bits // k)


def failure_bound(n: int, k: int, q: int, kind: str) -> Fraction:
    """The audit's miss probability bound with at most t1 = (n-k)//2
    corrupted nodes: t1/q for a true-random vector (Theorem 1) and
    2(n-k)*t1/q for a pseudorandom one (Theorem 2)."""
    t1 = (n - k) // 2
    if kind == TRUE_RANDOM:
        return Fraction(t1, q)
    if kind == PSEUDORANDOM:
        return Fraction(2 * (n - k) * t1, q)
    raise ValueError(f"unknown randomness kind {kind!r}")


def choose_field(M_bits: int, n: int, k: int, mode: str):
    """The field, GF(p^s) from make_field, whose size pushes the failure
    bound of THEOREMS[mode] below 1/M: the bound is c/q, so the target
    is q >= c*M.  Rounding up to a prime power only shrinks the bound."""
    if M_bits < 1:
        raise ValueError("M must be >= 1")
    if k >= n:
        raise ValueError(f"need n > k, got n={n} k={k}")
    t1 = (n - k) // 2
    if t1 == 0:
        raise DegenerateCode(f"(n,k)=({n},{k}) has t1 = 0: no locatable errors")
    if mode not in THEOREMS:
        raise ValueError(f"unknown mode {mode!r}")
    target = int(failure_bound(n, k, 1, THEOREMS[mode]) * M_bits)  # c*M
    return make_field(*next_prime_power(max(target, 2)))
