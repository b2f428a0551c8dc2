"""The trusted verifier.

Collects the per-node hash blocks, decodes the resulting vector against
the code to flag erroneous nodes, rebuilds node content from honest
helpers, and accounts for the bits everything costs.  The verifier never
sees the original data; with at most t1 = (n-k)//2 corrupted nodes it
flags a subset of the truly erroneous ones, and exactly all of them
unless some node's every error row is orthogonal to the projection
vector (the protocol's documented failure event).

This module owns what each randomness kind guarantees: THEOREMS maps
the paper's two theorems to the kinds of hashing, and failure_bound is
the probability of that failure event under each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .code import CodeParams, GeneratorMatrix, hash_word_decode, interpolate, is_codeword
from .errors import (
    BadNodeId,
    CommitmentViolation,
    CorruptHelper,
    DegenerateCode,
    ShapeMismatch,
    SingularSystem,
    TooFewHelpers,
)
from .field import FieldSpec, next_prime_power, symbol_bits
from .hashing import PSEUDORANDOM, TRUE_RANDOM, HashVector, node_hash, seed_bit_count
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
    hash_bits: int
    seed_bits: int
    randomness: str


@dataclass(frozen=True)
class AuditBudget:
    data_bits: int  # M
    hash_bits: int
    naive_bits: int
    seed_bits: int
    seed_distribution_bits: int


def collect_hashes(state: SystemState, r, *, liars=None) -> HashVector:
    """Ask every node for its hash block.

    Corrupted nodes hash their corrupted content; `liars` can override
    single blocks with arbitrary symbols to model nodes that misreport
    outright.  Error plans must predate the projection vector: nodes do
    not know r when errors are committed, and a plan stamped after r was
    drawn is a protocol violation.
    """
    for plan in state.plans:
        if plan.committed_at > r.drawn_at:
            raise CommitmentViolation(
                "error plan was committed after the projection vector was drawn"
            )
    params = state.params
    liars = dict(liars) if liars else {}
    for i, block in liars.items():
        if not 1 <= i <= params.n:
            raise BadNodeId(f"node id {i} outside 1..{params.n}")
        if len(block) != params.alpha:
            raise ShapeMismatch(f"liar block for node {i} must have alpha symbols")
    out = []
    for i in range(1, params.n + 1):
        if i in liars:
            out.extend(int(v) for v in liars[i])
        else:
            out.extend(node_hash(state.nodes[i - 1], r))
    return HashVector(tuple(out), r.provenance, r.seed_bits)


def verify(H: HashVector, params: CodeParams, G: GeneratorMatrix) -> VerificationReport:
    """Decode the hash vector and flag the error positions.

    Every corrected group word must satisfy the code's parity checks,
    or the code construction is broken.  G is not consulted: the
    checks come from the cached per-code tables.
    """
    out = hash_word_decode(params, H.symbols)
    a = params.alpha
    hash_bits = params.n * a * symbol_bits(params.field.q)
    if not out.ok:
        return VerificationReport(
            STATUS_UNDECODABLE, frozenset(), hash_bits, H.seed_bits, H.provenance
        )
    if not all(is_codeword(params, out.codeword[g::a]) for g in range(a)):
        raise SingularSystem("corrected hash word is not a codeword")
    status = STATUS_LOCATED if out.error_nodes else STATUS_CLEAN
    return VerificationReport(
        status, out.error_nodes, hash_bits, H.seed_bits, H.provenance
    )


def repair_node(state: SystemState, target: int, helpers) -> list[list[int]]:
    """Rebuild a node's content from >= k helper nodes by interpolation.

    The first k helpers anchor it.  Helper corruption is detectable only
    with more than k helpers (any k blocks are consistent with some
    data); every further helper is cross-checked against the
    interpolation, and a mismatch raises CorruptHelper.
    """
    params = state.params
    if not 1 <= target <= params.n:
        raise BadNodeId(f"node id {target} outside 1..{params.n}")
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
    ceil(n/k * M) bits for the naive fetch-everything baseline, and the
    shared-randomness cost per kind, broadcast to all n nodes.
    """
    b = symbol_bits(params.field.q)
    a = params.alpha
    M = params.k * a * params.N * b
    seed = seed_bit_count(kind, params)
    return AuditBudget(
        data_bits=M,
        hash_bits=params.n * a * b,
        naive_bits=-(-params.n * M // params.k),
        seed_bits=seed,
        seed_distribution_bits=params.n * seed,
    )


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


def choose_field(M_bits: int, n: int, k: int, mode: str) -> FieldSpec:
    """Field sizing that pushes the failure bound of THEOREMS[mode]
    below 1/M: the bound is c/q, so the target is q >= c*M.  Rounding
    up to a prime power only shrinks the bound."""
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
    return FieldSpec(*next_prime_power(max(target, 2)))
