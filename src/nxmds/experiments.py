"""Quantitative validation harness.

Three kinds of evidence, kept deliberately separate:

  * exact enumerators (Fractions, no floating point) over every
    projection vector or every generator seed, for instances small
    enough to enumerate; these are the ground truth;
  * Monte Carlo estimation with counter-split per-trial seeds for the
    regimes enumeration cannot reach, reproducible bit-for-bit from the
    master seed regardless of execution order;
  * instrumented operation counting for the generator's cost growth.

mc_failure_rate is a block engine that hashes the projected errors
alone.  Hashing is linear, so node i's hash is C_i r + E_i r, and the
clean part C r is a codeword, whose syndromes are zero: the decoder's
syndromes, the error patterns it finds and its codeword check are the
same without it, so an audit's flags do not depend on the stored data
and the engine draws none.  An audit misses only when some corrupted
node goes unflagged, so at t = 0 none can miss: the engine answers
0 failures with the bound and samples and decodes nothing (the model
and its options are still checked, by storage.check_model).
For t >= 1, trial i draws from its own rng,
SeedSequence(master, spawn_key=(1, i)): the committed error plan first,
then the challenge (a true-random vector or a generator seed).  Trials
run in blocks of _BLOCK.  A block's plans come from one call
(storage.sample_error_plans: one kernel product makes every rank-1
error matrix, and one rank check covers them), so every plan of the
block is stamped before any of its challenges; then each rng draws its
challenge, and the block's seeds expand in one call.  The block's hash
vectors are a zero n x alpha x B array of the field's kernel
(matrix.kernel), for every field, with each planned node's E_i r
written at its audit's column.  R (the block's vectors stacked) and the
block's error rows (storage.error_rows: each plan's t x alpha x N rows,
as sampled, concatenated) are converted once each, with the kernel's
element check, and all the block's E_i r come from one stacked
product.  The hash vectors, viewed
as n*alpha rows in node-block order, then go to code.hash_word_decode,
the same rule from decoded group words to flagged nodes that verify
applies to one vector: it checks every symbol, one syndrome product
screens the group words, only words with a nonzero syndrome reach the
lockstep decoder, and every corrected word must be a codeword
(SingularSystem).  Each plan must predate its vector
(verifier.check_commitment).  An audit misses when a planned node is
not flagged; an undecodable audit flags nothing.

run_trial is the one-audit path through real storage (restore, corrupt,
hash every node, verify).  It shares hash_word_decode with the engine,
so comparing the two checks hashing, sampling and the engine's
dropping of the data, not the flag rule;
the independent ground truth for flags is the exhaustive decoder
tests/oracles.min_distance_decode, and perfbench's recount from the
projected error rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .code import CodeParams, hash_word_decode
from .errors import TooLargeToEnumerate
from .field import ExtensionField, field_from_order, make_extension
from .hashing import (
    PrgSeed,
    draw_challenge,
    draw_vector,
    expand_challenges,
    minimal_extension_degree,
    prg_expand,
)
from .matrix import kernel
from .storage import (
    ErrorPlan,
    check_model,
    corrupt,
    error_rows,
    sample_error_plan,
    sample_error_plans,
    true_error_set,
)
from .verifier import check_commitment, collect_hashes, failure_bound, verify

ENUM_LIMIT = 10 ** 7

# spawn-key label of the trials' streams: trial i draws from (1, i)
_LABEL_TRIAL = 1

# trials per block of mc_failure_rate: the most plans and vectors it holds
_BLOCK = 64
# projection vectors per kernel product of exact_failure_small
_CHUNK = 4096


@dataclass(frozen=True)
class TrialResult:
    detected: bool
    missed: frozenset[int]
    status: str


@dataclass(frozen=True, slots=True)
class RateEstimate:
    """A miss count over some trials, and the theorem's bound; the
    estimate, its standard error and the 3-sigma interval derive from
    the counts."""

    trials: int
    failures: int
    bound: float

    @property
    def estimate(self) -> float:
        return self.failures / self.trials

    @property
    def sigma(self) -> float:
        est = self.estimate
        return math.sqrt(est * (1 - est) / self.trials)

    @property
    def interval(self) -> tuple[float, float]:
        est, sigma = self.estimate, self.sigma
        return max(0.0, est - 3 * sigma), min(1.0, est + 3 * sigma)


def run_trial(state, model: str, t: int, kind: str, rng, *,
              f: int | None = None, target=None) -> TrialResult:
    """One audit on a restored state: commit errors, then draw the
    randomness, hash, verify, and compare against ground truth."""
    params = state.params
    check_model(model, params, f=f, target=target)
    state.restore()
    if t:
        plan = sample_error_plan(model, t, rng, params, f=f, target=target)
        corrupt(state, plan)
    r, _ = draw_vector(params, kind, rng)
    report = verify(collect_hashes(state, r), params, state.G)
    missed = true_error_set(state) - report.flagged
    return TrialResult(not missed, missed, report.status)


def theoretical_bound(params: CodeParams, kind: str) -> float:
    return float(failure_bound(params.n, params.k, params.field.q, kind))


def check_run(params: CodeParams, model: str, t: int, *,
              f: int | None = None, target=None) -> None:
    """The checks mc_failure_rate makes before its first trial: t within
    0..t1, then the model and its options (storage.check_model)."""
    if not 0 <= t <= params.t1:
        raise ValueError(f"t={t} outside 0..t1={params.t1}")
    check_model(model, params, f=f, target=target)


def mc_failure_rate(params: CodeParams, model: str, t: int, kind: str,
                    trials: int, master_seed: int, *,
                    f: int | None = None, target=None) -> RateEstimate:
    """Monte Carlo miss-rate estimate over independent audits of the
    projected errors alone: no data is drawn, since a clean hash vector
    is a codeword, which decoding cannot see.  Each trial gets its own
    rng split off the master seed by trial index, so results do not
    depend on execution order or on the block size.  With t = 0 no
    node is corrupted and no audit can miss, so the answer is 0
    failures and the bound, with no rng built; the model and its
    options are checked first (storage.check_model), then the kind (by
    the bound).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_run(params, model, t, f=f, target=target)
    if t == 0:
        return RateEstimate(trials, 0, theoretical_bound(params, kind))
    failures = 0
    for start in range(0, trials, _BLOCK):
        rngs = [np.random.default_rng(
                    np.random.SeedSequence(entropy=master_seed, spawn_key=(_LABEL_TRIAL, i)))
                for i in range(start, min(start + _BLOCK, trials))]
        plans = sample_error_plans(model, t, rngs, params, f=f, target=target)
        drawn = [draw_challenge(params, kind, rng) for rng in rngs]
        failures += _block_misses(params, plans, expand_challenges(drawn, params.N))
    return RateEstimate(trials, failures, theoretical_bound(params, kind))


def _block_misses(params: CodeParams, plans, vectors) -> int:
    """Missed audits in a block: audit b commits plans[b], which must
    predate vectors[b], and is hashed on vectors[b].  The block's hash
    vectors are those of the projected errors alone, built in kernel
    arrays."""
    kern = kernel(params.field)
    for plan, r in zip(plans, vectors):
        check_commitment([plan], r)
    idx = [i - 1 for plan in plans for i in plan.ids]  # per planned node
    audits = [b for b, plan in enumerate(plans) for _ in plan.ids]  # its audit
    # H[:, :, b] is audit b's hash vector, node-major: E_i r in the block
    # of every planned node (a plan's ids are distinct), zero elsewhere
    R = kern.asarray(np.stack([r.symbols for r in vectors]))
    H = np.zeros((params.n, params.alpha, len(vectors)), dtype=kern.dtype)
    E = error_rows(params, plans)
    H[idx, :, audits] = kern.matmul(E, R[audits][:, :, None])[:, :, 0]
    words = H.reshape(params.n * params.alpha, len(vectors))
    return sum(not plan.nodes <= (flagged or set())
               for plan, flagged in zip(plans, hash_word_decode(params, words)))


def exact_failure_small(params: CodeParams, plan: ErrorPlan) -> Fraction:
    """Exact miss probability by enumerating every projection vector:
    the fraction of r for which some planned node's entire error matrix
    projects to zero.  The q^N vectors are the base-q digits of a
    counter, taken _CHUNK at a time: one kernel product projects every
    planned row (error_rows) on a whole chunk."""
    q, N = params.field.q, params.N
    if q ** N > ENUM_LIMIT:
        raise TooLargeToEnumerate(f"q^N = {q ** N} vectors")
    kern = kernel(params.field)
    E = error_rows(params, [plan])
    place = q ** np.arange(N - 1, -1, -1)
    fails = 0
    for start in range(0, q ** N, _CHUNK):
        R = np.arange(start, min(start + _CHUNK, q ** N))[:, None] // place % q
        seen = (kern.matmul(E, R.T) != 0).any(axis=1)  # per planned node and vector
        fails += int((~seen).any(axis=0).sum())
    return Fraction(fails, q ** N)


# -- generator enumeration -------------------------------------------------

@lru_cache(maxsize=None)
def _prg_table(q: int, m: int, N: int):
    """Production generator output for every seed (x, y), x-major, as
    lists of Python ints for the field calls of _zero_count."""
    if (q ** m) ** 2 * N > 8 * ENUM_LIMIT:
        raise TooLargeToEnumerate(f"{(q ** m) ** 2} seeds of length {N}")
    ext = make_extension(field_from_order(q), m)
    S = ext.q
    return tuple(
        prg_expand(PrgSeed(x, y, ext), N).symbols.tolist()
        for x in range(S)
        for y in range(S)
    )


def _zero_count(q: int, m: int, N: int, beta, c: int) -> tuple[int, int]:
    """(seeds where sum(beta_i r_i) + c = 0, number of seeds)."""
    if len(beta) != N or not any(beta):
        raise ValueError("beta must be a nonzero length-N sequence")
    fld = field_from_order(q)
    total = 0
    zeros = 0
    for r in _prg_table(q, m, N):
        acc = c
        for b, v in zip(beta, r):
            acc = fld.add(acc, fld.mul(b, v))
        total += 1
        zeros += acc == 0
    return zeros, total


def exact_bias(q: int, m: int, N: int, beta, c: int = 0) -> Fraction:
    """Exact bias of the linear test sum(beta_i r_i) + c over all seeds:
    (q-1) P[test = 0] - P[test != 0]."""
    zeros, total = _zero_count(q, m, N, beta, c)
    return Fraction((q - 1) * zeros - (total - zeros), total)


def exact_zero_prob(q: int, m: int, N: int, beta) -> Fraction:
    """Exact P[sum(beta_i r_i) = 0] over all seeds."""
    zeros, total = _zero_count(q, m, N, beta, 0)
    return Fraction(zeros, total)


def bias_sweep(q: int, N: int, m: int | None = None):
    """Worst case over every nonzero test and every constant: returns
    (m, max |bias|, max P[test = 0]) as exact Fractions.

    Vectorized over the full table of seeds, prime q only; spot-check
    against exact_bias when in doubt.
    """
    fld = field_from_order(q)
    if fld.s != 1:
        raise ValueError("the vectorized sweep needs a prime q")
    if m is None:
        m = minimal_extension_degree(q, N)
    kern = kernel(fld)
    table = np.array(_prg_table(q, m, N), dtype=np.int64)  # S x N
    S = table.shape[0]
    worst_num = 0
    worst_zero = 0
    betas = itertools.islice(itertools.product(range(q), repeat=N), 1, None)
    chunk = 2048
    while True:
        block = list(itertools.islice(betas, chunk))
        if not block:
            break
        T = kern.matmul(np.array(block, dtype=np.int64), table.T)  # len(block) x S
        for v in range(q):
            z = (T == v).sum(axis=1)
            worst_num = max(worst_num, int(np.abs(q * z - S).max()))
            if v == 0:
                worst_zero = max(worst_zero, int(z.max()))
    return m, Fraction(worst_num, S), Fraction(worst_zero, S)


def lemma1_check(q: int, count: int):
    """Exact distribution of a sum of `count` independent uniform field
    elements: convolution stays uniform at every step."""
    if count < 1:
        raise ValueError("count must be >= 1")
    fld = field_from_order(q)
    u = Fraction(1, q)
    dist = [u] * q
    for _ in range(count - 1):
        new = [Fraction(0)] * q
        for a in range(q):
            pa = dist[a]
            for b in range(q):
                new[fld.add(a, b)] += pa * u
        dist = new
    if any(p != u for p in dist):
        raise ArithmeticError("convolution left the uniform law")
    return tuple(dist)


# -- instrumented cost -----------------------------------------------------

class CountingField:
    """Field wrapper that counts arithmetic calls; everything else is
    passed through."""

    def __init__(self, base):
        self.base = base
        self.count = 0

    def __getattr__(self, name):
        # only reached for names not defined here: p, q, modulus, check, ...
        return getattr(self.base, name)

    def add(self, a, b):
        self.count += 1
        return self.base.add(a, b)

    def sub(self, a, b):
        self.count += 1
        return self.base.sub(a, b)

    def neg(self, a):
        self.count += 1
        return self.base.neg(a)

    def mul(self, a, b):
        self.count += 1
        return self.base.mul(a, b)

    def inv(self, a):
        self.count += 1
        return self.base.inv(a)

    def div(self, a, b):
        self.count += 2
        return self.base.div(a, b)

    def pow(self, a, e):
        raise NotImplementedError("instrumented pow is not needed")


def cost_counter(q: int, N_sweep, m: int | None = None):
    """Measured base-field operation counts for expanding N symbols,
    one row (N, m, ops) per sweep point.

    m defaults to the minimal extension degree per N; pin it to isolate
    the linear-in-N factor.  Counts are deterministic: the
    multiplication routine has no value-dependent shortcuts, so any
    seed gives the same figure.
    """
    base = field_from_order(q)
    rows = []
    for N in N_sweep:
        counting = CountingField(base)
        deg = minimal_extension_degree(q, N) if m is None else m
        ext = ExtensionField(counting, deg)
        counting.count = 0  # drop modulus-search arithmetic
        prg_expand(PrgSeed(1, 1, ext), N)
        rows.append((N, deg, counting.count))
    return rows
