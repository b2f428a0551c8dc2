"""Simulated distributed storage.

A SystemState holds what each node actually stores: one node-major
n x alpha x N array of the field's kernel (matrix.kernel) from the
moment it is encoded or read, node i's block at [i-1].  Honest nodes
store their block of the clean encoding; corrupted nodes store clean +
error, applied by apply_plan, one kernel add over every planned node.
The adversary is modeled by an ErrorPlan committed (logical-clock
stamped) before any verification randomness is drawn, matching the
threat model: full knowledge of the stored data, none of the randomness.

Error models:
    single-cell          one uniformly placed nonzero symbol per node
    random-dense         every row uniform, redrawn if all-zero
    rank-1               all rows scalar multiples of one nonzero row
    rank-f               row space of exact rank f (needs f)
    null-against-vector  every row orthogonal to a given target vector;
                         a negative control that forces a miss when the
                         challenge vector equals the target

sample_error_plans draws one committed plan from each rng it is given,
and sample_error_plan is its one-rng case.  check_model checks the
model and its options once per call.  Each rng makes every call of its
plan in a fixed order (the node set W, then each node's matrix with its
redraws), and the plan takes the commitment tick last.  Every matrix
of the call lives in one B x t x alpha x N int64 array, filled in place.
A single-cell, random-dense, rank-f or null-against-vector matrix is
final at draw time: a rank-f E is the product of the drawn
coefficients and bases (one matmul of the field's array kernel,
matrix.kernel), redrawn until row_rank gives f.  A rank-1 draw keeps
its base row and coefficients, each a uniform draw redrawn while zero
(_nonzero_row, as every random-dense row); once every rng has drawn,
one kernel product, coefficients times base rows, fills every rank-1
matrix of the call, and one _check_rank_one, an O(t alpha N) test of
every 2 x 2 minor through each matrix's first nonzero entry that runs
under python -O too, covers them all.  The Monte Carlo engine samples
a block's plans in one call.  A plan keeps its t x alpha x N array as
its one form of E (rows, read-only), which error_rows hands to
apply_plan and the Monte Carlo engine.  Bytes are packed into symbols
and back in one bit pass (ingest, extract).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import clock
from .code import CodeParams, GeneratorMatrix, check_node_id, encode_array
from .errors import (
    BadModel,
    DataTooLarge,
    NoGroundTruth,
    ShapeMismatch,
)
from .matrix import kernel, row_rank

MODELS = ("single-cell", "random-dense", "rank-1", "rank-f", "null-against-vector")


@dataclass(frozen=True, eq=False)
class ErrorPlan:
    """Committed adversarial errors: the planned node ids, in order, and
    their error matrices, one read-only t x alpha x N array (rows[j] is
    node ids[j]'s E; an array handed in is kept and made read-only, a
    nested sequence is converted by np.asarray, in object dtype when
    numpy would not read it as integers, so its entries stay exact).
    Plans compare by identity; entries is the same plan as Python ints."""

    ids: tuple[int, ...]
    rows: np.ndarray
    model: str
    declared_rank: int | None = None
    committed_at: int = dataclasses.field(default_factory=clock.tick)

    def __post_init__(self):
        if self.model not in MODELS:
            raise BadModel(f"unknown error model {self.model!r}")
        ids = tuple(self.ids)
        if len(set(ids)) < len(ids):
            raise ValueError(f"node {max(ids, key=ids.count)} appears twice in plan")
        try:
            rows = np.asarray(self.rows)
        except ValueError:
            raise ShapeMismatch("the rows of a plan's error matrices differ in length") from None
        if rows is not self.rows and rows.dtype.kind not in "biu":
            # e.g. float64 for ints past int64 beside small ones
            rows = np.asarray(self.rows, dtype=object)
        if rows.ndim != 3 or len(rows) != len(ids):
            raise ShapeMismatch(f"{len(ids)} nodes need as many error matrices, got {rows.shape}")
        zero = [i for i, E in zip(ids, rows) if not np.count_nonzero(E)]
        if zero:
            raise ValueError(f"node {zero[0]} has an all-zero error matrix")
        rows.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "rows", rows)

    @property
    def nodes(self) -> frozenset[int]:
        return frozenset(self.ids)

    @property
    def entries(self) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
        """(node id, E as a tuple of rows of Python ints) per planned node."""
        return tuple((i, tuple(map(tuple, E))) for i, E in zip(self.ids, self.rows.tolist()))


class SystemState:
    """Stored content of all n nodes, plus the oracle-only clean
    encoding.

    `nodes` and `_clean` are node-major n x alpha x N kernel arrays;
    public node ids are 1-based, so node i's block is nodes[i-1].
    Mutated only by corrupt() and restore(); share snapshots read-only.
    """

    def __init__(self, params: CodeParams, G: GeneratorMatrix, nodes, clean=None):
        self.params = params
        self.G = G
        self.nodes = nodes
        self._clean = clean
        self.plans = []

    def content(self, i: int):
        return self.nodes[check_node_id(self.params, i) - 1]

    def restore(self):
        """Reset every node to its clean block and forget applied plans."""
        if self._clean is None:
            raise NoGroundTruth("state was built without the clean encoding")
        self.nodes = self._clean.copy()
        self.plans.clear()


def make_system(params: CodeParams, G: GeneratorMatrix, X) -> SystemState:
    """State of an honest system storing the data X (a list of rows or
    an array), encoded by code.encode_array; X itself is not kept."""
    C = encode_array(params, X)
    return SystemState(params, G, C.copy(), clean=C)


def from_slices(params: CodeParams, G: GeneratorMatrix, slices) -> SystemState:
    """State reconstructed from node files alone: no ground truth, no
    clean encoding, so only hashing and verification are possible.
    Each slice is checked by the kernel's asarray, then all are stacked."""
    kern = kernel(params.field)
    if len(slices) != params.n:
        raise ShapeMismatch(f"need {params.n} node slices")
    nodes = [kern.asarray(s) for s in slices]
    if any(s.shape != (params.alpha, params.N) for s in nodes):
        raise ShapeMismatch(f"node slices must be {params.alpha} x {params.N}")
    return SystemState(params, G, np.stack(nodes))


def error_rows(params: CodeParams, plans) -> np.ndarray:
    """The rows arrays of one or more plans stacked in order into one
    t x alpha x N kernel array: each matrix must be alpha x N
    (ShapeMismatch), and every symbol passes the kernel's asarray."""
    a, N = params.alpha, params.N
    if any(plan.rows.shape[1:] != (a, N) for plan in plans):
        raise ShapeMismatch(f"error matrices must be {a} x {N}")
    E = np.concatenate([plan.rows for plan in plans])
    return kernel(params.field).asarray(E.reshape(-1, N)).reshape(-1, a, N)


def apply_plan(params: CodeParams, base, plan: ErrorPlan) -> np.ndarray:
    """The planned nodes' blocks once the plan is applied to the
    node-major base: base[i-1] + E_i for each planned node i, in the
    plan's order, t x alpha x N.  Node ids are checked, then the rows
    (error_rows), then one kernel add covers every planned node."""
    idx = [check_node_id(params, i) - 1 for i in plan.ids]
    return kernel(params.field).add(base[idx], error_rows(params, [plan]))


def corrupt(state: SystemState, plan: ErrorPlan) -> SystemState:
    """Apply the plan: each planned node stores its clean block + E_i
    (apply_plan); the other nodes keep what they store."""
    if state._clean is None:
        raise NoGroundTruth("corruption needs the clean encoding")
    blocks = apply_plan(state.params, state._clean, plan)
    state.nodes[[i - 1 for i in plan.ids]] = blocks
    state.plans.append(plan)
    return state


def true_error_set(state: SystemState) -> frozenset[int]:
    """Oracle: nodes whose stored block differs from the clean encoding."""
    if state._clean is None:
        raise NoGroundTruth("ground truth was not retained")
    return frozenset((np.flatnonzero((state.nodes != state._clean).any(axis=(1, 2))) + 1).tolist())


def random_data(params: CodeParams, rng) -> np.ndarray:
    """Uniform k*alpha x N data matrix drawn from a numpy Generator, as
    the generator's int64 array."""
    return rng.integers(0, params.field.q, size=(params.k * params.alpha, params.N))


# -- byte packing ----------------------------------------------------------

def symbol_capacity_bits(params: CodeParams) -> int:
    """Usable payload bits: floor(log2 q) per symbol."""
    b = params.field.q.bit_length() - 1
    return params.k * params.alpha * params.N * b


def _bit_weights(b: int) -> np.ndarray:
    """2^(b-1), ..., 2, 1: a b-bit slot's place values, int64 while a
    slot fits (b <= 62), Python ints otherwise."""
    return np.array([1 << j for j in range(b - 1, -1, -1)], dtype=np.int64 if b <= 62 else object)


def ingest(data: bytes, params: CodeParams) -> np.ndarray:
    """Pack a byte string into a k*alpha x N data matrix, MSB first,
    row-major, floor(log2 q) bits per symbol; unused symbols stay zero.
    One unpackbits pass: each slot is its bits times _bit_weights."""
    b = params.field.q.bit_length() - 1
    cap = symbol_capacity_bits(params)
    if 8 * len(data) > cap:
        raise DataTooLarge(f"{len(data)} bytes exceed capacity {cap // 8} bytes")
    bits = np.zeros(cap, dtype=np.uint8)
    bits[:8 * len(data)] = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    return (bits.reshape(params.k * params.alpha, params.N, b) * _bit_weights(b)).sum(axis=2)


def extract(params: CodeParams, X) -> bytes:
    """Inverse of ingest, truncated to whole bytes of capacity: one
    packbits pass.  A symbol outside 0..2^b - 1 has no b-bit slot
    (DataTooLarge names the first)."""
    b = params.field.q.bit_length() - 1
    weights = _bit_weights(b)
    shape = (params.k * params.alpha, params.N)
    if not isinstance(X, np.ndarray):
        X = np.array(X, dtype=object)  # exact ints; a ragged list is 1-D
    if X.shape != shape:
        raise ShapeMismatch(f"data must be {shape[0]} x {shape[1]}")
    wide = (X < 0) | (X >= 1 << b)
    if wide.any():
        r, c = divmod(int(wide.argmax()), shape[1])
        raise DataTooLarge(f"symbol {X[r, c]} at row {r}, column {c} does not fit in {b} bits")
    bits = X.astype(weights.dtype)[:, :, None] // weights % 2
    return np.packbits(bits.astype(np.uint8))[:symbol_capacity_bits(params) // 8].tobytes()


# -- adversary samplers ----------------------------------------------------

def _nonzero_row(rng, q: int, N: int) -> np.ndarray:
    while True:
        row = rng.integers(0, q, size=N)
        if np.count_nonzero(row):
            return row


def _orthogonal_row(rng, field, target) -> np.ndarray:
    """A nonzero row orthogonal to target: a uniform draw whose pivot
    entry is then solved for, the draw's inner product with target one
    kernel product."""
    kern = kernel(field)
    T = kern.asarray([target])
    pivot = int((T[0] != 0).argmax())
    inv = field.inv(int(T[0, pivot]))
    while True:
        row = rng.integers(0, field.q, size=len(target))
        row[pivot] = 0
        s = int(kern.matmul(row[None, :], T.T)[0, 0])
        row[pivot] = field.mul(field.neg(s), inv)
        if row.any():
            return row


def _check_rank_one(field, E: np.ndarray, nodes) -> None:
    """Raise unless every matrix E[j] of the t x alpha x N stack is
    nonzero and every entry satisfies E[r, c] E[r0, c0] = E[r, c0] E[r0, c],
    (r0, c0) its first nonzero entry: E[j] is then the outer product of
    its column c0 and row r0 scaled by 1/E[r0, c0], so of rank 1.  Two
    products of one-term sums, t x alpha x N entries each.  The error
    names the first failing matrix by its node id, nodes[j]."""
    t, a, N = E.shape
    flat = E.reshape(t, a * N)
    first = (flat != 0).argmax(axis=1)  # 0 in a zero matrix, whose pivot is then 0
    j = np.arange(t)
    pivot = flat[j, first]
    kern = kernel(field)
    outer = kern.mul(E[j, :, first % N][:, :, None], E[j, first // N][:, None, :])
    minors = kern.mul(pivot[:, None], flat) != outer.reshape(t, a * N)
    if np.count_nonzero(pivot) < t or np.count_nonzero(minors):
        fail = int(((pivot == 0) | minors.any(axis=1)).argmax())
        problem = "is zero" if pivot[fail] == 0 else "has rank above 1"
        raise RuntimeError(f"rank-1 error matrix of node {nodes[fail]} {problem}")


def check_model(model: str, params: CodeParams, *, f: int | None = None,
                target=None) -> int | None:
    """Raise BadModel unless the error model is known and has the
    options it needs (rank-f an f, null-against-vector a nonzero target
    of length N > 1); return the rank the model declares."""
    if model not in MODELS:
        raise BadModel(f"unknown error model {model!r}")
    a, N = params.alpha, params.N
    if model == "rank-f":
        if f is None or not 1 <= f <= min(a, N):
            raise BadModel(f"rank-f needs 1 <= f <= min(alpha, N) = {min(a, N)}")
        return f
    if model == "null-against-vector":
        if target is None or len(target) != N or not any(target):
            raise BadModel("null-against-vector needs a nonzero target of length N")
        if N == 1:
            raise BadModel("no nonzero row is orthogonal to a length-1 target")
    return 1 if model == "rank-1" else None


def sample_error_plans(model: str, t: int, rngs, params: CodeParams, *,
                       f: int | None = None, target=None) -> list[ErrorPlan]:
    """One committed plan per numpy Generator of rngs, in order.  Each
    rng draws W, a uniform t-subset of nodes, then each node's error
    matrix per the model, and its plan takes the commitment tick last;
    the module docstring says how E is built and its rank checked."""
    declared = check_model(model, params, f=f, target=target)
    n, a, N = params.n, params.alpha, params.N
    if not 0 <= t <= n:
        raise ValueError(f"t={t} outside 0..{n}")
    fld, q = params.field, params.field.q
    kern = kernel(fld)
    B = len(rngs)
    E = np.zeros((B, t, a, N), dtype=np.int64)
    # rank-1's factors: E[b, j] is the outer product of scales[b, j] and lines[b, j]
    scales, lines = np.zeros((B, t, a), dtype=np.int64), np.zeros((B, t, N), dtype=np.int64)
    drawn = []  # (W, tick) per rng
    for b, rng in enumerate(rngs):
        W = tuple(sorted(int(i) + 1 for i in rng.choice(n, size=t, replace=False)))
        for j in range(t):
            if model == "single-cell":
                r = int(rng.integers(a))
                c = int(rng.integers(N))
                E[b, j, r, c] = 1 + int(rng.integers(q - 1))
            elif model == "random-dense":
                E[b, j] = [_nonzero_row(rng, q, N) for _ in range(a)]
            elif model == "rank-1":
                lines[b, j] = _nonzero_row(rng, q, N)
                scales[b, j] = _nonzero_row(rng, q, a)
            elif model == "rank-f":
                while True:
                    bases = np.array([_nonzero_row(rng, q, N) for _ in range(f)])
                    if row_rank(fld, bases) == f:
                        break
                while True:
                    coeffs = np.array([rng.integers(0, q, size=f) for _ in range(a)])
                    E[b, j] = kern.matmul(coeffs, bases)
                    if row_rank(fld, E[b, j]) == f:
                        break
            else:
                E[b, j] = [_orthogonal_row(rng, fld, list(target)) for _ in range(a)]
        drawn.append((W, clock.tick()))
    if model == "rank-1":
        E[:] = kern.mul(scales[..., None], lines[..., None, :])
        _check_rank_one(fld, E.reshape(-1, a, N), [i for W, _ in drawn for i in W])
    E.flags.writeable = False
    return [ErrorPlan(W, rows, model, declared_rank=declared, committed_at=tick)
            for (W, tick), rows in zip(drawn, E)]


def sample_error_plan(model: str, t: int, rng, params: CodeParams, *,
                      f: int | None = None, target=None) -> ErrorPlan:
    """Draw one committed plan: sample_error_plans of the one rng."""
    return sample_error_plans(model, t, [rng], params, f=f, target=target)[0]
