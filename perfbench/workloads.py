"""The benchmark workloads and their correctness gates.

A workload runs in cycles.  On the Monte Carlo workloads a cycle is one
pass over the workload's `mc_failure_rate` calls; on `disk-cycle` it is
the README's on-disk audit cycle, run in-process through `nxmds.cli.main`.
Every input is derived from the workload seed; the program only ever
sees the derived values.

One operation is one `mc_failure_rate` call or one CLI command.  An
operation fails when it raises, returns the wrong exit code or fails the
gate; protocol misses (`RateEstimate.failures`) are measured outcomes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from nxmds import cli, experiments
from nxmds.code import decode_codeword, make_code
from nxmds.field import field_from_order
from nxmds.hashing import draw_random_vector, make_prg_seed, prg_expand
from nxmds.storage import corrupt, make_system, sample_error_plan, true_error_set
from nxmds.verifier import collect_hashes, verify

MODEL = "rank-1"
TRUE_RANDOM = "true-random"
PSEUDORANDOM = "pseudorandom"

# mc_failure_rate's seeding contract: the data matrix comes from
# SeedSequence(master, spawn_key=(0,)), trial i from spawn_key=(1, i)
LABEL_DATA = 0
LABEL_TRIAL = 1

# Warm-up inputs are the same for every workload seed, so set-up does the
# same work whatever the seed; the label keeps them apart from timed inputs.
WARMUP = 1_000_003

PINS_PATH = Path(__file__).with_name("pins.json")


@dataclass(frozen=True)
class Call:
    n: int
    k: int
    q: int
    N: int
    t: int
    kind: str


@dataclass
class Op:
    """One timed operation and what the gate made of it."""

    cycle: int
    label: str
    seconds: float
    errors: list = field(default_factory=list)
    result: object = None

    @property
    def failed(self):
        return bool(self.errors)


def _rng(*entropy, spawn_key=()):
    return np.random.default_rng(np.random.SeedSequence(list(entropy), spawn_key=spawn_key))


def _keep(w, ops, keep):
    """Record a measured cycle; an unrecorded one (warm-up, counting
    pass) must not fail."""
    if keep:
        w.ops.extend(ops)
        w.cycle_seconds.append(sum(op.seconds for op in ops))
    elif any(op.failed for op in ops):
        raise RuntimeError("unrecorded cycle failed:\n" + "".join(
            e for op in ops for e in op.errors))


def _project(fld, row, r):
    """<row, r> with the scalar reference arithmetic."""
    if fld.s == 1:
        return sum(a * b for a, b in zip(row, r)) % fld.p
    acc = 0
    for a, b in zip(row, r):
        acc = fld.add(acc, fld.mul(a, b))
    return acc


class MonteCarlo:
    """Repeated `mc_failure_rate` calls: `trials` audits per call."""

    def __init__(self, name, calls, trials, checked_calls):
        self.name = name
        self.calls = calls
        self.trials = trials
        # about how many calls the gate recounts and replays, in evenly
        # spaced whole cycles; a replayed audit costs as much as a measured one
        self.checked_calls = checked_calls
        self.ops = []
        self.cycle_seconds = []

    def setup(self, seed):
        self.seed = seed
        self.params = [make_code(c.n, c.k, field_from_order(c.q), c.N)[0]
                       for c in self.calls]
        self.warm_up()

    def warm_up(self):
        """One untimed short pass per call, plus one undecodable word per
        code so every decoder subset weight is cached."""
        for j, (call, params) in enumerate(zip(self.calls, self.params)):
            experiments.mc_failure_rate(params, MODEL, call.t, call.kind, 1, (WARMUP, j))
            rng = _rng(WARMUP, j, 1)
            for _ in range(64):
                word = [int(v) for v in rng.integers(0, call.q, size=call.n)]
                if not decode_codeword(params, word).ok:
                    break

    def master(self, cycle, j):
        return (self.seed, cycle, j)

    def run_cycle(self, cycle, tracer=None, keep=True):
        ops = []
        for j, (call, params) in enumerate(zip(self.calls, self.params)):
            op = Op(cycle, f"call{j}", 0.0)
            t0 = perf_counter()
            try:
                op.result = experiments.mc_failure_rate(
                    params, MODEL, call.t, call.kind, self.trials, self.master(cycle, j))
            except Exception:
                op.errors.append(traceback.format_exc())
            op.seconds = perf_counter() - t0
            ops.append(op)
        _keep(self, ops, keep)

    def audits(self):
        done = sum(op.result.trials for op in self.ops if op.result is not None)
        return done, sum(op.seconds for op in self.ops)

    # -- gate ---------------------------------------------------------------

    def _trial_inputs(self, call, params, rng):
        """Replay run_trial's draws: the error plan first, then r."""
        plan = sample_error_plan(MODEL, call.t, rng, params) if call.t else None
        if call.kind == TRUE_RANDOM:
            r = draw_random_vector(params.N, params.field, rng)
        else:
            r = prg_expand(make_prg_seed(params.field, params.N, rng), params.N)
        return plan, r

    def _seen_nodes(self, params, plan, r):
        """Nodes whose error shows in some projected row.  With at most t1
        bad nodes, minimum-distance decoding flags exactly these."""
        if plan is None:
            return frozenset(), frozenset()
        seen = frozenset(i for i, rows in plan.entries
                         if any(_project(params.field, row, r.symbols) for row in rows))
        return seen, plan.nodes

    def expected_failures(self, call, params, master):
        fails = 0
        for i in range(self.trials):
            rng = _rng(*master, spawn_key=(LABEL_TRIAL, i))
            plan, r = self._trial_inputs(call, params, rng)
            seen, bad = self._seen_nodes(params, plan, r)
            fails += bool(bad - seen)
        return fails

    def replay_first_trial(self, call, params, master):
        """Full audit of trial 0 outside the timed region."""
        data_rng = _rng(*master, spawn_key=(LABEL_DATA,))
        X = [[int(v) for v in row] for row in
             data_rng.integers(0, call.q, size=(params.k * params.alpha, params.N))]
        _, G = make_code(params.n, params.k, params.field, params.N)
        state = make_system(params, G, X)
        rng = _rng(*master, spawn_key=(LABEL_TRIAL, 0))
        plan, r = self._trial_inputs(call, params, rng)
        if plan is not None:
            corrupt(state, plan)
        report = verify(collect_hashes(state, r), params, G)
        truth = true_error_set(state)
        seen, _ = self._seen_nodes(params, plan, r)
        errors = []
        if not report.flagged <= truth:
            errors.append(f"flagged {sorted(report.flagged)} not within true set {sorted(truth)}")
        if report.flagged != seen:
            errors.append(f"flagged {sorted(report.flagged)}, projected errors at {sorted(seen)}")
        if call.t == 0 and (report.flagged or report.status != "clean"):
            errors.append(f"t=0 audit reported {report.status} {sorted(report.flagged)}")
        return errors

    def check(self, pins):
        """Gate every call on the estimate's consistency and, where
        recorded, its pinned failure count; on a sample of whole cycles,
        recount the failures independently and replay trial 0 in full."""
        timed = [op for op in self.ops if op.result is not None]
        # sample whole cycles, so every call of the cycle is checked
        cycles = sorted({op.cycle for op in timed})
        stride = max(1, -(-len(cycles) * len(self.calls) // self.checked_calls))
        sampled = set(cycles[::stride] + cycles[-1:])
        pinned = pins.get(self.name, {}).get(str(self.seed), [])
        for op in timed:
            j = int(op.label[4:])
            call, params, est = self.calls[j], self.params[j], op.result
            master = self.master(op.cycle, j)
            if est.trials != self.trials or not 0 <= est.failures <= est.trials:
                op.errors.append(f"estimate {est} inconsistent with {self.trials} trials")
                continue
            if est.estimate != est.failures / est.trials:
                op.errors.append(f"estimate {est.estimate} != failures/trials")
            if call.t == 0 and est.failures:
                op.errors.append(f"{est.failures} misses with no corrupted node")
            if op.cycle < len(pinned) and est.failures != pinned[op.cycle][j]:
                op.errors.append(f"failures {est.failures}, pinned {pinned[op.cycle][j]}")
            if op.cycle in sampled:
                want = self.expected_failures(call, params, master)
                if est.failures != want:
                    op.errors.append(f"failures {est.failures}, independent recount {want}")
                op.errors.extend(self.replay_first_trial(call, params, master))

    def detail(self):
        """Audits per second of each call of the cycle."""
        rates = []
        for j in range(len(self.calls)):
            ops = [op for op in self.ops if op.label == f"call{j}" and op.result is not None]
            rates.append(sum(op.result.trials for op in ops) / sum(op.seconds for op in ops))
        return {"call_audits_per_s": rates}

    def failures_table(self, cycles):
        """Per-cycle failure counts, for recording pins."""
        return [[self.ops[c * len(self.calls) + j].result.failures
                 for j in range(len(self.calls))] for c in range(cycles)]

    def provenance(self):
        return {"cycle": f"{len(self.calls)} mc_failure_rate call(s) of {self.trials} trial(s)",
                "calls": [vars(c) for c in self.calls], "model": MODEL}


# -- disk-cycle ---------------------------------------------------------------

DISK = dict(n=6, k=4, q=257, N=4096)
COMMANDS = ("encode", "corrupt", "hash", "verify", "repair")


def _nxm_symbols(data):
    """Symbol matrix of a .nxm file, parsed here from the documented layout
    rather than by the package: magic and version (7 bytes), p, s, n, k, N
    (u64 each), s+1 modulus bytes, node id (u64), rows and columns (u64),
    then little-endian symbols of whole bytes."""
    u64 = lambda pos: int.from_bytes(data[pos:pos + 8], "little")  # noqa: E731
    p, s = u64(7), u64(15)
    pos = 7 + 5 * 8 + s + 1 + 8
    rows, cols = u64(pos), u64(pos + 8)
    width = ((p ** s - 1).bit_length() + 7) // 8
    symbols = np.frombuffer(data, dtype=f"<u{width}", offset=pos + 16)
    return symbols.reshape(rows, cols).astype(np.int64)


class DiskCycle:
    """encode -> corrupt rank1:1 -> hash -> verify -> repair -> hash ->
    verify, each cycle in a fresh temporary directory."""

    name = "disk-cycle"

    def __init__(self, scratch):
        self.scratch = Path(scratch)
        self.ops = []
        self.cycle_seconds = []

    def setup(self, seed):
        self.seed = seed
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.run_cycle(WARMUP, keep=False)

    def _main(self, cycle, argv, tracer):
        """Run one CLI command in-process, capturing its output."""
        out, err = io.StringIO(), io.StringIO()
        op = Op(cycle, argv[0], 0.0)
        token = tracer.enter(f"cli.cmd_{argv[0]}") if tracer else None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:
            code = None
            op.errors.append(traceback.format_exc())
        op.seconds = perf_counter() - t0
        if tracer:
            tracer.close(token)
        op.result = (code, out.getvalue(), err.getvalue())
        return op

    def run_cycle(self, cycle, tracer=None, keep=True):
        d = tempfile.mkdtemp(prefix="cycle-", dir=self.scratch)
        try:
            ops = self._cycle(cycle, d, tracer)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        _keep(self, ops, keep)

    def _cycle(self, cycle, d, tracer):
        n, k, q, N = DISK["n"], DISK["k"], DISK["q"], DISK["N"]
        entropy = [WARMUP] if cycle == WARMUP else [self.seed, cycle]
        s_data, s_plan, s_vec = (int(v) for v in
                                 np.random.SeedSequence(entropy).generate_state(3))
        ops = []

        def run(*argv):
            ops.append(self._main(cycle, [str(a) for a in argv], tracer))
            return ops[-1]

        params = f"CodeParams(n={n}, k={k}, q={q}, N={N})"
        bits = (q - 1).bit_length()
        enc = run("encode", "--n", n, "--k", k, "--q", q, "--N", N,
                  "--seed", s_data, "--out", d)
        self._expect(enc, 0, f"command: encode\nparams: {params}\n"
                     f"source: random (seed {s_data})\nout: {d}\nfiles: {n + 1}\n")
        if enc.failed:
            return ops
        original = {i: Path(d, f"node_{i}.nxm").read_bytes() for i in range(1, n + 1)}

        cor = run("corrupt", d, "--model", "rank1:1", "--seed", s_plan)
        node = self._corrupted_node(cor, n)
        # committed-at comes from a per-process logical clock that advances
        # on every in-process call, so it differs between cycles of one
        # run; it is left out of the comparison.
        self._expect(cor, 0, f"command: corrupt\nmodel: rank-1\nnodes: {node}\n",
                     drop="committed-at: ")
        if cor.failed:
            return ops

        hash_out = (f"command: hash\nmode: true-random\nhash-symbols: {n * (n - k)}\n"
                    f"seed-bits: {N * bits}\n")
        self._expect(run("hash", d, "--seed", s_vec), 0, hash_out)
        seen = self._projection_shows(d, node, original[node])
        first = run("verify", d)
        self._expect(first, 2 if seen else 0,
                     f"command: verify\nparams: {params}\nmode: true-random\n"
                     f"status: {'errors-located' if seen else 'clean'}\n"
                     f"flagged: {node if seen else ''}\nhash-bits: {n * (n - k) * bits}\n")

        helpers = " ".join(str(i) for i in range(1, n + 1) if i != node)
        a = n - k
        rep = run("repair", d, "--node", node)
        self._expect(rep, 0, f"command: repair\nnode: {node}\nhelpers: {helpers}\n"
                     f"rows: {' '.join(str((node - 1) * a + j) for j in range(1, a + 1))}\n")
        if not rep.failed and Path(d, f"node_{node}.nxm").read_bytes() != original[node]:
            rep.errors.append(f"repaired node_{node}.nxm differs from the encoded file")

        self._expect(run("hash", d, "--seed", s_vec), 0, hash_out)
        self._expect(run("verify", d), 0,
                     f"command: verify\nparams: {params}\nmode: true-random\n"
                     f"status: clean\nflagged: \nhash-bits: {n * (n - k) * bits}\n")
        return ops

    @staticmethod
    def _expect(op, code, stdout, drop=None):
        if op.failed:
            return
        got_code, out, err = op.result
        if drop is not None:
            out = "".join(line for line in out.splitlines(True) if not line.startswith(drop))
        if got_code != code:
            op.errors.append(f"{op.label}: exit {got_code}, expected {code}; stderr {err!r}")
        if out != stdout:
            op.errors.append(f"{op.label}: stdout {out!r}, expected {stdout!r}")

    @staticmethod
    def _corrupted_node(op, n):
        if op.failed:
            return 0
        for line in op.result[1].splitlines():
            if line.startswith("nodes: ") and line[7:].isdigit() and 1 <= int(line[7:]) <= n:
                return int(line[7:])
        op.errors.append(f"corrupt: no single node id in {op.result[1]!r}")
        return 0

    @staticmethod
    def _projection_shows(d, node, original):
        """Whether node's error survives projection onto the stored r:
        if every error row is orthogonal to r the audit must miss."""
        clean = _nxm_symbols(original)
        stored = _nxm_symbols(Path(d, f"node_{node}.nxm").read_bytes())
        r = _nxm_symbols(Path(d, "rvec.nxm").read_bytes())[0]
        return bool(((stored - clean) @ r % DISK["q"]).any())

    def audits(self):
        # an on-disk audit is one `hash` followed by one `verify`
        audit_ops = [op for op in self.ops if op.label in ("hash", "verify")]
        return len(audit_ops) // 2, sum(op.seconds for op in audit_ops)

    def check(self, pins):
        """Checked inline while each cycle runs."""

    def detail(self):
        """Median milliseconds of each command; hash and verify pooled."""
        out = {}
        for cmd in COMMANDS:
            times = [op.seconds for op in self.ops if op.label == cmd and not op.failed]
            out[cmd] = float(np.median(times)) * 1e3 if times else None
        return {"command_ms_p50": out}

    def provenance(self):
        return {"cycle": "encode, corrupt rank1:1, hash, verify, repair, hash, verify",
                "params": DISK,
                "storage": "temporary files in the checkout; times are page-cache "
                           "latency of the machine's filesystem, not device latency"}


def make(name, scratch):
    if name == "sweep-small":
        return MonteCarlo(name, (
            Call(4, 2, 17, 8, 1, TRUE_RANDOM),
            Call(4, 2, 257, 8, 1, TRUE_RANDOM),
            Call(4, 2, 257, 8, 1, PSEUDORANDOM),
            Call(4, 2, 257, 8, 0, TRUE_RANDOM),
        ), trials=64, checked_calls=64)
    if name == "audit-mid":
        # (16,8) at t1 = 4 costs 697 to 2,517 decode attempts per group
        # word, by where the errors fall, and only about 120 such audits
        # fit in a run: their mean moved by a fifth between seeds.  At
        # (12,6) an audit is about 12 times cheaper, with the same spread
        # per audit, so a run averages over about a thousand.  Four
        # trials a call share one encode of the data, which keeps the
        # decoder near 85 % of the time.
        return MonteCarlo(name, (Call(12, 6, 257, 64, 3, TRUE_RANDOM),),
                          trials=4, checked_calls=16)
    if name == "disk-cycle":
        return DiskCycle(scratch)
    raise ValueError(f"unknown workload {name!r}")


def load_pins():
    with open(PINS_PATH) as fh:
        return json.load(fh)
