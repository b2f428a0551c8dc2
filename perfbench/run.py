"""nxmds benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload sweep-small --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src and
nowhere else.  With --trace 0 the last stdout line carries the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
The line before it holds provenance and details; both are also written
to .perfbench_out/.  Exit status is 0 when every operation passed the
correctness gate, 1 when one did not, 2 when the package is missing.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("sweep-small", "audit-mid", "disk-cycle")
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
# set-up is sampled in this process and in fresh ones, one at a time and
# spread over the measured period, so that the samples fall into different
# phases of a machine whose speed changes for seconds at a time: at least 3
# samples, more, up to 11, while they add up to about SETUP_BUDGET_S, so
# cheap set-ups, whose relative noise is largest, get the most samples
SETUP_SAMPLES = (3, 11)
SETUP_BUDGET_S = 5.0
# The timed metrics are normalized to the host's speed during the run.
# The machine's speed swings by up to 1.7x over minutes, on both CPUs at
# once, so raw times of the same inputs differ that much between runs.
# reference_work is timed before every cycle, outside the measured time,
# and a time is scaled by REFERENCE_S over the mean of those samples: it
# reads as on a host that does the reference work in REFERENCE_S.
REFERENCE_S = 1.2e-3
OUT = Path(".perfbench_out")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Put ./src first on the path and import nxmds from it, or exit 2."""
    src = Path.cwd() / "src"
    if not (src / "nxmds" / "__init__.py").is_file():
        print(f"error: no package at {src / 'nxmds'}; run from a checkout root", file=sys.stderr)
        sys.exit(2)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import nxmds
    if Path(nxmds.__file__).resolve().parent != (src / "nxmds").resolve():
        print(f"error: imported nxmds from {nxmds.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def setup_workload(args):
    import workloads
    w = workloads.make(args.workload, OUT / "tmp")
    w.setup(args.seed)
    return w


def fresh_setup(args):
    """Set-up time of one fresh process, and its reference_work time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(done.stdout.splitlines()[-1])
    return out["setup_s"], out["reference_s"]


def reference_after_setup():
    """Mean reference_work time just after a set-up, which normalizes it
    as the cycles normalize the timed metrics."""
    reference_work()
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


def measure_with_setup(args, w, first):
    """Run the measured period in equal slices, with one fresh-process
    set-up before each slice, outside the measured time.  Returns the
    set-up samples, `first` included, each with the reference_work time
    after it, and the reference_work times of the cycles."""
    fewest, most = SETUP_SAMPLES
    count = min(most, max(fewest, round(SETUP_BUDGET_S / first[0])))
    samples, reference, cycle = [first], [], 0
    for _ in range(count - 1):
        samples.append(fresh_setup(args))
        _, cycle = measure(w, args.seconds / (count - 1), first_cycle=cycle,
                           reference=reference)
    return samples, reference


def reference_work():
    """Fixed work that calls no package code, in the package's mix: an
    integer loop, modular dot products into a dict, small numpy products
    and rng construction.  Its time follows the speed the host gives
    this process; each part tracks some workloads better than the
    others, and together they tracked all three within a few percent."""
    import numpy as np
    acc = 0
    for i in range(10000):
        acc = (acc * 31 + i) % 257
    row, vals, seen = list(range(3, 67)), list(range(5, 69)), {}
    for j in range(75):
        acc += sum(a * b for a, b in zip(row, vals)) % 257
        seen[j, acc] = [acc] * 3
    mat = np.arange(8 * 64, dtype=np.int64).reshape(8, 64)
    for _ in range(10):
        acc += int((mat @ mat.T % 257)[0, 0])
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([i, 7], spawn_key=(1, i)))
        acc += int(rng.integers(0, 257, size=8).sum())
    return acc


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(w, seconds, tracer=None, first_cycle=0, reference=None):
    """Run cycles from `first_cycle` until `seconds` have passed; returns
    the wall time and the next cycle.  With a `reference` list, time
    reference_work into it before each cycle."""
    start = time.perf_counter()
    cycle = first_cycle
    while time.perf_counter() - start < seconds:
        if reference is not None:
            t0 = time.perf_counter()
            reference_work()
            reference.append(time.perf_counter() - t0)
        if tracer:
            tracer.cycle = cycle
        w.run_cycle(cycle, tracer=tracer)
        cycle += 1
    return time.perf_counter() - start, cycle


def cycle_times(w):
    """Mean and percentiles of the cycle time in ms, not normalized.
    Only the mean goes into an end-to-end metric: on a shared machine
    whose speed switches between levels for seconds at a time, a
    percentile of the mixture jumps from one level to the other between
    runs, where the mean moves smoothly, and the reference work, timed
    once per cycle, is averaged over the same cycles."""
    ms = [s * 1e3 for s in w.cycle_seconds]
    return {"mean": statistics.fmean(ms), "p50": statistics.median(ms),
            "p75": percentile(ms, 75), "p90": percentile(ms, 90), "samples": len(ms)}


def end_to_end(w, setup, reference):
    """The end-to-end metrics, and the raw figures behind them."""
    slowdown = statistics.fmean(reference) / REFERENCE_S
    audits, audit_s = w.audits()
    metrics = {
        "setup_s": (statistics.median(s * REFERENCE_S / ref for s, ref in setup), "s"),
        "audits_per_s_norm": (audits / audit_s * slowdown, "1/s"),
        "cycle_ms_norm": (cycle_times(w)["mean"] / slowdown, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    raw = {"setup_s_samples": [s for s, _ in setup],
           "setup_slowdowns": [ref / REFERENCE_S for _, ref in setup],
           "reference_s_mean": statistics.fmean(reference),
           "reference_samples": len(reference), "slowdown": slowdown,
           "audits_per_s_raw": audits / audit_s}
    return metrics, raw


def provenance(args, w):
    src = Path.cwd() / "src" / "nxmds"
    digest = hashlib.sha256()
    for f in sorted(src.glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "git_commit": commit, "source_sha256": digest.hexdigest(),
        "closed_loop": "one caller, next cycle starts when the last ends",
        **w.provenance(),
    }


def main():
    args = parse_args()
    import_package()
    import layers
    import tracing
    import workloads

    if args.setup_only:
        setup_workload(args)
        setup_s = time.perf_counter() - T_START
        print(json.dumps({"setup_s": setup_s, "reference_s": reference_after_setup()}))
        return 0

    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        layers.install(tracer)
    w = setup_workload(args)
    first_setup = time.perf_counter() - T_START

    if tracer:
        setup_search_s = layers.setup_self_s(tracer)
        tracer.reset_totals()
        wall, _ = measure(w, args.seconds, tracer)
        tracer.uninstall()
        counts = layers.count_pass(w)
        metrics, detail = layers.per_layer(w, tracer, setup_search_s, counts, wall)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        first = (first_setup, reference_after_setup())
        metrics, detail = end_to_end(w, *measure_with_setup(args, w, first))
        if isinstance(w, workloads.DiskCycle):
            counts = layers.count_pass(w)
            detail["bytes_per_cycle"] = {k: counts[k] for k in ("bytes_read", "bytes_written")}

    t_gate = time.perf_counter()
    w.check(workloads.load_pins())
    detail["gate_s"] = time.perf_counter() - t_gate
    failed = [op for op in w.ops if op.failed]
    for op in failed[:5]:
        print(f"gate: cycle {op.cycle} {op.label}: " + " | ".join(op.errors), file=sys.stderr)
    correct = not failed
    if tracer and detail["coverage"] < 0.9:
        print(f"gate: layer self times cover {detail['coverage']:.3f} of traced time",
              file=sys.stderr)
        correct = False

    detail.update(w.detail(), cycle_ms=cycle_times(w), ops=len(w.ops))
    result = {
        "correct": correct, "attempted": len(w.ops), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {"provenance": provenance(args, w), "detail": detail}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
