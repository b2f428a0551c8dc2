"""Alternating parent/change pairs of perfbench runs, summarized into a
BENCH_<pr>.json.

    python3 tools/bench_pairs.py run --parent DIR --change DIR \
        --workload sweep-small --seeds 7919,1,2,3 --raw runs.jsonl
    python3 tools/bench_pairs.py summarize --raw runs.jsonl --pr 7 \
        --parent-commit SHA --out BENCH_7.json

DIR is the root of a checkout (perfbench runs its ./src).  `run` runs
one untraced perfbench process at a time, one pair per seed, the parent
first in even pairs and the change first in odd ones, and appends each
run's result line, with the run length, to the raw file as it
finishes.  `summarize` gives, per workload and end-to-end metric of
BENCHMARK.json, the median and quartiles of each side, their ratio, and
how many pairs the change won; its run_seconds is the length the raw
rows record, and a raw file whose rows disagree on it (or lack it) is
refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_pairs(args):
    sides = {"parent": args.parent, "change": args.change}
    seeds = [int(s) for s in args.seeds.split(",")]
    for j, seed in enumerate(seeds):
        order = ("parent", "change") if j % 2 == 0 else ("change", "parent")
        for side in order:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=sides[side], capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            row = {"workload": args.workload, "pair": j, "seed": seed, "side": side,
                   "seconds": args.seconds, "exit": proc.returncode, "result": result}
            with open(args.raw, "a") as fh:
                fh.write(json.dumps(row) + "\n")
            print(args.workload, j, seed, side, proc.returncode,
                  result and result["metrics"], flush=True)


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = [json.loads(line) for line in open(args.raw)]
    seconds = {r.get("seconds") for r in rows}
    if len(seconds) != 1 or None in seconds:
        raise SystemExit(f"{args.raw}: every run must record one run length, got {seconds}")
    out = {"pr": args.pr, "parent_commit": args.parent_commit,
           "run_seconds": seconds.pop(), "workloads": {}}
    for w in spec["workloads"]:
        mine = [r for r in rows if r["workload"] == w["name"]]
        pairs = sorted({r["pair"] for r in mine})
        by = {(r["pair"], r["side"]): r for r in mine}
        entry = {
            "pairs": len(pairs),
            "seeds": [by[(p, "parent")]["seed"] for p in pairs],
            "order": "parent first in even pairs, change first in odd ones",
            "failed": {s: sum(by[(p, s)]["result"]["failed"] for p in pairs)
                       for s in ("parent", "change")},
            "attempted": {s: sum(by[(p, s)]["result"]["attempted"] for p in pairs)
                          for s in ("parent", "change")},
            "metrics": {},
        }
        for m in spec["end_to_end"]:
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            vals = {s: [by[(p, s)]["result"]["metrics"][name]["value"] for p in pairs]
                    for s in ("parent", "change")}
            stats = {s: quartiles(v) for s, v in vals.items()}
            entry["metrics"][name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                **stats,
                "ratio": stats["change"]["median"] / stats["parent"]["median"],
                "change_wins": sum(sign * (c - p) > 0
                                   for p, c in zip(vals["parent"], vals["change"])),
                "runs": vals,
            }
        out["workloads"][w["name"]] = entry
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True)
    r.add_argument("--seconds", type=float, default=30.0)
    r.add_argument("--raw", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("--raw", required=True)
    s.add_argument("--pr", type=int, required=True)
    s.add_argument("--parent-commit", required=True)
    s.add_argument("--out", required=True)
    args = p.parse_args(argv)
    run_pairs(args) if args.cmd == "run" else summarize(args)


if __name__ == "__main__":
    main()
