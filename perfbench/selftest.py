"""Minimal-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

From the root of a checkout, checks that:
  * every workload, traced and untraced, passes its gate and prints
    exactly the metric names BENCHMARK.json lists for that mode;
  * the gate trips (correct false, exit 1) in a copy of the checkout
    whose pins.json has one count raised;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the benchmark exits 2 without printing a result.
Exits 0 when all hold.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import DEFAULT_SEED, OUT, WORKLOADS

ROOT = Path.cwd()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.2"


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd)


def result(done):
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    problems = []
    wanted = {0: {m["name"] for m in BENCH["end_to_end"]},
              1: {m["name"] for m in BENCH["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run(workload, trace)
            got = result(done)
            if done.returncode != 0 or not got or not got["correct"]:
                problems.append(f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
                continue
            if set(got["metrics"]) != wanted[trace]:
                problems.append(f"{workload} trace {trace}: names differ: "
                                f"{sorted(set(got['metrics']) ^ wanted[trace])}")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as copy:
        shutil.copy(ROOT / "BENCHMARK.json", copy)
        for path in (*BENCH["paths"], "src"):
            shutil.copytree(ROOT / path, Path(copy, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        pins_file = Path(copy, "perfbench", "pins.json")
        pins = json.loads(pins_file.read_text())
        pins["sweep-small"][str(DEFAULT_SEED)][0][1] += 1
        pins_file.write_text(json.dumps(pins))
        done = run("sweep-small", 0, cwd=copy)
        got = result(done)
        if done.returncode != 1 or not got or got["correct"] or got["failed"] < 1:
            problems.append(f"a wrong pin did not trip the gate: exit {done.returncode}, {got}")

    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, Path(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run("sweep-small", 0, cwd=bare)
        if done.returncode != 2 or done.stdout.strip():
            problems.append(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
