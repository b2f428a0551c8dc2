"""Record pinned `failures` counts for the Monte Carlo workloads.

    python3 perfbench/record_pins.py

Runs the first cycles of each Monte Carlo workload, without a time
limit, for the default and the held-out seed, and writes
perfbench/pins.json.  The gate in run.py compares every call that falls
inside a pinned prefix against these counts; a change that alters any
count for a fixed seed must say why.
"""

import json
import sys

from run import DEFAULT_SEED, HELD_OUT_SEED, import_package

# cycles pinned per workload, about as many as a 30 s run completes; calls
# past them are checked without a pin
PINNED_CYCLES = {"sweep-small": 600, "audit-mid": 500}


def main():
    import_package()
    import workloads
    pins = {}
    for name, cycles in PINNED_CYCLES.items():
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            w = workloads.make(name, None)
            w.setup(seed)
            for cycle in range(cycles):
                w.run_cycle(cycle)
            w.check({})
            if any(op.failed for op in w.ops):
                sys.exit(f"{name} seed {seed}: a call failed the gate; nothing pinned")
            pins.setdefault(name, {})[str(seed)] = w.failures_table(cycles)
            print(f"{name} seed {seed}: {cycles} cycles pinned", file=sys.stderr)
    with open(workloads.PINS_PATH, "w") as fh:
        json.dump(pins, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
