"""Fixed-seed transcript of the Monte Carlo engine and the error-plan
sampler, for diffing two checkouts byte for byte.

    python3 tools/engine_transcript.py > engine.txt

Runs with the nxmds of the checkout this script belongs to (its ./src)
and writes nothing but stdout.  For every code in SHAPES, every error
model, both kinds of randomness and every t <= t1 it prints the
RateEstimate of experiments.mc_failure_rate at a fixed master seed.  For
every code and model it prints the sha256 of PLANS sampled plans
(their entries, model and declared rank) and the next draw of the rng
that sampled them.  Two runs of the same code print the same bytes;
diffing the transcripts of two commits shows any change in what the
engine counts or the sampler draws.  It complements cli_transcript.py,
which covers the command line.

The reference transcript's sha256, which a change that keeps the
engine and the sampler byte for byte must reproduce, is

    python3 tools/engine_transcript.py | sha256sum
    3354b434bb7ecb6b37d17730defa41eacc8b0266acc47d77bcbd9e5380f1ecce

tests/test_transcripts.py pins the transcript of the prime-field shapes
alone (SHAPES without GF(9) and GF(8), about 4 s) in tier-1; the whole
transcript, about a minute, is checked by running this script.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from nxmds import storage  # noqa: E402
from nxmds.code import CodeParams  # noqa: E402
from nxmds.experiments import mc_failure_rate  # noqa: E402
from nxmds.field import field_from_order  # noqa: E402

# (n, k, q, N, trials): prime and extension fields (characteristic 2
# and 3), a p near 3*10^9, and the benchmark's (12,6,257,64)
SHAPES = [
    (6, 2, 17, 4, 200),
    (4, 2, 257, 8, 200),
    (4, 2, 4, 3, 200),
    (7, 3, 9, 3, 200),
    (6, 2, 8, 3, 200),
    (6, 2, 3000000019, 4, 100),
    (12, 6, 257, 64, 40),
]
KINDS = ("true-random", "pseudorandom")
PLANS = 20


def model_args(model, q, N):
    """The rank of rank-f and the target of null-against-vector."""
    return {"f": 2 if model == "rank-f" else None,
            "target": [(3 * j + 1) % q for j in range(N)]}


def main():
    out = sys.stdout
    for s, (n, k, q, N, trials) in enumerate(SHAPES):
        params = CodeParams(n, k, field_from_order(q), N)
        out.write(f"# {params!r}, {trials} trials per estimate\n")
        for m, model in enumerate(storage.MODELS):
            kw = model_args(model, q, N)
            rng = np.random.default_rng([n, k, q, N, m])
            digest = hashlib.sha256()
            for _ in range(PLANS):
                plan = storage.sample_error_plan(model, params.t1, rng, params, **kw)
                digest.update(repr((plan.entries, plan.model, plan.declared_rank)).encode())
            out.write(f"plans {model}: {digest.hexdigest()} next {int(rng.integers(2 ** 62))}\n")
            for kind in KINDS:
                for t in range(params.t1 + 1):
                    est = mc_failure_rate(params, model, t, kind, trials, 1000 * s + m, **kw)
                    out.write(f"{model} {kind} t={t}: {est!r}\n")
        out.write("\n")


if __name__ == "__main__":
    main()
