"""Per-layer metrics: which functions are traced and how spans and counts
become the per_layer metrics of BENCHMARK.json.

Layers are the package's modules.  Self times are seconds per cycle of
the traced run; `field.lowest_irreducible.self_s` is the exception: the
modulus search runs only while setting up (its result is cached), so it
reports the set-up phase's seconds.  Counts come from one extra cycle
run with counting shims (tracing.Counters) and repeat exactly for a
given seed.
"""

from __future__ import annotations

import statistics

from tracing import Counters

# (metric prefix, where the function is defined, size of one call's work)
TRACED = (
    ("field.lowest_irreducible", "nxmds.field:lowest_irreducible", None),
    ("matrix.mat_mul", "nxmds.matrix:mat_mul", None),
    ("matrix.row_rank", "nxmds.matrix:row_rank", None),
    ("code.encode", "nxmds.code:encode",
     lambda a, r: a[0].n * a[0].alpha * a[0].N),
    ("code.decode_codeword", "nxmds.code:decode_codeword", None),
    ("code.hash_word_decode", "nxmds.code:hash_word_decode", None),
    ("code.erasure_decode", "nxmds.code:erasure_decode",
     lambda a, r: a[0].k * a[0].alpha * a[0].N),
    ("hashing.node_hash", "nxmds.hashing:node_hash",
     lambda a, r: len(a[0]) * len(a[1].symbols)),
    ("hashing.prg_expand", "nxmds.hashing:prg_expand", lambda a, r: a[1]),
    ("hashing.draw_random_vector", "nxmds.hashing:draw_random_vector", None),
    ("storage.sample_error_plan", "nxmds.storage:sample_error_plan", None),
    ("storage.corrupt", "nxmds.storage:corrupt", None),
    ("storage.SystemState.restore", "nxmds.storage:SystemState.restore", None),
    ("storage.true_error_set", "nxmds.storage:true_error_set", None),
    ("storage.make_system", "nxmds.storage:make_system", None),
    ("verifier.collect_hashes", "nxmds.verifier:collect_hashes", None),
    ("verifier.verify", "nxmds.verifier:verify", None),
    ("verifier.repair_node", "nxmds.verifier:repair_node", None),
    ("experiments.mc_failure_rate", "nxmds.experiments:mc_failure_rate", None),
    ("experiments.run_trial", "nxmds.experiments:run_trial", None),
    ("container.read_matrix", "nxmds.container:read_matrix", None),
    ("container.deserialize_matrix", "nxmds.container:deserialize_matrix",
     lambda a, r: len(a[0])),
    ("container.write_matrix", "nxmds.container:write_matrix", None),
    ("container.serialize_matrix", "nxmds.container:serialize_matrix",
     lambda a, r: len(r)),
)

# spans the benchmark opens itself, around each nxmds.cli.main call
CLI = ("encode", "corrupt", "hash", "verify", "repair")

# per-call throughput: (metric, traced prefix, work scale, unit)
RATES = (
    ("code.encode.symbols_per_s", "code.encode", 1, "1/s"),
    ("code.decode_codeword.words_per_s", "code.decode_codeword", None, "1/s"),
    ("code.erasure_decode.symbols_per_s", "code.erasure_decode", 1, "1/s"),
    ("hashing.node_hash.symbols_per_s", "hashing.node_hash", 1, "1/s"),
    ("hashing.prg_expand.symbols_per_s", "hashing.prg_expand", 1, "1/s"),
)


def install(tracer):
    for name, path, work in TRACED:
        tracer.wrap(path, name, work)


def setup_self_s(tracer):
    """Seconds the set-up phase spent in the modulus search."""
    return tracer.stats("field.lowest_irreducible")[0]


def count_pass(w):
    """Rerun cycle 0 with counting shims; returns counts for one cycle."""
    counters = Counters()
    counters.install()
    try:
        w.run_cycle(0, keep=False)
    finally:
        counters.uninstall()
    return counters.counts


def per_layer(w, tracer, setup_self_s, counts, wall):
    cycles = len(w.cycle_seconds)
    m = {}
    m["field.prime_ops"] = (counts["prime_ops"], "count")
    m["field.ext_ops"] = (counts["ext_ops"], "count")
    m["field.check_calls"] = (counts["check_calls"], "count")
    m["field.lowest_irreducible.self_s"] = (setup_self_s, "s")
    m["matrix.dot.calls"] = (counts["dot_calls"], "count")
    words = counts["decoded_words"]
    m["code.decode_codeword.attempts_per_word"] = (
        counts["decode_attempts"] / words if words else 0.0, "count")

    total_self = 0.0
    for name, _, _ in TRACED:
        self_s = tracer.stats(name)[0]
        total_self += self_s
        if name != "field.lowest_irreducible":
            m[f"{name}.self_s"] = (self_s / cycles, "s")
    for cmd in CLI:
        self_s = tracer.stats(f"cli.cmd_{cmd}")[0]
        durations = tracer.durations(f"cli.cmd_{cmd}")
        total_self += self_s
        m[f"cli.cmd_{cmd}.self_s"] = (self_s / cycles, "s")
        m[f"cli.cmd_{cmd}.ms_p50"] = (statistics.median(durations) * 1e3 if durations else 0.0, "ms")

    for metric, name, scale, unit in RATES:
        _, incl, calls, work = tracer.stats(name)
        done = calls if scale is None else work
        m[metric] = (done / incl if incl else 0.0, unit)

    read_s = tracer.stats("container.read_matrix")[1]
    write_s = tracer.stats("container.write_matrix")[1]
    read_b = tracer.stats("container.deserialize_matrix")[3]
    write_b = tracer.stats("container.serialize_matrix")[3]
    m["container.bytes_read"] = (counts["bytes_read"], "B")
    m["container.bytes_written"] = (counts["bytes_written"], "B")
    m["container.read_mb_per_s"] = (read_b / read_s / 1e6 if read_s else 0.0, "MB/s")
    m["container.write_mb_per_s"] = (write_b / write_s / 1e6 if write_s else 0.0, "MB/s")

    audits, audit_s = w.audits()
    coverage = total_self / wall
    m["trace.coverage"] = (coverage, "ratio")
    m["trace.audits_per_s"] = (audits / audit_s, "1/s")
    m["trace.cycle_ms_mean"] = (statistics.fmean(w.cycle_seconds) * 1e3, "ms")
    detail = {"coverage": coverage, "traced_wall_s": wall, "counts_per_cycle": counts,
              "spans": len(tracer.span_start)}
    return m, detail
