"""Command-line front end for the audit workflow and experiment sweeps.

Exit codes: 0 clean/success, 1 malformed input or usage error, 2 errors
located, 3 undecodable.  Every command draws all of its randomness from
the single --seed flag through fixed derivation labels, so repeated runs
are byte-identical.
"""

import argparse
import csv
import io
import os
import sys
from fractions import Fraction

import numpy as np

from . import container
from .code import CodeParams, encode_array, make_code, node_rows
from .errors import NxmdsError
from .experiments import bias_sweep, check_run, mc_failure_rate
from .field import field_from_order
from .hashing import (
    PSEUDORANDOM,
    TRUE_RANDOM,
    draw_vector,
    minimal_extension_degree,
    seed_bit_count,
)
from .storage import (
    SystemState,
    apply_plan,
    corrupt,
    from_slices,
    ingest,
    make_system,
    random_data,
    sample_error_plan,
    true_error_set,
)
from .verifier import (
    STATUS_CLEAN,
    STATUS_LOCATED,
    STATUS_UNDECODABLE,
    THEOREMS,
    accounting,
    choose_field,
    collect_hashes,
    failure_bound,
    naive_fetch_bits,
    repair_node,
    verify,
)

EXIT_CLEAN = 0
EXIT_MALFORMED = 1
EXIT_LOCATED = 2
EXIT_UNDECODABLE = 3

_STATUS_EXIT = {
    STATUS_CLEAN: EXIT_CLEAN,
    STATUS_LOCATED: EXIT_LOCATED,
    STATUS_UNDECODABLE: EXIT_UNDECODABLE,
}

# randomness derivation labels, one per consumer
LABEL_DATA = 0
LABEL_PLAN = 1
LABEL_VECTOR = 2
LABEL_GRID = 3

MODEL_ALIASES = {
    "cell": "single-cell",
    "dense": "random-dense",
    "rank1": "rank-1",
    "rankf": "rank-f",
}


def _emit(items) -> None:
    """Write an ordered key-value report, one `key: value` line each."""
    sys.stdout.write("".join(f"{key}: {value}\n" for key, value in items))


def _rng(seed: int, label: int):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(label,)))


def _parse_model(spec: str):
    """Parse 'model' or 'model:t' into (canonical name, node count)."""
    name, _, count = spec.partition(":")
    model = MODEL_ALIASES.get(name, name)
    t = int(count) if count else 1
    return model, t


def _format_nodes(nodes) -> str:
    return " ".join(str(i) for i in sorted(nodes))


def _data_path(directory: str) -> str:
    return os.path.join(directory, "data.nxm")


def _node_path(directory: str, i: int) -> str:
    return os.path.join(directory, f"node_{i}.nxm")


def _check_header(what: str, header, params, node_id: int = 0) -> None:
    """A file read from a node directory must carry the header encode
    wrote for it: node id i for node file i, 0 for data and hash."""
    if header.node_id != node_id:
        raise NxmdsError(f"{what} carries node id {header.node_id}")
    if header != container.header_for(params, node_id):
        raise NxmdsError(f"{what} disagrees on code parameters")


def _load_system(directory: str):
    """Rebuild params, generator and node contents from a directory;
    node 1's header gives the code parameters, every header is checked."""
    header, rows = container.read_matrix(_node_path(directory, 1))
    params, G = container.code_for(header)
    slices = []
    for i in range(1, params.n + 1):
        if i > 1:
            header, rows = container.read_matrix(_node_path(directory, i))
        _check_header(f"node file {i}", header, params, i)
        slices.append(rows)
    return params, G, from_slices(params, G, slices)


def cmd_encode(args) -> int:
    field = field_from_order(args.q)
    params, G = make_code(args.n, args.k, field, args.N)
    if args.data is not None:
        with open(args.data, "rb") as fh:
            X = ingest(fh.read(), params)
        source = args.data
    else:
        X = random_data(params, _rng(args.seed, LABEL_DATA))
        source = f"random (seed {args.seed})"
    C = encode_array(params, X)
    os.makedirs(args.out, exist_ok=True)
    container.write_matrix(_data_path(args.out), container.header_for(params), X)
    for i, block in enumerate(C, 1):
        container.write_matrix(
            _node_path(args.out, i),
            container.header_for(params, node_id=i),
            block,
        )
    _emit([
        ("command", "encode"),
        ("params", repr(params)),
        ("source", source),
        ("out", args.out),
        ("files", params.n + 1),
    ])
    return EXIT_CLEAN


def cmd_corrupt(args) -> int:
    params, G, state = _load_system(args.dir)
    model, t = _parse_model(args.model)
    rng = _rng(args.seed, LABEL_PLAN)
    plan = sample_error_plan(model, t, rng, params, f=args.rank)
    for node_id, block in zip(plan.ids, apply_plan(params, state.nodes, plan)):
        container.write_matrix(
            _node_path(args.dir, node_id),
            container.header_for(params, node_id=node_id),
            block,
        )
    _emit([
        ("command", "corrupt"),
        ("model", plan.model),
        ("nodes", _format_nodes(plan.nodes)),
    ])
    return EXIT_CLEAN


def cmd_hash(args) -> int:
    params, G, state = _load_system(args.dir)
    r, prg = draw_vector(params, args.mode, _rng(args.seed, LABEL_VECTOR))
    H = collect_hashes(state, r)
    container.write_matrix(
        os.path.join(args.dir, "hash.nxm"),
        container.header_for(params),
        H[:, None],
    )
    # the shared randomness is stored alongside so the run is auditable:
    # either the expanded vector itself or the short seed it grew from
    seed_path = os.path.join(args.dir, "seed.nxm")
    rvec_path = os.path.join(args.dir, "rvec.nxm")
    for stale in (seed_path, rvec_path):
        if os.path.exists(stale):
            os.remove(stale)
    if prg is not None:
        container.write_matrix(
            seed_path,
            container.header_for(params),
            [list(prg.ext.coords(prg.x)), list(prg.ext.coords(prg.y))],
        )
    else:
        container.write_matrix(
            rvec_path, container.header_for(params), r.symbols[None]
        )
    _emit([
        ("command", "hash"),
        ("mode", r.provenance),
        ("hash-symbols", len(H)),
        ("seed-bits", seed_bit_count(r.provenance, params)),
    ])
    return EXIT_CLEAN


def _hash_provenance(directory: str) -> str:
    if os.path.exists(os.path.join(directory, "seed.nxm")):
        return PSEUDORANDOM
    return TRUE_RANDOM


def cmd_verify(args) -> int:
    header, rows = container.read_matrix(os.path.join(args.dir, "hash.nxm"))
    params, G = container.code_for(header)
    _check_header("hash file", header, params)
    if rows.shape != (params.n * params.alpha, 1):
        raise NxmdsError("hash file has the wrong shape")
    kind = _hash_provenance(args.dir)
    report = verify(rows[:, 0], params, G)
    _emit([
        ("command", "verify"),
        ("params", repr(params)),
        ("mode", kind),
        ("status", report.status),
        ("flagged", _format_nodes(report.flagged)),
        ("hash-bits", accounting(params, kind).hash_bits),
    ])
    return _STATUS_EXIT[report.status]


def cmd_repair(args) -> int:
    params, G, state = _load_system(args.dir)
    helpers = [i for i in range(1, params.n + 1) if i != args.node]
    rebuilt = repair_node(state, args.node, helpers)
    container.write_matrix(
        _node_path(args.dir, args.node),
        container.header_for(params, node_id=args.node),
        rebuilt,
    )
    _emit([
        ("command", "repair"),
        ("node", args.node),
        ("helpers", _format_nodes(helpers)),
        ("rows", _format_nodes(node_rows(params, args.node))),
    ])
    return EXIT_CLEAN


def _audit_common(params, G, state, truth, args):
    r, _ = draw_vector(params, args.mode, _rng(args.seed, LABEL_VECTOR))
    H = collect_hashes(state, r)
    report = verify(H, params, G)
    items = [
        ("command", "audit"),
        ("params", repr(params)),
        ("mode", r.provenance),
        ("status", report.status),
        ("flagged", _format_nodes(report.flagged)),
    ]
    if truth is not None:
        items.append(("true-errors", _format_nodes(truth)))
        items.append(("flagged-subset-of-true",
                      "yes" if set(report.flagged) <= set(truth) else "no"))
    budget = accounting(params, r.provenance)
    items += [
        ("data-bits", budget.data_bits),
        ("hash-bits", budget.hash_bits),
        ("naive-bits", budget.naive_bits),
        ("seed-bits", budget.seed_bits),
        ("seed-distribution-bits", budget.seed_distribution_bits),
        ("seed", args.seed),
    ]
    _emit(items)
    return _STATUS_EXIT[report.status]


def cmd_audit(args) -> int:
    if args.dir is not None:
        params, G, state = _load_system(args.dir)
        truth = None
        data_path = _data_path(args.dir)
        if os.path.exists(data_path):
            header, X = container.read_matrix(data_path)
            _check_header("data file", header, params)
            truth = true_error_set(
                SystemState(params, G, state.nodes, clean=encode_array(params, X)))
        return _audit_common(params, G, state, truth, args)

    field = field_from_order(args.q)
    params, G = make_code(args.n, args.k, field, args.N)
    X = random_data(params, _rng(args.seed, LABEL_DATA))
    state = make_system(params, G, X)
    if args.corrupt is not None:
        model, t = _parse_model(args.corrupt)
        plan = sample_error_plan(model, t, _rng(args.seed, LABEL_PLAN),
                                 params, f=args.rank)
        corrupt(state, plan)
    return _audit_common(params, G, state, true_error_set(state), args)


def cmd_experiment(args) -> int:
    qs = [int(v) for v in args.q.split(",") if v]
    if not qs:
        raise NxmdsError("empty q grid")
    model, t = _parse_model(args.model)
    kind = THEOREMS[args.mode]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "n", "k", "q", "N", "model", "t", "kind", "trials", "failures",
        "estimate", "sigma", "lo", "hi", "bound", "result",
    ])
    if args.trials < 0:
        raise ValueError("trials must be >= 0")
    for idx, q in enumerate(qs):
        field = field_from_order(q)
        params, _ = make_code(args.n, args.k, field, args.N)
        if args.trials == 0:  # no row, but the inputs of a run are checked
            check_run(params, model, t, f=args.rank)
            continue
        est = mc_failure_rate(params, model, t, kind, args.trials,
                              (args.seed, LABEL_GRID, idx), f=args.rank)
        ok = est.estimate <= est.bound + 3 * est.sigma
        writer.writerow([
            args.n, args.k, q, args.N, model, t, kind, est.trials,
            est.failures, repr(est.estimate), repr(est.sigma),
            repr(est.interval[0]), repr(est.interval[1]), repr(est.bound),
            "pass" if ok else "fail",
        ])
    text = buf.getvalue()
    if args.out is not None:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_CLEAN


def cmd_bias_check(args) -> int:
    m, worst, worst_zero = bias_sweep(args.q, args.N, args.m)
    bound = Fraction((args.q - 1) * (args.N - 1), args.q ** m)
    zero_bound = Fraction(2, args.q)
    ok = worst <= bound and worst_zero <= zero_bound
    _emit([
        ("command", "bias-check"),
        ("q", args.q),
        ("N", args.N),
        ("m", m),
        ("max-bias", worst),
        ("bias-bound", bound),
        ("max-zero-prob", worst_zero),
        ("zero-prob-bound", zero_bound),
        ("result", "pass" if ok else "fail"),
    ])
    return EXIT_CLEAN if ok else EXIT_MALFORMED


def cmd_params(args) -> int:
    field = choose_field(args.M, args.n, args.k, args.mode)
    kind = THEOREMS[args.mode]
    if args.N is not None:
        N = args.N
    else:  # the fewest columns holding M bits
        per_column = accounting(CodeParams(args.n, args.k, field), kind).data_bits
        N = max(1, -(-args.M // per_column))
    params, _ = make_code(args.n, args.k, field, N)
    budget = accounting(params, kind)
    bound = failure_bound(args.n, args.k, field.q, kind)
    items = [
        ("command", "params"),
        ("M-bits", args.M),
        ("n", args.n),
        ("k", args.k),
        ("mode", args.mode),
        ("q", field.q),
        ("p", field.p),
        ("s", field.s),
        ("N", N),
        ("hash-bits", budget.hash_bits),
        ("naive-bits", naive_fetch_bits(args.n, args.k, args.M)),
        ("seed-bits", budget.seed_bits),
        ("failure-bound", bound),
        ("meets-1-over-M", "yes" if bound <= Fraction(1, args.M) else "no"),
    ]
    if kind == PSEUDORANDOM:
        items.insert(9, ("m", minimal_extension_degree(field.q, N)))
    _emit(items)
    return EXIT_CLEAN


def _add_code_flags(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--N", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nxmds",
        description="Encode, corrupt, hash, verify and repair coded storage.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    theorems = list(THEOREMS)  # Theorem 1, the true-random audit, first

    p = sub.add_parser("encode", help="encode data into node files")
    _add_code_flags(p)
    p.add_argument("data", nargs="?", default=None,
                   help="input file (random data when omitted)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("corrupt", help="inject committed errors into node files")
    p.add_argument("dir")
    p.add_argument("--model", required=True,
                   help="error model, optionally model:t for t nodes")
    p.add_argument("--rank", type=int, default=None,
                   help="target rank for the rankf model")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("hash", help="project node contents onto a shared vector")
    p.add_argument("dir")
    p.add_argument("--mode", choices=[TRUE_RANDOM, PSEUDORANDOM],
                   default=TRUE_RANDOM)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_hash)

    p = sub.add_parser("verify", help="locate erroneous nodes from stored hashes")
    p.add_argument("dir")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("repair", help="rebuild one node from the others")
    p.add_argument("dir")
    p.add_argument("--node", type=int, required=True)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("audit", help="full pipeline: hash, locate, account")
    p.add_argument("dir", nargs="?", default=None,
                   help="node directory (simulates in memory when omitted)")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--corrupt", default=None,
                   help="error model to inject first, e.g. rank1:1")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--mode", choices=[TRUE_RANDOM, PSEUDORANDOM],
                   default=TRUE_RANDOM)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("experiment", help="Monte Carlo sweep to CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", required=True, help="comma-separated field orders")
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--model", default="rank1:1")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--mode", choices=theorems, default=theorems[0])
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("bias-check", help="exhaustive generator bias audit")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=cmd_bias_check)

    p = sub.add_parser("params", help="size the field for a data volume")
    p.add_argument("--M", type=int, required=True, help="data volume in bits")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--mode", choices=theorems, required=True)
    p.set_defaults(func=cmd_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "audit" and args.dir is None:
        if args.n is None or args.k is None or args.q is None:
            parser.error("audit needs either a directory or --n/--k/--q")
    try:
        return args.func(args)
    except (NxmdsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
