import dataclasses
import hashlib
import subprocess
import sys

import pytest

from nxmds import container
from nxmds.cli import LABEL_PLAN, _rng, main
from nxmds.code import erasure_decode, make_code
from nxmds.field import field_from_order
from nxmds.storage import corrupt, ingest, make_system, sample_error_plan
from nxmds.verifier import THEOREMS, accounting, naive_fetch_bits


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_value(text, key):
    for line in text.splitlines():
        k, _, v = line.partition(": ")
        if k == key:
            return v
    raise KeyError(key)


def test_encode_writes_all_files(tmp_path, capsys):
    out = tmp_path / "sys"
    code, text, _ = run(capsys, "encode", "--n", "4", "--k", "2", "--q", "5",
                        "--N", "3", "--seed", "1", "--out", str(out))
    assert code == 0
    assert report_value(text, "files") == "5"
    header, X = container.read_matrix(out / "data.nxm")
    assert header.node_id == 0 and len(X) == 4 and len(X[0]) == 3
    for i in range(1, 5):
        node_header, rows = container.read_matrix(out / f"node_{i}.nxm")
        assert node_header.node_id == i
        assert len(rows) == 2 and len(rows[0]) == 3


def test_encode_ingests_file(tmp_path, capsys):
    data = tmp_path / "payload.bin"
    data.write_bytes(b"\xab")
    out = tmp_path / "sys"
    code, text, _ = run(capsys, "encode", str(data), "--n", "4", "--k", "2",
                        "--q", "5", "--N", "3", "--out", str(out))
    assert code == 0
    _, X = container.read_matrix(out / "data.nxm")
    X = X.tolist()
    params, _ = make_code(4, 2, field_from_order(5), 3)
    assert X == ingest(b"\xab", params).tolist()
    # the node files alone recover the ingested matrix
    _, G = make_code(4, 2, field_from_order(5), 3)
    nodes = {
        i: container.read_matrix(out / f"node_{i}.nxm")[1] for i in (2, 4)
    }
    assert erasure_decode(params, nodes).tolist() == X


def test_encode_rejects_oversized_data(tmp_path, capsys):
    data = tmp_path / "payload.bin"
    data.write_bytes(b"\x00" * 100)
    code, _, err = run(capsys, "encode", str(data), "--n", "4", "--k", "2",
                       "--q", "5", "--N", "3", "--out", str(tmp_path / "s"))
    assert code == 1 and "error:" in err


def pipeline(tmp_path, capsys, q="257"):
    out = tmp_path / "sys"
    run(capsys, "encode", "--n", "4", "--k", "2", "--q", q, "--N", "3",
        "--seed", "1", "--out", str(out))
    return out


def test_corrupt_then_verify_locates(tmp_path, capsys):
    out = pipeline(tmp_path, capsys)
    code, text, _ = run(capsys, "corrupt", str(out), "--model", "rank1:1",
                        "--seed", "2")
    assert code == 0
    bad = report_value(text, "nodes")
    run(capsys, "hash", str(out), "--seed", "3")
    code, text, _ = run(capsys, "verify", str(out))
    assert code == 2
    assert report_value(text, "status") == "errors-located"
    assert report_value(text, "flagged") == bad


@pytest.mark.parametrize("q", ["257", "9"])
def test_corrupt_on_disk_matches_corrupt_in_memory(tmp_path, capsys, q):
    # the node files nxmds corrupt writes hold what storage.corrupt
    # stores in memory for the plan drawn from the same seed
    out = tmp_path / "sys"
    run(capsys, "encode", "--n", "6", "--k", "2", "--q", q, "--N", "3",
        "--seed", "1", "--out", str(out))
    code, text, _ = run(capsys, "corrupt", str(out), "--model", "dense:2", "--seed", "4")
    assert code == 0
    params, G = make_code(6, 2, field_from_order(int(q)), 3)
    state = make_system(params, G, container.read_matrix(out / "data.nxm")[1])
    plan = sample_error_plan("random-dense", 2, _rng(4, LABEL_PLAN), params)
    assert report_value(text, "nodes") == " ".join(map(str, sorted(plan.nodes)))
    corrupt(state, plan)
    for i in range(1, 7):
        assert container.read_matrix(out / f"node_{i}.nxm")[1].tolist() == state.content(i).tolist()


def test_corrupt_output_repeats(tmp_path, capsys):
    # the report states only what the seed determines, so identical
    # directories corrupted with one seed print identical bytes
    texts = []
    for name in ("a", "b"):
        out = pipeline(tmp_path / name, capsys)
        code, text, _ = run(capsys, "corrupt", str(out), "--model", "rank1:1",
                            "--seed", "2")
        assert code == 0
        texts.append(text)
    assert texts[0] == texts[1]


def test_clean_verify_exits_zero(tmp_path, capsys):
    out = pipeline(tmp_path, capsys)
    run(capsys, "hash", str(out), "--seed", "3")
    code, text, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert report_value(text, "status") == "clean"
    assert report_value(text, "flagged") == ""


def test_repair_restores_clean_state(tmp_path, capsys):
    out = pipeline(tmp_path, capsys)
    run(capsys, "corrupt", str(out), "--model", "cell:1", "--seed", "2")
    _, text, _ = run(capsys, "audit", str(out), "--seed", "3")
    bad = int(report_value(text, "true-errors"))
    code, _, _ = run(capsys, "repair", str(out), "--node", str(bad))
    assert code == 0
    code, text, _ = run(capsys, "audit", str(out), "--seed", "3")
    assert code == 0 and report_value(text, "true-errors") == ""


def test_audit_file_mode_reports_truth(tmp_path, capsys):
    out = pipeline(tmp_path, capsys)
    run(capsys, "corrupt", str(out), "--model", "dense:1", "--seed", "5")
    code, text, _ = run(capsys, "audit", str(out), "--seed", "6")
    assert code == 2
    assert report_value(text, "flagged-subset-of-true") == "yes"
    assert report_value(text, "flagged") == report_value(text, "true-errors")


def test_audit_simulated_clean(capsys):
    code, text, _ = run(capsys, "audit", "--n", "4", "--k", "2", "--q", "257",
                        "--N", "3", "--seed", "9")
    assert code == 0
    assert report_value(text, "status") == "clean"
    assert report_value(text, "true-errors") == ""


def test_audit_simulated_corrupt(capsys):
    code, text, _ = run(capsys, "audit", "--n", "4", "--k", "2", "--q", "257",
                        "--N", "3", "--seed", "9", "--corrupt", "rank1:1")
    assert code == 2
    assert report_value(text, "flagged-subset-of-true") == "yes"
    assert report_value(text, "flagged") != ""


def test_audit_beyond_radius_never_silently_clean(capsys):
    # two corrupted nodes against t1 = 1: either undecodable or a
    # wrong flagging that the truth comparison exposes, never exit 0
    saw_undecodable = False
    for seed in range(12):
        code, text, _ = run(capsys, "audit", "--n", "4", "--k", "2", "--q",
                            "17", "--N", "2", "--seed", str(seed),
                            "--corrupt", "dense:2")
        assert code in (2, 3)
        saw_undecodable |= code == 3
        if code == 2:
            assert report_value(text, "flagged-subset-of-true") in ("yes", "no")
    assert saw_undecodable


def test_audit_pseudorandom_mode(capsys):
    code, text, _ = run(capsys, "audit", "--n", "4", "--k", "2", "--q", "257",
                        "--N", "3", "--seed", "4", "--corrupt", "cell:1",
                        "--mode", "pseudorandom")
    assert code == 2
    assert report_value(text, "mode") == "pseudorandom"


def test_audit_deterministic(capsys):
    args = ("audit", "--n", "4", "--k", "2", "--q", "17", "--N", "2",
            "--seed", "3", "--corrupt", "rank1:1")
    code_a, text_a, _ = run(capsys, *args)
    code_b, text_b, _ = run(capsys, *args)
    assert (code_a, text_a) == (code_b, text_b)


# Fixed-seed outputs pinned byte for byte: Monte Carlo failure counts
# and estimates, flagged node sets and bit accounting must not drift
# when the implementation underneath them changes.
GOLDEN = [
    (("experiment", "--n", "6", "--k", "2", "--q", "17,257", "--N", "8",
      "--model", "rank1:2", "--trials", "1500", "--seed", "7"), 0, (
        'n,k,q,N,model,t,kind,trials,failures,estimate,sigma,lo,hi,bound,result\n'
        '6,2,17,8,rank-1,2,true-random,1500,165,0.11,0.008078778785600375,0.08576366364319887,0.13423633635680113,0.11764705882352941,pass\n'
        '6,2,257,8,rank-1,2,true-random,1500,11,0.007333333333333333,0.0022029609703844133,0.0007244504221800936,0.013942216244486574,0.007782101167315175,pass\n'
    )),
    (("audit", "--n", "12", "--k", "6", "--q", "257", "--N", "64",
      "--seed", "9", "--corrupt", "rank1:3"), 2, (
        'command: audit\n'
        'params: CodeParams(n=12, k=6, q=257, N=64)\n'
        'mode: true-random\n'
        'status: errors-located\n'
        'flagged: 4 6 7\n'
        'true-errors: 4 6 7\n'
        'flagged-subset-of-true: yes\n'
        'data-bits: 20736\n'
        'hash-bits: 648\n'
        'naive-bits: 41472\n'
        'seed-bits: 576\n'
        'seed-distribution-bits: 6912\n'
        'seed: 9\n'
    )),
    (("audit", "--n", "9", "--k", "5", "--q", "9", "--N", "4", "--seed", "2",
      "--corrupt", "dense:2", "--mode", "pseudorandom"), 2, (
        'command: audit\n'
        'params: CodeParams(n=9, k=5, q=9, N=4)\n'
        'mode: pseudorandom\n'
        'status: errors-located\n'
        'flagged: 8 9\n'
        'true-errors: 8 9\n'
        'flagged-subset-of-true: yes\n'
        'data-bits: 320\n'
        'hash-bits: 144\n'
        'naive-bits: 576\n'
        'seed-bits: 16\n'
        'seed-distribution-bits: 144\n'
        'seed: 2\n'
    )),
    (("params", "--M", "1000", "--n", "6", "--k", "2", "--mode", "thm1"), 0, (
        'command: params\n'
        'M-bits: 1000\n'
        'n: 6\n'
        'k: 2\n'
        'mode: thm1\n'
        'q: 2003\n'
        'p: 2003\n'
        's: 1\n'
        'N: 12\n'
        'hash-bits: 264\n'
        'naive-bits: 3000\n'
        'seed-bits: 132\n'
        'failure-bound: 2/2003\n'
        'meets-1-over-M: yes\n'
    )),
    (("params", "--M", "1000", "--n", "6", "--k", "2", "--mode", "thm2"), 0, (
        'command: params\n'
        'M-bits: 1000\n'
        'n: 6\n'
        'k: 2\n'
        'mode: thm2\n'
        'q: 16001\n'
        'p: 16001\n'
        's: 1\n'
        'N: 9\n'
        'm: 2\n'
        'hash-bits: 336\n'
        'naive-bits: 3000\n'
        'seed-bits: 56\n'
        'failure-bound: 16/16001\n'
        'meets-1-over-M: yes\n'
    )),
    (("experiment", "--n", "4", "--k", "2", "--q", "17,101", "--N", "4",
      "--model", "rank1:1", "--trials", "600", "--seed", "5", "--mode", "thm2"), 0, (
        'n,k,q,N,model,t,kind,trials,failures,estimate,sigma,lo,hi,bound,result\n'
        '4,2,17,4,rank-1,1,pseudorandom,600,46,0.07666666666666666,0.010861928073849572,0.044080882445117944,0.10925245088821538,0.23529411764705882,pass\n'
        '4,2,101,4,rank-1,1,pseudorandom,600,10,0.016666666666666666,0.005226357700618549,0.0009875935648110193,0.032345739768522314,0.039603960396039604,pass\n'
    )),
]


@pytest.mark.parametrize("argv,exit_code,stdout", GOLDEN,
                         ids=["experiment", "audit-rank1", "audit-prg",
                              "params-thm1", "params-thm2", "experiment-thm2"])
def test_golden_output(capsys, argv, exit_code, stdout):
    assert run(capsys, *argv)[:2] == (exit_code, stdout)


# The on-disk workflow, pinned the same way: "{dir}" stands for the
# system directory, and the files hash.nxm and seed.nxm by their SHA-256.
GOLDEN_DISK = [
    (("encode", "--n", "6", "--k", "2", "--q", "257", "--N", "16", "--seed",
      "4", "--out", "{dir}"), 0, (
        'command: encode\n'
        'params: CodeParams(n=6, k=2, q=257, N=16)\n'
        'source: random (seed 4)\n'
        'out: {dir}\n'
        'files: 7\n'
    )),
    (("corrupt", "{dir}", "--model", "rank1:2", "--seed", "5"), 0, (
        'command: corrupt\n'
        'model: rank-1\n'
        'nodes: 2 3\n'
    )),
    (("hash", "{dir}", "--mode", "pseudorandom", "--seed", "6"), 0, (
        'command: hash\n'
        'mode: pseudorandom\n'
        'hash-symbols: 24\n'
        'seed-bits: 36\n'
    )),
    (("verify", "{dir}"), 2, (
        'command: verify\n'
        'params: CodeParams(n=6, k=2, q=257, N=16)\n'
        'mode: pseudorandom\n'
        'status: errors-located\n'
        'flagged: 2 3\n'
        'hash-bits: 216\n'
    )),
]
GOLDEN_DISK_FILES = {
    "hash.nxm": "d3da52f93e122d8fc4bff735ac795e140a3dccd2b529cc49bbcce76bc03097a6",
    "seed.nxm": "dd984e279122e16168b56cbe37f87babbf43978cb745dd49ffef9187684ef5a4",
}


def test_golden_disk_pipeline(tmp_path, capsys):
    out = str(tmp_path / "sys")
    for argv, exit_code, stdout in GOLDEN_DISK:
        argv = [a.format(dir=out) for a in argv]
        assert run(capsys, *argv)[:2] == (exit_code, stdout.format(dir=out))
    for name, digest in GOLDEN_DISK_FILES.items():
        blob = (tmp_path / "sys" / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest


def test_hash_mode_is_self_describing(tmp_path, capsys):
    out = pipeline(tmp_path, capsys)
    run(capsys, "hash", str(out), "--seed", "3", "--mode", "pseudorandom")
    assert (out / "seed.nxm").exists() and not (out / "rvec.nxm").exists()
    _, text, _ = run(capsys, "verify", str(out))
    assert report_value(text, "mode") == "pseudorandom"
    run(capsys, "hash", str(out), "--seed", "3")
    assert (out / "rvec.nxm").exists() and not (out / "seed.nxm").exists()
    _, text, _ = run(capsys, "verify", str(out))
    assert report_value(text, "mode") == "true-random"


BUDGET_LINES = {"data-bits": "data_bits", "hash-bits": "hash_bits", "naive-bits": "naive_bits",
                "seed-bits": "seed_bits", "seed-distribution-bits": "seed_distribution_bits"}


@pytest.mark.parametrize("kind", ["true-random", "pseudorandom"])
@pytest.mark.parametrize("q", ["257", "9", "3000000019"])
def test_printed_bit_counts_are_accountings(tmp_path, capsys, q, kind):
    # every bit count the commands print is accounting's figure
    out = pipeline(tmp_path, capsys, q)
    params, _ = make_code(4, 2, field_from_order(int(q)), 3)
    budget = accounting(params, kind)
    assert sorted(BUDGET_LINES.values()) == sorted(f.name for f in dataclasses.fields(budget))
    _, text, _ = run(capsys, "hash", str(out), "--seed", "3", "--mode", kind)
    assert report_value(text, "seed-bits") == str(budget.seed_bits)
    _, text, _ = run(capsys, "verify", str(out))
    assert report_value(text, "hash-bits") == str(budget.hash_bits)
    _, text, _ = run(capsys, "audit", str(out), "--seed", "6", "--mode", kind)
    assert ({line: report_value(text, line) for line in BUDGET_LINES}
            == {line: str(getattr(budget, name)) for line, name in BUDGET_LINES.items()})
    # params prices the naive fetch from M itself; 8 does not divide M
    mode = next(mode for mode, k in THEOREMS.items() if k == kind)
    _, text, _ = run(capsys, "params", "--M", "1000001", "--n", "10", "--k", "8", "--mode", mode)
    assert report_value(text, "naive-bits") == str(naive_fetch_bits(10, 8, 1000001)) == "1250002"


def test_pseudorandom_audit_over_32_bit_prime(tmp_path, capsys):
    # the field `params --M 1000000000` picks; the generator runs over
    # GF(3000000019^2), whose expansion is past int64 and stays scalar
    out = tmp_path / "sys"
    run(capsys, "encode", "--n", "6", "--k", "2", "--q", "3000000019",
        "--N", "4", "--seed", "1", "--out", str(out))
    run(capsys, "corrupt", str(out), "--model", "rank1:1", "--seed", "2")
    code, _, _ = run(capsys, "hash", str(out), "--seed", "3", "--mode", "pseudorandom")
    assert code == 0 and (out / "seed.nxm").exists()
    code, text, _ = run(capsys, "verify", str(out))
    assert code == 2 and report_value(text, "mode") == "pseudorandom"
    assert report_value(text, "status") == "errors-located"


def test_experiment_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "experiment", "--n", "4", "--k", "2", "--q",
                     "17,101", "--N", "2", "--mode", "thm1", "--trials",
                     "400", "--seed", "7", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("n,k,q,N,model,t,kind,trials")
    assert lines[1].split(",")[2] == "17"
    assert all(line.endswith(",pass") for line in lines[1:])


def test_experiment_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("experiment", "--n", "4", "--k", "2", "--q", "17", "--N", "2",
            "--trials", "300", "--seed", "11")
    run(capsys, *args, "--out", str(a))
    run(capsys, *args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_experiment_zero_trials(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "experiment", "--n", "4", "--k", "2", "--q",
                     "17,101,257", "--trials", "0", "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 1


def test_bias_check(capsys):
    code, text, _ = run(capsys, "bias-check", "--q", "2", "--N", "4")
    assert code == 0
    assert report_value(text, "m") == "2"
    assert report_value(text, "max-bias") == "3/4"
    assert report_value(text, "result") == "pass"


def test_params_thm2_example(capsys):
    code, text, _ = run(capsys, "params", "--M", "1000000", "--n", "10",
                        "--k", "8", "--mode", "thm2")
    assert code == 0
    assert int(report_value(text, "q")) >= 4_000_000
    assert report_value(text, "meets-1-over-M") == "yes"
    assert report_value(text, "naive-bits") == "1250000"


def test_params_degenerate_code(capsys):
    code, _, err = run(capsys, "params", "--M", "1000", "--n", "4", "--k",
                       "3", "--mode", "thm1")
    assert code == 1 and "t1 = 0" in err


def test_missing_directory_is_malformed(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope"))
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "corrupt", str(tmp_path / "nope"),
                       "--model", "rank1")
    assert code == 1


def test_damaged_file_is_malformed(tmp_path, capsys):
    out = pipeline(tmp_path, capsys, q="5")
    blob = (out / "node_1.nxm").read_bytes()
    (out / "node_1.nxm").write_bytes(blob[:-1])
    code, _, err = run(capsys, "audit", str(out), "--seed", "1")
    assert code == 1 and "error:" in err
    (out / "node_1.nxm").write_bytes(b"GARBAGE" + blob[7:])
    code, _, _ = run(capsys, "audit", str(out), "--seed", "1")
    assert code == 1


def rewrite_header(path, **change):
    """Rewrite an .nxm file with some header fields changed."""
    header, rows = container.read_matrix(path)
    container.write_matrix(path, dataclasses.replace(header, **change), rows)


# (file, header change, commands that must refuse it, message)
BAD_HEADERS = {
    "node-id": ("node_2.nxm", {"node_id": 3}, ["hash", "repair", "audit"],
                "node file 2 carries node id 3"),
    "node-params": ("node_3.nxm", {"k": 1}, ["hash", "repair", "audit"],
                    "node file 3 disagrees on code parameters"),
    "node-modulus": ("node_2.nxm", {"modulus": (2, 2, 1)}, ["hash", "repair", "audit"],
                     "node file 2 disagrees on code parameters"),
    "hash-node-id": ("hash.nxm", {"node_id": 5}, ["verify"], "hash file carries node id 5"),
    "data-header": ("data.nxm", {"N": 2}, ["audit"], "data file disagrees on code parameters"),
}


@pytest.mark.parametrize("name,change,commands,message", BAD_HEADERS.values(),
                         ids=BAD_HEADERS.keys())
def test_every_header_read_is_checked(tmp_path, capsys, name, change, commands, message):
    # over GF(9), whose canonical modulus is x^2 + 1 = (1, 0, 1): every
    # file a command reads must carry the header encode wrote for it
    out = pipeline(tmp_path, capsys, q="9")
    run(capsys, "hash", str(out), "--seed", "3")
    rewrite_header(out / name, **change)
    for command in commands:
        extra = ["--node", "1"] if command == "repair" else []
        code, _, err = run(capsys, command, str(out), *extra)
        assert (code, err) == (1, f"error: {message}\n")


def test_bad_model_is_malformed(tmp_path, capsys):
    out = pipeline(tmp_path, capsys, q="5")
    code, _, err = run(capsys, "corrupt", str(out), "--model", "bogus:1")
    assert code == 1 and "error:" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nxmds", "audit", "--n", "4", "--k", "2",
         "--q", "17", "--seed", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "status: clean" in proc.stdout
