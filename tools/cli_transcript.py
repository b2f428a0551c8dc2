"""Fixed-seed transcript of the nxmds command line, for diffing two
checkouts byte for byte.

    python3 tools/cli_transcript.py > transcript.txt

Runs a fixed list of commands through nxmds.cli.main, in one process,
with the nxmds of the checkout this script belongs to (its ./src).  The
commands run inside a fresh temporary directory, which is removed at
the end, so nothing is written inside the checkout.  For each command
the transcript gives the argv, the exit code, stdout, stderr and the
sha256 of every file the command created, changed or removed.  Every
path is relative to the temporary directory, so two runs of the same
code print the same bytes; diffing the transcripts of two commits shows
any change in fixed-seed behaviour.

The list covers encode, every corrupt model (and a missing target),
hash in both modes, verify, repair and the on-disk audit on systems
over prime and extension fields; the in-memory audit in both modes;
experiment sweeps in thm1/thm2 over GF(7), GF(257), GF(9) and GF(8);
params, bias-check, and malformed inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nxmds import cli  # noqa: E402

# (n, k, q, N): prime and extension fields, t1 = 1 to 3, and a p near 3*10^9
SYSTEMS = [
    (4, 2, 17, 3),
    (6, 2, 257, 4),
    (6, 2, 9, 3),
    (6, 2, 8, 3),
    (7, 3, 7, 2),
    (12, 6, 257, 8),
    (6, 2, 3000000019, 4),
]
MODES = ("true-random", "pseudorandom")


def corrupt_specs(n, k, N):
    t1 = (n - k) // 2
    # past t1 = (n-k)//2 bad nodes the hash vector may be undecodable
    specs = [["cell:1"], ["dense:1"], [f"dense:{t1}"], [f"rank1:{t1}"], [f"dense:{t1 + 1}"]]
    if N >= 2:
        specs.append(["rankf:1", "--rank", "2"])
    return specs


def commands():
    """The transcript's argv lists, in order; a list starting with
    "write" is a file edit the transcript makes itself."""
    for j, (n, k, q, N) in enumerate(SYSTEMS):
        d = f"sys{j}"
        code = ["--n", str(n), "--k", str(k), "--q", str(q), "--N", str(N)]
        for s, spec in enumerate(corrupt_specs(n, k, N)):
            yield ["encode", *code, "--seed", str(j), "--out", d]
            yield ["corrupt", d, "--model", *spec, "--seed", str(s)]
            for mode in MODES:
                yield ["hash", d, "--mode", mode, "--seed", str(s)]
                yield ["verify", d]
                yield ["audit", d, "--mode", mode, "--seed", str(s)]
            yield ["repair", d, "--node", "1"]
            yield ["hash", d, "--seed", str(s)]
            yield ["verify", d]
        yield ["corrupt", d, "--model", "null-against-vector", "--seed", "0"]
        for mode in MODES:
            yield ["audit", *code, "--mode", mode, "--seed", str(j)]
            for spec in corrupt_specs(n, k, N):
                yield ["audit", *code, "--corrupt", *spec, "--mode", mode, "--seed", str(j)]

    for mode in ("thm1", "thm2"):
        for model in (["rank1:2"], ["cell:1"], ["dense:2"], ["rankf:1", "--rank", "2"]):
            yield ["experiment", "--n", "6", "--k", "2", "--q", "7,257,9,8", "--N", "3",
                   "--model", *model, "--mode", mode, "--trials", "150", "--seed", "3"]
        yield ["experiment", "--n", "4", "--k", "2", "--q", "17,257", "--N", "8",
               "--model", "rank1:1", "--mode", mode, "--trials", "400", "--seed", "1",
               "--out", f"sweep_{mode}.csv"]
        yield ["experiment", "--n", "6", "--k", "2", "--q", "7", "--N", "3",
               "--model", "rank1:0", "--mode", mode, "--trials", "100"]

    for M, n, k, mode, N in [(1000, 4, 2, "thm1", None), (1000, 4, 2, "thm2", None),
                             (10 ** 9, 10, 4, "thm1", None), (10 ** 6, 9, 5, "thm2", 64)]:
        yield ["params", "--M", str(M), "--n", str(n), "--k", str(k), "--mode", mode,
               *(["--N", str(N)] if N else [])]
    for q, N in [(2, 4), (3, 3), (2, 5)]:
        yield ["bias-check", "--q", str(q), "--N", str(N)]

    # malformed input
    yield ["bias-check", "--q", "4", "--N", "3"]
    yield ["params", "--M", "100", "--n", "4", "--k", "3", "--mode", "thm1"]
    yield ["encode", "--n", "4", "--k", "4", "--q", "17", "--out", "bad"]
    yield ["encode", "--n", "4", "--k", "2", "--q", "6", "--out", "bad"]
    yield ["encode", "--n", "9", "--k", "2", "--q", "7", "--out", "bad"]
    yield ["verify", "missing"]
    yield ["repair", "sys0", "--node", "0"]
    yield ["corrupt", "sys0", "--model", "nonsense:1"]
    yield ["experiment", "--n", "4", "--k", "2", "--q", ",", "--trials", "10"]
    yield ["experiment", "--n", "4", "--k", "2", "--q", "17", "--model", "rank1:2"]
    yield ["audit"]
    yield ["audit", "--n", "4", "--k", "2", "--q", "17", "--mode", "quantum"]
    yield ["write", "sys0/hash.nxm", b"NXM"]
    yield ["verify", "sys0"]
    yield ["write", "sys0/node_3.nxm", b""]
    yield ["hash", "sys0"]


def snapshot():
    """sha256 of every file under the current directory, by relative path."""
    out = {}
    for root, _, files in os.walk("."):
        for name in files:
            path = os.path.relpath(os.path.join(root, name))
            out[path] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return out


def run(argv):
    """Exit code, stdout and stderr of one nxmds.cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def block(label, text):
    lines = text.splitlines()
    return [f"{label}:"] + [f"  {line}" for line in lines]


def main():
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        before = snapshot()
        for argv in commands():
            if argv[0] == "write":
                _, path, data = argv
                Path(path).write_bytes(data)
                lines = [f"# write {path} ({len(data)} bytes)"]
            else:
                code, out, err = run(argv)
                lines = ["$ nxmds " + " ".join(argv), f"exit: {code}",
                         *block("stdout", out), *block("stderr", err)]
            after = snapshot()
            for path in sorted(before.keys() | after.keys()):
                if before.get(path) != after.get(path):
                    lines.append(f"file {path}: {after.get(path, 'removed')}")
            before = after
            sys.stdout.write("\n".join(lines) + "\n\n")
        os.chdir(home)


if __name__ == "__main__":
    main()
