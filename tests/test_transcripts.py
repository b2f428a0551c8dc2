"""The command line's fixed-seed transcript, pinned by its digest.

tools/cli_transcript.py runs a fixed list of nxmds commands (every
subcommand, over prime and extension fields, and malformed inputs) and
prints each one's argv, exit code and output, and the digest of every
file it writes.  Any change in what the command line prints or writes
changes the digest below; a change that means to must say why and pin
the new digest.

tools/engine_transcript.py, the Monte Carlo engine's and the error-plan
sampler's transcript, is pinned the same way over its prime-field shapes
(about 4 s, every model, kind and t <= t1, t = 0 included).  Its GF(9)
and GF(8) shapes take most of its minute, so the whole transcript's
digest, in the script's docstring, is checked by running it.
"""

import contextlib
import hashlib
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
CLI_TRANSCRIPT = TOOLS / "cli_transcript.py"
CLI_TRANSCRIPT_SHA256 = "840378a61630c157f795be289a94eefc5057ed48ee6ee00a89a5d443aa765c6d"
ENGINE_TRANSCRIPT = TOOLS / "engine_transcript.py"
# the engine transcript without its extension-field shapes
ENGINE_PRIME_SHA256 = "f46471ed29f60a197470549236e397ac994ab3e38f3470ee651e9a638e96bcbf"


def test_cli_transcript_is_pinned():
    proc = subprocess.run([sys.executable, str(CLI_TRANSCRIPT)], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == CLI_TRANSCRIPT_SHA256


def test_engine_transcript_prime_shapes_are_pinned(monkeypatch):
    spec = importlib.util.spec_from_file_location("engine_transcript", ENGINE_TRANSCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "SHAPES", [s for s in tool.SHAPES if s[2] not in (9, 8)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        tool.main()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == ENGINE_PRIME_SHA256
