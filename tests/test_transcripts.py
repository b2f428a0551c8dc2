"""The command line's fixed-seed transcript, pinned by its digest.

tools/cli_transcript.py runs a fixed list of nxmds commands (every
subcommand, over prime and extension fields, and malformed inputs) and
prints each one's argv, exit code and output, and the digest of every
file it writes.  Any change in what the command line prints or writes
changes the digest below; a change that means to must say why and pin
the new digest.  tools/engine_transcript.py, the Monte Carlo engine's
transcript, takes about a minute and stays a manual check.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

CLI_TRANSCRIPT = Path(__file__).resolve().parent.parent / "tools" / "cli_transcript.py"
CLI_TRANSCRIPT_SHA256 = "840378a61630c157f795be289a94eefc5057ed48ee6ee00a89a5d443aa765c6d"


def test_cli_transcript_is_pinned():
    proc = subprocess.run([sys.executable, str(CLI_TRANSCRIPT)], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == CLI_TRANSCRIPT_SHA256
