"""The library checks with explicit raises: an assert statement vanishes
under python -O, and with it the check."""

import ast
from pathlib import Path

import nxmds


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(Path(nxmds.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
