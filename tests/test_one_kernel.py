"""How field elements are held in arrays is decided in one place,
matrix.kernel: no other library module may name int64_fits or test
isinstance(..., PrimeField) to pick an arithmetic of its own."""

import ast
from pathlib import Path

import nxmds

ALLOWED = {"field.py", "matrix.py"}


def _choices(tree):
    for node in ast.walk(tree):
        named = (isinstance(node, ast.Name) and node.id == "int64_fits"
                 or isinstance(node, ast.Attribute) and node.attr == "int64_fits"
                 or isinstance(node, ast.alias) and node.name == "int64_fits")
        tested = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2
                  and any(isinstance(sub, ast.Name) and sub.id == "PrimeField"
                          or isinstance(sub, ast.Attribute) and sub.attr == "PrimeField"
                          for sub in ast.walk(node.args[1])))
        if named or tested:
            yield node.lineno


def test_only_matrix_chooses_the_arithmetic():
    found = []
    for path in sorted(Path(nxmds.__file__).parent.glob("*.py")):
        if path.name not in ALLOWED:
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line}" for line in _choices(tree)]
    assert found == []


def test_the_guard_sees_each_form():
    source = ("from .matrix import int64_fits\n"
              "a = matrix.int64_fits(7, 2)\n"
              "b = isinstance(f, PrimeField)\n"
              "c = isinstance(f, (field.PrimeField, int))\n")
    assert sorted(_choices(ast.parse(source))) == [1, 2, 3, 4]
