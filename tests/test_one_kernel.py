"""How field elements are held in arrays is decided in one place,
matrix.kernel: no other library module may name int64_fits or test
isinstance(..., PrimeField) to pick an arithmetic of its own, nor
multiply matrices with numpy itself (@, np.matmul, np.dot, np.einsum,
np.tensordot, np.inner) instead of through the kernel."""

import ast
from pathlib import Path

import nxmds

ALLOWED = {"field.py", "matrix.py"}
PRODUCTS = {"matmul", "dot", "einsum", "tensordot", "inner"}


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


def _products(tree):
    """Lines multiplying matrices with numpy directly: the @ operator
    (plain or augmented), np.<product> / numpy.<product>, and a product
    imported from numpy by name."""
    for node in ast.walk(tree):
        operator = (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult))
        called = (isinstance(node, ast.Attribute) and node.attr in PRODUCTS
                  and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        imported = (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                    and any(alias.name in PRODUCTS for alias in node.names))
        if operator or called or imported:
            yield node.lineno


def _library_lines(find, allowed):
    found = []
    for path in sorted(Path(nxmds.__file__).parent.glob("*.py")):
        if path.name not in allowed:
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line}" for line in find(tree)]
    return found


def test_only_matrix_chooses_the_arithmetic():
    assert _library_lines(_choices, ALLOWED) == []


def test_only_matrix_multiplies_matrices():
    assert _library_lines(_products, {"matrix.py"}) == []


def test_the_guard_sees_each_form():
    source = ("from .matrix import int64_fits\n"
              "a = matrix.int64_fits(7, 2)\n"
              "b = isinstance(f, PrimeField)\n"
              "c = isinstance(f, (field.PrimeField, int))\n")
    assert sorted(_choices(ast.parse(source))) == [1, 2, 3, 4]
    source = ("a = b @ c\n"
              "a @= b\n"
              "a = np.matmul(b, c)\n"
              "a = np.dot(b, c)\n"
              "a = np.einsum('ij,jk', b, c)\n"
              "a = np.tensordot(b, c, 1)\n"
              "a = numpy.inner(b, c)\n"
              "from numpy import dot\n"
              "a = kern.matmul(b, c)\n"
              "a = b.dot\n")
    assert sorted(_products(ast.parse(source))) == [1, 2, 3, 4, 5, 6, 7, 8]
