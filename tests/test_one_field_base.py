"""GF(p) and GF(b^m) share one base: in field.py only _Field defines
the element test, inversion, division and the generator, and the two
field classes and their base are the module's only classes, so no
second description of a field (such as a (p, s) record) sits beside
them."""

import ast
from pathlib import Path

import nxmds

SHARED = {"check", "inv", "div", "generator"}


def _definitions(tree):
    """(class, method) for every method or property a class defines."""
    return {(cls.name, node.name) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _field_tree():
    path = Path(nxmds.__file__).parent / "field.py"
    return ast.parse(path.read_text(), filename=str(path))


def test_only_the_base_defines_the_shared_field_methods():
    tree = _field_tree()
    shared = {(cls, name) for cls, name in _definitions(tree) if name in SHARED}
    assert shared == {("_Field", name) for name in SHARED}
    bases = {node.name: [b.id for b in node.bases] for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    assert bases["PrimeField"] == bases["ExtensionField"] == ["_Field"]


def test_the_field_classes_are_the_only_classes():
    assert {node.name for node in ast.walk(_field_tree()) if isinstance(node, ast.ClassDef)} == {
        "_Field", "PrimeField", "ExtensionField"}


def test_the_guard_sees_each_definition():
    source = ("class _Field:\n"
              "    def check(self, a): ...\n"
              "class PrimeField(_Field):\n"
              "    def inv(self, a): ...\n"
              "    @property\n"
              "    def generator(self): ...\n"
              "    def add(self, a, b): ...\n"
              "def div(a, b): ...\n")
    assert _definitions(ast.parse(source)) == {
        ("_Field", "check"), ("PrimeField", "inv"), ("PrimeField", "generator"),
        ("PrimeField", "add")}
