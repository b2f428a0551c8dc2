"""Node ids are checked in one place, code.check_node_id: no other
function of the library raises BadNodeId."""

import ast
from pathlib import Path

import nxmds


def _names_bad_node_id(expr) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id == "BadNodeId"
               or isinstance(sub, ast.Attribute) and sub.attr == "BadNodeId"
               for sub in ast.walk(expr))


def _raises(tree, scope="<module>"):
    """(enclosing function, line) of every raise of BadNodeId."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(node, node.name)
            continue
        if isinstance(node, ast.Raise) and node.exc is not None and _names_bad_node_id(node.exc):
            yield scope, node.lineno
        yield from _raises(node, scope)


def test_only_check_node_id_raises_bad_node_id():
    found = []
    for path in sorted(Path(nxmds.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, scope) for scope, _ in _raises(tree)]
    assert found == [("code.py", "check_node_id")]


def test_the_guard_sees_each_raise():
    source = ("def f(i):\n"
              "    raise BadNodeId(f'node id {i}')\n"
              "class S:\n"
              "    def g(self):\n"
              "        if self:\n"
              "            raise errors.BadNodeId('x')\n"
              "raise BadNodeId\n"
              "raise ValueError('BadNodeId')\n")
    assert list(_raises(ast.parse(source))) == [("f", 2), ("g", 6), ("<module>", 7)]
