"""An audit's bits are priced in one place: verifier.accounting prices
the audit, hashing.seed_bit_count the shared randomness it calls, and
container.symbol_width a stored symbol's bytes.  No other function of
the library names field.symbol_bits, nor spells its (q - 1).bit_length()
out by hand."""

import ast
from pathlib import Path

import nxmds

ALLOWED = [("container.py", "symbol_width"), ("field.py", "symbol_bits"),
           ("hashing.py", "seed_bit_count"), ("verifier.py", "accounting")]


def _aliases(tree):
    """Every local name symbol_bits is imported under."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name == "symbol_bits"}


def _prices(node, names) -> bool:
    named = (isinstance(node, ast.Name) and node.id in names and isinstance(node.ctx, ast.Load)
             or isinstance(node, ast.Attribute) and node.attr == "symbol_bits")
    by_hand = (isinstance(node, ast.Attribute) and node.attr == "bit_length"
               and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.Sub)
               and isinstance(node.value.right, ast.Constant) and node.value.right.value == 1)
    return named or by_hand


def _pricings(tree, names=None, scope="<module>"):
    """(enclosing function, line) of every use of symbol_bits, by any
    name it was imported under or as an attribute, and of every
    (x - 1).bit_length()."""
    names = _aliases(tree) if names is None else names
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _pricings(node, names, node.name)
            continue
        if _prices(node, names):
            yield scope, node.lineno
        yield from _pricings(node, names, scope)


def test_only_the_pricing_functions_price_bits():
    found = set()
    for path in sorted(Path(nxmds.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {(path.name, scope) for scope, _ in _pricings(tree)}
    assert sorted(found) == ALLOWED


def test_the_guard_sees_each_pricing():
    source = ("from .field import make_field, symbol_bits\n"
              "from .field import symbol_bits as width\n"
              "def bare(q):\n"
              "    return symbol_bits(q)\n"
              "class C:\n"
              "    def attribute(self, q):\n"
              "        return field.symbol_bits(q)\n"
              "def aliased(q):\n"
              "    return 2 * width(q)\n"
              "def by_hand(q):\n"
              "    return (q - 1).bit_length()\n"
              "table = list(map(symbol_bits, (2, 3)))\n"
              "def other(q):\n"
              "    symbol_bits = 3\n"
              "    return q.bit_length() - 1, make_field(q), 'symbol_bits'\n")
    assert list(_pricings(ast.parse(source))) == [
        ("bare", 4), ("attribute", 7), ("aliased", 9), ("by_hand", 11), ("<module>", 12)]
