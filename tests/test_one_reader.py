"""Only ``gf.Field.read`` reduces a caller's integer into a field.

Inside the library every value is already an encoding, so no strangeci module reduces one mod the
field order: this walks each module's syntax tree for ``%`` or ``%=`` whose modulus is a bare
``order`` or an attribute ``<x>.order``.  ``Field.read`` reduces an integer outside range(q) mod
p, and a modulus such as ``order - 1`` (discrete logs) is no such reduction.
"""

import ast

import pytest

from test_imports import MODULES


def order_reductions(source: str) -> list[int]:
    """The lines that apply % to ``order`` or ``<x>.order``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
            modulus = node.right if isinstance(node, ast.BinOp) else node.value
            if (isinstance(modulus, ast.Name) and modulus.id == "order") or (
                isinstance(modulus, ast.Attribute) and modulus.attr == "order"
            ):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_reduction_mod_the_field_order(path):
    assert order_reductions(path.read_text()) == []


def test_oracle_sees_names_attributes_and_augmented_assignments():
    source = "a = x % order\nb = [y % F.order for y in r]\nc %= self.field.order\nd = x % (F.order - 1)\ne = order % 2\n"
    assert order_reductions(source) == [1, 2, 3]
