"""Library code stores the values it is given: a value that does not fit
32 bits is refused where it enters, never masked into range.  A bitwise
AND with 0xFFFFFFFF would turn -1 into the PL address or a 33-bit address
into a valid one, so no module in `src/idfsim/` may write one.  Range
checks such as `0 <= x <= 0xFFFFFFFF` are not masks and stay."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "idfsim"
MASK = 0xFFFFFFFF


def _is_mask(node):
    return isinstance(node, ast.Constant) and node.value == MASK


def _word_masks(tree):
    """Line numbers of each `x & 0xFFFFFFFF`, `0xFFFFFFFF & x` and
    `x &= 0xFFFFFFFF` in a module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
            if _is_mask(node.left) or _is_mask(node.right):
                lines.append(node.lineno)
        elif (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitAnd)
                and _is_mask(node.value)):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_masks_no_word(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _word_masks(tree) == []


@pytest.mark.parametrize("source,lines", [
    ("y = x & 0xFFFFFFFF\n", [1]),
    ("y = 0xFFFFFFFF & x\n", [1]),
    ("x = 1\nx &= 0xFFFFFFFF\n", [2]),
    ("f(a, (b + 1) & 4294967295)\n", [1]),
    ("ok = 0 <= x <= 0xFFFFFFFF\n", []),
    ("count = w & 0x7FF\ny = x | 0xFFFFFFFF\n", []),
])
def test_guard_sees_each_mask(source, lines):
    assert _word_masks(ast.parse(source)) == lines
