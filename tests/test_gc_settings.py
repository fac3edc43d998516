"""Library code leaves the garbage collector's global settings alone: the
speed of the checks must come from what they allocate, not from switching
the collector off, freezing the heap or raising its thresholds."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "idfsim"
FORBIDDEN = frozenset(("disable", "freeze", "set_threshold"))


def _gc_settings_used(tree):
    """Names of the forbidden `gc` functions a module calls or imports,
    through `gc` or any name an `import gc as <name>` binds."""
    names = {"gc"} | {alias.asname for node in ast.walk(tree)
                      if isinstance(node, ast.Import)
                      for alias in node.names
                      if alias.name == "gc" and alias.asname}
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in FORBIDDEN
                and isinstance(node.value, ast.Name) and node.value.id in names):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            used.update(a.name for a in node.names if a.name in FORBIDDEN | {"*"})
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_leaves_gc_settings_alone(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _gc_settings_used(tree) == set()


@pytest.mark.parametrize("source,used", [
    ("import gc\ngc.disable()\n", {"disable"}),
    ("import gc\ngc.freeze()\n", {"freeze"}),
    ("import gc\ngc.set_threshold(10**6)\n", {"set_threshold"}),
    ("from gc import disable\n", {"disable"}),
    ("import gc\ngc.collect()\ngc.enable()\n", set()),
    ("import gc as g\ng.freeze()\n", {"freeze"}),
])
def test_guard_sees_each_setting(source, used):
    assert _gc_settings_used(ast.parse(source)) == used
