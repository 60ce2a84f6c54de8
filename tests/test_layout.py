"""Source layout rules: no run-time writes to guards, no private cross-module imports,
and no refusal built outside guards.require."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "partspread").glob("*.py"))


def _is_guards(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "guards"


def _violations(tree: ast.AST, name: str = "") -> list[str]:
    found = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and _is_guards(target.value):
                found.append(f"line {node.lineno}: assigns guards.{target.attr}")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("setattr", "delattr")
            and node.args
            and _is_guards(node.args[0])
        ):
            found.append(f"line {node.lineno}: {node.func.id} on guards")
        if (
            name != "guards.py"
            and isinstance(node, ast.Call)
            and "ResourceLimitError"
            in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ):
            found.append(f"line {node.lineno}: builds ResourceLimitError outside guards.require")
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("partspread")
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"line {node.lineno}: imports private {alias.name}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_layout(path):
    assert _violations(ast.parse(path.read_text(encoding="utf-8")), path.name) == []


def test_layout_rules_catch_violations():
    bad = (
        "from . import guards\n"
        "from .spread import _violator\n"
        "guards.ENUM_MAX_N = 5\n"
        "setattr(guards, 'X', 1)\n"
        "raise ResourceLimitError('X: n=2 exceeds the guard 1')\n"
        "raise errors.ResourceLimitError('X: n=2 exceeds the guard 1')\n"
    )
    assert len(_violations(ast.parse(bad), "spread.py")) == 5
    assert len(_violations(ast.parse(bad), "guards.py")) == 3
