"""Source layout rules: no run-time writes to guards, no private cross-module imports,
no refusal built outside guards.require, no numpy import anywhere in the
package, verdict values spelled by the report constants alone, and the
extremal universes enumerated by canonical_family alone."""

import ast
from pathlib import Path

import pytest

from partspread.report import FAIL, FINDING, GATED, INFO, PASS, SKIPPED, VACUOUS

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "partspread").glob("*.py"))


# inside extremal.py only canonical_family enumerates, so that every caller
# takes the universe it returns and none enumerates that universe again
ENUMERATION_HOME = ("extremal.py", "canonical_family")
ENUMERATORS = {"enumerate_partitions", "enumerate_into_blocks", "enumerate_profiled"}

# outside report.py a verdict is named by its constant, so that one module owns them
VERDICTS = {FAIL, FINDING, GATED, INFO, PASS, SKIPPED, VACUOUS}


def _is_guards(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "guards"


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        names = [node.module or ""]
    else:
        return False
    return any(n == "numpy" or n.startswith("numpy.") for n in names)


def _home(tree: ast.AST, name: str, home: tuple[str, str]) -> set[int]:
    """ids of the nodes inside the function `home` names, in the file it names."""
    return {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and (name, node.name) == home
        for inner in ast.walk(node)
    }


def _violations(tree: ast.AST, name: str = "") -> list[str]:
    found = []
    enumeration_home = _home(tree, name, ENUMERATION_HOME)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    for node in ast.walk(tree):
        if (
            name != "report.py"
            and isinstance(node, ast.Constant)
            and node.value in VERDICTS
            and id(node) not in docstrings
        ):
            found.append(f"line {node.lineno}: spells the verdict {node.value!r}")
        if _imports_numpy(node):
            found.append(f"line {node.lineno}: imports numpy")
        if (
            name == ENUMERATION_HOME[0]
            and isinstance(node, ast.Call)
            and {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & ENUMERATORS
            and id(node) not in enumeration_home
        ):
            found.append(f"line {node.lineno}: enumerates outside extremal.canonical_family")
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
    numpy_use = (
        "import numpy as np\n"
        "from numpy.random import Philox\n"
        "def check_random_containment():\n"
        "    import numpy.random\n"
        "def hit_count():\n"
        "    import numpy as np\n"
        "    from numpy import packbits\n"
        "from .numpy import x\n"
        "import numpyish\n"
    )
    assert len(_violations(ast.parse(numpy_use), "verify.py")) == 5
    assert len(_violations(ast.parse(numpy_use), "spread.py")) == 5
    verdicts = (
        '"""pass"""\n'
        "def check():\n"
        '    "gated"\n'
        '    return Record.make("c", {}, "-", "-", "-", "pass" if ok else GATED)\n'
        'PASS = "pass"\n'
        'NOTE = "passes"\n'
    )
    assert len(_violations(ast.parse(verdicts), "verify.py")) == 2
    assert _violations(ast.parse(verdicts), "report.py") == []
    enumerations = (
        "def canonical_family(setting):\n"
        "    return enumerate_partitions(3)\n"
        "def run_catalog(text):\n"
        "    enumerate_into_blocks(4, 2)\n"
        "    partitions.enumerate_profiled(Profile((2, 2)))\n"
        "universe = enumerate_partitions(4)\n"
    )
    assert len(_violations(ast.parse(enumerations), "extremal.py")) == 3
    assert _violations(ast.parse(enumerations), "cli.py") == []
