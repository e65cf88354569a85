"""Package hygiene: modules share only public names, every name the
package exports resolves, and so does every name the benchmark imports."""

import ast
import importlib
from pathlib import Path

import cubicmotives

PACKAGE = Path(cubicmotives.__file__).parent
CERTBENCH = Path(__file__).resolve().parent.parent / "certbench"


def _private_imports(path: Path):
    """(line, module, name) for each ``_``-prefixed name imported from a
    sibling module of the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "cubicmotives"
        if not internal:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield node.lineno, node.module, alias.name


def test_no_module_imports_a_private_name_of_another():
    found = [f"{path.name}:{line}: {name} from {module}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, module, name in _private_imports(path)]
    assert found == []


def test_every_exported_name_resolves():
    missing = [name for name in cubicmotives.__all__ if not hasattr(cubicmotives, name)]
    assert missing == []
    assert len(set(cubicmotives.__all__)) == len(cubicmotives.__all__)


def test_every_name_the_benchmark_imports_resolves():
    imported = []
    for path in sorted(CERTBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").split(".")[0] == "cubicmotives":
                imported += [(path.name, node.module, a.name) for a in node.names]
    assert {module for _, module, _ in imported} >= {"cubicmotives", "cubicmotives.linalg"}
    missing = [f"{file}: {name} from {module}" for file, module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
