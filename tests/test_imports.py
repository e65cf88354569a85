"""Package hygiene: modules share only public names, and every name the
package exports resolves."""

import ast
from pathlib import Path

import cubicmotives

PACKAGE = Path(cubicmotives.__file__).parent


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
