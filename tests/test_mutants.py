"""The mutation catalogue (``mutants.py``) stays applicable: every fragment
occurs exactly once in its module, and every target test exists.  The full
run, which applies each mutant to a copy of ``src/``, is a separate command:
``python tests/mutants.py``."""

import ast

from mutants import CATALOGUE, ROOT, SRC


def test_every_fragment_occurs_exactly_once():
    assert len({m.name for m in CATALOGUE}) == len(CATALOGUE)
    for m in CATALOGUE:
        text = (SRC / f"{m.module}.py").read_text()
        assert text.count(m.fragment) == 1, m.name
        assert m.replacement != m.fragment and m.targets, m.name
        ast.parse(text.replace(m.fragment, m.replacement))  # the mutant still compiles


def test_every_target_test_exists():
    for m in CATALOGUE:
        for target in m.targets:
            path, _, name = target.partition("::")
            tree = ast.parse((ROOT / path).read_text())
            names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
            assert not name or name in names, (m.name, target)
