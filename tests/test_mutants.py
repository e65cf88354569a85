"""The mutation catalogue (``mutants.py``) stays applicable: every fragment
occurs exactly once in its module, every target test exists, and a target
run past the time limit is told apart from a kill.  The full run, which
applies each mutant to a copy of ``src/``, is a separate command:
``python tests/mutants.py``."""

import ast

import mutants
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


def test_a_run_past_the_time_limit_has_no_exit_code(monkeypatch):
    # no pytest run starts up within 50 ms, so this one is always cut off
    monkeypatch.setattr(mutants, "TIMEOUT", 0.05)
    code, summary = mutants._pytest(SRC.parent, ["tests/test_mutants.py"])
    assert code is None and summary == "no result after 0.05 s"
