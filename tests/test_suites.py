"""The suite runner: every suite is a check generator under one decorator,
an oracle compared over many cases names its first failing case, and a
crash inside a suite's work reaches the command line unchanged."""

import inspect

from cubicmotives import suites
from cubicmotives.cli import main
from cubicmotives.suites import SUITES, first_failure


def test_every_suite_keeps_its_public_signature_and_docstring():
    for fn in SUITES.values():
        params = inspect.signature(fn).parameters
        assert [(p.name, p.default) for p in params.values()] == [("cfg", None), ("seed", 0)]
        assert fn.__doc__ and fn.__name__.endswith("_suite")


def test_first_failure_returns_the_first_witness_and_stops_there():
    seen = []

    def witness(case):
        seen.append(case)
        return f"case {case} fails" if case in (2, 4) else None

    assert first_failure([], witness) is None
    assert first_failure([0, 1, 3], witness) is None
    seen.clear()
    assert first_failure(range(6), witness) == "case 2 fails"
    assert seen == [0, 1, 2]


def test_hilbert_oracle_names_its_first_failure(monkeypatch):
    # off by one for b - a = +-1: the first failing pair in (a, b) order is (-2, -1)
    chi = suites._hilbert_chi
    monkeypatch.setattr(suites, "_hilbert_chi", lambda t: chi(t) + (abs(t) == 1))
    (bad,) = suites.mukai_table_suite().failures()
    assert bad["id"] == "hilbert-oracle"
    assert bad["witness"] == "<v(O(-2)), v(O(-1))> = 6, chi = 7"


def test_monomial_degrees_names_its_first_failure(monkeypatch):
    oracle = suites._monomial_degree_oracle
    planted = {(0, 1, 2), (3, 0, 1)}
    monkeypatch.setattr(suites, "_monomial_degree_oracle",
                        lambda a, b, c: oracle(a, b, c) + ((a, b, c) in planted))
    (bad,) = suites.derive_p_suite().failures()
    assert bad["id"] == "monomial-degrees"
    assert bad["witness"] == "(a,b,c)=(0,1,2): degree 0"


def test_a_crash_inside_a_suite_exits_three(monkeypatch, capsys):
    def boom(vd):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(suites, "lambda_basis", boom)
    assert main(["mukai-table"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().splitlines()[-1] == "error: mukai-table: RuntimeError: kaboom"
