"""The certification benchmark's inputs and outputs stay fixed: the result
digests of its two gated workloads at seed 11 equal the recorded ones, also
with the int64 route of ``linalg.contract`` off (as do the reports of every
suite), and building and running the rank-6 tamper and rank-22 items of
several seeds raises nothing.  ``certbench/workloads.py`` is read and executed here, never
written (no bytecode is cached next to it)."""

import sys
import types
from pathlib import Path

import pytest

from cubicmotives import linalg
from cubicmotives.suites import run_all

WORKLOADS = Path(__file__).resolve().parent.parent / "certbench" / "workloads.py"
DIGESTS = {  # seed 11
    "certify-rank22": "748a79ebf60522df0c7de9a67e9c068aa45b926307a22a38e997e261eea83636",
    "certify-rank6-tamper": "b2be04337e3d75553b7f1f8e614735dd43bc925d3e7e5da236144fc09b13a232",
}


@pytest.fixture(scope="module")
def wl():
    module = types.ModuleType("certbench_workloads")
    module.__file__ = str(WORKLOADS)
    sys.modules[module.__name__] = module  # dataclasses resolve annotations through it
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]


def _digest(wl, name):
    items = [wl.make_item(name, 11, i) for i in range(wl.WORKLOADS[name].digest_items)]
    outputs = []
    for item in items:
        problem, output = wl.run_item(item)
        assert problem is None, problem
        outputs.append(output)
    return wl.result_digest(items, outputs)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_result_digest_at_seed_11(wl, name):
    assert _digest(wl, name) == DIGESTS[name]


def _untimed(value):
    """A report with every ``seconds`` field taken out."""
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


def test_the_int64_route_off_changes_no_result(wl, monkeypatch):
    """With no contraction on int64, every suite report and both digests are
    what the default route gives."""
    want = [_untimed(r.to_json()) for r in run_all(seed=0)]
    monkeypatch.setattr(linalg, "INT64_BOUND", 0)
    assert [_untimed(r.to_json()) for r in run_all(seed=0)] == want
    for name, digest in DIGESTS.items():
        assert _digest(wl, name) == digest, name


def test_tamper_items_build_without_raising(wl):
    """The tamper cycle at seed 11, and the first items of seeds 0-4 built
    and run: the benchmark builds an item outside its per-item error
    handling, so an exception there would end the whole run."""
    kinds = [wl.make_item("certify-rank6-tamper", 11, i)[0] for i in range(120)]
    assert kinds == list(wl.TAMPER_CYCLE) * 20
    for seed in range(5):
        for i in range(6 * len(wl.TAMPER_CYCLE)):
            problem, _ = wl.run_item(wl.make_item("certify-rank6-tamper", seed, i))
            assert problem is None, (seed, i, problem)


def test_rank22_items_build_without_raising(wl):
    """The first certify-rank22 items of seeds 0-4 built and run, for the same
    reason as the tamper items above."""
    for seed in range(5):
        for i in range(4):
            problem, _ = wl.run_item(wl.make_item("certify-rank22", seed, i))
            assert problem is None, (seed, i, problem)
