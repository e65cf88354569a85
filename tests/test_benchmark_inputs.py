"""The certification benchmark's inputs and outputs stay fixed: the result
digests of its two gated workloads at seed 11 equal the recorded ones, and
building the rank-6 tamper items raises nothing.  ``certbench/workloads.py``
is read and executed here, never written (no bytecode is cached next to it)."""

import sys
import types
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_result_digest_at_seed_11(wl, name):
    items = [wl.make_item(name, 11, i) for i in range(wl.WORKLOADS[name].digest_items)]
    outputs = []
    for item in items:
        problem, output = wl.run_item(item)
        assert problem is None, problem
        outputs.append(output)
    assert wl.result_digest(items, outputs) == DIGESTS[name]


def test_tamper_items_build_without_raising(wl):
    kinds = [wl.make_item("certify-rank6-tamper", 11, i)[0] for i in range(120)]
    assert kinds == list(wl.TAMPER_CYCLE) * 20
