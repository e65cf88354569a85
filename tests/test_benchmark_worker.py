"""The certification benchmark's worker runs end to end: ``run.run_worker``
starts ``certbench/worker.py`` in measure mode on both gated workloads and
in trace mode on the tamper workload, and each run prints a result line
with no failed item.  An exception outside an item, or a span that trace
mode looks up under a name the package no longer has, shows here.  Like
``test_benchmark_inputs.py``, this writes nothing under ``certbench/``."""

import importlib.util
import sys
from pathlib import Path

import pytest

from test_benchmark_inputs import DIGESTS

ROOT = Path(__file__).resolve().parent.parent
CERTBENCH = ROOT / "certbench"
# spans that every certify item reaches, so that a renamed one reads 0 calls
REACHED = ("realization.transport", "realization.mul", "realization.realize",
           "realization.compose_realized", "motiveiso.build_gamma", "motiveiso.verify_frobenius")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"certbench_{name}", CERTBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def run():
    return _load("run")


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_measure_mode_prints_a_clean_line(run, workload):
    out = run.run_worker(ROOT, "measure", workload, 11, 1.0, timeout=60)
    assert out["failed"] == 0, out["problems"]
    assert out["attempted"] > 1 and out["item_s"]
    assert out["digest"] == DIGESTS[workload]


def test_trace_mode_finds_every_named_span(run):
    out = run.run_worker(ROOT, "trace", "certify-rank6-tamper", 11, 1.5, timeout=60)
    assert out["failed"] == 0, out["problems"]
    per = out["per_layer"]
    for name in _load("worker").NAMED_SPANS:
        assert f"{name}.s" in per and f"{name}.calls" in per, name
    assert all(per[f"{name}.calls"] > 0 for name in REACHED), per
