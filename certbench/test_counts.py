"""The exact count pass must not depend on the interpreter's hash seed.

Run from the root of a checkout:

    python3 -m pytest certbench/test_counts.py

certify-rank22 is left out: one rank-22 pair takes about half a minute under
cProfile, and it runs the same realization code as the rank-6 workload.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import run_worker  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["certify-rank6-tamper", "witt-batch"])
def test_counts_do_not_depend_on_hash_seed(workload):
    first, second = (run_worker(ROOT, "count", workload, seed=0, seconds=1, timeout=600,
                                hashseed=h) for h in (1, 2))
    assert first["failed"] == 0 and second["failed"] == 0
    assert first["counts"]["rationals.fraction_calls"] > 0
    assert first["counts"] == second["counts"]
