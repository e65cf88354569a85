#!/usr/bin/env python3
"""Certification benchmark for cubicmotives on the exact ``Fraction`` backend.

Usage, from the root of a checkout:

    python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one caller, inputs generated from --seed):

  certify-rank22        rank-22 fourfold pairs: build_gamma then
                        verify_frobenius, every check must pass;
  certify-rank6-tamper  rank-6 pairs with sign-flip groups, every third
                        candidate tampered (an h-line summand negated, or the
                        transcendental block negated in a sheared basis);
                        tampered candidates must fail exactly the expected
                        checks, small-diagonal among them;
  witt-batch            random equivariant Witt problems of rank 2-6, solved
                        with equivariant_witt and checked for isometry,
                        prescription, equivariance and complement.  Not in
                        BENCHMARK.json: about one problem in 1,300 meets a
                        defect of quadform._orthogonalize (when all remaining
                        vectors are isotropic it drops a dimension), so the
                        workload reports failures, as it should, until the
                        library is fixed.

``--trace 0`` prints the end-to-end metrics: items_per_s, item_s.p50,
item_s.tail (a fixed percentile per workload with at least ten samples
beyond it; see workloads.py), setup_s (median over five fresh processes of
import, input generation and warm-up) and peak_rss_mb.  Times are on the
host-speed clock of worker.HostSpeed, which cancels the slowdowns of a shared
host; the report line gives the plain wall-clock figures beside them.
``--trace 1`` prints the per-layer metrics: spans around the public functions
of each module, tracing overhead against the untraced pass over the same
items, and exact operation counts from a separate cProfile pass.

Every item is checked; ``failed`` counts items whose outcome differs from the
expected one (an exception counts).  The line before the result carries the
provenance (backend, versions, nproc, git sha when the checkout is a git
repository, sha256 of src/), the result digest, the tail percentile and the
per-function call counts.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the keys of workloads.WORKLOADS, which imports the library and so is only
# imported by the workers, after the backend is pinned
WORKLOADS = ("certify-rank22", "certify-rank6-tamper", "witt-batch")
SETUP_RUNS = 5   # fresh processes whose set-up times give setup_s
DEADLINE_S = 170  # a whole run, workers included, must end within 180 s


def worker_env(root: Path, hashseed: int) -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(root / "src"),
        "CUBICMOTIVES_RATIONALS": "fraction",
        "PYTHONHASHSEED": str(hashseed),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    })
    return env


def run_worker(root: Path, mode: str, workload: str, seed: int, seconds: float,
               timeout: float, hashseed: int = 0) -> dict:
    """Run one worker process to completion and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, env=worker_env(root, hashseed), stdout=subprocess.PIPE,
                          text=True, timeout=max(timeout, 1))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(root: Path) -> dict:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "cubicmotives").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (root / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True)
        sha = got.stdout.strip() if got.returncode == 0 else None
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def tail(xs, pct):
    """(value, samples beyond it): the nearest-rank percentile pct of xs."""
    xs = sorted(xs)
    k = max(math.ceil(pct / 100 * len(xs)), 1)
    return xs[k - 1], len(xs) - k


def end_to_end(root, args, deadline):
    setups = [run_worker(root, "setup", args.workload, args.seed, args.seconds,
                         deadline - time.monotonic())["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    res = run_worker(root, "measure", args.workload, args.seed, args.seconds,
                     deadline - time.monotonic())
    setups.append(res["setup_s"])
    xs, walls = res["item_s"], res["wall_s"]
    tail_s, beyond = tail(xs, res["tail_pct"])
    metrics = {
        "items_per_s": (len(xs) / sum(xs), "1/s"),
        "item_s.p50": (statistics.median(xs), "s"),
        "item_s.tail": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    report = {"item_s.tail": {"percentile": res["tail_pct"], "samples": len(xs),
                              "beyond": beyond},
              "setup_s.samples": setups,
              "wall": {"items_per_s": len(walls) / sum(walls),
                       "item_s.p50": statistics.median(walls),
                       "item_s.tail": tail(walls, res["tail_pct"])[0],
                       "setup_s": res["setup_wall_s"]},
              "items_by_kind": {k: res["kinds"].count(k) for k in sorted(set(res["kinds"]))}}
    return res, metrics, report


def per_layer(root, args, deadline):
    res = run_worker(root, "trace", args.workload, args.seed, args.seconds,
                     deadline - time.monotonic())
    cnt = run_worker(root, "count", args.workload, args.seed, args.seconds,
                     deadline - time.monotonic())
    units = {"self_s": "s/item", "s": "s/item", "calls": "calls/item",
             "overhead_s": "s/item", "overhead_share": "ratio", "repeat_share": "ratio"}
    metrics = {k: (v, units[k.rsplit(".", 1)[1]]) for k, v in res["per_layer"].items()}
    for k in ("rationals.fraction_calls", "rationals.gcd_calls"):
        metrics[k] = (cnt["counts"][k], "count")
    report = {"untraced_items": len(res["item_s"]), "traced_items": res["traced_items"],
              "count_items": cnt["counts"]["items"],
              "per_function_calls": cnt["counts"]["per_function"]}
    for k in ("attempted", "failed"):
        res[k] += cnt[k]
    res["problems"] += cnt["problems"]
    return res, metrics, report


def main(argv=None) -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    root = Path.cwd()
    if not (root / "src" / "cubicmotives" / "__init__.py").is_file():
        print(f"no cubicmotives sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    deadline = start + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    res, metrics, report = measure(root, args, deadline)
    failed, attempted = res["failed"], res["attempted"]
    report.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "env": dict(res["env"], **provenance(root)),
        "digest": res.get("digest"),
        "fail_share": failed / attempted,
        "problems": res["problems"],
    })
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and res["env"]["backend"] == "fraction",
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
