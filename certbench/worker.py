"""One benchmark process: set-up plus one kind of pass, reported as a JSON line.

``run.py`` starts it with the checkout's ``src`` first on ``PYTHONPATH``,
``CUBICMOTIVES_RATIONALS=fraction`` and a fixed ``PYTHONHASHSEED``.  Set-up is
import plus generation and run of the warm-up items.  Modes:

  setup    set-up only;
  measure  set-up, then the closed loop with tracing off for --seconds;
  trace    set-up, the untraced closed loop for a third of --seconds, then
           the same items from fresh inputs with spans on (per-layer numbers
           and tracing overhead), so that a rank-22 trace run, which also
           runs the count pass, ends well within three minutes;
  count    set-up, then the leading count items under cProfile (exact counts).

The closed loop has one caller: the next item's inputs are generated, untimed,
after the previous item finishes.  It runs until --seconds have passed and at
least the digest items are done.

Set-up, items and spans are timed on the clock of ``HostSpeed``: wall time
weighted by the speed of a fixed reference kernel sampled every
``HostSpeed.PERIOD_S``.  A shared host runs the same code up to twice as
slowly for seconds at a time; weighting by the sampled speed cancels that, so
that runs compare the program rather than the neighbours.  The count pass
runs without sampling.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

MODULES = ("rationals", "linalg", "gradedring", "quadform", "mukai", "tautcorr",
           "realization", "motiveiso")
# per-layer name -> span name
NAMED_SPANS = {
    "realization.transport": "realization.RealizedClass.transport",
    "realization.mul": "realization.RealizedClass.__mul__",
    "realization.realize": "realization.realize",
    "realization.derive_P": "realization.derive_P",
    "realization.compose_realized": "realization.compose_realized",
    "motiveiso.build_gamma": "motiveiso.build_gamma",
    "motiveiso.verify_frobenius": "motiveiso.verify_frobenius",
    "quadform.equivariant_witt": "quadform.equivariant_witt",
    "quadform.aligned_elements": "quadform.aligned_elements",
    "quadform.group_build": "quadform.GroupAction.build",
    "quadform.isometry_verify": "quadform.Isometry.verify",
    "linalg.rref": "linalg.rref",
    "linalg.solve": "linalg.solve",
    "linalg.inverse": "linalg.inverse",
}
REPEATS = ("realization.realize", "quadform.aligned_elements")


def _matrix_key(m):
    return (m.shape, tuple(str(x) for x in m.flat))


def _realize_key(x, cfg):
    terms = tuple(sorted((str(m), str(c)) for m, c in x.terms.items()))
    return (x.n, terms, _matrix_key(getattr(cfg, "space", cfg).gram))


def _aligned_key(g1, g2):
    return tuple(tuple(_matrix_key(g) for g in grp.generators) + (_matrix_key(grp.space.gram),)
                 for grp in (g1, g2))


class HostSpeed:
    """A clock that runs at the host's current speed.

    While started, SIGALRM runs ``_reference`` every PERIOD_S of wall time and
    takes its speed, REF_S over its duration (about 1 on a quiet host).  The
    clock advances at the last speed taken, and stands still while sampling.
    ``wall`` is wall time without the time spent sampling."""

    PERIOD_S = 0.02
    REF_S = 6e-4  # _reference on a quiet core of the 2-CPU host the bounds were set on
    _M = [[Fraction(i * 3 - j, 2 + (i * j) % 5) for j in range(4)] for i in range(4)]

    def __init__(self):
        # (clock reading, wall time) at the end of the last sample, the speed
        # taken then, and the wall seconds spent sampling; one tuple, so that
        # a sample taken while now() or wall() runs cannot split the read
        self._state = (0.0, time.perf_counter(), 1.0, 0.0)

    @classmethod
    def _reference(cls):
        m = cls._M
        for _ in range(3):
            m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*cls._M)] for row in m]
        return m

    def _tick(self, signum, frame):
        at, t_last, speed, spent = self._state
        t0 = time.perf_counter()
        self._reference()
        t1 = time.perf_counter()
        self._state = (at + (t0 - t_last) * speed, t1, self.REF_S / (t1 - t0), spent + t1 - t0)

    def now(self) -> float:
        at, t_last, speed, _ = self._state
        return at + (time.perf_counter() - t_last) * speed

    def wall(self) -> float:
        return time.perf_counter() - self._state[3]

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Loop:
    """Runs items, checks outcomes, and keeps times and digest outputs."""

    def __init__(self, wl, digest_items, clock=None):
        self.wl = wl
        self.clock = clock  # a HostSpeed for timed items
        self.digest_items = digest_items
        self.item_s = []
        self.wall_s = []
        self.kinds = []
        self.problems = []
        self.items = []
        self.outputs = []

    def run(self, item, timed):
        try:
            problem, output = timed(item)
        except Exception:
            problem, output = "raised " + traceback.format_exc(limit=3), None
        if problem:
            self.problems.append(problem)
            print(problem, file=sys.stderr)
        if len(self.outputs) < self.digest_items:
            self.outputs.append(output)

    def closed_loop(self, name, seed, seconds, timed, limit=None):
        start = time.perf_counter()
        i = 0
        while i != limit and (i < self.digest_items or time.perf_counter() - start < seconds):
            item = self.wl.make_item(name, seed, i)
            self.kinds.append(item[0])
            if i < self.digest_items:
                self.items.append(item)
            self.run(item, timed)
            i += 1
        return i

    def timed(self, item):
        """Run one item with tracing off, keeping its host-speed and wall time."""
        t0, w0 = self.clock.now(), self.clock.wall()
        try:
            return self.wl.run_item(item)
        finally:
            self.item_s.append(self.clock.now() - t0)
            self.wall_s.append(self.clock.wall() - w0)


def main(argv=None) -> int:
    clock = HostSpeed()
    clock.start()
    try:
        return _main(clock, argv)
    finally:
        clock.stop()


def _main(clock, argv) -> int:
    t0, w0 = clock.now(), clock.wall()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "count"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)

    import numpy
    from cubicmotives import rationals
    if rationals.BACKEND != "fraction":
        print(f"refusing to run on the {rationals.BACKEND} backend", file=sys.stderr)
        return 2
    import workloads as wl
    spec = wl.WORKLOADS[args.workload]
    loop = Loop(wl, spec.digest_items, clock)
    warm = Loop(wl, 0)
    warmup = wl.warmup_items(args.workload, args.seed)
    for item in warmup:
        warm.run(item, wl.run_item)
    out = {
        "setup_s": clock.now() - t0,
        "setup_wall_s": clock.wall() - w0,
        "env": {"backend": rationals.BACKEND, "python": platform.python_version(),
                "numpy": numpy.__version__, "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "hashseed": os.environ.get("PYTHONHASHSEED")},
    }

    if args.mode in ("measure", "trace"):
        seconds = args.seconds if args.mode == "measure" else args.seconds / 3
        n = loop.closed_loop(args.workload, args.seed, seconds, loop.timed)
        out["wall_s"] = loop.wall_s
        out["digest"] = wl.result_digest(loop.items, loop.outputs)
        out["item_s"] = loop.item_s
        out["tail_pct"] = spec.tail_pct
        out["kinds"] = loop.kinds
        if args.mode == "trace":
            out["per_layer"], out["traced_items"] = traced_pass(args, wl, loop, n)
    elif args.mode == "count":
        clock.stop()  # the profiler would count the reference kernel's calls
        out["counts"] = count_pass(args, wl, loop, spec.count_items)
    out["attempted"] = len(warmup) + len(loop.kinds)
    out["failed"] = len(loop.problems) + len(warm.problems)
    out["problems"] = (warm.problems + loop.problems)[:5]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


def traced_pass(args, wl, loop, n):
    """Re-run the leading items of the untraced loop (at most n, for a third
    of --seconds) from fresh inputs, with spans recording inside items only.
    Spans and the tracing overhead are on the host-speed clock."""
    from spans import Tracer

    tracer = Tracer("cubicmotives", loop.clock.now, extra_namespaces=[sys.modules["workloads"]],
                    repeat_keys={"realization.realize": _realize_key,
                                 "quadform.aligned_elements": _aligned_key})
    traced = Loop(wl, 0)

    def timed(item):
        return tracer.run_item(wl.run_item, item)

    tracer.install()
    try:
        n = traced.closed_loop(args.workload, args.seed, args.seconds / 3, timed, limit=n)
    finally:
        tracer.restore()
    loop.kinds += traced.kinds
    loop.problems += traced.problems
    untraced_s = sum(loop.item_s[:n])

    per = {}
    for m in MODULES:
        recs = [r for r in tracer.recs.values() if r.module == m]
        per[f"{m}.self_s"] = sum(r.self_s for r in recs) / n
        per[f"{m}.calls"] = sum(r.calls for r in recs) / n
    per["other.self_s"] = tracer.other_s / n
    per["trace.overhead_s"] = (tracer.item_s - untraced_s) / n
    per["trace.overhead_share"] = tracer.item_s / untraced_s - 1
    for name, span in NAMED_SPANS.items():
        rec = tracer.recs.get(span)
        per[f"{name}.s"] = rec.total_s / n if rec else 0.0
        per[f"{name}.calls"] = rec.calls / n if rec else 0.0
    for name in REPEATS:
        calls = tracer.recs[NAMED_SPANS[name]].calls
        per[f"{name}.repeat_share"] = tracer.repeats[NAMED_SPANS[name]] / calls if calls else 0.0
    return per, n


def count_pass(args, wl, loop, count):
    """Exact call counts of the leading items under cProfile, kept apart from
    every timed or traced pass because the profiler slows items several-fold."""
    import cProfile
    import pstats

    prof = cProfile.Profile()

    def timed(item):
        prof.enable()
        try:
            return wl.run_item(item)
        finally:
            prof.disable()

    loop.closed_loop(args.workload, args.seed, math.inf, timed, limit=count)
    stats = pstats.Stats(prof).stats
    fraction_calls = gcd_calls = 0
    per_function = {}
    for (filename, _, func), (_, calls, *_rest) in stats.items():
        path = filename.replace(os.sep, "/")
        if path.endswith("/fractions.py"):
            fraction_calls += calls
        elif func == "<built-in method math.gcd>":
            gcd_calls += calls
        elif "/cubicmotives/" in path:
            key = f"{path.rsplit('/', 1)[-1][:-3]}.{func}"
            per_function[key] = per_function.get(key, 0) + calls
    return {"items": count, "rationals.fraction_calls": fraction_calls,
            "rationals.gcd_calls": gcd_calls,
            "per_function": dict(sorted(per_function.items()))}


if __name__ == "__main__":
    sys.exit(main())
