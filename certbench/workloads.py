"""Inputs, items and output checks of the certification benchmark.

Every input is a pure function of (seed, item index) and is built through the
public API only: ``random_fourfold_pair`` for certificate pairs, and the
``QuadSpace`` / ``GroupAction.build`` / ``Isometry`` / ``RealizedClass``
constructors for Witt problems and tampered candidates.  An item is what a
user of the library waits for:

* a valid pair:  ``build_gamma`` then ``verify_frobenius``; every check passes;
* a tampered candidate:  the two inverse compositions and ``verify_frobenius``
  on a corrupted Gamma; exactly ``TAMPER_CAUGHT`` fail, ``small-diagonal``
  among them (the negative controls must keep failing exactly as they do);
* a Witt problem:  build both group actions, ``equivariant_witt``, then check
  isometry, prescription, equivariance and the complement.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from cubicmotives import (GammaCert, GroupAction, Isometry, QuadSpace, RealizedClass,
                          aligned_elements, build_gamma, compose_realized, derive_P,
                          diagonal_realized, equivariant_witt, p_to_json,
                          random_fourfold_pair, rational_str, verify_frobenius)
from cubicmotives.linalg import inverse, mat_eq

FROBENIUS_IDS = ("leftinv", "rightinv", "hlines", "quadratic", "equivariant",
                 "diagonal", "small-diagonal", "small-diagonal-route", "route-agreement")
TAMPER_CAUGHT = ("leftinv", "rightinv", "diagonal", "small-diagonal", "small-diagonal-route")
# Item kinds of certify-rank6-tamper by index mod 6: a third of the candidates
# are tampered, one of each corruption per cycle.  At a half, the median would
# fall in the gap between the valid and the (faster) tampered items.
TAMPER_CYCLE = ("valid", "valid", "hflip", "valid", "valid", "shear")


@dataclass(frozen=True)
class Workload:
    rank: int | None      # primitive rank of the certificate pairs; None for Witt
    tamper: bool          # whether every third candidate is tampered
    digest_items: int     # leading items whose outputs form the result digest
    count_items: int      # leading items run under the exact count pass
    warmup: int           # warm-up items in set-up: valid rank-6 pairs, or Witt problems
    tail_pct: float       # percentile reported as item_s.tail


# tail_pct is a round percentile that keeps at least ten samples beyond it at
# the lowest item counts seen in --seconds 30 runs on a 2-CPU shared host
# (3, 70 and 800 items); below eleven items that is the maximum.  It is fixed
# per workload so that a faster commit, which runs more items, is compared at
# the same percentile.
WORKLOADS = {
    "certify-rank22": Workload(22, False, 1, 1, 1, 100.0),
    "certify-rank6-tamper": Workload(6, True, 12, 6, 1, 85.0),
    "witt-batch": Workload(None, False, 200, 50, 8, 98.0),
}


def _item_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


# --- input generation ----------------------------------------------------------


def _tampered(kind: str, dx, cert) -> RealizedClass:
    """Gamma with one h-line summand negated ("hflip"), or with the
    transcendental block rewritten in a sheared basis where the image of the
    second basis vector is negated ("shear") — no longer an isometry."""
    comps = dict(cert.gamma.comps)
    if kind == "hflip":
        key = (("h", 1), ("h", 3))
        comps[key] = -comps[key]
    else:
        prim = dx.cfg.prim
        t_basis, _ = dx.transcendental()
        cols = list(dx.alg_basis) + [t_basis[0], t_basis[0] + t_basis[1]] + list(t_basis[2:])
        p = np.stack(cols, axis=1)
        imgs = comps[("V", "V")].T.dot(prim.gram).dot(p)
        k = len(dx.alg_basis) + 1
        imgs[:, k] = -imgs[:, k]
        comps[("V", "V")] = inverse(prim.gram).dot(imgs.dot(inverse(p)).T)
    return RealizedClass(cert.gamma.spaces, comps)


def certify_item(seed: int, index: int, rank: int, tamper: bool):
    dx, dy, iso = random_fourfold_pair(_item_seed(seed, index), rank=rank)
    kind = TAMPER_CYCLE[index % len(TAMPER_CYCLE)] if tamper else "valid"
    if kind == "valid":
        return ("valid", dx, dy, iso)
    return (kind, dx, dy, _tampered(kind, dx, build_gamma(dx, dy, iso)))


def _qeye(n: int) -> np.ndarray:
    m = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        m[i, i] = Fraction(1)
    return m


def _unimodular_pair(rng: random.Random, n: int):
    """A random product of elementary integer row operations and its inverse."""
    m, m_inv = _qeye(n), _qeye(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = Fraction(rng.choice((-1, 1)))
            m[i] = m[i] + m[j] * c
            m_inv[:, j] = m_inv[:, j] - m_inv[:, i] * c
    return m, m_inv


def witt_item(seed: int, index: int):
    """A sign-flip group on a diagonal form of rank 2-6, a fixed nondegenerate
    subspace of dimension <= 2, a conjugated second copy, and a global
    equivariant isometry that does not respect the subspace."""
    rng = random.Random(_item_seed(seed, index))
    n = rng.randint(2, 6)
    g1 = _qeye(n)
    for i in range(n):
        g1[i, i] = Fraction(rng.choice((1, 1, 2, 3, -1, -2)))
    v1 = QuadSpace(g1)
    wdim = min(rng.choice((0, 1, 1, 2, 2)), n - 1)
    gens1 = []
    for _ in range(rng.randint(0, 3)):
        g = _qeye(n)
        for i in range(wdim, n):
            if rng.random() < 0.5:
                g[i, i] = Fraction(-1)
        gens1.append(g)
    fixed = [i for i in range(n) if all(g[i, i] == 1 for g in gens1)]
    w1 = [_qeye(n)[i] for i in fixed[:wdim]]
    for _ in range(20):
        cand = [np.array([Fraction(rng.randint(-1, 1)) if i in fixed else Fraction(0)
                          for i in range(n)], dtype=object) for _ in range(wdim)]
        if v1.restrict(cand).is_nondegenerate():
            w1 = cand
            break
    s, s_inv = _unimodular_pair(rng, n)
    phi = s_inv
    if rng.random() < 0.8:
        for _ in range(10):
            f = np.array([Fraction(rng.randint(-2, 2)) if i in fixed else Fraction(0)
                          for i in range(n)], dtype=object)
            if v1.q(f) != 0:
                phi = s_inv.dot(Isometry.reflection(v1, f).matrix)
                break
    return ("witt", g1, gens1, w1, s.T.dot(g1).dot(s),
            [s_inv.dot(g).dot(s) for g in gens1], [s_inv.dot(w) for w in w1], phi, _qeye(wdim))


def make_item(name: str, seed: int, index: int):
    wl = WORKLOADS[name]
    if wl.rank is None:
        return witt_item(seed, index)
    return certify_item(seed, index, wl.rank, wl.tamper)


def warmup_items(name: str, seed: int):
    """Items with negative indices: they exercise every code path of the
    workload (and its lazy imports) at small size."""
    wl = WORKLOADS[name]
    return [witt_item(seed, -1 - j) if wl.rank is None
            else certify_item(seed, -1 - j, 6, tamper=False) for j in range(wl.warmup)]


# --- items -------------------------------------------------------------------------


def _failed_ids(checks):
    return [c["id"] for c in checks if not c["passed"]]


def run_item(item):
    """Run one item; returns (problem or None, output kept for the digest)."""
    kind = item[0]
    if kind == "witt":
        return _run_witt(item)
    _, dx, dy, payload = item
    if kind == "valid":
        cert = build_gamma(dx, dy, payload)
        checks = cert.checks + verify_frobenius(cert)
        missing = set(FROBENIUS_IDS) - {c["id"] for c in checks}
        failed = _failed_ids(checks)
        if missing or failed:
            return f"valid pair: missing {sorted(missing)}, failed {failed}", cert.gamma
        return None, cert.gamma
    bad = payload
    tg = bad.transpose()
    checks = [
        {"id": "leftinv", "passed": compose_realized(bad, tg) == diagonal_realized(dx.space)},
        {"id": "rightinv", "passed": compose_realized(tg, bad) == diagonal_realized(dy.space)},
    ] + verify_frobenius(GammaCert(bad, dx, dy, []))
    failed = _failed_ids(checks)
    if sorted(failed) != sorted(TAMPER_CAUGHT):
        return f"{kind} candidate: failed {failed}, expected {list(TAMPER_CAUGHT)}", bad
    return None, bad


def _run_witt(item):
    _, g1, gens1, w1, g2, gens2, w2, phi, psi = item
    v1, v2 = QuadSpace(g1), QuadSpace(g2)
    group1, group2 = GroupAction.build(v1, gens1), GroupAction.build(v2, gens2)
    wr = equivariant_witt(group1, w1, group2, w2, Isometry(v1, v2, phi),
                          Isometry(v1.restrict(w1), v2.restrict(w2), psi))
    m = wr.full.matrix
    bad = []
    if not wr.full.verify():
        bad.append("isometry")
    if any(not mat_eq(m.dot(a), b) for a, b in zip(w1, w2)):
        bad.append("prescription")
    if any(not mat_eq(m.dot(a), b.dot(m)) for a, b in aligned_elements(group1, group2)):
        bad.append("equivariance")
    if not wr.restriction.verify() or len(wr.u1_basis) != v1.dim - len(w1):
        bad.append("complement")
    return (f"witt problem: failed {bad}" if bad else None), m


# --- result digest -----------------------------------------------------------------


def _entries(val):
    if isinstance(val, np.ndarray):
        return " ".join(rational_str(x) for x in val.flat)
    return rational_str(val)


def digest_lines(item, output):
    """Canonical "p/q" text of one item's results: every Gamma component (the
    tampered one for a tampered item) and the derived P of the source, or the
    Witt ``full`` matrix."""
    if output is None:
        yield "raised"
        return
    if item[0] == "witt":
        yield "full " + _entries(output)
        return
    for sig in sorted(output.comps, key=str):
        yield f"gamma {sig} {_entries(output.comps[sig])}"
    for mon, coeff in sorted(p_to_json(derive_P(item[1].cfg)).items()):
        yield f"P {mon} {coeff}"


def result_digest(items, outputs) -> str:
    h = hashlib.sha256()
    for item, output in zip(items, outputs):
        for line in digest_lines(item, output):
            h.update(line.encode() + b"\n")
    return h.hexdigest()
