"""Named verification suites with machine- and human-readable reports.

Each suite runs a bundle of exact checks (tolerance is identically zero
everywhere) and returns a :class:`SuiteReport`.  Check ids are unique within
a suite and each id carries a one-line ``claim`` stating the verified
identity.  Randomized suites are deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShadowViolation, StructureError
from .gradedring import TruncPoly, VarietyData, integrate, tangent_chern, todd_and_sqrt
from .linalg import boxed, canonical, dot, eye, inverse, mat_eq, product, qmat, rank, same, zeros
from .mukai import MukaiSpace, kuznetsov_project, lambda_basis
from .motiveiso import (GammaCert, build_gamma, build_gamma_cubic_k3, certify_gamma,
                        random_cubic_k3_pair, random_diag_gram, random_fourfold_pair,
                        random_unimodular, verify_frobenius)
from .quadform import GroupAction, Isometry, QuadSpace, equivariant_witt
from .rationals import QQ
from .realization import (RealizationConfig, check, degree, derive_P, p_to_text, realize,
                          verify_kernel_identities)
from .tautcorr import CorrClass, ck_projectors, compose, transpose


# --------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one verification suite.

    ``checks`` is a list of ``{"id", "claim", "passed", "witness"}`` dicts;
    ``witness`` is ``None`` on success and a short diff/description on
    failure.  ``extra`` carries suite-specific payload (for example the
    coefficient table emitted by the ``derive-p`` suite).
    """

    suite: str
    checks: list
    seconds: float
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        ids = [c["id"] for c in self.checks]
        if len(ids) != len(set(ids)):
            raise StructureError("duplicate check ids in suite " + self.suite)

    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c["passed"]]

    def to_json(self):
        return {
            "suite": self.suite,
            "passed": self.passed(),
            "seconds": round(self.seconds, 4),
            "checks": self.checks,
            "extra": self.extra,
        }

    def to_markdown(self) -> str:
        lines = [f"## suite `{self.suite}` — "
                 f"{'all checks passed' if self.passed() else 'FAILURES'} "
                 f"({self.seconds:.2f} s)", ""]
        lines.append("| check | claim | result |")
        lines.append("|---|---|---|")
        for c in self.checks:
            res = "pass" if c["passed"] else "**FAIL**"
            lines.append(f"| `{c['id']}` | {c['claim']} | {res} |")
        for c in self.failures():
            lines.append("")
            lines.append(f"- `{c['id']}` witness: {c['witness']}")
        for key, val in self.extra.items():
            lines.append("")
            lines.append(f"### {key}")
            lines.append("```")
            lines.append(val if isinstance(val, str) else repr(val))
            lines.append("```")
        return "\n".join(lines)


def reports_to_json(reports) -> dict:
    return {
        "passed": all(r.passed() for r in reports),
        "suites": [r.to_json() for r in reports],
    }


def reports_to_markdown(reports) -> str:
    total = sum(len(r.checks) for r in reports)
    bad = sum(len(r.failures()) for r in reports)
    head = ("# verification report\n\n"
            + (f"**{total} checks, all passed.**" if bad == 0
               else f"**{bad} of {total} checks FAILED.**"))
    return "\n\n".join([head] + [r.to_markdown() for r in reports]) + "\n"


def _timed(name, builder, extra=None) -> SuiteReport:
    t0 = time.perf_counter()
    checks = builder()
    return SuiteReport(name, checks, time.perf_counter() - t0, extra or {})


def random_gram(seed: int, rank: int = 22) -> np.ndarray:
    """Deterministic pseudo-random nondegenerate diagonal Gram matrix."""
    return random_diag_gram(random.Random(seed), rank)


def _config(cfg) -> RealizationConfig:
    return cfg if cfg is not None else RealizationConfig.default()


def _alt_config(cfg: RealizationConfig) -> RealizationConfig:
    """A second primitive Gram, guaranteed distinct from ``cfg``'s."""
    for seed in itertools.count(97):
        g = random_gram(seed, 6)
        if g.shape != cfg.prim.gram.shape or not mat_eq(g, cfg.prim.gram):
            return RealizationConfig.with_gram(g)


# --------------------------------------------------------------------------
# chern


def chern_suite(cfg=None, seed: int = 0) -> SuiteReport:
    """Characteristic-class pipeline on the cubic fourfold and a K3 surface."""

    def run():
        vd = VarietyData.cubic_fourfold()
        c = tangent_chern(vd)
        td, rt = todd_and_sqrt(c)
        want = TruncPoly.from_coeffs(vd, [1, 3, 6, 2, 9])
        checks = [
            check("tangent-chern",
                  "c(T) = 1 + 3h + 6h^2 + 2h^3 + 9h^4 on the cubic fourfold",
                  c == want, f"got {c.coeffs}"),
            check("todd-degree", "integral of td(T) equals 1",
                  integrate(td) == QQ(1), f"got {integrate(td)}"),
            check("euler-number", "integral of c_4(T) equals 27",
                  integrate(c) == QQ(27), f"got {integrate(c)}"),
            check("sqrt-todd", "the square of the Todd square root equals td(T)",
                  rt * rt == td),
        ]
        vk = VarietyData.k3()
        ck = tangent_chern(vk)
        tdk, rtk = todd_and_sqrt(ck)
        checks += [
            check("k3-euler-number", "integral of c_2(T) equals 24 on a K3 surface",
                  integrate(ck) == QQ(24), f"got {integrate(ck)}"),
            check("k3-todd-degree", "integral of td(T) equals 2 on a K3 surface",
                  integrate(tdk) == QQ(2), f"got {integrate(tdk)}"),
            check("k3-sqrt-todd", "Todd square root squares back on a K3 surface",
                  rtk * rtk == tdk),
        ]
        return checks

    return _timed("chern", run)


# --------------------------------------------------------------------------
# mukai-table


def _hilbert_chi(t: int):
    """Euler characteristic of O(t) on a cubic fourfold, by the Hilbert
    polynomial of a degree-3 hypersurface in P^5 (valid for all integer t)."""
    def c5(x):
        return QQ((x + 4) * (x + 3) * (x + 2) * (x + 1) * x, 120)
    return c5(t + 1) - c5(t - 2)


def mukai_table_suite(cfg=None, seed: int = 0) -> SuiteReport:
    """Line-bundle pairing table and the two orthogonal classes.

    The pairing table of the line-bundle vectors is checked against the
    Hilbert-polynomial oracle, then the two classes spanning their
    right-orthogonal complement."""

    def run():
        vd = VarietyData.cubic_fourfold()
        sp = MukaiSpace.cubic(QuadSpace(zeros(0, 0)))
        v = [sp.line_vector(i) for i in range(3)]
        table = [[sp.pairing(v[i], v[j]) for j in range(3)] for i in range(3)]
        want = [[QQ(1), QQ(6), QQ(21)], [QQ(0), QQ(1), QQ(6)], [QQ(0), QQ(0), QQ(1)]]
        checks = [
            check("gram-table",
                  "pairing table of (v(O), v(O(1)), v(O(2))) is [[1,6,21],[0,1,6],[0,0,1]]",
                  table == want, f"got {table}"),
        ]
        oracle_ok, wit = True, None
        for a in range(-2, 3):
            for b in range(-2, 3):
                got = sp.pairing(sp.line_vector(a), sp.line_vector(b))
                exp = _hilbert_chi(b - a)
                if got != exp:
                    oracle_ok, wit = False, f"<v(O({a})), v(O({b}))> = {got}, chi = {exp}"
                    break
        checks.append(check(
            "hilbert-oracle",
            "<v(O(a)), v(O(b))> equals chi(O(b-a)) from the Hilbert polynomial, "
            "for all a, b in [-2, 2]", oracle_ok, wit))

        l1p, l2p = lambda_basis(vd)
        l1, l2 = sp.element(l1p), sp.element(l2p)
        checks += [
            check("lambda-norms", "<l1, l1> = <l2, l2> = -2",
                  sp.pairing(l1, l1) == QQ(-2) and sp.pairing(l2, l2) == QQ(-2),
                  f"got {sp.pairing(l1, l1)}, {sp.pairing(l2, l2)}"),
            check("lambda-cross", "<l1, l2> = <l2, l1> = 1 (an A2 form up to sign)",
                  sp.pairing(l1, l2) == QQ(1) and sp.pairing(l2, l1) == QQ(1),
                  f"got {sp.pairing(l1, l2)}, {sp.pairing(l2, l1)}"),
            check("lambda-orthogonal",
                  "l1, l2 pair to zero on the right of every v(O(i)), i = 0, 1, 2",
                  all(sp.pairing(v[i], l) == 0 for i in range(3) for l in (l1, l2))),
        ]
        span = qmat([list(p.coeffs) for p in
                     [v[0].poly, v[1].poly, v[2].poly, l1p, l2p]])
        checks.append(check(
            "span-rank", "v(O), v(O(1)), v(O(2)), l1, l2 span all five h-powers",
            rank(span) == 5, f"rank {rank(span)}"))
        checks.append(check(
            "projection-fixes-lambda",
            "mutation past v(O(2)), v(O(1)), v(O) fixes l1 and l2",
            kuznetsov_project(sp, l1) == l1 and kuznetsov_project(sp, l2) == l2))
        proj = [kuznetsov_project(sp, sp.element(TruncPoly.h_power(vd, k))) for k in range(5)]
        img = qmat([list(p.poly.coeffs) for p in proj])
        lam = qmat([list(l1p.coeffs), list(l2p.coeffs)])
        both = qmat([list(p.poly.coeffs) for p in proj] + [list(l1p.coeffs), list(l2p.coeffs)])
        checks.append(check(
            "projection-image",
            "the projection of the h-power span has rank 2 and lies in span(l1, l2)",
            rank(img) == 2 and rank(both) == rank(lam) == 2,
            f"rank(img) = {rank(img)}, rank(img + lambdas) = {rank(both)}"))
        return checks

    return _timed("mukai-table", run)


# --------------------------------------------------------------------------
# projectors


def projector_suite(cfg=None, seed: int = 0) -> SuiteReport:
    """Diagonal decomposition and the primitive refinement on the fourfold.

    Idempotence, orthogonality, completeness, the primitive refinement, and
    hyperplane-section kill."""

    def run():
        vd = VarietyData.cubic_fourfold()
        pis = ck_projectors(vd)
        names = ["pi0", "pi2", "pi4", "pi6", "pi8"]
        checks = []
        bad = [n for n in names + ["pi4_prim"] if compose(pis[n], pis[n]) != pis[n]]
        checks.append(check("idempotent", "each projector composes to itself",
                            not bad, f"not idempotent: {bad}"))
        bad = [(a, b) for a in names for b in names
               if a != b and not compose(pis[a], pis[b]).is_zero()]
        checks.append(check("orthogonal", "distinct projectors compose to zero",
                            not bad, f"nonzero products: {bad}"))
        total = pis["pi0"] + pis["pi2"] + pis["pi4"] + pis["pi6"] + pis["pi8"]
        checks.append(check("complete", "the five projectors sum to the diagonal",
                            total == CorrClass.diagonal(vd)))
        p4p = pis["pi4_prim"]
        checks.append(check("prim-self-transpose",
                            "the primitive middle projector equals its transpose",
                            transpose(p4p) == p4p))
        checks.append(check("prim-absorbed",
                            "pi4 absorbs the primitive projector on both sides",
                            compose(pis["pi4"], p4p) == p4p and compose(p4p, pis["pi4"]) == p4p))
        bad = []
        for a in range(4):
            z = CorrClass.h_monomial(vd, (a, 3 - a))
            if not compose(compose(p4p, z), p4p).is_zero():
                bad.append((a, 3 - a))
        checks.append(check(
            "hkill",
            "every codimension-3 product of hyperplane powers is killed between "
            "two primitive projectors", not bad, f"survivors: {bad}"))
        return checks

    return _timed("projectors", run)


# --------------------------------------------------------------------------
# derive-p


def _p_is_symmetric(p: CorrClass) -> bool:
    for perm in itertools.permutations(range(3)):
        permuted = {}
        for mon, coeff in p.terms.items():
            kind, exps = mon
            permuted[(kind, tuple(exps[perm[i]] for i in range(3)))] = coeff
        if permuted != dict(p.terms):
            return False
    return True


def _monomial_degree_oracle(a: int, b: int, c: int):
    """Degree of the corrected small-diagonal class against h1^a h2^b h3^c:
    3 for the full top degree, minus 3 for each two-factor top degree."""
    val = 3 if a + b + c == 4 else 0
    val -= 3 if (a + b == 4 and c == 0) else 0
    val -= 3 if (a + c == 4 and b == 0) else 0
    val -= 3 if (b + c == 4 and a == 0) else 0
    return QQ(val)


def derive_p_suite(cfg=None, seed: int = 0) -> SuiteReport:
    """Small-diagonal correction class and Euler consistency.

    Solves for the polynomial correction class, checks its symmetry,
    Gram-independence and degree table, then the Euler consistency of the
    configured primitive rank (kept last: it is the only check here that
    depends on the rank)."""
    cfg = _config(cfg)
    extra = {}

    def run():
        checks = []
        try:
            p = derive_P(cfg)
            checks.append(check(
                "mult-shadow",
                "the small diagonal minus its hyperplane part realizes with no "
                "primitive components", True))
        except ShadowViolation as e:
            checks.append(check("mult-shadow",
                                "the small diagonal minus its hyperplane part realizes "
                                "with no primitive components", False, str(e)))
            return checks
        extra["correction-class"] = p_to_text(p)
        checks.append(check("p-symmetric",
                            "the correction class is invariant under all slot permutations",
                            _p_is_symmetric(p)))
        alt = _alt_config(cfg)
        checks.append(check("p-gram-independent",
                            "the correction class is identical for two distinct "
                            "primitive Gram matrices",
                            derive_P(alt) == p))
        rp = realize(p, cfg)
        bad = None
        for a in range(5):
            for b in range(5):
                for c in range(5):
                    m = realize(CorrClass.h_monomial(cfg.space.vd, (a, b, c)), cfg)
                    got = degree(rp * m)
                    if got != _monomial_degree_oracle(a, b, c):
                        bad = f"(a,b,c)=({a},{b},{c}): degree {got}"
                        break
        checks.append(check(
            "monomial-degrees",
            "degrees of the correction class against all 125 hyperplane monomials "
            "match the closed-form count", bad is None, bad))
        dd = realize(CorrClass.diagonal(cfg.space.vd), cfg)
        got = degree(dd * dd)
        checks.append(check("euler-27",
                            "the realized diagonal squares to degree 27",
                            got == QQ(27), f"got {got} (primitive rank {cfg.space.r})"))
        return checks

    return _timed("derive-p", run, extra)


# --------------------------------------------------------------------------
# kernels


def kernel_suite(cfg=None, seed: int = 0) -> SuiteReport:
    """Projection-kernel composition identities over two distinct Gram matrices."""
    cfg = _config(cfg)

    def run():
        checks = []
        for label, c in (("g1", cfg), ("g2", _alt_config(cfg))):
            for res in verify_kernel_identities(c):
                checks.append(check(f"{res['id']}-{label}",
                                    res["claim"] + f" [{label}]",
                                    res["passed"], res.get("witness")))
        return checks

    return _timed("kernels", run)


# --------------------------------------------------------------------------
# witt


def _random_witt_instance(rng: random.Random):
    """One randomized equivariant extension problem: a sign-flip group on a
    diagonal form, a fixed nondegenerate subspace of dimension <= 2, a
    conjugated second copy, and a global equivariant isometry that does NOT
    respect the subspace.  Built on integers, each public array boxed once."""
    n = rng.randint(2, 6)
    v1 = QuadSpace(random_diag_gram(rng, n))
    g1 = v1.scaled_gram[0]  # the diagonal integers, over 1
    wdim = min(rng.choice((0, 1, 1, 2, 2)), n - 1)

    gens1 = [np.diag([-1 if i >= wdim and rng.random() < 0.5 else 1 for i in range(n)])
             .astype(object) for _ in range(rng.randint(0, 3))]
    group1 = GroupAction.build(v1, gens1)

    fixed_coords = [i for i in range(n) if all(g[i, i] == 1 for g in gens1)]
    for attempt in range(20):
        w1 = np.zeros((wdim, n), dtype=object)
        for k in range(wdim):
            for i in fixed_coords:
                w1[k, i] = rng.randint(-1, 1)
        if rank(np.dot(np.dot(w1, g1), w1.T)) == wdim:
            break
    else:
        w1 = np.eye(n, dtype=int).astype(object)[fixed_coords[:wdim]]

    s, s_inv = random_unimodular(rng, n)
    v2 = v1.restrict_scaled((s.T, 1))  # the first form in the basis of the columns of s
    conj = tuple(canonical(*product((s_inv, 1), g, (s, 1))) for g in group1.scaled_generators)
    group2 = GroupAction(v2, conj, group1.order)  # s^-1 g s: no second check or closure
    w2 = np.dot(w1, s_inv.T)

    phi = (s_inv, 1)
    if fixed_coords and rng.random() < 0.8:
        for attempt in range(10):
            f = np.zeros(n, dtype=object)
            for i in fixed_coords:
                f[i] = rng.randint(-2, 2)
            if np.dot(np.dot(f, g1), f) != 0:
                phi = product((s_inv, 1), Isometry.reflection(v1, f).scaled_matrix)
                break
    phi_v = Isometry.from_scaled(v1, v2, phi)
    psi_w = Isometry.from_scaled(v1.restrict_scaled((w1, 1)), v2.restrict_scaled((w2, 1)),
                                 (np.eye(wdim, dtype=int).astype(object), 1))
    return group1, list(boxed(w1, 1)), group2, list(boxed(w2, 1)), phi_v, psi_w


WITT_PROBLEMS = 200  # randomized extension problems per witt run


def witt_suite(cfg=None, seed: int = 0) -> SuiteReport:
    """Randomized equivariant isometry extensions.

    Each returned map must be a global isometry, prescribed on the subspace,
    equivariant, and restrict to an isometry of the orthogonal complements."""

    def run():
        rng = random.Random(seed)
        fails = {"isometry": None, "prescription": None,
                 "equivariance": None, "complement": None}
        for i in range(WITT_PROBLEMS):
            group1, w1, group2, w2, phi_v, psi_w = _random_witt_instance(rng)
            try:
                wr = equivariant_witt(group1, w1, group2, w2, phi_v, psi_w)
            except Exception as e:  # any failure counts against every aspect
                for k in fails:
                    fails[k] = fails[k] or f"instance {i}: raised {e!r}"
                continue
            m = wr.full.scaled_matrix
            if not wr.full.verify():
                fails["isometry"] = fails["isometry"] or f"instance {i}"
            w2m = [dot(np.stack(w2, axis=1), psi_w.matrix[:, k]) if w2 else None
                   for k in range(len(w1))]
            if any(not mat_eq(wr.full(w1[k]), w2m[k]) for k in range(len(w1))):
                fails["prescription"] = fails["prescription"] or f"instance {i}"
            if any(not same(product(m, m1), product(m2, m))
                   for m1, m2 in zip(group1.scaled_generators, group2.scaled_generators)):
                fails["equivariance"] = fails["equivariance"] or f"instance {i}"
            if (not wr.restriction.verify()
                    or len(wr.u1_basis) != group1.space.dim - len(w1)):
                fails["complement"] = fails["complement"] or f"instance {i}"
        checks = [
            check("isometry",
                  f"all {WITT_PROBLEMS} extended maps satisfy M^T G2 M = G1",
                  fails["isometry"] is None, fails["isometry"]),
            check("prescription",
                  f"all {WITT_PROBLEMS} extended maps act on the subspace exactly as prescribed",
                  fails["prescription"] is None, fails["prescription"]),
            check("equivariance",
                  f"all {WITT_PROBLEMS} extended maps commute with every group element",
                  fails["equivariance"] is None, fails["equivariance"]),
            check("complement",
                  f"all {WITT_PROBLEMS} restrictions to the orthogonal complement are isometries "
                  "of the expected dimension",
                  fails["complement"] is None, fails["complement"]),
        ]
        v = QuadSpace(qmat([[QQ(1), QQ(0)], [QQ(0), QQ(-1)]]))
        grp = GroupAction.trivial(v)
        iso = Isometry.identity(v)
        wdeg = [np.array([QQ(1), QQ(1)], dtype=object)]
        try:
            equivariant_witt(grp, wdeg, grp, wdeg,
                             iso, Isometry(v.restrict(wdeg), v.restrict(wdeg), eye(1)))
            checks.append(check("degenerate-rejected",
                                "a degenerate subspace is rejected with the designated error",
                                False, "no error raised"))
        except DomainError as e:
            checks.append(check("degenerate-rejected",
                                "a degenerate subspace is rejected with the designated error",
                                str(e) == "unsupported: degenerate complement", str(e)))
        return checks

    return _timed("witt", run)


# --------------------------------------------------------------------------
# gamma


GAMMA_PAIRS = 20  # randomized rank-6 fourfold pairs per gamma run


def _failed_ids(cert: GammaCert) -> list:
    """Ids of the certificate's checks and its Frobenius checks that fail."""
    return [c["id"] for c in cert.checks + verify_frobenius(cert) if not c["passed"]]


def _sheared_flip(cert: GammaCert, dx):
    """Corrupt the transcendental block: rewrite its action in a sheared
    (non-orthogonal) basis of the transcendental space and negate the image
    of the second basis vector only.  This is not an isometry, so a valid
    certificate must detect it."""
    prim = dx.cfg.prim
    t_basis, _ = dx.transcendental()
    a_vv = dot(cert.gamma.comps[("V", "V")].T, prim.gram)
    cols = list(dx.alg_basis) + [t_basis[0], t_basis[0] + t_basis[1]] + list(t_basis[2:])
    p = np.stack(cols, axis=1)
    imgs = dot(a_vv, p)
    flip_at = len(dx.alg_basis) + 1
    imgs[:, flip_at] = -imgs[:, flip_at]
    vv_bad = dot(inverse(prim.gram), dot(imgs, inverse(p)).T)
    comps = dict(cert.gamma.comps)
    comps[("V", "V")] = vv_bad
    return type(cert.gamma)(cert.gamma.spaces, comps)


def gamma_suite(cfg=None, seed: int = 0) -> SuiteReport:
    """Randomized fourfold-pair isomorphism certificates plus negative controls.

    Builds the isomorphism candidate, verifies all certified identities, and
    confirms that tampered candidates are caught."""

    def run():
        checks = []
        for i in range(GAMMA_PAIRS):
            failed = _failed_ids(build_gamma(*random_fourfold_pair(seed * 1000 + i)))
            checks.append(check(
                f"pair-{i:02d}",
                "both inverses, h-lines, quadratic form, equivariance, diagonal "
                "and small-diagonal transport hold",
                not failed, f"failed: {failed}"))
        failed = _failed_ids(build_gamma(*random_fourfold_pair(seed * 1000 + GAMMA_PAIRS,
                                                               rank=22)))
        checks.append(check("pair-rank22",
                            "a full rank-22 primitive pair passes every identity",
                            not failed, f"failed: {failed}"))

        dx, dy, iso = random_fourfold_pair(seed * 1000 + GAMMA_PAIRS + 1)
        cert = build_gamma(dx, dy, iso)
        comps = dict(cert.gamma.comps)
        comps[(("h", 1), ("h", 3))] = comps[(("h", 1), ("h", 3))] * QQ(-1)
        bad = type(cert.gamma)(cert.gamma.spaces, comps)
        failed = _failed_ids(certify_gamma(bad, dx, dy))
        checks.append(check("negative-hflip",
                            "negating one h-line summand is detected by at least one check",
                            bool(failed), "corruption passed every check"))
        failed = _failed_ids(certify_gamma(_sheared_flip(cert, dx), dx, dy))
        checks.append(check(
            "negative-shear",
            "negating one summand of the transcendental block in a sheared basis "
            "is detected, in particular by the small-diagonal transport",
            bool(failed) and "small-diagonal" in failed,
            f"failed checks: {failed}"))
        return checks

    return _timed("gamma", run)


# --------------------------------------------------------------------------
# gamma-k3


def gamma_k3_suite(cfg=None, seed: int = 0) -> SuiteReport:
    """Fourfold-to-surface bridges on matched transcendental lattices."""

    def run():
        checks = []
        from .motiveiso import FourfoldData, SurfaceData
        g = qmat([[QQ(-2), QQ(1)], [QQ(1), QQ(-2)]])
        dx = FourfoldData(RealizationConfig.with_gram(g))
        ds = SurfaceData(VarietyData.k3(), QuadSpace(g.copy()), ())
        t1, t1q = dx.transcendental()
        t2, t2q = ds.transcendental()
        cert = build_gamma_cubic_k3(dx, ds, Isometry(t1q, t2q, eye(2)))
        checks.append(check("toy-rank2",
                            "a rank-2 matched pair produces a passing certificate",
                            cert.passed(),
                            f"failed: {[c['id'] for c in cert.checks if not c['passed']]}"))
        ok, wit = True, None
        for i in range(3):
            dxr, dsr, isor = random_cubic_k3_pair(seed * 100 + i)
            c = build_gamma_cubic_k3(dxr, dsr, isor)
            if not c.passed():
                ok, wit = False, f"pair seed {seed * 100 + i}"
                break
        checks.append(check("random-pairs",
                            "three randomized matched pairs produce passing certificates",
                            ok, wit))
        dxr, dsr, isor = random_cubic_k3_pair(seed * 100 + 42, rank=22)
        c = build_gamma_cubic_k3(dxr, dsr, isor)
        checks.append(check("rank22",
                            "a rank-22 matched pair produces a passing certificate",
                            c.passed(),
                            f"failed: {[x['id'] for x in c.checks if not x['passed']]}"))
        dxa, _, _ = random_cubic_k3_pair(seed * 100, rank=6)
        _, dsb, _ = random_cubic_k3_pair(seed * 100 + 1, rank=8)
        try:
            build_gamma_cubic_k3(dxa, dsb, isor)
            checks.append(check("mismatch-rejected",
                                "rank-mismatched inputs are rejected", False,
                                "no error raised"))
        except DomainError:
            checks.append(check("mismatch-rejected",
                                "rank-mismatched inputs are rejected", True))
        return checks

    return _timed("gamma-k3", run)


# --------------------------------------------------------------------------
# registry


SUITES = {
    "chern": chern_suite,
    "mukai-table": mukai_table_suite,
    "projectors": projector_suite,
    "derive-p": derive_p_suite,
    "kernels": kernel_suite,
    "witt": witt_suite,
    "gamma": gamma_suite,
    "gamma-k3": gamma_k3_suite,
}


def run_suite(name: str, cfg=None, seed: int = 0) -> SuiteReport:
    if name not in SUITES:
        raise DomainError(f"unknown suite: {name}")
    return SUITES[name](cfg, seed)


def run_all(cfg=None, seed: int = 0) -> list:
    """Every suite, in registry order."""
    return [fn(cfg, seed) for fn in SUITES.values()]
