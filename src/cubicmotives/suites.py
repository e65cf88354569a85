"""Named verification suites with machine- and human-readable reports.

Each suite runs a bundle of exact checks (tolerance is identically zero
everywhere) and returns a :class:`SuiteReport`.  Check ids are unique within
a suite and each id carries a one-line ``claim`` stating the verified
identity.  Randomized suites are deterministic for a fixed seed.

A suite is a generator ``(cfg, seed, extra)`` under ``@_suite(name)``.  It
does each check's work just before it yields ``(id, claim, passed[,
witness])``, so a crash propagates unchanged; it calls ``_config(cfg)`` only
if it reads the configuration, and puts any payload for the report into
``extra``.  The decorator times the generator as a whole and each check
(the work between one yield and the next, as the record's ``seconds``),
builds every record with :func:`realization.check` and returns the report from
``suite(cfg=None, seed=0)``.  An oracle compared over many cases names its
first failing case through :func:`first_failure`.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShadowViolation, StructureError
from .gradedring import TruncPoly, VarietyData, integrate, tangent_chern, todd_and_sqrt
from .linalg import boxed, dot, eye, inverse, mat_eq, product, qmat, rank, zeros
from .mukai import MukaiSpace, kuznetsov_project, lambda_basis
from .motiveiso import (FourfoldData, GammaCert, SurfaceData, build_gamma,
                        build_gamma_cubic_k3, certify_gamma, random_cubic_k3_pair,
                        random_diag_gram, random_fourfold_pair, random_unimodular,
                        verify_frobenius)
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

    ``checks`` is a list of ``{"id", "claim", "passed", "witness",
    "seconds"}`` dicts; ``witness`` is ``None`` on success and a short
    diff/description on failure.  ``extra`` carries suite-specific payload
    (for example the coefficient table emitted by the ``derive-p`` suite).
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


def _suite(name: str):
    """Decorator: the suite ``name`` of a check generator ``(cfg, seed,
    extra)`` (see the module docstring)."""
    def wrap(checks):
        @functools.wraps(checks)
        def suite(cfg=None, seed: int = 0) -> SuiteReport:
            extra, records = {}, []
            t0 = t = time.perf_counter()
            for c in checks(cfg, seed, extra):  # a check's seconds: its work before the yield
                now = time.perf_counter()
                records.append({**check(*c), "seconds": round(now - t, 4)})
                t = now
            return SuiteReport(name, records, time.perf_counter() - t0, extra)
        del suite.__wrapped__  # introspection shows (cfg=None, seed=0), not the generator's
        return suite
    return wrap


def first_failure(cases, witness):
    """The first ``witness(case)`` over ``cases`` that is not None (a failure
    is described, a pass gives None), or None when every case passes.  No
    case after the first failure is evaluated."""
    return next((w for w in map(witness, cases) if w is not None), None)


def _rejects(cid: str, claim: str, call, error, message=None) -> tuple:
    """Check that ``call()`` raises ``error`` (with the text ``message``,
    when one is given)."""
    try:
        call()
    except error as e:
        return cid, claim, message is None or str(e) == message, str(e)
    return cid, claim, False, "no error raised"


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


@_suite("chern")
def chern_suite(cfg, seed, extra):
    """Characteristic-class pipeline on the cubic fourfold and a K3 surface."""
    vd = VarietyData.cubic_fourfold()
    c = tangent_chern(vd)
    td, rt = todd_and_sqrt(c)
    want = TruncPoly.from_coeffs(vd, [1, 3, 6, 2, 9])
    yield ("tangent-chern", "c(T) = 1 + 3h + 6h^2 + 2h^3 + 9h^4 on the cubic fourfold",
           c == want, f"got {c.coeffs}")
    yield ("todd-degree", "integral of td(T) equals 1",
           integrate(td) == QQ(1), f"got {integrate(td)}")
    yield ("euler-number", "integral of c_4(T) equals 27",
           integrate(c) == QQ(27), f"got {integrate(c)}")
    yield "sqrt-todd", "the square of the Todd square root equals td(T)", rt * rt == td
    vk = VarietyData.k3()
    ck = tangent_chern(vk)
    tdk, rtk = todd_and_sqrt(ck)
    yield ("k3-euler-number", "integral of c_2(T) equals 24 on a K3 surface",
           integrate(ck) == QQ(24), f"got {integrate(ck)}")
    yield ("k3-todd-degree", "integral of td(T) equals 2 on a K3 surface",
           integrate(tdk) == QQ(2), f"got {integrate(tdk)}")
    yield "k3-sqrt-todd", "Todd square root squares back on a K3 surface", rtk * rtk == tdk


# --------------------------------------------------------------------------
# mukai-table


def _hilbert_chi(t: int):
    """Euler characteristic of O(t) on a cubic fourfold, by the Hilbert
    polynomial of a degree-3 hypersurface in P^5 (valid for all integer t)."""
    def c5(x):
        return QQ((x + 4) * (x + 3) * (x + 2) * (x + 1) * x, 120)
    return c5(t + 1) - c5(t - 2)


@_suite("mukai-table")
def mukai_table_suite(cfg, seed, extra):
    """Line-bundle pairing table and the two orthogonal classes.

    The pairing table of the line-bundle vectors is checked against the
    Hilbert-polynomial oracle, then the two classes spanning their
    right-orthogonal complement."""
    vd = VarietyData.cubic_fourfold()
    sp = MukaiSpace.cubic(QuadSpace(zeros(0, 0)))
    v = [sp.line_vector(i) for i in range(3)]
    table = [[sp.pairing(v[i], v[j]) for j in range(3)] for i in range(3)]
    want = [[QQ(1), QQ(6), QQ(21)], [QQ(0), QQ(1), QQ(6)], [QQ(0), QQ(0), QQ(1)]]
    yield ("gram-table",
           "pairing table of (v(O), v(O(1)), v(O(2))) is [[1,6,21],[0,1,6],[0,0,1]]",
           table == want, f"got {table}")

    def off_oracle(ab):
        a, b = ab
        got, exp = sp.pairing(sp.line_vector(a), sp.line_vector(b)), _hilbert_chi(b - a)
        return None if got == exp else f"<v(O({a})), v(O({b}))> = {got}, chi = {exp}"
    bad = first_failure(itertools.product(range(-2, 3), repeat=2), off_oracle)
    yield ("hilbert-oracle",
           "<v(O(a)), v(O(b))> equals chi(O(b-a)) from the Hilbert polynomial, "
           "for all a, b in [-2, 2]", bad is None, bad)

    l1p, l2p = lambda_basis(vd)
    l1, l2 = sp.element(l1p), sp.element(l2p)
    yield ("lambda-norms", "<l1, l1> = <l2, l2> = -2",
           sp.pairing(l1, l1) == QQ(-2) and sp.pairing(l2, l2) == QQ(-2),
           f"got {sp.pairing(l1, l1)}, {sp.pairing(l2, l2)}")
    yield ("lambda-cross", "<l1, l2> = <l2, l1> = 1 (an A2 form up to sign)",
           sp.pairing(l1, l2) == QQ(1) and sp.pairing(l2, l1) == QQ(1),
           f"got {sp.pairing(l1, l2)}, {sp.pairing(l2, l1)}")
    yield ("lambda-orthogonal",
           "l1, l2 pair to zero on the right of every v(O(i)), i = 0, 1, 2",
           all(sp.pairing(v[i], l) == 0 for i in range(3) for l in (l1, l2)))
    span = qmat([list(p.coeffs) for p in [v[0].poly, v[1].poly, v[2].poly, l1p, l2p]])
    yield ("span-rank", "v(O), v(O(1)), v(O(2)), l1, l2 span all five h-powers",
           rank(span) == 5, f"rank {rank(span)}")
    yield ("projection-fixes-lambda",
           "mutation past v(O(2)), v(O(1)), v(O) fixes l1 and l2",
           kuznetsov_project(sp, l1) == l1 and kuznetsov_project(sp, l2) == l2)
    proj = [kuznetsov_project(sp, sp.element(TruncPoly.h_power(vd, k))) for k in range(5)]
    img = qmat([list(p.poly.coeffs) for p in proj])
    lam = qmat([list(l1p.coeffs), list(l2p.coeffs)])
    both = qmat([list(p.poly.coeffs) for p in proj] + [list(l1p.coeffs), list(l2p.coeffs)])
    yield ("projection-image",
           "the projection of the h-power span has rank 2 and lies in span(l1, l2)",
           rank(img) == 2 and rank(both) == rank(lam) == 2,
           f"rank(img) = {rank(img)}, rank(img + lambdas) = {rank(both)}")


# --------------------------------------------------------------------------
# projectors


@_suite("projectors")
def projector_suite(cfg, seed, extra):
    """Diagonal decomposition and the primitive refinement on the fourfold.

    Idempotence, orthogonality, completeness, the primitive refinement, and
    hyperplane-section kill."""
    vd = VarietyData.cubic_fourfold()
    pis = ck_projectors(vd)
    names = ["pi0", "pi2", "pi4", "pi6", "pi8"]
    bad = [n for n in names + ["pi4_prim"] if compose(pis[n], pis[n]) != pis[n]]
    yield "idempotent", "each projector composes to itself", not bad, f"not idempotent: {bad}"
    bad = [(a, b) for a in names for b in names
           if a != b and not compose(pis[a], pis[b]).is_zero()]
    yield ("orthogonal", "distinct projectors compose to zero",
           not bad, f"nonzero products: {bad}")
    total = pis["pi0"] + pis["pi2"] + pis["pi4"] + pis["pi6"] + pis["pi8"]
    yield ("complete", "the five projectors sum to the diagonal",
           total == CorrClass.diagonal(vd))
    p4p = pis["pi4_prim"]
    yield ("prim-self-transpose", "the primitive middle projector equals its transpose",
           transpose(p4p) == p4p)
    yield ("prim-absorbed", "pi4 absorbs the primitive projector on both sides",
           compose(pis["pi4"], p4p) == p4p and compose(p4p, pis["pi4"]) == p4p)
    bad = [(a, 3 - a) for a in range(4) if not compose(
        compose(p4p, CorrClass.h_monomial(vd, (a, 3 - a))), p4p).is_zero()]
    yield ("hkill",
           "every codimension-3 product of hyperplane powers is killed between "
           "two primitive projectors", not bad, f"survivors: {bad}")


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


@_suite("derive-p")
def derive_p_suite(cfg, seed, extra):
    """Small-diagonal correction class and Euler consistency.

    Solves for the polynomial correction class, checks its symmetry,
    Gram-independence and degree table, then the Euler consistency of the
    configured primitive rank (kept last: it is the only check here that
    depends on the rank)."""
    cfg = _config(cfg)
    claim = "the small diagonal minus its hyperplane part realizes with no primitive components"
    try:
        p = derive_P(cfg)
    except ShadowViolation as e:
        yield "mult-shadow", claim, False, str(e)
        return
    yield "mult-shadow", claim, True
    extra["correction-class"] = p_to_text(p)
    yield ("p-symmetric", "the correction class is invariant under all slot permutations",
           _p_is_symmetric(p))
    yield ("p-gram-independent",
           "the correction class is identical for two distinct primitive Gram matrices",
           derive_P(_alt_config(cfg)) == p)
    rp = realize(p, cfg)

    def off_oracle(abc):
        got = degree(rp * realize(CorrClass.h_monomial(cfg.space.vd, abc), cfg))
        want = _monomial_degree_oracle(*abc)
        return None if got == want else "(a,b,c)=({},{},{}): degree {}".format(*abc, got)
    bad = first_failure(itertools.product(range(5), repeat=3), off_oracle)
    yield ("monomial-degrees",
           "degrees of the correction class against all 125 hyperplane monomials "
           "match the closed-form count", bad is None, bad)
    dd = realize(CorrClass.diagonal(cfg.space.vd), cfg)
    got = degree(dd * dd)
    yield ("euler-27", "the realized diagonal squares to degree 27",
           got == QQ(27), f"got {got} (primitive rank {cfg.space.r})")


# --------------------------------------------------------------------------
# kernels


@_suite("kernels")
def kernel_suite(cfg, seed, extra):
    """Projection-kernel composition identities over two distinct Gram matrices."""
    cfg = _config(cfg)
    for label, c in (("g1", cfg), ("g2", _alt_config(cfg))):
        for res in verify_kernel_identities(c):
            yield (f"{res['id']}-{label}", f"{res['claim']} [{label}]",
                   res["passed"], res["witness"])


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
    group2 = group1.conjugated(s, s_inv)
    v2 = group2.space
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
WITT_CLAIMS = {  # check id -> what holds for every one of the WITT_PROBLEMS maps
    "isometry": "extended maps satisfy M^T G2 M = G1",
    "prescription": "extended maps act on the subspace exactly as prescribed",
    "equivariance": "extended maps commute with every group element",
    "complement": "restrictions to the orthogonal complement are isometries "
                  "of the expected dimension",
}


@_suite("witt")
def witt_suite(cfg, seed, extra):
    """Randomized equivariant isometry extensions.

    Each returned map must be a global isometry, prescribed on the subspace,
    equivariant, and restrict to an isometry of the orthogonal complements."""
    rng = random.Random(seed)
    fails = dict.fromkeys(WITT_CLAIMS)
    for i in range(WITT_PROBLEMS):
        group1, w1, group2, w2, phi_v, psi_w = _random_witt_instance(rng)
        why = f"instance {i}"
        try:
            wr = equivariant_witt(group1, w1, group2, w2, phi_v, psi_w)
        except Exception as e:  # any failure counts against every aspect
            holds, why = dict.fromkeys(WITT_CLAIMS, False), f"{why}: raised {e!r}"
        else:
            w1t, w2t = (np.stack(w, axis=1) if w else zeros(group1.space.dim, 0)
                        for w in (w1, w2))
            holds = {
                "isometry": wr.full.verify(),
                "prescription": mat_eq(dot(wr.full.matrix, w1t), dot(w2t, psi_w.matrix)),
                "equivariance": wr.full.commutes(group1, group2),
                "complement": (wr.restriction.verify()
                               and len(wr.u1_scaled[0]) == group1.space.dim - len(w1)),
            }
        for cid, ok in holds.items():
            fails[cid] = fails[cid] or (None if ok else why)
    for cid, claim in WITT_CLAIMS.items():
        yield cid, f"all {WITT_PROBLEMS} {claim}", fails[cid] is None, fails[cid]
    v = QuadSpace(qmat([[QQ(1), QQ(0)], [QQ(0), QQ(-1)]]))
    grp = GroupAction.trivial(v)
    wdeg = [np.array([QQ(1), QQ(1)], dtype=object)]
    wv = v.restrict(wdeg)
    yield _rejects(
        "degenerate-rejected", "a degenerate subspace is rejected with the designated error",
        lambda: equivariant_witt(grp, wdeg, grp, wdeg, Isometry.identity(v),
                                 Isometry(wv, wv, eye(1))),
        DomainError, "unsupported: degenerate complement")


# --------------------------------------------------------------------------
# gamma


GAMMA_PAIRS = 20  # randomized rank-6 fourfold pairs per gamma run


def _failed_ids(cert: GammaCert) -> list:
    """Ids of the certificate's checks, and of a fourfold pair's Frobenius
    checks, that fail."""
    frobenius = verify_frobenius(cert) if cert.kind == "fourfold-pair" else []
    return [c["id"] for c in cert.checks + frobenius if not c["passed"]]


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
    return type(cert.gamma)(cert.gamma.spaces, {**cert.gamma.comps, ("V", "V"): vv_bad})


@_suite("gamma")
def gamma_suite(cfg, seed, extra):
    """Randomized fourfold-pair isomorphism certificates plus negative controls.

    Builds the isomorphism candidate, verifies all certified identities, and
    confirms that tampered candidates are caught."""
    for i in range(GAMMA_PAIRS):
        failed = _failed_ids(build_gamma(*random_fourfold_pair(seed * 1000 + i)))
        yield (f"pair-{i:02d}",
               "both inverses, h-lines, quadratic form, equivariance, diagonal "
               "and small-diagonal transport hold", not failed, f"failed: {failed}")
    failed = _failed_ids(build_gamma(*random_fourfold_pair(seed * 1000 + GAMMA_PAIRS, rank=22)))
    yield ("pair-rank22", "a full rank-22 primitive pair passes every identity",
           not failed, f"failed: {failed}")

    dx, dy, iso = random_fourfold_pair(seed * 1000 + GAMMA_PAIRS + 1)
    cert = build_gamma(dx, dy, iso)
    comps = dict(cert.gamma.comps)
    comps[(("h", 1), ("h", 3))] = comps[(("h", 1), ("h", 3))] * QQ(-1)
    failed = _failed_ids(certify_gamma(type(cert.gamma)(cert.gamma.spaces, comps), dx, dy))
    yield ("negative-hflip", "negating one h-line summand is detected by at least one check",
           bool(failed), "corruption passed every check")
    failed = _failed_ids(certify_gamma(_sheared_flip(cert, dx), dx, dy))
    yield ("negative-shear",
           "negating one summand of the transcendental block in a sheared basis "
           "is detected, in particular by the small-diagonal transport",
           bool(failed) and "small-diagonal" in failed, f"failed checks: {failed}")


# --------------------------------------------------------------------------
# gamma-k3


@_suite("gamma-k3")
def gamma_k3_suite(cfg, seed, extra):
    """Fourfold-to-surface bridges on matched transcendental lattices."""
    g = qmat([[QQ(-2), QQ(1)], [QQ(1), QQ(-2)]])
    dx = FourfoldData(RealizationConfig.with_gram(g))
    ds = SurfaceData(VarietyData.k3(), QuadSpace(g.copy()), ())
    iso = Isometry(dx.transcendental()[1], ds.transcendental()[1], eye(2))
    failed = _failed_ids(build_gamma_cubic_k3(dx, ds, iso))
    yield ("toy-rank2", "a rank-2 matched pair produces a passing certificate",
           not failed, f"failed: {failed}")
    bad = first_failure(range(seed * 100, seed * 100 + 3), lambda s: (
        f"pair seed {s}" if _failed_ids(build_gamma_cubic_k3(*random_cubic_k3_pair(s))) else None))
    yield ("random-pairs", "three randomized matched pairs produce passing certificates",
           bad is None, bad)
    dxr, dsr, isor = random_cubic_k3_pair(seed * 100 + 42, rank=22)
    failed = _failed_ids(build_gamma_cubic_k3(dxr, dsr, isor))
    yield ("rank22", "a rank-22 matched pair produces a passing certificate",
           not failed, f"failed: {failed}")
    dxa, _, _ = random_cubic_k3_pair(seed * 100, rank=6)
    _, dsb, _ = random_cubic_k3_pair(seed * 100 + 1, rank=8)
    yield _rejects("mismatch-rejected", "rank-mismatched inputs are rejected",
                   lambda: build_gamma_cubic_k3(dxa, dsb, isor), DomainError)


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
