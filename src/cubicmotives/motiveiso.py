"""Certified correspondences between realizations of two fourfolds (or a
fourfold and a K3 surface).

The central construction is Gamma: a two-slot realized class

    Gamma = (1/3) sum_i h^{4-i} (x) h'^i  +  sum_i a_i (x) a'_i / q(a_i)
            + Gamma_tr,

whose action carries h^i to h'^i, each algebraic class a_i to its partner,
and the transcendental complement through the given isometry: together one
global isometry phi_V, and Gamma's V-block is its Poincare dual
G_X^{-1} phi_V^T, assembled from one elimination on integers over one
denominator and never boxed on the way.  A certificate records the exact
identities: Gamma composed with its transpose is the diagonal on either side,
the pairing is preserved, and (when group data is present) the map commutes
with the group.  The Frobenius-level verification transports the diagonal
and the small diagonal and checks both against the target — the small
diagonal twice, once directly and once through the multiplicative
decomposition by the defect polynomial P.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, StructureError
from .gradedring import VarietyData
from .linalg import (boxed, canonical, dot, eye, product, same, scaled, solve_scaled,
                     stack_scaled, zeros)
from .quadform import GroupAction, Isometry, QuadSpace
from .rationals import QQ
from .realization import (
    RealizationConfig,
    RealizedClass,
    Space,
    check,
    check_equal,
    compose_realized,
    defect_of,
    diagonal_realized,
    hyperplane_part,
    realize,
    scaled_action,
)
from .tautcorr import CorrClass, ck_projectors


def _as_vectors(prim: QuadSpace, vecs, what: str):
    """The vectors as rationals; dimension, then anisotropy and orthogonality
    read vector by vector off one restricted Gram."""
    out = []
    for v in vecs:
        a = np.asarray([QQ(x) for x in v], dtype=object)
        if a.shape != (prim.dim,):
            raise StructureError(f"{what} vector of the wrong dimension")
        out.append(a)
    g = prim.restrict(out).scaled_gram[0]
    for i in range(len(out)):
        if g[i, i] == 0:
            raise StructureError(f"{what} must consist of anisotropic vectors")
        if any(g[i, :i]):
            raise StructureError(f"{what} must be orthogonal")
    return tuple(out)


def _transcendental_scaled(prim: QuadSpace, alg):
    """((rows, p), space): the canonical basis of the complement of ``alg`` as
    integer rows over p (p may be negative), and the form restricted to it."""
    rows = prim.complement_scaled(alg)
    return rows, prim.restrict_scaled(rows)


@dataclass(frozen=True, eq=False)
class FourfoldData:
    """A fourfold realization plus its designated algebraic classes.

    ``alg_basis`` is an orthogonal family of anisotropic vectors in the
    primitive space; the optional ``group`` (an exact finite matrix group of
    isometries) must fix every algebraic class — the arithmetic shadow of
    Galois acting trivially on algebraic cycles.
    """

    cfg: RealizationConfig
    alg_basis: tuple = ()
    group: GroupAction | None = None

    def __post_init__(self):
        prim = self.cfg.prim
        object.__setattr__(
            self, "alg_basis", _as_vectors(prim, self.alg_basis, "algebraic basis")
        )
        if self.group is not None:
            if not same(self.group.space.scaled_gram, prim.scaled_gram):
                raise StructureError("group acts on a different space")
            for a in self.alg_basis:
                if not self.group.fixes(a):
                    raise StructureError("group must fix every algebraic class")

    @property
    def space(self) -> Space:
        return self.cfg.space

    def group_or_trivial(self) -> GroupAction:
        return self.group if self.group is not None else GroupAction.trivial(self.cfg.prim)

    def transcendental_scaled(self):
        return _transcendental_scaled(self.cfg.prim, self.alg_basis)

    def transcendental(self):
        """The transcendental basis boxed to vectors, and the restricted space."""
        rows, space = self.transcendental_scaled()
        return list(boxed(*rows)), space


@dataclass(frozen=True, eq=False)
class SurfaceData:
    """A polarized K3 realization: h-powers plus a degree-2 quadratic space
    containing the named algebraic (Neron-Severi) classes."""

    vd: VarietyData
    prim2: QuadSpace
    ns_basis: tuple = ()

    def __post_init__(self):
        if self.vd.kind != "k3":
            raise StructureError("surface data needs K3 variety data")
        object.__setattr__(
            self, "ns_basis", _as_vectors(self.prim2, self.ns_basis, "Neron-Severi basis")
        )

    @cached_property
    def space(self) -> Space:
        return Space(self.vd, self.prim2)

    def transcendental_scaled(self):
        return _transcendental_scaled(self.prim2, self.ns_basis)

    transcendental = FourfoldData.transcendental


# --- refined projectors -------------------------------------------------------


def _alg_tensor_pair(primx: QuadSpace, basis_x, basis_y) -> np.ndarray:
    """sum_i a_i (x) b_i / q(a_i): one product of the stacked bases, the
    columns of the first scaled by 1 / q(a_i)."""
    inv_q = np.array([QQ(1) / primx.q(a) for a in basis_x], dtype=object)
    return dot(np.stack(basis_x, axis=1) * inv_q, np.stack(basis_y, axis=0))


def build_refined_projectors(d: FourfoldData):
    """(pi4_alg, pi4_tr): the middle projector split along the algebraic span.

    pi4_alg = (1/3) h^2 x h^2 + sum_i a_i x a_i / q(a_i); pi4_tr is the rest
    of the realized middle projector, i.e. kappa minus the algebraic tensor.
    """
    sp = d.space
    comps = {(("h", 2), ("h", 2)): QQ(1) / sp.e}
    if d.alg_basis:
        comps[("V", "V")] = _alg_tensor_pair(d.cfg.prim, d.alg_basis, d.alg_basis)
    pi4_alg = RealizedClass((sp, sp), comps)
    pi4 = realize(ck_projectors(d.cfg.vd)["pi4"], d.cfg)
    return pi4_alg, pi4 - pi4_alg


def surface_ck(ds: SurfaceData):
    """(pi0, pi2_alg, pi2_tr, pi4) for a polarized K3 realization.

    pi0 = o x S and pi4 = S x o for a degree-1 point class o = h^2/deg; the
    algebraic middle projector runs over an orthogonal basis of the whole
    algebraic degree-2 part — the polarization h together with ns_basis —
    so the transcendental remainder contains no h x h term.
    """
    sp = ds.space
    inv_e = QQ(1) / sp.e
    pi0 = RealizedClass((sp, sp), {(("h", 2), ("h", 0)): inv_e})
    pi4 = RealizedClass((sp, sp), {(("h", 0), ("h", 2)): inv_e})
    comps = {(("h", 1), ("h", 1)): inv_e}
    if ds.ns_basis:
        comps[("V", "V")] = _alg_tensor_pair(ds.prim2, ds.ns_basis, ds.ns_basis)
    pi2_alg = RealizedClass((sp, sp), comps)
    pi2_tr = diagonal_realized(sp) - pi0 - pi4 - pi2_alg
    return pi0, pi2_alg, pi2_tr, pi4


# --- Gamma between two fourfolds ----------------------------------------------


@dataclass(frozen=True, eq=False)
class GammaCert:
    """A correspondence plus the exact identities verified for it."""

    gamma: RealizedClass
    source: object
    target: object
    checks: list
    kind: str = "fourfold-pair"

    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _transcendental_bases(src, tgt, iso: Isometry, name: str, what: str):
    """Transcendental bases of both sides as scaled row pairs, after checking
    that ``iso`` is an isometry between their canonical coordinates (``name``
    and ``what`` label it in the errors)."""
    t1, s1 = src.transcendental_scaled()
    t2, s2 = tgt.transcendental_scaled()
    if s1.dim != s2.dim:
        raise DomainError("not Witt-equivalent transcendental shadows")
    if iso.scaled_matrix[0].shape != (s2.dim, s1.dim) \
            or not same(iso.source.scaled_gram, s1.scaled_gram) \
            or not same(iso.target.scaled_gram, s2.scaled_gram):
        raise StructureError(f"{name} must map the canonical transcendental coordinates")
    iso.require_valid(what)
    return t1, t2


def build_gamma(dx: FourfoldData, dy: FourfoldData, iso_tr: Isometry) -> GammaCert:
    """Assemble and certify Gamma for two fourfold data sets.

    ``iso_tr`` is an isometry between the canonical transcendental
    coordinates of the two sides (see :meth:`FourfoldData.transcendental`).
    The algebraic classes are matched up index by index (their q-values must
    agree); together with ``iso_tr`` on the complements they define the
    global isometry phi_V, which must commute with each generator pair of the
    two groups.  Gamma's V-block is phi_V read through Poincare duality,
    G_X^{-1} phi_V^T.
    """
    spx, spy = dx.space, dy.space
    primx, primy = dx.cfg.prim, dy.cfg.prim
    if len(dx.alg_basis) != len(dy.alg_basis):
        raise DomainError("algebraic ranks differ")
    ax, ay = (scaled(np.stack(d.alg_basis) if d.alg_basis else zeros(0, d.cfg.prim.dim))
              for d in (dx, dy))
    qx, qy = (d.cfg.prim.restrict_scaled(a).scaled_gram for d, a in ((dx, ax), (dy, ay)))
    if not same((np.diagonal(qx[0]), qx[1]), (np.diagonal(qy[0]), qy[1])):  # the q-values
        raise DomainError("algebraic classes do not match up isometrically")
    t1, t2 = _transcendental_bases(dx, dy, iso_tr, "iso_tr", "iso_tr")

    # phi_V maps the rows of dom (algebraic classes, then the transcendental
    # basis) to those of img; vv = G_X^{-1} phi_V^T solves (dom G_X) vv = img
    mn, md = iso_tr.scaled_matrix
    dom = stack_scaled(ax, t1)
    img = stack_scaled(ay, product((mn.T, md), t2))
    x, p = solve_scaled(product(dom, primx.scaled_gram), img)
    phi_v = Isometry.from_scaled(primx, primy, product((x.T, p), primx.scaled_gram))
    phi_v.require_valid("phi_V")  # invertible as G_X is, so equivariance aligns the groups
    phi_v.require_equivariant(dx.group_or_trivial(), dy.group_or_trivial(), "phi_V")

    den = math.lcm(3, p)  # positive; p may be negative
    comps = {(("h", 4 - i), ("h", i)): den // 3 for i in range(5)}
    comps[("V", "V")] = x * (den // p)
    return certify_gamma(RealizedClass._of((spx, spy), comps, den), dx, dy)


def certify_gamma(gamma: RealizedClass, dx: FourfoldData, dy: FourfoldData) -> GammaCert:
    """Certify any candidate Gamma between two fourfold data sets.

    Checks both inverse compositions, the h-lines, the pairing and
    equivariance; :func:`verify_frobenius` adds the transported diagonals.
    Equivariance is checked on the generator pairs only: blocks that
    intertwine each pair intertwine every word in them.
    """
    spx, spy = dx.space, dy.space
    gens = (dx.group_or_trivial().scaled_generators, dy.group_or_trivial().scaled_generators)
    if len(gens[0]) != len(gens[1]):
        raise StructureError("generator lists must have equal length")

    # the checks read Gamma's action as integers over one denominator; a
    # generator pair (m1, m2) is the identity on h, so only blocks touching V move
    tg = gamma.transpose()
    an, ad = scaled_action(gamma)
    hx, hy = spx.hdim, spy.hdim
    a_hv, a_vh, a_vv = (an[:hy, hx:], ad), (an[hy:, :hx], ad), (an[hy:, hx:], ad)
    checks = [
        check_equal("leftinv", "transpose composed after the map is the source diagonal",
                    compose_realized(gamma, tg), diagonal_realized(spx)),
        check_equal("rightinv", "the map composed after its transpose is the target diagonal",
                    compose_realized(tg, gamma), diagonal_realized(spy)),
        check("hlines", "h-powers map to the matching h-powers",
              same((an[:, :hx], ad), (np.eye(spy.size, hx, dtype=int).astype(object), 1)),
              "some h-power moves off the line"),
        check("quadratic", "the pairing is preserved on the full basis",
              same(product((an.T, ad), spy.scaled_pairing, (an, ad)), spx.scaled_pairing),
              "pairing matrices differ"),
        check("equivariant", "the map commutes with every aligned group element",
              all(same(product(a_hv, m1), a_hv) and same(product(m2, a_vh), a_vh)
                  and same(product(a_vv, m1), product(m2, a_vv)) for m1, m2 in zip(*gens)),
              "group element does not intertwine"),
    ]
    return GammaCert(gamma, dx, dy, checks)


def verify_frobenius(cert: GammaCert):
    """Exact Frobenius-level checks for a fourfold-pair certificate.

    Transports the diagonal and the small diagonal through the map and
    compares against the target classes; the small diagonal is checked twice,
    once directly and once through the multiplicative decomposition with the
    defect polynomial, and the two routes must agree.  The certificate's own
    checks (``cert.checks``) are not repeated here.
    """
    if cert.kind != "fourfold-pair":
        raise StructureError("Frobenius verification applies to fourfold pairs")
    dx, dy = cert.source, cert.target
    spx, spy = dx.space, dy.space
    vd = dx.cfg.vd
    a = scaled_action(cert.gamma)

    got2 = diagonal_realized(spx).transport((a, a), (spy, spy))
    checks = [check_equal("diagonal", "the transported diagonal equals the target diagonal",
                          got2, diagonal_realized(spy))]

    delta_x = realize(CorrClass.small_diagonal(vd), dx.cfg)
    delta_y = realize(CorrClass.small_diagonal(dy.cfg.vd), dy.cfg)
    got3 = delta_x.transport((a, a, a), (spy, spy, spy))
    checks.append(check_equal("small-diagonal",
                              "the transported small diagonal equals the target small diagonal",
                              got3, delta_y))

    # decomposition route: diagonals decorated with h^4 plus the defect P of
    # the source, all realized on the target side
    recon = realize(hyperplane_part(vd) + defect_of(delta_x), dy.cfg)
    checks.append(check_equal(
        "small-diagonal-route",
        "the transported small diagonal equals the decomposition rebuilt on the target",
        got3, recon))
    checks.append(check_equal("route-agreement",
                              "decomposition route and direct target realization agree",
                              recon, delta_y))
    return checks


# --- Gamma between a cubic and a K3 -------------------------------------------


def build_gamma_cubic_k3(dx: FourfoldData, ds: SurfaceData, iso: Isometry) -> GammaCert:
    """Certify an isometry between the transcendental shadows of a fourfold
    and a K3 surface: the correspondence built from ``iso`` must compose with
    its transpose to the two transcendental projectors."""
    (t1, p1), t2 = _transcendental_bases(dx, ds, iso, "iso", "transcendental isometry")

    mn, md = iso.scaled_matrix  # the V-block T1^T G_T1^{-1} M^T T2 acts as iso on span(T1)
    vv = canonical(*product((t1.T, p1), solve_scaled(iso.source.scaled_gram, (mn.T, md)), t2))
    spx, sps = dx.space, ds.space
    gamma = RealizedClass._of((spx, sps), {("V", "V"): vv[0]}, vv[1])
    _, pi4_tr = build_refined_projectors(dx)
    pi2_tr = surface_ck(ds)[2]

    tg = gamma.transpose()
    checks = [
        check_equal("tr-leftinv",
                    "transpose after the map is the fourfold transcendental projector",
                    compose_realized(gamma, tg), pi4_tr),
        check_equal("tr-rightinv",
                    "the map after its transpose is the surface transcendental projector",
                    compose_realized(tg, gamma), pi2_tr),
    ]
    return GammaCert(gamma, dx, ds, checks, kind="cubic-k3")


# --- randomized instances ------------------------------------------------------


def random_unimodular(rng: random.Random, n: int):
    """(s, s^{-1}), integer arrays: a random product s of 2n elementary row
    operations (draws two indices per operation, and a sign when they differ),
    and its inverse built from the inverse column operations in reverse order."""
    m, m_inv = (np.eye(n, dtype=int).astype(object) for _ in range(2))
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice((-1, 1))
            m[i] = m[i] + m[j] * c
            m_inv[:, j] = m_inv[:, j] - m_inv[:, i] * c
    return m, m_inv


def random_diag_gram(rng: random.Random, n: int) -> np.ndarray:
    """A random nondegenerate diagonal Gram matrix with entries in
    {1, 2, 3, -1, -2} (one draw per entry)."""
    g = eye(n)
    for i in range(n):
        g[i, i] = QQ(rng.choice((1, 1, 2, 3, -1, -2)))
    return g


def _conjugation_iso(src, tgt, s_inv) -> Isometry:
    """The transcendental isometry that ``s_inv`` induces from ``src`` to its
    conjugate ``tgt``, in canonical transcendental coordinates."""
    (r1, p1), t1 = src.transcendental_scaled()
    (r2, p2), t2 = tgt.transcendental_scaled()
    return Isometry.from_scaled(t1, t2, solve_scaled((r2.T, p2), (np.dot(s_inv, r1.T), p1)))


def random_fourfold_pair(seed: int, rank: int = 6):
    """A deterministic random pair of fourfold data sets with matching
    algebraic classes, plus a compatible transcendental isometry.

    The target is the source conjugated by a known unimodular change of
    basis, so every certificate identity is constructively satisfiable; the
    group is a sign-flip group on transcendental coordinates, conjugated
    along (:meth:`GroupAction.conjugated`).  Built on integers.
    """
    rng = random.Random(seed)
    alg_rank = rng.randrange(0, 4)
    if alg_rank > rank - 2:
        raise StructureError("algebraic rank too large for the chosen rank")
    prim1 = QuadSpace(random_diag_gram(rng, rank))
    unit = np.eye(rank, dtype=int).astype(object)
    flips = unit.copy()
    fixed_t = list(range(alg_rank, rank))
    for i in range(alg_rank, rank):
        if rng.random() < 0.5:
            flips[i, i] = -1
            fixed_t.remove(i)
    group1 = GroupAction.build(prim1, [flips])

    s, s_inv = random_unimodular(rng, rank)
    group2 = group1.conjugated(s, s_inv)
    dx = FourfoldData(RealizationConfig(prim=prim1), tuple(unit[:alg_rank]), group1)
    dy = FourfoldData(RealizationConfig(prim=group2.space), tuple(s_inv[:, :alg_rank].T), group2)

    iso_tr = _conjugation_iso(dx, dy, s_inv)
    # optionally precompose with a reflection in a group-fixed transcendental
    # direction, so the certified map is not bare conjugation
    if fixed_t and rng.random() < 0.7:
        w = np.zeros(iso_tr.source.dim, dtype=int).astype(object)
        w[rng.choice(fixed_t) - alg_rank] = 1
        iso_tr = iso_tr.compose(Isometry.reflection(iso_tr.source, w))
    return dx, dy, iso_tr


def random_cubic_k3_pair(seed: int, rank: int = 6):
    """A fourfold datum and a K3 datum with matched transcendental shadows,
    related by a known unimodular conjugation."""
    rng = random.Random(seed)
    prim = QuadSpace(random_diag_gram(rng, rank))
    dx = FourfoldData(RealizationConfig(prim=prim))
    s, s_inv = random_unimodular(rng, rank)
    ds = SurfaceData(VarietyData.k3(), prim.restrict_scaled((s.T, 1)))
    return dx, ds, _conjugation_iso(dx, ds, s_inv)
