"""Refined middle projectors, certified isomorphism candidates between two
fourfold realizations, the dual-route small-diagonal verification with its
negative controls, and the fourfold-to-surface bridge."""

import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from dense_oracle import dense_transport
from cubicmotives.errors import DomainError, StructureError
from cubicmotives.gradedring import VarietyData
from cubicmotives.linalg import dot, eye, inverse, mat_eq, qmat, qvec, scaled, solve, zeros
from cubicmotives.motiveiso import (FourfoldData, GammaCert, SurfaceData, _alg_tensor_pair,
                                    _transcendental_bases, build_gamma,
                                    build_gamma_cubic_k3, build_refined_projectors,
                                    certify_gamma, random_cubic_k3_pair,
                                    random_fourfold_pair, random_unimodular, surface_ck,
                                    verify_frobenius)
from cubicmotives.quadform import (GroupAction, Isometry, QuadSpace, aligned_elements,
                                   equivariant_witt)
from cubicmotives.rationals import QQ
from cubicmotives.realization import (RealizationConfig, RealizedClass, action_matrix,
                                      compose_realized, diagonal_realized, realize)
from cubicmotives.tautcorr import CorrClass, ck_projectors


def diag_cfg(*entries) -> RealizationConfig:
    g = zeros(len(entries), len(entries))
    for i, e in enumerate(entries):
        g[i, i] = QQ(e)
    return RealizationConfig.with_gram(g)


# --------------------------------------------------------------------------
# data containers


def test_fourfold_data_validation():
    cfg = diag_cfg(2, 2, -1)
    FourfoldData(cfg)  # no algebraic part is fine
    alg = (qvec([1, 0, 0]),)
    d = FourfoldData(cfg, alg_basis=alg)
    t_basis, tq = d.transcendental()
    assert len(t_basis) == 2
    assert tq.is_nondegenerate()
    with pytest.raises(StructureError, match="wrong dimension"):
        FourfoldData(cfg, alg_basis=(qvec([1, 0]),))
    with pytest.raises(StructureError, match="anisotropic"):
        FourfoldData(diag_cfg(1, -1), alg_basis=(qvec([1, 1]),))
    with pytest.raises(StructureError, match="orthogonal"):
        FourfoldData(diag_cfg(1, 1), alg_basis=(qvec([1, 0]), qvec([1, 1])))


def test_fourfold_data_group_must_fix_algebraic():
    cfg = diag_cfg(2, 3, -1)
    flip0 = eye(3)
    flip0[0, 0] = QQ(-1)
    grp = GroupAction.build(cfg.space_quad if hasattr(cfg, "space_quad") else cfg.prim,
                            [flip0])
    with pytest.raises(StructureError, match="fix every algebraic"):
        FourfoldData(cfg, alg_basis=(qvec([1, 0, 0]),), group=grp)
    FourfoldData(cfg, alg_basis=(qvec([0, 1, 0]),), group=grp)


def test_surface_data_validation():
    g = qmat([[QQ(-2), QQ(1)], [QQ(1), QQ(-2)]])
    ds = SurfaceData(VarietyData.k3(), QuadSpace(g), ())
    assert ds.space.vd.kind == "k3"
    with pytest.raises(StructureError, match="K3"):
        SurfaceData(VarietyData.cubic_fourfold(), QuadSpace(g), ())


# --------------------------------------------------------------------------
# refined projectors


def test_refined_projectors_no_algebraic_part():
    d = FourfoldData(diag_cfg(2, -1, 3))
    pi4_alg, pi4_tr = build_refined_projectors(d)
    # the h^2 line is always algebraic, so with no extra classes the
    # algebraic projector is exactly that line and the transcendental one
    # coincides with the primitive projector
    assert set(pi4_alg.comps) == {(("h", 2), ("h", 2))}
    want_prim = realize(ck_projectors(VarietyData.cubic_fourfold())["pi4_prim"], d.cfg)
    assert pi4_tr == want_prim
    assert pi4_tr == (realize(ck_projectors(VarietyData.cubic_fourfold())["pi4"], d.cfg)
                      - pi4_alg)


def test_refined_projectors_split_the_middle():
    d = FourfoldData(diag_cfg(2, 2, -1, 3), alg_basis=(qvec([1, 0, 0, 0]),
                                                       qvec([0, 1, 0, 0])))
    pi4_alg, pi4_tr = build_refined_projectors(d)
    pi4 = realize(ck_projectors(VarietyData.cubic_fourfold())["pi4"], d.cfg)
    for p in (pi4_alg, pi4_tr):
        assert compose_realized(p, p) == p
        assert compose_realized(pi4, p) == p
        assert compose_realized(p, pi4) == p
    assert compose_realized(pi4_alg, pi4_tr).is_zero()
    assert compose_realized(pi4_tr, pi4_alg).is_zero()
    assert pi4_alg + pi4_tr == pi4


# --------------------------------------------------------------------------
# fourfold pair certificates


def test_self_pair_identity_gamma_is_diagonal():
    d = FourfoldData(diag_cfg(2, -2, 3))
    _, tq = d.transcendental()
    cert = build_gamma(d, d, Isometry.identity(tq))
    assert cert.passed()
    assert cert.gamma == diagonal_realized(d.space)
    fr = verify_frobenius(cert)
    assert all(c["passed"] for c in fr)


def test_random_pairs_pass_and_report_all_identities():
    for seed in (0, 1, 2, 3):
        dx, dy, iso = random_fourfold_pair(seed)
        cert = build_gamma(dx, dy, iso)
        assert cert.kind == "fourfold-pair"
        assert cert.passed(), [c for c in cert.checks if not c["passed"]]
        fr = verify_frobenius(cert)
        ids = {c["id"] for c in fr}
        assert {"diagonal", "small-diagonal", "small-diagonal-route",
                "route-agreement"} <= ids
        # the certificate's own checks are not repeated
        all_ids = [c["id"] for c in cert.checks + fr]
        assert len(all_ids) == len(set(all_ids))
        assert all(c["passed"] for c in fr), [c for c in fr if not c["passed"]]


def test_rank22_pair_passes():
    dx, dy, iso = random_fourfold_pair(17, rank=22)
    cert = build_gamma(dx, dy, iso)
    assert cert.passed()
    assert all(c["passed"] for c in verify_frobenius(cert))


def test_certificates_leave_no_reference_cycle_through_their_spaces():
    """With the cyclic collector off, the spaces of a built and verified
    certificate die with it: nothing kept on a Space points back at it."""
    gc.disable()
    try:
        spaces = []
        for seed, rank in ((3, 6), (4, 22)):
            dx, dy, iso = random_fourfold_pair(seed, rank=rank)
            cert = build_gamma(dx, dy, iso)
            checks = cert.checks + verify_frobenius(cert)
            passed = all(c["passed"] for c in checks)
            spaces += [weakref.ref(dx.space), weakref.ref(dy.space)]
            del dx, dy, iso, cert, checks
            assert passed, rank
        assert [ref() for ref in spaces] == [None] * 4
    finally:
        gc.enable()


def test_build_gamma_rejections():
    d1 = FourfoldData(diag_cfg(2, -2, 3), alg_basis=(qvec([1, 0, 0]),))
    d2 = FourfoldData(diag_cfg(2, -2, 3))
    _, t1 = d1.transcendental()
    _, t2 = d2.transcendental()
    with pytest.raises(DomainError, match="algebraic ranks differ"):
        build_gamma(d1, d2, Isometry.identity(t2))
    # algebraic classes of different norms cannot be matched
    d3 = FourfoldData(diag_cfg(3, -2, 3), alg_basis=(qvec([1, 0, 0]),))
    _, t3 = d3.transcendental()
    with pytest.raises(DomainError, match="match up isometrically"):
        build_gamma(d1, d3, Isometry(t1, t3, eye(2)))
    # transcendental shadows of different ranks are not Witt-equivalent here
    d4 = FourfoldData(diag_cfg(2, -2, 3, 5), alg_basis=(qvec([1, 0, 0, 0]),))
    _, t4 = d4.transcendental()
    with pytest.raises(DomainError, match="Witt-equivalent"):
        build_gamma(d1, d4, Isometry(t1, t4, zeros(3, 2)))


def test_build_gamma_equivariance_rejection():
    # a group on both sides, but an isometry that breaks the alignment
    g = diag_cfg(2, -2, -2)
    flip = eye(3)
    flip[1, 1] = QQ(-1)
    grp = GroupAction.build(g.prim, [flip])
    d1 = FourfoldData(g, group=grp)
    _, t1 = d1.transcendental()
    # swap the two (-2)-coordinates: an isometry, but it does not commute
    # with the flip of only the first of them
    m = qmat([[QQ(1), QQ(0), QQ(0)], [QQ(0), QQ(0), QQ(1)], [QQ(0), QQ(1), QQ(0)]])
    with pytest.raises(DomainError, match="not equivariant"):
        build_gamma(d1, d1, Isometry(t1, t1, m))


# --------------------------------------------------------------------------
# Gamma from phi_V against the Witt route it replaced


def _witt_route(dx, dy, iso_tr):
    """The replaced assembly: phi_V through the inverse of the stacked source
    bases, the equivariant Witt extension with W the algebraic span and psi_W
    the identity, then the V-block rebuilt from the restriction to the
    complements plus the algebraic tensor.  Returns (Gamma, phi_V, result)."""
    primx, primy = dx.cfg.prim, dy.cfg.prim
    _transcendental_bases(dx, dy, iso_tr, "iso_tr", "iso_tr")
    t1_basis, t2_basis = dx.transcendental()[0], dy.transcendental()[0]
    dom = list(dx.alg_basis) + list(t1_basis)
    img = list(dy.alg_basis) + list(dot(np.stack(t2_basis, axis=1), iso_tr.matrix).T)
    phi_v = Isometry(primx, primy, dot(np.stack(img, axis=1), inverse(np.stack(dom, axis=1))))
    alg_x, alg_y = list(dx.alg_basis), list(dy.alg_basis)
    w_iso = Isometry(primx.restrict(alg_x), primy.restrict(alg_y), eye(len(alg_x)))
    wr = equivariant_witt(dx.group_or_trivial(), alg_x, dy.group_or_trivial(), alg_y,
                          phi_v, w_iso)
    vv = oracle.transport_tensor(wr.u1_basis, wr.u2_basis, wr.restriction.source.gram,
                                 wr.restriction.matrix)
    if alg_x:
        vv = vv + _alg_tensor_pair(primx, alg_x, alg_y)
    comps = {(("h", 4 - i), ("h", i)): QQ(1, 3) for i in range(5)}
    comps[("V", "V")] = vv
    return RealizedClass((dx.space, dy.space), comps), phi_v, wr


@pytest.fixture(scope="module", params=[6, 22])
def fourfold_pairs(request):
    """``random_fourfold_pair`` seeds 0-19 at one rank, built once for the
    two Gamma oracles below."""
    return [random_fourfold_pair(seed, rank=request.param) for seed in range(20)]


def test_gamma_from_phi_v_matches_witt_route(fourfold_pairs):
    for seed, (dx, dy, iso) in enumerate(fourfold_pairs):
        got = build_gamma(dx, dy, iso).gamma
        want, phi_v, wr = _witt_route(dx, dy, iso)
        # the Witt pass is a no-op: phi_V already meets the prescription
        assert mat_eq(wr.full.matrix, phi_v.matrix)
        assert got.comps.keys() == want.comps.keys()
        for key, val in want.comps.items():
            assert mat_eq(got.comps[key], val), (seed, key)


# --------------------------------------------------------------------------
# Gamma through the public API on Gram matrices with denominators above 1


def _rational_conjugate(d, s):
    """The fourfold datum d in the basis of the columns of the rational
    matrix s: Gram s^T G s, classes and group conjugated along."""
    s_inv = inverse(s)
    prim = QuadSpace(dot(s.T, d.cfg.prim.gram, s))
    group = GroupAction.build(prim, [dot(s_inv, g, s) for g in d.group.generators])
    return FourfoldData(RealizationConfig(prim=prim), tuple(dot(s_inv, a) for a in d.alg_basis),
                        group), s_inv


@pytest.mark.parametrize("rank, examples", [(6, 20), (22, 10)])
def test_gamma_on_rational_conjugates_passes_every_check(rank, examples):
    fractional = [QQ(1, 2), QQ(-2, 3), QQ(3, 2), QQ(1, 3)]
    scales = st.lists(st.sampled_from([1, -1, 2] + fractional), min_size=rank, max_size=rank)

    @settings(max_examples=examples, deadline=None, database=None)
    @given(seed=st.integers(0, 2**16), basis_seed=st.integers(0, 2**16),
           scale=scales.filter(lambda c: any(x in fractional for x in c)))
    def check(seed, basis_seed, scale):
        dx, dy, iso = random_fourfold_pair(seed, rank=rank)
        u, _ = random_unimodular(random.Random(basis_seed), rank)
        s = dot(u, np.diag([QQ(c) for c in scale]).astype(object))  # not unimodular
        dz, s_inv = _rational_conjugate(dy, s)
        assume(any(x.denominator > 1 for x in dz.cfg.prim.gram.flat))
        (by, ty), (bz, tz) = dy.transcendental(), dz.transcendental()
        yz = Isometry(ty, tz, solve(np.stack(bz, axis=1), dot(s_inv, np.stack(by, axis=1))))
        cert = build_gamma(dx, dz, yz.compose(iso))
        assert cert.passed(), [c["id"] for c in cert.checks if not c["passed"]]
        fr = verify_frobenius(cert)
        assert all(c["passed"] for c in fr), [c["id"] for c in fr if not c["passed"]]

    check()


# --------------------------------------------------------------------------
# Gamma on scaled integer pairs against the Fraction assembly it replaced


def _same_class(got, want, tag):
    assert got.comps.keys() == want.comps.keys(), tag
    for key, val in want.comps.items():
        assert mat_eq(got.comps[key], val), (tag, key)
    assert got == want


def _same_transcendental(d, prim, alg):
    (rows, p), space = d.transcendental_scaled()
    basis, restricted = d.transcendental()
    want_basis, want_gram = oracle.transcendental(prim, alg)
    assert rows.shape == (len(want_basis), prim.dim) and p != 0
    assert len(basis) == len(want_basis)
    assert all(mat_eq(b, w) and mat_eq(dot(r, 1 / QQ(p)), w)
               for b, r, w in zip(basis, rows, want_basis))
    assert mat_eq(space.gram, want_gram) and mat_eq(restricted.gram, want_gram)


def test_gamma_matches_fraction_assembly(fourfold_pairs):
    for seed, (dx, dy, iso) in enumerate(fourfold_pairs):
        _same_class(build_gamma(dx, dy, iso).gamma, oracle.build_gamma_assembly(dx, dy, iso),
                    seed)
        for d in (dx, dy):
            _same_transcendental(d, d.cfg.prim, d.alg_basis)


def test_gamma_with_no_transcendental_part_matches_fraction_assembly():
    # the algebraic classes span V: the kernel is empty, Gamma is all algebraic
    d = FourfoldData(diag_cfg(2, -2, 3),
                     alg_basis=(qvec([1, 0, 0]), qvec([0, 1, 0]), qvec([0, 0, 1])))
    (rows, p), t = d.transcendental_scaled()
    assert rows.shape == (0, 3) and t.dim == 0
    cert = build_gamma(d, d, Isometry.identity(t))
    assert cert.passed()
    _same_class(cert.gamma, oracle.build_gamma_assembly(d, d, Isometry.identity(t)), "full")


def test_cubic_k3_gamma_matches_fraction_assembly():
    pairs = [random_cubic_k3_pair(seed) for seed in range(10)]
    pairs += [random_cubic_k3_pair(seed, rank=22) for seed in range(3)]
    # Neron-Severi and algebraic classes on both sides
    cfg = diag_cfg(2, -2, 3, -1)
    dx = FourfoldData(cfg, alg_basis=(qvec([1, 0, 0, 0]),))
    ds = SurfaceData(VarietyData.k3(), cfg.prim, ns_basis=(qvec([1, 0, 0, 0]),))
    pairs.append((dx, ds, Isometry.identity(dx.transcendental()[1])))
    for i, (dx, ds, iso) in enumerate(pairs):
        cert = build_gamma_cubic_k3(dx, ds, iso)
        assert cert.passed(), i
        _same_class(cert.gamma, oracle.build_gamma_cubic_k3_assembly(dx, ds, iso), i)
        _same_transcendental(ds, ds.prim2, ds.ns_basis)


def test_transcendental_bases_rejects_maps_off_the_canonical_coordinates():
    d = FourfoldData(diag_cfg(2, -2, 3), alg_basis=(qvec([1, 0, 0]),))
    _, t = d.transcendental()  # the form diag(-2, 3)
    swapped = QuadSpace(qmat([[3, 0], [0, -2]]))
    swap = qmat([[0, 1], [1, 0]])
    ds = SurfaceData(VarietyData.k3(), d.cfg.prim, ns_basis=(qvec([1, 0, 0]),))
    bad = [Isometry(t, t, zeros(3, 2)),  # wrong shape, right forms
           Isometry(swapped, t, swap),   # an isometry, from the wrong form
           Isometry(t, swapped, swap)]   # an isometry, to the wrong form
    for iso in bad:
        with pytest.raises(StructureError, match="iso_tr must map the canonical"):
            build_gamma(d, d, iso)
        with pytest.raises(StructureError, match="iso must map the canonical"):
            build_gamma_cubic_k3(d, ds, iso)


def _non_aligned_pair():
    """{+-I} against the rotations of order 4, conjugated into non-integral
    entries: two fourfold data on one 2-dimensional form, no algebraic part."""
    s = qmat([[QQ(1, 2), QQ(1, 3)], [0, QQ(2, 5)]])
    s_inv = inverse(s)
    cfg = RealizationConfig.with_gram(s.T.dot(s))
    flip = s_inv.dot(-eye(2)).dot(s)
    quarter = s_inv.dot(qmat([[0, -1], [1, 0]])).dot(s)
    return (FourfoldData(cfg, group=GroupAction.build(cfg.prim, [flip])),
            FourfoldData(cfg, group=GroupAction.build(cfg.prim, [quarter])))


def test_non_aligned_groups_are_rejected_by_both_routes():
    dx, dy = _non_aligned_pair()
    assert (dx.group.order, dy.group.order) == (2, 4)
    prim = dx.cfg.prim
    _, t1 = dx.transcendental()
    with pytest.raises(DomainError, match="not equivariant"):
        build_gamma(dx, dy, Isometry.identity(t1))
    with pytest.raises(DomainError):
        _witt_route(dx, dy, Isometry.identity(t1))
    with pytest.raises(DomainError, match="not aligned"):
        aligned_elements(dx.group, dy.group)
    empty = prim.restrict([])
    with pytest.raises(DomainError, match="not equivariant"):
        equivariant_witt(dx.group, [], dy.group, [], Isometry.identity(prim),
                         Isometry.identity(empty))


# --------------------------------------------------------------------------
# equivariance on generator pairs


def _all_elements_equivariant(gamma, dx, dy) -> bool:
    """The replaced route: Gamma's action matrix commutes with every aligned
    group element, each extended by the identity on the h-lines."""
    a = action_matrix(gamma)
    spx, spy = dx.space, dy.space
    for m1, m2 in aligned_elements(dx.group_or_trivial(), dy.group_or_trivial()):
        f1, f2 = eye(spx.size), eye(spy.size)
        f1[spx.hdim:, spx.hdim:] = m1
        f2[spy.hdim:, spy.hdim:] = m2
        if not mat_eq(a.dot(f1), f2.dot(a)):
            return False
    return True


def _reflected_gamma(seed):
    """A valid rank-6 Gamma with its V-block composed with the reflection in
    u = e_i + e_j, anisotropic and moved by the group's generator: still an
    isometry, but no longer equivariant."""
    dx, dy, iso = random_fourfold_pair(seed)
    gamma = build_gamma(dx, dy, iso).gamma
    prim, gen = dx.cfg.prim, dx.group.generators[0]
    i, j = next((i, j) for i in range(prim.dim) for j in range(i + 1, prim.dim)
                if gen[i, i] != gen[j, j] and prim.gram[i, i] + prim.gram[j, j] != 0)
    u = zeros(prim.dim)
    u[i] = u[j] = QQ(1)
    comps = dict(gamma.comps)
    comps[("V", "V")] = Isometry.reflection(prim, u).matrix.dot(comps[("V", "V")])
    return dx, dy, RealizedClass(gamma.spaces, comps)


def test_generator_pair_equivariance_matches_all_elements():
    for seed in range(10):
        dx, dy, iso = random_fourfold_pair(seed)
        cert = build_gamma(dx, dy, iso)
        verdict = next(c["passed"] for c in cert.checks if c["id"] == "equivariant")
        assert verdict is _all_elements_equivariant(cert.gamma, dx, dy) is True


def test_reflected_candidate_fails_equivariance_only():
    # seed 0's group moves no anisotropic e_i + e_j
    for seed in range(1, 10):
        dx, dy, bad = _reflected_gamma(seed)
        cert = certify_gamma(bad, dx, dy)
        assert _all_elements_equivariant(bad, dx, dy) is False
        failed = [c["id"] for c in cert.checks + verify_frobenius(cert) if not c["passed"]]
        assert failed == ["equivariant"]


@pytest.mark.parametrize("sig", [(("h", 2), "V"), ("V", ("h", 2))])
def test_mixed_blocks_follow_all_element_equivariance(sig):
    # a summand between an h-line and V makes only the V-h (first signature)
    # or only the h-V (second) block of the action nonzero, so that block's
    # own generator condition must decide the verdict
    dx, dy, iso = random_fourfold_pair(1)
    gamma = build_gamma(dx, dy, iso).gamma
    verdicts = []
    for k in range(dx.space.r):
        bad = RealizedClass(gamma.spaces, {**gamma.comps, sig: eye(dx.space.r)[k]})
        verdict = next(c["passed"] for c in certify_gamma(bad, dx, dy).checks
                       if c["id"] == "equivariant")
        assert verdict is _all_elements_equivariant(bad, dx, dy), k
        verdicts.append(verdict)
    assert not all(verdicts)


def test_certify_gamma_rejects_unequal_generator_lists():
    dx, dy, iso = random_fourfold_pair(1)
    gamma = build_gamma(dx, dy, iso).gamma
    with pytest.raises(StructureError, match="generator lists must have equal length"):
        certify_gamma(gamma, dx, FourfoldData(dy.cfg, dy.alg_basis))


# --------------------------------------------------------------------------
# negative controls


def _tampered_gamma(kind):
    """A rank-6 certificate pair and its Gamma with one h-line summand negated
    ("hflip"), or with the transcendental block negated in a sheared basis
    ("shear")."""
    dx, dy, iso = random_fourfold_pair(5)
    cert = build_gamma(dx, dy, iso)
    comps = dict(cert.gamma.comps)
    if kind == "hflip":
        comps[(("h", 1), ("h", 3))] = comps[(("h", 1), ("h", 3))] * QQ(-1)
    else:
        prim = dx.cfg.prim
        t_basis, _ = dx.transcendental()
        a_vv = cert.gamma.comps[("V", "V")].T.dot(prim.gram)
        cols = list(dx.alg_basis) + [t_basis[0], t_basis[0] + t_basis[1]] + list(t_basis[2:])
        p = np.stack(cols, axis=1)
        imgs = a_vv.dot(p)
        imgs[:, len(dx.alg_basis) + 1] = -imgs[:, len(dx.alg_basis) + 1]
        comps[("V", "V")] = inverse(prim.gram).dot(imgs.dot(inverse(p)).T)
    return dx, dy, RealizedClass(cert.gamma.spaces, comps)


def _failed_witnesses(checks):
    assert all(c["witness"] is None for c in checks if c["passed"])
    return {c["id"]: c["witness"] for c in checks if not c["passed"]}


def _certified(bad, dx, dy):
    """Every check of the full identity list on a candidate."""
    cert = certify_gamma(bad, dx, dy)
    return cert.checks + verify_frobenius(cert)


def test_corrupted_h_summand_fails_transport():
    dx, dy, bad = _tampered_gamma("hflip")
    fr = verify_frobenius(GammaCert(bad, dx, dy, []))
    failed = {c["id"] for c in fr if not c["passed"]}
    assert "small-diagonal" in failed
    assert _failed_witnesses(fr) == {
        "diagonal": "h^1xh^3: got -1/3, want 1/3",
        "small-diagonal": "h^1xh^3xh^4: got -1/9, want 1/9",
        "small-diagonal-route": "h^1xh^3xh^4: got -1/9, want 1/9",
    }
    assert set(_failed_witnesses(_certified(bad, dx, dy))) == {
        "leftinv", "rightinv", "hlines", "quadratic", "diagonal", "small-diagonal",
        "small-diagonal-route"}


def test_sheared_transcendental_flip_is_caught():
    dx, dy, bad = _tampered_gamma("shear")
    # no longer an isometry on the summand, so inversion fails...
    assert compose_realized(bad, bad.transpose()) != diagonal_realized(dx.space)
    # ...and the small-diagonal transport catches it too
    fr = verify_frobenius(GammaCert(bad, dx, dy, []))
    failed = {c["id"] for c in fr if not c["passed"]}
    assert "small-diagonal" in failed
    assert _failed_witnesses(fr) == {
        "diagonal": "VxV[2,2]: got -5/2, want -1/2",
        "small-diagonal": "VxVxh^4[2,2]: got -5/6, want -1/6",
        "small-diagonal-route": "VxVxh^4[2,2]: got -5/6, want -1/6",
    }
    assert set(_failed_witnesses(_certified(bad, dx, dy))) == {
        "leftinv", "rightinv", "quadratic", "diagonal", "small-diagonal",
        "small-diagonal-route"}


def test_tampered_gamma_transport_matches_dense_oracle():
    # a tampered Gamma breaks the certificate identities; the block transport
    # must still agree with the dense route on its action matrix
    for kind in ("hflip", "shear"):
        dx, dy, bad = _tampered_gamma(kind)
        a = action_matrix(bad)
        sa = scaled(a)
        spx, spy = dx.space, dy.space
        d = diagonal_realized(spx)
        assert d.transport((sa, sa), (spy, spy)) == dense_transport(d, (a, a), (spy, spy))
        delta = realize(CorrClass.small_diagonal(dx.cfg.vd), dx.cfg)
        assert delta.transport((sa, sa, sa), (spy,) * 3) == \
            dense_transport(delta, (a, a, a), (spy,) * 3)


def test_whole_summand_sign_flip_is_a_legitimate_alternative():
    # negating an entire orthogonal-coordinate row composes the candidate with
    # a reflection, which is again an isometry: every identity must still hold
    dx, dy, iso = random_fourfold_pair(5)
    cert = build_gamma(dx, dy, iso)
    vv = cert.gamma.comps[("V", "V")].copy()
    vv[0, :] = -vv[0, :]
    comps = dict(cert.gamma.comps)
    comps[("V", "V")] = vv
    alt = RealizedClass(cert.gamma.spaces, comps)
    fr = verify_frobenius(GammaCert(alt, dx, dy, []))
    assert all(c["passed"] for c in fr)


# --------------------------------------------------------------------------
# fourfold-to-surface bridge


def test_cubic_k3_toy_pair():
    g = qmat([[QQ(-2), QQ(1)], [QQ(1), QQ(-2)]])
    dx = FourfoldData(RealizationConfig.with_gram(g))
    ds = SurfaceData(VarietyData.k3(), QuadSpace(g.copy()), ())
    t1, t1q = dx.transcendental()
    t2, t2q = ds.transcendental()
    cert = build_gamma_cubic_k3(dx, ds, Isometry(t1q, t2q, eye(2)))
    assert cert.kind == "cubic-k3"
    assert cert.passed(), [c for c in cert.checks if not c["passed"]]
    assert {c["id"] for c in cert.checks} == {"tr-leftinv", "tr-rightinv"}


def test_cubic_k3_random_and_rank22():
    for seed in (0, 1, 7):
        dx, ds, iso = random_cubic_k3_pair(seed)
        assert build_gamma_cubic_k3(dx, ds, iso).passed()
    dx, ds, iso = random_cubic_k3_pair(42, rank=22)
    assert build_gamma_cubic_k3(dx, ds, iso).passed()


def test_cubic_k3_rank_mismatch_rejected():
    dx, _, _ = random_cubic_k3_pair(0, rank=6)
    _, ds, iso = random_cubic_k3_pair(1, rank=8)
    with pytest.raises(DomainError, match="Witt-equivalent"):
        build_gamma_cubic_k3(dx, ds, iso)


# --------------------------------------------------------------------------
# surface projectors


def test_surface_ck_decomposition():
    _, ds, _ = random_cubic_k3_pair(3)
    pis = surface_ck(ds)
    assert len(pis) == 4
    total = None
    for p in pis:
        assert compose_realized(p, p) == p
        total = p if total is None else total + p
    assert total == diagonal_realized(ds.space)
    for i, p in enumerate(pis):
        for j, q in enumerate(pis):
            if i != j:
                assert compose_realized(p, q).is_zero()


def test_surface_ck_with_picard_classes():
    # a surface with an extra algebraic curve class inside the summand
    g = zeros(3, 3)
    g[0, 0], g[1, 1], g[2, 2] = QQ(-2), QQ(-2), QQ(4)
    ds = SurfaceData(VarietyData.k3(), QuadSpace(g), (qvec([0, 0, 1]),))
    pi0, pi2_alg, pi2_tr, pi4 = surface_ck(ds)
    assert compose_realized(pi2_alg, pi2_alg) == pi2_alg
    assert compose_realized(pi2_tr, pi2_tr) == pi2_tr
    assert compose_realized(pi2_alg, pi2_tr).is_zero()
    # the transcendental projector has no content on the algebraic line
    vv = pi2_tr.comps[("V", "V")]
    assert all(vv[2, j] == 0 for j in range(3))
    assert all(vv[i, 2] == 0 for i in range(3))


# --------------------------------------------------------------------------
# randomized instances


def _unimodular_draws(rng, n):
    """The product of row operations alone, as drawn before the inverse came
    along: the same draws in the same order."""
    m = eye(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            m[i] = m[i] + m[j] * QQ(rng.choice((-1, 1)))
    return m


def test_random_unimodular_returns_its_inverse():
    for n in range(2, 23):
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            s, s_inv = random_unimodular(rng, n)
            assert mat_eq(dot(s, s_inv), eye(n)), (n, seed)
            assert mat_eq(s, _unimodular_draws(ref, n))
            assert rng.getstate() == ref.getstate()


# --------------------------------------------------------------------------
# random pairs built on integers against the Fraction-dot builders they replaced


def _same_pair(got, want, tag):
    """Field by field: the Grams (as stored), the algebraic bases, the group's
    generators (as stored) and order, and the transcendental isometry."""
    for a, b in zip(got[:2], want[:2]):
        pa, pb = (d.cfg.prim if isinstance(d, FourfoldData) else d.prim2 for d in (a, b))
        assert np.array_equal(pa.scaled_gram[0], pb.scaled_gram[0]), tag
        assert pa.scaled_gram[1] == pb.scaled_gram[1] and mat_eq(pa.gram, pb.gram), tag
        if isinstance(a, FourfoldData):
            assert len(a.alg_basis) == len(b.alg_basis), tag
            assert all(mat_eq(u, v) and all(type(x) is QQ for x in u)
                       for u, v in zip(a.alg_basis, b.alg_basis)), tag
            assert (a.group is None) == (b.group is None), tag
            if a.group is None:
                continue
            assert a.group.order == b.group.order, tag
            assert len(a.group.scaled_generators) == len(b.group.scaled_generators) == 1, tag
            for (m, d), (n, e) in zip(a.group.scaled_generators, b.group.scaled_generators):
                assert np.array_equal(m, n) and d == e, tag
            assert all(mat_eq(m, n) for m, n in zip(a.group.generators, b.group.generators))
    (ia, ib) = got[2], want[2]
    assert mat_eq(ia.matrix, ib.matrix), tag
    assert mat_eq(ia.source.gram, ib.source.gram) and mat_eq(ia.target.gram, ib.target.gram)


def test_random_fourfold_pair_matches_fraction_route():
    for seed in range(200):
        _same_pair(random_fourfold_pair(seed), oracle.random_fourfold_pair(seed), seed)


def test_random_fourfold_pair_matches_fraction_route_on_the_shared_pairs(fourfold_pairs):
    for seed, got in enumerate(fourfold_pairs):
        rank = got[0].cfg.prim.dim
        _same_pair(got, oracle.random_fourfold_pair(seed, rank=rank), (rank, seed))


def test_random_cubic_k3_pair_matches_fraction_route():
    for seed in range(200):
        _same_pair(random_cubic_k3_pair(seed), oracle.random_cubic_k3_pair(seed), seed)
    for seed in range(3):
        _same_pair(random_cubic_k3_pair(seed, rank=22),
                   oracle.random_cubic_k3_pair(seed, rank=22), (22, seed))
