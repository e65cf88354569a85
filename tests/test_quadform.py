"""Quadratic spaces, isometries, finite group actions, and the equivariant
extension theorem, including a randomized property run.  Isometry checks and
group searches run on scaled integer pairs, and the Witt extension's
Gram-Schmidt and reflections on integer rows; they are compared with the
``Fraction`` routes they replaced (``fraction_oracle``) on groups conjugated
into entries with non-unit denominators and on the witt suite's instances."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle

from cubicmotives.errors import DomainError, StructureError
from cubicmotives import quadform
from cubicmotives.linalg import (dot, eye, inverse, kernel_basis, mat_eq, qmat, qvec, rank,
                                 scaled, solve, zeros)
from cubicmotives.motiveiso import random_unimodular
from cubicmotives.quadform import (GroupAction, Isometry, QuadSpace, WittResult,
                                   aligned_elements, equivariant_witt, reflect_to,
                                   _orthogonalize)
from cubicmotives.rationals import QQ
from cubicmotives.suites import _random_witt_instance


def diag_space(*entries) -> QuadSpace:
    g = zeros(len(entries), len(entries))
    for i, e in enumerate(entries):
        g[i, i] = QQ(e)
    return QuadSpace(g)


def test_quadspace_basics():
    v = diag_space(1, -1, 2)
    assert v.dim == 3
    x, y = qvec([1, 2, 0]), qvec([0, 1, 3])
    assert v.bilinear(x, y) == QQ(-2)
    assert v.q(x) == QQ(-3)
    assert v.is_nondegenerate()
    with pytest.raises(StructureError):
        QuadSpace(zeros(2, 3))
    with pytest.raises(StructureError):
        QuadSpace(qmat([[QQ(0), QQ(1)], [QQ(2), QQ(0)]]))


def test_restrict_complement_radical():
    v = diag_space(1, -1, 2, 3)
    w = [qvec([1, 0, 0, 0]), qvec([0, 0, 1, 0])]
    r = v.restrict(w)
    assert list(np.diag(r.gram)) == [QQ(1), QQ(2)]
    comp = v.orthogonal_complement(w)
    assert len(comp) == 2
    for c in comp:
        for x in w:
            assert v.bilinear(c, x) == 0
    degenerate = QuadSpace(qmat([[QQ(1), QQ(0)], [QQ(0), QQ(0)]]))
    assert not degenerate.is_nondegenerate()
    rad = kernel_basis(degenerate.gram)
    assert len(rad) == 1 and degenerate.q(rad[0]) == 0


def test_isometry_verify_and_algebra():
    v = diag_space(1, -1)
    swap = Isometry(v, v, qmat([[QQ(0), QQ(1)], [QQ(1), QQ(0)]]))
    assert not swap.verify()  # swapping a +1 and a -1 axis is not an isometry
    with pytest.raises(DomainError):
        swap.require_valid("swap")
    flip = Isometry(v, v, qmat([[QQ(-1), QQ(0)], [QQ(0), QQ(1)]]))
    assert flip.verify()
    assert flip.compose(flip) == Isometry.identity(v) or mat_eq(
        flip.compose(flip).matrix, eye(2))
    assert mat_eq(flip.inverse().matrix, flip.matrix)


def test_reflection_properties():
    v = diag_space(2, 3, -1)
    u = qvec([1, 1, 0])
    r = Isometry.reflection(v, u)
    assert r.verify()
    assert mat_eq(r(u), -u)
    perp = qvec([3, -2, 0])  # orthogonal to u
    assert v.bilinear(u, perp) == 0
    assert mat_eq(r(perp), perp)
    assert mat_eq(r.compose(r).matrix, eye(3))
    with pytest.raises(DomainError):
        Isometry.reflection(diag_space(1, -1), qvec([1, 1]))


def test_reflect_to_direct_branch():
    v = diag_space(1, 1)
    iso = reflect_to(v, qvec([1, 0]), qvec([0, 1]))
    assert iso.verify()
    assert mat_eq(iso(qvec([1, 0])), qvec([0, 1]))


def test_reflect_to_isotropic_difference_branch():
    # q(x) = q(y) = 1 with x - y isotropic: forces the two-reflection route
    v = diag_space(1, -1, 1)
    x, y = qvec([1, 0, 0]), qvec([1, 1, 1])
    assert v.q(x) == v.q(y) == QQ(1)
    assert v.q(x - y) == 0
    iso = reflect_to(v, x, y)
    assert iso.verify()
    assert mat_eq(iso(x), y)


def test_reflect_to_errors():
    v = diag_space(1, -1)
    with pytest.raises(DomainError, match="anisotropic"):
        reflect_to(v, qvec([1, 1]), qvec([1, 1]))  # isotropic endpoints
    with pytest.raises(DomainError, match="same length"):
        reflect_to(diag_space(1, 1), qvec([1, 0]), qvec([0, 2]))  # norms 1 vs 4


def test_group_closure_and_order():
    v = diag_space(1, 2, 3)
    g1 = qmat([[QQ(-1), QQ(0), QQ(0)], [QQ(0), QQ(1), QQ(0)], [QQ(0), QQ(0), QQ(1)]])
    g2 = qmat([[QQ(1), QQ(0), QQ(0)], [QQ(0), QQ(-1), QQ(0)], [QQ(0), QQ(0), QQ(1)]])
    grp = GroupAction.build(v, [g1, g2])
    assert grp.order == 4
    assert grp.fixes(qvec([0, 0, 5]))
    assert not grp.fixes(qvec([1, 0, 0]))
    with pytest.raises(DomainError):
        GroupAction.build(v, [qmat([[QQ(2), QQ(0), QQ(0)],
                                    [QQ(0), QQ(1), QQ(0)],
                                    [QQ(0), QQ(0), QQ(1)]])])


def test_group_closure_cap():
    # an infinite-order isometry of the hyperbolic plane must be refused
    hyp = QuadSpace(qmat([[QQ(0), QQ(1)], [QQ(1), QQ(0)]]))
    boost = qmat([[QQ(2), QQ(0)], [QQ(0), QQ(1, 2)]])
    with pytest.raises(DomainError, match="not verifiably finite"):
        GroupAction.build(hyp, [boost], cap=64)


def test_aligned_elements():
    v1 = diag_space(1, 1)
    rot = qmat([[QQ(0), QQ(-1)], [QQ(1), QQ(0)]])
    s = qmat([[QQ(1), QQ(1)], [QQ(0), QQ(1)]])
    v2 = QuadSpace(s.T.dot(v1.gram).dot(s))
    g1 = GroupAction.build(v1, [rot])
    g2 = GroupAction.build(v2, [inverse(s).dot(rot).dot(s)])
    pairs = aligned_elements(g1, g2)
    assert len(pairs) == 4
    for m1, m2 in pairs:
        assert mat_eq(inverse(s).dot(m1).dot(s), m2)
    # same generator count, incompatible relations: order 2 vs order 4, and
    # order 4 onto order 2 (a homomorphism, but not a bijection)
    flip = GroupAction.build(v1, [qmat([[QQ(-1), QQ(0)], [QQ(0), QQ(-1)]])])
    quarter = GroupAction.build(v1, [rot])
    for a, b in ((flip, quarter), (quarter, flip)):
        with pytest.raises(DomainError, match="not aligned"):
            aligned_elements(a, b)


def test_equivariant_transport():
    v = diag_space(1, 1, -3)
    g = qmat([[QQ(0), QQ(1), QQ(0)], [QQ(1), QQ(0), QQ(0)], [QQ(0), QQ(0), QQ(1)]])
    grp = GroupAction.build(v, [g])
    x, y = qvec([1, 1, 0]), qvec([-1, -1, 0])  # both fixed, same norm
    assert grp.fixes(x) and grp.fixes(y)
    # reflections in G-fixed vectors commute with G
    iso = reflect_to(v, x, y)
    assert iso.verify()
    assert mat_eq(iso(x), y)
    for m in oracle.group_closure(v.gram, grp.generators):
        assert mat_eq(iso.matrix.dot(m), m.dot(iso.matrix))


# --------------------------------------------------------------------------
# equivariant extension: randomized property run


def _random_instance(rng):
    """A sign-flip action on a diagonal space, a fixed subspace, a conjugated
    copy, and a global equivariant isometry that ignores the subspace."""
    n = rng.randint(2, 6)
    v1 = diag_space(*[rng.choice((1, 1, 2, 3, -1, -2)) for _ in range(n)])
    wdim = min(rng.choice((0, 1, 1, 2)), n - 1)
    gens1 = []
    for _ in range(rng.randint(0, 3)):
        g = eye(n)
        for i in range(wdim, n):
            if rng.random() < 0.5:
                g[i, i] = QQ(-1)
        gens1.append(g)
    group1 = GroupAction.build(v1, gens1)
    fixed = [i for i in range(n) if all(g[i, i] == 1 for g in gens1)]
    w1 = [eye(n)[i].copy() for i in fixed[:wdim]]

    s = eye(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            s[i] = s[i] + s[j] * QQ(rng.choice((-1, 1)))
    s_inv = inverse(s)
    v2 = QuadSpace(s.T.dot(v1.gram).dot(s))
    group2 = GroupAction.build(v2, [s_inv.dot(g).dot(s) for g in gens1])
    w2 = [s_inv.dot(w) for w in w1]

    phi_mat = s_inv
    if fixed and rng.random() < 0.8:
        f = zeros(n)
        for i in fixed:
            f[i] = QQ(rng.randint(-2, 2))
        if v1.q(f) != 0:
            phi_mat = s_inv.dot(Isometry.reflection(v1, f).matrix)
    phi_v = Isometry(v1, v2, phi_mat)
    psi_w = Isometry(v1.restrict(w1), v2.restrict(w2), eye(len(w1)))
    return group1, w1, group2, w2, phi_v, psi_w


def test_equivariant_witt_randomized():
    rng = random.Random(20260814)
    for _ in range(60):
        group1, w1, group2, w2, phi_v, psi_w = _random_instance(rng)
        wr = equivariant_witt(group1, w1, group2, w2, phi_v, psi_w)
        assert isinstance(wr, WittResult)
        m = wr.full.matrix
        assert wr.full.verify()
        for k, w in enumerate(w1):
            assert mat_eq(m.dot(w), w2[k])  # psi_W is the identity matrix here
        for m1, m2 in aligned_elements(group1, group2):
            assert mat_eq(m.dot(m1), m2.dot(m))
        assert wr.restriction.verify()
        assert len(wr.u1_basis) == group1.space.dim - len(w1)


def test_equivariant_witt_nontrivial_prescription():
    # prescribe a sign change on W; the extension must follow it
    v = diag_space(1, 1, -2)
    grp = GroupAction.trivial(v)
    w = [qvec([1, 0, 0])]
    psi = Isometry(v.restrict(w), v.restrict(w), qmat([[QQ(-1)]]))
    wr = equivariant_witt(grp, w, grp, w, Isometry.identity(v), psi)
    assert mat_eq(wr.full.matrix.dot(w[0]), -w[0])
    assert wr.full.verify()


def test_orthogonalize_keeps_both_vectors_of_an_isotropic_pair():
    # both inputs are isotropic, so the pivot is their sum; the second input
    # must stay behind and be projected, not dropped with the first
    v = diag_space(1, -1)
    vecs = [qvec([1, 1]), qvec([1, -1])]
    basis = _orthogonalize(v, scaled(np.stack(vecs))[0])
    assert len(basis) == 2
    assert v.bilinear(basis[0], basis[1]) == 0
    assert all(v.q(b) != 0 for b in basis)
    for b in basis:
        c = solve(np.stack(vecs, axis=1), b)  # raises unless b is in the span
        assert mat_eq(b, vecs[0] * c[0] + vecs[1] * c[1])


def test_equivariant_witt_prescription_on_isotropic_basis():
    # W is spanned by two isotropic vectors of diag(2, -2, 2, -2, -1), the
    # second side is a unimodular conjugate, and phi_V moves W: the extension
    # must still carry each basis vector of W to its prescribed image
    v1 = diag_space(2, -2, 2, -2, -1)
    gens1 = [qmat(np.diag(d).tolist())
             for d in ([1, 1, -1, -1, -1], [1, 1, 1, 1, -1], [1, 1, 1, 1, 1])]
    w1 = [qvec([-1, -1, 0, 0, 0]), qvec([-1, 1, 0, 0, 0])]
    v2 = QuadSpace(qmat([[-1, -3, 7, 6, 1], [-3, -3, 7, 6, 1], [7, 7, -23, -18, -3],
                         [6, 6, -18, -14, -2], [1, 1, -3, -2, -1]]))
    gens2 = [qmat([[1, 0, 0, 0, 0], [0, 1, -4, -4, 0], [0, 0, -1, 0, 0],
                   [0, 0, 0, -1, 0], [2, 2, -4, -4, -1]]),
             qmat([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                   [0, 0, 0, 1, 0], [2, 2, -6, -4, -1]]),
             eye(5)]
    w2 = [qvec([-1, 0, 0, 0, -1]), qvec([-1, 2, 0, 0, 1])]
    phi = qmat([[1, 0, 0, 0, 0], [-1, -1, -2, 2, 0], [0, 0, 1, 0, 0],
                [0, 0, -2, 1, 0], [0, -1, -1, 0, 1]])
    group1, group2 = GroupAction.build(v1, gens1), GroupAction.build(v2, gens2)
    wr = equivariant_witt(group1, w1, group2, w2, Isometry(v1, v2, phi),
                          Isometry(v1.restrict(w1), v2.restrict(w2), eye(2)))
    m = wr.full.matrix
    assert wr.full.verify()
    for a, b in zip(w1, w2):
        assert mat_eq(m.dot(a), b)
    for m1, m2 in aligned_elements(group1, group2):
        assert mat_eq(m.dot(m1), m2.dot(m))
    assert wr.restriction.verify()
    assert len(wr.u1_basis) == 3


def test_equivariant_witt_rejections():
    v = diag_space(1, -1)
    grp = GroupAction.trivial(v)
    ident = Isometry.identity(v)
    w_deg = [qvec([1, 1])]
    with pytest.raises(DomainError, match="unsupported: degenerate complement"):
        equivariant_witt(grp, w_deg, grp, w_deg, ident,
                         Isometry(v.restrict(w_deg), v.restrict(w_deg), eye(1)))
    # subspace not fixed by the group
    v3 = diag_space(1, 1, 2)
    g = eye(3)
    g[1, 1] = QQ(-1)
    grp3 = GroupAction.build(v3, [g])
    w_mov = [qvec([0, 1, 0])]
    with pytest.raises(DomainError, match="G-fixed"):
        equivariant_witt(grp3, w_mov, grp3, w_mov, Isometry.identity(v3),
                         Isometry(v3.restrict(w_mov), v3.restrict(w_mov), eye(1)))
    with pytest.raises(StructureError, match="equal dimension"):
        equivariant_witt(grp, [], grp, [qvec([1, 0])], ident,
                         Isometry(v.restrict([]), v.restrict([qvec([1, 0])]), zeros(1, 0)))
    # generator-pair equivariance aligns the groups only through an invertible
    # map: on the zero form, 0 intertwines the trivial group with {+-1}
    v0 = QuadSpace(zeros(1, 1))
    g1, g2 = GroupAction.build(v0, [eye(1)]), GroupAction.build(v0, [-eye(1)])
    with pytest.raises(DomainError, match="not invertible"):
        equivariant_witt(g1, [], g2, [], Isometry(v0, v0, zeros(1, 1)),
                         Isometry.identity(v0.restrict([])))
    with pytest.raises(DomainError, match="not aligned"):
        aligned_elements(g1, g2)


def test_cached_scaled_forms_cannot_go_stale():
    g = qmat([[1, QQ(1, 2)], [QQ(1, 2), -1]])
    m = qmat([[-1, -1], [0, 1]])  # the reflection in e1 for this form
    v = QuadSpace(g)
    iso = Isometry(v, v, m)
    x, y = qvec([1, 2]), qvec([3, QQ(1, 3)])
    assert iso.verify()
    before = v.bilinear(x, y)
    g[0, 0], m[0, 1] = QQ(5), QQ(7)  # the caller's arrays stay writable
    assert iso.verify() and v.bilinear(x, y) == before
    assert v.gram[0, 0] == 1 and iso.matrix[0, 1] == -1
    for arr in (v.gram, iso.matrix, v.restrict([x, y]).gram, iso.compose(iso).matrix):
        with pytest.raises(ValueError):
            arr[0, 0] = QQ(2)
    with pytest.raises(AttributeError):
        v.gram = g
    with pytest.raises(AttributeError):
        iso.matrix = m


# --------------------------------------------------------------------------
# scaled-pair group work against the Fraction oracle

QUAD = settings(max_examples=25, deadline=None)
fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def _signed_permutation(perm, signs):
    m = zeros(len(perm), len(perm))
    for i, (p, s) in enumerate(zip(perm, signs)):
        m[p, i] = QQ(s)
    return m


def _conjugate(gram, gens, s):
    s_inv = oracle.inverse(s)
    return np.dot(s.T, np.dot(gram, s)), [np.dot(s_inv, np.dot(g, s)) for g in gens]


def _change_of_basis(data, n):
    """A random invertible n x n matrix with small fractional entries."""
    s = qmat([[data.draw(fractions) for _ in range(n)] for _ in range(n)])
    while oracle.rank(s) < n:
        s = s + eye(n)
    return s


@st.composite
def signed_permutation_groups(draw, n):
    """(gram, generators): signed permutations of c * identity."""
    c = draw(st.sampled_from([QQ(1), QQ(-2), QQ(3, 2)]))
    gens = [_signed_permutation(draw(st.permutations(range(n))),
                                draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
            for _ in range(draw(st.integers(1, 2)))]
    return eye(n) * c, gens


@QUAD
@given(st.data())
def test_verify_and_closure_match_oracle(data):
    n = data.draw(st.integers(1, 3))
    s = _change_of_basis(data, n)
    base, base_gens = data.draw(signed_permutation_groups(n))
    gram, gens = _conjugate(base, base_gens, s)  # entries with non-unit denominators
    noise = qmat([[data.draw(fractions) for _ in range(n)] for _ in range(n)])
    for m, src, tgt in [(g, gram, gram) for g in gens] + [(gens[0] + noise, gram, gram),
                                                          (s, gram, base), (s + noise, gram, base)]:
        got = Isometry(QuadSpace(src), QuadSpace(tgt), m).verify()
        assert got == oracle.isometry_verify(m, src, tgt)
    group, want = GroupAction.build(QuadSpace(gram), gens), oracle.group_closure(gram, gens)
    got = [m for m, _ in aligned_elements(group, group)]
    assert group.order == len(got) == len(want)
    assert all(mat_eq(a, b) for a, b in zip(got, want))


@QUAD
@given(st.data())
def test_aligned_elements_match_oracle(data):
    n = data.draw(st.integers(1, 3))
    s1, s2 = _change_of_basis(data, n), _change_of_basis(data, n)
    base, base_gens = data.draw(signed_permutation_groups(n))
    gram1, gens1 = _conjugate(base, base_gens, s1)
    gram2, gens2 = _conjugate(base, base_gens, s2)
    g1 = GroupAction.build(QuadSpace(gram1), gens1)
    # conjugate generators are aligned; any other elements of the second group
    # as generators may or may not be, and both routes must agree
    if data.draw(st.sampled_from([True, True, False])):
        elements = oracle.group_closure(gram2, gens2)
        gens2 = [data.draw(st.sampled_from(elements)) for _ in gens1]
    g2 = GroupAction.build(QuadSpace(gram2), gens2)
    try:
        want = oracle.aligned_elements(gram1, gens1, gram2, gens2)
    except DomainError as e:
        with pytest.raises(DomainError, match=str(e)):
            aligned_elements(g1, g2)
        return
    got = aligned_elements(g1, g2)
    assert len(got) == len(want)
    assert all(mat_eq(a1, b1) and mat_eq(a2, b2) for (a1, a2), (b1, b2) in zip(got, want))


def test_non_aligned_conjugated_actions_are_rejected():
    # order 2 against order 4 after conjugation into non-integral entries
    rot = qmat([[0, -1], [1, 0]])
    s = qmat([[QQ(1, 2), QQ(1, 3)], [0, QQ(2, 5)]])
    gram1, (flip,) = _conjugate(eye(2), [-eye(2)], s)
    gram2, (quarter,) = _conjugate(eye(2), [rot], s)
    assert any(x.denominator > 1 for x in list(gram2.flat) + list(quarter.flat))
    g1, g2 = GroupAction.build(QuadSpace(gram1), [flip]), GroupAction.build(QuadSpace(gram2), [quarter])
    with pytest.raises(DomainError, match="not aligned"):
        aligned_elements(g1, g2)
    with pytest.raises(DomainError, match="not aligned"):
        oracle.aligned_elements(gram1, [flip], gram2, [quarter])


# --------------------------------------------------------------------------
# the Witt complement on scaled pairs, and the witt suite's integer instances


def test_witt_complement_matches_fraction_route():
    rng = random.Random(7)
    for i in range(60):
        group1, w1, group2, w2, phi_v, psi_w = _random_witt_instance(rng)
        wr = equivariant_witt(group1, w1, group2, w2, phi_v, psi_w)
        v1, v2 = group1.space, group2.space
        u1, g1 = oracle.transcendental(v1, w1)
        u2, g2 = oracle.transcendental(v2, w2)
        for got, want in ((wr.u1_basis, u1), (wr.u2_basis, u2)):
            assert len(got) == len(want) and all(mat_eq(a, b) for a, b in zip(got, want)), i
            assert all(type(x) is QQ for v in got for x in v)
        coords = (oracle.solve(np.stack(u2, axis=1), dot(wr.full.matrix, np.stack(u1, axis=1)))
                  if u1 else zeros(0, 0))
        assert mat_eq(wr.restriction.matrix, coords), i
        assert mat_eq(wr.restriction.source.gram, g1) and mat_eq(wr.restriction.target.gram, g2)


def test_random_witt_instance_matches_fraction_route():
    for seed in (0, 5):  # the witt suite's stream at seed 0, and one more
        rng, ref = random.Random(seed), random.Random(seed)
        for i in range(200 if seed == 0 else 50):
            group1, w1, group2, w2, phi_v, psi_w = _random_witt_instance(rng)
            g1, gens1, want_w1, g2, gens2, want_w2, phi, psi = oracle.random_witt_instance(ref)
            assert rng.getstate() == ref.getstate(), (seed, i)
            assert mat_eq(group1.space.gram, g1) and mat_eq(group2.space.gram, g2)
            assert phi_v.source is group1.space and phi_v.target is group2.space
            assert mat_eq(phi_v.matrix, phi) and mat_eq(psi_w.matrix, psi)
            w = np.stack(want_w1) if want_w1 else zeros(0, len(g1))
            assert mat_eq(psi_w.source.gram, dot(w, g1, w.T))
            for got, want in ((group1.generators, gens1), (group2.generators, gens2),
                              (w1, want_w1), (w2, want_w2)):
                assert len(got) == len(want), (seed, i)
                assert all(mat_eq(a, b) for a, b in zip(got, want)), (seed, i)
                assert all(type(x) is QQ for a in got for x in a.flat)
            pairs = aligned_elements(group1, group2)
            for k, (group, gram, gens) in enumerate(((group1, g1, gens1), (group2, g2, gens2))):
                want_elements = oracle.group_closure(gram, gens)
                assert group.order == len(pairs) == len(want_elements)
                assert all(mat_eq(p[k], b) for p, b in zip(pairs, want_elements))


def test_group_action_boxes_once_on_read():
    v = diag_space(1, 2, -1)
    flip = np.diag([1, -1, 1]).astype(object)  # integers are exact arrays too
    grp = GroupAction.build(v, [flip])
    assert [f.name for f in dataclasses.fields(grp)] == ["space", "scaled_generators", "order"]
    assert "generators" not in grp.__dict__
    (gen,) = grp.generators
    assert mat_eq(gen, flip) and all(type(x) is QQ for x in gen.flat)
    with pytest.raises(ValueError):
        gen[0, 0] = QQ(2)
    assert grp.generators is grp.generators
    assert grp.order == 2 == len(oracle.group_closure(v.gram, [flip]))


# --------------------------------------------------------------------------
# the Witt extension on integer rows against the Fraction-vector route


def _same_line(row, vec) -> bool:
    return rank(np.stack([row, vec])) == 1 and any(x != 0 for x in row)


def test_witt_extension_matches_fraction_route():
    rng = random.Random(0)  # the witt suite's 200 instances at seed 0
    for i in range(200):
        group1, w1, group2, w2, phi_v, psi_w = _random_witt_instance(rng)
        v1, v2 = group1.space, group2.space
        rows = scaled(np.stack(w1))[0] if w1 else np.zeros((0, v1.dim), dtype=object)
        basis, (want_basis, _) = _orthogonalize(v1, rows), oracle.orthogonalize(v1.gram, w1)
        assert len(basis) == len(want_basis), i
        assert all(_same_line(b, w) for b, w in zip(basis, want_basis)), i
        wr = equivariant_witt(group1, w1, group2, w2, phi_v, psi_w)
        want = oracle.witt_extension(v1.gram, w1, v2.gram, w2, phi_v.matrix, psi_w.matrix)
        assert mat_eq(wr.full.matrix, want), i


def test_orthogonalize_keeps_entries_small_on_a_dense_form():
    # dim W = 12 in a rank-14 non-diagonal form: the rows stay on the lines of
    # the Fraction route's, and per-row content division keeps them as short
    # (61 bits here, 60 for the Fraction route; about 690,000 bits without it)
    rng = random.Random(12)
    u, _ = random_unimodular(rng, 14)
    d = np.diag([rng.choice((1, 2, 3, -1, -2, 5)) for _ in range(14)]).astype(object)
    space = QuadSpace(qmat(np.dot(u.T, np.dot(d, u)).tolist()))
    g = space.scaled_gram[0]
    assert sum(g[i, j] != 0 for i in range(14) for j in range(14) if i != j) > 0
    rows = np.array([[rng.randint(-3, 3) for _ in range(14)] for _ in range(12)], dtype=object)
    assert rank(np.dot(np.dot(rows, g), rows.T)) == 12
    basis = _orthogonalize(space, rows)
    want, _ = oracle.orthogonalize(space.gram, list(qmat(rows.tolist())))
    assert len(basis) == 12 and all(_same_line(b, w) for b, w in zip(basis, want))
    assert max(abs(x).bit_length() for x in basis.flat) <= 128


def test_reflect_to_brings_rows_to_one_denominator():
    # x = (1/2, 0) and y = (0, 1) under diag(4, 1): equal lengths only over
    # a common denominator
    v = diag_space(4, 1)
    x, y = qvec([QQ(1, 2), 0]), qvec([0, 1])
    iso = reflect_to(v, x, y)
    assert mat_eq(iso(x), y) and iso.verify()
    assert mat_eq(iso.matrix, oracle.reflect_to(v.gram, x, y))
    x3, y3 = qvec([QQ(1, 3), QQ(2, 3), QQ(2, 3)]), qvec([QQ(3, 5), QQ(4, 5), 0])
    v3 = diag_space(1, 1, 1)
    assert v3.q(x3) == v3.q(y3)
    assert mat_eq(reflect_to(v3, x3, y3).matrix, oracle.reflect_to(v3.gram, x3, y3))


def test_equivariant_witt_raises_when_the_extension_misses_the_prescription(monkeypatch):
    v = diag_space(1, 1, -2)
    grp = GroupAction.trivial(v)
    w = [qvec([1, 0, 0])]
    psi = Isometry(v.restrict(w), v.restrict(w), qmat([[QQ(-1)]]))
    monkeypatch.setattr(quadform, "reflect_to", lambda space, x, y: Isometry.identity(space))
    with pytest.raises(DomainError, match="misses the prescribed image"):
        equivariant_witt(grp, w, grp, w, Isometry.identity(v), psi)


# --------------------------------------------------------------------------
# one stored form, one isometry test, one equivariance test, one conjugation


def test_forms_and_maps_read_back_as_fractions_whatever_they_were_made_from():
    v = QuadSpace(np.array([[2, 1], [1, 3]]))
    iso = Isometry(v, v, np.eye(2, dtype=int))
    for arr in (v.gram, iso.matrix, iso.inverse().matrix, v.restrict([qvec([1, 0])]).gram):
        assert all(type(x) is QQ for x in arr.flat)
        with pytest.raises(ValueError):
            arr.flat[0] = QQ(2)
    assert set(v.__dict__) == {"scaled_gram", "gram"}  # the view is cached once read
    assert set(iso.__dict__) == {"source", "target", "scaled_matrix", "matrix"}
    assert mat_eq(v.gram, qmat([[2, 1], [1, 3]])) and mat_eq(iso.matrix, eye(2))


def test_quadspace_rejects_entries_that_are_not_rationals():
    with pytest.raises(TypeError, match="float"):
        QuadSpace(np.array([[2.5, 0], [0, 1]], dtype=object))
    with pytest.raises(TypeError, match="str"):
        QuadSpace(np.array([["1", "0"], ["0", "1"]], dtype=object))


def test_group_build_checks_generators_with_isometry_verify(monkeypatch):
    v = diag_space(1, -1)
    calls = []
    verify = Isometry.verify
    monkeypatch.setattr(Isometry, "verify", lambda self: calls.append(self) or verify(self))
    GroupAction.build(v, [qmat([[-1, 0], [0, 1]]), qmat([[1, 0], [0, -1]])])
    assert len(calls) == 2
    with pytest.raises(DomainError, match="not an isometry"):
        GroupAction.build(v, [qmat([[0, 1], [1, 0]])])


def test_commutes_on_generator_pairs():
    v = diag_space(2, -2, -2)
    flip1, flip2 = (np.diag(d).astype(object) for d in ([1, -1, 1], [1, 1, -1]))
    g1, g2 = GroupAction.build(v, [flip1]), GroupAction.build(v, [flip2])
    swap = Isometry(v, v, qmat([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))
    assert swap.commutes(g1, g2) and swap.commutes(g2, g1)
    assert not swap.commutes(g1, g1) and not Isometry.identity(v).commutes(g1, g2)
    assert Isometry.identity(v).commutes(g1, g1)
    with pytest.raises(DomainError, match="swap is not equivariant"):
        swap.require_equivariant(g1, g1, "swap")
    with pytest.raises(StructureError, match="equal length"):
        swap.commutes(g1, GroupAction.trivial(v))


def test_conjugated_matches_a_fresh_build_of_the_conjugates():
    rng = random.Random(3)
    for n in range(2, 7):
        v = diag_space(*[rng.choice((1, 2, -1, 3)) for _ in range(n)])
        gens = [np.diag([rng.choice((1, -1)) for _ in range(n)]).astype(object) for _ in range(2)]
        group = GroupAction.build(v, gens)
        s, s_inv = random_unimodular(rng, n)
        got = group.conjugated(s, s_inv)
        want = GroupAction.build(QuadSpace(dot(s.T, v.gram, s)),
                                 [dot(s_inv, g, s) for g in gens])
        assert got.order == want.order == group.order
        assert np.array_equal(got.space.scaled_gram[0], want.space.scaled_gram[0])
        assert got.space.scaled_gram[1] == want.space.scaled_gram[1]
        for (m, d), (w, e) in zip(got.scaled_generators, want.scaled_generators, strict=True):
            assert np.array_equal(m, w) and d == e
        # s maps the new coordinates to the old: each conjugate acts as its original
        for (m, _), g in zip(got.scaled_generators, gens):
            assert (np.dot(s, m) == np.dot(g, s)).all()
