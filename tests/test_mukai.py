"""Extended Mukai classes: the pairing, the line-bundle table against an
independent Euler-characteristic oracle, the two orthogonal classes, and the
kernel correspondences and their actions."""

import pytest

from cubicmotives.errors import DomainError, StructureError
from cubicmotives.gradedring import TruncPoly, VarietyData, mukai_vector_line
from cubicmotives.linalg import qmat, qvec, rank, zeros
from cubicmotives.mukai import (MukaiSpace, corr_action, corr_to_poly, kernel_class,
                                kuznetsov_project, lambda_basis, mukai_pairing,
                                mutate_project, poly_to_corr)
from cubicmotives.quadform import QuadSpace
from cubicmotives.rationals import QQ
from cubicmotives.tautcorr import CorrClass


CUBIC = VarietyData.cubic_fourfold()

LAMBDA_1 = [QQ(3), QQ(5, 4), QQ(-7, 32), QQ(-77, 384), QQ(41, 2048)]
LAMBDA_2 = [QQ(-3), QQ(-1, 4), QQ(15, 32), QQ(1, 384), QQ(-153, 2048)]


def chi_line(t: int):
    """Euler characteristic of O(t) on a degree-3 hypersurface in P^5, by the
    two-term Hilbert polynomial written as falling factorials (valid for all
    integers, unlike a combinatorial binomial)."""
    a = (t + 5) * (t + 4) * (t + 3) * (t + 2) * (t + 1)
    b = (t + 2) * (t + 1) * t * (t - 1) * (t - 2)
    return QQ(a - b, 120)


def polyspace() -> MukaiSpace:
    return MukaiSpace.cubic(QuadSpace(zeros(0, 0)))


def test_chi_oracle_sanity():
    assert chi_line(0) == 1
    assert chi_line(-1) == 0
    assert chi_line(-2) == 0
    assert chi_line(-3) == 1  # the canonical-twist value; a naive binomial gets this wrong
    assert chi_line(1) == 6


def test_pairing_table_and_asymmetry():
    sp = polyspace()
    v = [sp.line_vector(i) for i in range(3)]
    table = [[sp.pairing(v[i], v[j]) for j in range(3)] for i in range(3)]
    assert table == [[QQ(1), QQ(6), QQ(21)], [QQ(0), QQ(1), QQ(6)], [QQ(0), QQ(0), QQ(1)]]
    assert sp.pairing(v[0], v[1]) != sp.pairing(v[1], v[0])


def test_pairing_matches_euler_oracle():
    sp = polyspace()
    for a in range(-2, 3):
        for b in range(-2, 3):
            got = sp.pairing(sp.line_vector(a), sp.line_vector(b))
            assert got == chi_line(b - a), (a, b)


def test_lambda_frozen_and_relations():
    l1p, l2p = lambda_basis(CUBIC)
    assert list(l1p.coeffs) == LAMBDA_1
    assert list(l2p.coeffs) == LAMBDA_2
    sp = polyspace()
    l1, l2 = sp.element(l1p), sp.element(l2p)
    assert sp.pairing(l1, l1) == QQ(-2)
    assert sp.pairing(l2, l2) == QQ(-2)
    assert sp.pairing(l1, l2) == QQ(1)
    assert sp.pairing(l2, l1) == QQ(1)
    for i in range(3):
        assert sp.pairing(sp.line_vector(i), l1) == 0
        assert sp.pairing(sp.line_vector(i), l2) == 0


def test_span_is_full():
    l1p, l2p = lambda_basis(CUBIC)
    rows = [list(mukai_vector_line(CUBIC, i).coeffs) for i in range(3)]
    rows += [list(l1p.coeffs), list(l2p.coeffs)]
    assert rank(qmat(rows)) == 5


def test_mutation_projection():
    sp = polyspace()
    l1p, l2p = lambda_basis(CUBIC)
    l1, l2 = sp.element(l1p), sp.element(l2p)
    for a in [l1, l2, l1 + l2.scale(QQ(-3, 2))]:
        out = kuznetsov_project(sp, a)
        assert out == a
    for k in range(5):
        a = sp.element(TruncPoly.h_power(CUBIC, k))
        out = kuznetsov_project(sp, a)
        # projection is idempotent and lands right-orthogonal to the lines
        assert kuznetsov_project(sp, out) == out
        for i in range(3):
            assert sp.pairing(sp.line_vector(i), out) == 0
    for i in range(3):
        assert kuznetsov_project(sp, sp.line_vector(i)).poly.is_zero()


def test_mutate_requires_exceptional():
    sp = polyspace()
    l1p, _ = lambda_basis(CUBIC)
    with pytest.raises(DomainError, match="<v, v> = 1"):
        mutate_project(sp, sp.element(l1p), sp.line_vector(0))


def test_poly_corr_roundtrip():
    a = TruncPoly.from_coeffs(CUBIC, [1, QQ(-1, 2), 0, 3, QQ(7, 5)])
    assert corr_to_poly(poly_to_corr(a)) == a


def test_left_kernel_action_is_projection():
    sp = polyspace()
    kl = kernel_class(CUBIC, "L")
    for k in range(5):
        a = sp.element(TruncPoly.h_power(CUBIC, k))
        assert corr_action(sp, kl, a) == kuznetsov_project(sp, a)
    l1p, l2p = lambda_basis(CUBIC)
    for p in (l1p, l2p):
        a = sp.element(p)
        assert corr_action(sp, kl, a) == a


def test_kernel_action_preserves_primitive_part():
    prim = QuadSpace(qmat([[QQ(2), QQ(0)], [QQ(0), QQ(-2)]]))
    sp = MukaiSpace.cubic(prim)
    kl = kernel_class(CUBIC, "L")
    a = sp.element(TruncPoly.h_power(CUBIC, 1), prim=qvec([1, QQ(3, 2)]))
    out = corr_action(sp, kl, a)
    # the only diagonal summand in the kernel has coefficient 1, so the
    # primitive component rides through unchanged
    assert list(out.prim) == [QQ(1), QQ(3, 2)]
    assert out.poly == kuznetsov_project(sp, a).poly


def test_right_kernel_action_properties():
    sp = polyspace()
    kr = kernel_class(CUBIC, "R")
    for k in range(5):
        a = sp.element(TruncPoly.h_power(CUBIC, k))
        out = corr_action(sp, kr, a)
        # idempotent, and the image pairs to zero against the dual lines
        assert corr_action(sp, kr, out) == out
        for i in (-3, -2, -1):
            assert sp.pairing(out, sp.line_vector(i)) == 0
    for i in (-3, -2, -1):
        assert corr_action(sp, kr, sp.line_vector(i)).poly.is_zero()


def test_kernel_term_count_and_sides():
    kl = kernel_class(CUBIC, "L")
    kr = kernel_class(CUBIC, "R")
    assert len(kl.terms) == 26
    assert len(kr.terms) == 26
    assert kl.terms[("D", 0, 1, 0)] == QQ(1)
    assert kr.terms[("D", 0, 1, 0)] == QQ(1)
    assert kl != kr
    with pytest.raises(StructureError):
        kernel_class(CUBIC, "middle")
    with pytest.raises(DomainError, match="cubic fourfolds"):
        kernel_class(VarietyData.k3(), "L")


def test_corr_action_input_validation():
    sp = polyspace()
    z3 = CorrClass.h_monomial(CUBIC, (1, 1, 2))
    with pytest.raises(StructureError):
        corr_action(sp, z3, sp.line_vector(0))


def test_pairing_includes_primitive_block():
    prim = QuadSpace(qmat([[QQ(2), QQ(0)], [QQ(0), QQ(-2)]]))
    sp = MukaiSpace.cubic(prim)
    a = sp.element(TruncPoly.one(CUBIC), prim=qvec([1, 1]))
    b = sp.element(TruncPoly.one(CUBIC), prim=qvec([1, -1]))
    base = mukai_pairing(a.poly, b.poly)
    assert sp.pairing(a, b) == base + QQ(4)  # (1,1) G (1,-1) = 2 + 2
