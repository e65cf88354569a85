"""Truncated polynomial ring and characteristic-class pipeline.

The Chern coefficients are cross-checked against an independent binomial
convolution done with plain ``fractions.Fraction`` lists; the Todd and
square-root expansions are frozen values hand-derived from the standard
series once and kept here verbatim.
"""

from fractions import Fraction

import pytest

from cubicmotives.errors import DomainError, StructureError
from cubicmotives.gradedring import (TruncPoly, VarietyData, dual, integrate,
                                     mukai_vector_line, tangent_chern, todd_and_sqrt)
from cubicmotives.rationals import QQ


CUBIC = VarietyData.cubic_fourfold()

# frozen expansions (hand-derived from td = x/(1-e^{-x}) and the binomial
# series for the square root, then locked in)
TD_CUBIC = [QQ(1), QQ(3, 2), QQ(5, 4), QQ(3, 4), QQ(1, 3)]
SQRT_TD_CUBIC = [QQ(1), QQ(3, 4), QQ(11, 32), QQ(15, 128), QQ(121, 6144)]
V_LINE_1 = [QQ(1), QQ(7, 4), QQ(51, 32), QQ(385, 384), QQ(2921, 6144)]


def test_variety_constructors():
    assert (CUBIC.dim, CUBIC.ambient_dim, CUBIC.degree, CUBIC.kind) == (4, 5, 3, "hypersurface")
    k3 = VarietyData.k3()
    assert (k3.dim, k3.degree, k3.kind) == (2, 2, "k3")
    assert VarietyData.k3(4).degree == 4


def test_variety_validation():
    with pytest.raises(StructureError):
        VarietyData(dim=3, ambient_dim=5, degree=3)
    with pytest.raises(StructureError):
        VarietyData(dim=3, ambient_dim=4, degree=2, kind="k3")
    with pytest.raises(StructureError):
        VarietyData(dim=4, ambient_dim=5, degree=0)
    with pytest.raises(StructureError):
        VarietyData(dim=4, ambient_dim=5, degree=3, kind="abelian")


def test_truncpoly_arithmetic():
    a = TruncPoly.from_coeffs(CUBIC, [1, 1, 0, 0, 0])
    b = a * a * a * a * a  # (1+h)^5 truncated at h^4
    assert list(b.coeffs) == [QQ(1), QQ(5), QQ(10), QQ(10), QQ(5)]
    assert a + a == a.scale(2)
    assert (a - a).is_zero()
    h2 = TruncPoly.h_power(CUBIC, 2, 7)
    assert list(h2.coeffs) == [QQ(0), QQ(0), QQ(7), QQ(0), QQ(0)]
    # from_coeffs pads short lists; the raw constructor is strict
    assert TruncPoly.from_coeffs(CUBIC, [1, 2, 3]).coeffs[3:] == (QQ(0), QQ(0))
    with pytest.raises(StructureError):
        TruncPoly(CUBIC, (QQ(1), QQ(2), QQ(3)))


def test_truncpoly_exp_inverse_sqrt():
    e = TruncPoly.exp_h(CUBIC, QQ(2))
    assert list(e.coeffs) == [QQ(1), QQ(2), QQ(2), QQ(4, 3), QQ(2, 3)]
    u = TruncPoly.from_coeffs(CUBIC, [1, 3, -2, QQ(1, 2), 0])
    assert u * u.inverse() == TruncPoly.one(CUBIC)
    r = u.sqrt_unit()
    assert r * r == u
    with pytest.raises(DomainError):
        TruncPoly.from_coeffs(CUBIC, [0, 1, 0, 0, 0]).inverse()


def test_integrate_and_dual():
    assert integrate(TruncPoly.h_power(CUBIC, 4)) == QQ(3)
    assert integrate(TruncPoly.h_power(CUBIC, 2)) == QQ(0)
    assert integrate(TruncPoly.h_power(VarietyData.k3(), 2)) == QQ(2)
    a = TruncPoly.from_coeffs(CUBIC, [1, 2, 3, 4, 5])
    assert list(dual(a).coeffs) == [QQ(1), QQ(-2), QQ(3), QQ(-4), QQ(5)]
    assert dual(dual(a)) == a


def _chern_by_binomial_convolution():
    """Independent route: restrict (1+h)^6 from the ambient P^5 and divide by
    (1+3h), all in plain Fraction lists."""
    amb = [Fraction(1)] * 1
    one_plus_h = [Fraction(1), Fraction(1)]
    for _ in range(6):
        out = [Fraction(0)] * 5
        for i, x in enumerate(amb[:5]):
            for j, y in enumerate(one_plus_h):
                if i + j < 5:
                    out[i + j] += x * y
        amb = out
    # divide by 1 + 3h via the geometric series
    div = [Fraction(1)]
    for k in range(1, 5):
        div.append(div[-1] * -3)
    res = [Fraction(0)] * 5
    for i, x in enumerate(amb):
        for j, y in enumerate(div):
            if i + j < 5:
                res[i + j] += x * y
    return res


def test_tangent_chern_cubic_against_convolution():
    got = tangent_chern(CUBIC)
    oracle = _chern_by_binomial_convolution()
    assert [QQ(c.numerator, c.denominator) for c in oracle] == list(got.coeffs)
    assert list(got.coeffs) == [QQ(1), QQ(3), QQ(6), QQ(2), QQ(9)]
    assert integrate(got) == QQ(27)


def test_todd_and_sqrt_frozen():
    c = tangent_chern(CUBIC)
    td, rt = todd_and_sqrt(c)
    assert list(td.coeffs) == TD_CUBIC
    assert list(rt.coeffs) == SQRT_TD_CUBIC
    assert rt * rt == td
    assert integrate(td) == QQ(1)


def test_k3_classes():
    for deg in (2, 4):
        vd = VarietyData.k3(deg)
        c = tangent_chern(vd)
        td, rt = todd_and_sqrt(c)
        assert c.coeffs[1] == 0
        assert integrate(c) == QQ(24)
        assert integrate(td) == QQ(2)
        assert rt * rt == td


def test_mukai_vector_line():
    v0 = mukai_vector_line(CUBIC, 0)
    _, rt = todd_and_sqrt(tangent_chern(CUBIC))
    assert v0 == rt
    v1 = mukai_vector_line(CUBIC, 1)
    assert list(v1.coeffs) == V_LINE_1
    # twisting is multiplication by exp(i h)
    for i in (-2, 1, 3):
        assert mukai_vector_line(CUBIC, i) == rt * TruncPoly.exp_h(CUBIC, QQ(i))
