"""Tautological correspondence calculus: reduction rules against closed-form
values, the closed composition against the pull-intersect-push route, the
diagonal projectors, and the text form of monomials."""

import random

import pytest

from cubicmotives.errors import StructureError
from cubicmotives.gradedring import VarietyData
from cubicmotives.rationals import QQ
from cubicmotives.tautcorr import (CorrClass, ck_projectors, compose, diag_push,
                                   delta_push, intersect, monomial_str, pull, push,
                                   transpose)


CUBIC = VarietyData.cubic_fourfold()


def hmono(exps, coeff=1):
    return CorrClass.h_monomial(CUBIC, exps, coeff)


def test_hmono_validation_and_linear_structure():
    a = hmono((1, 2)) + hmono((1, 2), QQ(1, 2))
    assert a.terms == {("h", (1, 2)): QQ(3, 2)}
    assert (a - a).is_zero()
    assert hmono((5, 0)).is_zero()  # beyond the top power
    with pytest.raises(StructureError):
        CorrClass.h_monomial(CUBIC, (-1, 0))
    with pytest.raises(StructureError):
        CorrClass(CUBIC, 4, {})
    with pytest.raises(StructureError):
        hmono((1, 1)) + CorrClass.h_monomial(CUBIC, (1, 1, 1))


def test_diag_push_values():
    assert diag_push(CUBIC, 1) == {(1, 4): QQ(1, 3), (2, 3): QQ(1, 3),
                                   (3, 2): QQ(1, 3), (4, 1): QQ(1, 3)}
    assert diag_push(CUBIC, 4) == {(4, 4): QQ(1, 3)}
    assert delta_push(CUBIC, 4) == {(4, 4, 4): QQ(1, 9)}


def test_diagonal_times_h_exchanges_slots():
    d = CorrClass.diagonal(CUBIC)
    left = intersect(d, hmono((1, 0)))
    right = intersect(d, hmono((0, 1)))
    assert left == right
    assert left.terms == {("h", (i, 5 - i)): QQ(1, 3) for i in range(1, 5)}


def test_diagonal_self_intersection_is_euler_class():
    d = CorrClass.diagonal(CUBIC)
    assert intersect(d, d) == hmono((4, 4), 3)  # c_4 = 9 h^4, degree 27 total


def test_small_diagonal_facts():
    delta = CorrClass.small_diagonal(CUBIC)
    d01 = CorrClass.diagonal(CUBIC, n=3, slots=(0, 1))
    d02 = CorrClass.diagonal(CUBIC, n=3, slots=(0, 2))
    d12 = CorrClass.diagonal(CUBIC, n=3, slots=(1, 2))
    # two distinct large diagonals cut out the small one
    assert intersect(d01, d02) == delta
    assert intersect(d01, d12) == delta
    # against a third diagonal, the excess is the top Chern class
    assert intersect(delta, d01) == CorrClass.h_monomial(CUBIC, (4, 4, 4), 1)
    # decorations slide freely between the three slots
    for k in (1, 2):
        a = intersect(delta, CorrClass.h_monomial(CUBIC, (k, 0, 0)))
        b = intersect(delta, CorrClass.h_monomial(CUBIC, (0, k, 0)))
        c = intersect(delta, CorrClass.h_monomial(CUBIC, (0, 0, k)))
        assert a == b == c
    assert intersect(delta, delta).is_zero()


def test_push_and_pull():
    assert push(hmono((2, 4)), keep=(0,)) == CorrClass.h_monomial(CUBIC, (2,), 3)
    assert push(hmono((2, 3)), keep=(0,)).is_zero()
    assert push(CorrClass.diagonal(CUBIC), keep=(0,)) == CorrClass.h_monomial(CUBIC, (0,), 1)
    x = CorrClass.h_monomial(CUBIC, (3,), QQ(1, 2))
    lifted = pull(x, (1,), 2)
    assert lifted == hmono((0, 3), QQ(1, 2))


def test_transpose():
    assert transpose(hmono((1, 3), 5)) == hmono((3, 1), 5)
    d = CorrClass.diagonal(CUBIC)
    assert transpose(d) == d
    f = hmono((2, 1)) + d.scale(QQ(-1, 3))
    assert transpose(transpose(f)) == f


def _random_class(rng) -> CorrClass:
    out = CorrClass.zero(CUBIC, 2)
    for _ in range(rng.randint(1, 4)):
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        out = out + hmono((a, b), QQ(rng.randint(-3, 3), rng.randint(1, 4)))
    if rng.random() < 0.6:
        out = out + CorrClass.diagonal(CUBIC, coeff=QQ(rng.randint(-2, 2)))
    return out


def test_compose_closed_equals_pull_push_route():
    rng = random.Random(11)
    for _ in range(25):
        f, g = _random_class(rng), _random_class(rng)
        assert compose(f, g) == push(intersect(pull(f, (0, 1), 3), pull(g, (1, 2), 3)), (0, 2))


def test_compose_associative_and_unital():
    rng = random.Random(12)
    d = CorrClass.diagonal(CUBIC)
    for _ in range(10):
        f, g, k = _random_class(rng), _random_class(rng), _random_class(rng)
        assert compose(compose(f, g), k) == compose(f, compose(g, k))
        assert compose(d, f) == f
        assert compose(f, d) == f
    with pytest.raises(StructureError):
        compose(d, CorrClass.small_diagonal(CUBIC))


def test_transpose_reverses_composition():
    rng = random.Random(13)
    for _ in range(10):
        f, g = _random_class(rng), _random_class(rng)
        assert transpose(compose(f, g)) == compose(transpose(g), transpose(f))


def test_ck_projectors():
    pis = ck_projectors(CUBIC)
    names = ["pi0", "pi2", "pi4", "pi6", "pi8"]
    total = CorrClass.zero(CUBIC, 2)
    for name in names:
        assert compose(pis[name], pis[name]) == pis[name]
        total = total + pis[name]
    assert total == CorrClass.diagonal(CUBIC)
    for a in names:
        for b in names:
            if a != b:
                assert compose(pis[a], pis[b]).is_zero()
    p = pis["pi4_prim"]
    assert compose(p, p) == p
    assert transpose(p) == p
    assert compose(pis["pi4"], p) == p
    assert compose(p, pis["pi4"]) == p
    with pytest.raises(StructureError):
        ck_projectors(VarietyData.k3())


def test_hyperplane_classes_die_between_primitive_projectors():
    p = ck_projectors(CUBIC)["pi4_prim"]
    for a in range(4):
        z = hmono((a, 3 - a))
        assert compose(compose(p, z), p).is_zero()
    # codimension-4 content survives in general
    assert not compose(compose(p, CorrClass.diagonal(CUBIC)), p).is_zero()


def test_monomial_text():
    assert monomial_str(("h", (0, 0))) == "1"
    assert monomial_str(("h", (2, 3))) == "h1^2 h2^3"
    assert monomial_str(("h", (1, 0, 4))) == "h1 h3^4"
    assert monomial_str(("D", 0, 1, 0)) == "D12"
    assert monomial_str(("D", 0, 2, 1)) == "D13 h2"
    assert monomial_str(("D", 1, 2, 4)) == "D23 h1^4"
    assert monomial_str(("delta",)) == "delta"
