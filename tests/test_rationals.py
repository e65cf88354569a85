"""The scalar type and the "p/q" grammar of every JSON interface:
``rational_str``/``parse_rational`` round trips, canonical output, rejected
inputs, and the text of the derived correction class."""

import fractions
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicmotives import rationals
from cubicmotives.gradedring import TruncPoly, VarietyData
from cubicmotives.linalg import mat_from_json, mat_to_json
from cubicmotives.motiveiso import random_diag_gram
from cubicmotives.rationals import QQ, parse_rational, rational_str
from cubicmotives.realization import RealizationConfig, derive_P, p_to_json

CUBIC = VarietyData.cubic_fourfold()

# zero, small and integer values, and numerators and denominators above 2^63
ints = st.one_of(st.integers(-9, 9), st.integers(-2**90, 2**90))
rats = st.builds(QQ, ints, st.one_of(st.integers(1, 9), st.integers(2**63, 2**80)))


def test_scalar_type_is_fraction():
    assert QQ is fractions.Fraction
    assert rationals.BACKEND == "fraction"


@settings(max_examples=200, deadline=None)
@given(rats)
def test_rational_str_roundtrip(x):
    text = rational_str(x)
    p, q = (int(t) for t in text.split("/"))
    assert q > 0 and math.gcd(p, q) == 1
    assert parse_rational(text) == x
    assert type(parse_rational(text)) is QQ
    assert parse_rational(x) == x


@settings(max_examples=100, deadline=None)
@given(ints)
def test_integers_parse_bare_and_write_over_one(n):
    assert rational_str(n) == f"{n}/1"
    assert parse_rational(str(n)) == n
    assert parse_rational(n) == n
    assert parse_rational(f" {n}/1 ") == n


def test_denominators_are_explicit():
    a = TruncPoly.from_coeffs(CUBIC, [1, QQ(-7, 3), 0, QQ(1, 2), 5])
    data = [rational_str(c) for c in a.coeffs]
    assert data == ["1/1", "-7/3", "0/1", "1/2", "5/1"]
    assert TruncPoly(CUBIC, tuple(parse_rational(c) for c in data)) == a
    assert rational_str(QQ(6, -4)) == "-3/2"


def test_bad_inputs_are_rejected():
    for bad in (True, False):
        with pytest.raises(TypeError):
            parse_rational(bad)
    with pytest.raises(TypeError):
        mat_from_json([[True, 0], [0, -1]])
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")
    for bad in ("1.5", "x", "1/2/3", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_matrix_json_roundtrip():
    g = random_diag_gram(random.Random(3), 5)
    g[0, 1] = g[1, 0] = QQ(-2**70, 3)
    rows = mat_to_json(g)
    assert rows[0][1] == f"-{2**70}/3"
    back = mat_from_json(rows)
    assert back.shape == g.shape and (back == g).all()


def test_correction_class_text():
    want = {"h2^4 h3^4": "-1/9", "h1^2 h2^3 h3^3": "1/9", "h1^3 h2^2 h3^3": "1/9",
            "h1^3 h2^3 h3^2": "1/9", "h1^4 h3^4": "-1/9", "h1^4 h2^4": "-1/9"}
    for cfg in (RealizationConfig.default(),
                RealizationConfig.with_gram(random_diag_gram(random.Random(5), 3))):
        got = p_to_json(derive_P(cfg))
        assert list(got.items()) == list(want.items())
