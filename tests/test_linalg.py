"""The exact contraction kernel ``linalg.dot`` against object ``np.dot`` over
rationals (the route it replaced, kept here as the oracle) and, for 2-d
products, against ``sympy.Matrix``.  The tensor contractions of the
realization engine are checked against the Fraction-array oracle in
``test_fraction_oracle.py``."""

from fractions import Fraction

import numpy as np
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicmotives.linalg import dot
from cubicmotives.rationals import QQ

SETTINGS = settings(max_examples=60, deadline=None)

# mixed ints and rationals, negatives, large denominators
small = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**12),
)
# numerators and denominators beyond the int64 range
huge = st.one_of(
    st.integers(2**63, 2**80).map(lambda n: n * (-1) ** n),
    st.builds(Fraction, st.integers(-2**90, 2**90), st.integers(2**63, 2**70)),
)
entries = st.one_of(small, huge)
dims = st.integers(0, 4)


def _array(draw, shape, elems=entries):
    flat = draw(st.lists(elems, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    a = np.empty(shape, dtype=object)
    a.flat = [QQ(x) if isinstance(x, Fraction) else x for x in flat]
    return a


def _same(got, want):
    """Exact equality of values, shapes, and scalar-versus-array form."""
    if not isinstance(want, np.ndarray):
        assert type(got) is type(QQ(0))
        assert got == want
        return
    assert isinstance(got, np.ndarray) and got.shape == want.shape
    assert all(x == y for x, y in zip(got.flat, want.flat))
    assert all(type(x) is type(QQ(0)) for x in got.flat)


@st.composite
def dot_operands(draw):
    n, k, m = draw(dims), draw(dims), draw(dims)
    left = draw(st.sampled_from([(n, k), (k,)]))
    right = draw(st.sampled_from([(k, m), (k,)]))
    return _array(draw, left), _array(draw, right)


@SETTINGS
@given(dot_operands())
def test_dot_matches_object_dot(ab):
    a, b = ab
    _same(dot(a, b), np.dot(a, b))


def test_empty_contraction_is_zero():
    # n x 0 times 0 x m, as for an empty subspace in equivariant_witt
    got = dot(np.empty((3, 0), dtype=object), np.empty((0, 2), dtype=object))
    assert got.shape == (3, 2) and all(x == 0 and type(x) is type(QQ(0)) for x in got.flat)
    assert dot(np.empty((0, 3), dtype=object), np.ones((3, 2), dtype=object)).shape == (0, 2)
    assert dot(np.empty(0, dtype=object), np.empty(0, dtype=object)) == 0


@SETTINGS
@given(st.data())
def test_matrix_product_matches_sympy(data):
    n, k, m = data.draw(dims), data.draw(dims), data.draw(dims)
    a, b = _array(data.draw, (n, k)), _array(data.draw, (k, m))
    want = sympy.Matrix(n, k, [sympy.Rational(x.numerator, x.denominator) for x in a.flat]) \
        * sympy.Matrix(k, m, [sympy.Rational(x.numerator, x.denominator) for x in b.flat])
    got = dot(a, b)
    assert got.shape == (n, m)
    assert all(sympy.Rational(x.numerator, x.denominator) == y
               for x, y in zip(got.flat, list(want)))


def test_integer_dtype_operands():
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[QQ(1, 2), 0], [0, QQ(-1, 3)]], dtype=object)
    _same(dot(a, b), np.dot(a.astype(object), b))
