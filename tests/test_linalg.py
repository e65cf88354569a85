"""The exact contraction kernel ``linalg.dot`` against object ``np.dot`` over
rationals (the route it replaced, kept here as the oracle) and, for 2-d
products, against ``sympy.Matrix``; chained products against nested ones; and
the fraction-free eliminations against the ``Fraction`` Gauss-Jordan they
replaced (``fraction_oracle``), on rectangular, rank-deficient and
zero-column matrices with fractional and beyond-int64 entries, including the
singular and inconsistent systems that must raise the same errors; the
pair-level ``solve_scaled`` and ``kernel_scaled`` likewise, on pairs with
denominators of either sign.  The
tensor contractions of the realization engine are checked against the
Fraction-array oracle in ``test_fraction_oracle.py``."""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from cubicmotives.linalg import (boxed, dot, inverse, kernel_basis, kernel_scaled, rank, rref,
                                 scaled, solve, solve_scaled)
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


@SETTINGS
@given(st.data())
def test_chained_dot_matches_nested_products(data):
    n, k, l, m = (data.draw(dims) for _ in range(4))
    a = _array(data.draw, data.draw(st.sampled_from([(n, k), (k,)])))
    b = _array(data.draw, (k, l))
    c = _array(data.draw, data.draw(st.sampled_from([(l, m), (l,)])))
    got = dot(a, b, c)
    _same(got, dot(dot(a, b), c))
    _same(got, np.dot(np.dot(a, b), c))


# --- eliminations against the Fraction Gauss-Jordan ------------------------------

ELIM = settings(max_examples=40, deadline=None)


@st.composite
def elimination_matrices(draw, rows=None, cols=None, degenerate=True):
    """Rectangular matrices, often (when ``degenerate``) of deficient rank (a
    product through a narrower inner dimension) and with zero columns."""
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    if not degenerate:
        return _array(draw, (rows, cols))
    if rows and cols and draw(st.booleans()):
        k = draw(st.integers(0, min(rows, cols) - 1))
        a = _rational(np.dot(_array(draw, (rows, k)), _array(draw, (k, cols))))
    else:
        a = _array(draw, (rows, cols))
    for c in draw(st.sets(st.integers(0, cols - 1), max_size=2)) if cols else ():
        a[:, c] = QQ(0)
    return a


def _rational(a):
    return np.array([QQ(x) for x in a.flat], dtype=object).reshape(a.shape)


def _outcome(fn, *args):
    """The result, or the ValueError message."""
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


def _same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        _same(got, want)


@ELIM
@given(elimination_matrices())
def test_rref_rank_kernel_match_oracle(a):
    (r, pivots), (want_r, want_pivots) = rref(a), oracle.rref(a)
    assert pivots == want_pivots
    _same(r, want_r)
    assert rank(a) == oracle.rank(a) == len(pivots)
    got, want = kernel_basis(a), oracle.kernel_basis(a)
    assert len(got) == len(want) == a.shape[1] - len(pivots)
    for g, w in zip(got, want):
        _same(g, w)


@ELIM
@given(st.data())
def test_solve_matches_oracle(data):
    a = data.draw(elimination_matrices())
    rows, cols = a.shape
    if data.draw(st.booleans()):  # consistent: the image of a drawn x
        x = _array(data.draw, data.draw(st.sampled_from([(cols,), (cols, 2)])))
        b = _rational(np.dot(a, x))
    else:  # often inconsistent when a has deficient row rank
        b = _array(data.draw, data.draw(st.sampled_from([(rows,), (rows, 2)])))
    _same_outcome(_outcome(solve, a, b), _outcome(oracle.solve, a, b))


@ELIM
@given(st.data())
def test_inverse_matches_oracle(data):
    n = data.draw(st.integers(0, 5))
    square = data.draw(st.sampled_from([True, True, True, False]))
    a = data.draw(elimination_matrices(rows=n, cols=n if square else n + 1,
                                       degenerate=data.draw(st.booleans())))
    got, want = _outcome(inverse, a), _outcome(oracle.inverse, a)
    _same_outcome(got, want)
    assert square or got == "inverse needs a square matrix"


def test_singular_and_inconsistent_errors():
    a = np.array([[QQ(1), QQ(2)], [QQ(2), QQ(4)]], dtype=object)
    for fn in (inverse, oracle.inverse):
        assert _outcome(fn, a) == "matrix is singular"
    b = np.array([QQ(1), QQ(3)], dtype=object)
    for fn in (solve, oracle.solve):
        assert _outcome(fn, a, b) == "inconsistent linear system"


# --- the pair-level eliminations ---------------------------------------------------

nonzero = st.integers(-4, 4).filter(bool)


@ELIM
@given(st.data())
def test_solve_scaled_matches_oracle(data):
    a = data.draw(elimination_matrices())
    rows, cols = a.shape
    if data.draw(st.booleans()):
        x = _array(data.draw, data.draw(st.sampled_from([(cols,), (cols, 2)])))
        b = _rational(np.dot(a, x))
    else:
        b = _array(data.draw, data.draw(st.sampled_from([(rows,), (rows, 2)])))
    # the same rationals over other denominators, of either sign
    (an, ad), (bn, bd), k, kb = scaled(a), scaled(b), data.draw(nonzero), data.draw(nonzero)
    got = _outcome(lambda: boxed(*solve_scaled((an * k, ad * k), (bn * kb, bd * kb))))
    _same_outcome(got, _outcome(oracle.solve, a, b))


@ELIM
@given(elimination_matrices())
def test_kernel_scaled_matches_oracle(a):
    n = scaled(a)[0]
    before = n.copy()
    rows, p = kernel_scaled(n)
    assert (n == before).all()  # the elimination works on its own copy
    want = oracle.kernel_basis(a)
    assert rows.shape == (len(want), a.shape[1]) and p != 0
    assert all(type(x) is int for x in rows.flat)
    for got, w in zip(boxed(rows, p), want):
        _same(got, w)
    assert not np.any(np.dot(n, rows.T))


def _ints(rows):
    return np.array(rows, dtype=object).reshape(len(rows), -1)


def _over(rows, d):
    return np.array([[QQ(x, d) for x in row] for row in rows], dtype=object)


def test_pair_eliminations_edge_cases():
    # a negative pivot product: the solution is x / p with p < 0
    x, p = solve_scaled((_ints([[-2]]), 1), (np.array([4], dtype=object), 1))
    assert p < 0 and boxed(x, p)[0] == -2
    # negative denominators in the pairs themselves
    x, p = solve_scaled((_ints([[3, 1], [1, 1]]), -2), (_ints([[1], [2]]), 5))
    _same(boxed(x, p), oracle.solve(_over([[3, 1], [1, 1]], -2), _over([[1], [2]], 5)))
    # singular but consistent: 0 at the free column; inconsistent: ValueError
    a = _ints([[1, 2], [2, 4]])
    x, p = solve_scaled((a, 1), (np.array([3, 6], dtype=object), 1))
    assert list(boxed(x, p)) == [3, 0]
    assert _outcome(solve_scaled, (a, 1), (np.array([3, 7], dtype=object), 1)) \
        == "inconsistent linear system"
    # no constraints (zero algebraic rank): the identity over 1
    rows, p = kernel_scaled(np.zeros((0, 3), dtype=object))
    assert p == 1 and (rows == np.eye(3, dtype=int)).all()
    # full column rank (an empty transcendental part): no kernel vectors
    rows, p = kernel_scaled(_ints([[1, 2], [3, 4]]))
    assert rows.shape == (0, 2)
    # the pivot search swaps rows of the elimination's own copy only
    m = _ints([[0, 1, 1], [2, 0, 1]])
    rows, p = kernel_scaled(m)
    assert (m == _ints([[0, 1, 1], [2, 0, 1]])).all()
    assert list(boxed(rows, p)[0]) == [QQ(-1, 2), -1, 1]


def test_eliminations_reject_non_integer_numerators():
    # floor division is exact only on integers: with b = [1/2, 1/3] as a
    # numerator the elimination would return [1/5, 0], not [7/30, 1/30]
    a, b = _ints([[2, 1], [1, 3]]), np.array([QQ(1, 2), QQ(1, 3)], dtype=object)
    with pytest.raises(TypeError, match="integer numerators"):
        solve_scaled((a, 1), (b, 1))
    _same(solve(a, b), np.array([QQ(7, 30), QQ(1, 30)], dtype=object))
    with pytest.raises(TypeError, match="integer numerators"):
        kernel_scaled(np.array([[QQ(1, 2), 1]], dtype=object))
    # integers of any width or numpy dtype are numerators
    assert rank(np.array([[1, 2], [2, 4]], dtype=np.int64)) == 1
