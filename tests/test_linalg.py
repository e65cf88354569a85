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
Fraction-array oracle in ``test_fraction_oracle.py``.  ``contract``, the
integer contraction under ``product`` and the realization engine, is checked
against object ``np.dot``/``np.tensordot`` (the route it replaced) on both sides
of its int64 bound and its size threshold, and with read-only operands, whose
int64 copies it keeps: cold and warm, next to writable ones changed in place
and views of a changed writable base, and dropped with their arrays.
``_echelon`` is checked against the
Bareiss elimination it replaced (``fraction_oracle.echelon``) integer for
integer, on random layouts and on the primitive lattice A2 + U^2 + E8^2 of a
cubic fourfold."""

import gc
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from cubicmotives import linalg
from cubicmotives.linalg import (CONTRACT_MIN_WORK, INT64_BOUND, _echelon, boxed, canonical,
                                 contract, dot, inverse, inverse_scaled, kernel_basis,
                                 kernel_scaled, rank, readonly, rref, same, scaled, solve,
                                 solve_scaled)
from cubicmotives.motiveiso import (build_gamma, random_fourfold_pair, random_unimodular,
                                    verify_frobenius)
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


def test_scaled_rejects_entries_that_are_not_rationals():
    for bad, name in ((2.5, "float"), ("1/2", "str"), (None, "NoneType")):
        a = np.array([[QQ(1, 2), 0], [bad, 1]], dtype=object)
        with pytest.raises(TypeError, match=f"not an exact rational entry: {name}$"):
            scaled(a)


def test_canonical_makes_the_denominator_positive():
    n, d = canonical(_ints([[2, -4], [6, 0]]), -4)
    assert d == 2 and list(n.flat) == [-1, 2, -3, 0]
    assert canonical(_ints([[3]]), -1)[1] == 1
    n, d = canonical(_ints([[0, 0]]), -7)  # the zero matrix over 1
    assert d == 1 and not n.any()


def test_same_compares_shapes_before_values():
    one = np.array([1], dtype=object)
    assert not same((one, 1), (np.array([1, 1, 1], dtype=object), 1))
    assert not same((_ints([[2]]), 2), (np.ones((2, 2), dtype=int).astype(object), 1))
    assert same((_ints([[2, 4]]), 2), (_ints([[1, 2]]), 1))
    assert same((_ints([[2, 4]]), -2), (_ints([[-1, -2]]), 1))


def test_same_over_equal_opposite_and_unequal_denominators():
    n, d = _ints([[3, -4], [0, 5]]), 7
    for other in ((n, d), (2 * n, 2 * d), (-n, -d), (n * -3, -3 * d)):
        assert same((n, d), other) and same(other, (n, d))
    for other in ((n + 1, d), (2 * n, d), (-n, d), (n, 2 * d), (n, -d), (2 * n + 1, 2 * d)):
        assert not same((n, d), other) and not same(other, (n, d))
    assert same((6, 4), (3, 2)) and same((3, 2), (3, 2)) and not same((3, 2), (3, 4))


# --- contract against object np.dot / np.tensordot ------------------------------------


def _ints_of(rng, shape, bits):
    """Random integers of up to ``bits`` bits, either sign, in an object array
    (a Python int for shape ())."""
    flat = [rng.randint(-2**bits, 2**bits) for _ in range(math.prod(shape))]
    return flat[0] if shape == () else np.array(flat, dtype=object).reshape(shape)


def _same_ints(got, want):
    """Equal values and shapes, and every entry a Python int, as the object
    route gives (an np.int64 would make ``_echelon`` raise TypeError)."""
    if not isinstance(want, np.ndarray):
        assert type(got) is int and got == want
        return
    assert isinstance(got, np.ndarray) and got.dtype == object and got.shape == want.shape
    assert all(type(x) is int for x in got.flat)
    assert all(x == y for x, y in zip(got.flat, want.flat))


def _oracle(a, b, axes=None):
    return np.dot(a, b) if axes is None else np.tensordot(a, b, axes)


# (shape of a, shape of b, axes) as functions of the dimensions n, k, m, with
# n k m multiply-adds or more: the
# np.dot shapes of ``product`` and ``scaled_action``, the slot contractions of
# ``transport`` (V -> V and V -> h) and the Gram and pair contractions of
# ``_component_product``
LAYOUTS = (
    lambda n, k, m: ((n, k), (k, m), None),
    lambda n, k, m: ((k,), (k, n * m), None),
    lambda n, k, m: ((n * m, k), (k,), None),
    lambda n, k, m: ((n * k * m,), (n * k * m,), None),
    lambda n, k, m: ((), (n * k, m), None),
    lambda n, k, m: ((n, k, m), (n, k), ([1], [1])),
    lambda n, k, m: ((k, n, m), (k,), ([0], [0])),
    lambda n, k, m: ((n, m, k), (k, k), ([2], [0])),
    lambda n, k, m: ((k, n, m), (m, k, n), ([0, 2], [1, 0])),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LAYOUTS), st.sampled_from((22, 13, 6, 1)),
       st.sampled_from((24, 22, 6, 1, 0)), st.sampled_from((40, 22, 5)),
       st.sampled_from((1, 8, 20, 26, 31, 32, 40, 62, 63, 64, 70)),
       st.sampled_from((1, 8, 20, 26, 31, 32, 40, 62, 63, 64, 70)), st.integers(0, 2**32))
def test_contract_matches_object_contraction(layout, n, k, m, bits_a, bits_b, seed):
    # small and large operands, entries of 1 to 70 bits: both routes, both
    # sides of the bound, and entries that do not convert to int64
    rng = random.Random(seed)
    shape_a, shape_b, axes = layout(n, k, m)
    a, b = _ints_of(rng, shape_a, bits_a), _ints_of(rng, shape_b, bits_b)
    _same_ints(contract(a, b, axes), _oracle(a, b, axes))


def _full(shape, value):
    return np.full(shape, value, dtype=object)


def test_contract_at_the_edges_of_int64():
    cases = []
    # 64 x k times k x 32 reaches the threshold for every k: 2048 entries out
    for k, x, y in ((4, 2**31 - 1, 2**31 - 1),  # entries near 2**31; 4 x y ~ 2**64
                    (4, 2**30, 2**30 - 1),      # k max|a| max|b| just below 2**62
                    (4, 2**30, 2**30),          # exactly 2**62: above the bound
                    (2, 2**31, 2**31),          # sums of 2**63: int64 wraps
                    (4, 2**31, 2**31 - 1),      # 2**64 - 2**33 wraps, max|a| max|b| < 2**62
                    (2, -2**31, 2**31)):        # -2**63 exactly: fits, both routes agree
        cases.append((_full((64, k), x), _full((k, 32), y), None))
    # an entry of -2**63 converts, but its absolute value does not fit (np.abs
    # wraps it to -2**63); -2**63 - 1 wraps on int64
    a = _full((64, 2), 1)
    a[0] = [-2**63, -1]
    cases.append((a, _full((2, 32), 1), None))
    # an entry of 2**63 or more does not convert at all
    for big in (2**63, 2**64 + 5, -2**63 - 1):
        a = _full((64, 2), 1)
        a[3, 1] = big
        cases.append((a, _full((2, 32), 1), None))
        cases.append((_full((32, 2), 1), a.T.copy(), None))
    # a vector times a vector, as ``product`` of two rows: a scalar
    cases.append((_full(4096, 3), _full(4096, -5), None))
    cases.append((_full(4096, 2**31), _full(4096, 2**31), None))
    # a Python-int scalar times an array
    cases.append((7, _full((64, 40), 2**20), None))
    cases.append((2**70, _full((64, 40), 2), None))
    # the list-axes layouts of transport and of _component_product at rank 22
    rng = random.Random(0)
    val, blk = _ints_of(rng, (22, 22, 22), 20), _ints_of(rng, (22, 22), 20)
    for axes in (([1], [1]), ([0], [0]), ([2], [1]), ([0, 2], [1, 0])):
        cases.append((val, blk if len(axes[0]) == 1 else val, axes))
    for a, b, axes in cases:
        _same_ints(contract(a, b, axes), _oracle(a, b, axes))
    # no multiply-adds at all: empty operands give Python-int zeros
    for shape_a, shape_b in (((3, 0), (0, 2)), ((0, 5), (5, 3)), ((0,), (0,))):
        a, b = np.empty(shape_a, dtype=object), np.empty(shape_b, dtype=object)
        _same_ints(contract(a, b), _oracle(a, b))
    assert INT64_BOUND == 2**62


def test_contract_takes_int64_exactly_from_the_threshold_on():
    # the object route multiplies the entries themselves, the int64 route
    # converts them first, so an int that counts its products tells them apart
    products = []

    class Tally(int):
        def __mul__(self, other):
            products.append(1)
            return int(self) * other

        __rmul__ = __mul__

    def tallies(shape):
        a = np.empty(shape, dtype=object)
        a.flat = [Tally(3)] * a.size  # np.full would store plain ints
        return a

    def route(shape_a, shape_b, axes=None):
        a, b = tallies(shape_a), tallies(shape_b)
        products.clear()
        _same_ints(contract(a, b, axes), _oracle(np.full(shape_a, 3, dtype=object),
                                                 np.full(shape_b, 3, dtype=object), axes))
        return "object" if products else "int64"

    assert CONTRACT_MIN_WORK == 2048
    assert route((32, 4), (4, 16)) == "int64"    # 2048 multiply-adds
    assert route((23, 1), (1, 89)) == "object"   # 2047
    assert route((2048,), (2048,)) == "int64"    # one entry of 2048 products
    assert route((2047,), (2047,)) == "object"
    assert route((64, 64), (64, 64)) == "int64"
    assert route((22, 22, 22), (22, 22), ([2], [1])) == "int64"
    assert route((6, 6, 6), (6, 6), ([2], [1])) == "object"  # rank 6 stays on objects
    assert route((2, 2), (2, 2)) == "object"


# --- contract's list-axes route against object np.tensordot ----------------------------


def _object_ints(rng, shape, bits):
    """Random integers of up to ``bits`` bits in an object array of any shape,
    0-d included."""
    flat = [rng.randint(-2**bits, 2**bits) for _ in range(math.prod(shape))]
    return np.array(flat, dtype=object).reshape(shape)


@st.composite
def tensordot_cases(draw):
    """Operands and list axes of a tensordot: up to three contracted and two
    free axes a side, dimensions 0 to 4 (so 0-d operands and zero-length
    contracted and free axes occur), the contracted axes paired in any order,
    and each operand transposed, so mostly not contiguous."""
    dims = st.integers(0, 4)
    k = draw(st.lists(dims, max_size=3))
    free_a, free_b = draw(st.lists(dims, max_size=2)), draw(st.lists(dims, max_size=2))
    pair = draw(st.permutations(range(len(k))))  # b's contracted axes, in a's order
    rng, bits = random.Random(draw(st.integers(0, 2**32))), draw(st.sampled_from((1, 20, 40, 70)))
    a = _object_ints(rng, tuple(free_a + k), bits)
    b = _object_ints(rng, tuple([k[j] for j in pair] + free_b), bits)
    pa, pb = draw(st.permutations(range(a.ndim))), draw(st.permutations(range(b.ndim)))
    axes = ([pa.index(len(free_a) + j) for j in range(len(k))],
            [pb.index(pair.index(j)) for j in range(len(k))])
    return a.transpose(pa), b.transpose(pb), axes


@settings(max_examples=150, deadline=None)
@given(tensordot_cases())
def test_contract_list_axes_match_object_tensordot(case):
    a, b, axes = case
    _same_ints(contract(a, b, axes), np.tensordot(a, b, axes))


def test_contract_list_axes_at_the_edges():
    rng = random.Random(1)
    cases = [
        # zero-length contracted axes, and zero-length free axes on either side
        ((3, 0), (0, 4), ([1], [0])),
        ((2, 0, 3), (3, 0), ([1, 2], [1, 0])),
        ((0, 5), (5,), ([1], [0])),
        ((5, 2), (0, 5), ([0], [1])),
        # 0-d operands: an outer product with no contracted axis
        ((), (2, 3), ([], [])),
        ((3,), (), ([], [])),
        ((), (), ([], [])),
        # every axis contracted: a 0-d result
        ((6,), (6,), ([0], [0])),
        # _component_product at rank 6: the Gram contraction of each V-axis,
        # then the pair contraction over one, two or three V-slots
        ((6, 6, 6), (6, 6), ([0], [0])),
        ((6, 6, 6), (6, 6), ([2], [0])),
        ((6, 6, 6), (6, 6, 6), ([0, 2], [1, 0])),
        ((6, 6, 6), (6, 6, 6), ([0, 1, 2], [0, 1, 2])),
        ((6, 6), (6, 6, 6), ([1, 0], [2, 0])),
        # transport's V -> h and V -> V slots
        ((6, 6), (6,), ([1], [0])),
        ((6, 6, 6), (6, 6), ([1], [1])),
    ]
    for shape_a, shape_b, axes in cases:
        a, b = _object_ints(rng, shape_a, 40), _object_ints(rng, shape_b, 40)
        _same_ints(contract(a, b, axes), np.tensordot(a, b, axes))
        if a.ndim > 1 and a.size:  # the same operand, not contiguous
            at = a.T.copy().T
            assert not at.flags.c_contiguous
            _same_ints(contract(at, b, axes), np.tensordot(at, b, axes))
    # the int64 route on transposed operands
    a, b = _object_ints(rng, (22, 22, 22), 20), _object_ints(rng, (22, 22), 20)
    for axes in (([1], [0]), ([0], [1]), ([2], [1])):
        _same_ints(contract(a.transpose(2, 0, 1), b.T, axes),
                   np.tensordot(a.transpose(2, 0, 1), b.T, axes))


# --- the elimination against the Bareiss reference ------------------------------------


def _same_elimination(m):
    """``_echelon`` and the Bareiss reference return the same (rows, p,
    pivots), to the last integer, and leave their input as it was."""
    before = m.copy()
    (got, p, pivots), (want, want_p, want_pivots) = _echelon(m), oracle.echelon(m)
    assert (m == before).all()
    _same_ints(got, want)
    assert type(p) is int and p == want_p and pivots == want_pivots


def _nonzero(rng, bits):
    return rng.choice((-1, 1)) * rng.randint(1, 2**bits)


def _cartan(n, edges):
    """The Cartan matrix of a simply laced Dynkin diagram on n nodes."""
    g = np.eye(n, dtype=int) * 2
    for i, j in edges:
        g[i, j] = g[j, i] = -1
    return g


def _orthogonal_sum(*blocks):
    g = np.zeros((sum(map(len, blocks)),) * 2, dtype=int)
    at = np.cumsum([0, *map(len, blocks)])
    for b, i in zip(blocks, at):
        g[i:i + len(b), i:i + len(b)] = b
    return g.astype(object)


A2 = _cartan(2, [(0, 1)])
U = np.array([[0, 1], [1, 0]])
E8 = _cartan(8, [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)])
# H^4_prim of a cubic fourfold: A2 + U^2 + E8^2, of rank 22 (89% zeros)
PRIMITIVE_LATTICE = _orthogonal_sum(A2, U, U, E8, E8)


def _echelon_input(rng, kind, rows, cols, bits, zero_share):
    """An integer matrix of one of the layouts of ``ECHELON_KINDS``."""
    def random_matrix(r, c, share=zero_share):
        # each entry 0 with probability share, else nonzero of up to ``bits`` bits
        return np.array([[0 if rng.random() < share else _nonzero(rng, bits) for _ in range(c)]
                         for _ in range(r)], dtype=object).reshape(r, c)

    if kind in ("dense", "sparse"):
        return random_matrix(rows, cols, 0 if kind == "dense" else zero_share)
    if kind == "rank-deficient":  # through an inner dimension below min(rows, cols)
        k = rng.randint(0, max(0, min(rows, cols) - 1))
        return np.dot(random_matrix(rows, k), random_matrix(k, cols)).astype(object)
    if kind == "gamma":  # build_gamma's [dom G | img], G the primitive lattice or a conjugate
        s, _ = random_unimodular(rng, 22)
        g = np.dot(np.dot(s.T, PRIMITIVE_LATTICE), s) if rng.random() < 0.5 else PRIMITIVE_LATTICE
        return np.concatenate([np.dot(random_matrix(22, 22), g), random_matrix(22, 22)], axis=1)
    m = np.zeros((rows, cols), dtype=int).astype(object)
    if kind == "block-diagonal":
        i = j = 0
        while i < rows and j < cols:
            h, w = min(rng.randint(1, 3), rows - i), min(rng.randint(1, 3), cols - j)
            m[i:i + h, j:j + w] = random_matrix(h, w)
            i, j = i + h, j + w
    else:  # "permuted-diagonal"
        for i, j in zip(rng.sample(range(rows), rows), rng.sample(range(cols), cols)):
            m[i, j] = _nonzero(rng, bits)
    return m


ECHELON_KINDS = ("dense", "sparse", "rank-deficient", "block-diagonal", "permuted-diagonal",
                 "gamma")


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(ECHELON_KINDS), st.integers(0, 7), st.integers(0, 9),
       st.sampled_from((1, 2, 8, 31, 32, 63, 64, 70)),
       st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)), st.integers(0, 2**32))
def test_echelon_matches_bareiss(kind, rows, cols, bits, zero_share, seed):
    # square, tall, wide, 0-row and 0-column shapes; dense and sparse entries of
    # 1 to 70 bits; the 22 x 44 system of build_gamma
    _same_elimination(_echelon_input(random.Random(seed), kind, rows, cols, bits, zero_share))


def test_echelon_brings_stale_rows_up_exactly():
    cases = [
        # row 1 is skipped by the first pivot, then becomes the pivot row of a
        # column every row has a nonzero in
        ([[2, 1], [0, 1]], [[2, 0], [0, 2]], 2, [0, 1]),
        # row 0 is left at level 2 by the second pivot: the end brings it to 6
        ([[2, 0], [0, 3]], [[6, 0], [0, 6]], 6, [0, 1]),
        # row 2, still at level 1, is updated by the second pivot (level 2 by then)
        ([[2, 0, 1], [0, 3, 1], [0, 1, 1]], [[4, 0, 0], [0, 4, 0], [0, 0, 4]], 4, [0, 1, 2]),
    ]
    for rows, want, p, pivots in cases:
        m = _ints(rows)
        _same_elimination(m)
        got = _echelon(m)
        assert got[0].tolist() == want and got[1] == p and got[2] == pivots
    # no row a pivot skips: every step updates every row, as Bareiss' does
    _same_elimination(_ints([[1, 2, 3], [4, 5, 6], [7, 8, 10]]))
    for shape in ((0, 0), (0, 3), (3, 0), (1, 1)):
        _same_elimination(np.zeros(shape, dtype=int).astype(object))


def _sign_changes(coefficients):
    signs = [c > 0 for c in coefficients if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@pytest.mark.parametrize("conjugate", [False, True])
def test_primitive_lattice_eliminations_match_the_references(conjugate):
    g = PRIMITIVE_LATTICE
    if conjugate:  # 39% of the entries zero, against 89%
        s, _ = random_unimodular(random.Random(7), 22)
        g = np.dot(np.dot(s.T, g), s)
    # det 3 and signature (20, 2): the characteristic polynomial has real roots,
    # so Descartes' rule counts them exactly
    poly = sympy.Matrix(g.tolist()).charpoly().all_coeffs()
    assert poly[-1] == 3 and len(poly) == 23
    assert (_sign_changes(poly), _sign_changes([c * (-1) ** k for k, c in enumerate(poly)])) \
        == (20, 2)
    eye22 = np.eye(22, dtype=int).astype(object)
    _same_elimination(np.concatenate([g, eye22], axis=1))
    _same(boxed(*inverse_scaled((g, 1))), oracle.inverse(_rational(g)))
    rng = random.Random(8)
    b = _ints_of(rng, (22, 3), 20)
    _same_elimination(np.concatenate([g * 5, b * 3], axis=1))
    _same(boxed(*solve_scaled((g, 3), (b, 5))), oracle.solve(_over(g.tolist(), 3), _over(b.tolist(), 5)))


# --- kept int64 views of read-only operands --------------------------------------------


# entries at the int64 edges, and small ones: with them an operand converts or
# not, and the pair passes the bound or not
EDGE_ENTRIES = st.sampled_from((0, 1, -1, 3, -7, 2**31 - 1, -2**31, 2**31, 2**62, -2**62,
                                2**63 - 1, -2**63, 2**63, -2**63 - 1, 2**70))


def _frozen(a, how):
    """``a`` as the read-only operand of one kind: an array of its own, or a
    read-only transposed or sliced view of a read-only copy."""
    if how == "owned":
        return readonly(a.copy())
    if how == "transposed":
        return readonly(a.T.copy()).T
    big = np.concatenate([a, a[:1]])  # a read-only base one row longer
    return readonly(big)[:len(a)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(LAYOUTS[:1] + LAYOUTS[5:]), st.sampled_from((22, 13, 6)),
       st.sampled_from((22, 6, 1)), st.sampled_from((22, 5)),
       st.sampled_from(("a", "b", "both")), st.sampled_from(("owned", "transposed", "sliced")),
       st.integers(0, 2**32), st.lists(EDGE_ENTRIES, max_size=3), st.sampled_from((8, 20, 31, 40)))
def test_read_only_operands_contract_cold_and_warm_like_objects(layout, n, k, m, frozen, how,
                                                                  seed, edges, bits):
    # np.dot and list-axes layouts; a read-only a, b or both, the other side
    # writable; a few entries at the int64 edges; each contraction run on
    # operands seen for the first time, then again on the same objects
    rng = random.Random(seed)
    shape_a, shape_b, axes = layout(n, k, m)
    a, b = _ints_of(rng, shape_a, bits), _ints_of(rng, shape_b, bits)
    for x, value in zip(rng.sample([a, b, a, b], len(edges)), edges):
        x.flat[rng.randrange(x.size)] = value
    want = _oracle(a, b, axes)
    if frozen in ("a", "both"):
        a = _frozen(a, how)
    if frozen in ("b", "both"):
        b = _frozen(b, how)
    for _ in range(2):
        _same_ints(contract(a, b, axes), want)


def test_a_writable_operand_changed_in_place_gives_the_new_product():
    rng = random.Random(3)
    for shape_a, shape_b, axes in (((64, 4), (4, 32), None), ((22, 22, 22), (22, 22), ([1], [1]))):
        a, b = _ints_of(rng, shape_a, 20), _ints_of(rng, shape_b, 20)
        # the writable operand on either side, the other one read-only
        for pair in ((a.copy(), readonly(b.copy())), (readonly(a.copy()), b.copy())):
            x = pair[0] if pair[0].flags.writeable else pair[1]
            _same_ints(contract(*pair, axes), _oracle(*pair, axes))
            x[(0,) * x.ndim] += 12345
            _same_ints(contract(*pair, axes), _oracle(*pair, axes))
            x[(-1,) * x.ndim] = -2**40  # past the bound now
            _same_ints(contract(*pair, axes), _oracle(*pair, axes))


def test_a_read_only_view_of_a_changed_base_gives_the_new_product():
    rng = random.Random(4)
    base, b = _ints_of(rng, (64, 8), 20), readonly(_ints_of(rng, (8, 32), 20))
    for view in (base[:], base[:, :4].T.T, base[::2]):
        view.flags.writeable = False
        k = view.shape[1]
        _same_ints(contract(view, b[:k]), _oracle(view, b[:k]))
        base[0, 0] += 7
        base[-1, -1] = 2**62  # the bound, too, is read from the new entries
        _same_ints(contract(view, b[:k]), _oracle(view, b[:k]))
        base[-1, -1] = 1


def test_kept_int64_views_die_with_a_certificate():
    """With the cyclic collector off, building, verifying and deleting one
    rank-22 certificate leaves the kept views as they were: each is dropped
    with its array."""
    gc.disable()
    try:
        before = len(linalg._KEPT)
        dx, dy, iso = random_fourfold_pair(4, rank=22)
        cert = build_gamma(dx, dy, iso)
        checks = cert.checks + verify_frobenius(cert)
        kept = len(linalg._KEPT)
        del dx, dy, iso, cert
        assert all(c["passed"] for c in checks)
        assert kept > before + 10  # the spaces' forms, the isometries, Γ's action and blocks
        assert len(linalg._KEPT) == before
    finally:
        gc.enable()
