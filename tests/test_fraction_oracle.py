"""``RealizedClass`` on integer numerators against the Fraction-array route it
replaced (``fraction_oracle.FractionClass``), on random 1- to 3-slot classes,
``realize`` against the term-by-term sum it replaced, and products against
the per-pair signature walk that their plans replaced.  Transport is also
checked against its own law: transporting by a then by b is transporting by
b . a.

The spaces cover primitive ranks 0, 1 and 4 (one test keeps to rank 0), a non-diagonal Gram with
fractional entries (its denominator folds into products), and a K3 slot.
Entries mix small rationals, zeros and numerators and denominators beyond
2^63.  Signatures are drawn slot by slot with V often present, so V-axes sit
in every position and products contract 1 to 3 of them through the Gram.
Every result must also be in canonical form and survive the round trip
through its boxed components.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_oracle import FractionClass, realize_by_terms, walk_product
from cubicmotives.gradedring import VarietyData
from cubicmotives.linalg import eye, product, qmat, scaled
from cubicmotives.quadform import QuadSpace
from cubicmotives.rationals import rational_str
from cubicmotives.realization import (RealizedClass, Space, action_matrix, check_equal,
                                      compose_realized, realize, scaled_action)
from cubicmotives.tautcorr import CorrClass

SETTINGS = settings(max_examples=25, deadline=None)

CUBIC = VarietyData.cubic_fourfold()
H_ONLY = Space(CUBIC)
RANK1 = Space(CUBIC, QuadSpace(qmat([[2]])))
RANK4 = Space(CUBIC, QuadSpace(qmat([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 3, 0], [0, 0, 0, -2]])))
NONDIAG = Space(CUBIC, QuadSpace(qmat([["2", "1/3", 0], ["1/3", "-1", 0], [0, 0, "1/2"]])))
K3 = Space(VarietyData.k3(), QuadSpace(qmat([["-2", "1"], ["1", "-2/5"]])))
SPACES = (H_ONLY, RANK1, RANK4, NONDIAG, K3)

small = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
)
huge = st.one_of(
    st.integers(2**63, 2**80).map(lambda n: n * (-1) ** n),
    st.builds(Fraction, st.integers(-2**90, 2**90), st.integers(2**63, 2**70)),
)
entries = st.one_of(small, small, huge)


def _value(draw, sig, spaces):
    shape = [sp.r for k, sp in zip(sig, spaces) if k == "V"]
    if not shape:
        return Fraction(draw(entries))
    flat = draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array([Fraction(x) for x in flat], dtype=object).reshape(shape)


def _signature(draw, spaces):
    return tuple("V" if sp.r and draw(st.booleans()) else ("h", draw(st.integers(0, sp.vd.dim)))
                 for sp in spaces)


def _comps(draw, spaces, max_comps=4):
    sigs = [_signature(draw, spaces) for _ in range(draw(st.integers(0, max_comps)))]
    return {sig: _value(draw, sig, spaces) for sig in sigs}


@st.composite
def products(draw):
    """A tuple of spaces (1 to 3 slots) and rational components on it."""
    spaces = tuple(draw(st.sampled_from(SPACES)) for _ in range(draw(st.integers(1, 3))))
    return spaces, _comps(draw, spaces)


@st.composite
def class_pairs(draw):
    """Two classes on the same spaces; the second negates a random part of the
    first, so sums cancel to zero component by component or entirely."""
    spaces, a = draw(products())
    b = _comps(draw, spaces)
    for sig, val in a.items():
        if draw(st.booleans()):
            b[sig] = -val
    return RealizedClass(spaces, a), RealizedClass(spaces, b)


def _same(got: RealizedClass, want: FractionClass):
    """Exact equality of the boxed components with the oracle's, plus the
    canonical form of ``got``."""
    assert got.spaces == want.spaces
    assert set(got.comps) == set(want.comps)
    for sig, val in want.comps.items():
        mine = got.comps[sig]
        if isinstance(val, np.ndarray):
            assert isinstance(mine, np.ndarray) and mine.shape == val.shape
            assert all(type(x) is Fraction and x == y for x, y in zip(mine.flat, val.flat))
        else:
            assert type(mine) is Fraction and mine == val
    _canonical(got)


def _canonical(x: RealizedClass):
    """No all-zero component, gcd(den, every numerator) = 1, Python ints only,
    and ``RealizedClass(x.spaces, x.comps) == x``."""
    assert type(x._den) is int and x._den > 0
    g = x._den
    for val in x._num.values():
        ints = list(val.flat) if isinstance(val, np.ndarray) else [val]
        assert all(type(v) is int for v in ints) and any(ints)
        g = math.gcd(g, *ints)
    assert g == 1
    if not x._num:
        assert x._den == 1 and x.is_zero()
    back = RealizedClass(x.spaces, x.comps)
    assert back == x and back._den == x._den


@SETTINGS
@given(class_pairs(), st.one_of(small, huge))
def test_linear_operations_match_oracle(xy, t):
    x, y = xy
    fx, fy = FractionClass.of(x), FractionClass.of(y)
    _same(x, fx)
    _same(y, fy)
    _same(x + y, fx + fy)
    _same(x - y, fx - fy)
    _same(-x, -fx)
    _same(x.scale(t), fx.scale(t))
    _same(x - x, FractionClass(x.spaces))
    assert (x == y) == (not (fx - fy).comps)
    # same numerators over another denominator
    assert (x.scale(Fraction(1, 3)) == x) == x.is_zero()
    assert (x + y).is_zero() == (not (fx + fy).comps)
    rec = check_equal("c", "claim", x, y)
    assert rec["passed"] == (x == y)
    if not rec["passed"]:
        diff = (fx - fy).comps
        first = sorted(diff, key=str)[0]
        tag = "x".join("h^%d" % k[1] if k != "V" else "V" for k in first)
        d = np.asarray(diff[first])
        at = next(i for i in np.ndindex(d.shape) if d[i] != 0)  # the first in row-major order
        if at:
            tag += "[" + ",".join(map(str, at)) + "]"
        got, want = (c.comps.get(first, 0) for c in (fx, fy))
        got, want = (v[at] if isinstance(v, np.ndarray) else v for v in (got, want))
        assert rec["witness"] == f"{tag}: got {rational_str(got)}, want {rational_str(want)}"


def _oracle_degree(o: FractionClass):
    top = tuple(("h", sp.vd.dim) for sp in o.spaces)
    return o.comps.get(top, 0) * math.prod(sp.e for sp in o.spaces)


@SETTINGS
@given(class_pairs())
def test_products_and_degrees_match_oracle(xy):
    x, y = xy
    fx, fy = FractionClass.of(x), FractionClass.of(y)
    _same(x * y, fx * fy)
    _same(y * x, fy * fx)
    assert (x * y).degree() == _oracle_degree(fx * fy)


def test_product_plans_depend_on_slot_dimensions():
    """h^1 . h^2 is h^3 on a fourfold and vanishes on a K3, whichever of the
    two is multiplied first."""
    for spaces in ((RANK1,), (K3,), (RANK1, K3), (K3, RANK1)):
        x, y = (RealizedClass(spaces, {(("h", k),) * len(spaces): c}) for k, c in ((1, 2), (2, 3)))
        want = {(("h", 3),): 6} if spaces == (RANK1,) else {}
        assert (x * y)._num == want and x * y == walk_product(x, y)


@st.composite
def twin_products(draw):
    """Two class pairs on the same signatures, one on fourfold slots and one
    on K3 slots (h-exponents at most 2, which both read), in a random order:
    a product plan must tell the two apart."""
    n = draw(st.integers(1, 3))
    sigs = [tuple("V" if draw(st.booleans()) else ("h", draw(st.integers(0, 2)))
                  for _ in range(n)) for _ in range(draw(st.integers(1, 4)))]
    twins = []
    for spaces in (tuple(draw(st.sampled_from((RANK1, RANK4, NONDIAG))) for _ in range(n)),
                   (K3,) * n):
        twins.append(tuple(RealizedClass(spaces, {sig: _value(draw, sig, spaces) for sig in sigs})
                           for _ in range(2)))
    return twins[::-1] if draw(st.booleans()) else twins


@SETTINGS
@given(twin_products())
def test_products_match_the_signature_walk(twins):
    for x, y in twins:
        got = x * y
        assert got == walk_product(x, y)
        _canonical(got)


def test_three_axis_contraction_matches_oracle():
    """Every slot carries V on both sides: three axes contract at once, each
    through its own Gram (one of them with fractional entries)."""
    spaces = (NONDIAG, K3, RANK4)
    shape = tuple(sp.r for sp in spaces)
    vals = [np.array([Fraction(i * k - 7, 1 + (i % 5)) + 2**64 * (i % 3)
                      for i in range(math.prod(shape))], dtype=object).reshape(shape)
            for k in (1, 3)]
    x, y = (RealizedClass(spaces, {("V", "V", "V"): v, (("h", 0),) * 3: Fraction(1, 2)})
            for v in vals)
    _same(x * y, FractionClass.of(x) * FractionClass.of(y))


def _matrix(draw, source: Space, target: Space) -> np.ndarray:
    """A target x source matrix; whole blocks are zero at random."""
    m = np.full((target.size, source.size), Fraction(0), dtype=object)
    for kt in target.kinds():
        for ks in source.kinds():
            if draw(st.booleans()):
                view = m[target.index(kt), source.index(ks)]
                if isinstance(view, np.ndarray):
                    view[...] = np.array([Fraction(draw(entries)) for _ in view.flat],
                                         dtype=object).reshape(view.shape)
                else:
                    m[target.index(kt), source.index(ks)] = Fraction(draw(entries))
    return m


@SETTINGS
@given(st.data())
def test_transport_matches_oracle(data):
    spaces, comps = data.draw(products())
    x = RealizedClass(spaces, comps)
    targets = tuple(data.draw(st.sampled_from(SPACES)) for _ in spaces)
    # one matrix per (source, target) pair: a repeated slot map is the same
    # map, as in verify_frobenius
    by_pair = {}
    for a, b in zip(spaces, targets):
        if (id(a), id(b)) not in by_pair:
            by_pair[(id(a), id(b))] = _matrix(data.draw, a, b)
    mats = [by_pair[(id(a), id(b))] for a, b in zip(spaces, targets)]
    _same(x.transport([scaled(m) for m in mats], targets),
          FractionClass.of(x).transport(mats, targets))


@SETTINGS
@given(st.data())
def test_transport_is_functorial(data):
    """x.transport(a).transport(b) == x.transport(b . a), with each slot map a
    plain pair or the kept action of a random two-slot class."""
    spaces, comps = data.draw(products())
    x = RealizedClass(spaces, comps)
    mids, ends = (tuple(data.draw(st.sampled_from(SPACES)) for _ in spaces) for _ in range(2))

    def slot_map(source, target):
        if data.draw(st.booleans()):
            return scaled(_matrix(data.draw, source, target))
        return scaled_action(RealizedClass((source, target), _comps(data.draw, (source, target))))

    a = [slot_map(s, t) for s, t in zip(spaces, mids)]
    b = [slot_map(t, u) for t, u in zip(mids, ends)]
    assert x.transport(a, mids).transport(b, ends) == \
        x.transport([product(q, p) for p, q in zip(a, b)], ends)


@SETTINGS
@given(st.data())
def test_h_only_blocks_match_oracle(data):
    """On the h-only space (r = 0) every component is a scalar and every block
    a scalar: products, and transport to and from it, on 1 to 3 slots."""
    n = data.draw(st.integers(1, 3))
    spaces = (H_ONLY,) * n
    x, y = (RealizedClass(spaces, _comps(data.draw, spaces, 6)) for _ in range(2))
    fx, fy = FractionClass.of(x), FractionClass.of(y)
    _same(x * y, fx * fy)
    _same(x * x, fx * fx)
    # into the h-only space, and from it into V-carrying spaces (h -> V blocks)
    targets = tuple(data.draw(st.sampled_from(SPACES)) for _ in spaces)
    for tgt in ((H_ONLY,) * n, targets):
        mats = {id(b): _matrix(data.draw, H_ONLY, b) for b in tgt}
        _same(x.transport([scaled(mats[id(b)]) for b in tgt], tgt),
              fx.transport([mats[id(b)] for b in tgt], tgt))
    # and back from V-carrying spaces onto it (V -> h blocks)
    source = RealizedClass(targets, _comps(data.draw, targets, 6))
    mats = {id(a): _matrix(data.draw, a, H_ONLY) for a in targets}
    _same(source.transport([scaled(mats[id(a)]) for a in targets], spaces),
          FractionClass.of(source).transport([mats[id(a)] for a in targets], spaces))


def _oracle_matrix(o: FractionClass) -> np.ndarray:
    sa, sb = o.spaces
    m = np.full((sa.size, sb.size), Fraction(0), dtype=object)
    for (k0, k1), val in o.comps.items():
        m[sa.index(k0), sb.index(k1)] = val
    return m


@SETTINGS
@given(st.data())
def test_two_slot_forms_match_oracle(data):
    a, b, c = (data.draw(st.sampled_from(SPACES)) for _ in range(3))
    f = RealizedClass((a, b), _comps(data.draw, (a, b), 6))
    g = RealizedClass((b, c), _comps(data.draw, (b, c), 6))
    ff, fg = FractionClass.of(f), FractionClass.of(g)
    _same(f.transpose(), FractionClass((b, a), {(k1, k0): v.T if isinstance(v, np.ndarray) else v
                                                for (k0, k1), v in ff.comps.items()}))
    mid = {sig: v for sig, v in ff.comps.items()
           if all(k == "V" or k == ("h", sp.vd.dim // 2) for k, sp in zip(sig, (a, b)))}
    _same(f.middle_part(), FractionClass((a, b), mid))
    assert np.array_equal(f.to_matrix(), _oracle_matrix(ff))
    act = np.dot(_oracle_matrix(fg).T, b.pairing)
    assert np.array_equal(action_matrix(g), act)
    _same(compose_realized(f, g), ff.transport((eye(a.size), act), (a, c)))


def _monomials(n: int):
    """Every normal-form monomial on X^n of the cubic fourfold."""
    h = [("h", e) for e in np.ndindex(*(5,) * n)]
    if n == 2:
        return h + [("D", 0, 1, 0)]
    if n == 3:
        return h + [("D", i, j, c) for i, j in ((0, 1), (0, 2), (1, 2)) for c in range(5)] \
            + [("delta",)]
    return h


@st.composite
def corr_classes(draw):
    n = draw(st.integers(1, 3))
    mons = draw(st.lists(st.sampled_from(_monomials(n)), max_size=8))
    return CorrClass(CUBIC, n, {m: draw(small) for m in mons})


@SETTINGS
@given(st.sampled_from([sp for sp in SPACES if sp.vd == CUBIC]), corr_classes())
def test_realize_matches_the_term_by_term_sum(space, x):
    got = realize(x, space)
    assert got == realize_by_terms(x, space)
    _canonical(got)
