"""Exact linear algebra over Q on numpy object arrays.

Dense matrices/vectors carry exact rationals (see :mod:`cubicmotives.rationals`)
in ``dtype=object`` arrays.  The arithmetic follows FLINT's common-denominator
rational matrices: a matrix is scaled once (:func:`scaled`) to Python integers
over one denominator, multiplied (:func:`product`) and compared (:func:`same`)
as such pairs, so a cached scaled form is never re-scaled, and boxed back
(:func:`boxed`) only where a rational result is handed out; :func:`dot` is
the rational front end of a chain.  Storage stays object; :func:`contract`,
the integer ``np.dot`` under :func:`product` and the realization engine (a
list-axes contraction is a transpose and a reshape to one ``np.dot``), runs
on int64 only under two conditions: the work is at least
``CONTRACT_MIN_WORK`` multiply-adds, and k max|a| max|b| < ``INT64_BOUND``
(k the product of the contracted dimensions), which proves every partial
sum exact.  A read-only operand with a read-only base (:func:`readonly`) is
converted once: its int64 copy is kept until the array dies, never the array.
One elimination, :func:`_echelon`, is
fraction-free Gauss-Jordan on Python-int numerators (TypeError on any other
entry) that returns Bareiss' integers (1968): at pivot p a row with a
nonzero f in the pivot column becomes (p row - f pivot_row) // its level, the
pivot it was last updated at, exact since every Bareiss entry is a minor of
the input.  Rows that a pivot leaves untouched keep their level, so they do
not grow to the size of a determinant; each is brought to the current pivot
when it becomes the pivot row or at the end.  :func:`solve_scaled`,
:func:`kernel_scaled` and :func:`inverse_scaled` return its results as pairs;
``rref``, ``rank``, ``kernel_basis``, ``solve`` and ``inverse`` are their
rational front ends.
"""

from __future__ import annotations

import math
import weakref
from numbers import Rational

import numpy as np

from .rationals import QQ, ZERO, parse_rational, rational_str


def qmat(rows) -> np.ndarray:
    """Dense matrix of exact rationals from any nested iterable."""
    a = np.array([[QQ(x) if not isinstance(x, str) else parse_rational(x) for x in row] for row in rows], dtype=object)
    if a.ndim != 2:
        raise ValueError("qmat expects a rectangular 2-d input")
    return a


def qvec(entries) -> np.ndarray:
    return np.array([QQ(x) if not isinstance(x, str) else parse_rational(x) for x in entries], dtype=object)


def zeros(*shape) -> np.ndarray:
    a = np.empty(shape, dtype=object)
    a[...] = ZERO
    return a


def eye(n) -> np.ndarray:
    a = zeros(n, n)
    for i in range(n):
        a[i, i] = QQ(1)
    return a


def mat_eq(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and all(x == y for x, y in zip(a.flat, b.flat))


def scaled(a):
    """(n, d): an integer object array (an int for a scalar) and one
    denominator with a = n / d.

    d is the lcm of the entries' denominators, so for entries in lowest terms
    gcd(d, every entry of n) = 1.  An entry that is not a rational (a float, a
    string) raises TypeError."""
    a = np.asarray(a, dtype=object)
    try:
        pq = [(x.numerator, x.denominator) for x in a.flat]
    except AttributeError:
        bad = next(x for x in a.flat if not isinstance(x, Rational))
        raise TypeError(f"not an exact rational entry: {type(bad).__name__}") from None
    d = math.lcm(*(q for _, q in pq))
    n = np.array([p * (d // q) for p, q in pq], dtype=object)
    return (n.reshape(a.shape) if a.ndim else n[0]), d


def boxed(n, d):
    """The rationals n / d of an integer array (or scalar) and one nonzero
    denominator, one division per entry; a 0-d result is a scalar."""
    n = np.asarray(n, dtype=object)
    if n.ndim == 0:
        return QQ(n[()], d)
    return np.array([QQ(x, d) for x in n.flat], dtype=object).reshape(n.shape)


def readonly(a: np.ndarray) -> np.ndarray:
    a = a if a.base is None else a.copy()  # no write through a base can reach it
    a.flags.writeable = False
    return a


def canonical(n, d):
    """n / d in lowest terms (d > 0, gcd(d, n) = 1), equal for equal values."""
    g = math.gcd(d, *np.asarray(n).flat) * (1 if d > 0 else -1)
    return (n // g, d // g) if g != 1 else (n, d)


# below CONTRACT_MIN_WORK multiply-adds the two int64 conversions cost more
# than they save; k max|a| max|b| bounds every partial sum of one entry, so
# below INT64_BOUND no int64 sum can wrap
CONTRACT_MIN_WORK = 2048
INT64_BOUND = 2**62


_KEPT = {}  # id(array) -> (weak reference to the array, its _int64 result)


def _int64(a):
    """(int64 copy, max |entry|) of a nonempty integer array or scalar, or None
    when an entry does not convert (np.abs would wrap at -2**63).  It is kept
    while it lives for an array that is read-only with a read-only base, and
    found again only by that same array."""
    key = id(a) if isinstance(a, np.ndarray) and not a.flags.writeable and (
        a.base is None or isinstance(a.base, np.ndarray) and not a.base.flags.writeable) else None
    if key is not None and (hit := _KEPT.get(key)) and hit[0]() is a:
        return hit[1]
    try:
        w = np.asarray(a).astype(np.int64)
        view = w, max(int(w.max()), -int(w.min()))
    except (OverflowError, TypeError):
        view = None
    if key is not None:
        _KEPT[key] = weakref.ref(a, lambda _: _KEPT.pop(key, None)), view
    return view


def contract(a, b, axes=None):
    """``np.dot(a, b)`` of integer arrays or scalars, or ``np.tensordot(a, b,
    axes)`` of arrays when ``axes`` (two sequences of non-negative axes) is given,
    exactly, with Python ``int`` entries.  The latter is one ``np.dot`` of a
    as (free axes) x (contracted axes) and b as (contracted) x (free).

    The operands are contracted on int64 when both conditions hold: the work,
    size(a) size(b) / k multiply-adds with k the product of the contracted
    dimensions, is at least ``CONTRACT_MIN_WORK``, and k max|a| max|b| <
    ``INT64_BOUND``.  Otherwise, or when an entry does not convert to int64,
    the contraction runs on the objects themselves.  Each operand is
    converted (:func:`_int64`) before it is transposed, so a kept one is
    converted once.  Entries must be integers: the conversion would truncate
    any other rational."""
    if axes is None:
        k = a.shape[-1] if getattr(a, "ndim", 0) and getattr(b, "ndim", 0) else 1
    else:
        (ia, ib), sa, sb = axes, a.shape, b.shape
        fa = [i for i in range(a.ndim) if i not in ia]
        fb = [i for i in range(b.ndim) if i not in ib]
        k, free = math.prod(sa[i] for i in ia), [sa[i] for i in fa] + [sb[i] for i in fb]
    wide = (k and getattr(a, "size", 1) * getattr(b, "size", 1) >= CONTRACT_MIN_WORK * k
            and (va := _int64(a)) and (vb := _int64(b)) and k * va[1] * vb[1] < INT64_BOUND)
    if wide:
        a, b = va[0], vb[0]
    if axes is not None:
        a = a.transpose([*fa, *ia]).reshape(math.prod(free[:len(fa)]), k)
        b = b.transpose([*ib, *fb]).reshape(k, math.prod(free[len(fa):]))
    out = np.dot(a, b).astype(object) if wide else np.dot(a, b)
    return out if axes is None else out.reshape(free)


def product(*pairs):
    """Scaled pair of the left-to-right (``np.dot``) product of scaled pairs."""
    n, d = pairs[0]
    for m, e in pairs[1:]:
        n, d = contract(n, m), d * e
    return n, d


def stack_scaled(*pairs):
    """Row-wise concatenation of scaled pairs (denominators of any sign)."""
    d = math.lcm(*(e for _, e in pairs))
    return np.concatenate([n * (d // e) for n, e in pairs]), d


def same(a, b) -> bool:
    """Exact equality of two scaled pairs: equal shapes and n1 d2 == n2 d1
    (n1 == n2 when d1 == d2)."""
    (n1, d1), (n2, d2) = a, b
    return np.shape(n1) == np.shape(n2) and bool(np.all(n1 == n2 if d1 == d2 else n1 * d2 == n2 * d1))


def dot(*operands):
    """Exact product of a left-to-right chain of 1- and 2-d arrays (``np.dot``
    shapes): each operand scaled once, :func:`contract` on the integers, the
    result boxed once; a scalar result comes back as a rational."""
    return boxed(*product(*(scaled(a) for a in operands)))


def _echelon(m):
    """Fraction-free Gauss-Jordan on an integer matrix: (r, p, pivot_columns)
    with r / p the reduced row-echelon form of ``m`` (p may be negative).

    The integers are Bareiss', but a pivot leaves alone the rows with a zero
    in its column: each row keeps the pivot it was last updated at (its
    level), and a row at level l stands for the Bareiss row times l / prev.
    A row is brought up, exactly, when it becomes the pivot row, when it is
    next updated ((s p - s_c pivot_row) // l), and once at the end.  A pivot
    that touches every row while every row is current is Bareiss' step."""
    m = np.array(m, dtype=object)  # rows are swapped in place
    if not set(map(type, m.flat)) <= {int}:
        raise TypeError("elimination needs integer numerators")
    rows, cols = m.shape
    level = np.ones(rows, dtype=object)
    pivots, prev = [], 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        live = m[:, c].nonzero()[0]  # the rows this pivot touches
        k = live.searchsorted(r)
        if k == len(live):
            continue
        if (i := live[k]) != r:
            m[r], m[i] = m[i], m[r].copy()
            level[r], level[i], live[k] = level[i], level[r], r
        row = m[r].copy() if level[r] == prev else m[r] * prev // level[r]
        p, touched = row[c], m.take(live, axis=0)
        m[live] = (touched * p - np.multiply.outer(touched[:, c], row)) // level.take(live)[:, None]
        m[r], level[live], prev = row, p, p
        pivots.append(c)
    old = (level != prev).nonzero()[0]  # the rows the last pivots skipped
    if len(old):
        m[old] = m.take(old, axis=0) * prev // level.take(old)[:, None]
    return m, prev, pivots


def rref(a):
    """Reduced row-echelon form; returns (R, pivot_columns)."""
    m, p, pivots = _echelon(scaled(a)[0])
    return boxed(m, p), pivots


def rank(a) -> int:
    return len(_echelon(scaled(a)[0])[2])


def kernel_scaled(m):
    """:func:`kernel_basis` of an integer matrix as a scaled pair (rows, p):
    the basis vectors are rows / p (p may be negative)."""
    m, p, pivots = _echelon(m)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), m.shape[1]), dtype=object)
    basis[range(len(free)), free] = p
    basis[:, pivots] = -m[:len(pivots), free].T
    return basis, p


def kernel_basis(a):
    """Basis (list of vectors) of the right null space of ``a``."""
    return list(boxed(*kernel_scaled(scaled(a)[0])))


def solve_scaled(a, b):
    """:func:`solve` on scaled pairs (an, ad), (bn, bd), eliminating the integer
    system [an bd | bn ad]: (x, p) with x / p a solution (p may be negative)."""
    (an, ad), (bn, bd) = a, b
    vec = np.ndim(bn) == 1
    rhs = bn.reshape(-1, 1) if vec else bn
    m, p, pivots = _echelon(np.concatenate([an * bd, rhs * ad], axis=1))
    n = an.shape[1]
    if any(c >= n for c in pivots):
        raise ValueError("inconsistent linear system")
    x = np.zeros((n, rhs.shape[1]), dtype=object)
    x[pivots] = m[:len(pivots), n:]
    return (x[:, 0] if vec else x), p


def solve(a, b):
    """Solve a x = b exactly (``b`` a vector or a matrix of right-hand sides;
    for a singular but consistent system, a particular solution); raises
    ValueError when inconsistent."""
    return boxed(*solve_scaled(scaled(a), scaled(b)))


def inverse_scaled(a):
    """:func:`inverse` of a scaled pair, as a canonical pair."""
    n, d = a
    if n.shape != (len(n), len(n)):
        raise ValueError("inverse needs a square matrix")
    try:  # [n | d I] is inconsistent exactly when n is singular
        return canonical(*solve_scaled((n, d), (np.eye(len(n), dtype=int).astype(object), 1)))
    except ValueError:
        raise ValueError("matrix is singular") from None


def inverse(a):
    return boxed(*inverse_scaled(scaled(a)))


def mat_to_json(a):
    return [[rational_str(x) for x in row] for row in np.asarray(a, dtype=object)]


def mat_from_json(rows):
    return qmat([[parse_rational(x) for x in row] for row in rows])
