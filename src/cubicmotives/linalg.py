"""Exact linear algebra over Q on numpy object arrays.

Dense matrices/vectors carry exact rationals (see :mod:`cubicmotives.rationals`)
in ``dtype=object`` arrays.  The arithmetic follows FLINT's common-denominator
rational matrices: a matrix is scaled once (:func:`scaled`) to Python integers
over one denominator, multiplied (:func:`product`) and compared (:func:`same`)
as such pairs, so a cached scaled form is never re-scaled, and boxed back once
per entry (:func:`boxed`) only where a rational result is handed out;
:func:`dot` is the rational front end of a chain.  The eliminations are
fraction-free Gauss-Jordan on the numerators: at pivot p every other row
becomes (p row - f pivot_row) // previous_pivot, exact since every entry is a
minor of the input (Bareiss 1968), and one final division per entry.
"""

from __future__ import annotations

import math

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
    gcd(d, every entry of n) = 1."""
    a = np.asarray(a, dtype=object)
    pq = [(x.numerator, x.denominator) for x in a.flat]
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


def canonical(n, d):
    """n / d in lowest terms (d > 0, gcd(d, n) = 1), equal for equal values."""
    g = math.gcd(d, *np.asarray(n).flat) * (1 if d > 0 else -1)
    return (n // g, d // g) if g != 1 else (n, d)


def product(*pairs):
    """Scaled pair of the left-to-right (``np.dot``) product of scaled pairs."""
    n, d = pairs[0]
    for m, e in pairs[1:]:
        n, d = np.dot(n, m), d * e
    return n, d


def same(a, b) -> bool:
    """Exact equality of two scaled pairs: equal shapes and n1 d2 == n2 d1."""
    (n1, d1), (n2, d2) = a, b
    return np.shape(n1) == np.shape(n2) and bool(np.all(n1 * d2 == n2 * d1))


def dot(*operands):
    """Exact product of a left-to-right chain of 1- and 2-d arrays (``np.dot``
    shapes): each operand scaled once, ``np.dot`` on the integers, the result
    boxed once; a scalar result comes back as a rational."""
    return boxed(*product(*(scaled(a) for a in operands)))


def _echelon(a):
    """Fraction-free Gauss-Jordan: (m, p, pivot_columns) with m / p the
    reduced row-echelon form of the rational matrix ``a`` (p may be negative)."""
    m = scaled(a)[0]
    rows, cols = m.shape
    pivots, prev = [], 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if not len(nz):
            continue
        m[[r, r + nz[0]]] = m[[r + nz[0], r]]
        p, row = m[r, c], m[r]
        m = (m * p - np.multiply.outer(m[:, c], row)) // prev  # row r becomes 0 here
        m[r], prev = row, p
        pivots.append(c)
    return m, prev, pivots


def rref(a):
    """Reduced row-echelon form; returns (R, pivot_columns)."""
    m, p, pivots = _echelon(a)
    return boxed(m, p), pivots


def rank(a) -> int:
    return len(_echelon(a)[2])


def kernel_basis(a):
    """Basis (list of vectors) of the right null space of ``a``."""
    m, p, pivots = _echelon(a)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), m.shape[1]), dtype=object)
    basis[range(len(free)), free] = p
    basis[:, pivots] = -m[:len(pivots), free].T
    return list(boxed(basis, p))


def solve(a, b):
    """Solve a x = b exactly; raises ValueError when inconsistent.

    ``b`` may be a vector or a matrix of right-hand sides.  For singular but
    consistent systems an arbitrary particular solution is returned.
    """
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    vec = b.ndim == 1
    rhs = b.reshape(-1, 1) if vec else b
    m, p, pivots = _echelon(np.concatenate([a, rhs], axis=1))
    n = a.shape[1]
    if any(c >= n for c in pivots):
        raise ValueError("inconsistent linear system")
    x = np.zeros((n, rhs.shape[1]), dtype=object)
    x[pivots] = m[:len(pivots), n:]
    x = boxed(x, p)
    return x[:, 0] if vec else x


def inverse(a):
    a = np.asarray(a, dtype=object)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("inverse needs a square matrix")
    m, p, pivots = _echelon(np.concatenate([a, eye(n)], axis=1))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return boxed(m[:, n:], p)


def mat_to_json(a):
    return [[rational_str(x) for x in row] for row in np.asarray(a, dtype=object)]


def mat_from_json(rows):
    return qmat([[parse_rational(x) for x in row] for row in rows])
