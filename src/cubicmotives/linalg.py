"""Exact linear algebra over Q on numpy object arrays.

Dense matrices/vectors carry exact rationals (see :mod:`cubicmotives.rationals`)
in ``dtype=object`` arrays.  Every product goes through :func:`dot`, which
follows the common-denominator design of FLINT's rational matrices: each
operand is scaled once (:func:`scaled`) to Python integers over the lcm of its
denominators, the integers are contracted by ``np.dot`` (exact, no overflow),
and each output entry is divided once by the product of the two denominators
(:func:`boxed`).  Object ``np.dot`` on rationals would instead build and
reduce a rational at every multiply-add.  The realization engine keeps its
tensors in the scaled form throughout and uses the same two conversions at
its boundary.  The eliminations below are plain fraction Gauss-Jordan: the
matrices in this package are small (rank <= 27) and exactness matters more
than pivoting strategy.
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
    """The rationals n / d of an integer array (or scalar) and one positive
    denominator, one division per entry; a 0-d result is a scalar."""
    n = np.asarray(n, dtype=object)
    if n.ndim == 0:
        return QQ(n[()], d)
    return np.array([QQ(x, d) for x in n.flat], dtype=object).reshape(n.shape)


def dot(a, b):
    """Exact matrix/vector product of 1- and 2-d arrays (``np.dot`` shapes):
    ``np.dot`` on the scaled integer forms, boxed once over the product of
    the two denominators; a scalar result comes back as a rational."""
    na, da = scaled(a)
    nb, db = scaled(b)
    return boxed(np.dot(na, nb), da * db)


def rref(a):
    """Reduced row-echelon form; returns (R, pivot_columns)."""
    m = np.array(a, dtype=object, copy=True)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i, c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = m[r] * (QQ(1) / QQ(m[r, c]))
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = m[i] - m[i, c] * m[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a) -> int:
    return len(rref(a)[1])


def kernel_basis(a):
    """Basis (list of vectors) of the right null space of ``a``."""
    m, pivots = rref(a)
    cols = m.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = zeros(cols)
        v[f] = QQ(1)
        for r, p in enumerate(pivots):
            v[p] = -m[r, f]
        basis.append(v)
    return basis


def solve(a, b):
    """Solve a x = b exactly; raises ValueError when inconsistent.

    ``b`` may be a vector or a matrix of right-hand sides.  For singular but
    consistent systems an arbitrary particular solution is returned.
    """
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    vec = b.ndim == 1
    rhs = b.reshape(-1, 1) if vec else b
    aug = np.concatenate([a, rhs], axis=1)
    m, pivots = rref(aug)
    n = a.shape[1]
    if any(p >= n for p in pivots):
        raise ValueError("inconsistent linear system")
    x = zeros(n, rhs.shape[1])
    for r, p in enumerate(pivots):
        x[p] = m[r, n:]
    return x[:, 0] if vec else x


def inverse(a):
    a = np.asarray(a, dtype=object)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("inverse needs a square matrix")
    m, pivots = rref(np.concatenate([a, eye(n)], axis=1))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return m[:, n:]


def mat_to_json(a):
    return [[rational_str(x) for x in row] for row in np.asarray(a, dtype=object)]


def mat_from_json(rows):
    return qmat([[parse_rational(x) for x in row] for row in rows])

