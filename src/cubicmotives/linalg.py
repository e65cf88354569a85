"""Exact linear algebra over Q on numpy object arrays.

Dense matrices/vectors carry exact rationals (see :mod:`cubicmotives.rationals`)
in ``dtype=object`` arrays.  Every product goes through :func:`dot` or
:func:`tensordot`, which follow the common-denominator design of FLINT's
rational matrices: each operand is scaled once to Python integers over the
lcm of its denominators, the integers are contracted by ``np.dot`` or
``np.tensordot`` (exact, no overflow), and each output entry is divided once
by the product of the two denominators.  Object ``np.dot`` on rationals
would instead build and reduce a rational at every multiply-add.  The
eliminations below are plain fraction Gauss-Jordan: the matrices in this
package are small (rank <= 27) and exactness matters more than pivoting
strategy.
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


def is_zero(a) -> bool:
    return all(x == 0 for x in np.asarray(a, dtype=object).flat)


def mat_eq(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and all(x == y for x, y in zip(a.flat, b.flat))


def _scaled(a):
    """(n, d): an integer object array and one denominator with a = n / d."""
    a = np.asarray(a, dtype=object)
    pq = [(x.numerator, x.denominator) for x in a.flat]
    d = math.lcm(*(q for _, q in pq))
    n = np.array([p * (d // q) for p, q in pq], dtype=object)
    return n.reshape(a.shape), d


def _contract(contract, a, b, *args):
    """``contract`` applied to the scaled integer forms of a and b, with each
    output entry divided once by the product of the two denominators; a
    scalar or 0-d integer result comes back as a rational scalar."""
    na, da = _scaled(a)
    nb, db = _scaled(b)
    n, d = np.asarray(contract(na, nb, *args), dtype=object), da * db
    if n.ndim == 0:
        return QQ(n[()], d)
    return np.array([QQ(x, d) for x in n.flat], dtype=object).reshape(n.shape)


def tensordot(a, b, axes=1):
    """Exact ``np.tensordot`` of rational arrays over one common denominator
    per operand; a 0-d result comes back as a scalar."""
    return _contract(np.tensordot, a, b, axes)


def dot(a, b):
    """Exact matrix/vector product of 1- and 2-d arrays (``np.dot`` shapes);
    the integers go through ``np.dot``, which costs far less per call than
    ``np.tensordot`` on the small matrices that dominate here."""
    return _contract(np.dot, a, b)


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

