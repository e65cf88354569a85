"""Truncated polynomial rings Q[h]/(h^{d+1}) and characteristic-class calculus.

A smooth degree-e hypersurface X in P^{d+1} has tautological ring generated by
the hyperplane class h with h^{d+1} = 0 and integral(h^d) = e.  All Chern /
Todd / Mukai-vector computations below happen in this ring with exact rational
coefficients.  K3 surfaces are carried by the same machinery with d = 2 and
integral(h^2) = deg(S); their tangent Chern class is the classical
1 + 24.pt rather than an adjunction formula, which is the only place the two
kinds diverge.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import DomainError, ShadowViolation, StructureError
from .rationals import QQ

HYPERSURFACE = "hypersurface"
K3 = "k3"


@dataclass(frozen=True)
class VarietyData:
    """Numerical invariants of the underlying variety.

    dim          complex dimension d (top h-power)
    ambient_dim  m for an embedding X in P^m (dim + 1 for hypersurfaces)
    degree       e = integral of h^dim
    kind         "hypersurface" or "k3"
    """

    dim: int
    ambient_dim: int
    degree: int
    kind: str = HYPERSURFACE

    def __post_init__(self):
        if self.kind not in (HYPERSURFACE, K3):
            raise StructureError(f"unknown variety kind {self.kind!r}")
        if self.kind == HYPERSURFACE and self.dim != self.ambient_dim - 1:
            raise StructureError("a hypersurface in P^m has dimension m-1")
        if self.kind == K3 and self.dim != 2:
            raise StructureError("k3 kind requires dim = 2")
        if self.degree <= 0 or self.dim <= 0:
            raise StructureError("dim and degree must be positive")

    @classmethod
    def cubic_fourfold(cls) -> "VarietyData":
        return cls(dim=4, ambient_dim=5, degree=3)

    @classmethod
    def k3(cls, degree: int = 2) -> "VarietyData":
        """K3 surface with integral(h^2) = degree."""
        return cls(dim=2, ambient_dim=3, degree=degree, kind=K3)


# ---------------------------------------------------------------------------
# dense truncated power-series helpers on plain rational lists
# ---------------------------------------------------------------------------

def _ser_mul(a, b, n):
    out = [QQ(0)] * n
    for i, ai in enumerate(a[:n]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: n - i]):
            if bj != 0:
                out[i + j] += ai * bj
    return out


def _ser_inv(a, n):
    if a[0] == 0:
        raise DomainError("series inverse needs a unit constant term")
    inv0 = QQ(1) / QQ(a[0])
    out = [QQ(0)] * n
    out[0] = inv0
    for k in range(1, n):
        s = QQ(0)
        for i in range(1, min(k, len(a) - 1) + 1):
            s += a[i] * out[k - i]
        out[k] = -inv0 * s
    return out


def _ser_exp(a, n):
    if a[0] != 0:
        raise DomainError("series exp needs zero constant term")
    out = [QQ(0)] * n
    out[0] = QQ(1)
    # exp' = a' . exp  =>  k.out[k] = sum_{i>=1} i.a[i].out[k-i]
    for k in range(1, n):
        s = QQ(0)
        for i in range(1, min(k, len(a) - 1) + 1):
            s += QQ(i) * a[i] * out[k - i]
        out[k] = s / QQ(k)
    return out


def _ser_log(a, n):
    if a[0] != 1:
        raise DomainError("series log needs constant term 1")
    # log(a)' = a'/a
    da = [QQ(i) * a[i] for i in range(1, min(n, len(a)))]
    da += [QQ(0)] * (n - 1 - len(da))
    quot = _ser_mul(da, _ser_inv(list(a[:n]) + [QQ(0)] * (n - len(a)), n - 1), n - 1)
    out = [QQ(0)] * n
    for k in range(1, n):
        out[k] = quot[k - 1] / QQ(k)
    return out


@dataclass(frozen=True)
class TruncPoly:
    """Element of Q[h]/(h^{dim+1}) over a fixed :class:`VarietyData`."""

    vd: VarietyData
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.vd.dim + 1:
            raise StructureError("coefficient list must have length dim + 1")
        object.__setattr__(self, "coeffs", tuple(QQ(c) for c in self.coeffs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coeffs(cls, vd, coeffs) -> "TruncPoly":
        cs = list(coeffs) + [QQ(0)] * (vd.dim + 1 - len(list(coeffs)))
        return cls(vd, tuple(cs[: vd.dim + 1]))

    @classmethod
    def one(cls, vd) -> "TruncPoly":
        return cls.from_coeffs(vd, [QQ(1)])

    @classmethod
    def h_power(cls, vd, k, coeff=1) -> "TruncPoly":
        cs = [QQ(0)] * (vd.dim + 1)
        if 0 <= k <= vd.dim:
            cs[k] = QQ(coeff)
        return cls(vd, tuple(cs))

    @classmethod
    def exp_h(cls, vd, t) -> "TruncPoly":
        """exp(t.h), exact since h is nilpotent."""
        t = QQ(t)
        return cls(vd, tuple(t ** k / QQ(factorial(k)) for k in range(vd.dim + 1)))

    # -- ring structure ----------------------------------------------------

    def _check(self, other):
        if self.vd != other.vd:
            raise StructureError("operands live over different varieties")

    def __add__(self, other):
        self._check(other)
        return TruncPoly(self.vd, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return TruncPoly(self.vd, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return TruncPoly(self.vd, tuple(-a for a in self.coeffs))

    def scale(self, t) -> "TruncPoly":
        t = QQ(t)
        return TruncPoly(self.vd, tuple(t * a for a in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, TruncPoly):
            return self.scale(other)
        self._check(other)
        n = self.vd.dim + 1
        return TruncPoly(self.vd, tuple(_ser_mul(self.coeffs, other.coeffs, n)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = TruncPoly.one(self.vd)
        for _ in range(k):
            out = out * self
        return out

    def inverse(self) -> "TruncPoly":
        return TruncPoly(self.vd, tuple(_ser_inv(self.coeffs, self.vd.dim + 1)))

    def sqrt_unit(self) -> "TruncPoly":
        """The unique square root with constant term 1 (needs c0 = 1)."""
        n = self.vd.dim + 1
        half_log = [c / QQ(2) for c in _ser_log(self.coeffs, n)]
        return TruncPoly(self.vd, tuple(_ser_exp(half_log, n)))

    # -- inspection --------------------------------------------------------

    def __getitem__(self, k):
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def integrate(a: TruncPoly):
    """integral_X : pick the h^dim coefficient times deg(X)."""
    return QQ(a.vd.degree) * a.coeffs[a.vd.dim]


def dual(a: TruncPoly) -> TruncPoly:
    """Degreewise sign involution sum_i (-1)^i a_i on H^{2i}."""
    return TruncPoly(a.vd, tuple(c if i % 2 == 0 else -c for i, c in enumerate(a.coeffs)))


def tangent_chern(vd: VarietyData) -> TruncPoly:
    """Total Chern class of the tangent bundle.

    Hypersurfaces use the Euler-sequence quotient
    (1+h)^{ambient+1} / (1 + e.h); the K3 case returns the classical
    1 + 24.pt with pt normalized so that integral(pt) = 1.
    """
    if vd.kind == K3:
        pt = TruncPoly.h_power(vd, 2, QQ(1, vd.degree))
        return TruncPoly.one(vd) + pt.scale(24)
    n = vd.dim + 1
    amb = [QQ(_binom(vd.ambient_dim + 1, k)) for k in range(n)]
    quot = [QQ(1)] + [QQ(0)] * (n - 1)
    quot[1] = QQ(vd.degree)
    return TruncPoly(vd, tuple(_ser_mul(amb, _ser_inv(quot, n), n)))


def _binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def _todd_log_coeffs(n):
    """Coefficients a_k of log(x / (1 - e^{-x})) up to degree n-1."""
    # (1 - e^{-x})/x = sum_{m>=0} (-1)^m x^m / (m+1)!
    g = [QQ(-1) ** m / QQ(factorial(m + 1)) for m in range(n)]
    return _ser_log(_ser_inv(g, n), n)


def todd_and_sqrt(c: TruncPoly):
    """Todd class and its unit square root from a total Chern class.

    Splits c into Chern roots formally: Newton's identities turn the
    elementary symmetric functions c_i into power sums p_k, the universal
    series log(x/(1-e^{-x})) is summed over the roots, and both td and
    sqrt(td) come out of one exact exponential.  Returns (td, sqrt_td).
    """
    if c.coeffs[0] != 1:
        raise DomainError("total Chern class must have constant term 1")
    d = c.vd.dim
    e_sym = list(c.coeffs)
    p = [QQ(0)] * (d + 1)  # power sums; p[k] is the h^k coefficient
    for k in range(1, d + 1):
        s = QQ(-1) ** (k - 1) * QQ(k) * e_sym[k]
        for i in range(1, k):
            s += QQ(-1) ** (i - 1) * e_sym[i] * p[k - i]
        p[k] = s
    a = _todd_log_coeffs(d + 1)
    log_td = [a[k] * p[k] for k in range(d + 1)]
    log_td[0] = QQ(0)
    td = TruncPoly(c.vd, tuple(_ser_exp(log_td, d + 1)))
    root = TruncPoly(c.vd, tuple(_ser_exp([x / QQ(2) for x in log_td], d + 1)))
    if root * root != td:  # pragma: no cover - defensive
        raise ShadowViolation("square root of Todd class failed to square back")
    return td, root


def mukai_vector_line(vd: VarietyData, i: int) -> TruncPoly:
    """Mukai vector v(O(i)) = exp(i.h) . sqrt(td T_X)."""
    _, root = todd_and_sqrt(tangent_chern(vd))
    return TruncPoly.exp_h(vd, i) * root
