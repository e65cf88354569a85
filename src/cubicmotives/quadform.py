"""Exact quadratic spaces, finite isometry groups, and equivariant Witt theory.

Everything here is constructive and certified: each returned map is a matrix
over Q whose defining identities (isometry, equivariance, prescribed images)
can be — and in the test-suites are — checked exactly.

A form, a map or a group generator stores only its canonical scaled pair
(``scaled_gram``, ``scaled_matrix``; :func:`cubicmotives.linalg.scaled`), its
array read-only, and ``gram``/``matrix`` are its read-only ``Fraction`` views,
boxed on first read.  :meth:`GroupAction.conjugated` moves a group along a
unimodular basis change on integers.  Witt vectors are integer rows.

The central algorithm extends a G-equivariant isometry so that it matches a
prescribed isometry on a G-fixed nondegenerate subspace W, by composing with
reflections in G-fixed vectors:

* a reflection R_u with u fixed by G commutes with every element of G;
* for fixed anisotropic x, y with q(x) = q(y), either R_{x-y} or R_y . R_{x+y}
  maps x to y (q(x-y) + q(x+y) = 4 q(x) != 0, so one branch always applies);
* diagonalizing W (fraction-free Gram-Schmidt) and transporting its basis
  vectors one at a time keeps the previously placed vectors fixed, because
  every reflection vector used at step j is orthogonal to them.

The G-equivariant isometry between the orthogonal complements falls out by
restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, StructureError
from .linalg import (boxed, canonical, inverse_scaled, kernel_scaled, product, rank, readonly,
                     same, scaled, solve_scaled, zeros)


def _identity(n: int):
    return np.eye(n, dtype=int).astype(object), 1


class _Frozen:
    """Attributes set once, so a cached scaled form matches its array."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _of(cls, **attrs):
        obj = cls.__new__(cls)
        obj.__dict__.update(attrs)
        return obj


class QuadSpace(_Frozen):
    """Finite-dimensional Q-vector space with a symmetric bilinear form, stored
    as its canonical scaled form ``scaled_gram``; ``gram`` is the read-only
    ``Fraction`` view, boxed on first read."""

    def __init__(self, gram):
        g = np.asarray(gram, dtype=object)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise StructureError("Gram matrix must be square")
        n, d = scaled(g)
        if not np.array_equal(n, n.T):
            raise StructureError("Gram matrix must be symmetric")
        self.__dict__.update(scaled_gram=(readonly(n), d))

    @cached_property
    def gram(self) -> np.ndarray:
        return readonly(boxed(*self.scaled_gram))

    @property
    def dim(self) -> int:
        return self.scaled_gram[0].shape[0]

    def bilinear(self, x, y):
        return boxed(*product(scaled(x), self.scaled_gram, scaled(y)))

    def q(self, x):
        return self.bilinear(x, x)

    def is_nondegenerate(self) -> bool:
        return rank(self.scaled_gram[0]) == self.dim

    def restrict(self, basis) -> "QuadSpace":
        """Form restricted to the span of the given (ambient) vectors."""
        return self.restrict_scaled(scaled(np.stack(basis) if len(basis) else zeros(0, self.dim)))

    def restrict_scaled(self, rows) -> "QuadSpace":
        """Form restricted to the span of the rows of a scaled pair."""
        n, p = rows
        g, d = canonical(*product((n, p), self.scaled_gram, (n.T, p)))
        return QuadSpace._of(scaled_gram=(readonly(g), d))

    def complement_scaled(self, vectors):
        """:meth:`orthogonal_complement` as a scaled pair from one integer kernel."""
        v = scaled(np.stack(vectors) if len(vectors) else zeros(0, self.dim))[0]
        return kernel_scaled(np.dot(v, self.scaled_gram[0]))

    def orthogonal_complement(self, vectors):
        """Basis of the orthogonal complement of span(vectors)."""
        return list(boxed(*self.complement_scaled(vectors)))


class Isometry(_Frozen):
    """Exact isometry source -> target, acting on coordinates by y = M x, stored
    as its canonical scaled form ``scaled_matrix``; ``matrix`` is the read-only
    ``Fraction`` view, boxed on first read."""

    def __init__(self, source: QuadSpace, target: QuadSpace, matrix):
        n, d = scaled(matrix)
        self.__dict__.update(source=source, target=target, scaled_matrix=(readonly(n), d))

    @classmethod
    def from_scaled(cls, source: QuadSpace, target: QuadSpace, pair) -> "Isometry":
        n, d = canonical(*pair)
        return cls._of(source=source, target=target, scaled_matrix=(readonly(n), d))

    @cached_property
    def matrix(self) -> np.ndarray:
        return readonly(boxed(*self.scaled_matrix))

    def __call__(self, x):
        return boxed(*product(self.scaled_matrix, scaled(x)))

    def verify(self) -> bool:
        m = self.scaled_matrix
        return same(product((m[0].T, m[1]), self.target.scaled_gram, m), self.source.scaled_gram)

    def require_valid(self, what="map"):
        if self.scaled_matrix[0].shape != (self.target.dim, self.source.dim):
            raise StructureError(f"{what} has the wrong shape")
        if not self.verify():
            raise DomainError(f"{what} is not an isometry")

    def commutes(self, g1: "GroupAction", g2: "GroupAction") -> bool:
        """Whether the map commutes with each generator pair, hence with every
        word (an invertible map that does conjugates g1 onto g2)."""
        if len(g1.scaled_generators) != len(g2.scaled_generators):
            raise StructureError("generator lists must have equal length")
        m = self.scaled_matrix
        return all(same(product(m, m1), product(m2, m))
                   for m1, m2 in zip(g1.scaled_generators, g2.scaled_generators))

    def require_equivariant(self, g1: "GroupAction", g2: "GroupAction", what="map"):
        if not self.commutes(g1, g2):
            raise DomainError(f"{what} is not equivariant")

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other (other acts first)."""
        if other.target is not self.source and not same(other.target.scaled_gram,
                                                         self.source.scaled_gram):
            raise StructureError("isometries do not chain")
        return Isometry.from_scaled(other.source, self.target,
                                    product(self.scaled_matrix, other.scaled_matrix))

    def inverse(self) -> "Isometry":
        return Isometry.from_scaled(self.target, self.source, inverse_scaled(self.scaled_matrix))

    @classmethod
    def identity(cls, space: QuadSpace) -> "Isometry":
        return cls.from_scaled(space, space, _identity(space.dim))

    @classmethod
    def reflection(cls, space: QuadSpace, u) -> "Isometry":
        """Reflection z |-> z - 2<z,u>/q(u) u; needs q(u) != 0.  For u = n / d
        and Gram matrix g / e it is (Q - 2 n (g n)^T) / Q with Q = n^T g n."""
        return cls.from_scaled(space, space, _reflection(space, scaled(u)[0]))


def _reflection(space: QuadSpace, n):
    """:meth:`Isometry.reflection` in an integer row ``n``, as a scaled pair."""
    gn = np.dot(space.scaled_gram[0], n)
    qn = np.dot(n, gn)
    if qn == 0:
        raise DomainError("cannot reflect in an isotropic vector")
    return _identity(space.dim)[0] * qn - 2 * np.multiply.outer(n, gn), qn


def _key(pair) -> tuple:
    return pair[1], tuple(pair[0].flat)


def _closure(gens, dims, cap: int = 4096):
    """All products of generator tuples acting entrywise, as canonical scaled
    pairs: a BFS keyed on the first entry that raises when two words agree
    there but not on the rest, or when it exceeds ``cap`` elements."""
    ident = tuple(_identity(n) for n in dims)
    found = {_key(ident[0]): (ident, [_key(m) for m in ident[1:]])}
    frontier = [ident]
    while frontier:
        nxt = []
        for ms in frontier:
            for gs in gens:
                ps = tuple(canonical(*product(g, m)) for g, m in zip(gs, ms))
                k, rest = _key(ps[0]), [_key(p) for p in ps[1:]]
                if k in found:
                    if found[k][1] != rest:
                        raise DomainError("group actions are not aligned")
                    continue
                if len(found) >= cap:
                    raise DomainError("group not verifiably finite")
                found[k] = (ps, rest)
                nxt.append(ps)
        frontier = nxt
    return [ps for ps, _ in found.values()]


@dataclass(frozen=True, eq=False)
class GroupAction:
    """Finite group of isometries, kept as its generators' scaled pairs and
    its order; ``generators`` are boxed on first read."""

    space: QuadSpace
    scaled_generators: tuple
    order: int

    @classmethod
    def build(cls, space: QuadSpace, generators, cap: int = 4096) -> "GroupAction":
        gens = tuple((readonly(n), d) for n, d in map(scaled, generators))
        if not all(Isometry.from_scaled(space, space, g).verify() for g in gens):
            raise DomainError("group generator is not an isometry of the form")
        return cls(space, gens, len(_closure([(g,) for g in gens], [space.dim], cap)))

    def conjugated(self, s, s_inv) -> "GroupAction":
        """The group in the basis of the columns of a unimodular integer ``s``
        (inverse ``s_inv``): form s^T G s, generators s^-1 g s, the same order."""
        gens = (canonical(*product((s_inv, 1), g, (s, 1))) for g in self.scaled_generators)
        return GroupAction(self.space.restrict_scaled((s.T, 1)),
                           tuple((readonly(n), d) for n, d in gens), self.order)

    @classmethod
    def trivial(cls, space: QuadSpace) -> "GroupAction":
        return cls.build(space, [])

    @cached_property
    def generators(self) -> tuple:
        return tuple(readonly(boxed(*m)) for m in self.scaled_generators)

    def fixes(self, v) -> bool:
        sv = scaled(v)
        return all(same(product(g, sv), sv) for g in self.scaled_generators)


def aligned_elements(g1: GroupAction, g2: GroupAction):
    """Pair up elements of two actions generator-by-generator.

    The i-th generator of g1 corresponds to the i-th generator of g2; the
    correspondence extends to all elements when the two actions satisfy the
    same relations, and an error is raised when they do not.
    """
    if len(g1.scaled_generators) != len(g2.scaled_generators):
        raise StructureError("generator lists must have equal length")
    pairs = _closure(list(zip(g1.scaled_generators, g2.scaled_generators)),
                     [g1.space.dim, g2.space.dim])
    # a bijection: as many distinct second entries as pairs, and both groups whole
    if not len({_key(m2) for _, m2 in pairs}) == len(pairs) == g1.order == g2.order:
        raise DomainError("group actions are not aligned")
    return [(boxed(*m1), boxed(*m2)) for m1, m2 in pairs]


def reflect_to(space: QuadSpace, x, y) -> Isometry:
    """Isometry of V with x |-> y, for anisotropic x, y of equal length.

    Product of at most two reflections in vectors from span{x, y}; in
    particular it fixes the orthogonal complement of span{x, y} pointwise.
    Works on the integer rows of x and y over one common denominator.
    """
    (xn, xd), (yn, yd) = scaled(x), scaled(y)
    xn, yn = xn * yd, yn * xd
    return Isometry.from_scaled(space, space, _reflect_rows(space, xn, yn))


def _reflect_rows(space: QuadSpace, xn, yn):
    """:func:`reflect_to` on integer rows xn, yn, as a scaled pair."""
    g = space.scaled_gram[0]
    qx = np.dot(np.dot(xn, g), xn)
    if qx != np.dot(np.dot(yn, g), yn):
        raise DomainError("vectors must have the same length")
    if qx == 0:
        raise DomainError("vectors must be anisotropic")
    if np.array_equal(xn, yn):
        return _identity(space.dim)
    diff = xn - yn
    if np.dot(np.dot(diff, g), diff) != 0:
        return _reflection(space, diff)
    # q(x-y) + q(x+y) = 4 q(x) != 0, so x+y is anisotropic: x |-> -y |-> y
    return product(_reflection(space, yn), _reflection(space, xn + yn))


def _orthogonalize(space: QuadSpace, rows):
    """Orthogonal basis of the span of integer rows, all q-values nonzero,
    as integer rows.

    Fraction-free Gram-Schmidt with anisotropic pivot selection: take the
    first remaining row w with q(w) != 0, otherwise some v_i + v_j with
    <v_i, v_j> != 0; if neither exists the span is degenerate.  Each remaining
    row v becomes q(w) v - <v, w> w over its own content, a multiple of the
    Fraction projection with entries as small; without the division they grow
    exponentially (Erlingsson, Kaltofen and Musser, ISSAC 1996).  A pair pivot
    after a projection sums rows of unrelated scales, so from there the basis
    need not be a rescaling of the Fraction route's.
    """
    g = space.scaled_gram[0]
    remaining, out = list(rows), []
    while remaining:
        pivot = next((i for i, v in enumerate(remaining) if np.dot(np.dot(v, g), v) != 0), None)
        if pivot is not None:
            w = remaining.pop(pivot)
        else:
            pair = next(((i, j) for i in range(len(remaining)) for j in range(i + 1, len(remaining))
                         if np.dot(np.dot(remaining[i], g), remaining[j]) != 0), None)
            if pair is None:
                raise DomainError("unsupported: degenerate complement")
            i, j = pair
            # keep v_j: the projection below makes it orthogonal to w
            w = remaining[i] + remaining[j]
            del remaining[i]
        gw = np.dot(g, w)
        qw = np.dot(w, gw)
        projected = (v * qw - w * np.dot(v, gw) for v in remaining)
        remaining = [v // (math.gcd(*v) or 1) for v in projected]
        out.append(w)
    return np.array(out, dtype=object).reshape(len(out), space.dim)


@dataclass(frozen=True, eq=False)
class WittResult:
    """Certified output of :func:`equivariant_witt`.

    ``full``          G-equivariant isometry V1 -> V2 mapping span W1 onto
                      span W2 compatibly with psi_W,
    ``restriction``   the induced isometry between the orthogonal complements,
                      in the coordinates of ``u1_basis`` / ``u2_basis``,
    ``u1_scaled``     the complement bases as scaled pairs (integer rows, one
    ``u2_scaled``     denominator); ``u1_basis`` / ``u2_basis`` are their
                      lists of rational vectors, boxed on first read.
    """

    full: Isometry
    restriction: Isometry
    u1_scaled: tuple
    u2_scaled: tuple

    @cached_property
    def u1_basis(self) -> list:
        return list(boxed(*self.u1_scaled))

    @cached_property
    def u2_basis(self) -> list:
        return list(boxed(*self.u2_scaled))


def equivariant_witt(g1: GroupAction, w1_basis, g2: GroupAction, w2_basis,
                     phi_v: Isometry, psi_w: Isometry) -> WittResult:
    """Equivariant Witt extension: from a G-equivariant isometry V1 -> V2 and
    an isometry of G-fixed nondegenerate subspaces W1 -> W2, produce a
    G-equivariant isometry carrying W1 to W2 as prescribed, and with it the
    induced equivariant isometry of the orthogonal complements.

    ``w1_basis`` / ``w2_basis`` are ambient vectors; ``psi_w`` is an isometry
    of the restricted spaces in those coordinates.  ``phi_v`` must be
    invertible and commute with each generator pair, which makes the two
    actions conjugate.  Degenerate W is rejected ("unsupported: degenerate
    complement").
    """
    v1, v2 = g1.space, g2.space
    w1, w2 = list(w1_basis), list(w2_basis)
    if len(w1) != len(w2):
        raise StructureError("W1 and W2 must have equal dimension")
    if not all(map(g1.fixes, w1)):
        raise DomainError("W1 is not contained in the G-fixed subspace")
    if not all(map(g2.fixes, w2)):
        raise DomainError("W2 is not contained in the G-fixed subspace")
    rw1, rw2 = v1.restrict(w1), v2.restrict(w2)
    if len(w1) and not rw1.is_nondegenerate():
        raise DomainError("unsupported: degenerate complement")
    if not same(psi_w.source.scaled_gram, rw1.scaled_gram) \
            or not same(psi_w.target.scaled_gram, rw2.scaled_gram):
        raise StructureError("psi_W must map (W1, form) to (W2, form)")
    psi_w.require_valid("psi_W")
    phi_v.require_valid("phi_V")
    if not same(phi_v.source.scaled_gram, v1.scaled_gram) \
            or not same(phi_v.target.scaled_gram, v2.scaled_gram):
        raise StructureError("phi_V must map V1 to V2")
    phi = phi_v.scaled_matrix
    if v1.dim != v2.dim or rank(phi[0]) != v1.dim:
        raise DomainError("phi_V is not invertible")
    phi_v.require_equivariant(g1, g2, "phi_V")

    # orthogonalize W1 on integer rows B; W1^T c = B^T, and W2 psi_W c are the targets
    (w1n, w1d), (w2n, w2d) = (scaled(np.stack(w) if w else zeros(0, v1.dim)) for w in (w1, w2))
    basis = _orthogonalize(v1, w1n)
    tn, td = product((w2n.T, w2d), psi_w.scaled_matrix, solve_scaled((w1n.T, w1d), (basis.T, 1)))
    for b, t in zip(basis, tn.T):
        yn, yd = product(phi, (b, 1))
        if not same((yn, yd), (t, td)):
            phi = product(canonical(*_reflect_rows(v2, yn * td, t * yd)), phi)
            if not same(product(phi, (b, 1)), (t, td)):
                raise DomainError("extended map misses the prescribed image")

    full = Isometry.from_scaled(v1, v2, phi)
    full.require_valid("extended map")

    # complements as integer rows over one denominator; U2^T c = phi U1^T
    u1, u2 = v1.complement_scaled(w1), v2.complement_scaled(w2)
    coords = solve_scaled((u2[0].T, u2[1]), product(phi, (u1[0].T, u1[1])))
    restriction = Isometry.from_scaled(v1.restrict_scaled(u1), v2.restrict_scaled(u2), coords)
    restriction.require_valid("restricted map")
    return WittResult(full, restriction, u1, u2)
