"""Exact quadratic spaces, finite isometry groups, and equivariant Witt theory.

Everything here is constructive and certified: each returned map is a matrix
over Q whose defining identities (isometry, equivariance, prescribed images)
can be — and in the test-suites are — checked exactly.

The central algorithm extends a G-equivariant isometry so that it matches a
prescribed isometry on a G-fixed nondegenerate subspace W, by composing with
reflections in G-fixed vectors:

* a reflection R_u with u fixed by G commutes with every element of G;
* for fixed anisotropic x, y with q(x) = q(y), either R_{x-y} or R_y . R_{x+y}
  maps x to y (q(x-y) + q(x+y) = 4 q(x) != 0, so one branch always applies);
* diagonalizing W and transporting its basis vectors one at a time keeps the
  previously placed vectors fixed, because every reflection vector used at
  step j is orthogonal to them.

The G-equivariant isometry between the orthogonal complements falls out by
restriction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError
from .linalg import (
    dot,
    eye,
    kernel_basis,
    mat_eq,
    qvec,
    rank,
    solve,
    zeros,
)
from .rationals import QQ


@dataclass(frozen=True, eq=False)
class QuadSpace:
    """Finite-dimensional Q-vector space with a symmetric bilinear form."""

    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=object)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise StructureError("Gram matrix must be square")
        if not mat_eq(g, g.T):
            raise StructureError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", g)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def bilinear(self, x, y):
        return dot(dot(x, self.gram), y)

    def q(self, x):
        return self.bilinear(x, x)

    def is_nondegenerate(self) -> bool:
        return rank(self.gram) == self.dim

    def restrict(self, basis) -> "QuadSpace":
        """Form restricted to the span of the given (ambient) vectors."""
        b = np.stack(basis, axis=1) if basis else zeros(self.dim, 0)
        return QuadSpace(dot(b.T, dot(self.gram, b)))

    def orthogonal_complement(self, vectors):
        """Basis of the orthogonal complement of span(vectors)."""
        if not len(vectors):
            return [row for row in eye(self.dim)]
        b = np.stack(vectors, axis=0)
        return kernel_basis(dot(b, self.gram))


@dataclass(frozen=True, eq=False)
class Isometry:
    """Exact isometry source -> target, acting on coordinates by y = M x."""

    source: QuadSpace
    target: QuadSpace
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=object))

    def __call__(self, x):
        return dot(self.matrix, x)

    def verify(self) -> bool:
        m = self.matrix
        return mat_eq(dot(m.T, dot(self.target.gram, m)), self.source.gram)

    def require_valid(self, what="map"):
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise StructureError(f"{what} has the wrong shape")
        if not self.verify():
            raise DomainError(f"{what} is not an isometry")

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other (other acts first)."""
        if other.target is not self.source and not mat_eq(other.target.gram, self.source.gram):
            raise StructureError("isometries do not chain")
        return Isometry(other.source, self.target, dot(self.matrix, other.matrix))

    def inverse(self) -> "Isometry":
        from .linalg import inverse

        return Isometry(self.target, self.source, inverse(self.matrix))

    @classmethod
    def identity(cls, space: QuadSpace) -> "Isometry":
        return cls(space, space, eye(space.dim))

    @classmethod
    def reflection(cls, space: QuadSpace, u) -> "Isometry":
        """Reflection z |-> z - 2<z,u>/q(u) u; needs q(u) != 0."""
        qu = space.q(u)
        if qu == 0:
            raise DomainError("cannot reflect in an isotropic vector")
        gu = dot(space.gram, u)
        m = eye(space.dim) - np.outer(u, gu) * (QQ(2) / qu)
        return cls(space, space, m)


def _key(m) -> tuple:
    return tuple((x.numerator, x.denominator) for x in np.asarray(m, dtype=object).flat)


def group_closure(space: QuadSpace, generators, cap: int = 4096):
    """All products of the generators, as matrices; BFS with a size cap.

    Every generator must be an isometry of the space.  Raises when the closure
    exceeds ``cap``, since then the group is not verifiably finite.
    """
    gens = [np.asarray(g, dtype=object) for g in generators]
    for g in gens:
        if not mat_eq(dot(g.T, dot(space.gram, g)), space.gram):
            raise DomainError("group generator is not an isometry of the form")
    ident = eye(space.dim)
    elements = [ident]
    seen = {_key(ident)}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = dot(g, m)
                k = _key(p)
                if k not in seen:
                    if len(elements) >= cap:
                        raise DomainError("group not verifiably finite")
                    seen.add(k)
                    elements.append(p)
                    nxt.append(p)
        frontier = nxt
    return elements


@dataclass(frozen=True, eq=False)
class GroupAction:
    """Finite group of isometries, closed under products."""

    space: QuadSpace
    generators: tuple
    elements: list

    @classmethod
    def build(cls, space: QuadSpace, generators) -> "GroupAction":
        gens = tuple(np.asarray(g, dtype=object) for g in generators)
        return cls(space, gens, group_closure(space, gens))

    @classmethod
    def trivial(cls, space: QuadSpace) -> "GroupAction":
        return cls.build(space, [])

    @property
    def order(self) -> int:
        return len(self.elements)

    def fixes(self, v) -> bool:
        return all(mat_eq(dot(g, v), np.asarray(v)) for g in self.generators)


def aligned_elements(g1: GroupAction, g2: GroupAction):
    """Pair up elements of two actions generator-by-generator.

    The i-th generator of g1 corresponds to the i-th generator of g2; the
    correspondence extends to all elements when the two actions satisfy the
    same relations, and an error is raised when they do not.
    """
    if len(g1.generators) != len(g2.generators):
        raise StructureError("generator lists must have equal length")
    ident = (eye(g1.space.dim), eye(g2.space.dim))
    pairs = {_key(ident[0]): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m1, m2 in frontier:
            for a1, a2 in zip(g1.generators, g2.generators):
                p1, p2 = dot(a1, m1), dot(a2, m2)
                k = _key(p1)
                if k in pairs:
                    if _key(pairs[k][1]) != _key(p2):
                        raise DomainError("group actions are not aligned")
                else:
                    pairs[k] = (p1, p2)
                    nxt.append((p1, p2))
        frontier = nxt
    if len(pairs) != g1.order or len({_key(m2) for _, m2 in pairs.values()}) != g2.order:
        raise DomainError("group actions are not aligned")
    return list(pairs.values())


def reflect_to(space: QuadSpace, x, y) -> Isometry:
    """Isometry of V with x |-> y, for anisotropic x, y of equal length.

    Product of at most two reflections in vectors from span{x, y}; in
    particular it fixes the orthogonal complement of span{x, y} pointwise.
    """
    x = np.asarray(x, dtype=object)
    y = np.asarray(y, dtype=object)
    qx, qy = space.q(x), space.q(y)
    if qx != qy:
        raise DomainError("vectors must have the same length")
    if qx == 0:
        raise DomainError("vectors must be anisotropic")
    if mat_eq(x, y):
        return Isometry.identity(space)
    diff = x - y
    if space.q(diff) != 0:
        return Isometry.reflection(space, diff)
    # q(x-y) + q(x+y) = 4 q(x) != 0, so x+y is anisotropic here
    first = Isometry.reflection(space, x + y)  # x |-> -y
    return Isometry.reflection(space, y).compose(first)  # -y |-> y


def _orthogonalize(space: QuadSpace, vectors):
    """Orthogonal basis of span(vectors) with all q-values nonzero.

    Gram-Schmidt with anisotropic pivot selection: take the first remaining
    vector with q != 0, otherwise some v_i + v_j with <v_i, v_j> != 0; if
    neither exists the span is degenerate.  Returns (basis, coeffs) with
    coeffs expressing each output in terms of the input vectors.
    """
    remaining = [np.asarray(v, dtype=object) for v in vectors]
    n = len(remaining)
    coords = [qvec([QQ(1) if j == i else QQ(0) for j in range(n)]) for i in range(n)]
    out, out_coords = [], []
    while remaining:
        pivot = next((i for i, v in enumerate(remaining) if space.q(v) != 0), None)
        if pivot is not None:
            w, wc = remaining.pop(pivot), coords.pop(pivot)
        else:
            pair = next(
                ((i, j) for i in range(len(remaining)) for j in range(i + 1, len(remaining))
                 if space.bilinear(remaining[i], remaining[j]) != 0),
                None,
            )
            if pair is None:
                raise DomainError("unsupported: degenerate complement")
            i, j = pair
            # keep v_j: the projection below makes it orthogonal to w
            w = remaining[i] + remaining[j]
            wc = coords[i] + coords[j]
            del remaining[i], coords[i]
        qw = space.q(w)
        for k in range(len(remaining)):
            t = space.bilinear(remaining[k], w) / qw
            remaining[k] = remaining[k] - w * t
            coords[k] = coords[k] - wc * t
        out.append(w)
        out_coords.append(wc)
    return out, out_coords


@dataclass(frozen=True, eq=False)
class WittResult:
    """Certified output of :func:`equivariant_witt`.

    ``full``         G-equivariant isometry V1 -> V2 mapping span W1 onto
                     span W2 compatibly with psi_W,
    ``restriction``  the induced isometry between the orthogonal complements,
                     in the coordinates of ``u1_basis`` / ``u2_basis``,
    ``pairs``        the aligned group elements (:func:`aligned_elements`)
                     that phi_V was checked to intertwine.
    """

    full: Isometry
    restriction: Isometry
    u1_basis: list
    u2_basis: list
    pairs: list


def equivariant_witt(g1: GroupAction, w1_basis, g2: GroupAction, w2_basis,
                     phi_v: Isometry, psi_w: Isometry) -> WittResult:
    """Equivariant Witt extension: from a G-equivariant isometry V1 -> V2 and
    an isometry of G-fixed nondegenerate subspaces W1 -> W2, produce a
    G-equivariant isometry carrying W1 to W2 as prescribed, and with it the
    induced equivariant isometry of the orthogonal complements.

    ``w1_basis`` / ``w2_basis`` are ambient vectors; ``psi_w`` is an isometry
    of the restricted spaces in those coordinates.  Degenerate W is rejected
    ("unsupported: degenerate complement").
    """
    v1, v2 = g1.space, g2.space
    w1 = [np.asarray(w, dtype=object) for w in w1_basis]
    w2 = [np.asarray(w, dtype=object) for w in w2_basis]
    if len(w1) != len(w2):
        raise StructureError("W1 and W2 must have equal dimension")
    for w in w1:
        if not g1.fixes(w):
            raise DomainError("W1 is not contained in the G-fixed subspace")
    for w in w2:
        if not g2.fixes(w):
            raise DomainError("W2 is not contained in the G-fixed subspace")
    rw1, rw2 = v1.restrict(w1), v2.restrict(w2)
    if len(w1) and not rw1.is_nondegenerate():
        raise DomainError("unsupported: degenerate complement")
    if not mat_eq(psi_w.source.gram, rw1.gram) or not mat_eq(psi_w.target.gram, rw2.gram):
        raise StructureError("psi_W must map (W1, form) to (W2, form)")
    psi_w.require_valid("psi_W")
    phi_v.require_valid("phi_V")
    if not mat_eq(phi_v.source.gram, v1.gram) or not mat_eq(phi_v.target.gram, v2.gram):
        raise StructureError("phi_V must map V1 to V2")
    pairs = aligned_elements(g1, g2)
    for m1, m2 in pairs:
        if not mat_eq(dot(phi_v.matrix, m1), dot(m2, phi_v.matrix)):
            raise DomainError("phi_V is not equivariant")

    # Orthogonalize W1 and carry the same combinations through psi_W.
    diag1, dcoords = _orthogonalize(v1, w1)
    w1_mat = np.stack(w1, axis=1) if w1 else zeros(v1.dim, 0)
    w2_mat = np.stack(w2, axis=1) if w2 else zeros(v2.dim, 0)
    diag2 = [dot(w2_mat, dot(psi_w.matrix, c)) for c in dcoords]

    phi = phi_v.matrix
    for wj, tj in zip(diag1, diag2):
        y = dot(phi, wj)
        if not mat_eq(y, tj):
            phi = dot(reflect_to(v2, y, tj).matrix, phi)
            assert mat_eq(dot(phi, wj), tj)

    full = Isometry(v1, v2, phi)
    full.require_valid("extended map")

    u1 = v1.orthogonal_complement(w1)
    u2 = v2.orthogonal_complement(w2)
    b2 = np.stack(u2, axis=1) if u2 else zeros(v2.dim, 0)
    images = [dot(phi, b) for b in u1]
    coords = solve(b2, np.stack(images, axis=1)) if u1 else zeros(0, 0)
    restriction = Isometry(v1.restrict(u1), v2.restrict(u2), coords)
    restriction.require_valid("restricted map")
    return WittResult(full=full, restriction=restriction, u1_basis=u1, u2_basis=u2,
                      pairs=pairs)
