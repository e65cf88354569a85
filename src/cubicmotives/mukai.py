"""Mukai vectors, the Mukai pairing, and the K3-type component of a cubic.

The pairing used throughout is

    <v, w> = integral_X( dual(v) . w . exp(c1(X)/2) ),

which on Mukai vectors of sheaves computes the Euler pairing chi(E, F); it is
deliberately *not* symmetrized.  For the cubic fourfold the three line-bundle
vectors v(O), v(O(1)), v(O(2)) are exceptional, and projecting them away —
three successive mutations — lands in the numerical shadow of the K3-type
subcategory.  The classes lambda_1, lambda_2 defined below complete the
h-power span and realize an A2 intersection pattern there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, StructureError
from .gradedring import TruncPoly, VarietyData, dual, integrate, mukai_vector_line, tangent_chern
from .linalg import qvec, same, zeros
from .quadform import QuadSpace
from .rationals import QQ
from .tautcorr import CorrClass, compose, intersect, pull, push


def mukai_pairing(a: TruncPoly, b: TruncPoly):
    """<a, b> = integral( dual(a) . b . exp(c1/2) ); asymmetric by design."""
    if a.vd != b.vd:
        raise StructureError("operands live over different varieties")
    c1 = tangent_chern(a.vd)[1]
    twist = TruncPoly.exp_h(a.vd, c1 / QQ(2))
    return integrate(dual(a) * b * twist)


@dataclass(frozen=True, eq=False)
class MukaiSpace:
    """Polynomial Mukai classes extended by a primitive quadratic space.

    The pairing is the Mukai pairing on the polynomial part, the Gram form on
    the primitive part, and zero between the two.
    """

    vd: VarietyData
    prim: QuadSpace

    @classmethod
    def cubic(cls, prim: QuadSpace) -> "MukaiSpace":
        return cls(VarietyData.cubic_fourfold(), prim)

    def element(self, poly: TruncPoly, prim=None) -> "MSElement":
        if prim is None:
            prim = zeros(self.prim.dim)
        return MSElement(self, poly, qvec(prim))

    def line_vector(self, i: int) -> "MSElement":
        return self.element(mukai_vector_line(self.vd, i))

    def _same(self, other: "MukaiSpace") -> bool:  # the same variety data and Gram
        return self.vd == other.vd and same(self.prim.scaled_gram, other.prim.scaled_gram)

    def pairing(self, a: "MSElement", b: "MSElement"):
        if not (self._same(a.space) and self._same(b.space)):
            raise StructureError("element from another space")
        return mukai_pairing(a.poly, b.poly) + self.prim.bilinear(a.prim, b.prim)


@dataclass(frozen=True, eq=False)
class MSElement:
    space: MukaiSpace
    poly: TruncPoly
    prim: np.ndarray

    def __add__(self, other):
        if not self.space._same(other.space):
            raise StructureError("elements of different spaces")
        return MSElement(self.space, self.poly + other.poly, self.prim + other.prim)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, t):
        t = QQ(t)
        return MSElement(self.space, self.poly.scale(t), self.prim * t)

    def __eq__(self, other):
        return (
            isinstance(other, MSElement)
            and self.space._same(other.space)
            and self.poly == other.poly
            and all(x == y for x, y in zip(self.prim, other.prim))
        )


def _require_cubic(vd: VarietyData):
    if (vd.dim, vd.degree, vd.kind) != (4, 3, "hypersurface"):
        raise DomainError("this construction is specific to cubic fourfolds")


def lambda_basis(vd: VarietyData):
    """The two classes completing (v(O), v(O(1)), v(O(2))) to a basis of the
    h-power span, normalized so that <l_i, l_i> = -2 and <l_1, l_2> = 1."""
    _require_cubic(vd)
    l1 = TruncPoly(vd, (QQ(3), QQ(5, 4), QQ(-7, 32), QQ(-77, 384), QQ(41, 2048)))
    l2 = TruncPoly(vd, (QQ(-3), QQ(-1, 4), QQ(15, 32), QQ(1, 384), QQ(-153, 2048)))
    return l1, l2


def mutate_project(space: MukaiSpace, v_e: MSElement, a: MSElement) -> MSElement:
    """Orthogonal projection a |-> a - <v_E, a> v_E; v_E must be exceptional
    (<v_E, v_E> = 1), which makes the map an idempotent projector."""
    if space.pairing(v_e, v_e) != 1:
        raise DomainError("projection vector must satisfy <v, v> = 1")
    return a - v_e.scale(space.pairing(v_e, a))


def kuznetsov_project(space: MukaiSpace, a: MSElement) -> MSElement:
    """Project to the right-orthogonal complement of <v(O), v(O(1)), v(O(2))>
    by successive mutations through v(O(2)), then v(O(1)), then v(O)."""
    out = a
    for i in (2, 1, 0):
        out = mutate_project(space, space.line_vector(i), out)
    return out


def poly_to_corr(a: TruncPoly) -> CorrClass:
    """A polynomial class as a one-slot correspondence."""
    return CorrClass(a.vd, 1, {("h", (i,)): c for i, c in enumerate(a.coeffs)})


def corr_to_poly(f: CorrClass) -> TruncPoly:
    if f.n != 1:
        raise StructureError("expected a one-slot class")
    coeffs = [QQ(0)] * (f.vd.dim + 1)
    for mon, c in f.terms.items():
        coeffs[mon[1][0]] = c
    return TruncPoly.from_coeffs(f.vd, coeffs)


def corr_action(space: MukaiSpace, f: CorrClass, a: MSElement) -> MSElement:
    """Act by a correspondence on X x X: the polynomial part transforms by
    push(pull(a) . f), while the primitive part only sees the diagonal summand
    (h-power correspondences annihilate primitive classes)."""
    if f.n != 2 or f.vd != space.vd:
        raise StructureError("need a correspondence on X x X over the same variety")
    moved = push(intersect(pull(poly_to_corr(a.poly), (0,), 2), f), keep=(1,))
    diag_coeff = f.terms.get(("D", 0, 1, 0), QQ(0))
    return MSElement(space, corr_to_poly(moved), a.prim * diag_coeff)


def _single_kernel(vd: VarietyData, left_twist: int, right_twist: int) -> CorrClass:
    """D - v(O(a)) x v(O(b)): the Mukai-vector shadow of one mutation kernel."""
    va = mukai_vector_line(vd, left_twist)
    vb = mukai_vector_line(vd, right_twist)
    terms = {("h", (i, j)): -ci * cj
             for i, ci in enumerate(va.coeffs) for j, cj in enumerate(vb.coeffs)}
    terms[("D", 0, 1, 0)] = 1
    return CorrClass(vd, 2, terms)


def kernel_class(vd: VarietyData, side: str) -> CorrClass:
    """Correspondence class of the projector kernel onto the K3-type component.

    side "L": mutations through O(2), O(1), O; each single kernel is
    D - v(O(-i)) x v(O(i)).  side "R": mutations through O(-3), O(-2), O(-1);
    single kernels D - v(O(-3-i)) x v(O(i)).  Compositions are taken in the
    correspondence ring, earliest mutation first.
    """
    _require_cubic(vd)
    if side == "L":
        ks = [_single_kernel(vd, -i, i) for i in (2, 1, 0)]
    elif side == "R":
        ks = [_single_kernel(vd, -3 - i, i) for i in (-3, -2, -1)]
    else:
        raise StructureError("side must be 'L' or 'R'")
    return reduce(compose, ks)
