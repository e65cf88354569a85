"""Graded tensor realization of tautological correspondences.

A correspondence class on X^n is realized as a sparse graded tensor over

    H(X) = Q[h]/(h^{d+1})  (+)  V,

where V is an abstract middle-degree quadratic space (primitive cohomology).
The ring structure on H is forced by primitivity and the degree pairing:
h^k . v = 0 for k >= 1 and v in V, and u . w = (<u, w>/e) h^d, with
e = integral of h^d over X.

The diagonal realizes as (1/e) sum_i h^i (x) h^{d-i}  +  kappa, where kappa is
the inverse Gram tensor of V — the Kuenneth component of the middle degree.
Everything downstream (the multiplicativity defect P of the small diagonal,
the kernel-projector identities, transported diagonals between two varieties)
is exact tensor algebra over this model.

A realized class stores its components as Python integers (an ``int`` per
h-only signature, an ``int`` object array per V-carrying one) over one
positive class denominator, in the common-denominator form of
:func:`cubicmotives.linalg.scaled`.  Sums, products, transport (by slot
maps given as scaled pairs) and equality run on those integers; rationals
appear only at the two boundary conversions: the constructor scales rational
components once, and ``comps`` (with ``to_matrix`` and ``action_matrix``)
boxes them back with :func:`cubicmotives.linalg.boxed`.
"""

from __future__ import annotations

import math
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import ShadowViolation, StructureError
from .gradedring import VarietyData
from .linalg import boxed, eye, inverse_scaled, mat_eq, readonly, same, scaled
from .quadform import QuadSpace
from .rationals import QQ, rational_str
from .tautcorr import CorrClass, ck_projectors, monomial_str
from . import mukai as _mukai


class Space:
    """Realization space of one variety slot: h-powers plus a V-block.
    ``_gram`` (``prim.scaled_gram``), ``_gram_inv`` and ``scaled_pairing`` are
    the canonical scaled forms of ``gram``, ``gram_inv`` and ``pairing``, made
    once on integers; those three are boxed on first read, read-only."""

    def __init__(self, vd: VarietyData, prim: QuadSpace | None = None):
        self.vd = vd
        self.prim = prim
        self.hdim = vd.dim + 1
        self.r = prim.dim if prim is not None else 0
        self.size = self.hdim + self.r
        self.e = QQ(vd.degree)
        d = prim.scaled_gram[1] if prim is not None else 1
        pairing = np.zeros((self.size, self.size), dtype=object)
        pairing[range(self.hdim), range(vd.dim, -1, -1)] = vd.degree * d
        if prim is not None:
            self._gram, self._gram_inv = prim.scaled_gram, inverse_scaled(prim.scaled_gram)
            pairing[self.hdim:, self.hdim:] = prim.scaled_gram[0]
        self.scaled_pairing = pairing, d

    @property
    def gram(self):
        return None if self.prim is None else self.prim.gram

    @cached_property
    def gram_inv(self):
        return None if self.prim is None else readonly(boxed(*self._gram_inv))

    @cached_property
    def pairing(self):
        return readonly(boxed(*self.scaled_pairing))

    def __eq__(self, other):
        if not isinstance(other, Space):
            return NotImplemented
        if self is other:
            return True
        if self.vd != other.vd or self.r != other.r:
            return False
        return self.r == 0 or same(self._gram, other._gram)

    def index(self, kind):
        """Basis position of a kind: the h^k row, or the slice of the V-block."""
        return kind[1] if kind != "V" else slice(self.hdim, self.size)

    def kinds(self):
        ks = [("h", k) for k in range(self.hdim)]
        if self.r:
            ks.append("V")
        return ks


# the default primitive Gram: diag(1^20, (-1)^2), rank 22
_DEFAULT_GRAM = readonly(np.diag([1] * 20 + [-1] * 2).astype(object))


class RealizationConfig:
    """Variety data plus the abstract primitive quadratic space.

    The default primitive rank is 22: the total realization then has
    dimension 5 + 22 = 27 = deg c_4(T_X), which is exactly the Euler
    consistency check degree(real(D)^2) = 27.
    """

    def __init__(self, vd: VarietyData | None = None, prim: QuadSpace | None = None):
        self.vd = vd if vd is not None else VarietyData.cubic_fourfold()
        self.prim = prim if prim is not None else QuadSpace(_DEFAULT_GRAM)
        self.space = Space(self.vd, self.prim)

    @classmethod
    def default(cls) -> "RealizationConfig":
        return cls()

    @classmethod
    def with_gram(cls, gram) -> "RealizationConfig":
        return cls(prim=QuadSpace(np.asarray(gram, dtype=object)))


def _nonzero(val) -> bool:
    return bool(val.any()) if isinstance(val, np.ndarray) else val != 0


def _tensordot(a, b, axes):
    val = np.tensordot(a, b, axes=axes)
    return val[()] if val.ndim == 0 else val


class RealizedClass:
    """Sparse graded tensor on a product of realization spaces.

    Components are keyed by a per-slot signature: ('h', k) for the line
    spanned by h^k, or 'V' for the primitive block.  A component is a scalar
    when the signature has no V-slots, else an array with one axis (of size
    r) per V-slot, in slot order.

    The class is stored as integer numerators ``_num`` (``int`` or ``int``
    object arrays) over one denominator ``_den > 0``, kept canonical: no
    all-zero component, gcd(``_den``, every numerator) = 1 (the zero class
    has ``_den == 1``).  Equal classes therefore store equal integers.
    ``RealizedClass(spaces, comps)`` takes rational scalars and arrays and
    scales them once; ``comps`` is the read-only rational view, boxed on
    first access.
    """

    def __init__(self, spaces, comps=None):
        pairs = {sig: scaled(val) for sig, val in (comps or {}).items()}
        den = math.lcm(*(d for _, d in pairs.values()))
        self._set(spaces, {s: n * (den // d) for s, (n, d) in pairs.items()}, den)

    @classmethod
    def _of(cls, spaces, num, den) -> "RealizedClass":
        """The class num / den, from integer components (put in canonical form)."""
        x = cls.__new__(cls)
        x._set(spaces, num, den)
        return x

    def _set(self, spaces, num, den):
        self.spaces = tuple(spaces)
        self.n = len(self.spaces)
        num = {sig: val for sig, val in num.items() if _nonzero(val)}
        g = den  # with no component left, den // g = 1
        for val in num.values():
            g = math.gcd(g, *val.flat) if isinstance(val, np.ndarray) else math.gcd(g, val)
        self._num = {sig: val // g for sig, val in num.items()} if g != 1 else num
        self._den = den // g

    @cached_property
    def comps(self):
        """Read-only view {signature: rational scalar or array}."""
        view = {sig: boxed(val, self._den) for sig, val in self._num.items()}
        for val in view.values():
            if isinstance(val, np.ndarray):
                val.flags.writeable = False
        return MappingProxyType(view)

    # --- basic algebra -------------------------------------------------

    def _check(self, other: "RealizedClass"):
        if self.n != other.n or any(a != b for a, b in zip(self.spaces, other.spaces)):
            raise StructureError("realized classes live on different products")

    def __add__(self, other):
        self._check(other)
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        out = {s: v * fa for s, v in self._num.items()}
        for sig, val in other._num.items():
            val = val * fb
            out[sig] = out[sig] + val if sig in out else val
        return RealizedClass._of(self.spaces, out, den)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return RealizedClass._of(self.spaces, {s: -v for s, v in self._num.items()}, self._den)

    def scale(self, t):
        t = QQ(t)
        return RealizedClass._of(self.spaces, {s: v * t.numerator for s, v in self._num.items()},
                                 self._den * t.denominator)

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other):
        if not isinstance(other, RealizedClass):
            return NotImplemented
        self._check(other)
        b = other._num
        return (self._den == other._den and self._num.keys() == b.keys()
                and all(np.array_equal(v, b[s]) if isinstance(v, np.ndarray) else v == b[s]
                        for s, v in self._num.items()))

    # --- intersection product -------------------------------------------

    def __mul__(self, other):
        self._check(other)
        terms = []
        for sa, va in self._num.items():
            for sb, vb in other._num.items():
                got = _component_product(self.spaces, sa, va, sb, vb)
                if got is not None:
                    terms.append(got)
        # one denominator for all pairwise products: the lcm of their factors
        lcm = math.lcm(*(d for _, _, d in terms))
        acc = {}
        for sig, val, d in terms:
            val = val * (lcm // d)
            acc[sig] = acc[sig] + val if sig in acc else val
        return RealizedClass._of(self.spaces, acc, self._den * other._den * lcm)

    # --- integration ----------------------------------------------------

    def degree(self):
        """Pair the top component against the fundamental class of X^n."""
        top = self._num.get(tuple(("h", sp.vd.dim) for sp in self.spaces), 0)
        return QQ(top * math.prod(sp.vd.degree for sp in self.spaces), self._den)

    # --- two-slot matrix form --------------------------------------------

    def transpose(self) -> "RealizedClass":
        if self.n != 2:
            raise StructureError("transpose needs two slots")
        out = {}
        for (k0, k1), val in self._num.items():
            out[(k1, k0)] = val.T if isinstance(val, np.ndarray) and val.ndim == 2 else val
        return RealizedClass._of((self.spaces[1], self.spaces[0]), out, self._den)

    def _matrix(self) -> np.ndarray:
        """Integer matrix form, over the class denominator."""
        if self.n != 2:
            raise StructureError("matrix form needs two slots")
        sa, sb = self.spaces
        m = np.zeros((sa.size, sb.size), dtype=object)
        for (k0, k1), val in self._num.items():
            m[sa.index(k0), sb.index(k1)] = val
        return m

    def to_matrix(self) -> np.ndarray:
        return boxed(self._matrix(), self._den)

    def transport(self, mats, targets) -> "RealizedClass":
        """Apply one linear map per slot, each a scaled pair (integers,
        denominator) of shape target x source, or None to leave the slot as
        it is (its target must then be its space).

        Works block by block on the signature: in each slot, a component of
        source kind ks goes to every target kind kt through the block
        ``m[kt, ks]`` — a scalar for h -> h, an outer product placed at the
        slot's V-axis for h -> V, a contraction of that axis for V -> h, and a
        contraction with the new axis put back in place for V -> V.  All-zero
        blocks are skipped.
        """
        if len(mats) != self.n or len(targets) != self.n:
            raise StructureError("need one transport matrix per slot")
        num, den = self._num, self._den
        for s, (m, src, tgt) in enumerate(zip(mats, self.spaces, targets)):
            if m is None:
                continue
            m, d = m
            blocks = {}
            for ks in src.kinds():
                cells = ((kt, m[tgt.index(kt), src.index(ks)]) for kt in tgt.kinds())
                blocks[ks] = [(kt, b) for kt, b in cells if _nonzero(b)]
            out = {}
            for sig, val in num.items():
                p = sig[:s].count("V")  # position of this slot's V-axis
                for kt, b in blocks[sig[s]]:
                    if sig[s] == "V":
                        new = _tensordot(val, b, ([p], [b.ndim - 1]))
                    elif isinstance(val, np.ndarray) and isinstance(b, np.ndarray):
                        new = np.multiply.outer(val, b)
                    else:  # a scalar: no Python int passes through a fixed-width dtype
                        new = val * b
                    if kt == "V":
                        new = np.moveaxis(new, -1, p)
                    key = sig[:s] + (kt,) + sig[s + 1:]
                    out[key] = out[key] + new if key in out else new
            num, den = out, den * d
        return RealizedClass._of(targets, num, den)

    def middle_part(self) -> "RealizedClass":
        """Components with every slot in the middle degree (h^{d/2} or V)."""
        out = {}
        for sig, val in self._num.items():
            if all(k == "V" or k == ("h", sp.vd.dim // 2) for k, sp in zip(sig, self.spaces)):
                out[sig] = val
        return RealizedClass._of(self.spaces, out, self._den)

    def __repr__(self):
        bits = []
        for sig in sorted(self.comps, key=str):
            val = self.comps[sig]
            tag = "x".join("h^%d" % k[1] if k != "V" else "V" for k in sig)
            if isinstance(val, np.ndarray):
                bits.append(f"{tag}:array{val.shape}")
            else:
                bits.append(f"{tag}:{rational_str(val)}")
        return "RealizedClass(" + ", ".join(bits) + ")"


def _component_product(spaces, sig_a, val_a, sig_b, val_b):
    """One pairwise product of integer components, or None when it vanishes.

    Returns (signature, integers, d): the product of the two numerators is
    integers / d, where d collects e and the Gram's denominator of each
    contracted V-slot."""
    out_sig = []
    d = 1
    a_axes = [s for s, k in enumerate(sig_a) if k == "V"]
    b_axes = [s for s, k in enumerate(sig_b) if k == "V"]
    contracted = []
    for s, (ka, kb) in enumerate(zip(sig_a, sig_b)):
        sp = spaces[s]
        if ka == "V" and kb == "V":
            out_sig.append(("h", sp.vd.dim))
            contracted.append(s)
            d *= sp.vd.degree * sp._gram[1]
        elif ka == "V" or kb == "V":
            other = kb if ka == "V" else ka
            if other != ("h", 0):
                return None
            out_sig.append("V")
        else:
            k = ka[1] + kb[1]
            if k > sp.vd.dim:
                return None
            out_sig.append(("h", k))
    if not a_axes or not b_axes:
        return tuple(out_sig), val_a * val_b, d
    # general case: contract each paired V-slot of a through the Gram matrix,
    # then contract a with b over those slots, one pairwise tensordot each
    for s in contracted:
        i = a_axes.index(s)
        val_a = np.moveaxis(np.tensordot(val_a, spaces[s]._gram[0], axes=([i], [0])), -1, i)
    val = _tensordot(val_a, val_b, ([a_axes.index(s) for s in contracted],
                                    [b_axes.index(s) for s in contracted]))
    # the free axes come out as a's then b's; put them back in slot order
    free = [s for s in a_axes + b_axes if s not in contracted]
    if free:
        val = np.transpose(val, np.argsort(free))
    return tuple(out_sig), val, d


# --- the realization functor ------------------------------------------------


def _diagonal(space: Space, slots, n, deco_slot=None, deco=0) -> RealizedClass:
    """The diagonal on the two listed slots of an n-fold product (all slots
    over the same space), optionally decorated by h^deco on the complementary
    slot: 1/e on each h-line pair plus the inverse Gram tensor on V x V."""
    i, j = slots
    base = [("h", 0)] * n
    if deco_slot is not None:
        base[deco_slot] = ("h", deco)

    def sig(ki, kj):
        out = list(base)
        out[i], out[j] = ki, kj
        return tuple(out)

    e = space.vd.degree
    den = math.lcm(e, space._gram_inv[1]) if space.r else e
    num = {sig(("h", a), ("h", space.vd.dim - a)): den // e for a in range(space.hdim)}
    if space.r:
        num[sig("V", "V")] = space._gram_inv[0] * (den // space._gram_inv[1])
    return RealizedClass._of((space,) * n, num, den)


def diagonal_realized(space: Space) -> RealizedClass:
    """real(D) = (1/e) sum_i h^i (x) h^{d-i} + kappa on X x X."""
    return _diagonal(space, (0, 1), 2)


def realize(x: CorrClass, cfg: RealizationConfig | Space) -> RealizedClass:
    """Realize a tautological correspondence class as a graded tensor.

    Ring homomorphism on the tautological generators: monomials go to
    h-tensors, each diagonal to its Kuenneth tensor, and the small diagonal
    to the product real(D_12) . real(D_13).
    """
    space = cfg.space if isinstance(cfg, RealizationConfig) else cfg
    if x.vd != space.vd:
        raise StructureError("correspondence and configuration disagree on the variety")
    spaces = (space,) * x.n
    hterms = {tuple(("h", a) for a in mon[1]): c for mon, c in x.terms.items() if mon[0] == "h"}
    out = RealizedClass(spaces, hterms)  # the h-part in one constructor call
    for mon, c in x.terms.items():
        if mon[0] == "D":
            _, i, j, deco = mon
            k = (3 - i - j) if x.n == 3 else None
            term = _diagonal(space, (i, j), x.n, deco_slot=k, deco=deco)
        elif mon[0] == "delta":
            term = _diagonal(space, (0, 1), 3) * _diagonal(space, (0, 2), 3)
        else:
            continue
        out = out + (term if c == 1 else term.scale(c))
    return out


def compose_realized(f: RealizedClass, g: RealizedClass) -> RealizedClass:
    """Composition of two-slot classes, f acting first (matching the
    correspondence-ring convention): matrix form M_f . Pi . M_g, computed
    block by block as f with its second slot transported by the action of g."""
    if f.n != 2 or g.n != 2:
        raise StructureError("composition needs two-slot classes")
    if f.spaces[1] != g.spaces[0]:
        raise StructureError("middle spaces do not match")
    return f.transport((None, scaled_action(g)), (f.spaces[0], g.spaces[1]))


def action_matrix(f: RealizedClass) -> np.ndarray:
    """Matrix of alpha |-> p2_*(p1^* alpha . f) on the realization bases."""
    return boxed(*scaled_action(f))


def scaled_action(f: RealizedClass):
    """:func:`action_matrix` as a scaled pair (integers, denominator)."""
    pn, pd = f.spaces[0].scaled_pairing
    return np.dot(f._matrix().T, pn), f._den * pd


def degree(x: RealizedClass):
    return x.degree()


# --- the small-diagonal defect polynomial -----------------------------------


def hyperplane_part(vd: VarietyData) -> CorrClass:
    """(1/e)[D_12 h_3^4 + D_13 h_2^4 + D_23 h_1^4] on X^3: the part of the
    small diagonal that the defect polynomial P completes."""
    if vd.dim != 4:
        raise StructureError("the defect polynomial is computed on fourfolds")
    return CorrClass(vd, 3, {("D", i, j, vd.dim): QQ(1, vd.degree)
                             for i, j in ((0, 1), (0, 2), (1, 2))})


def defect_of(delta: RealizedClass) -> CorrClass:
    """P from a realized small diagonal: delta minus its realized hyperplane
    part, which must have no V-component."""
    space = delta.spaces[0]
    rem = delta - realize(hyperplane_part(space.vd), space)
    terms = {}
    for sig, val in rem.comps.items():
        if any(k == "V" for k in sig):
            raise ShadowViolation("MCK shadow violated")
        terms[("h", tuple(k[1] for k in sig))] = val
    return CorrClass(space.vd, 3, terms)


def derive_P(cfg: RealizationConfig) -> CorrClass:
    """The symmetric polynomial P with

        real(delta) = (1/3)[real(D_12) h_3^4 + real(D_13) h_2^4
                            + real(D_23) h_1^4] + P(h_1, h_2, h_3).

    Every V-component of the difference must cancel identically (for any
    Gram matrix); a nonzero one signals a broken multiplicativity shadow.
    """
    return defect_of(realize(CorrClass.small_diagonal(cfg.vd), cfg))


def p_to_json(p: CorrClass):
    return {monomial_str(mon): rational_str(c) for mon, c in p.sorted_terms()}


def p_to_text(p: CorrClass) -> str:
    bits = []
    for mon, c in p.sorted_terms():
        bits.append(f"({rational_str(c)}) {monomial_str(mon)}")
    return " + ".join(bits) if bits else "0"


# --- check records ------------------------------------------------------------


def check(cid: str, claim: str, passed: bool, witness=None) -> dict:
    """One check record {id, claim, passed, witness}: the witness is None on a
    pass, and a failure without one reads "identity does not hold"."""
    return {"id": cid, "claim": claim, "passed": bool(passed),
            "witness": None if passed else (witness or "identity does not hold")}


def check_equal(cid: str, claim: str, got: RealizedClass, want: RealizedClass) -> dict:
    """Check record of got == want, compared once on the canonical integers; a
    failure names the first differing component (``str`` order), its first
    differing entry and both values there: ``VxV[3,5]: got -1/2, want 1/2``."""
    if got == want:
        return check(cid, claim, True)
    (a, da), (b, db) = (got._num, got._den), (want._num, want._den)
    for sig in sorted(a.keys() | b.keys(), key=str):
        x, y = a.get(sig, 0), b.get(sig, 0)
        nonzero = np.flatnonzero(x * db - y * da)  # got - want, over da * db
        if len(nonzero):
            at = np.unravel_index(nonzero[0], np.shape(x) or np.shape(y))
            x, y = (v[at] if isinstance(v, np.ndarray) else v for v in (x, y))
            tag = "x".join("h^%d" % k[1] if k != "V" else "V" for k in sig)
            index = "[" + ",".join(map(str, at)) + "]" if at else ""
            return check(cid, claim, False, f"{tag}{index}: got {rational_str(QQ(x, da))}, "
                                            f"want {rational_str(QQ(y, db))}")


# --- kernel-projector identities ---------------------------------------------


def verify_kernel_identities(cfg: RealizationConfig):
    """Exact identities of the two projector kernels at the realized level.

    Returns a list of check dicts {id, claim, passed, witness}.
    """
    vd = cfg.vd
    kl = realize(_mukai.kernel_class(vd, "L"), cfg)
    kr = realize(_mukai.kernel_class(vd, "R"), cfg)
    pi4_prim = realize(ck_projectors(vd)["pi4_prim"], cfg)

    pairs = [
        ("pLpL", "p_L twice = p_L", compose_realized(kl, kl), kl),
        ("pRpR", "p_R twice = p_R", compose_realized(kr, kr), kr),
        ("pLpR", "p_L then p_R = p_L", compose_realized(kl, kr), kl),
        ("pRpL", "p_R then p_L = p_R", compose_realized(kr, kl), kr),
    ]
    checks = [check_equal(cid, claim, got, want) for cid, claim, got, want in pairs]

    for cid, k in (("sandwichL", kl), ("sandwichR", kr)):
        mid = k.middle_part()
        got = compose_realized(compose_realized(pi4_prim, mid), pi4_prim)
        checks.append(check_equal(
            cid,
            "primitive projector . middle part . primitive projector = primitive projector",
            got,
            pi4_prim,
        ))

    # the middle part of each kernel restricts to the identity on V
    sp = cfg.space
    for cid, k in (("restrictL", kl), ("restrictR", kr)):
        a = action_matrix(k.middle_part())
        checks.append(check(
            cid,
            "middle part acts as the identity on the primitive block",
            mat_eq(a[:, sp.hdim:], eye(sp.size)[:, sp.hdim:]),
            "V-column mismatch in the action matrix",
        ))
    return checks
