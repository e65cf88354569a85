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
maps given as scaled pairs) and equality run on those integers, products and
transport through :func:`cubicmotives.linalg.contract`; rationals appear
only at the two boundary conversions: the constructor scales rational
components once, and ``comps`` (with ``to_matrix`` and ``action_matrix``)
boxes them back with :func:`cubicmotives.linalg.boxed`.  Each result is put
in canonical form once, by one gcd pass per component that is also its zero
test; ``realize`` sums all its terms over one lcm before that pass.  A result
that is canonical as built (a transpose, a negation, a diagonal, one term
realized with coefficient 1) skips the pass.  Each constant of the certify
path is made once: a class's action (``scaled_action``) is kept with the class
as a read-only pair, with the block table of every (source, target) layout
that ``transport`` reads it through, and the signature algebra of a pairwise
product is planned once per (slot dimensions, signatures) by ``_plan``, which
no Gram enters; only the denominator and the arrays are computed per product.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from types import MappingProxyType

import numpy as np

from .errors import ShadowViolation, StructureError
from .gradedring import VarietyData
from .linalg import boxed, contract, eye, inverse_scaled, mat_eq, readonly, same, scaled
from .quadform import QuadSpace
from .rationals import QQ, rational_str
from .tautcorr import CorrClass, ck_projectors, monomial_str
from . import mukai as _mukai


class Space:
    """Realization space of one variety slot: h-powers plus a V-block.
    ``_gram`` (``prim.scaled_gram``), ``_gram_inv`` and ``scaled_pairing`` are
    the canonical scaled forms of ``gram``, ``gram_inv`` and ``pairing``, made
    once on integers and read-only; those three are boxed on first read."""

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
            gi, di = inverse_scaled(prim.scaled_gram)
            self._gram, self._gram_inv = prim.scaled_gram, (readonly(gi), di)
            pairing[self.hdim:, self.hdim:] = prim.scaled_gram[0]
        self.scaled_pairing = readonly(pairing), d
        # (kind, basis position) of every block: the h^k rows, then the V-block
        self.blocks = [(("h", k), k) for k in range(self.hdim)]
        if self.r:
            self.blocks.append(("V", slice(self.hdim, self.size)))

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
        return [kind for kind, _ in self.blocks]


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


def _content(val) -> int:
    """gcd of the entries of an integer component: 0 exactly when it is all
    zero, so one pass is both the zero test and the content."""
    return math.gcd(*val.flat) if isinstance(val, np.ndarray) else abs(val)


def _last_to(p, ndim):
    """Axis order that moves the last of ``ndim`` axes to position ``p``."""
    return [*range(p), ndim - 1, *range(p, ndim - 1)]


def _contract(a, b, axes):
    """:func:`contract` over list axes, a 0-d result as a scalar."""
    val = contract(a, b, axes)
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
    def _of(cls, spaces, num, den, canonical=False) -> "RealizedClass":
        """The class num / den, from integer components, put in canonical form
        unless ``canonical`` says that they are in it already."""
        x = cls.__new__(cls)
        if canonical:
            x.spaces, x.n, x._num, x._den = tuple(spaces), len(spaces), num, den
        else:
            x._set(spaces, num, den)
        return x

    def _set(self, spaces, num, den):
        self.spaces = tuple(spaces)
        self.n = len(self.spaces)
        g, kept = den, {}  # with no component left, den // g = 1
        for sig, val in num.items():
            if c := _content(val):
                kept[sig], g = val, math.gcd(g, c)
        self._num = {sig: val // g for sig, val in kept.items()} if g != 1 else kept
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
        return RealizedClass._of(self.spaces, {s: -v for s, v in self._num.items()}, self._den,
                                 canonical=True)

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
        dims = tuple(sp.vd.dim for sp in self.spaces)
        terms = [_component_product(self.spaces, plan, va, vb)
                 for sa, va in self._num.items() for sb, vb in other._num.items()
                 if (plan := _plan(dims, sa, sb)) is not None]
        # one denominator for all pairwise products: the lcm of their factors
        lcm = math.lcm(*(d for _, _, d in terms))
        acc = {}
        for sig, val, d in terms:
            if d != lcm:
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
        return RealizedClass._of((self.spaces[1], self.spaces[0]), out, self._den, canonical=True)

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

    @cached_property
    def _action(self) -> "_Action":
        pn, pd = self.spaces[0].scaled_pairing
        return _Action((readonly(contract(self._matrix().T, pn)), self._den * pd))

    def transport(self, mats, targets) -> "RealizedClass":
        """Apply one linear map per slot, each a scaled pair (integers,
        denominator) of shape target x source, or None to leave the slot as
        it is (its target must then be its space).

        Works block by block on the signature: in each slot, a component of
        source kind ks goes to every target kind kt through the block
        ``m[kt, ks]`` — a scalar for h -> h, an outer product placed at the
        slot's V-axis for h -> V, a contraction of that axis for V -> h, and a
        contraction with the new axis put back in place for V -> V.  All-zero
        blocks are skipped.  The table of the other blocks is built once per
        (source, target) layout and kept with the map when it is an action
        (:func:`scaled_action`), else once per slot.
        """
        if len(mats) != self.n or len(targets) != self.n:
            raise StructureError("need one transport matrix per slot")
        num, den = self._num, self._den
        for s, (pair, src, tgt) in enumerate(zip(mats, self.spaces, targets)):
            if pair is None:
                continue
            m, d = pair
            tables = getattr(pair, "tables", {})
            layout = (src.hdim, src.r, tgt.hdim, tgt.r)
            if (blocks := tables.get(layout)) is None:
                blocks = tables[layout] = {}
                for ks, i in src.blocks:
                    cells = ((kt, m[j, i]) for kt, j in tgt.blocks)
                    blocks[ks] = [(kt, b) for kt, b in cells if _content(b)]
            out = {}
            for sig, val in num.items():
                p = sig[:s].count("V")  # position of this slot's V-axis
                for kt, b in blocks[sig[s]]:
                    if sig[s] == "V":
                        new = _contract(val, b, ([p], [b.ndim - 1]))
                    elif isinstance(val, np.ndarray) and isinstance(b, np.ndarray):
                        new = np.multiply.outer(val, b)
                    else:  # a scalar: no Python int passes through a fixed-width dtype
                        new = val * b
                    if kt == "V":
                        new = new.transpose(_last_to(p, new.ndim))
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


class _Action(tuple):
    """A class's action as a scaled pair (integers, denominator) that keeps
    the block tables ``transport`` builds from it, by (source, target) layout."""

    def __init__(self, pair):
        self.tables = {}


@cache
def _plan(dims, sig_a, sig_b):
    """The signature algebra of one pairwise product on slots of dimensions
    ``dims``, or None when it vanishes: (signature, contracted slots, axes),
    where axes is None when a or b has no V-axis, else (the contracted axes of
    a, those of b, the order that puts the free axes back in slot order), all
    tuples.  No Gram enters it, so it is made once per (dims, sig_a, sig_b),
    of which there are finitely many on the products of up to three slots
    that the calculus uses."""
    out_sig, contracted = [], []
    for s, (ka, kb, dim) in enumerate(zip(sig_a, sig_b, dims)):
        if ka == "V" and kb == "V":
            out_sig.append(("h", dim))
            contracted.append(s)
        elif ka == "V" or kb == "V":
            if (kb if ka == "V" else ka) != ("h", 0):
                return None
            out_sig.append("V")
        elif (k := ka[1] + kb[1]) <= dim:
            out_sig.append(("h", k))
        else:
            return None
    a_axes = [s for s, k in enumerate(sig_a) if k == "V"]
    b_axes = [s for s, k in enumerate(sig_b) if k == "V"]
    if not a_axes or not b_axes:
        return tuple(out_sig), (), None
    # the free axes come out as a's then b's
    free = [s for s in a_axes + b_axes if s not in contracted]
    return tuple(out_sig), tuple(contracted), (tuple(a_axes.index(s) for s in contracted),
                                               tuple(b_axes.index(s) for s in contracted),
                                               tuple(np.argsort(free).tolist()))


def _component_product(spaces, plan, val_a, val_b):
    """One pairwise product of integer components by its :func:`_plan`.

    Returns (signature, integers, d): the product of the two numerators is
    integers / d, where d collects e and the Gram's denominator of each
    contracted V-slot."""
    sig, contracted, axes = plan
    d = math.prod(spaces[s].vd.degree * spaces[s]._gram[1] for s in contracted)
    if axes is None:
        return sig, val_a * val_b, d
    # contract each paired V-slot of a through the Gram matrix, then contract
    # a with b over those slots in one contraction
    ia, ib, order = axes
    for s, i in zip(contracted, ia):
        val_a = contract(val_a, spaces[s]._gram[0], ([i], [0])).transpose(_last_to(i, val_a.ndim))
    val = _contract(val_a, val_b, (ia, ib))
    return sig, np.transpose(val, order) if order else val, d


# --- the realization functor ------------------------------------------------


def _diagonal(space: Space, slots, n, deco_slot=None, deco=0) -> RealizedClass:
    """The diagonal on the two listed slots of an n-fold product (all slots
    over the same space), optionally decorated by h^deco on the complementary
    slot: 1/e on each h-line pair plus the inverse Gram tensor on V x V.
    Canonical as built: with G^-1 = N / d canonical and den = lcm(e, d), a
    prime p | den / e has v_p(d) = v_p(den) > v_p(e), so p divides d, not
    den / d, and not every entry of N; the gcd is 1, and no component is 0."""
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
        f = den // space._gram_inv[1]
        num[sig("V", "V")] = space._gram_inv[0] * f if f != 1 else space._gram_inv[0]
    return RealizedClass._of((space,) * n, num, den, canonical=True)


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
    terms = []  # (integer components, denominator, coefficient): all over one lcm below
    for mon, c in x.terms.items():
        if mon[0] == "h":
            terms.append(({tuple(("h", a) for a in mon[1]): 1}, 1, c))
            continue
        if mon[0] == "D":
            _, i, j, deco = mon
            k = (3 - i - j) if x.n == 3 else None
            term = _diagonal(space, (i, j), x.n, deco_slot=k, deco=deco)
        else:  # "delta"
            term = _diagonal(space, (0, 1), 3) * _diagonal(space, (0, 2), 3)
        terms.append((term._num, term._den, c))
    if len(terms) == 1 and terms[0][2] == 1:  # one term, canonical as it stands
        return RealizedClass._of((space,) * x.n, terms[0][0], terms[0][1], canonical=True)
    den = math.lcm(*(d * c.denominator for _, d, c in terms))
    out = {}
    for num, d, c in terms:
        f = den // (d * c.denominator) * c.numerator
        for sig, val in num.items():
            if f != 1:
                val = val * f
            out[sig] = out[sig] + val if sig in out else val
    return RealizedClass._of((space,) * x.n, out, den)


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
    """:func:`action_matrix` as a scaled pair (integers, denominator): made
    once per class, the same read-only pair on every call."""
    return f._action


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
