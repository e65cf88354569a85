"""Tautological correspondence classes on powers X^n (n <= 3) of a hypersurface.

Classes are exact rational combinations of normal-form basis monomials:

* products of slot hyperplane powers  h1^a h2^b h3^c   (0 <= a,b,c <= d),
* a pairwise diagonal carrying powers only on the complementary slot,
  ``D_ij . hk^c``  (on X^2 the bare ``D`` only),
* the small diagonal ``delta`` on X^3, bare.

Everything else reduces.  The engine is the excess-intersection rule for the
self-intersection of the diagonal of a degree-e hypersurface X in P^{d+1},

    (D_X)_* (e . h) = sum_{i} h^i x h^{d+1-i}  restricted to X x X,

i.e. D_*(h^k) = (1/e) sum_{i=k..d} h^i x h^{d+k-i}, together with
D . D = D_*(c_d(T_X)) and D_12 . D_13 = delta.  All products, compositions and
pushforwards below are closed-form consequences; the tests check the closed
``compose`` against the full pull-push pipeline on X^3.

The ring is *free*: the small-diagonal multiplicativity relation of the
realized theory is deliberately not imposed here (it is recovered downstream
by the realization engine, which is the point of deriving it).
"""

from __future__ import annotations

from .errors import StructureError
from .gradedring import VarietyData, tangent_chern
from .rationals import QQ, rational_str

# monomial encodings (hashable, orderable via _term_key):
#   ('h', exps)        exps a tuple of length n
#   ('D', i, j, c)     diagonal in slots i<j, decoration c on the third slot
#   ('delta',)         small diagonal, n = 3 only


def _term_key(mon):
    if mon[0] == "h":
        return (0, mon[1])
    if mon[0] == "D":
        return (1, mon[1], mon[2], mon[3])
    return (2,)


class CorrClass:
    """Exact linear combination of normal-form monomials on X^n."""

    __slots__ = ("vd", "n", "terms")

    def __init__(self, vd: VarietyData, n: int, terms=None):
        if n not in (1, 2, 3):
            raise StructureError("only X, X^2, X^3 are supported")
        self.vd = vd
        self.n = n
        clean = {}
        for mon, coeff in (terms or {}).items():
            c = QQ(coeff)
            if c != 0:
                clean[mon] = clean.get(mon, QQ(0)) + c
        self.terms = {m: c for m, c in clean.items() if c != 0}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, vd, n):
        return cls(vd, n, {})

    @classmethod
    def h_monomial(cls, vd, exps, coeff=1):
        exps = tuple(int(a) for a in exps)
        if any(a < 0 for a in exps):
            raise StructureError("negative exponent")
        if any(a > vd.dim for a in exps):
            return cls(vd, len(exps), {})
        return cls(vd, len(exps), {("h", exps): QQ(coeff)})

    @classmethod
    def diagonal(cls, vd, n=2, slots=(0, 1), deco=0, coeff=1):
        i, j = sorted(slots)
        if n == 2:
            if (i, j) != (0, 1) or deco != 0:
                raise StructureError("on X^2 the diagonal is D_01, bare")
        elif not (0 <= i < j <= 2):
            raise StructureError("diagonal slots out of range")
        if deco > vd.dim:
            return cls(vd, n, {})
        return cls(vd, n, {("D", i, j, deco): QQ(coeff)})

    @classmethod
    def small_diagonal(cls, vd, coeff=1):
        return cls(vd, 3, {("delta",): QQ(coeff)})

    # -- linear structure ------------------------------------------------

    def _check(self, other):
        if self.vd != other.vd or self.n != other.n:
            raise StructureError("classes live on different spaces")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, QQ(0)) + c
        return CorrClass(self.vd, self.n, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, t):
        t = QQ(t)
        return CorrClass(self.vd, self.n, {m: t * c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, CorrClass):
            return intersect(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, CorrClass) and self.vd == other.vd and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.vd, self.n, tuple(sorted(self.terms.items(), key=lambda t: _term_key(t[0])))))

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _term_key(t[0]))

    def __repr__(self):
        if not self.terms:
            return "CorrClass<0>"
        parts = [f"{rational_str(c)}*{monomial_str(m)}" for m, c in self.sorted_terms()]
        return "CorrClass<" + " + ".join(parts) + ">"


def monomial_str(mon) -> str:
    if mon[0] == "delta":
        return "delta"
    if mon[0] == "D":
        _, i, j, c = mon
        k = 3 - i - j
        base = f"D{i + 1}{j + 1}"
        if c == 0:
            return base
        return f"{base} h{k + 1}^{c}" if c > 1 else f"{base} h{k + 1}"
    exps = mon[1]
    parts = [f"h{i + 1}^{a}" if a > 1 else f"h{i + 1}" for i, a in enumerate(exps) if a > 0]
    return " ".join(parts) if parts else "1"


# -- reduction data ---------------------------------------------------------


def _c_top(vd: VarietyData):
    return tangent_chern(vd)[vd.dim]


def diag_push(vd: VarietyData, k: int):
    """(D_X)_*(h^k) for k >= 1 as {(a, b): coeff}; empty beyond degree d."""
    if k < 1:
        raise StructureError("diag_push needs k >= 1")
    d, e = vd.dim, vd.degree
    inv_e = QQ(1) / QQ(e)
    return {(i, d + k - i): inv_e for i in range(max(k, 0), d + 1) if 0 <= d + k - i <= d}


def delta_push(vd: VarietyData, k: int):
    """(small diagonal)_*(h^k) for k >= 1 as {exps-triple: coeff}.

    Cascaded through D_13 then D_12, which is how every decorated occurrence
    of delta reduces.
    """
    if k < 1:
        raise StructureError("delta_push needs k >= 1")
    out = {}
    for (alpha, beta), c1 in diag_push(vd, k).items():
        # slot pattern: h1^alpha h3^beta, then D_12 . h1^alpha
        for (gamma, eps), c2 in diag_push(vd, alpha).items():
            key = (gamma, eps, beta)
            out[key] = out.get(key, QQ(0)) + c1 * c2
    return out


def _mul_monomials(vd: VarietyData, n: int, m1, m2):
    """Product of two normal-form monomials as a {monomial: coeff} dict."""
    d = vd.dim
    rank = {"h": 0, "D": 1, "delta": 2}
    if rank[m1[0]] > rank[m2[0]]:
        m1, m2 = m2, m1
    t1, t2 = m1[0], m2[0]
    if t1 == "h" and t2 == "h":
        exps = tuple(a + b for a, b in zip(m1[1], m2[1]))
        return {} if any(a > d for a in exps) else {("h", exps): QQ(1)}
    # now m2 is D or delta, and rank(m1) <= rank(m2)
    if t2 == "D":
        _, i, j, c = m2
        k = 3 - i - j
        if t1 == "h":
            exps = m1[1]
            ck = c + (exps[k] if n == 3 else 0)
            if ck > d:
                return {}
            p = exps[i] + exps[j]
            if p == 0:
                return {("D", i, j, ck) if n == 3 else ("D", 0, 1, 0): QQ(1)}
            out = {}
            for (a, b), coeff in diag_push(vd, p).items():
                if n == 2:
                    out[("h", (a, b))] = coeff
                else:
                    exps3 = [0, 0, 0]
                    exps3[i], exps3[j], exps3[k] = a, b, ck
                    out[("h", tuple(exps3))] = coeff
            return out
        if t1 == "D":
            _, i1, j1, c1 = m1
            if (i1, j1) == (i, j):
                # D^2 = D_*(c_d(T_X)) = (c_d / e) h^d x h^d over the two slots
                ck = c + c1
                if ck > d:
                    return {}
                coeff = _c_top(vd) / QQ(vd.degree)
                if n == 2:
                    return {("h", (d, d)): coeff}
                exps3 = [0, 0, 0]
                exps3[i], exps3[j], exps3[k] = d, d, ck
                return {("h", tuple(exps3)): coeff}
            # distinct diagonals share a slot on X^3: collapse to delta
            total = c + c1
            if total == 0:
                return {("delta",): QQ(1)}
            return {("h", exps): coeff for exps, coeff in delta_push(vd, total).items()}
    # m2 is delta (n = 3)
    if t1 == "h":
        total = sum(m1[1])
        if total == 0:
            return {("delta",): QQ(1)}
        return {("h", exps): coeff for exps, coeff in delta_push(vd, total).items()}
    if t1 == "D":
        _, i1, j1, c1 = m1
        # delta . D_ij = delta_*(c_d(T_X) . h^{c1}) : dies unless c1 = 0
        if c1 != 0:
            return {}
        return {("h", exps): _c_top(vd) * coeff for exps, coeff in delta_push(vd, d).items()}
    # delta . delta: codimension 2d exceeds dim X^3 component-wise
    return {}


def intersect(f: CorrClass, g: CorrClass) -> CorrClass:
    """Intersection product, fully reduced to normal form."""
    f._check(g)
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            for m, c in _mul_monomials(f.vd, f.n, m1, m2).items():
                out[m] = out.get(m, QQ(0)) + c1 * c2 * c
    return CorrClass(f.vd, f.n, out)


# -- pull / push -------------------------------------------------------------


def pull(f: CorrClass, slots, n_to: int) -> CorrClass:
    """Pullback along the projection X^{n_to} -> X^{len(slots)} remembering
    the listed slots (0-based, strictly increasing)."""
    slots = tuple(slots)
    if len(slots) != f.n or any(s < 0 or s >= n_to for s in slots) or sorted(set(slots)) != list(slots):
        raise StructureError("bad slot specification for pull")
    out = {}
    for mon, c in f.terms.items():
        if mon[0] == "h":
            exps = [0] * n_to
            for s, a in zip(slots, mon[1]):
                exps[s] = a
            out[("h", tuple(exps))] = out.get(("h", tuple(exps)), QQ(0)) + c
        elif mon[0] == "D":
            if f.n != 2:
                raise StructureError("unexpected diagonal arity")
            i, j = slots
            key = ("D", i, j, 0) if n_to == 3 else ("D", 0, 1, 0)
            out[key] = out.get(key, QQ(0)) + c
        else:
            raise StructureError("cannot pull the small diagonal")
    return CorrClass(f.vd, n_to, out)


def push(f: CorrClass, keep) -> CorrClass:
    """Pushforward along the projection keeping the listed slots (0-based)."""
    keep = tuple(keep)
    vd, d, e = f.vd, f.vd.dim, f.vd.degree
    if f.n == 3 and len(keep) == 2:
        i, j = keep
        k = 3 - i - j
        out = {}
        for mon, c in f.terms.items():
            if mon[0] == "h":
                exps = mon[1]
                if exps[k] == d:
                    key = ("h", (exps[i], exps[j]))
                    out[key] = out.get(key, QQ(0)) + c * e
            elif mon[0] == "D":
                _, a, b, deco = mon
                if (a, b) == (min(i, j), max(i, j)):
                    # decoration sits on the integrated slot
                    if deco == d:
                        out[("D", 0, 1, 0)] = out.get(("D", 0, 1, 0), QQ(0)) + c * e
                else:
                    # diagonal ties the integrated slot to one kept slot; the
                    # pushforward is 1 x h^deco with the decoration on the
                    # complementary (kept) slot
                    deco_slot = 3 - a - b
                    exps = [0, 0]
                    exps[keep.index(deco_slot)] = deco
                    key = ("h", tuple(exps))
                    out[key] = out.get(key, QQ(0)) + c
            else:
                out[("D", 0, 1, 0)] = out.get(("D", 0, 1, 0), QQ(0)) + c
        return CorrClass(vd, 2, out)
    if f.n == 2 and len(keep) == 1:
        (i,) = keep
        other = 1 - i
        out = {}
        for mon, c in f.terms.items():
            if mon[0] == "h":
                if mon[1][other] == d:
                    key = ("h", (mon[1][i],))
                    out[key] = out.get(key, QQ(0)) + c * e
            else:
                key = ("h", (0,))
                out[key] = out.get(key, QQ(0)) + c
        return CorrClass(vd, 1, out)
    raise StructureError("unsupported push specification")


def transpose(f: CorrClass) -> CorrClass:
    """Swap the two slots of a class on X^2."""
    if f.n != 2:
        raise StructureError("transpose is defined on X^2")
    out = {}
    for mon, c in f.terms.items():
        key = ("h", (mon[1][1], mon[1][0])) if mon[0] == "h" else mon
        out[key] = out.get(key, QQ(0)) + c
    return CorrClass(f.vd, 2, out)


def compose(f: CorrClass, g: CorrClass) -> CorrClass:
    """Correspondence composition g o f (f acts first) on X^2, by the
    monomial rules
        D o x = x o D = x,
        (h^c x h^d') o (h^a x h^b) = e.[b + c = dim] h^a x h^d';
    they agree with p13_*( p12^* f . p23^* g ), which the tests check.
    """
    f._check(g)
    if f.n != 2:
        raise StructureError("compose is defined on X^2")
    vd, d, e = f.vd, f.vd.dim, f.vd.degree
    out = {}

    def _acc(key, val):
        out[key] = out.get(key, QQ(0)) + val

    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            if m1[0] == "D":
                _acc(m2, c1 * c2)
            elif m2[0] == "D":
                _acc(m1, c1 * c2)
            else:
                (a, b), (cc, dd) = m1[1], m2[1]
                if b + cc == d:
                    _acc(("h", (a, dd)), c1 * c2 * e)
    return CorrClass(vd, 2, out)


# -- Chow-Kunneth projectors --------------------------------------------------


def ck_projectors(vd: VarietyData):
    """The correspondence projectors of a cubic-type fourfold:

    pi0 = (1/e) h^4 x 1,  pi2 = (1/e) h^3 x h,  pi6 = (1/e) h x h^3,
    pi8 = (1/e) 1 x h^4,  pi4 = D - (pi0 + pi2 + pi6 + pi8),
    pi4_prim = pi4 - (1/e) h^2 x h^2.

    Keys: "pi0", "pi2", "pi4", "pi6", "pi8", "pi4_prim".
    """
    if vd.dim != 4:
        raise StructureError("projectors are defined for fourfolds")
    inv_e = QQ(1, vd.degree)
    mk = CorrClass.h_monomial
    pi0 = mk(vd, (4, 0), inv_e)
    pi2 = mk(vd, (3, 1), inv_e)
    pi6 = mk(vd, (1, 3), inv_e)
    pi8 = mk(vd, (0, 4), inv_e)
    pi4 = CorrClass.diagonal(vd) - (pi0 + pi2 + pi6 + pi8)
    pi4_prim = pi4 - mk(vd, (2, 2), inv_e)
    return {"pi0": pi0, "pi2": pi2, "pi4": pi4, "pi6": pi6, "pi8": pi8, "pi4_prim": pi4_prim}
