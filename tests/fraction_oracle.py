"""The Fraction-array routes that the integer-numerator kernels replaced.

``RealizedClass`` stores integer numerators over one class denominator and
runs its arithmetic on those integers.  ``FractionClass`` below is the route
it replaced: components are rational scalars and ``Fraction`` object arrays,
added, negated and scaled entry by entry, with products and transport
contracted by object ``np.tensordot`` (exact over ``Fraction``), and all-zero
components dropped.

``linalg``'s eliminations are fraction-free Gauss-Jordan on scaled integer
numerators.  ``echelon`` below is the Bareiss elimination it was, which
updates every row at every pivot; ``linalg._echelon`` leaves alone the rows a
pivot does not touch and must return the same integers.  ``quadform`` checks
isometries and closes groups on scaled pairs.  ``rref`` to ``inverse``,
``isometry_verify``, ``group_closure`` and ``aligned_elements`` below are the
routes they replaced: plain ``Fraction`` Gauss-Jordan, object ``np.dot``
products, ``mat_eq`` comparisons and group searches keyed on the
``(numerator, denominator)`` of every entry.  A ``GroupAction`` keeps only
its generators and order, so ``group_closure`` is also the element list the
tests compare against.

``equivariant_witt`` orthogonalizes W and reflects on integer rows.
``orthogonalize``, ``reflect_to`` and ``witt_extension`` below are the
``Fraction``-vector routes they replaced.

``build_gamma`` and ``build_gamma_cubic_k3`` assemble Gamma on scaled
integer pairs, and the witt suite and both random pair builders build their
instances on integers, conjugating a group with ``GroupAction.conjugated``.
``build_gamma_assembly``, ``build_gamma_cubic_k3_assembly``,
``random_witt_instance``, ``random_fourfold_pair`` and ``random_cubic_k3_pair``
below are the Fraction-array routes they replaced: the kernel on the
Gauss-Jordan above, products and solves on the library's rational front ends
``dot`` and ``solve``, and a second ``GroupAction.build`` for a conjugate.

``realize`` builds the h-part of a class in one constructor call;
``realize_by_terms`` below adds one class per h-monomial, as it did.

``RealizedClass.__mul__`` reads the signature algebra of each pairwise
product from a plan made once per (slot dimensions, signatures).
``walk_component_product`` and ``walk_product`` below are the route it
replaced: every pair of components walked slot by slot on every call, on the
same integers.

The tests compare the library against these for exact equality.
"""

import math
import random

import numpy as np

from cubicmotives.errors import DomainError, StructureError
from cubicmotives import linalg as lin
from cubicmotives.linalg import eye, mat_eq, zeros
from cubicmotives.rationals import QQ
from cubicmotives.gradedring import VarietyData
from cubicmotives.motiveiso import (FourfoldData, SurfaceData, _conjugation_iso,
                                    random_diag_gram, random_unimodular)
from cubicmotives.quadform import GroupAction, Isometry, QuadSpace
from cubicmotives.realization import (RealizationConfig, RealizedClass, _contract, _diagonal,
                                      _last_to)


def _is_zero(val) -> bool:
    if isinstance(val, np.ndarray):
        return all(x == 0 for x in val.flat)
    return val == 0


class FractionClass:
    """A realized class as {signature: rational scalar or Fraction array}."""

    def __init__(self, spaces, comps=None):
        self.spaces = tuple(spaces)
        self.n = len(self.spaces)
        self.comps = {sig: val for sig, val in (comps or {}).items() if not _is_zero(val)}

    @classmethod
    def of(cls, x) -> "FractionClass":
        """The oracle copy of a library class, from its boxed components."""
        return cls(x.spaces, {sig: np.array(val) if isinstance(val, np.ndarray) else val
                              for sig, val in x.comps.items()})

    def __add__(self, other):
        out = dict(self.comps)
        for sig, val in other.comps.items():
            out[sig] = out[sig] + val if sig in out else val
        return FractionClass(self.spaces, out)

    def __neg__(self):
        return FractionClass(self.spaces, {s: -v for s, v in self.comps.items()})

    def __sub__(self, other):
        return self + -other

    def scale(self, t):
        t = QQ(t)
        return FractionClass(self.spaces, {s: v * t for s, v in self.comps.items()})

    def __mul__(self, other):
        acc = {}
        for sa, va in self.comps.items():
            for sb, vb in other.comps.items():
                got = component_product(self.spaces, sa, va, sb, vb)
                if got is None:
                    continue
                sig, val = got
                acc[sig] = acc[sig] + val if sig in acc else val
        return FractionClass(self.spaces, acc)

    def transport(self, mats, targets):
        """One matrix per slot (target x source), signature block by block."""
        comps = self.comps
        for s, (m, src, tgt) in enumerate(zip(mats, self.spaces, targets)):
            blocks = {}
            for ks in src.kinds():
                cells = ((kt, m[tgt.index(kt), src.index(ks)]) for kt in tgt.kinds())
                blocks[ks] = [(kt, b) for kt, b in cells if not _is_zero(b)]
            out = {}
            for sig, val in comps.items():
                p = sig[:s].count("V")  # position of this slot's V-axis
                for kt, b in blocks[sig[s]]:
                    if sig[s] == "V":
                        new = np.tensordot(val, b, axes=([p], [b.ndim - 1]))
                    else:
                        new = np.multiply.outer(val, b)
                    if kt == "V":
                        new = np.moveaxis(new, -1, p)
                    elif isinstance(new, np.ndarray) and new.ndim == 0:
                        new = new[()]
                    key = sig[:s] + (kt,) + sig[s + 1:]
                    out[key] = out[key] + new if key in out else new
            comps = out
        return FractionClass(targets, comps)


def component_product(spaces, sig_a, val_a, sig_b, val_b):
    """One pairwise product of rational components, or None when it vanishes."""
    out_sig = []
    factor = QQ(1)
    a_axes = [s for s, k in enumerate(sig_a) if k == "V"]
    b_axes = [s for s, k in enumerate(sig_b) if k == "V"]
    contracted = []
    for s, (ka, kb) in enumerate(zip(sig_a, sig_b)):
        sp = spaces[s]
        if ka == "V" and kb == "V":
            out_sig.append(("h", sp.vd.dim))
            contracted.append(s)
            factor = factor / sp.e
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
    if not a_axes and not b_axes:
        return tuple(out_sig), val_a * val_b * factor
    if not a_axes:
        return tuple(out_sig), val_b * (val_a * factor)
    if not b_axes:
        return tuple(out_sig), val_a * (val_b * factor)
    # contract each paired V-slot of a through the Gram matrix, then contract
    # a with b over those slots
    for s in contracted:
        i = a_axes.index(s)
        val_a = np.moveaxis(np.tensordot(val_a, spaces[s].gram, axes=([i], [0])), -1, i)
    val = np.tensordot(val_a, val_b, axes=([a_axes.index(s) for s in contracted],
                                           [b_axes.index(s) for s in contracted]))
    if val.ndim == 0:
        val = val[()]
    # the free axes come out as a's then b's; put them back in slot order
    free = [s for s in a_axes + b_axes if s not in contracted]
    if free:
        val = np.transpose(val, np.argsort(free))
    return tuple(out_sig), val * factor


# --- linalg: Bareiss elimination, every row updated at every pivot ---------------


def echelon(m):
    """Fraction-free Gauss-Jordan on an integer matrix: (r, p, pivot_columns)
    with r / p the reduced row-echelon form of ``m`` (p may be negative)."""
    m = np.array(m, dtype=object)  # rows are swapped in place
    if not set(map(type, m.flat)) <= {int}:
        raise TypeError("elimination needs integer numerators")
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


# --- linalg: Fraction Gauss-Jordan -----------------------------------------------


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
    m, pivots = rref(a)
    cols = m.shape[1]
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = zeros(cols)
        v[f] = QQ(1)
        for r, p in enumerate(pivots):
            v[p] = -m[r, f]
        basis.append(v)
    return basis


def solve(a, b):
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    vec = b.ndim == 1
    rhs = b.reshape(-1, 1) if vec else b
    m, pivots = rref(np.concatenate([a, rhs], axis=1))
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


# --- quadform: Fraction products and entry-keyed group searches ------------------


def isometry_verify(matrix, source_gram, target_gram) -> bool:
    m = np.asarray(matrix, dtype=object)
    return mat_eq(np.dot(m.T, np.dot(target_gram, m)), source_gram)


def _key(m) -> tuple:
    return tuple((x.numerator, x.denominator) for x in np.asarray(m, dtype=object).flat)


def group_closure(gram, generators, cap: int = 4096):
    gens = [np.asarray(g, dtype=object) for g in generators]
    for g in gens:
        if not isometry_verify(g, gram, gram):
            raise DomainError("group generator is not an isometry of the form")
    ident = eye(len(gram))
    elements = [ident]
    seen = {_key(ident)}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = np.dot(g, m)
                k = _key(p)
                if k not in seen:
                    if len(elements) >= cap:
                        raise DomainError("group not verifiably finite")
                    seen.add(k)
                    elements.append(p)
                    nxt.append(p)
        frontier = nxt
    return elements


def aligned_elements(gram1, gens1, gram2, gens2):
    """Aligned pairs of the groups generated by gens1 on gram1 and gens2 on
    gram2."""
    if len(gens1) != len(gens2):
        raise StructureError("generator lists must have equal length")
    order1, order2 = len(group_closure(gram1, gens1)), len(group_closure(gram2, gens2))
    ident = (eye(len(gram1)), eye(len(gram2)))
    pairs = {_key(ident[0]): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m1, m2 in frontier:
            for a1, a2 in zip(gens1, gens2):
                p1, p2 = np.dot(a1, m1), np.dot(a2, m2)
                k = _key(p1)
                if k in pairs:
                    if _key(pairs[k][1]) != _key(p2):
                        raise DomainError("group actions are not aligned")
                else:
                    pairs[k] = (p1, p2)
                    nxt.append((p1, p2))
        frontier = nxt
    if not len({_key(m2) for _, m2 in pairs.values()}) == len(pairs) == order1 == order2:
        raise DomainError("group actions are not aligned")
    return list(pairs.values())


# --- quadform: the Witt extension on Fraction vectors -------------------------------


def _q(gram, x, y=None):
    return np.dot(x, np.dot(gram, x if y is None else y))


def orthogonalize(gram, vectors):
    """Orthogonal basis of span(vectors) with all q-values nonzero, and the
    coefficients of each output in the input vectors: Gram-Schmidt with the
    anisotropic pivot (or the sum of a non-orthogonal isotropic pair)."""
    remaining = [np.asarray(v, dtype=object) for v in vectors]
    coords = list(eye(len(remaining)))
    out, out_coords = [], []
    while remaining:
        pivot = next((i for i, v in enumerate(remaining) if _q(gram, v) != 0), None)
        if pivot is not None:
            w, wc = remaining.pop(pivot), coords.pop(pivot)
        else:
            pair = next(((i, j) for i in range(len(remaining)) for j in range(i + 1, len(remaining))
                         if _q(gram, remaining[i], remaining[j]) != 0), None)
            if pair is None:
                raise DomainError("unsupported: degenerate complement")
            i, j = pair
            w, wc = remaining[i] + remaining[j], coords[i] + coords[j]
            del remaining[i], coords[i]
        qw = _q(gram, w)
        for k in range(len(remaining)):
            t = _q(gram, remaining[k], w) / qw
            remaining[k], coords[k] = remaining[k] - w * t, coords[k] - wc * t
        out.append(w)
        out_coords.append(wc)
    return out, out_coords


def reflection(gram, u):
    """z |-> z - 2 <z, u> / q(u) u as a Fraction matrix."""
    gu = np.dot(gram, u)
    return eye(len(u)) - np.multiply.outer(u, gu) * (QQ(2) / np.dot(u, gu))


def reflect_to(gram, x, y):
    """Matrix of R_{x-y}, or of R_y R_{x+y} when x - y is isotropic."""
    x, y = np.asarray(x, dtype=object), np.asarray(y, dtype=object)
    qx = _q(gram, x)
    if qx != _q(gram, y):
        raise DomainError("vectors must have the same length")
    if qx == 0:
        raise DomainError("vectors must be anisotropic")
    if mat_eq(x, y):
        return eye(len(x))
    if _q(gram, x - y) != 0:
        return reflection(gram, x - y)
    return np.dot(reflection(gram, y), reflection(gram, x + y))


def witt_extension(gram1, w1_basis, gram2, w2_basis, phi, psi):
    """phi_V after the reflection loop of the equivariant Witt extension:
    the orthogonalized W1 carried one vector at a time onto W2 psi_W."""
    basis, coeffs = orthogonalize(gram1, w1_basis)
    w2 = np.stack(w2_basis, axis=1) if len(w2_basis) else zeros(len(gram2), 0)
    for w, c in zip(basis, coeffs):
        y, t = np.dot(phi, w), np.dot(w2, np.dot(psi, c))
        if not mat_eq(y, t):
            phi = np.dot(reflect_to(gram2, y, t), phi)
    return phi


# --- motiveiso: Gamma assembled on Fraction arrays ---------------------------------


def transcendental(prim, alg):
    """Canonical basis of the complement of span(alg) (the Fraction kernel of
    alg G) and the restricted Gram matrix, in those coordinates."""
    n = prim.dim
    basis = kernel_basis(np.dot(np.stack(alg), prim.gram)) if len(alg) else list(eye(n))
    b = np.stack(basis, axis=1) if basis else zeros(n, 0)
    return basis, lin.dot(b.T, prim.gram, b)


def transport_tensor(u1_basis, u2_basis, source_gram, matrix) -> np.ndarray:
    """Ambient V x V' tensor acting as the isometry ``matrix`` (on the
    coordinates of ``u1_basis``, with Gram ``source_gram``) on span(u1)."""
    return lin.dot(np.stack(u1_basis, axis=1), lin.solve(source_gram, matrix.T),
                   np.stack(u2_basis, axis=0))


def build_gamma_assembly(dx, dy, iso_tr) -> RealizedClass:
    """Gamma as ``build_gamma`` assembled it on Fraction arrays: the images
    ``dot(b2, iso_tr.matrix)``, the V-block ``solve(dot(dom, G_X), img)``, and
    the ``RealizedClass`` constructor with the h-lines at 1/3.  ``dot`` and
    ``solve`` are the library's rational front ends (the Gauss-Jordan above
    is too slow at rank 22; the front ends are tested against it)."""
    primx, primy = dx.cfg.prim, dy.cfg.prim
    t1_basis, _ = transcendental(primx, dx.alg_basis)
    t2_basis, _ = transcendental(primy, dy.alg_basis)
    b2 = np.stack(t2_basis, axis=1) if t2_basis else zeros(primy.dim, 0)
    dom = np.stack(list(dx.alg_basis) + list(t1_basis))
    img = np.stack(list(dy.alg_basis) + list(lin.dot(b2, iso_tr.matrix).T))
    comps = {(("h", 4 - i), ("h", i)): QQ(1, 3) for i in range(5)}
    comps[("V", "V")] = lin.solve(lin.dot(dom, primx.gram), img)
    return RealizedClass((dx.space, dy.space), comps)


def build_gamma_cubic_k3_assembly(dx, ds, iso) -> RealizedClass:
    """The fourfold-to-K3 Gamma as ``build_gamma_cubic_k3`` assembled it: the
    transport tensor of ``iso`` between the two transcendental bases."""
    t1_basis, t1_gram = transcendental(dx.cfg.prim, dx.alg_basis)
    t2_basis, _ = transcendental(ds.prim2, ds.ns_basis)
    comps = {}
    if t1_basis:
        comps[("V", "V")] = transport_tensor(t1_basis, t2_basis, t1_gram, iso.matrix)
    return RealizedClass((dx.space, ds.space), comps)


# --- suites: the witt suite's random instances on Fraction arrays -------------------


def random_witt_instance(rng):
    """The witt suite's random extension problem as it was built on Fraction
    arrays: (gram1, gens1, w1, gram2, gens2, w2, phi, psi)."""
    n = rng.randint(2, 6)
    g1m = random_diag_gram(rng, n)
    v1 = QuadSpace(g1m)
    wdim = min(rng.choice((0, 1, 1, 2, 2)), n - 1)
    gens1 = []
    for _ in range(rng.randint(0, 3)):
        flips = [i for i in range(wdim, n) if rng.random() < 0.5]
        g = eye(n)
        for i in flips:
            g[i, i] = QQ(-1)
        gens1.append(g)
    fixed_coords = [i for i in range(n) if all(g[i, i] == 1 for g in gens1)]
    for attempt in range(20):
        cand = []
        for k in range(wdim):
            v = zeros(n)
            for i in fixed_coords:
                v[i] = QQ(rng.randint(-1, 1))
            cand.append(v)
        if wdim == 0 or rank(np.dot(np.dot(np.stack(cand), g1m), np.stack(cand).T)) == wdim:
            w1 = cand
            break
    else:
        w1 = [eye(n)[i].copy() for i in fixed_coords[:wdim]]
    s, s_inv = random_unimodular(rng, n)
    g2m = lin.dot(s.T, g1m, s)
    gens2 = [lin.dot(s_inv, g, s) for g in gens1]
    w2 = [lin.dot(s_inv, w) for w in w1]
    phi_mat = lin.dot(s_inv, eye(n))
    if fixed_coords and rng.random() < 0.8:
        for attempt in range(10):
            f = zeros(n)
            for i in fixed_coords:
                f[i] = QQ(rng.randint(-2, 2))
            if v1.q(f) != 0:
                phi_mat = lin.dot(s_inv, Isometry.reflection(v1, f).matrix)
                break
    return g1m, gens1, w1, g2m, gens2, w2, phi_mat, eye(wdim)


# --- motiveiso: the random pairs on Fraction arrays ----------------------------------


def random_fourfold_pair(seed: int, rank: int = 6):
    """``random_fourfold_pair`` as it was built: Grams, algebraic classes and
    the conjugated generator through ``dot``, and the conjugated group by a
    second ``GroupAction.build`` (isometry check and closure)."""
    rng = random.Random(seed)
    alg_rank = rng.randrange(0, 4)
    if alg_rank > rank - 2:
        raise StructureError("algebraic rank too large for the chosen rank")
    g1 = random_diag_gram(rng, rank)
    prim1 = QuadSpace(g1)
    alg1 = [eye(rank)[i].copy() for i in range(alg_rank)]
    fixed_t = list(range(alg_rank, rank))
    flips = eye(rank)
    for i in range(alg_rank, rank):
        if rng.random() < 0.5:
            flips[i, i] = QQ(-1)
            fixed_t.remove(i)
    group1 = GroupAction.build(prim1, [flips])
    s, s_inv = random_unimodular(rng, rank)
    prim2 = QuadSpace(lin.dot(s.T, g1, s))
    alg2 = [lin.dot(s_inv, a) for a in alg1]
    group2 = GroupAction.build(prim2, [lin.dot(s_inv, flips, s)])
    dx = FourfoldData(RealizationConfig(prim=prim1), tuple(alg1), group1)
    dy = FourfoldData(RealizationConfig(prim=prim2), tuple(alg2), group2)
    iso_tr = _conjugation_iso(dx, dy, s_inv)
    if fixed_t and rng.random() < 0.7:
        w = zeros(iso_tr.source.dim)
        w[rng.choice(fixed_t) - alg_rank] = QQ(1)
        iso_tr = iso_tr.compose(Isometry.reflection(iso_tr.source, w))
    return dx, dy, iso_tr


def random_cubic_k3_pair(seed: int, rank: int = 6):
    """``random_cubic_k3_pair`` as it was built: the K3 Gram through ``dot``."""
    rng = random.Random(seed)
    g1 = random_diag_gram(rng, rank)
    dx = FourfoldData(RealizationConfig(prim=QuadSpace(g1)))
    s, s_inv = random_unimodular(rng, rank)
    ds = SurfaceData(VarietyData.k3(), QuadSpace(lin.dot(s.T, g1, s)))
    return dx, ds, _conjugation_iso(dx, ds, s_inv)


# --- realization: realize term by term -----------------------------------------------


def realize_by_terms(x, space) -> RealizedClass:
    """``realize`` as it summed its terms: one class per h-monomial, diagonal
    and small diagonal, each added to the running sum."""
    spaces = (space,) * x.n
    out = RealizedClass(spaces, {})
    for mon, c in x.terms.items():
        if mon[0] == "h":
            term = RealizedClass(spaces, {tuple(("h", a) for a in mon[1]): c})
        elif mon[0] == "D":
            _, i, j, deco = mon
            term = _diagonal(space, (i, j), x.n, 3 - i - j if x.n == 3 else None, deco).scale(c)
        else:
            term = (_diagonal(space, (0, 1), 3) * _diagonal(space, (0, 2), 3)).scale(c)
        out = out + term
    return out


# --- realization: the signature walk of every pairwise product ------------------------


def walk_component_product(spaces, sig_a, val_a, sig_b, val_b):
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
    # then contract a with b over those slots in one contraction
    for s in contracted:
        i = a_axes.index(s)
        val_a = lin.contract(val_a, spaces[s]._gram[0], ([i], [0])).transpose(
            _last_to(i, val_a.ndim))
    val = _contract(val_a, val_b, ([a_axes.index(s) for s in contracted],
                                  [b_axes.index(s) for s in contracted]))
    # the free axes come out as a's then b's; put them back in slot order
    free = [s for s in a_axes + b_axes if s not in contracted]
    if free:
        val = np.transpose(val, np.argsort(free))
    return tuple(out_sig), val, d


def walk_product(x, y) -> RealizedClass:
    """``x * y`` as it was: the walk above on every pair of components, each
    product rescaled to the lcm of their denominators."""
    terms = []
    for sa, va in x._num.items():
        for sb, vb in y._num.items():
            got = walk_component_product(x.spaces, sa, va, sb, vb)
            if got is not None:
                terms.append(got)
    lcm = math.lcm(*(d for _, _, d in terms))
    acc = {}
    for sig, val, d in terms:
        val = val * (lcm // d)
        acc[sig] = acc[sig] + val if sig in acc else val
    return RealizedClass._of(x.spaces, acc, x._den * y._den * lcm)
