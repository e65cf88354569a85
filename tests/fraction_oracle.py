"""The Fraction-array route that ``RealizedClass``'s integer numerators replaced.

``RealizedClass`` stores integer numerators over one class denominator and
runs its arithmetic on those integers.  ``FractionClass`` below is the route
it replaced: components are rational scalars and ``Fraction`` object arrays,
added, negated and scaled entry by entry, with products and transport
contracted by object ``np.tensordot`` (exact over ``Fraction``), and all-zero
components dropped.  The tests compare the library against it for exact
equality.
"""

import numpy as np

from cubicmotives.rationals import QQ


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
