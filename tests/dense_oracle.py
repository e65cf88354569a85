"""Reference routes that the block-sparse realization engine replaced.

``RealizedClass.transport`` works signature block by signature block,
``_component_product`` contracts V-slots by pairwise ``np.tensordot`` on
integer numerators, and
``compose_realized`` transports the second slot of f by the action of g.  The
routes below are the straightforward ones they replaced: densify every class
to a full (sum of h-lines + r)^n array and apply one ``tensordot`` per slot,
contract V-slots with a single unoptimised ``np.einsum``, and compose two-slot
classes as the matrix product M_f . Pi . M_g read back block by block.  The
tests compare the library against them for exact equality.
"""

import itertools

import numpy as np

from cubicmotives.linalg import dot
from cubicmotives.rationals import QQ
from cubicmotives.realization import RealizedClass

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _sel(sig, spaces):
    return tuple(k[1] if k != "V" else slice(sp.hdim, sp.size) for k, sp in zip(sig, spaces))


def to_dense(x: RealizedClass) -> np.ndarray:
    shape = tuple(sp.size for sp in x.spaces)
    dense = np.full(shape, QQ(0), dtype=object)
    for sig, val in x.comps.items():
        sel = _sel(sig, x.spaces)
        dense[sel] = dense[sel] + val
    return dense


def from_dense(spaces, dense) -> RealizedClass:
    comps = {}
    for sig in itertools.product(*(sp.kinds() for sp in spaces)):
        val = dense[_sel(sig, spaces)]
        comps[sig] = val.copy() if isinstance(val, np.ndarray) else val
    return RealizedClass(spaces, comps)


def dense_transport(x: RealizedClass, mats, targets) -> RealizedClass:
    """Apply one matrix per slot (target x source) to the dense array."""
    dense = to_dense(x)
    for s, m in enumerate(mats):
        dense = np.moveaxis(np.tensordot(m, dense, axes=([1], [s])), 0, s)
    return from_dense(tuple(targets), dense)


def from_matrix(spaces, m) -> RealizedClass:
    """The two-slot class whose matrix form (``to_matrix``) is m."""
    sa, sb = spaces
    comps = {}
    for i in range(sa.hdim):
        for j in range(sb.hdim):
            comps[(("h", i), ("h", j))] = m[i, j]
    if sa.r:
        for j in range(sb.hdim):
            comps[("V", ("h", j))] = m[sa.hdim:, j].copy()
    if sb.r:
        for i in range(sa.hdim):
            comps[(("h", i), "V")] = m[i, sb.hdim:].copy()
    if sa.r and sb.r:
        comps[("V", "V")] = m[sa.hdim:, sb.hdim:].copy()
    return RealizedClass(spaces, comps)


def dense_compose(f: RealizedClass, g: RealizedClass) -> RealizedClass:
    """f then g as the matrix product M_f . Pi . M_g over the middle space."""
    m = dot(dot(f.to_matrix(), f.spaces[1].pairing), g.to_matrix())
    return from_matrix((f.spaces[0], g.spaces[1]), m)


def einsum_product(spaces, sig_a, val_a, sig_b, val_b):
    """One pairwise product of components, contracted by a single einsum."""
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
    la = {s: _LETTERS[i] for i, s in enumerate(a_axes)}
    lb = {s: _LETTERS[len(a_axes) + i] for i, s in enumerate(b_axes)}
    operands = [val_a]
    subs = ["".join(la[s] for s in a_axes)]
    for s in contracted:
        operands.append(spaces[s].gram)
        subs.append(la[s] + lb[s])
    operands.append(val_b)
    subs.append("".join(lb[s] for s in b_axes))
    out_letters = ""
    for s, k in enumerate(out_sig):
        if k == "V":
            out_letters += la[s] if s in la else lb[s]
    val = np.einsum(",".join(subs) + "->" + out_letters, *operands)
    if out_letters == "" and isinstance(val, np.ndarray):
        val = val.item()
    return tuple(out_sig), val * factor
