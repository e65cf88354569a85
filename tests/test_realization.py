"""Cohomological realization with a primitive summand: the bridge from the
correspondence calculus, the small-diagonal correction class with its
closed-form degree table, kernel identities, and Euler consistency."""

import itertools
import random

import numpy as np
import pytest

from dense_oracle import (dense_compose, dense_transport, einsum_product, from_dense,
                          from_matrix, to_dense)
from cubicmotives.errors import StructureError
from cubicmotives.gradedring import VarietyData
from cubicmotives.linalg import boxed, eye, mat_eq, mat_from_json, mat_to_json, qmat, scaled, zeros
from cubicmotives.motiveiso import random_diag_gram, random_unimodular
from cubicmotives.quadform import QuadSpace
from cubicmotives.rationals import QQ
from cubicmotives.realization import (RealizationConfig, RealizedClass, Space, _diagonal,
                                      action_matrix, check, check_equal,
                                      compose_realized, degree, derive_P,
                                      diagonal_realized, p_to_text, realize,
                                      scaled_action, verify_kernel_identities)
from cubicmotives.tautcorr import CorrClass, ck_projectors, compose, transpose
from test_linalg import PRIMITIVE_LATTICE


CUBIC = VarietyData.cubic_fourfold()

# the correction class, frozen: (1/9)(h1^2 h2^3 h3^3 + h1^3 h2^2 h3^3
#   + h1^3 h2^3 h3^2 - h2^4 h3^4 - h1^4 h3^4 - h1^4 h2^4)
P_TERMS = {
    ("h", (2, 3, 3)): QQ(1, 9),
    ("h", (3, 2, 3)): QQ(1, 9),
    ("h", (3, 3, 2)): QQ(1, 9),
    ("h", (0, 4, 4)): QQ(-1, 9),
    ("h", (4, 0, 4)): QQ(-1, 9),
    ("h", (4, 4, 0)): QQ(-1, 9),
}


def small_cfg(rank=3, seed=5) -> RealizationConfig:
    return RealizationConfig.with_gram(random_diag_gram(random.Random(seed), rank))


def test_space_shape():
    cfg = small_cfg(rank=2)
    sp = cfg.space
    assert sp.hdim == 5
    assert sp.r == 2
    assert sp.size == 7
    assert sp.e == QQ(3)
    # block pairing: e on the h-antidiagonal, the Gram form on the summand
    assert sp.pairing[0, 4] == QQ(3)
    assert sp.pairing[4, 0] == QQ(3)
    assert sp.pairing[0, 0] == QQ(0)
    assert mat_eq(sp.pairing[5:, 5:], sp.gram)


def test_default_config_rank():
    cfg = RealizationConfig.default()
    assert cfg.space.r == 22
    assert cfg.space.gram[0, 0] != 0


def test_config_json_roundtrip():
    # a configuration's JSON form is its Gram matrix in "p/q" rows, the form
    # the CLI reads from a gram file
    cfg = small_cfg(rank=4)
    cfg2 = RealizationConfig.with_gram(mat_from_json(mat_to_json(cfg.prim.gram)))
    assert mat_eq(cfg2.prim.gram, cfg.prim.gram)
    assert cfg2.space == cfg.space


def test_realize_diagonal_and_monomials():
    cfg = small_cfg()
    sp = cfg.space
    d = realize(CorrClass.diagonal(CUBIC), cfg)
    assert d == diagonal_realized(sp)
    m = realize(CorrClass.h_monomial(CUBIC, (4, 4), QQ(1)), cfg)
    assert degree(m) == QQ(9)
    assert degree(realize(CorrClass.h_monomial(CUBIC, (4, 3)), cfg)) == QQ(0)


def _random_taut(rng) -> CorrClass:
    out = CorrClass.zero(CUBIC, 2)
    for _ in range(rng.randint(1, 3)):
        out = out + CorrClass.h_monomial(
            CUBIC, (rng.randint(0, 4), rng.randint(0, 4)),
            QQ(rng.randint(-3, 3), rng.randint(1, 3)))
    if rng.random() < 0.6:
        out = out + CorrClass.diagonal(CUBIC, coeff=QQ(rng.randint(-2, 2)))
    return out


def test_realization_is_functorial():
    cfg = small_cfg()
    rng = random.Random(3)
    for _ in range(15):
        f, g = _random_taut(rng), _random_taut(rng)
        lhs = realize(compose(f, g), cfg)
        rhs = compose_realized(realize(f, cfg), realize(g, cfg))
        assert lhs == rhs
        assert realize(transpose(f), cfg) == realize(f, cfg).transpose()


def test_compose_realized_unital():
    cfg = small_cfg()
    d = diagonal_realized(cfg.space)
    f = realize(_random_taut(random.Random(9)), cfg)
    assert compose_realized(d, f) == f
    assert compose_realized(f, d) == f


def test_action_matrix_shape_and_diagonal():
    cfg = small_cfg(rank=2)
    d = diagonal_realized(cfg.space)
    assert mat_eq(action_matrix(d), eye(cfg.space.size))


def test_matrix_and_dense_roundtrip():
    cfg = small_cfg()
    sp = cfg.space
    f = realize(_random_taut(random.Random(21)), cfg)
    m = f.to_matrix()
    assert from_matrix((sp, sp), m) == f
    dense = to_dense(f)
    assert from_dense((sp, sp), dense) == f


def test_transport_by_identity():
    cfg = small_cfg()
    sp = cfg.space
    f = realize(_random_taut(random.Random(2)), cfg)
    assert f.transport([scaled(eye(sp.size)), scaled(eye(sp.size))], [sp, sp]) == f
    assert f.transport([None, None], [sp, sp]) == f


def _rand_q(rng):
    return QQ(rng.randint(-3, 3), rng.randint(1, 3))


def _random_realized(rng, spaces, n_comps=6) -> RealizedClass:
    """A class with random components, h-only and V-carrying alike."""
    sigs = list(itertools.product(*(sp.kinds() for sp in spaces)))
    comps = {}
    for sig in rng.sample(sigs, min(n_comps, len(sigs))):
        shape = [sp.r for k, sp in zip(sig, spaces) if k == "V"]
        val = zeros(*shape) if shape else _rand_q(rng)
        if shape:
            for idx in np.ndindex(*shape):
                val[idx] = _rand_q(rng)
        comps[sig] = val
    return RealizedClass(spaces, comps)


def _random_map(rng, source: Space, target: Space) -> np.ndarray:
    """A target x source matrix with every entry nonzero, so all four
    blocks (hh, hV, Vh, VV) of the slot map are nonzero."""
    m = zeros(target.size, source.size)
    for i in range(target.size):
        for j in range(source.size):
            m[i, j] = QQ(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
    return m


def test_block_transport_matches_dense_oracle():
    rng = random.Random(41)
    sp3, sp2, sp5 = small_cfg(rank=3).space, small_cfg(rank=2, seed=7).space, \
        small_cfg(rank=5, seed=9).space
    h_only = Space(CUBIC)
    k3 = Space(VarietyData.k3(), small_cfg(rank=4, seed=2).prim)
    cases = [
        ((sp3, sp3), (sp3, sp3)),
        ((sp3, sp3, sp3), (sp3, sp3, sp3)),
        ((sp3, sp5), (sp2, sp3)),              # ranks change per slot
        ((sp2, sp3, sp5), (sp5, sp2, sp3)),
        ((sp3, sp2), (h_only, h_only)),        # onto an h-only space (r = 0)
        ((h_only, sp2, h_only), (sp3, h_only, sp2)),  # out of one
        ((sp3, sp2), (k3, sp3)),               # a different variety in a slot
    ]
    for sources, targets in cases:
        for _ in range(3):
            x = _random_realized(rng, sources)
            mats = [_random_map(rng, a, b) for a, b in zip(sources, targets)]
            got = x.transport([scaled(m) for m in mats], targets)
            assert got.spaces == tuple(targets)
            assert got == dense_transport(x, mats, targets)


def test_block_transport_of_diagonals_matches_dense_oracle():
    cfg = small_cfg(rank=4, seed=17)
    sp = cfg.space
    rng = random.Random(8)
    m = _random_map(rng, sp, sp)
    d = diagonal_realized(sp)
    sm = scaled(m)
    assert d.transport((sm, sm), (sp, sp)) == dense_transport(d, (m, m), (sp, sp))
    delta = realize(CorrClass.small_diagonal(CUBIC), cfg)
    assert delta.transport((sm, sm, sm), (sp,) * 3) == dense_transport(delta, (m, m, m), (sp,) * 3)


def _einsum_mul(a: RealizedClass, b: RealizedClass) -> RealizedClass:
    """a * b assembled from ``einsum_product`` on the boxed components."""
    acc = {}
    for sa, va in a.comps.items():
        for sb, vb in b.comps.items():
            got = einsum_product(a.spaces, sa, va, sb, vb)
            if got is not None:
                sig, val = got
                acc[sig] = acc[sig] + val if sig in acc else val
    return RealizedClass(a.spaces, acc)


def test_products_match_einsum_oracle(monkeypatch):
    """The library product against one assembled from the einsum oracle,
    alone and inside ``realize`` (the small diagonal is a product)."""
    nondiag = RealizationConfig.with_gram(qmat([[QQ(2), QQ(1), QQ(0)],
                                                [QQ(1), QQ(2), QQ(0)],
                                                [QQ(0), QQ(0), QQ(-1)]]))
    rng = random.Random(12)
    cfgs = (small_cfg(rank=1), small_cfg(rank=4, seed=8), nondiag)
    taut = [CorrClass.small_diagonal(CUBIC),
            CorrClass.small_diagonal(CUBIC).scale(QQ(2, 3))
            + CorrClass(CUBIC, 3, {("D", 0, 2, 1): QQ(-1)})
            + CorrClass.h_monomial(CUBIC, (1, 2, 0), QQ(1, 2))]
    pairs = []
    for cfg in cfgs:
        sp = cfg.space
        for n in (2, 3):
            pairs += [(_random_realized(rng, (sp,) * n, 8),
                       _random_realized(rng, (sp,) * n, 8)) for _ in range(3)]
    got_real = [realize(x, cfg) for cfg in cfgs for x in taut]
    got_prod = [a * b for a, b in pairs]
    monkeypatch.setattr(RealizedClass, "__mul__", _einsum_mul)
    assert got_real == [realize(x, cfg) for cfg in cfgs for x in taut]
    assert got_prod == [a * b for a, b in pairs]


def test_compose_matches_dense_oracle():
    rng = random.Random(23)
    h_only = Space(CUBIC)  # rank 0
    sp1, sp4 = small_cfg(rank=1).space, small_cfg(rank=4, seed=8).space
    nondiag = RealizationConfig.with_gram(qmat([[QQ(2), QQ(1), QQ(0)],
                                                [QQ(1), QQ(2), QQ(0)],
                                                [QQ(0), QQ(0), QQ(-1)]])).space
    k3 = Space(VarietyData.k3(), small_cfg(rank=4, seed=2).prim)
    chains = [
        (h_only, h_only, h_only),
        (sp1, sp1, sp1),
        (sp4, sp4, sp4),
        (nondiag, nondiag, nondiag),
        (sp4, sp1, h_only),      # the rank changes along the chain
        (h_only, sp4, sp1),
        (sp4, k3, nondiag),      # fourfold x K3, then K3 x fourfold
        (k3, sp4, k3),
    ]
    for a, b, c in chains:
        for n_comps in (4, 36):  # sparse, and every block present
            f = _random_realized(rng, (a, b), n_comps)
            g = _random_realized(rng, (b, c), n_comps)
            got = compose_realized(f, g)
            assert got.spaces == (a, c)
            assert got == dense_compose(f, g)


def test_action_is_made_once_and_read_only():
    cfg = small_cfg(rank=4, seed=3)
    f = _random_realized(random.Random(5), (cfg.space, cfg.space))
    a = scaled_action(f)
    assert scaled_action(f) is a
    assert mat_eq(action_matrix(f), np.dot(f.to_matrix().T, cfg.space.pairing))
    with pytest.raises(ValueError):
        a[0][0, 0] = 1


def test_kept_block_tables_match_fresh_ones():
    """The same action read into two target layouts of one size, a fourfold's
    (5 h-lines, r = 4) and a K3's (3 h-lines, r = 6), in either order and on
    several slots at once: each kept table gives what a fresh one gives."""
    rng = random.Random(12)
    src = small_cfg(rank=3, seed=4).space
    four = small_cfg(rank=4, seed=6).space
    k3 = Space(VarietyData.k3(), small_cfg(rank=6, seed=8).prim)
    a = scaled_action(_random_realized(rng, (src, four), n_comps=12))
    fresh = tuple(a)  # a plain pair keeps no table
    for targets in ((four,), (k3,), (four, k3), (k3, k3, four)):
        x = _random_realized(rng, (src,) * len(targets))
        got = x.transport((a,) * len(targets), targets)
        assert got.spaces == targets
        assert got == x.transport((fresh,) * len(targets), targets)
        assert got == dense_transport(x, [boxed(*a)] * len(targets), targets)
    assert set(a.tables) == {(5, 3, 5, 4), (5, 3, 3, 6)}


def test_middle_part_is_canonical():
    """Dropping components can change the gcd: here the part that stays is
    2/2, which must read 1 over 1."""
    sp = small_cfg(rank=2).space
    f = RealizedClass((sp, sp), {(("h", 2), ("h", 2)): QQ(1), (("h", 0), ("h", 4)): QQ(1, 2)})
    mid = f.middle_part()
    assert mid == RealizedClass((sp, sp), {(("h", 2), ("h", 2)): QQ(1)})
    assert mid._den == 1 and mid._num == {(("h", 2), ("h", 2)): 1}


def _diagonal_spaces():
    """Spaces whose inverse Gram denominator shares a factor with e or not."""
    rng = random.Random(21)
    s, _ = random_unimodular(rng, 22)
    grams = [random_diag_gram(rng, r) for r in (1, 2, 5, 22)]
    grams += [PRIMITIVE_LATTICE, np.dot(np.dot(s.T, PRIMITIVE_LATTICE), s),
              qmat([[QQ(2, 3), QQ(1, 5)], [QQ(1, 5), QQ(-4, 7)]])]
    spaces = [Space(CUBIC, QuadSpace(g)) for g in grams]
    spaces += [Space(VarietyData.k3(d), QuadSpace(g)) for d in (2, 4) for g in grams[1::2]]
    return spaces + [Space(CUBIC), Space(VarietyData.k3())]  # r = 0


def test_diagonals_are_canonical_as_built():
    """Every diagonal, undecorated on two and three slots and decorated by
    each h-power on three, equals its integers put through the gcd pass."""
    for sp in _diagonal_spaces():
        dim = sp.vd.dim
        cases = [((0, 1), 2, None, 0)] + [((i, j), 3, 3 - i - j, deco)
                                           for i, j in ((0, 1), (0, 2), (1, 2))
                                           for deco in (None, *range(dim + 1))]
        for slots, n, k, deco in cases:
            d = _diagonal(sp, slots, n, k if deco is not None else None, deco or 0)
            ref = RealizedClass._of(d.spaces, dict(d._num), d._den)
            assert d._den == ref._den > 0 and d._num.keys() == ref._num.keys(), (sp.r, slots, deco)
            assert all(np.array_equal(v, ref._num[sig]) for sig, v in d._num.items())
            assert all(np.any(v) for v in d._num.values())


def test_middle_part_of_diagonal():
    cfg = small_cfg(rank=2)
    mid = diagonal_realized(cfg.space).middle_part()
    keys = set(mid.comps)
    assert keys == {(("h", 2), ("h", 2)), ("V", "V")}


def test_derive_p_frozen_terms():
    p = derive_P(RealizationConfig.default())
    assert p.terms == P_TERMS
    assert "1/9" in p_to_text(p)


def test_derive_p_gram_independent():
    # diagonal and non-diagonal Gram matrices of several ranks all agree
    p0 = derive_P(RealizationConfig.default())
    nondiag = qmat([[QQ(2), QQ(1), QQ(0)],
                    [QQ(1), QQ(2), QQ(0)],
                    [QQ(0), QQ(0), QQ(-1)]])
    for cfg in (small_cfg(rank=1), small_cfg(rank=6, seed=8),
                RealizationConfig.with_gram(nondiag)):
        assert derive_P(cfg) == p0


def test_degree_oracle_for_correction_class():
    cfg = small_cfg(rank=4, seed=13)
    rp = realize(derive_P(cfg), cfg)
    for a in range(5):
        for b in range(5):
            for c in range(5):
                want = QQ(3 * (a + b + c == 4)
                          - 3 * ((a + b == 4 and c == 0)
                                 + (a + c == 4 and b == 0)
                                 + (b + c == 4 and a == 0)))
                m = realize(CorrClass.h_monomial(CUBIC, (a, b, c)), cfg)
                assert degree(rp * m) == want, (a, b, c)


def test_euler_degree_tracks_rank():
    for rank, want in ((21, 26), (22, 27), (23, 28)):
        cfg = small_cfg(rank=rank, seed=rank)
        d = realize(CorrClass.diagonal(CUBIC), cfg)
        assert degree(d * d) == QQ(want)


def test_kernel_identities_two_grams():
    expected = {"pLpL", "pRpR", "pLpR", "pRpL",
                "sandwichL", "sandwichR", "restrictL", "restrictR"}
    for cfg in (RealizationConfig.default(), small_cfg(rank=5, seed=31)):
        results = verify_kernel_identities(cfg)
        assert {r["id"] for r in results} == expected
        assert all(r["passed"] for r in results), [r for r in results if not r["passed"]]


def test_check_records():
    assert check("a", "claim", True, "unused") == {
        "id": "a", "claim": "claim", "passed": True, "witness": None}
    assert check("a", "claim", False)["witness"] == "identity does not hold"
    assert check("a", "claim", 0, "why") == {
        "id": "a", "claim": "claim", "passed": False, "witness": "why"}
    d = diagonal_realized(small_cfg(rank=2).space)
    assert check_equal("d", "claim", d, d)["witness"] is None
    got = check_equal("d", "claim", d, d.scale(2))
    assert not got["passed"]
    assert got["witness"] == "VxV[0,0]: got -1/1, want -2/1"


def test_realized_projectors_match_calculus():
    cfg = small_cfg(rank=2)
    pis = ck_projectors(CUBIC)
    rp = {k: realize(v, cfg) for k, v in pis.items()}
    total = rp["pi0"] + rp["pi2"] + rp["pi4"] + rp["pi6"] + rp["pi8"]
    assert total == diagonal_realized(cfg.space)
    for k in pis:
        assert compose_realized(rp[k], rp[k]) == rp[k]
    # the primitive projector realizes to the bare summand block
    prim = rp["pi4_prim"]
    assert set(prim.comps) == {("V", "V")}
    assert mat_eq(prim.comps[("V", "V")], cfg.space.gram_inv)


def test_space_mismatch_rejected():
    cfg1, cfg2 = small_cfg(rank=2), small_cfg(rank=3)
    f = realize(CorrClass.diagonal(CUBIC), cfg1)
    g = realize(CorrClass.diagonal(CUBIC), cfg2)
    with pytest.raises(StructureError):
        compose_realized(f, g)
