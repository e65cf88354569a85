"""Acceptance gate: ten numbered criteria, each a single test that prints one
PASS/FAIL line and enforces its runtime budget.  All arithmetic is exact; a
criterion passes only if every underlying check holds identically (zero
tolerance).  Run with `pytest -v tests/test_acceptance.py`."""

from cubicmotives.realization import Space
from cubicmotives.suites import (
    chern_suite,
    derive_p_suite,
    gamma_k3_suite,
    gamma_suite,
    kernel_suite,
    mukai_table_suite,
    projector_suite,
    random_gram,
    witt_suite,
)


def _passed(report, n, label, budget=None):
    """Assert the report is clean and within budget; emit the criterion line."""
    bad = report.failures()
    status = "PASS" if not bad else "FAIL"
    line = f"CRITERION {n:2d}: {status} — {label} ({len(report.checks)} checks, {report.seconds:.2f}s)"
    print(line)
    assert not bad, f"criterion {n} failing checks: {[c['id'] for c in bad]}"
    if budget is not None:
        assert report.seconds < budget, (
            f"criterion {n} took {report.seconds:.2f}s, budget {budget}s")
    return report


def _ids(report):
    return [c["id"] for c in report.checks]


def test_criterion_01_chern_todd_pipeline():
    rep = _passed(chern_suite(), 1, "Chern/Todd pipeline on the cubic fourfold", budget=1.0)
    assert {"tangent-chern", "todd-degree", "euler-number", "sqrt-todd"} <= set(_ids(rep))


def test_criterion_02_mukai_gram_vs_hilbert_oracle():
    rep = _passed(mukai_table_suite(), 2, "Mukai Gram table against the Hilbert-polynomial oracle", budget=1.0)
    assert {"gram-table", "hilbert-oracle"} <= set(_ids(rep))


def test_criterion_03_lambda_classes():
    rep = _passed(mukai_table_suite(), 3, "lambda-class pairings and exact span rank", budget=1.0)
    assert {"lambda-norms", "lambda-cross", "lambda-orthogonal", "span-rank"} <= set(_ids(rep))


def test_criterion_04_projector_suite():
    rep = _passed(projector_suite(), 4, "diagonal decomposition, primitive projector, shadow vanishing", budget=5.0)
    assert {"idempotent", "orthogonal", "complete", "prim-self-transpose",
            "prim-absorbed", "hkill"} <= set(_ids(rep))


def test_criterion_05_kernel_identities_two_grams():
    rep = _passed(kernel_suite(), 5, "projection and sandwich identities for two Gram matrices", budget=30.0)
    ids = set(_ids(rep))
    for stem in ("pLpL", "pRpR", "pLpR", "pRpL", "sandwichL", "sandwichR"):
        assert {f"{stem}-g1", f"{stem}-g2"} <= ids


def test_criterion_06_derive_p():
    rep = _passed(derive_p_suite(), 6, "correction class: shadow, symmetry, Gram independence, 125 degrees", budget=60.0)
    assert {"mult-shadow", "p-symmetric", "p-gram-independent",
            "monomial-degrees"} <= set(_ids(rep))


def test_criterion_07_euler_negative_control():
    good = derive_p_suite(Space.with_gram(random_gram(7, rank=22)))
    bad21 = derive_p_suite(Space.with_gram(random_gram(7, rank=21)))
    bad23 = derive_p_suite(Space.with_gram(random_gram(7, rank=23)))
    ok = (good.passed()
          and [c["id"] for c in bad21.failures()] == ["euler-27"]
          and [c["id"] for c in bad23.failures()] == ["euler-27"]
          and _ids(bad21)[-1] == "euler-27" == _ids(bad23)[-1])
    print(f"CRITERION  7: {'PASS' if ok else 'FAIL'} — rank 22 passes deg(Δ²)=27;"
          " ranks 21/23 fail exactly that check and no earlier one")
    assert good.passed(), [c["id"] for c in good.failures()]
    for rep in (bad21, bad23):
        assert [c["id"] for c in rep.failures()] == ["euler-27"]
        assert _ids(rep)[-1] == "euler-27"


def test_criterion_08_equivariant_witt_randomized():
    rep = _passed(witt_suite(), 8, "200 randomized equivariant Witt extensions", budget=60.0)
    assert {"isometry", "prescription", "equivariance", "complement",
            "degenerate-rejected"} <= set(_ids(rep))


def test_criterion_09_gamma_certificates():
    rep = _passed(gamma_suite(), 9, "20 randomized Γ certificates plus negative controls", budget=120.0)
    ids = set(_ids(rep))
    assert {f"pair-{i:02d}" for i in range(20)} <= ids
    assert {"pair-rank22", "negative-hflip", "negative-shear"} <= ids


def test_criterion_10_cubic_k3():
    rep = _passed(gamma_k3_suite(), 10, "cubic–K3 transfers: toy, random, rank 22, mismatch rejected", budget=30.0)
    assert {"toy-rank2", "random-pairs", "rank22", "mismatch-rejected"} <= set(_ids(rep))
