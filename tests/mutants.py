"""A fixed catalogue of mutants of the exact kernels, and the runner that
checks that each one is killed by its target tests.

Each entry names one source fragment of ``src/cubicmotives/<module>.py``,
which must occur there exactly once (``test_mutants.py`` checks that in
tier 1, so the catalogue cannot rot silently), its replacement, and the tests
that must fail once it is applied.  The runner copies ``src/`` to a temporary
directory, applies one replacement to the copy, and runs the target tests
against it in a subprocess; the tree itself is never changed.  A surviving
mutant is a missing test: add the test, never remove the mutant.

Run from the repository root (standard library only):

    python tests/mutants.py             # every mutant; exits 1 if any survives
    python tests/mutants.py solve       # only mutants whose name contains "solve"
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cubicmotives"


class Mutant(NamedTuple):
    name: str
    module: str        # file stem under src/cubicmotives
    fragment: str      # exact source text, present exactly once
    replacement: str
    targets: tuple     # pytest node ids, relative to the repository root


LINALG = ("tests/test_linalg.py",)
GAMMA = ("tests/test_motiveiso.py::test_gamma_matches_fraction_assembly",
         "tests/test_motiveiso.py::test_cubic_k3_gamma_matches_fraction_assembly")
CANONICAL = ("tests/test_motiveiso.py::"
             "test_transcendental_bases_rejects_maps_off_the_canonical_coordinates",)

CATALOGUE = (
    Mutant("solve-inconsistent-pivot", "linalg",
           "if any(c >= n for c in pivots):", "if any(c > n for c in pivots):", LINALG),
    Mutant("solve-drops-bd-row-factor", "linalg",
           "np.concatenate([an * bd, rhs * ad], axis=1)",
           "np.concatenate([an, rhs * ad], axis=1)", LINALG),
    Mutant("solve-drops-ad-row-factor", "linalg",
           "np.concatenate([an * bd, rhs * ad], axis=1)",
           "np.concatenate([an * bd, rhs], axis=1)", LINALG),
    Mutant("kernel-free-column-sign", "linalg",
           "basis[:, pivots] = -m[:len(pivots), free].T",
           "basis[:, pivots] = m[:len(pivots), free].T", LINALG),
    Mutant("kernel-free-column-scale", "linalg",
           "basis[range(len(free)), free] = p", "basis[range(len(free)), free] = 1", LINALG),
    Mutant("echelon-mutates-its-input", "linalg",
           "m = np.array(m, dtype=object)  # rows are swapped in place",
           "m = np.asarray(m, dtype=object)", LINALG),
    Mutant("stack-denominator-sign", "linalg",
           "np.concatenate([n * (d // e) for n, e in pairs]), d",
           "np.concatenate([n * (d // abs(e)) for n, e in pairs]), d", GAMMA),
    Mutant("gamma-denominator-sign", "motiveiso",
           'comps[("V", "V")] = x * (den // p)', 'comps[("V", "V")] = x * (den // abs(p))', GAMMA),
    Mutant("transcendental-shape-check", "motiveiso",
           "iso.scaled_matrix[0].shape != (s2.dim, s1.dim)", "False", CANONICAL),
    Mutant("transcendental-source-gram-check", "motiveiso",
           "not same(iso.source.scaled_gram, s1.scaled_gram)", "False", CANONICAL),
    Mutant("transcendental-target-gram-check", "motiveiso",
           "not same(iso.target.scaled_gram, s2.scaled_gram)", "False", CANONICAL),
    Mutant("witt-complement-drops-u2-denominator", "quadform",
           "solve_scaled((u2[0].T, u2[1]), product(phi, (u1[0].T, u1[1])))",
           "solve_scaled((u2[0].T, 1), product(phi, (u1[0].T, u1[1])))",
           ("tests/test_quadform.py::test_witt_complement_matches_fraction_route",)),
    Mutant("echelon-accepts-non-integers", "linalg",
           "if not set(map(type, m.flat)) <= {int}:", "if False:",
           ("tests/test_linalg.py::test_eliminations_reject_non_integer_numerators",)),
    Mutant("orthogonalize-drops-content", "quadform",
           "remaining = [v // (math.gcd(*v) or 1) for v in projected]",
           "remaining = list(projected)",
           ("tests/test_quadform.py::test_orthogonalize_keeps_entries_small_on_a_dense_form",)),
    Mutant("orthogonalize-isotropic-pair-pivot", "quadform",
           "w = remaining[i] + remaining[j]", "w = remaining[i]",
           ("tests/test_quadform.py::test_orthogonalize_keeps_both_vectors_of_an_isotropic_pair",
            "tests/test_quadform.py::test_equivariant_witt_prescription_on_isotropic_basis")),
    Mutant("reflect-to-drops-common-scale", "quadform",
           "xn, yn = xn * yd, yn * xd", "xn, yn = xn * yd, yn",
           ("tests/test_quadform.py::test_reflect_to_brings_rows_to_one_denominator",)),
    Mutant("group-order-off-by-one", "quadform",
           "len(_closure([(g,) for g in gens], [space.dim], cap))",
           "len(_closure([(g,) for g in gens], [space.dim], cap)) + 1",
           ("tests/test_quadform.py::test_group_closure_and_order",)),
    Mutant("aligned-elements-drops-bijection", "quadform",
           "if not len({_key(m2) for _, m2 in pairs}) == len(pairs) == g1.order == g2.order:",
           "if False:", ("tests/test_quadform.py::test_aligned_elements",)),
    Mutant("witt-prescription-unchecked", "quadform",
           "if not same(product(phi, (b, 1)), (t, td)):", "if False:",
           ("tests/test_quadform.py::"
            "test_equivariant_witt_raises_when_the_extension_misses_the_prescription",)),
    Mutant("conjugated-uses-s-on-both-sides", "quadform",
           "canonical(*product((s_inv, 1), g, (s, 1)))", "canonical(*product((s, 1), g, (s, 1)))",
           ("tests/test_quadform.py::test_conjugated_matches_a_fresh_build_of_the_conjugates",
            "tests/test_motiveiso.py::test_random_fourfold_pair_matches_fraction_route")),
    Mutant("commutes-always-true", "quadform",
           "return all(same(product(m, m1), product(m2, m))",
           "return True or all(same(product(m, m1), product(m2, m))",
           ("tests/test_quadform.py::test_commutes_on_generator_pairs",)),
    Mutant("as-vectors-skips-orthogonality", "motiveiso", "if any(g[i, :i]):", "if False:",
           ("tests/test_motiveiso.py::test_fourfold_data_validation",)),
    Mutant("realize-drops-h-terms", "realization",
           "out = RealizedClass(spaces, hterms)", "out = RealizedClass(spaces, {})",
           ("tests/test_fraction_oracle.py::test_realize_matches_the_term_by_term_sum",)),
    Mutant("check-equal-always-passes", "realization", "if got == want:", "if True:",
           ("tests/test_realization.py::test_check_records",)),
    Mutant("canonical-drops-sign", "linalg", " * (1 if d > 0 else -1)", "",
           ("tests/test_linalg.py::test_canonical_makes_the_denominator_positive",)),
    Mutant("same-drops-shape-check", "linalg", "np.shape(n1) == np.shape(n2) and ", "",
           ("tests/test_linalg.py::test_same_compares_shapes_before_values",)),
    Mutant("set-drops-gcd-division", "realization",
           "g = den  # with no component left, den // g = 1", "g = 1",
           ("tests/test_fraction_oracle.py::test_linear_operations_match_oracle",)),
    Mutant("transport-v-axis-position", "realization",
           "p = sig[:s].count(\"V\")  # position of this slot's V-axis", "p = 0",
           ("tests/test_motiveiso.py::test_tampered_gamma_transport_matches_dense_oracle",)),
)


def _pytest(src_parent: Path, targets) -> tuple[int, str]:
    """(exit code, last line of the summary) of the targets run against the
    package under ``src_parent``."""
    env = dict(os.environ, PYTHONPATH=str(src_parent), PYTHONDONTWRITEBYTECODE="1")
    probe = subprocess.run([sys.executable, "-c", "import cubicmotives; print(cubicmotives.__file__)"],
                           cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    if not probe.stdout.startswith(str(src_parent)):
        raise RuntimeError(f"the copy is not what the tests import: {probe.stdout.strip()}")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                          *targets], cwd=ROOT, env=env, capture_output=True, text=True)
    lines = [ln for ln in run.stdout.splitlines() if ln.strip()]
    return run.returncode, lines[-1] if lines else run.stderr.strip()[-200:]


def run(mutants) -> bool:
    """Print one kill-table row per mutant; True when every one is killed."""
    all_killed = True
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC.parent, copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = {m.module: copy / "cubicmotives" / f"{m.module}.py" for m in mutants}
        targets = sorted({t for m in mutants for t in m.targets})
        code, summary = _pytest(copy, targets)
        if code != 0:
            raise RuntimeError(f"the target tests fail without a mutant: {summary}")
        print(f"| mutant | module | verdict | target tests | s |\n|---|---|---|---|---|")
        for m in mutants:
            original = target[m.module].read_text()
            if original.count(m.fragment) != 1:
                raise RuntimeError(f"{m.name}: fragment must occur exactly once")
            target[m.module].write_text(original.replace(m.fragment, m.replacement))
            t0 = time.perf_counter()
            try:
                code, summary = _pytest(copy, m.targets)
            finally:
                target[m.module].write_text(original)
            killed = code != 0
            all_killed &= killed
            print(f"| {m.name} | {m.module} | {'killed' if killed else 'SURVIVED'} "
                  f"| {summary} | {time.perf_counter() - t0:.1f} |", flush=True)
    return all_killed


if __name__ == "__main__":
    chosen = [m for m in CATALOGUE if all(word in m.name for word in sys.argv[1:])]
    sys.exit(0 if run(chosen) else 1)
