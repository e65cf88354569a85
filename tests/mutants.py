"""A fixed catalogue of mutants of the exact kernels, and the runner that
checks that each one is killed by its target tests.

Each entry names one source fragment of ``src/cubicmotives/<module>.py``,
which must occur there exactly once (``test_mutants.py`` checks that in
tier 1, so the catalogue cannot rot silently), its replacement, and the tests
that must fail once it is applied.  The runner copies ``src/`` to a temporary
directory, applies one replacement to the copy, and runs the target tests
against it in a subprocess, with a fixed hypothesis seed and a time limit;
the tree itself is never changed.  A surviving mutant is a missing test: add
the test, never remove the mutant.  A run that exceeds the limit reports
``timeout``, which fails the catalogue like a survivor does.

Run from the repository root (standard library only):

    python tests/mutants.py             # every mutant; exits 1 unless all are killed
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
TIMEOUT = 300  # seconds for one run of the target tests
HYPOTHESIS_SEED = 0  # the same examples on every run, whatever .hypothesis/ holds


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
SUITES = ("tests/test_suites.py",)
MIXED = ("tests/test_motiveiso.py::test_mixed_blocks_follow_all_element_equivariance",)
# the fixed cases first: with -x a kill there skips the property test's shrinking
ECHELON = ("tests/test_linalg.py::test_echelon_brings_stale_rows_up_exactly",
           "tests/test_linalg.py::test_primitive_lattice_eliminations_match_the_references",
           "tests/test_linalg.py::test_echelon_matches_bareiss")
CONTRACT = ("tests/test_linalg.py::test_contract_at_the_edges_of_int64",
            "tests/test_linalg.py::test_contract_takes_int64_exactly_from_the_threshold_on",
            "tests/test_linalg.py::test_contract_matches_object_contraction")

# cli.main builds the report inside its crash boundary; the mutant builds it after
REPORT_IN_TRY = """\
        stage = "report"
        payload = reports_to_json(reports)
        payload.update({"command": args.suite, "seed": seed, "gram": gram_desc})
        markdown = reports_to_markdown(reports)
    except Exception as e:  # a crash must not read as a failed check
        traceback.print_exc()
        print(f"error: {stage}: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
"""
REPORT_AFTER_TRY = """\
    except Exception as e:  # a crash must not read as a failed check
        traceback.print_exc()
        print(f"error: {stage}: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    payload = reports_to_json(reports)
    payload.update({"command": args.suite, "seed": seed, "gram": gram_desc})
    markdown = reports_to_markdown(reports)
"""

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
           'terms.append(({tuple(("h", a) for a in mon[1]): 1}, 1, c))', "pass",
           ("tests/test_fraction_oracle.py::test_realize_matches_the_term_by_term_sum",)),
    Mutant("check-equal-always-passes", "realization", "if got == want:", "if True:",
           ("tests/test_realization.py::test_check_records",)),
    Mutant("canonical-drops-sign", "linalg", " * (1 if d > 0 else -1)", "",
           ("tests/test_linalg.py::test_canonical_makes_the_denominator_positive",)),
    Mutant("same-drops-shape-check", "linalg", "np.shape(n1) == np.shape(n2) and ", "",
           ("tests/test_linalg.py::test_same_compares_shapes_before_values",)),
    Mutant("set-drops-gcd-division", "realization",
           "g, kept = den, {}  # with no component left, den // g = 1", "g, kept = 1, {}",
           ("tests/test_fraction_oracle.py::test_linear_operations_match_oracle",)),
    Mutant("transport-v-axis-position", "realization",
           "p = sig[:s].count(\"V\")  # position of this slot's V-axis", "p = 0",
           ("tests/test_motiveiso.py::test_tampered_gamma_transport_matches_dense_oracle",)),
    Mutant("first-failure-returns-the-last", "suites",
           "next((w for w in map(witness, cases) if w is not None), None)",
           "([None] + [w for w in map(witness, cases) if w is not None])[-1]", SUITES),
    Mutant("suite-drops-the-witness", "suites", "check(*c)", "check(*c[:3])", SUITES),
    Mutant("scaled-drops-the-lcm-factor", "linalg", "p * (d // q)", "p", LINALG),
    Mutant("product-drops-the-denominator-product", "linalg",
           "n, d = contract(n, m), d * e", "n, d = contract(n, m), d", LINALG),
    Mutant("contract-bound-drops-k", "linalg",
           "k * va[1] * vb[1] < INT64_BOUND", "va[1] * vb[1] < INT64_BOUND", CONTRACT),
    Mutant("contract-bound-is-two-to-the-64", "linalg",
           "INT64_BOUND = 2**62", "INT64_BOUND = 2**64", CONTRACT),
    Mutant("contract-height-by-np-abs", "linalg",
           "max(int(w.max()), -int(w.min()))", "int(np.abs(w).max())", CONTRACT),
    Mutant("contract-threshold-inverted", "linalg",
           'getattr(a, "size", 1) * getattr(b, "size", 1) >= CONTRACT_MIN_WORK * k',
           'getattr(a, "size", 1) * getattr(b, "size", 1) < CONTRACT_MIN_WORK * k', CONTRACT),
    Mutant("contract-lets-overflow-escape", "linalg",
           "except (OverflowError, TypeError):", "except TypeError:", CONTRACT),
    Mutant("contract-keeps-int64-entries", "linalg",
           "np.dot(a, b).astype(object) if wide else np.dot(a, b)", "np.dot(a, b)", CONTRACT),
    Mutant("equivariance-skips-the-h-v-block", "motiveiso",
           "same(product(a_hv, m1), a_hv)", "True", MIXED),
    Mutant("equivariance-skips-the-v-h-block", "motiveiso",
           "same(product(m2, a_vh), a_vh)", "True", MIXED),
    Mutant("equivariance-skips-the-v-v-block", "motiveiso",
           "same(product(a_vv, m1), product(m2, a_vv))", "True",
           ("tests/test_motiveiso.py::test_reflected_candidate_fails_equivariance_only",)),
    Mutant("isometry-verify-drops-the-transpose", "quadform",
           "product((m[0].T, m[1]), self.target.scaled_gram, m)",
           "product((m[0], m[1]), self.target.scaled_gram, m)",
           ("tests/test_quadform.py::test_verify_and_closure_match_oracle",)),
    Mutant("set-keeps-all-zero-components", "realization",
           "if c := _content(val):", "if (c := _content(val)) or True:",
           ("tests/test_fraction_oracle.py::test_linear_operations_match_oracle",)),
    Mutant("axis-order-inserts-after-p", "realization",
           "[*range(p), ndim - 1, *range(p, ndim - 1)]",
           "[*range(p + 1), ndim - 1, *range(p + 1, ndim - 1)]",
           ("tests/test_fraction_oracle.py::test_three_axis_contraction_matches_oracle",
            "tests/test_motiveiso.py::test_tampered_gamma_transport_matches_dense_oracle")),
    Mutant("contract-swaps-the-free-shapes", "linalg",
           "[sa[i] for i in fa] + [sb[i] for i in fb]", "[sb[i] for i in fb] + [sa[i] for i in fa]",
           ("tests/test_linalg.py::test_contract_list_axes_at_the_edges",
            "tests/test_linalg.py::test_contract_list_axes_match_object_tensordot")),
    Mutant("echelon-stale-pivot-row", "linalg",
           "row = m[r].copy() if level[r] == prev else m[r] * prev // level[r]", "row = m[r].copy()",
           ECHELON),
    Mutant("echelon-update-divides-by-prev", "linalg",
           "// level.take(live)[:, None]", "// prev", ECHELON),
    Mutant("echelon-drops-the-final-rescale", "linalg",
           "m[old] = m.take(old, axis=0) * prev // level.take(old)[:, None]", "pass", ECHELON),
    Mutant("echelon-treats-skipped-rows-as-current", "linalg",
           "m[r], level[live], prev = row, p, p", "m[r], level[:], prev = row, p, p", ECHELON),
    Mutant("same-ignores-unequal-denominators", "linalg",
           "n1 == n2 if d1 == d2 else", "n1 == n2 if True else",
           ("tests/test_linalg.py::test_same_over_equal_opposite_and_unequal_denominators",)),
    Mutant("product-plan-ignores-slot-dimensions", "realization",
           "@cache\ndef _plan(dims, sig_a, sig_b):",
           "@(lambda f, plans={}: lambda dims, sig_a, sig_b:\n"
           "    plans.setdefault((sig_a, sig_b), f(dims, sig_a, sig_b)))\n"
           "def _plan(dims, sig_a, sig_b):",
           ("tests/test_fraction_oracle.py::test_product_plans_depend_on_slot_dimensions",
            "tests/test_fraction_oracle.py::test_products_match_the_signature_walk")),
    Mutant("block-table-ignores-the-target-layout", "realization",
           "layout = (src.hdim, src.r, tgt.hdim, tgt.r)", "layout = (src.hdim, src.r)",
           ("tests/test_realization.py::test_kept_block_tables_match_fresh_ones",)),
    Mutant("middle-part-taken-as-canonical", "realization",
           "return RealizedClass._of(self.spaces, out, self._den)",
           "return RealizedClass._of(self.spaces, out, self._den, canonical=True)",
           ("tests/test_realization.py::test_middle_part_is_canonical",)),
    Mutant("action-left-writable", "realization",
           "readonly(contract(self._matrix().T, pn))", "contract(self._matrix().T, pn)",
           ("tests/test_realization.py::test_action_is_made_once_and_read_only",)),
    Mutant("witt-suite-catches-every-exception", "suites",
           "except DomainError as e:", "except Exception as e:",
           ("tests/test_cli.py::test_a_crash_in_the_witt_extension_exits_3",)),
    Mutant("report-built-outside-the-crash-boundary", "cli", REPORT_IN_TRY, REPORT_AFTER_TRY,
           ("tests/test_cli.py::test_a_crash_while_building_the_report_exits_3",)),
    Mutant("diagonal-ignores-the-inverse-gram-denominator", "realization",
           "den = math.lcm(e, space._gram_inv[1]) if space.r else e", "den = e",
           ("tests/test_realization.py::test_compose_realized_unital",
            "tests/test_realization.py::test_action_matrix_shape_and_diagonal")),
    Mutant("int64-view-kept-for-writable-arrays", "linalg",
           "isinstance(a, np.ndarray) and not a.flags.writeable and (",
           "isinstance(a, np.ndarray) and (",
           ("tests/test_linalg.py::test_a_writable_operand_changed_in_place_gives_the_new_product",)),
    Mutant("int64-view-kept-for-a-view-of-a-writable-base", "linalg",
           "a.base is None or isinstance(a.base, np.ndarray) and not a.base.flags.writeable", "True",
           ("tests/test_linalg.py::test_a_read_only_view_of_a_changed_base_gives_the_new_product",)),
    Mutant("int64-views-never-dropped", "linalg",
           "weakref.ref(a, lambda _: _KEPT.pop(key, None))", "weakref.ref(a)",
           ("tests/test_linalg.py::test_kept_int64_views_die_with_a_certificate",)),
    Mutant("diagonal-den-is-the-product-flagged-canonical", "realization",
           "den = math.lcm(e, space._gram_inv[1]) if space.r else e",
           "den = e * space._gram_inv[1] if space.r else e",
           ("tests/test_realization.py::test_diagonals_are_canonical_as_built",)),
    Mutant("defect-of-drops-v-components", "realization",
           'raise ShadowViolation("MCK shadow violated")', "continue",
           ("tests/test_negative_controls.py::test_mult_shadow_fails_on_a_perturbed_diagonal",)),
)


def _pytest(src_parent: Path, targets) -> tuple[int | None, str]:
    """(exit code, last line of the summary) of the targets run against the
    package under ``src_parent``; the exit code is None when the run took
    longer than ``TIMEOUT`` seconds and was killed."""
    env = dict(os.environ, PYTHONPATH=str(src_parent), PYTHONDONTWRITEBYTECODE="1")
    probe = subprocess.run([sys.executable, "-c", "import cubicmotives; print(cubicmotives.__file__)"],
                           cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    if not probe.stdout.startswith(str(src_parent)):
        raise RuntimeError(f"the copy is not what the tests import: {probe.stdout.strip()}")
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                              f"--hypothesis-seed={HYPOTHESIS_SEED}", *targets],
                             cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, f"no result after {TIMEOUT} s"
    lines = [ln for ln in run.stdout.splitlines() if ln.strip()]
    return run.returncode, lines[-1] if lines else run.stderr.strip()[-200:]


def run(mutants) -> bool:
    """Print one kill-table row per mutant; True when every one is killed
    (a survivor or a timeout makes it False)."""
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
            verdict = "timeout" if code is None else "killed" if code else "SURVIVED"
            all_killed &= verdict == "killed"
            print(f"| {m.name} | {m.module} | {verdict} "
                  f"| {summary} | {time.perf_counter() - t0:.1f} |", flush=True)
    return all_killed


if __name__ == "__main__":
    chosen = [m for m in CATALOGUE if all(word in m.name for word in sys.argv[1:])]
    sys.exit(0 if run(chosen) else 1)
