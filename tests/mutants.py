"""Named mutants of weilkit, each with the tests that must kill it.

A mutant names a module under src/, a snippet of its source that occurs
exactly once, the replacement that breaks it, and the pytest node ids that
must each fail once the replacement is made.  From the repository root,

    python tests/mutants.py [name ...]

copies src/ into a temporary directory for each mutant (all of them, or the
named ones), applies the mutant there, runs only its node ids in one child
pytest against that copy, and prints killed or survived with the wall time.
The child pytest loads a hypothesis profile without the shrink phase: a
failing example is reported as found, since only whether a test fails
matters here.
It never edits the working tree.  tests/test_mutants.py checks on every
test run that each snippet still occurs exactly once, so a change that
rewrites a snippet on purpose updates its entry here.  Removing an entry
loosens a check, so the change that removes one says why.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # path under src/
    snippet: str
    replacement: str
    kills: tuple  # node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "per-degree-extra-slot",
        "weilkit/fibered.py",
        "(g, self.slot_degrees.count(g), kd, True)",
        "(g, self.slot_degrees.count(g) + 1, kd, True)",
        (
            "tests/test_fibered.py::test_vertical_fiber_matches_the_reference_on_named_points",
            "tests/test_readme.py",
        ),
    ),
    Mutant(
        "origin-without-e0",
        "weilkit/fibered.py",
        "return WeilPoint.from_scalars(self.algebra, self.base_point)",
        "return WeilPoint.from_scalars(self.algebra, [0] * len(self.base_point))",
        (
            "tests/test_fibered.py::test_identity_fiber_is_a_single_point",
            "tests/test_fibered.py::test_vertical_fiber_matches_the_reference_on_named_points",
        ),
    ),
    Mutant(
        "square-without-polynomial-check",
        "weilkit/fibered.py",
        "        top = _polys(self.top)\n"
        "        _polys(self.bottom)\n"
        "        left = _polys(self.target.projection, self.top, top)\n",
        "        left = _polys(self.target.projection, self.top)\n",
        (
            "tests/test_fibered.py::test_a_call_the_target_projection_drops_is_refused",
            "tests/test_fibered.py::"
            "test_a_bottom_that_is_polynomial_only_after_the_projection_is_refused",
        ),
    ),
    Mutant(
        "tensor-degree-max",
        "weilkit/weil.py",
        "self._nilpotency = d1 + d2 - 1",
        "self._nilpotency = max(d1, d2)",
        ("tests/test_limit_path.py::test_tensor_and_product_degrees_are_read_off_the_factors",),
    ),
    Mutant(
        "solve-without-cokernel-check",
        "weilkit/exactlin.py",
        "        if any(sum(row[i] * y for i, y in terms) for row in self.cokernel):\n"
        "            return NO_SOLUTION\n",
        "",
        (
            "tests/test_exactlin.py::test_factored_solves_match_the_former_eliminations",
            "tests/test_exactlin.py::test_solve_outcomes_are_values_not_errors",
            "tests/test_exactlin.py::test_span_helpers",
            "tests/test_fibered.py::test_inconsistent_fiber_equations_raise",
        ),
    ),
    Mutant(
        "rref-pivot-column-left-standing",
        "weilkit/exactlin.py",
        "                    row[c] = _ZERO\n",
        "",
        ("tests/test_exactlin.py::test_rref_matches_reference",),
    ),
    Mutant(
        "echelon-stops-a-row-short",
        "weilkit/exactlin.py",
        "(rows if reduced else rows[r + 1 :])",
        "(rows if reduced else rows[r + 1 : n - 1])",
        ("tests/test_exactlin.py::test_rank_counts_the_reference_pivots",),
    ),
    Mutant(
        "particular-rows-reversed",
        "weilkit/exactlin.py",
        "self.particular = tuple(row[n:] for row in reduced[:rank])",
        "self.particular = tuple(row[n:] for row in reversed(reduced[:rank]))",
        (
            "tests/test_exactlin.py::test_inverse_frozen",
            "tests/test_exactlin.py::test_solve_affine_eliminates_once",
        ),
    ),
    Mutant(
        "subalgebra-without-closure-check",
        "weilkit/weil.py",
        "            if any(residual):\n"
        '                raise AlgebraError("subspace is not closed under multiplication")\n',
        "",
        (
            "tests/test_limit_path.py::"
            "test_a_non_closed_echelon_span_is_refused_like_the_echelon_route",
        ),
    ),
    Mutant(
        "subalgebra-free-columns-reversed",
        "weilkit/weil.py",
        "free = [max(j for j, x in enumerate(v) if x) for v in kernel]",
        "free = [max(j for j, x in enumerate(v) if x) for v in kernel][::-1]",
        ("tests/test_limit_path.py::test_subalgebra_matches_the_echelon_route",),
    ),
    Mutant(
        "blockwise-product-drops-a-unit-cross-term",
        "weilkit/weil.py",
        "acc = [t * (a0 * q + b0 * p) for p, q in zip(a, b)]",
        "acc = [t * b0 * p for p, q in zip(a, b)]",
        (
            "tests/test_limit_path.py::test_limit_matches_the_full_product_table_route",
            "tests/test_limit_path.py::test_product_over_k_matches_the_dense_loop",
        ),
    ),
    Mutant(
        "block-table-skips-the-augmentation-correction",
        "weilkit/weil.py",
        "            acc[i] = acc.get(i, 0) - lam[j] * t\n"
        "            acc[j] = acc.get(j, 0) - lam[i] * t\n",
        "",
        (
            "tests/test_limit_path.py::test_limit_matches_the_full_product_table_route",
            "tests/test_limit_path.py::test_product_over_k_matches_the_dense_loop",
        ),
    ),
    Mutant(
        "table-denominator-a-product-not-the-lcm",
        "weilkit/weil.py",
        "t = math.lcm(*[q // math.gcd(q, n) for row in terms for q, vec in row for _, n in vec])",
        "t = math.prod([q for row in terms for q, _ in row])",
        (
            "tests/test_sparse_structure.py::"
            "test_tabled_algebras_equal_their_rebuilt_structure_vectors",
            "tests/test_sparse_structure.py::test_tabled_serialization_round_trips_byte_for_byte",
        ),
    ),
    Mutant(
        "product-over-k-takes-the-factors-swapped",
        "weilkit/weil.py",
        "p, (p1, p2) = limit(DiagramInWeil((w1, w2), ()))",
        "p, (p2, p1) = limit(DiagramInWeil((w2, w1), ()))",
        ("tests/test_limit_path.py::test_product_over_k_matches_the_dense_loop",),
    ),
    Mutant(
        "filtered-basis-every-chain-vector",
        "weilkit/weil.py",
        "picked = [labelled[c] for c in reversed(pivots)]",
        "picked = labelled[::-1]",
        ("tests/test_limit_path.py::test_filtered_basis_matches_the_rank_loop",),
    ),
    Mutant(
        "left-exact-without-injectivity",
        "weilkit/fibered.py",
        "ok = same_span and nullity == apex_dim",
        "ok = same_span",
        ("tests/test_fibered.py::test_left_exact_refuses_a_leg_that_folds_the_fibers",),
    ),
    Mutant(
        "vertical-left-exact-slot-count",
        "weilkit/fibered.py",
        "slots = w.dimension - 1",
        "slots = w.dimension",
        ("tests/test_fibered.py::test_vertical_left_exact_matches_the_kronecker_route",),
    ),
    Mutant(
        "vertical-left-exact-ignores-kernels",
        "weilkit/fibered.py",
        "same_span = rank == nullity",
        "same_span = total[0] == total[1]",
        ("tests/test_fibered.py::test_vertical_left_exact_matches_the_kronecker_route",),
    ),
    Mutant(
        "mutated-cones-parity-swapped",
        "weilkit/corpus.py",
        'kind = "collapse" if i % 2 == 0 else "inflate"',
        'kind = "inflate" if i % 2 == 0 else "collapse"',
        ("tests/test_cli.py::test_verify_suites_match_the_benchmark_records",),
    ),
    Mutant(
        "element-not-normalised",
        "weilkit/weil.py",
        "g = math.gcd(den, *nums)",
        "g = 1",
        ("tests/test_weil.py::test_exact_arithmetic_matches_the_dense_reference",),
    ),
    Mutant(
        "tabled-product-drops-table-denominator",
        "weilkit/weil.py",
        "            d *= t\n",
        "",
        ("tests/test_weil.py::test_exact_arithmetic_matches_the_dense_reference",),
    ),
    Mutant(
        "int-columns-left-unreduced",
        "weilkit/weil.py",
        "for col in cols for _, n in col])\n        if g != 1:",
        "for col in cols for _, n in col])\n        if False:",
        (
            "tests/test_morphism_columns.py::test_int_column_constructors_match_the_dense_routes",
            "tests/test_morphism_columns.py::test_compose_is_the_dense_product",
        ),
    ),
    Mutant(
        "morphism-row-bound-off-by-one",
        "weilkit/weil.py",
        "any(c and c[-1][0] >= rows for c in cols)",
        "any(c and c[-1][0] > rows for c in cols)",
        (
            "tests/test_morphism_columns.py::"
            "test_the_constructor_refuses_columns_of_the_wrong_shape",
        ),
    ),
    Mutant(
        "int-columns-wrong-denominator",
        "weilkit/weil.py",
        "self._columns = d, tuple(map(tuple, cols))",
        "self._columns = 2 * d, tuple(map(tuple, cols))",
        (
            "tests/test_morphism_columns.py::test_exact_images_match_the_dense_loop",
            "tests/test_morphism_columns.py::test_compose_is_the_dense_product",
        ),
    ),
    Mutant(
        "relation-check-peels-a-wrong-generator",
        "weilkit/weil.py",
        "elif not (images[g] if k == 0 else cols[k] * images[g]).is_zero:",
        "elif not (images[g - 1] if k == 0 else cols[k] * images[g - 1]).is_zero:",
        ("tests/test_morphism_columns.py::test_generator_images_match_the_dense_route",),
    ),
    Mutant(
        "relation-check-skips-the-last-relation",
        "weilkit/weil.py",
        "elif not (",
        "elif rel != source.relations[-1] and not (",
        ("tests/test_morphism_columns.py::test_generator_images_match_the_dense_route",),
    ),
    Mutant(
        "nilpotent-images-cut-a-degree-early",
        "weilkit/weil.py",
        "            if degree >= top:\n",
        "            if degree >= top - 1:\n",
        ("tests/test_morphism_columns.py::test_generator_images_match_the_dense_route",),
    ),
    Mutant(
        "generator-images-skip-the-augmentation-test",
        "weilkit/weil.py",
        "            if sum([m * img.nums[k] for k, m in lam]):\n",
        "            if False:\n",
        (
            "tests/test_morphism_columns.py::"
            "test_an_image_off_the_maximal_ideal_is_refused_by_its_augmentation",
        ),
    ),
    Mutant(
        "tabled-skips-its-checks",
        "weilkit/weil.py",
        "        return cls._from_terms(terms, aug)\n",
        "        return cls._from_terms(terms, aug, check=False)\n",
        (
            "tests/test_limit_path.py::"
            "test_non_associative_mutants_are_refused_at_the_reference_triple",
            "tests/test_sparse_structure.py::test_tabled_refuses_a_kernel_that_is_not_nilpotent",
        ),
    ),
    Mutant(
        "equality-reads-the-matrix",
        "weilkit/weil.py",
        "and self._columns == other._columns",
        "and self.matrix == other.matrix",
        (
            "tests/test_morphism_columns.py::"
            "test_building_and_comparing_maps_makes_no_fraction_matrix",
        ),
    ),
    Mutant(
        "cone-square-bottom-only",
        "weilkit/fibered.py",
        "                    _polys(m.top, src.top) == _polys(tgt.top)\n"
        "                    and _polys(m.bottom, src.bottom) == _polys(tgt.bottom)\n",
        "                    _polys(m.bottom, src.bottom) == _polys(tgt.bottom)\n",
        ("tests/test_fibered.py::test_cone_squares_match_the_composites",),
    ),
    Mutant(
        "sampled-check-declared-exact",
        "weilkit/fibered.py",
        'FIBER_SOUNDNESS = Check("fiber-soundness", "sampled")',
        'FIBER_SOUNDNESS = Check("fiber-soundness", "exact")',
        (
            "tests/test_registry.py::test_each_verify_invocation_pins_its_checks_and_tags",
            "tests/test_fibered.py::test_vertical_suite_green",
        ),
    ),
    Mutant(
        "verdict-decided-otherwise-accepted",
        "weilkit/reports.py",
        "            if passed.exactness != check.exactness:\n"
        "                raise ValueError(\n"
        '                    f"check {check.name!r} is declared {check.exactness}, "\n'
        '                    f"but its verdict is {passed.exactness}"\n'
        "                )\n",
        "",
        (
            "tests/test_reports.py::"
            "test_a_verdict_decided_otherwise_than_declared_is_a_value_error",
        ),
    ),
    Mutant(
        "ring-product-keeps-zero-terms",
        "weilkit/smooth.py",
        "nz_b = [(j, b) for j, b in enumerate(other.coeffs) if not is_zero(b)]",
        "nz_b = list(enumerate(other.coeffs))",
        ("tests/test_weil.py::test_float_ring_matches_the_former_float_elements",),
    ),
    Mutant(
        "float-scaling-takes-rationals",
        "weilkit/smooth.py",
        "if self.ring is FLOATS and not isinstance(c, float):",
        "if False:",
        ("tests/test_weil.py::test_mixed_mode_elements_refuse_every_operation",),
    ),
    Mutant(
        "exact-scalar-ignores-symbolic",
        "weilkit/smooth.py",
        "s = None if self.symbolic else x.scalar_part()",
        "s = x.scalar_part()",
        ("tests/test_smooth.py::test_lift_map_divides_by_constants",),
    ),
    Mutant(
        "shuffle-images-swapped",
        "weilkit/weil.py",
        "    return WeilMorphism(a, b, 1, [((k, 1),) for k in picks])\n",
        "    picks[1], picks[-1] = picks[-1], picks[1]\n"
        "    return WeilMorphism(a, b, 1, [((k, 1),) for k in picks])\n",
        ("tests/test_axioms.py::test_shuffle_multiplicativity_is_decided_on_basis_pairs",),
    ),
    Mutant(
        "staircase-stops-a-step-early",
        "weilkit/weil.py",
        "if e[i] >= bounds[i] or",
        "if e[i] + 1 >= bounds[i] or",
        ("tests/test_weil.py::test_cached_presentations_match_a_fresh_enumeration",),
    ),
    Mutant(
        "staircase-scans-past-a-divisible-monomial",
        "weilkit/weil.py",
        "        if e[i] >= bounds[i] or any(_divides(r, e) for r in mixed):\n",
        "        if e[i] >= bounds[i]:\n",
        (
            "tests/test_weil.py::test_cached_presentations_match_a_fresh_enumeration",
            "tests/test_cli.py::test_small_quotients_in_large_boxes_list_their_basis_fast",
        ),
    ),
    Mutant(
        "int-poly-unreduced",
        "weilkit/expr.py",
        "g = math.gcd(den, *nums.values()) if den > 1 else 1",
        "g = 1",
        ("tests/test_fibered.py::test_a_square_commutes_however_its_top_is_written",),
    ),
    Mutant(
        "jacobian-exponent-off-by-one",
        "weilkit/expr.py",
        "e[:j] + (e[j] - 1,) + e[j + 1:]",
        "e[:j] + (e[j],) + e[j + 1:]",
        ("tests/test_expr.py::test_int_polynomials_match_the_fraction_reference",),
    ),
    Mutant(
        "rref-row-update-skipped",
        "weilkit/exactlin.py",
        "if f and row is not prow:",
        "if f and row is not prow and row is not rows[0]:",
        ("tests/test_cli.py::test_every_verify_elimination_is_certified_by_products",),
    ),
    Mutant(
        "digit-limit-guard-off-by-one",
        "weilkit/expr.py",
        "    if len(text) > DIGIT_LIMIT:\n",
        "    if len(text) > DIGIT_LIMIT + 1:\n",
        ("tests/test_cli.py::test_number_literals_one_digit_past_the_limit_are_parse_errors",),
    ),
    Mutant(
        "digit-scan-without-default",
        "weilkit/expr.py",
        "max(map(len, _DIGIT_RUN.findall(text)), default=0)",
        "max(map(len, _DIGIT_RUN.findall(text)))",
        ("tests/test_cli.py::test_long_texts_without_a_digit_keep_their_parse_errors",),
    ),
    Mutant(
        "descent-minus-adds",
        "weilkit/expr.py",
        'Expr("add" if tok == _PLUS else "sub", (node, self.term()))',
        'Expr("add" if tok == _PLUS else "add", (node, self.term()))',
        ("tests/test_expr.py::test_the_parser_matches_the_character_loop_it_replaced",),
    ),
    Mutant(
        "nested-scale-floats-exact-constants",
        "weilkit/smooth.py",
        "float(q) if isinstance(a, ExtendedElement) and a.ring is FLOATS else q",
        "q if isinstance(a, WeilElement) else float(q)",
        ("tests/test_smooth.py::test_nested_symbolic_coefficients_stay_exact",),
    ),
    Mutant(
        "sqrt-recurrence-reordered",
        "weilkit/smooth.py",
        "out.append(out[-1] * (1.5 - j) / (j * a))",
        "out.append(out[-1] / (j * a) * (1.5 - j))",
        ("tests/test_smooth.py::test_float_jets_are_bit_identical_to_the_former_taylor_call",),
    ),
    Mutant(
        "taylor-term-scaled-when-infinite",
        "weilkit/smooth.py",
        "power.scaled(c) if math.isfinite(c) else x.like(c) * power",
        "power.scaled(c)",
        ("tests/test_smooth.py::test_float_jets_are_bit_identical_to_the_former_taylor_call",),
    ),
    Mutant(
        "maximal-ideal-aug-sign-flipped",
        "weilkit/weil.py",
        "return [(-aug[f],) + _unit(n, f)[1:] for f in range(1, n)]",
        "return [(aug[f],) + _unit(n, f)[1:] for f in range(1, n)]",
        (
            "tests/test_limit_path.py::"
            "test_microlinear_matches_the_precondition_then_numbers_composition",
        ),
    ),
    Mutant(
        "constraints-without-target-block",
        "weilkit/weil.py",
        "                rows[g][off + g] -= d\n",
        "                pass\n",
        (
            "tests/test_limit_path.py::"
            "test_rank_one_numbers_match_the_direct_sum_with_glued_augmentations",
        ),
    ),
    Mutant(
        "rank-numbers-without-empty-guard",
        "weilkit/weil.py",
        "    if not cone.objects:  # the product of no objects still has its unit coordinate\n"
        "        return 0, 0\n",
        "",
        (
            "tests/test_limit_path.py::"
            "test_rank_one_numbers_match_the_direct_sum_with_glued_augmentations",
        ),
    ),
)


# a pytest plugin for the child run: every hypothesis test skips shrinking
_NO_SHRINK = (
    "from hypothesis import Phase, settings\n"
    'settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])\n'
    'settings.load_profile("mutants")\n'
)


def mutated_source(mutant: Mutant, src: pathlib.Path) -> str:
    """The mutant's module text with its snippet replaced; a snippet that
    does not occur exactly once is a ValueError."""
    text = (src / mutant.module).read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {count} times in {mutant.module}")
    return text.replace(mutant.snippet, mutant.replacement)


def run(mutant: Mutant):
    """(failed node ids, passed node ids, seconds) of the mutant's tests
    against a mutated copy of src/; the mutant survives if any id passed."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / mutant.module).write_text(mutated_source(mutant, src))
        (pathlib.Path(tmp) / "mutants_no_shrink.py").write_text(_NO_SHRINK)
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(src), tmp]),
            PYTHONDONTWRITEBYTECODE="1",
            HYPOTHESIS_STORAGE_DIRECTORY=str(pathlib.Path(tmp) / "hypothesis"),
        )
        cmd = [sys.executable, "-m", "pytest", "-q", "-rfEp", "-p", "no:cacheprovider"]
        cmd += ["-p", "mutants_no_shrink"]
        out = subprocess.run(
            cmd + list(mutant.kills), cwd=ROOT, env=env, capture_output=True, text=True
        ).stdout
    failed = [i for i in mutant.kills if _reported(out, i, ("FAILED", "ERROR"))]
    # an id that did not run (the mutant broke collection) did not pass either
    passed = [i for i in mutant.kills if i not in failed and _reported(out, i, ("PASSED",))]
    return failed, passed, time.perf_counter() - start


def _reported(out: str, node_id: str, outcomes) -> bool:
    """Did pytest's short summary report one of the outcomes at node_id, at
    a test under it, or at the file that holds it (a collection error)?"""
    path = node_id.partition("::")[0]
    heads = (node_id + " ", node_id + "[", node_id + "::", path + " ")
    for line in out.splitlines():
        outcome, _, rest = line.partition(" ")
        if outcome in outcomes and (rest.startswith(heads) or rest in (node_id, path)):
            return True
    return False


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survived = 0
    total = time.perf_counter()
    for mutant in chosen:
        _, passed, seconds = run(mutant)
        verdict = "killed" if not passed else "survived"
        survived += bool(passed)
        print(f"{verdict:8s} {mutant.name} ({seconds:.1f} s)")
        for node_id in passed:
            print(f"         passed: {node_id}")
    seconds = time.perf_counter() - total
    print(f"{len(chosen) - survived} of {len(chosen)} killed in {seconds:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
