"""Named mutants of weilkit, each with the tests that must kill it.

A mutant names a module under src/, a snippet of its source that occurs
exactly once, the replacement that breaks it, and the pytest node ids that
must each fail once the replacement is made.  From the repository root,

    python tests/mutants.py [name ...]

copies src/ into a temporary directory for each mutant (all of them, or the
named ones), applies the mutant there, runs only its node ids in one child
pytest against that copy, and prints killed or survived with the wall time.
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
        "particular-rows-reversed",
        "weilkit/exactlin.py",
        "self.particular = tuple(row[n:] for row in reduced[:rank])",
        "self.particular = tuple(row[n:] for row in reversed(reduced[:rank]))",
        (
            "tests/test_exactlin.py::test_inverse_frozen",
            "tests/test_exactlin.py::test_solve_affine_eliminates_once",
        ),
    ),
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
        env = dict(
            os.environ,
            PYTHONPATH=str(src),
            PYTHONDONTWRITEBYTECODE="1",
            HYPOTHESIS_STORAGE_DIRECTORY=str(pathlib.Path(tmp) / "hypothesis"),
        )
        cmd = [sys.executable, "-m", "pytest", "-q", "-rfEp", "-p", "no:cacheprovider"]
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
