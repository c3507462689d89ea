"""Every verify outcome comes from a check declared next to its suite.

The nine invocations are the ones the benchmark times (bench/workloads.py).
tests/verify_outcomes.json holds the (check, instance, exactness) sequence
each of them recorded before the checks were declared, so a declaration
that moves a tag, drops an outcome or reorders one shows here; a deliberate
retag edits the declaration and that file together.
"""

import collections
import json
import pathlib

import pytest

from weilkit import axioms, cli, fibered
from weilkit.reports import Check, Report

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def recorded():
    """{invocation: [(check, instance, exactness), ...]} of the nine
    invocations, read off every report they render."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "bench"))
        from workloads import VERIFY_SUITES

        seen = []
        real = Report.render

        def render(self, style="text"):
            seen.extend((o.check, o.instance, o.exactness) for o in self.outcomes)
            return real(self, style)

        mp.setattr(Report, "render", render)
        out = {}
        for name, argv in VERIFY_SUITES.items():
            seen.clear()
            assert cli.main(list(argv)) == 0, name
            out[name] = list(seen)
    return out


def declared_checks():
    return {v for m in (axioms, fibered) for v in vars(m).values() if isinstance(v, Check)}


def test_each_verify_invocation_pins_its_checks_and_tags(recorded):
    want = json.loads((ROOT / "tests" / "verify_outcomes.json").read_text())
    assert {name: [list(o) for o in outs] for name, outs in recorded.items()} == want
    tags = collections.Counter(o[2] for outs in recorded.values() for o in outs)
    assert sum(tags.values()) == 310
    assert tags == {"exact": 284, "sampled": 25, "graded": 1}


def test_every_outcome_is_declared_and_every_declaration_recorded(recorded):
    declared = {(c.name, c.exactness) for c in declared_checks()}
    used = {(check, tag) for outs in recorded.values() for check, _, tag in outs}
    assert used - declared == set()  # no outcome from an undeclared check
    assert declared - used == set()  # no declaration that nothing records
    assert len(declared) == len(declared_checks()) == 42
    # one declaration per printed name, two where a name carries two tags
    names = collections.Counter(name for name, _ in declared)
    assert len(names) == 39
    assert {name for name, n in names.items() if n > 1} == {
        "functor", "derived-exponentiable", "vertical-microlinear"
    }
