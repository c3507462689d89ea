"""Report outcomes: what they keep and what they print."""

import dataclasses
import inspect

import pytest

from weilkit import Check, CheckOutcome, Report, Verdict


def test_outcomes_keep_a_verdicts_exactness():
    rep = Report("r")
    rep.add(Check("c", "sampled"), "sampled verdict", Verdict(True, "agrees", "sampled"))
    rep.add(Check("c", "exact"), "plain bool", True)
    rep.add(Check("g", "graded"), "graded verdict", Verdict(False, "no", exactness="graded"))
    whole = Report("whole")
    whole.extend(rep)
    assert [o.exactness for o in whole.outcomes] == ["sampled", "exact", "graded"]
    assert [o.passed for o in whole.outcomes] == [True, True, False]
    # a verdict's certificate is the default detail; a bool has none
    assert [o.detail for o in whole.outcomes] == ["agrees", "", "no"]


def test_a_plain_bool_takes_its_checks_declared_tag():
    rep = Report("r")
    for tag in ("exact", "graded", "sampled"):
        rep.add(Check("c", tag), "bool", False, "why")
    assert [o.exactness for o in rep.outcomes] == ["exact", "graded", "sampled"]
    assert [(o.check, o.passed, o.detail) for o in rep.outcomes] == [("c", False, "why")] * 3


def test_an_undeclared_check_is_a_type_error():
    rep = Report("r")
    with pytest.raises(TypeError, match="declared Check"):
        rep.add("c", "bool", True)
    with pytest.raises(TypeError, match="declared Check"):
        rep.add("c", "verdict", Verdict(True, "agrees"), "agrees")
    assert rep.outcomes == []


@pytest.mark.parametrize(
    "declared, decided",
    [("exact", "sampled"), ("sampled", "exact"), ("exact", "graded"), ("graded", "sampled")],
)
def test_a_verdict_decided_otherwise_than_declared_is_a_value_error(declared, decided):
    rep = Report("r")
    with pytest.raises(ValueError, match=f"declared {declared}, but its verdict is {decided}"):
        rep.add(Check("c", declared), "i", Verdict(True, "agrees", decided))
    assert rep.outcomes == []


def test_no_outcome_has_a_default_exactness():
    assert "exactness" not in inspect.signature(Report.add).parameters
    fields = {f.name: f for f in dataclasses.fields(CheckOutcome)}
    assert fields["exactness"].default is dataclasses.MISSING
    assert [f.name for f in dataclasses.fields(Check)] == ["name", "exactness"]
    assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(Check))


def test_a_refusal_passes_only_when_the_attempt_raises():
    rep = Report("r")
    guard = Check("guard", "exact")

    def refused():
        raise KeyError("no")

    rep.add_refusal(guard, "refused", KeyError, refused, "accepted", "rejected: ")
    rep.add_refusal(guard, "accepted", KeyError, lambda: None, "accepted", "rejected: ")
    assert [(o.passed, o.detail) for o in rep.outcomes] == [
        (True, "rejected: 'no'"),
        (False, "accepted"),
    ]
    with pytest.raises(ValueError):  # another error is not a refusal
        rep.add_refusal(guard, "other", KeyError, lambda: int("x"), "accepted")


def test_renderers_do_not_print_exactness():
    rep = Report("r")
    rep.add(Check("c", "sampled"), "i", Verdict(True, "agrees", exactness="sampled"), "agrees")
    assert rep.render() == "[PASS] c | i | agrees\nr: 1/1 checks passed"
    assert rep.render("kv") == (
        'result=PASS check=c instance="i" detail="agrees"\n'
        'result=SUMMARY title="r" passed=1 total=1'
    )
