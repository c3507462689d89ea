"""Report outcomes: what they keep and what they print."""

from weilkit import Report, Verdict


def test_outcomes_keep_a_verdicts_exactness():
    rep = Report("r")
    rep.add("c", "sampled verdict", Verdict(True, "agrees", exactness="sampled"), "agrees")
    rep.add("c", "plain bool", True)
    rep.add("c", "graded verdict", Verdict(False, "no", exactness="graded"))
    whole = Report("whole")
    whole.extend(rep)
    assert [o.exactness for o in whole.outcomes] == ["sampled", "exact", "graded"]
    assert [o.passed for o in whole.outcomes] == [True, True, False]


def test_renderers_do_not_print_exactness():
    rep = Report("r")
    rep.add("c", "i", Verdict(True, "agrees", exactness="sampled"), "agrees")
    assert rep.render() == "[PASS] c | i | agrees\nr: 1/1 checks passed"
    assert rep.render("kv") == (
        'result=PASS check=c instance="i" detail="agrees"\n'
        'result=SUMMARY title="r" passed=1 total=1'
    )
