"""Outcome containers shared by the checkers and the command line."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Verdict:
    """A single yes/no decision plus the evidence it rests on.

    exactness is "exact" when the decision came from rational-arithmetic
    rank or identity computations, "sampled" when it came from evaluating
    at randomly drawn points.
    """

    ok: bool
    certificate: str
    exactness: str = "exact"

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Check:
    """A check a suite records outcomes of: the name a report prints, and
    how every one of its outcomes is decided ("exact", "graded" or
    "sampled"), fixed where the check is declared."""

    name: str
    exactness: str


@dataclass(frozen=True)
class CheckOutcome:
    """One rendered line of a report.  exactness is its check's declared
    one; the renderers do not print it."""

    check: str
    instance: str
    passed: bool
    detail: str
    exactness: str

    def render_text(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        line = f"[{tag}] {self.check} | {self.instance}"
        if self.detail:
            line += f" | {self.detail}"
        return line

    def render_kv(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"result={tag} check={self.check} "
            f'instance="{self.instance}" detail="{self.detail}"'
        )


@dataclass
class Report:
    """An ordered batch of check outcomes under one title."""

    title: str
    outcomes: list = field(default_factory=list)

    def add(self, check: Check, instance: str, passed, detail: str | None = None):
        """Record one outcome of a declared check, tagged with the check's
        exactness.  passed is a bool or a Verdict; a Verdict must have been
        decided the way its check is declared, and its certificate is the
        default detail."""
        if not isinstance(check, Check):
            raise TypeError(f"outcomes come from a declared Check, not {check!r}")
        if isinstance(passed, Verdict):
            if passed.exactness != check.exactness:
                raise ValueError(
                    f"check {check.name!r} is declared {check.exactness}, "
                    f"but its verdict is {passed.exactness}"
                )
            detail = passed.certificate if detail is None else detail
        self.outcomes.append(
            CheckOutcome(check.name, instance, bool(passed), detail or "", check.exactness)
        )

    def add_refusal(self, check: Check, instance: str, error, attempt, accepted: str,
                    reason: str = ""):
        """Record whether attempt() is refused with an error: a pass whose
        detail is reason followed by the error's message, or a fail whose
        detail is accepted."""
        try:
            attempt()
        except error as exc:
            self.add(check, instance, True, f"{reason}{exc}")
        else:
            self.add(check, instance, False, accepted)

    def extend(self, other: "Report"):
        self.outcomes.extend(other.outcomes)

    @property
    def ok(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def render(self, style: str = "text") -> str:
        passed = sum(1 for o in self.outcomes if o.passed)
        if style == "kv":
            # the summary stays in the key=value grammar so the whole
            # output remains line-parseable
            body = [o.render_kv() for o in self.outcomes]
            summary = (
                f'result=SUMMARY title="{self.title}" '
                f"passed={passed} total={len(self.outcomes)}"
            )
        else:
            body = [o.render_text() for o in self.outcomes]
            summary = f"{self.title}: {passed}/{len(self.outcomes)} checks passed"
        return "\n".join(body + [summary])
