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
    data: object = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class CheckOutcome:
    """One rendered line of a report.  exactness says how it was decided,
    as in Verdict; the renderers do not print it."""

    check: str
    instance: str
    passed: bool
    detail: str = ""
    exactness: str = "exact"

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

    def add(self, check: str, instance: str, passed, detail: str = ""):
        """Record one outcome.  passed may be a Verdict, whose exactness the
        outcome keeps."""
        exactness = passed.exactness if isinstance(passed, Verdict) else "exact"
        self.outcomes.append(CheckOutcome(check, instance, bool(passed), detail, exactness))

    def extend(self, other: "Report"):
        self.outcomes.extend(other.outcomes)

    @property
    def ok(self) -> bool:
        return all(o.passed for o in self.outcomes)

    @property
    def failures(self) -> list:
        return [o for o in self.outcomes if not o.passed]

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
