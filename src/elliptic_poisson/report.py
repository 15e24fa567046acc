"""Check reports: one JSON object per check, plus a human-readable table.

The JSON serialization is deterministic (sorted keys, no timing fields) so
that re-running a suite with the same seed produces byte-identical output.
Durations are kept on the object for the table renderer only.  Every check
records its outcome through a :class:`Tally`, which owns the pass rule, the
failure record format and the clock.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

EXACT_ZERO = "exact-zero"


@dataclass
class Report:
    """Outcome of one verification or construction check."""

    check: str
    parameters: dict
    status: str  # "pass" | "fail"
    max_residual: float | str | None = None
    failures: list = field(default_factory=list)
    duration: float | None = None  # table display only, never serialized

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        residual = self.max_residual  # JSON has no NaN or infinity: "nan", "inf"
        if isinstance(residual, float) and not math.isfinite(residual):
            residual = str(residual)
        return {
            "check": self.check,
            "parameters": self.parameters,
            "status": self.status,
            "max_residual": residual,
            "failures": self.failures,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def make_report(check: str, parameters: dict, failures: list,
                max_residual=None, duration: float | None = None) -> Report:
    status = "pass" if not failures else "fail"
    if max_residual is None and not failures:
        max_residual = EXACT_ZERO
    return Report(check=check, parameters=parameters, status=status,
                  max_residual=max_residual, failures=failures,
                  duration=duration)


class Tally:
    """Failures, worst residual and duration of one check, from the moment
    it is created.

    Without a tolerance the check is exact: it passes with no failures and
    then reports ``max_residual`` as exact-zero.  With one, every relative
    residual enters the worst residual and fails unless ``rel < tol``, so a
    NaN residual fails (and shows as ``nan`` in its failure record), and
    once one is seen the worst residual stays NaN.
    Witness and residual-text templates are ``str.format`` strings filled in
    only on failure.
    """

    def __init__(self, tol: float | None = None):
        self.tol = tol
        self.worst = 0.0
        self.failures: list[dict] = []
        self._start = time.monotonic()

    def fail(self, witness, text: str, **extra) -> None:
        """Record a failure; ``extra`` keys ride along in the record."""
        self.failures.append({"witness": witness, "residual-text": text, **extra})

    def exact(self, residual, witness, *args) -> None:
        """An exact residual (anything with ``to_text``) fails unless zero."""
        if residual:
            self.fail(witness.format(*args) if args else witness,
                      residual.to_text())

    def residual(self, rel: float, witness: str, *args,
                 text: str | None = None, text_args: tuple = ()) -> None:
        """A relative residual against the tolerance; the record shows
        ``text`` (a template filled with ``text_args``, if any) or else
        ``rel`` to four digits."""
        if rel > self.worst or math.isnan(rel):  # max() would pass over NaN
            self.worst = rel
        if not rel < self.tol:
            if text is None:
                text = f"{rel:.3e}"
            elif text_args:
                text = text.format(*text_args)
            self.fail(witness.format(*args) if args else witness, text)

    def report(self, check: str, parameters: dict) -> Report:
        return make_report(check, parameters, self.failures,
                           max_residual=None if self.tol is None else self.worst,
                           duration=time.monotonic() - self._start)


def summary(reports: list[Report]) -> Report:
    failed = [r.check for r in reports if not r.passed]
    return Report(
        check="summary",
        parameters={"checks": len(reports)},
        status="pass" if not failed else "fail",
        max_residual=None,
        failures=[{"witness": name} for name in failed],
    )


def render_table(reports: list[Report]) -> str:
    rows = [("check", "status", "max_residual", "failures", "seconds")]
    for r in reports:
        res = r.max_residual
        if isinstance(res, float):
            res = f"{res:.3e}"
        rows.append((
            r.check,
            r.status.upper(),
            "-" if res is None else str(res),
            str(len(r.failures)),
            "-" if r.duration is None else f"{r.duration:.2f}",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for k, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
