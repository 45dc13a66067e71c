"""Diagnostics shared by the static checks.

Every check — plan-verifier invariants, operator typing and linter
rules alike — reports
:class:`Diagnostic` records: a stable rule code, the subject it applies
to (a stream, a query, or a ``file:line:col`` location), a one-line
message, and an optional hint explaining how to fix it.  Diagnostics
aggregate into an :class:`AnalysisReport`, which renders the
human-readable report shown by the CLI and carried by
:class:`InvariantViolation`.

Code ranges
-----------

* ``P1xx`` — deployment/plan structure (routes, derivation, delivery,
  usage ledger);
* ``T2xx`` — operator-chain typing (:mod:`repro.properties.typecheck`,
  run at registration: hence this module sits outside the passes);
* ``L3xx`` — source-code lint rules;
* ``F4xx`` — dataflow facts (:mod:`repro.analysis.flow`): F400 missing
  statistics, F401 committed estimate outside the derived interval,
  F402 dead stream (warning), F403 missed sharing (warning).

There is no shard-safety range: the sharded executor runs any
partition of the super-peers byte-identically (DESIGN.md §12), so no
partition needs a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Tuple


@dataclass(frozen=True)
class Diagnostic:
    """One finding of an analysis pass."""

    code: str
    subject: str
    message: str
    hint: str = ""
    severity: str = "error"  # "error" | "warning"

    def __post_init__(self) -> None:
        if self.severity not in ("error", "warning"):
            raise ValueError(f"unknown severity {self.severity!r}")

    def render(self) -> str:
        text = f"{self.severity}[{self.code}] {self.subject}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def __str__(self) -> str:
        return self.render()


@dataclass
class AnalysisReport:
    """An ordered collection of diagnostics with a pass/fail verdict."""

    title: str = "analysis"
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(
        self,
        code: str,
        subject: str,
        message: str,
        hint: str = "",
        severity: str = "error",
    ) -> None:
        self.diagnostics.append(Diagnostic(code, subject, message, hint, severity))

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def merge(self, other: "AnalysisReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    # ------------------------------------------------------------------
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def codes(self) -> Tuple[str, ...]:
        return tuple(d.code for d in self.diagnostics)

    @property
    def ok(self) -> bool:
        """``True`` when no *error*-severity diagnostics were reported."""
        return not self.errors()

    def __len__(self) -> int:
        return len(self.diagnostics)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The full human-readable report."""
        lines = [f"== {self.title} =="]
        if not self.diagnostics:
            lines.append("clean: no violations found")
            return "\n".join(lines)
        for diagnostic in self.diagnostics:
            lines.append(diagnostic.render())
        errors, warnings = len(self.errors()), len(self.warnings())
        lines.append(f"{errors} error(s), {warnings} warning(s)")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class InvariantViolation(Exception):
    """A deployment failed its static pre-flight verification.

    Raised by :meth:`repro.sharing.system.StreamGlobe` hooks when
    constructed with ``verify=True``, and by
    :meth:`~repro.sharing.system.StreamGlobe.install_derived_stream` on
    every system for an ill-typed pipeline; carries the full
    :class:`AnalysisReport` so callers can inspect individual findings.
    """

    def __init__(self, context: str, report: AnalysisReport) -> None:
        self.context = context
        self.report = report
        super().__init__(f"{context}:\n{report.render()}")
