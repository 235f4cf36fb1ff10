"""Shared diagnostic model for the static-analysis subsystem.

Both heads of :mod:`repro.verify` - the ISA program verifier and the
AST-based domain linter - report findings as :class:`Diagnostic` records
collected into a :class:`VerifyReport`.  A diagnostic carries a stable
rule code (``VERxxx`` for program passes, ``RPRxxx`` for lint rules), a
severity, a human-readable message, and a location: either an
instruction index within a compiled stream or a ``file:line`` position
in source.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = [
    "Severity",
    "Diagnostic",
    "VerifyReport",
    "VerificationError",
    "RuleInfo",
]

class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings mean the program/source would mislead the
    simulator or break torus discipline; ``--strict`` fails on them.
    ``WARNING`` findings are suspicious but do not invalidate results.
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class RuleInfo:
    """Catalog entry describing one verifier pass or lint rule."""

    code: str
    name: str
    summary: str
    severity: Severity = Severity.ERROR

    def __str__(self) -> str:
        return f"{self.code} [{self.severity}] {self.name}: {self.summary}"


@dataclass(frozen=True)
class Diagnostic:
    """One finding from a verifier pass or lint rule.

    Exactly one of ``instruction_index`` / ``path`` is normally set:
    program diagnostics locate by instruction position and source op,
    lint diagnostics by file and line.
    """

    code: str
    severity: Severity
    message: str
    instruction_index: Optional[int] = None
    op: Optional[str] = None
    path: Optional[str] = None
    line: Optional[int] = None

    @property
    def location(self) -> str:
        if self.path is not None:
            return f"{self.path}:{self.line}" if self.line else self.path
        if self.instruction_index is not None:
            loc = f"inst#{self.instruction_index}"
            return f"{loc} ({self.op})" if self.op else loc
        return "<program>"

    def render(self) -> str:
        return f"{self.location}: {self.severity}: {self.code}: {self.message}"


@dataclass
class VerifyReport:
    """All diagnostics from one verification or lint run.

    ``attachments`` carries optional named analysis artifacts riding
    along with the diagnostics (occupancy proofs, static noise reports):
    any object exposing ``to_jsonable()`` and ``render_text()``.
    """

    subject: str = "<stream>"
    diagnostics: list = field(default_factory=list)
    attachments: dict = field(default_factory=dict)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    @property
    def errors(self) -> list:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """No errors (warnings do not invalidate a program)."""
        return not self.errors

    def codes(self) -> set:
        return {d.code for d in self.diagnostics}

    def render(self) -> str:
        lines = [d.render() for d in self.diagnostics]
        verdict = "clean" if self.ok else f"{len(self.errors)} error(s)"
        if self.warnings:
            verdict += f", {len(self.warnings)} warning(s)"
        lines.append(f"{self.subject}: {verdict}")
        for attachment in self.attachments.values():
            lines.append(attachment.render_text())
        return "\n".join(lines)

    def to_jsonable(self) -> dict:
        doc = {
            "subject": self.subject,
            "ok": self.ok,
            "diagnostics": [
                {
                    "code": d.code,
                    "severity": d.severity.value,
                    "message": d.message,
                    "location": d.location,
                }
                for d in self.diagnostics
            ],
        }
        for name, attachment in self.attachments.items():
            doc[name] = attachment.to_jsonable()
        return doc


class VerificationError(ValueError):
    """Raised by verify-on-compile when a program fails verification."""

    def __init__(self, report: VerifyReport):
        self.report = report
        first = report.errors[0] if report.errors else None
        head = first.render() if first else "verification failed"
        more = len(report.errors) - 1
        suffix = f" (+{more} more)" if more > 0 else ""
        super().__init__(f"{head}{suffix}")
