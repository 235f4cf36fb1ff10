"""Head 2: AST-based domain lint framework.

Ruff-style pluggable rules (codes ``RPRxxx``, catalog in
:mod:`repro.verify.rules`) enforcing the torus-arithmetic and
transform-usage discipline the Morphling reproduction relies on.  The
framework is intentionally small: a rule is a scope predicate over the
file path plus an AST visitor that yields ``(lineno, message)`` pairs;
the driver parses each file once, runs every in-scope rule, and filters
findings through the inline suppression map
(:mod:`repro.verify.suppressions`).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from .diagnostics import Diagnostic, RuleInfo, Severity, VerifyReport
from .suppressions import collect_suppressions, is_suppressed

__all__ = [
    "LintRule",
    "LINT_RULES",
    "lint_rule",
    "lint_rule_catalog",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "module_scope",
]

CheckFn = Callable[[ast.AST], Iterator[Tuple[int, str]]]
ScopeFn = Callable[["ModuleScope"], bool]


@dataclass(frozen=True)
class ModuleScope:
    """Where a file sits in the package, derived from its path."""

    path: str
    in_tfhe: bool
    is_negacyclic: bool
    is_torus: bool


def module_scope(path: str) -> ModuleScope:
    norm = os.path.normpath(str(path)).replace(os.sep, "/")
    return ModuleScope(
        path=norm,
        in_tfhe="/tfhe/" in norm or norm.startswith("tfhe/"),
        is_negacyclic=norm.endswith("transforms/negacyclic.py"),
        is_torus=norm.endswith("tfhe/torus.py"),
    )


@dataclass(frozen=True)
class LintRule:
    """One lint rule: catalog metadata, scope predicate, AST check."""

    info: RuleInfo
    applies: ScopeFn
    check: CheckFn


LINT_RULES: List[LintRule] = []


def lint_rule(code: str, name: str, summary: str,
              applies: ScopeFn,
              severity: Severity = Severity.ERROR) -> Callable[[CheckFn], CheckFn]:
    """Register an AST check as a lint rule (decorator)."""
    def deco(fn: CheckFn) -> CheckFn:
        LINT_RULES.append(
            LintRule(RuleInfo(code, name, summary, severity), applies, fn)
        )
        return fn
    return deco


def lint_rule_catalog() -> List[RuleInfo]:
    return [r.info for r in LINT_RULES]


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Iterable[str]] = None,
) -> VerifyReport:
    """Lint one source blob as if it lived at ``path``."""
    from . import rules as _rules  # noqa: F401  (registers LINT_RULES)

    report = VerifyReport(subject=path)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        report.add(Diagnostic(
            code="RPR000", severity=Severity.ERROR,
            message=f"file does not parse: {exc.msg}",
            path=path, line=exc.lineno or 0,
        ))
        return report
    scope = module_scope(path)
    suppressed = collect_suppressions(source, tree)
    wanted = set(rules) if rules is not None else None
    for rule in LINT_RULES:
        if wanted is not None and rule.info.code not in wanted:
            continue
        if not rule.applies(scope):
            continue
        for lineno, message in rule.check(tree):
            if is_suppressed(suppressed, lineno, rule.info.code):
                continue
            report.add(Diagnostic(
                code=rule.info.code, severity=rule.info.severity,
                message=message, path=scope.path, line=lineno,
            ))
    return report


def lint_file(path: str, rules: Optional[Iterable[str]] = None) -> VerifyReport:
    with open(path, "r", encoding="utf-8") as fh:
        return lint_source(fh.read(), path=str(path), rules=rules)


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if not os.path.exists(path):
            raise FileNotFoundError(f"no such path: {path}")
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        elif str(path).endswith(".py"):
            yield str(path)


def lint_paths(paths: Iterable[str], rules: Optional[Iterable[str]] = None) -> VerifyReport:
    """Lint every python file under ``paths`` into one merged report.

    A missing path raises :class:`FileNotFoundError` and paths holding
    no python file raise :class:`ValueError`: a mistyped path must not
    pass as clean.
    """
    paths = [str(p) for p in paths]
    files = list(iter_python_files(paths))
    if not files:
        raise ValueError(f"no python file under {', '.join(paths)}")
    merged = VerifyReport(subject="lint")
    for path in files:
        merged.extend(lint_file(path, rules=rules).diagnostics)
    return merged
