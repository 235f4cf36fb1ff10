"""Static program verifier + domain lint framework (``repro.verify``).

Two heads, one diagnostic model:

- the **program verifier** (:mod:`repro.verify.program`) statically
  checks compiled :mod:`repro.core.isa` instruction streams before the
  HW-scheduler timing model executes them - def-before-use operands,
  buffer-capacity fits, opcode/engine compatibility, RAW/WAR stage
  ordering, HBM transfer sanity (codes ``VER001``-``VER006``), plus the
  abstract-interpretation analyses: occupancy-over-time proofs
  (``VER007``, :mod:`repro.verify.occupancy`) and static noise-budget
  bounds (``VER008``, :mod:`repro.verify.noisepass`);
- the **domain linter** (:mod:`repro.verify.lint` +
  :mod:`repro.verify.rules`) enforces torus-arithmetic and
  transform-usage discipline over the source tree with pluggable
  AST rules (codes ``RPR001``-``RPR006``; the numpy rules resolve
  names through each module's imports, so ``import numpy as xp`` is
  caught) and ruff-style inline suppressions
  (``# repro: allow[RPR002] why``).

Both run from the CLI (``repro verify``, ``repro verify --lint src``)
and in CI with ``--strict``; the compiler runs the program verifier on
every compile unless asked not to (``verify=False``).
"""

from .diagnostics import (
    Diagnostic,
    RuleInfo,
    Severity,
    VerificationError,
    VerifyReport,
)
from .lint import (
    LINT_RULES,
    lint_file,
    lint_paths,
    lint_rule_catalog,
    lint_source,
)
from .program import (
    PROGRAM_PASSES,
    program_rule_catalog,
    register_program_pass,
    verify_or_raise,
    verify_stream,
)
# Import order is catalog order: VER007 then VER008 register after the
# structural VER001-VER006 passes above.
from .occupancy import OccupancyModel, OccupancyProof
from .noisepass import StaticNoiseReport, static_noise_report
from . import rules as _rules  # noqa: F401  (registers the lint rules)

__all__ = [
    "Severity",
    "Diagnostic",
    "RuleInfo",
    "VerifyReport",
    "VerificationError",
    "verify_stream",
    "verify_or_raise",
    "PROGRAM_PASSES",
    "register_program_pass",
    "program_rule_catalog",
    "OccupancyModel",
    "OccupancyProof",
    "StaticNoiseReport",
    "static_noise_report",
    "lint_source",
    "lint_file",
    "lint_paths",
    "lint_rule_catalog",
    "LINT_RULES",
]
