"""The reports behind ``repro verify``.

Three modes, sharing one diagnostic pipeline:

- default: compile every *shipped* configuration (each application
  workload and each accelerator/parameter variant the experiments use)
  and run the program verifier over the resulting instruction streams;
- ``--lint PATH...``: run the AST domain linter over source trees
  instead of compiled programs;
- ``--binary FILE``: decode an :mod:`repro.core.isa_encoding` blob and
  verify the decoded stream - the passes that need a config/params
  degrade gracefully on a bare binary;
- ``--list-rules``: print the combined rule catalog.

``--strict`` turns error findings into a non-zero exit status - the CI
correctness gate (:mod:`repro.cli` prints the reports and sets the exit
status).  Warnings never fail the build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from .diagnostics import VerifyReport
from .lint import lint_paths, lint_rule_catalog
from .program import program_rule_catalog, verify_stream

if TYPE_CHECKING:
    from ..core.accelerator import MorphlingConfig

__all__ = [
    "VerifyTarget",
    "shipped_targets",
    "verify_target",
    "named_config",
    "verify_binary",
    "report_document",
    "render_catalog",
    "collect_reports",
]


@dataclass(frozen=True)
class VerifyTarget:
    """One shipped (program, architecture, parameter-set) combination."""

    name: str
    make_layers: Callable[[], list]
    config_name: str = "morphling"
    param_set: str = "III"


def _app_layers(factory: Callable[[], object]) -> Callable[[], list]:
    return lambda: list(factory().layers)  # type: ignore[attr-defined]


def shipped_targets() -> List[VerifyTarget]:
    """Every configuration the experiments/apps ship with."""
    from ..apps import deepcnn_workload, vgg9_workload, xgboost_workload

    targets = [
        VerifyTarget("xgboost@III", _app_layers(xgboost_workload)),
        VerifyTarget("deepcnn-20@III", _app_layers(lambda: deepcnn_workload(20))),
        VerifyTarget("deepcnn-50@III", _app_layers(lambda: deepcnn_workload(50))),
        VerifyTarget("deepcnn-100@III", _app_layers(lambda: deepcnn_workload(100))),
        VerifyTarget("vgg9@III", _app_layers(vgg9_workload)),
    ]
    # The equal-resource ablation variants (Fig. 7-b) and every Table III
    # parameter set, each driving one representative workload.
    for config_name in ("no-reuse", "input-reuse"):
        targets.append(VerifyTarget(
            f"xgboost@{config_name}", _app_layers(xgboost_workload),
            config_name=config_name,
        ))
    for param_set in ("I", "II", "IV"):
        targets.append(VerifyTarget(
            f"xgboost@{param_set}", _app_layers(xgboost_workload),
            param_set=param_set,
        ))
    return targets


def named_config(name: str) -> "MorphlingConfig":
    """The shipped configuration or equal-resource variant called ``name``."""
    from ..core.accelerator import MorphlingConfig

    return {
        "morphling": MorphlingConfig.morphling,
        "no-reuse": MorphlingConfig.no_reuse,
        "input-reuse": MorphlingConfig.input_reuse,
    }[name]()


def verify_target(
    target: VerifyTarget,
    occupancy: bool = False,
    noise_budget: bool = False,
) -> VerifyReport:
    """Compile one shipped target and verify the instruction stream.

    ``occupancy``/``noise_budget`` attach the VER007 occupancy proof and
    the VER008 static noise report to the result (the passes themselves
    always run; the flags add the full evidence to the report output).
    """
    from ..core.scheduler import SwScheduler
    from ..params import get_params

    config = named_config(target.config_name)
    params = get_params(target.param_set)
    stream = SwScheduler(config, params).schedule(target.make_layers())
    report = verify_stream(stream, config=config, params=params,
                           subject=target.name)
    if occupancy:
        from .occupancy import OccupancyModel

        report.attachments["occupancy"] = OccupancyModel(
            config, params
        ).analyze(stream, subject=target.name)
    if noise_budget:
        from .noisepass import static_noise_report

        report.attachments["noise_budget"] = static_noise_report(stream, params)
    return report


def render_catalog() -> str:
    """The combined verifier-pass and lint-rule catalog."""
    lines = ["Program verifier passes:"]
    lines += [f"  {info}" for info in program_rule_catalog()]
    lines.append("Domain lint rules:")
    lines += [f"  {info}" for info in lint_rule_catalog()]
    return "\n".join(lines)


def verify_binary(path: str) -> VerifyReport:
    """Decode an ``isa_encoding`` blob from ``path`` and verify it.

    Exercises the context-free pass path end to end: the decoded stream
    carries no config or parameter set, so capacity/compatibility passes
    that need them skip while the structural passes run in full.
    """
    from ..core.isa_encoding import decode_stream

    with open(path, "rb") as fh:
        data = fh.read()
    stream = decode_stream(data)
    return verify_stream(stream, subject=path)


def report_document(reports: List[VerifyReport]) -> dict:
    """The ``repro verify --json`` payload for ``reports`` (the CLI wraps
    it in :func:`repro.observability.json_document`; the golden file
    under ``tests/verify/golden/`` pins the result)."""
    return {
        "ok": all(r.ok for r in reports),
        "reports": [r.to_jsonable() for r in reports],
    }


def collect_reports(
    lint: Optional[List[str]] = None,
    binary: Optional[str] = None,
    target: Optional[str] = None,
    occupancy: bool = False,
    noise_budget: bool = False,
) -> List[VerifyReport]:
    """The reports ``repro verify`` prints: a lint run over ``lint``, the
    verified ``binary``, or the shipped targets matching ``target``.

    Raises :class:`ValueError` (with the message the CLI prints) when
    there is nothing to verify.
    """
    if lint:
        try:
            return [lint_paths(lint)]
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot lint: {exc}") from exc
    if binary is not None:
        try:
            return [verify_binary(binary)]
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot verify {binary}: {exc}") from exc
    targets = [t for t in shipped_targets() if target is None or target in t.name]
    if not targets:
        raise ValueError(f"no shipped target matches {target!r}")
    return [verify_target(t, occupancy=occupancy, noise_budget=noise_budget)
            for t in targets]
