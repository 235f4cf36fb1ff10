"""Driver behind ``repro verify``.

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
correctness gate.  Warnings never fail the build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from .diagnostics import VERIFY_SCHEMA_VERSION, VerifyReport
from .lint import lint_paths, lint_rule_catalog
from .program import program_rule_catalog, verify_stream

__all__ = [
    "VerifyTarget",
    "shipped_targets",
    "verify_target",
    "verify_binary",
    "report_document",
    "run",
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


def _make_config(name: str):
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

    config = _make_config(target.config_name)
    params = get_params(target.param_set)
    stream = SwScheduler(config, params).schedule(target.make_layers())
    report = verify_stream(stream, config=config, params=params,
                           subject=target.name)
    if occupancy:
        from .occupancy import OccupancyModel

        report.attachments["occupancy"] = OccupancyModel(
            config, params
        ).analyze(list(stream), subject=target.name)
    if noise_budget:
        from .noisepass import static_noise_report

        report.attachments["noise_budget"] = static_noise_report(
            list(stream), params
        )
    return report


def _render_catalog() -> str:
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
    """The versioned ``repro verify --json`` document for ``reports``.

    Schema pinned by :data:`repro.verify.diagnostics.VERIFY_SCHEMA_VERSION`
    and the golden file under ``tests/verify/golden/``.
    """
    return {
        "schema_version": VERIFY_SCHEMA_VERSION,
        "ok": all(r.ok for r in reports),
        "reports": [r.to_jsonable() for r in reports],
    }


def run(
    lint: Optional[List[str]] = None,
    strict: bool = False,
    as_json: bool = False,
    list_rules: bool = False,
    target: Optional[str] = None,
    binary: Optional[str] = None,
    occupancy: bool = False,
    noise_budget: bool = False,
    _print: Callable[[str], None] = print,
) -> int:
    """Execute the verify command; returns the process exit code."""
    if list_rules:
        _print(_render_catalog())
        return 0
    if lint:
        try:
            reports = [lint_paths(lint)]
        except (OSError, ValueError) as exc:
            _print(f"cannot lint: {exc}")
            return 2
    elif binary is not None:
        try:
            reports = [verify_binary(binary)]
        except (OSError, ValueError) as exc:
            _print(f"cannot verify {binary}: {exc}")
            return 2
    else:
        targets = shipped_targets()
        if target is not None:
            targets = [t for t in targets if target in t.name]
            if not targets:
                _print(f"no shipped target matches {target!r}")
                return 2
        reports = [
            verify_target(t, occupancy=occupancy, noise_budget=noise_budget)
            for t in targets
        ]
    failed = sum(0 if r.ok else 1 for r in reports)
    if as_json:
        import json

        _print(json.dumps(report_document(reports), indent=2, sort_keys=True))
    else:
        for report in reports:
            _print(report.render())
    if strict and failed:
        return 1
    return 0
