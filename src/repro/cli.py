"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``     simulate bootstrap performance for a parameter set
``experiments``  regenerate paper tables/figures (all or one by id)
``area``         print the area/power breakdown of a configuration
``workload``     cost an application workload on the accelerator model
``demo``         run a functional encrypt/bootstrap/decrypt round-trip
``verify``       statically verify compiled instruction streams for the
                 shipped configurations (``--strict`` fails on errors),
                 lint source trees for torus-discipline violations
                 (``--lint PATH``), or verify an encoded instruction
                 blob end to end (``--binary FILE``); ``--occupancy`` /
                 ``--noise-budget`` attach the abstract-interpretation
                 proofs (buffer high-water marks, static failure bound)
``obs``          the observability verbs, each printing a text report,
                 a ``--json`` document or a ``--chrome PATH``
                 Perfetto/chrome://tracing trace-event file:

                 ``obs metrics``  one telemetry-enabled bootstrap batch
                 on the TFHE substrate: its counters (Prometheus text)
                 and spans
                 ``obs trace``    the XPU pipeline timeline (``--merge``
                 adds the profile's counter tracks to the trace file)
                 ``obs profile``  the bottleneck profiler: bottleneck
                 attribution, roofline position, what-if upgrades
                 ``obs noise``    a boolean-gate workload under noise
                 telemetry: per-op predicted (``--measure``: and
                 measured) noise, drift verdicts, the decryption-failure
                 bound, and the noise waterfall

Every ``--json`` document carries one top-level ``schema_version``
(:func:`repro.observability.json_document`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from .params import PARAM_SETS, get_params

if TYPE_CHECKING:
    from .core.accelerator import MorphlingConfig
    from .tfhe.ops import TfheContext

__all__ = ["main", "build_parser"]

#: A trace file's events and its ``otherData`` metadata.
_Trace = Tuple[List[dict], Dict[str, Any]]


def _print_json(payload: Any) -> None:
    """The one ``--json`` printer: ``payload`` in the versioned envelope."""
    from .observability import json_document

    print(json.dumps(json_document(payload), indent=2, sort_keys=True))


#: Workload names ``workload`` accepts.
_WORKLOADS = ("xgboost", "deepcnn-20", "deepcnn-50", "deepcnn-100", "vgg9")


def _make_workload(name: str) -> Any:
    from .apps import deepcnn_workload, vgg9_workload, xgboost_workload

    factories: Dict[str, Callable[[], Any]] = {
        "xgboost": xgboost_workload,
        "deepcnn-20": lambda: deepcnn_workload(20),
        "deepcnn-50": lambda: deepcnn_workload(50),
        "deepcnn-100": lambda: deepcnn_workload(100),
        "vgg9": vgg9_workload,
    }
    return factories[name]()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Morphling (HPCA 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate bootstrap performance")
    sim.set_defaults(run=_cmd_simulate)
    sim.add_argument("--set", default="I", dest="param_set",
                     choices=sorted(PARAM_SETS) + ["fig1"],
                     help="TFHE parameter set (Table III)")
    _add_config_args(sim, machine=True)
    sim.add_argument("--json", action="store_true",
                     help="print the full SimulationReport as JSON")

    exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    exp.set_defaults(run=_cmd_experiments)
    exp.add_argument("--id", default=None, dest="experiment_id",
                     help="one experiment id (e.g. table5); default: all")
    exp.add_argument("--list", action="store_true", help="list experiment ids")

    area = sub.add_parser("area", help="area/power breakdown")
    area.set_defaults(run=_cmd_area)
    area.add_argument("--xpus", type=int, default=4)

    wl = sub.add_parser("workload", help="cost an application workload")
    wl.set_defaults(run=_cmd_workload)
    wl.add_argument("name", choices=sorted(_WORKLOADS))
    wl.add_argument("--set", default="III", dest="param_set",
                    choices=sorted(PARAM_SETS))
    wl.add_argument("--noise", action="store_true",
                    help="append the VER008 static failure bound of the "
                         "lowered program (exit 1 past the 2^-20 budget)")
    wl.add_argument("--json", action="store_true",
                    help="print the costing (and, with --noise, the "
                         "failure report) as JSON")

    demo = sub.add_parser("demo", help="functional encrypt/bootstrap/decrypt")
    demo.set_defaults(run=_cmd_demo)
    demo.add_argument("--message", type=int, default=3)
    demo.add_argument("--seed", type=int, default=0)

    ver = sub.add_parser(
        "verify",
        help="static program verifier + domain linter (repro.verify)",
    )
    ver.set_defaults(run=_cmd_verify)
    ver.add_argument("--strict", action="store_true",
                     help="exit non-zero when any error-severity finding "
                          "is reported (the CI gate)")
    ver.add_argument("--lint", metavar="PATH", nargs="+", default=None,
                     help="run the AST domain linter over these "
                          "files/directories instead of verifying "
                          "compiled programs")
    ver.add_argument("--target", default=None,
                     help="only verify shipped targets whose name "
                          "contains this substring (e.g. 'xgboost')")
    ver.add_argument("--list-rules", action="store_true",
                     help="print the verifier pass and lint rule catalog")
    ver.add_argument("--json", action="store_true",
                     help="emit the reports as JSON")
    ver.add_argument("--binary", metavar="FILE", default=None,
                     help="decode an isa_encoding instruction blob and run "
                          "the verifier pass pipeline on it")
    ver.add_argument("--occupancy", action="store_true",
                     help="attach the VER007 occupancy-over-time proof "
                          "(per-buffer high-water marks) to each report")
    ver.add_argument("--noise-budget", action="store_true",
                     help="attach the VER008 static noise-budget report "
                          "(predicted failure probability) to each report")

    obs = sub.add_parser(
        "obs", help="observability: metrics, trace, profile, noise")
    obs.set_defaults(run=_cmd_obs)
    verbs = obs.add_subparsers(dest="verb", required=True)
    _add_obs_parsers(verbs)

    return parser


def _add_obs_parsers(verbs: Any) -> None:
    """The ``repro obs`` verbs; ``observe`` builds each one's report."""
    met = verbs.add_parser(
        "metrics",
        help="bootstrap one batch with telemetry on, print the substrate "
             "counters and spans",
    )
    met.set_defaults(observe=_observe_metrics)
    met.add_argument("--set", default="test", dest="param_set",
                     choices=sorted(PARAM_SETS) + ["test"],
                     help="TFHE parameter set (default: the fast test set)")
    met.add_argument("--json", action="store_true",
                     help="print the snapshot as JSON instead of Prometheus "
                          "text exposition")
    _add_chrome_arg(met, "the recorded spans")

    trace = verbs.add_parser("trace", help="render the XPU pipeline timeline")
    trace.set_defaults(observe=_observe_trace)
    trace.add_argument("--set", default="I", dest="param_set",
                       choices=sorted(PARAM_SETS))
    trace.add_argument("--iterations", type=int, default=5)
    _add_config_args(trace, machine=False)
    _add_chrome_arg(trace, "the pipeline")
    trace.add_argument("--merge", action="store_true",
                       help="with --chrome: merge the pipeline timeline and "
                            "the profile's counter tracks into one file (each "
                            "system gets its own process group)")

    prof = verbs.add_parser(
        "profile",
        help="bottleneck profiler: stage-model attribution + what-ifs",
    )
    prof.set_defaults(observe=_observe_profile)
    prof.add_argument("--config", default="morphling",
                      choices=["morphling", "no-reuse", "input-reuse"],
                      help="named accelerator configuration")
    prof.add_argument("--set", "--params", default="I", dest="param_set",
                      choices=sorted(PARAM_SETS) + ["fig1"],
                      help="TFHE parameter set (Table III)")
    prof.add_argument("--no-what-if", action="store_true",
                      help="skip the what-if simulator re-runs")
    prof.add_argument("--noise", action="store_true",
                      help="append the VER008 static failure bound of one "
                           "lowered steady-state group")
    prof.add_argument("--json", action="store_true",
                      help="print the profile as JSON")
    _add_chrome_arg(prof, "the counter tracks")

    noi = verbs.add_parser(
        "noise",
        help="noise telemetry: run a gate workload, report predicted "
             "(and, with --measure, measured) noise + failure probability",
    )
    noi.set_defaults(observe=_observe_noise)
    noi.add_argument("--set", default="test", dest="param_set",
                     choices=sorted(PARAM_SETS) + ["test"],
                     help="TFHE parameter set (default: the fast test set)")
    noi.add_argument("--workload", default="adder",
                     choices=["adder", "gates"],
                     help="boolean workload: a 2-bit ripple-carry adder "
                          "circuit, or one of each basic gate")
    noi.add_argument("--seed", type=int, default=7)
    noi.add_argument("--measure", action="store_true",
                     help="register the debug secret key so every tracked "
                          "op also records its measured phase error")
    noi.add_argument("--fail-prob", action="store_true",
                     help="print only the decryption-failure report")
    noi.add_argument("--json", action="store_true",
                     help="print the full noise snapshot (records, drift, "
                          "failure probability) as JSON")
    _add_chrome_arg(noi, "the noise waterfall")


def _add_chrome_arg(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("--chrome", metavar="PATH", default=None,
                        help=f"write {what} as a Chrome/Perfetto trace-event "
                             "JSON file (open in ui.perfetto.dev)")


def _add_config_args(parser: argparse.ArgumentParser, machine: bool) -> None:
    """Accelerator-configuration flags: the transform options, and with
    ``machine`` the XPU count and Private-A1 size."""
    if machine:
        parser.add_argument("--xpus", type=int, default=4, help="number of XPUs")
        parser.add_argument("--a1-kib", type=int, default=4096,
                            help="Private-A1 capacity in KiB")
    parser.add_argument("--reuse", default="input+output",
                        choices=["none", "input", "input+output"],
                        help="transform-domain reuse class")
    parser.add_argument("--no-merge-split", action="store_true",
                        help="disable the merge-split FFT")


def _config_from_args(args: argparse.Namespace) -> "MorphlingConfig":
    """The configuration ``_add_config_args``'s flags describe."""
    from .core.accelerator import MorphlingConfig
    from .core.reuse import ReuseType

    reuse = {
        "none": ReuseType.NO_REUSE,
        "input": ReuseType.INPUT_REUSE,
        "input+output": ReuseType.INPUT_OUTPUT_REUSE,
    }[args.reuse]
    config = MorphlingConfig(reuse=reuse, merge_split=not args.no_merge_split)
    if "xpus" in args:
        config = config.with_overrides(num_xpus=args.xpus,
                                       private_a1_bytes=args.a1_kib * 1024)
    return config


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .core.simulator import simulate_bootstrap

    report = simulate_bootstrap(_config_from_args(args), get_params(args.param_set))
    if args.json:
        _print_json(report)
        return 0
    print(f"parameter set {args.param_set}:")
    print("\n".join(report.summary_lines()))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import ALL_EXPERIMENTS

    if args.list:
        for exp_id in ALL_EXPERIMENTS:
            print(exp_id)
        return 0
    if args.experiment_id is not None:
        try:
            runner = ALL_EXPERIMENTS[args.experiment_id]
        except KeyError:
            print(f"unknown experiment {args.experiment_id!r}; "
                  f"known: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
            return 2
        print(runner().to_text())
        return 0
    for runner in ALL_EXPERIMENTS.values():
        print(runner().to_text())
        print()
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    from .core.accelerator import MorphlingConfig
    from .core.area_power import AreaPowerModel

    model = AreaPowerModel(MorphlingConfig(num_xpus=args.xpus))
    for name, cost in model.breakdown().items():
        print(f"  {name:32s} {cost.area_mm2:7.2f} mm^2  {cost.power_w:6.2f} W")
    total = model.total()
    print(f"  {'Total':32s} {total.area_mm2:7.2f} mm^2  {total.power_w:6.2f} W")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from .baselines import CpuCostModel
    from .core.accelerator import MorphlingConfig
    from .core.scheduler import HwScheduler, SwScheduler

    workload = _make_workload(args.name)
    params = get_params(args.param_set)
    config = MorphlingConfig()
    stream = SwScheduler(config, params).schedule(list(workload.layers))
    result = HwScheduler(config, params).execute(stream, verify=True)
    cpu_s = CpuCostModel().workload_seconds(
        params, workload.total_bootstraps, workload.total_linear_macs
    )
    failure = None
    if args.noise:
        from .verify.noisepass import static_noise_report

        failure = static_noise_report(stream, params)
    status = 0 if failure is None or failure.within_budget else 1
    if args.json:
        payload = {
            "workload": workload.name,
            "param_set": params.name,
            "layers": workload.depth,
            "bootstraps": workload.total_bootstraps,
            "linear_macs": workload.total_linear_macs,
            "morphling_seconds": result.total_seconds,
            "utilization": result.utilization,
            "padding_waste": result.padding_waste,
            "cpu_seconds": cpu_s,
            "speedup": cpu_s / result.total_seconds,
        }
        if failure is not None:
            payload["failure"] = failure
        _print_json(payload)
        return status
    print(workload.summary())
    print(f"  Morphling : {result.total_seconds:.3f} s "
          f"(XPU utilization {result.utilization['xpu']:.0%})")
    print(f"  64-core CPU: {cpu_s:.2f} s")
    print(f"  speedup    : {cpu_s / result.total_seconds:.0f}x")
    if failure is not None:
        print(failure.render_text())
    return status


def _cmd_demo(args: argparse.Namespace) -> int:
    from .tfhe.ops import TfheContext

    ctx = TfheContext.create(get_params("test"), seed=args.seed)
    if not 0 <= args.message < 4:
        print("message must be in [0, 4)", file=sys.stderr)
        return 2
    ct = ctx.encrypt(args.message)
    refreshed = ctx.bootstrap(ct)
    print(f"encrypted {args.message} -> bootstrap -> decrypted "
          f"{ctx.decrypt(refreshed)}")
    a, b = ctx.encrypt(1), ctx.encrypt(args.message % 2)
    print(f"NAND(1, {args.message % 2}) = {ctx.decrypt(ctx.gate('nand', a, b))}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify.cli import collect_reports, render_catalog, report_document

    if args.list_rules:
        print(render_catalog())
        return 0
    try:
        reports = collect_reports(
            lint=args.lint, binary=args.binary, target=args.target,
            occupancy=args.occupancy, noise_budget=args.noise_budget,
        )
    except ValueError as exc:
        print(exc)
        return 2
    if args.json:
        _print_json(report_document(reports))
    else:
        for report in reports:
            print(report.render())
    return 1 if args.strict and not all(r.ok for r in reports) else 0


# ----------------------------------------------------------------------
# repro obs
# ----------------------------------------------------------------------
@dataclass
class _Observation:
    """What one ``repro obs`` verb saw: its text report, its ``--json``
    payload, and (built only for ``--chrome``) its trace file."""

    text: str
    trace: Callable[[], _Trace]
    payload: Any = None
    status: int = 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Run one ``repro obs`` verb and print what it saw: the one
    ``--json`` path and the one ``--chrome`` path."""
    from .observability import write_chrome_trace

    seen = args.observe(args)
    if args.chrome:
        events, metadata = seen.trace()
        write_chrome_trace(args.chrome, events, metadata=metadata)
        print(f"wrote Chrome trace to {args.chrome} "
              f"(open in ui.perfetto.dev or chrome://tracing)", file=sys.stderr)
    if vars(args).get("json"):
        _print_json(seen.payload)
    else:
        print(seen.text)
    return seen.status


def _observe_metrics(args: argparse.Namespace) -> _Observation:
    from . import observability as obs
    from .tfhe.ops import TfheContext

    params = get_params(args.param_set)
    ctx = TfheContext.create(params, seed=0)
    # One batch: every message of the padded Z_8 range through the identity LUT.
    cts = [ctx.encrypt(m) for m in range(ctx.default_p // 2)]
    with obs.telemetry():
        ctx.apply_lut_batch(cts, [lambda x: x] * len(cts))
        snapshot = obs.REGISTRY.snapshot()
        spans = obs.TRACER.spans()
    meta = {"param_set": params.name, "batch": len(cts)}
    lines = [obs.render_prometheus(snapshot).rstrip("\n")]
    lines += [f"# span {s.name} {s.dur_us / 1e3:.3f} ms {s.args}" for s in spans]
    return _Observation(
        text="\n".join(lines),
        payload={**meta, "metrics": snapshot, "spans": spans},
        trace=lambda: (obs.chrome_trace_events(spans), meta),
    )


def _observe_trace(args: argparse.Namespace) -> _Observation:
    from .core.trace import render_timeline, trace_blind_rotation
    from .core.xpu import XpuModel
    from .observability import (
        merged_trace_events, pipeline_trace_events, profile_trace_events)

    config = _config_from_args(args)
    params = get_params(args.param_set)
    trace = trace_blind_rotation(config, params, iterations=args.iterations)
    analytic = XpuModel(config, params).iteration_cycles()

    def chrome() -> _Trace:
        events = pipeline_trace_events(trace)
        if args.merge:
            from .observability.profile import collect_profile

            counters = profile_trace_events(collect_profile(config, params, what_ifs=False))
            events = merged_trace_events({"pipeline": events, "counters": counters})
        return events, {"param_set": params.name, "config": config.name,
                        "iterations": trace.iterations, "merged": args.merge}

    return _Observation(
        text=(f"{render_timeline(trace)}\nsteady state: "
              f"{trace.steady_state_interval():.0f} cycles/iteration "
              f"(analytic {analytic:.0f}); bottleneck: {trace.bottleneck()}"),
        trace=chrome,
    )


def _observe_profile(args: argparse.Namespace) -> _Observation:
    from .observability import profile_trace_events, to_jsonable
    from .observability.profile import collect_profile
    from .verify.cli import named_config

    config = named_config(args.config)
    params = get_params(args.param_set)
    profile = collect_profile(config, params, what_ifs=not args.no_what_if)
    payload = to_jsonable(profile)
    text = profile.render_text()
    if args.noise:
        from .core.scheduler import LayerDemand, SwScheduler
        from .verify.noisepass import static_noise_report

        stream = SwScheduler(config, params).schedule(
            [LayerDemand("group", profile.simulation.group_size)])
        failure = static_noise_report(stream, params)
        payload["failure"] = failure
        text += "\n" + failure.render_text()
    return _Observation(
        text=text,
        payload=payload,
        trace=lambda: (profile_trace_events(profile),
                       {"param_set": params.name, "config": config.name}),
    )


def _noise_workload_adder(ctx: "TfheContext") -> Tuple[dict, dict]:
    """2-bit ripple-carry adder: the boolean-gate reference workload."""
    from .tfhe.boolean import Circuit, ripple_carry_adder

    circuit = Circuit()
    a_bits = [circuit.add_input("a0"), circuit.add_input("a1")]
    b_bits = [circuit.add_input("b0"), circuit.add_input("b1")]
    sums, carry = ripple_carry_adder(circuit, a_bits, b_bits)
    for i, s in enumerate(sums):
        circuit.mark_output(s, f"s{i}")
    circuit.mark_output(carry, "carry")
    inputs = {"a0": 1, "a1": 1, "b0": 1, "b1": 0}  # 3 + 1 = 4
    enc = {name: ctx.encrypt(bit) for name, bit in inputs.items()}
    out = circuit.evaluate_encrypted(ctx, enc)
    expected = circuit.evaluate_plain(inputs)
    decoded = {name: ctx.decrypt(ct) for name, ct in out.items()}
    return decoded, expected


def _noise_workload_gates(ctx: "TfheContext") -> Tuple[dict, dict]:
    """One of each basic gate over fresh bit ciphertexts."""
    from .tfhe.ops import GATE_LUTS

    decoded: Dict[str, int] = {}
    expected: Dict[str, int] = {}
    for name in ("and", "or", "xor", "nand", "nor", "xnor"):
        x, y = ctx.encrypt(1), ctx.encrypt(0)
        decoded[name] = ctx.decrypt(ctx.gate(name, x, y))
        expected[name] = GATE_LUTS[name](1)
    return decoded, expected


def _log2(value: float) -> float:
    return math.log2(value) if value > 0 else float("-inf")


def _observe_noise(args: argparse.Namespace) -> _Observation:
    from . import observability as obs
    from .observability.failprob import estimate_failure_probability
    from .tfhe.ops import TfheContext

    params = get_params(args.param_set)
    ctx = TfheContext.create(params, seed=args.seed)
    debug_key = ctx.keyset.lwe_key if args.measure else None
    workload = {"adder": _noise_workload_adder,
                "gates": _noise_workload_gates}[args.workload]
    with obs.noise_tracking(lwe_key=debug_key) as tracker:
        decoded, expected = workload(ctx)
        drift = obs.drift_report(tracker)
        report = estimate_failure_probability(tracker)
        snapshot = tracker.snapshot()
        ops = len(tracker.records())
    functional_ok = decoded == expected
    lines: List[str] = []
    if not args.fail_prob:
        mode = "measured" if args.measure else "predicted only"
        lines += [
            f"noise telemetry: workload '{args.workload}' on parameter set "
            f"{params.name} ({mode})",
            f"  outputs {decoded} "
            f"{'==' if functional_ok else '!='} expected {expected}",
            f"  {ops} tracked ops, {len(report.points)} decision points",
            f"  {'op class':28s} {'count':>5s} {'pred std':>10s} "
            f"{'meas rms':>10s} {'worst σ':>8s}  verdict",
        ]
        for d in drift:
            meas = (f"2^{_log2(d.measured_rms):.1f}" if d.measured_count
                    else "-")
            worst = f"{d.worst_sigma:.2f}" if d.measured_count else "-"
            verdict = "ok" if d.within_envelope else "DRIFT"
            if not d.measured_count:
                verdict = "unmeasured"
            lines.append(f"  {d.op:28s} {d.count:5d} "
                         f"{'2^%.1f' % _log2(d.predicted_std_rms):>10s} "
                         f"{meas:>10s} {worst:>8s}  {verdict}")
    lines.append(report.render_text())
    ok = (functional_ok and report.within_budget
          and all(d.within_envelope for d in drift))
    return _Observation(
        text="\n".join(lines),
        payload={"param_set": params.name, "workload": args.workload,
                 "functional_ok": functional_ok, "outputs": decoded,
                 "noise": snapshot, "drift": drift, "failure": report},
        trace=lambda: (obs.noise_trace_events(snapshot),
                       {"param_set": params.name, "workload": args.workload}),
        status=0 if ok else 1,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    status: int = args.run(args)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
