"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``     simulate bootstrap performance for a parameter set
``experiments``  regenerate paper tables/figures (all or one by id)
``area``         print the area/power breakdown of a configuration
``workload``     cost an application workload on the accelerator model
``demo``         run a functional encrypt/bootstrap/decrypt round-trip
``trace``        render the XPU pipeline timeline (``--chrome`` exports
                 a Perfetto/chrome://tracing trace-event file)
``metrics``      run one telemetry-enabled bootstrap group and print the
                 metrics snapshot (Prometheus text or ``--json``)
``profile``      run the perf-counter profiler: bottleneck attribution,
                 roofline position, and what-if upgrade estimates
                 (``--json`` for the schema-versioned report, ``--chrome``
                 for counter tracks in a trace-event file)
``verify``       statically verify compiled instruction streams for the
                 shipped configurations (``--strict`` fails on errors),
                 lint source trees for torus-discipline violations
                 (``--lint PATH``), or verify an encoded instruction
                 blob end to end (``--binary FILE``); ``--occupancy`` /
                 ``--noise-budget`` attach the abstract-interpretation
                 proofs (buffer high-water marks, static failure bound)
``noise``        run a boolean-gate workload under noise telemetry:
                 per-op predicted noise, drift verdicts, and the
                 decryption-failure probability (``--measure`` decrypts
                 with the debug key for predicted-vs-measured pairs;
                 ``--json``/``--chrome`` export the noise waterfall)
``pool``         shard bootstrap batches over forked worker lanes and
                 print the scaling table
"""

from __future__ import annotations

import argparse
import json
import sys

from .params import PARAM_SETS, get_params

__all__ = ["main", "build_parser"]


def _print_json(payload) -> None:
    """The one ``--json`` serializer every report command shares."""
    from .observability import to_jsonable

    print(json.dumps(to_jsonable(payload), indent=2, sort_keys=True))


#: Workload names ``workload`` accepts.
_WORKLOADS = ("xgboost", "deepcnn-20", "deepcnn-50", "deepcnn-100", "vgg9")


def _make_workload(name: str):
    from .apps import deepcnn_workload, vgg9_workload, xgboost_workload

    factories = {
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
    sim.add_argument("--set", default="I", dest="param_set",
                     choices=sorted(PARAM_SETS) + ["fig1"],
                     help="TFHE parameter set (Table III)")
    _add_config_args(sim)
    sim.add_argument("--json", action="store_true",
                     help="print the full SimulationReport as JSON")

    exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    exp.add_argument("--id", default=None, dest="experiment_id",
                     help="one experiment id (e.g. table5); default: all")
    exp.add_argument("--list", action="store_true", help="list experiment ids")

    area = sub.add_parser("area", help="area/power breakdown")
    area.add_argument("--xpus", type=int, default=4)

    wl = sub.add_parser("workload", help="cost an application workload")
    wl.add_argument("name", choices=sorted(_WORKLOADS))
    wl.add_argument("--set", default="III", dest="param_set",
                    choices=sorted(PARAM_SETS))
    wl.add_argument("--noise", action="store_true",
                    help="append the analytic decryption-failure budget "
                         "(union bound over the workload's bootstraps)")
    wl.add_argument("--json", action="store_true",
                    help="print the costing (and, with --noise, the "
                         "failure report) as JSON")

    demo = sub.add_parser("demo", help="functional encrypt/bootstrap/decrypt")
    demo.add_argument("--message", type=int, default=3)
    demo.add_argument("--seed", type=int, default=0)

    trace = sub.add_parser("trace", help="render the XPU pipeline timeline")
    trace.add_argument("--set", default="I", dest="param_set",
                       choices=sorted(PARAM_SETS))
    trace.add_argument("--iterations", type=int, default=5)
    trace.add_argument("--reuse", default="input+output",
                       choices=["none", "input", "input+output"])
    trace.add_argument("--no-merge-split", action="store_true")
    trace.add_argument("--chrome", metavar="PATH", default=None,
                       help="also write a Chrome/Perfetto trace-event JSON "
                            "file of the pipeline (open in ui.perfetto.dev)")
    trace.add_argument("--merge", action="store_true",
                       help="with --chrome: merge the pipeline timeline and "
                            "the perf-counter tracks into one file (each "
                            "system gets its own process group)")

    met = sub.add_parser(
        "metrics",
        help="simulate one bootstrap group with telemetry on, print metrics",
    )
    met.add_argument("--set", default="I", dest="param_set",
                     choices=sorted(PARAM_SETS) + ["fig1"])
    _add_config_args(met)
    met.add_argument("--functional", action="store_true",
                     help="also run a real (test-parameter) bootstrap so the "
                          "TFHE/transform counters fire")
    met.add_argument("--json", action="store_true",
                     help="print the snapshot as JSON instead of Prometheus "
                          "text exposition")
    met.add_argument("--chrome", metavar="PATH", default=None,
                     help="write the recorded spans as a Chrome/Perfetto "
                          "trace-event JSON file")

    prof = sub.add_parser(
        "profile",
        help="perf-counter profiler: bottleneck attribution + what-ifs",
    )
    prof.add_argument("--config", default="morphling",
                      choices=["morphling", "no-reuse", "input-reuse"],
                      help="named accelerator configuration")
    prof.add_argument("--set", "--params", default="I", dest="param_set",
                      choices=sorted(PARAM_SETS) + ["fig1"],
                      help="TFHE parameter set (Table III)")
    prof.add_argument("--no-what-if", action="store_true",
                      help="skip the what-if simulator re-runs")
    prof.add_argument("--noise", action="store_true",
                      help="append the analytic decryption-failure budget "
                           "for one steady-state group")
    prof.add_argument("--json", action="store_true",
                      help="print the schema-versioned profile as JSON")
    prof.add_argument("--chrome", metavar="PATH", default=None,
                      help="write the counter tracks as a Chrome/Perfetto "
                           "trace-event JSON file")

    ver = sub.add_parser(
        "verify",
        help="static program verifier + domain linter (repro.verify)",
    )
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

    noi = sub.add_parser(
        "noise",
        help="noise telemetry: run a gate workload, report predicted "
             "(and, with --measure, measured) noise + failure probability",
    )
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
    noi.add_argument("--chrome", metavar="PATH", default=None,
                     help="write the noise waterfall as a Chrome/Perfetto "
                          "trace-event JSON file")

    pool = sub.add_parser(
        "pool",
        help="run a sharded bootstrap workload and print the scaling table",
    )
    pool.add_argument("--set", default="test", dest="param_set",
                      help="parameter set name ('test' or a shipped set)")
    pool.add_argument("--workers", default="1,2,4", metavar="N[,N...]",
                      help="comma-separated pool widths to sweep")
    pool.add_argument("--batch", type=int, default=16,
                      help="ciphertexts per sharded batch")
    pool.add_argument("--rounds", type=int, default=3,
                      help="timing repetitions (best-of)")
    pool.add_argument("--backend", default=None,
                      help="compute backend (default: $REPRO_BACKEND or "
                           "numpy; unknown names list the available ones)")
    pool.add_argument("--seed", type=int, default=3)
    pool.add_argument("--json", action="store_true",
                      help="print the scaling result as JSON")
    return parser


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    """Accelerator-configuration flags shared by simulate/metrics."""
    parser.add_argument("--xpus", type=int, default=4, help="number of XPUs")
    parser.add_argument("--a1-kib", type=int, default=4096,
                        help="Private-A1 capacity in KiB")
    parser.add_argument("--reuse", default="input+output",
                        choices=["none", "input", "input+output"],
                        help="transform-domain reuse class")
    parser.add_argument("--no-merge-split", action="store_true",
                        help="disable the merge-split FFT")


def _config_from_args(args) -> "MorphlingConfig":
    from .core.accelerator import MorphlingConfig
    from .core.reuse import ReuseType

    reuse = {
        "none": ReuseType.NO_REUSE,
        "input": ReuseType.INPUT_REUSE,
        "input+output": ReuseType.INPUT_OUTPUT_REUSE,
    }[args.reuse]
    return MorphlingConfig(
        num_xpus=args.xpus,
        private_a1_bytes=args.a1_kib * 1024,
        reuse=reuse,
        merge_split=not args.no_merge_split,
    )


def _cmd_simulate(args) -> int:
    from .core.simulator import simulate_bootstrap

    report = simulate_bootstrap(_config_from_args(args), get_params(args.param_set))
    if args.json:
        _print_json(report)
        return 0
    print(f"parameter set {args.param_set}:")
    print(f"  bootstrap latency : {report.bootstrap_latency_ms:.3f} ms")
    print(f"  throughput        : {report.throughput_bs:,.0f} bootstraps/s")
    print(f"  bottleneck        : {report.bottleneck}")
    print(f"  scheduler group   : {report.group_size} ciphertexts "
          f"({report.acc_streams} resident streams)")
    print(f"  BSK/KSK reuse     : {report.bsk_reuse}x / {report.ksk_reuse}x")
    return 0


def _cmd_experiments(args) -> int:
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


def _cmd_area(args) -> int:
    from .core.accelerator import MorphlingConfig
    from .core.area_power import AreaPowerModel

    model = AreaPowerModel(MorphlingConfig(num_xpus=args.xpus))
    for name, cost in model.breakdown().items():
        print(f"  {name:32s} {cost.area_mm2:7.2f} mm^2  {cost.power_w:6.2f} W")
    total = model.total()
    print(f"  {'Total':32s} {total.area_mm2:7.2f} mm^2  {total.power_w:6.2f} W")
    return 0


def _cmd_workload(args) -> int:
    from .baselines import CpuCostModel
    from .core.accelerator import MorphlingConfig
    from .core.scheduler import run_workload

    workload = _make_workload(args.name)
    params = get_params(args.param_set)
    workload.announce()
    result = run_workload(MorphlingConfig(), params, list(workload.layers))
    cpu_s = CpuCostModel().workload_seconds(
        params, workload.total_bootstraps, workload.total_linear_macs
    )
    failure = None
    if args.noise:
        from .analysis.failprob import estimate_app_failure

        failure = estimate_app_failure(params, workload.total_bootstraps)
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
            payload["failure"] = failure.to_jsonable()
        _print_json(payload)
        return 0 if failure is None or failure.within_budget else 1
    print(workload.summary())
    print(f"  Morphling : {result.total_seconds:.3f} s "
          f"(XPU utilization {result.utilization['xpu']:.0%})")
    print(f"  64-core CPU: {cpu_s:.2f} s")
    print(f"  speedup    : {cpu_s / result.total_seconds:.0f}x")
    if failure is not None:
        print(failure.render_text())
        return 0 if failure.within_budget else 1
    return 0


def _cmd_demo(args) -> int:
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


def _cmd_trace(args) -> int:
    from .core.trace import render_timeline, trace_blind_rotation
    from .core.xpu import XpuModel
    from .observability import pipeline_trace_events, write_chrome_trace

    config = _config_from_args_for_trace(args)
    params = get_params(args.param_set)
    trace = trace_blind_rotation(config, params, iterations=args.iterations)
    print(render_timeline(trace))
    analytic = XpuModel(config, params).iteration_cycles()
    print(f"steady state: {trace.steady_state_interval():.0f} cycles/iteration "
          f"(analytic {analytic:.0f}); bottleneck: {trace.bottleneck()}")
    if args.chrome:
        events = pipeline_trace_events(trace)
        if args.merge:
            from . import observability as obs
            from .core.simulator import simulate_bootstrap
            from .observability import counter_track_events, merged_trace_events

            with obs.counting() as bank:
                simulate_bootstrap(config, params)
                counter_events = counter_track_events(bank)
            events = merged_trace_events(
                {"pipeline": events, "counters": counter_events}
            )
        write_chrome_trace(
            args.chrome,
            events,
            metadata={"param_set": params.name, "config": config.name,
                      "iterations": trace.iterations, "merged": args.merge},
        )
        kind = "merged Chrome trace" if args.merge else "Chrome trace"
        print(f"wrote {kind} to {args.chrome} "
              f"(open in ui.perfetto.dev or chrome://tracing)")
    return 0


def _cmd_metrics(args) -> int:
    from . import observability as obs
    from .core.simulator import simulate_bootstrap

    config = _config_from_args(args)
    params = get_params(args.param_set)
    obs.reset()
    obs.enable()
    try:
        simulate_bootstrap(config, params)
        if args.functional:
            from .tfhe.ops import TfheContext

            ctx = TfheContext.create(get_params("test"), seed=0)
            ctx.bootstrap(ctx.encrypt(1))
        snapshot = obs.REGISTRY.snapshot()
        spans = obs.TRACER.spans()
    finally:
        obs.disable()
    if args.chrome:
        obs.write_chrome_trace(
            args.chrome, obs.chrome_trace_events(spans),
            metadata={"param_set": params.name, "config": config.name},
        )
    if args.json:
        _print_json({"param_set": params.name, "config": config.name,
                     "metrics": snapshot})
    else:
        print(obs.render_prometheus(snapshot), end="")
        if args.chrome:
            print(f"# wrote Chrome trace to {args.chrome}")
    return 0


def _cmd_profile(args) -> int:
    from .analysis.profile import collect_profile
    from .core.accelerator import MorphlingConfig

    factories = {
        "morphling": MorphlingConfig.morphling,
        "no-reuse": MorphlingConfig.no_reuse,
        "input-reuse": MorphlingConfig.input_reuse,
    }
    config = factories[args.config]()
    params = get_params(args.param_set)
    profile = collect_profile(config, params, what_ifs=not args.no_what_if)
    if args.chrome:
        from . import observability as obs
        from .core.simulator import simulate_bootstrap

        with obs.counting() as bank:
            simulate_bootstrap(config, params)
            events = obs.counter_track_events(bank)
        obs.write_chrome_trace(
            args.chrome, events,
            metadata={"param_set": params.name, "config": config.name,
                      "counters_digest": profile.counters_digest},
        )
    failure = None
    if args.noise:
        from .analysis.failprob import estimate_app_failure

        failure = estimate_app_failure(params, profile.group_size)
    if args.json:
        if failure is not None:
            from .observability import to_jsonable

            _print_json({"profile": to_jsonable(profile),
                         "failure": failure.to_jsonable()})
        else:
            _print_json(profile)
    else:
        print(profile.render_text())
        if failure is not None:
            print(failure.render_text())
        if args.chrome:
            print(f"wrote counter tracks to {args.chrome} "
                  f"(open in ui.perfetto.dev or chrome://tracing)")
    return 0


def _cmd_verify(args) -> int:
    from .verify.cli import run

    return run(
        lint=args.lint,
        strict=args.strict,
        as_json=args.json,
        list_rules=args.list_rules,
        target=args.target,
        binary=args.binary,
        occupancy=args.occupancy,
        noise_budget=args.noise_budget,
    )


def _noise_workload_adder(ctx):
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


def _noise_workload_gates(ctx):
    """One of each basic gate over fresh bit ciphertexts."""
    decoded, expected = {}, {}
    for name in ("and", "or", "xor", "nand", "nor", "xnor"):
        from .tfhe.ops import GATE_LUTS

        x, y = ctx.encrypt(1), ctx.encrypt(0)
        decoded[name] = ctx.decrypt(ctx.gate(name, x, y))
        expected[name] = GATE_LUTS[name](1)
    return decoded, expected


def _cmd_noise(args) -> int:
    from . import observability as obs
    from .analysis.failprob import DEFAULT_LOG2_BUDGET, estimate_failure_probability
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
        if args.chrome:
            obs.write_chrome_trace(
                args.chrome, obs.noise_trace_events(snapshot),
                metadata={"param_set": params.name, "workload": args.workload},
            )
    functional_ok = decoded == expected
    within_budget = report.meets(DEFAULT_LOG2_BUDGET)
    status = 0 if (functional_ok and within_budget
                   and all(d.within_envelope for d in drift)) else 1
    if args.json:
        _print_json({
            "param_set": params.name,
            "workload": args.workload,
            "functional_ok": functional_ok,
            "within_budget": within_budget,
            "outputs": decoded,
            "noise": snapshot,
            "drift": [d.to_jsonable() for d in drift],
            "failure": report.to_jsonable(),
        })
        return status
    if not args.fail_prob:
        mode = "measured" if args.measure else "predicted only"
        print(f"noise telemetry: workload '{args.workload}' on parameter set "
              f"{params.name} ({mode})")
        print(f"  outputs {decoded} "
              f"{'==' if functional_ok else '!='} expected {expected}")
        print(f"  {len(tracker.records())} tracked ops, "
              f"{len(tracker.failure_points())} decision points")
        header = (f"  {'op class':28s} {'count':>5s} {'pred std':>10s} "
                  f"{'meas rms':>10s} {'worst σ':>8s}  verdict")
        print(header)
        for d in drift:
            meas = (f"2^{_log2(d.measured_rms):.1f}" if d.measured_count
                    else "-")
            worst = f"{d.worst_sigma:.2f}" if d.measured_count else "-"
            verdict = "ok" if d.within_envelope else "DRIFT"
            if not d.measured_count:
                verdict = "unmeasured"
            print(f"  {d.op:28s} {d.count:5d} "
                  f"{'2^%.1f' % _log2(d.predicted_std_rms):>10s} "
                  f"{meas:>10s} {worst:>8s}  {verdict}")
    print(report.render_text())
    print(f"  within 2^{DEFAULT_LOG2_BUDGET:.0f} budget: "
          f"{'yes' if within_budget else 'NO'}")
    if args.chrome:
        print(f"wrote noise waterfall to {args.chrome} "
              f"(open in ui.perfetto.dev or chrome://tracing)")
    return status


def _cmd_pool(args) -> int:
    from .pool.scaling import run_pool_scaling

    try:
        workers = [int(w) for w in str(args.workers).split(",") if w.strip()]
    except ValueError:
        print(f"invalid --workers list: {args.workers!r}", file=sys.stderr)
        return 2
    if not workers or any(w < 1 for w in workers):
        print(f"--workers needs positive integers, got {args.workers!r}",
              file=sys.stderr)
        return 2
    try:
        result = run_pool_scaling(
            param_set=args.param_set, workers=workers, batch=args.batch,
            rounds=args.rounds, backend=args.backend, seed=args.seed,
        )
    except ValueError as exc:  # unknown backend / parameter set
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        _print_json(result.to_jsonable())
    else:
        print(result.render_text())
    return 0


def _log2(value: float) -> float:
    import math

    return math.log2(value) if value > 0 else float("-inf")


def _config_from_args_for_trace(args) -> "MorphlingConfig":
    from .core.accelerator import MorphlingConfig
    from .core.reuse import ReuseType

    reuse = {
        "none": ReuseType.NO_REUSE,
        "input": ReuseType.INPUT_REUSE,
        "input+output": ReuseType.INPUT_OUTPUT_REUSE,
    }[args.reuse]
    return MorphlingConfig(reuse=reuse, merge_split=not args.no_merge_split)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "experiments": _cmd_experiments,
    "area": _cmd_area,
    "workload": _cmd_workload,
    "demo": _cmd_demo,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "profile": _cmd_profile,
    "verify": _cmd_verify,
    "noise": _cmd_noise,
    "pool": _cmd_pool,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
