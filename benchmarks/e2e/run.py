"""Run one benchmark workload and print its metrics.

    python3 benchmarks/e2e/run.py --workload pbs-toy-b16 --seed 1 \
        --seconds 20 --trace 0 [--out FILE]

``--trace 0`` measures the end-to-end metrics with no harness spans;
``--trace 1`` is the separate traced run that yields the per-layer
metrics.  Metric names, units and which list a run must fill come from
``BENCHMARK.json`` at the repository root.  The last line of standard
output is the result as one JSON object; ``--out`` appends the same
result, with its non-metric fields (backend, digests, sample counts,
machine fingerprint), as one JSON line to FILE.

One process, one closed-loop client, telemetry at the library default
(off), and ``REPRO_BACKEND`` removed from the environment so the
library's default backend is what is measured.  Exit code 0 means the
harness ran; whether the outputs were right is the ``correct`` field.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from common import REPO_ROOT, end_to_end, fingerprint, ref_kernel_ms, traced

HARNESS_DIR = Path(__file__).resolve().parent

WORKLOAD_MODULES = {
    "pbs-setI-b8": ("pbs", "PbsRun"),
    "pbs-setI-b1": ("pbs", "PbsRun"),
    "pbs-toy-b16": ("pbs", "PbsRun"),
    "sim-apps": ("simapps", "SimRun"),
}

IMPORT_TIMER = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; start = time.perf_counter(); "
    "__import__(sys.argv[3]); print(time.perf_counter() - start)"
)


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the list this run must fill, from BENCHMARK.json."""
    with open(REPO_ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOAD_MODULES):
        raise SystemExit("BENCHMARK.json and run.py disagree on the workloads")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_seconds(module: str, src: Path) -> float:
    """Fastest of three fresh-interpreter imports of a workload module.

    Importing is part of set-up but happens once per process, so it is
    timed in child interpreters: one sample would carry the machine's
    speed state, and the first import in a fresh checkout also compiles
    bytecode.
    """
    samples = []
    for _ in range(3):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, str(HARNESS_DIR), str(src), module],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(child.stdout))
    return min(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the closed loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result to this file as one JSON line")
    args = parser.parse_args(argv)

    os.environ.pop("REPRO_BACKEND", None)
    src = REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no library to measure at {src / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    units = declared_metrics(bool(args.trace))

    module_name, class_name = WORKLOAD_MODULES[args.workload]
    ref_before = ref_kernel_ms()
    import_s = import_seconds(module_name, src)
    run = getattr(__import__(module_name), class_name)(args.workload, args.seed)
    run.prepare(import_s)
    result = (traced if args.trace else end_to_end)(run, args.seconds)
    ref_after = ref_kernel_ms()

    values = dict(result["metrics"])
    if args.trace:
        values["harness.ref_kernel_before_ms"] = ref_before
        values["harness.ref_kernel_after_ms"] = ref_after
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {undeclared}")
    if not args.trace and set(units) - set(values):
        raise SystemExit(f"end-to-end metrics not measured: {sorted(set(units) - set(values))}")
    # A per-layer metric this workload did not produce belongs to a layer
    # it never calls (or to a probe that raised): it spent 0 there.
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}

    info = dict(result["info"])
    info.update(
        import_s=import_s,
        ref_kernel_ms=[ref_before, ref_after],
        # The machine changed speed under the measurement.
        noisy=abs(ref_after / ref_before - 1.0) > 0.10,
        fingerprint=fingerprint(),
    )
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']}")
    for key, value in info.items():
        if key not in ("spans", "fingerprint", "request_ms"):
            print(f"  {key}: {value}")
    if args.out:
        document = dict(line, workload=args.workload, seed=args.seed,
                        seconds=args.seconds, trace=args.trace, info=info)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(document, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
