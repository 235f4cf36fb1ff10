"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

A and B are files written by ``run.py --out`` (one JSON line per run, any
mix of workloads and seeds).  One row per (workload, end-to-end metric):
both medians, the ratio B/A with its base, the wider of the two
run-to-run spreads (quartile distance over median), the bound from
``BENCHMARK.json`` and a verdict:

- ``worse``       B's median is worse than A's by more than the bound;
- ``unresolved``  the spread is wider than the bound, so the runs cannot
                  tell - unless every run of B beats every run of A;
- ``better``      every run of B beats every run of A, and the medians
                  differ by more than A's own spread;
- ``same``        anything else.

``compare.py A.jsonl A.jsonl`` prints the spreads of one set of runs.
Differing backends or simulator digests are flagged: they mean the two
sides did not measure the same thing.  Exit code 1 on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Sequence

from common import REPO_ROOT, spread


def load_runs(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worsening = sign * (med_b - med_a) / abs(med_a)
    every_b_beats_a = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if worsening > bound:
        return "worse"
    if max(spread(a), spread(b)) > bound and not every_b_beats_a:
        return "unresolved"
    if every_b_beats_a and -worsening > spread(a):
        return "better"
    return "same"


def collect(runs: List[dict]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> end-to-end metric -> one value per untraced run."""
    out: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for run in runs:
        if not run["trace"]:
            for name, entry in run["metrics"].items():
                out[run["workload"]][name].append(entry["value"])
    return out


def identities(runs: List[dict], field: str) -> Dict[str, set]:
    """workload -> the distinct values of an ``info`` field across its runs."""
    out: Dict[str, set] = defaultdict(set)
    for run in runs:
        if field in run["info"]:
            out[run["workload"]].add(run["info"][field])
    return out


def compare(runs_a: List[dict], runs_b: List[dict], spec: dict) -> int:
    a, b = collect(runs_a), collect(runs_b)
    worse = 0
    print(f"{'workload':14s} {'metric':16s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'spread':>7s} {'bound':>6s} {'runs':>5s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            va, vb = a[workload][metric["name"]], b[workload][metric["name"]]
            if not va or not vb:
                continue
            if any(run["failed"] or not run["correct"]
                   for run in runs_b if run["workload"] == workload):
                result = "worse"  # a failed operation misses every limit
            else:
                result = verdict(va, vb, metric["better"], metric["bound"])
            worse += result == "worse"
            med_a, med_b = statistics.median(va), statistics.median(vb)
            print(f"{workload:14s} {metric['name']:16s} {med_a:12.5g} {med_b:12.5g} "
                  f"{med_b / med_a:7.3f} {max(spread(va), spread(vb)) * 100:6.1f}% "
                  f"{metric['bound'] * 100:5.0f}% {len(va):2d}/{len(vb):<2d}  {result}"
                  f"   (base {med_a:.5g} {metric['unit']})")
    for field in ("backend", "sim_digest"):
        ida, idb = identities(runs_a, field), identities(runs_b, field)
        for workload in sorted(set(ida) & set(idb)):
            if ida[workload] != idb[workload]:
                print(f"FLAG {workload}: {field} differs: "
                      f"{sorted(ida[workload])} vs {sorted(idb[workload])}")
    return 1 if worse else 0


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(REPO_ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return compare(load_runs(argv[0]), load_runs(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
