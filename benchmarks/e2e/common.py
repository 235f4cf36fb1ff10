"""Shared harness pieces: the closed loop, spans, probes, the two
measurement passes, the noise sentinel and the machine fingerprint.

Nothing here imports ``repro``: these helpers must keep working when the
library under test is broken, so a harness error and a library error
stay distinguishable.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Share of ``--seconds`` a traced run spends in its untraced and in its
#: traced closed loop; the rest is left for the kernel-replay probes.
TRACE_LOOP_SHARE = 0.4

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def fastest(values: Sequence[float]) -> float:
    """The timing estimator of the end-to-end metrics: the fastest sample.

    This class of box alternates, on scales from under a second to
    minutes, between speed states about 1.4x apart.  A run's median lands
    on whichever state held more than half of it (measured spread between
    identical runs: 11-32 %, above the largest bound the driver allows);
    interference only ever adds time, so the fastest request is the one
    the code controls (2-10 %).  The plain median and p90 are still
    reported, per layer.
    """
    return min(values)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median, the
    driver's measure of run-to-run spread; 0 for a single value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(*parts: object) -> str:
    """SHA-256 over arrays (raw bytes) and anything else (its ``repr``)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Timing primitives
# ---------------------------------------------------------------------------
def closed_loop(request: Callable[[int], float], seconds: float) -> List[float]:
    """One closed-loop client: send the next request when the last returns.

    ``request(i)`` performs request ``i`` and returns the wall time of the
    library call alone (load generation and output checking around it are
    not in the sample).  Runs until ``seconds`` have elapsed and at least
    one request is done.
    """
    samples: List[float] = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        samples.append(request(len(samples)))
    return samples


def time_calls(call: Callable[[], object], reps: int = 20) -> float:
    """Median wall time in seconds of ``reps`` calls, after one warm-up."""
    call()
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Spans:
    """In-memory span recorder for the traced pass.

    Each span keeps its name, parent, start and end.  Spans live in the
    harness, around the calls into each layer - the library is not
    instrumented.  Every request is wrapped in a span named ``request``.
    """

    def __init__(self) -> None:
        self.records: List[tuple] = []  # (name, parent, start, end)
        self._stack: List[str] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append((name, parent, start, end))

    def durations(self, name: str) -> List[float]:
        return [end - start for n, _, start, end in self.records if n == name]

    def per_request_ms(self, name: str) -> float:
        """Median over requests of the time spent in ``name`` spans.

        A request's spans are recorded before the ``request`` span that
        encloses them closes, so one pass folds them request by request.
        """
        per_request: List[float] = []
        inside = 0.0
        for n, _, start, end in self.records:
            if n == name:
                inside += end - start
            elif n == "request":
                per_request.append(inside)
                inside = 0.0
        return statistics.median(per_request) * 1e3 if per_request else 0.0

    def summary(self) -> Dict[str, dict]:
        """Count, total and self time (total minus direct children) per name."""
        out: Dict[str, dict] = {}
        for name, _, start, end in self.records:
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start
        for _, parent, start, end in self.records:
            if parent is not None:
                out[parent]["self_s"] -= end - start
        return out


class Probes:
    """Per-layer probes, each isolated from the others and from the run.

    A probe that raises leaves its metrics unset (they read 0) and its
    error string in ``errors``; it never fails the workload.  This keeps
    the benchmark alive when a later change removes or renames a layer's
    function.
    """

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.errors: Dict[str, str] = {}

    def run(self, name: str, fn: Callable[[], Dict[str, float]]) -> None:
        try:
            self.values.update(fn())
        except Exception as exc:  # boundary: record and keep the run alive
            self.errors[name] = f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# The two measurement passes
# ---------------------------------------------------------------------------
class Workload:
    """What a workload provides; ``end_to_end``/``traced`` drive it.

    ``setup_s`` and ``ops_per_request`` are set by ``prepare``.
    """

    setup_s: float
    ops_per_request: int

    def prepare(self, import_s: float) -> None:
        """Everything before the first timed operation."""
        raise NotImplementedError

    def request(self, index: int) -> float:
        """Generate inputs, time one library call, check its output."""
        raise NotImplementedError

    def outcome(self) -> Tuple[int, int]:
        """``(attempted, failed)`` operations over every request so far."""
        raise NotImplementedError

    def accuracy_bits(self) -> float:
        raise NotImplementedError

    def info(self) -> dict:
        """Non-metric fields of the result (backend, digests, ...)."""
        raise NotImplementedError

    def layer_probes(self, probes: Probes, spans: Spans, seconds: float) -> bool:
        """Run the traced closed loop for ``seconds`` and the layer probes.

        Returns whether the traced loop reproduced the untraced results.
        """
        raise NotImplementedError


def end_to_end(run: Workload, seconds: float) -> dict:
    """The untraced pass: every end-to-end metric."""
    samples = closed_loop(run.request, seconds)
    rss = peak_rss_mb()
    attempted, failed = run.outcome()
    fast = fastest(samples)
    info = run.info()
    info["requests"] = len(samples)
    info["request_ms"] = [round(t * 1e3, 4) for t in samples]
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "metrics": {
            "setup_s": run.setup_s,
            # One closed-loop client and a fixed request size: throughput
            # and latency are two views of the same samples.
            "ops_per_s": run.ops_per_request / fast,
            "request_min_ms": fast * 1e3,
            "peak_rss_mb": rss,
            "accuracy_bits": run.accuracy_bits(),
        },
        "info": info,
    }


def traced(run: Workload, seconds: float) -> dict:
    """The traced pass: an untraced loop for reference, then the traced
    loop and the layer probes.  Every per-layer metric comes from here."""
    untraced = closed_loop(run.request, seconds * TRACE_LOOP_SHARE)
    probes = Probes()
    spans = Spans()
    identical = run.layer_probes(probes, spans, seconds * TRACE_LOOP_SHARE)
    values = probes.values
    values["harness.request_p50_ms"] = statistics.median(untraced) * 1e3
    values["harness.request_p90_ms"] = percentile(untraced, 90) * 1e3
    values["harness.round_spread_pct"] = spread(untraced) * 100.0
    traced_requests = spans.durations("request")
    if traced_requests:
        values["harness.trace_overhead_pct"] = (
            fastest(traced_requests) / fastest(untraced) - 1.0) * 100.0
    attempted, failed = run.outcome()
    info = run.info()
    info.update(
        requests=len(untraced),
        traced_requests=len(traced_requests),
        traced_identical=identical,
        probe_errors=probes.errors,
        spans=spans.summary(),
    )
    return {
        "attempted": attempted + len(traced_requests) * run.ops_per_request,
        "failed": failed,
        "correct": failed == 0 and identical,
        "metrics": values,
        "info": info,
    }


def pred_shares(report: object) -> Dict[str, float]:
    """A simulation report's ``latency_fractions()`` in %, under the layer
    names of the measured stage split, so the two print side by side."""
    fractions = report.latency_fractions()  # type: ignore[attr-defined]
    return {
        "sim.pred_share.blind_rotate": fractions["xpu_blind_rotation"] * 100.0,
        "sim.pred_share.modswitch": fractions["vpu_modulus_switch"] * 100.0,
        "sim.pred_share.sample_extract": fractions["vpu_sample_extract"] * 100.0,
        "sim.pred_share.key_switch": fractions["vpu_key_switch"] * 100.0,
    }


# ---------------------------------------------------------------------------
# Noise sentinel and fingerprint
# ---------------------------------------------------------------------------
def ref_kernel_ms() -> float:
    """Noise sentinel: a fixed pure-numpy kernel that runs no repro code.

    Timed before and after each run; when the two differ by more than
    10 % the machine changed speed under the measurement.
    """
    x = np.random.default_rng(0).standard_normal((64, 4096))

    def kernel() -> None:
        # FFT plus elementwise work, no BLAS call: the sentinel must not
        # depend on how many threads a BLAS build decides to wake.
        (np.fft.rfft(x, axis=-1) * 2.0).real.sum()

    return time_calls(kernel, reps=9) * 1e3


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None  # the driver's checkout is not a git repository
    return out.stdout.strip()


def fingerprint() -> dict:
    try:
        import scipy  # recorded only; the numpy backend does not need it
        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV_VARS},
        "git_commit": _git_commit(),
    }
