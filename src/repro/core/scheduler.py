"""SW-HW co-scheduler (Section V-E, Fig. 6).

The SW-scheduler batches an application's bootstrap demands into groups
of ``group_size`` LWE ciphertexts (64 for the default build: 16 bootstrap
cores x 4 resident streams), lowers every group into the dependent
instruction chain ``DMA -> VPU(MS) -> XPU(BR) -> VPU(SE) -> VPU(KS) ->
DMA``, and interleaves application-level linear work as P-ALU
instructions.  The HW-scheduler executes the stream against the timing
models with engines running concurrently: a list-scheduler that tracks
per-engine ready times and honours dependencies, which is exactly the
resource model of the paper's pipelined execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

if TYPE_CHECKING:  # pragma: no cover - typing-only import (cycle at runtime)
    from ..verify.occupancy import OccupancyProof

from ..observability import (
    BUS as _BUS,
    COUNTERS as _COUNTERS,
    REGISTRY as _METRICS,
    TIME_BUCKETS as _TIME_BUCKETS,
    TRACER as _TRACER,
)
from ..params import TFHEParams
from .accelerator import MorphlingConfig
from .buffers import acc_stream_capacity
from .hbm import HbmModel
from .isa import OPCODES, DmaOp, Engine, InstructionStream, StreamColumns, VpuOp, XpuOp
from .vpu import VpuModel
from .xpu import XpuModel

__all__ = [
    "LayerDemand",
    "SwScheduler",
    "HwScheduler",
    "ScheduleResult",
    "list_schedule",
    "run_workload",
]

_SCHED_GROUPS = _METRICS.counter(
    "sched_groups_formed_total", "Scheduler groups lowered by the SW-scheduler"
)
_SCHED_INSTRUCTIONS = _METRICS.counter(
    "sched_instructions_total", "Instructions executed by the HW-scheduler, by op"
)
_SCHED_PADDING = _METRICS.counter(
    "sched_padded_slots_total", "Bootstrap slots scheduled but unused (padding)"
)
_SCHED_REQUEST_LATENCY = _METRICS.histogram(
    "sched_request_latency_seconds",
    "Simulated completion time of each scheduled bootstrap group's "
    "requests (STORE_LWE retire time since workload start)",
    buckets=_TIME_BUCKETS,
)

# One scheduler group's eight rows: three loads (LWE, BSK, KSK), then the
# dependent chain MS -> BR -> SE -> KS -> STORE.  The chain's seven
# dependency ids (MS: LWE; BR: MS, BSK; SE: BR; KS: SE, KSK; STORE: KS)
# sit at _DEP_OFFSET past the group's first load row where _FROM_LOAD is
# set and past its first chain row elsewhere.
_GROUP_OPS = np.array([op.code for op in (
    DmaOp.LOAD_LWE, DmaOp.LOAD_BSK, DmaOp.LOAD_KSK, VpuOp.MODULUS_SWITCH,
    XpuOp.BLIND_ROTATE, VpuOp.SAMPLE_EXTRACT, VpuOp.KEY_SWITCH, DmaOp.STORE_LWE)])
_BATCH_ROWS = np.array([1, 0, 0, 1, 1, 1, 1, 1])  # rows that count the batch
_LWE_ROWS = np.array([1, 0, 0, 0, 0, 0, 0, 1])  # rows that move its LWEs
_CHAIN_DEPS = [1, 2, 1, 2, 1]
_FROM_LOAD = np.array([1, 0, 1, 0, 0, 1, 0], dtype=bool)
_DEP_OFFSET = np.array([0, 0, 1, 1, 2, 2, 3])


@dataclass(frozen=True)
class LayerDemand:
    """One dependency level of an application.

    All ``bootstraps`` within a layer are independent of each other;
    layer ``i+1`` cannot start before layer ``i`` retires.  ``linear_macs``
    is the P-ALU work (convolution / FC accumulation) feeding the layer.
    """

    name: str
    bootstraps: int
    linear_macs: int = 0

    def __post_init__(self) -> None:
        if self.bootstraps < 0 or self.linear_macs < 0:
            raise ValueError("layer demands must be non-negative")


@dataclass
class ScheduleResult:
    """Outcome of executing a stream on the HW-scheduler."""

    total_seconds: float
    engine_busy_seconds: dict
    instructions: int
    groups: int
    padding_waste: float  # fraction of scheduled bootstrap slots unused
    spans: Optional[list] = None  # (engine, op, group, start, end) when recorded

    @property
    def utilization(self) -> dict:
        return {
            e: busy / self.total_seconds if self.total_seconds else 0.0
            for e, busy in self.engine_busy_seconds.items()
        }


class SwScheduler:
    """Lower application layers into a dependency-correct instruction stream."""

    def __init__(self, config: MorphlingConfig, params: TFHEParams) -> None:
        self.config = config
        self.params = params
        streams = max(1, acc_stream_capacity(config, params))
        self.group_size = streams * config.bootstrap_cores

    def schedule(self, layers: list) -> InstructionStream:
        """Emit the instruction stream for ``layers`` (in dependency order).

        Per layer, all DMA loads are emitted before the compute chains so
        the in-order DMA queues prefetch ahead of the XPUs - the
        double-buffering role of the Private-A2 buffer.  A layer of ``k``
        groups is one block of rows: its P_ALU (if it has linear work),
        ``3k`` loads, then ``k`` chains of five, every dependency at a
        fixed offset from its group's first load and first chain row.
        """
        stream = InstructionStream()
        p = self.params
        key_bytes = np.array([0, p.bsk_transform_bytes, p.ksk_bytes, 0, 0, 0, 0, 0])
        group_id = 0
        barrier = np.zeros(0, dtype=np.int64)  # ids the next layer waits on
        for layer in layers:
            base = len(stream)
            palu = np.arange(base, base + int(layer.linear_macs > 0))
            linear_dep = palu if len(palu) else barrier
            full, rest = divmod(layer.bootstraps, self.group_size)
            batches = np.array([self.group_size] * full + [rest] * (rest > 0),
                               dtype=np.int64)[:, None]
            k = len(batches)
            if k:
                _SCHED_GROUPS.inc(k)
            first = base + len(palu)
            loads = first + 3 * np.arange(k)[:, None]
            chains = first + 3 * k + 5 * np.arange(k)[:, None]

            def rows(palu_value: int, per_group: ArrayLike) -> np.ndarray:
                # The P_ALU row, then every group's loads, then the chains.
                field = np.zeros((k, 8), dtype=np.int64) + per_group
                return np.concatenate((np.full(len(palu), palu_value),
                                       field[:, :3].ravel(), field[:, 3:].ravel()))

            stream.emit_block(
                rows(VpuOp.P_ALU.code, _GROUP_OPS),
                rows(group_id, group_id + np.arange(k)[:, None]),
                rows(0, batches * _BATCH_ROWS),
                rows(0, batches * p.lwe_bytes * _LWE_ROWS + key_bytes),
                rows(layer.linear_macs, 0),
                rows(len(barrier), [len(linear_dep)] * 3 + _CHAIN_DEPS),
                np.concatenate((
                    barrier if len(palu) else barrier[:0], np.tile(linear_dep, 3 * k),
                    (np.where(_FROM_LOAD, loads, chains) + _DEP_OFFSET).ravel())),
            )
            group_id += k
            barrier = np.concatenate((palu, chains[:, 0] + 4))
        return stream

    def schedule_clients(self, clients: dict) -> InstructionStream:
        """Schedule several clients' workloads (Section V-E's key rule).

        Ciphertexts under different secret keys must never share a group
        (their BSK/KSK differ), so each client's layers are lowered into
        its own group chain; chains from different clients interleave
        freely because the HW-scheduler sees no dependencies between
        them.  The cost of multi-tenancy shows up as group padding and
        extra evaluation-key traffic - measurable on the same models.
        """
        if not clients:
            raise ValueError("need at least one client")
        merged = InstructionStream()
        # Reuse the single-client lowering per client, then append it with
        # its ids and group ids offset past the clients before it.
        group_base = 0
        for name, layers in clients.items():
            sub = self.schedule(layers).columns()
            merged.emit_block(sub.code, sub.group + group_base, sub.count,
                              sub.data_bytes, sub.macs, np.diff(sub.dep_ptr),
                              sub.deps + len(merged))
            group_base += int(sub.group.max(initial=-1)) + 1
        return merged


def list_schedule(
    queues: Sequence[int], deps: Iterable[Iterable[int]],
    durations: Iterable[float], origin: float,
) -> Tuple[List[float], List[float]]:
    """The list-scheduling recurrence, once: ``(starts, ends)`` per row.

    ``queues[i]`` is row ``i``'s in-order queue
    (:meth:`~repro.core.isa.StreamColumns.queues`) and ``deps[i]`` the
    earlier rows it waits on; a row starts at ``max(queue ready,
    dependencies retired)`` counted from ``origin``.
    :class:`HwScheduler` feeds modelled seconds (``origin`` 0.0); the
    verifier's occupancy model feeds unit steps (``origin`` 0).
    """
    ready = [origin] * (max(queues) + 1 if queues else 0)
    starts: List[float] = []
    ends: List[float] = []
    for queue, waits, duration in zip(queues, deps, durations):
        start = ready[queue]
        for dep in waits:
            retired = ends[dep]
            if retired > start:
                start = retired
        end = start + duration
        ready[queue] = end
        starts.append(start)
        ends.append(end)
    return starts, ends


class HwScheduler:
    """List-scheduler executing an instruction stream on the timing models.

    Engines (all XPUs as one pool, the VPU, the two DMA channel groups)
    process their queues in order; an instruction starts at
    ``max(engine ready, dependencies retired)`` (:func:`list_schedule`).
    This reproduces the decoupled XPU/VPU pipelining through the Shared
    buffer.

    The per-unit costs every instruction is priced from - one blind
    rotation, the VPU stage cycles, the HBM channel-group rates - depend
    only on ``(config, params)``, so they are derived once here and held
    on the instance.
    """

    def __init__(self, config: MorphlingConfig, params: TFHEParams) -> None:
        self.config = config
        self.params = params
        self.xpu = XpuModel(config, params)
        self.vpu = VpuModel(config, params)
        self.hbm = HbmModel(config)
        stages = self.vpu.stage_cycles()
        self._bootstrap_cores = config.bootstrap_cores
        self._clock_hz = config.clock_ghz * 1e9
        self._blind_rotation_seconds = self.xpu.blind_rotation_seconds()
        self._stage_cycles = stages.stage_cycle_map()  # MS / SE / KS by op value
        self._xpu_bytes_per_second = self.hbm.bytes_per_second("xpu")
        self._vpu_bytes_per_second = self.hbm.bytes_per_second("vpu")

    def occupancy_proof(self, stream: InstructionStream) -> "OccupancyProof":
        """Static occupancy proof for ``stream`` - the admission-control
        view of :class:`repro.verify.occupancy.OccupancyModel`, shared
        with the VER007 verifier pass so scheduler and verifier agree on
        one resource model.
        """
        from ..verify.occupancy import OccupancyModel

        return OccupancyModel(self.config, self.params).analyze(stream)

    # -- per-instruction timing ----------------------------------------
    def _duration(self, op: object, count: int, data_bytes: int,
                  macs: int) -> float:
        engine = op.engine
        if engine is Engine.DMA:
            # BSK rides the XPU channel group, everything else the VPU's.
            if op is DmaOp.LOAD_BSK:
                return data_bytes / self._xpu_bytes_per_second
            return data_bytes / self._vpu_bytes_per_second
        if engine is Engine.XPU:
            # Blind-rotate `count` ciphertexts: ceil(count/cores) resident
            # waves, each one full blind rotation.
            waves = -(-count // self._bootstrap_cores)
            return waves * self._blind_rotation_seconds
        # One lane group (1/vpu_lane_groups of the MAC width) serves
        # each scheduled group, so consecutive groups post-process in
        # parallel (Section V-B: groups are programmed individually).
        scale = self.config.vpu_lane_groups
        if op.value in self._stage_cycles:
            return scale * count * self._stage_cycles[op.value] / self._clock_hz
        return scale * self.vpu.linear_op_cycles(macs) / self._clock_hz

    def _durations(self, cols: StreamColumns) -> np.ndarray:
        """Every row's duration, priced once per distinct
        ``(op, count, data_bytes, macs)``."""
        fields = (cols.code, cols.count, cols.data_bytes, cols.macs)
        order = np.arange(len(cols))
        for column in reversed(fields):  # stable: ends sorted by all four
            order = order[np.argsort(column[order], kind="stable")]
        rows = np.stack(fields, 1)[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]).any(1)
        prices = [self._duration(OPCODES[code], count, data_bytes, macs)
                  for code, count, data_bytes, macs in rows[first].tolist()]
        durations = np.empty(len(rows))
        durations[order] = np.array(prices)[np.cumsum(first) - 1]
        return durations

    def execute(
        self, stream: InstructionStream, record_spans: bool = False,
        verify: bool = False,
    ) -> ScheduleResult:
        """Run the stream to completion; returns makespan and busy times.

        With ``record_spans`` the result carries per-instruction
        ``(engine, op, group, start, end)`` tuples for Gantt rendering
        (:func:`render_schedule`).  With ``verify`` the stream must
        first pass the static program verifier (raises
        :class:`repro.verify.VerificationError` otherwise); the compile
        facade verifies by default, so this is off here to avoid
        re-checking the same stream.
        """
        if verify:
            from ..verify import verify_or_raise

            verify_or_raise(stream, config=self.config, params=self.params)
        cols = stream.columns()
        cores = self._bootstrap_cores
        lane_groups = self.config.vpu_lane_groups
        queues, names = cols.queues(lane_groups)
        seconds = self._durations(cols)
        durations = seconds.tolist()
        starts, ends = list_schedule(queues, cols.dep_rows(), durations, 0.0)
        # Accumulated in stream order, as one += per instruction would.
        busy = dict(zip(names, np.bincount(
            queues, weights=seconds, minlength=len(names)).tolist()))
        total = max(ends, default=0.0)
        counts = cols.count[cols.code == XpuOp.BLIND_ROTATE.code]
        scheduled_slots = int((cores * -(-counts // cores)).sum())
        used_slots = int(counts.sum())
        spans = None
        if record_spans:
            spans = [(names[q], OPCODES[c].value, g, start, end) for q, c, g, start, end
                     in zip(queues, cols.code.tolist(), cols.group.tolist(), starts, ends)]
        # Read once per run: the per-instruction publishing (`_observe`)
        # stays off the path of a run nobody is watching.
        if _METRICS.enabled or _TRACER.enabled or _COUNTERS.enabled:
            # Shared-buffer pressure: (time, byte delta) pairs collected
            # while publishing, replayed in time order afterwards into one
            # sampled perf-counter track.  BR results land in Shared when
            # the XPU instruction finishes and leave when SE drains them.
            pressure = [] if _COUNTERS.enabled else None
            for row in zip(cols.code.tolist(), cols.count.tolist(),
                           cols.data_bytes.tolist(), cols.group.tolist(),
                           queues, starts, ends, durations):
                self._observe(names, pressure, *row)
            if pressure:
                level = 0.0
                _COUNTERS.sample("sched/shared_inflight_bytes", 0.0, 0.0)
                for t, delta in sorted(pressure):
                    level += delta
                    _COUNTERS.sample("sched/shared_inflight_bytes", t, level)
        waste = 1.0 - used_slots / scheduled_slots if scheduled_slots else 0.0
        if scheduled_slots:
            _SCHED_PADDING.inc(scheduled_slots - used_slots)
        # Collapse the per-lane-group VPU engines into one "vpu" row,
        # normalized so utilization stays a fraction of the whole unit.
        merged = {
            "xpu": busy["xpu"],
            "vpu": sum(v for k, v in busy.items() if k.startswith("vpu")) / lane_groups,
            "dma_xpu": busy["dma_xpu"],
            "dma_vpu": busy["dma_vpu"],
        }
        result = ScheduleResult(
            total_seconds=total,
            engine_busy_seconds=merged,
            instructions=len(stream),
            groups=len(stream.groups()),
            padding_waste=waste,
            spans=spans,
        )
        if _BUS.enabled or _METRICS.enabled:
            # Request latency: each group's STORE_LWE retire time is the
            # completion time of its `count` requests (since t=0).
            stores = np.flatnonzero((cols.code == DmaOp.STORE_LWE.code)
                                    & (cols.count != 0)).tolist()
            for i in stores:
                count = int(cols.count[i])
                _SCHED_REQUEST_LATENCY.observe(ends[i], count=count)
                if _BUS.enabled:
                    _BUS.publish("request", "sched/request", value=ends[i],
                                 count=count, group=int(cols.group[i]))
        if _BUS.enabled:
            _BUS.publish("snapshot", "sched/result", value=total,
                         instructions=result.instructions,
                         groups=result.groups, padding_waste=waste,
                         utilization=result.utilization)
            if scheduled_slots:
                # Scheduled-slot occupancy: the steady-state batch-fill
                # evidence when a run goes through the scheduler rather
                # than the machine.
                _BUS.publish("batch", "sched/slots", value=float(used_slots),
                             capacity=scheduled_slots)
        return result

    def _observe(
        self, names: List[str], pressure: Optional[list], code: int,
        count: int, data_bytes: int, group: int, queue: int, start: float,
        end: float, duration: float,
    ) -> None:
        """Publish one executed instruction to whichever telemetry is on."""
        op = OPCODES[code]
        key = names[queue]
        if op.engine is Engine.DMA:
            self.hbm.record_transfer(
                data_bytes, "xpu" if op is DmaOp.LOAD_BSK else "vpu"
            )
        if _METRICS.enabled:
            _SCHED_INSTRUCTIONS.inc(op=op.value)
        if _TRACER.enabled:
            _TRACER.add_span(
                op.value, ts_us=start * 1e6, dur_us=duration * 1e6,
                category="schedule", track=f"hw/{key}",
                args={"group": group, "count": count},
            )
        if pressure is not None:
            _COUNTERS.add_cycles(f"sched/engine/{key}", duration * self._clock_hz)
            if op is XpuOp.BLIND_ROTATE:
                waves = -(-count // self._bootstrap_cores)
                self.xpu.record_blind_rotations(waves * self.config.num_xpus)
                pressure.append((end, count * self.params.glwe_bytes))
            elif op.value in self._stage_cycles:
                _COUNTERS.add_cycles(f"vpu/stage/{op.value}",
                                     count * self._stage_cycles[op.value])
                if op is VpuOp.SAMPLE_EXTRACT:
                    pressure.append((end, -count * self.params.glwe_bytes))


def render_schedule(result: ScheduleResult, width: int = 72) -> str:
    """ASCII Gantt chart of an executed schedule (the paper's Fig. 6 view).

    One row per engine; digits mark which group occupies the engine.
    Requires the result to have been produced with ``record_spans=True``.
    """
    if not result.spans:
        raise ValueError("execute the stream with record_spans=True first")
    total = result.total_seconds
    engines = sorted({s[0] for s in result.spans})
    lines = []
    for engine in engines:
        row = [" "] * width
        for key, _op, group, start, end in result.spans:
            if key != engine or end <= start:
                continue
            lo = int(start / total * width)
            hi = max(lo + 1, int(end / total * width))
            for x in range(lo, min(hi, width)):
                row[x] = str(group % 10)
        lines.append(f"{engine:8s} |{''.join(row)}|")
    lines.append(f"{'time':8s} |0{' ' * (width - 2)}|{result.total_seconds * 1e3:.2f} ms")
    return "\n".join(lines)


def run_workload(
    config: MorphlingConfig, params: TFHEParams, layers: list,
    verify: bool = True,
) -> ScheduleResult:
    """Schedule, statically verify, and execute a workload end to end."""
    stream = SwScheduler(config, params).schedule(layers)
    return HwScheduler(config, params).execute(stream, verify=verify)
