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
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Tuple

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
from .isa import (
    DmaOp,
    Engine,
    Instruction,
    InstructionStream,
    VpuOp,
    XpuOp,
    engine_queue,
)
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
        double-buffering role of the Private-A2 buffer.
        """
        stream = InstructionStream()
        emit = stream.emit
        p = self.params
        lwe_bytes = p.lwe_bytes
        bsk_bytes = p.bsk_transform_bytes
        ksk_bytes = p.ksk_bytes
        group_id = 0
        barrier = ()  # ids the next layer must wait on
        for layer in layers:
            layer_tail = []
            if layer.linear_macs:
                palu = emit(
                    VpuOp.P_ALU, group_id, depends_on=barrier, macs=layer.linear_macs
                )
                layer_tail.append(palu.inst_id)
                linear_dep = (palu.inst_id,)
            else:
                linear_dep = barrier
            # Split the layer into scheduler groups.
            batches = []
            remaining = layer.bootstraps
            while remaining > 0:
                batches.append(min(self.group_size, remaining))
                remaining -= batches[-1]
            if batches:
                _SCHED_GROUPS.inc(len(batches))
            # Phase 1: prefetch every group's operands.
            loads = []
            for batch in batches:
                group = group_id + len(loads)
                load = emit(
                    DmaOp.LOAD_LWE, group, depends_on=linear_dep,
                    count=batch, data_bytes=batch * lwe_bytes,
                )
                bsk = emit(
                    DmaOp.LOAD_BSK, group, depends_on=linear_dep,
                    data_bytes=bsk_bytes,
                )
                ksk = emit(
                    DmaOp.LOAD_KSK, group, depends_on=linear_dep,
                    data_bytes=ksk_bytes,
                )
                loads.append((load.inst_id, bsk.inst_id, ksk.inst_id))
            # Phase 2: the dependent compute chain per group.
            for batch, (load, bsk, ksk) in zip(batches, loads):
                ms = emit(
                    VpuOp.MODULUS_SWITCH, group_id, depends_on=(load,), count=batch,
                )
                br = emit(
                    XpuOp.BLIND_ROTATE, group_id,
                    depends_on=(ms.inst_id, bsk), count=batch,
                )
                se = emit(
                    VpuOp.SAMPLE_EXTRACT, group_id,
                    depends_on=(br.inst_id,), count=batch,
                )
                ks = emit(
                    VpuOp.KEY_SWITCH, group_id,
                    depends_on=(se.inst_id, ksk), count=batch,
                )
                store = emit(
                    DmaOp.STORE_LWE, group_id, depends_on=(ks.inst_id,),
                    count=batch, data_bytes=batch * lwe_bytes,
                )
                layer_tail.append(store.inst_id)
                group_id += 1
            barrier = tuple(layer_tail)
        stream.validate_dependencies()
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
        # Reuse the single-client lowering per client, then re-emit into
        # one stream with disjoint group ids and remapped dependencies.
        group_base = 0
        for name, layers in clients.items():
            sub = self.schedule(layers)
            id_map = {}
            max_group = -1
            for inst in sub:
                new = merged.emit(
                    inst.op, group_base + inst.group,
                    depends_on=[id_map[d] for d in inst.depends_on],
                    count=inst.count, data_bytes=inst.data_bytes, macs=inst.macs,
                )
                id_map[inst.inst_id] = new.inst_id
                max_group = max(max_group, inst.group)
            group_base += max_group + 1
        merged.validate_dependencies()
        return merged


def list_schedule(
    instructions: Iterable[Instruction], durations: Iterable[float],
    lane_groups: int, origin: float,
) -> Iterator[Tuple[str, float, float, float]]:
    """The list-scheduling recurrence, once: yields ``(queue, start, end,
    duration)`` per instruction, in stream order.

    Each :func:`~repro.core.isa.engine_queue` issues in order, and an
    instruction starts at ``max(queue ready, dependencies retired)``
    counted from ``origin``.  :class:`HwScheduler` feeds modelled seconds
    (``origin`` 0.0); the verifier's occupancy model feeds unit steps
    (``origin`` 0).  A dependency on an id the stream never defined is
    treated as already retired - rejecting it is the verifier's job
    (VER001), and the occupancy pass must survive such streams.
    """
    ready: dict = {}
    finish: dict = {}
    for inst, duration in zip(instructions, durations):
        queue = engine_queue(inst, lane_groups)
        start = ready.get(queue, origin)
        for dep in inst.depends_on:
            retired = finish.get(dep, origin)
            if retired > start:
                start = retired
        end = start + duration
        ready[queue] = finish[inst.inst_id] = end
        yield queue, start, end, duration


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
        self._modulus_switch_cycles = stages.modulus_switch
        self._sample_extract_cycles = stages.sample_extract
        self._key_switch_cycles = stages.key_switch
        self._xpu_bytes_per_second = self.hbm.bytes_per_second("xpu")
        self._vpu_bytes_per_second = self.hbm.bytes_per_second("vpu")

    def occupancy_proof(self, stream: InstructionStream) -> "OccupancyProof":
        """Static occupancy proof for ``stream`` - the admission-control
        view of :class:`repro.verify.occupancy.OccupancyModel`, shared
        with the VER007 verifier pass so scheduler and verifier agree on
        one resource model.
        """
        from ..verify.occupancy import OccupancyModel

        return OccupancyModel(self.config, self.params).analyze(list(stream))

    # -- per-instruction timing ----------------------------------------
    def _duration(self, inst: Instruction) -> float:
        op = inst.op
        engine = inst.engine
        if engine is Engine.DMA:
            # BSK rides the XPU channel group, everything else the VPU's.
            if op is DmaOp.LOAD_BSK:
                return inst.data_bytes / self._xpu_bytes_per_second
            return inst.data_bytes / self._vpu_bytes_per_second
        if engine is Engine.XPU:
            # Blind-rotate `count` ciphertexts: ceil(count/cores) resident
            # waves, each one full blind rotation.
            waves = -(-inst.count // self._bootstrap_cores)
            return waves * self._blind_rotation_seconds
        # One lane group (1/vpu_lane_groups of the MAC width) serves
        # each scheduled group, so consecutive groups post-process in
        # parallel (Section V-B: groups are programmed individually).
        scale = self.config.vpu_lane_groups
        if op is VpuOp.MODULUS_SWITCH:
            return scale * inst.count * self._modulus_switch_cycles / self._clock_hz
        if op is VpuOp.SAMPLE_EXTRACT:
            return scale * inst.count * self._sample_extract_cycles / self._clock_hz
        if op is VpuOp.KEY_SWITCH:
            return scale * inst.count * self._key_switch_cycles / self._clock_hz
        return scale * self.vpu.linear_op_cycles(inst.macs) / self._clock_hz

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
        cores = self._bootstrap_cores
        lane_groups = self.config.vpu_lane_groups
        busy = {"xpu": 0.0, "dma_xpu": 0.0, "dma_vpu": 0.0}
        busy.update({f"vpu{g}": 0.0 for g in range(lane_groups)})
        total = 0.0
        scheduled_slots = 0
        used_slots = 0
        spans = [] if record_spans else None
        # Read once per run: the per-instruction publishing (`_observe`)
        # stays off the path of a run nobody is watching.
        observed = _METRICS.enabled or _TRACER.enabled or _COUNTERS.enabled
        # Shared-buffer pressure: (time, byte delta) pairs collected while
        # scheduling, replayed in time order afterwards into one sampled
        # perf-counter track.  BR results land in Shared when the XPU
        # instruction finishes and leave when SE drains them.
        pressure = [] if _COUNTERS.enabled else None
        # Request-latency samples: each group's STORE_LWE retire time is
        # the completion time of its `count` requests (since t=0).
        requests = [] if (_BUS.enabled or _METRICS.enabled) else None
        timeline = list_schedule(
            stream, map(self._duration, stream), lane_groups, 0.0
        )
        for inst, (key, start, end, duration) in zip(stream, timeline):
            busy[key] += duration
            if end > total:
                total = end
            op = inst.op
            if op is XpuOp.BLIND_ROTATE:
                scheduled_slots += cores * -(-inst.count // cores)
                used_slots += inst.count
            elif requests is not None and op is DmaOp.STORE_LWE and inst.count:
                requests.append((end, inst.count, inst.group))
            if spans is not None:
                spans.append((key, op.value, inst.group, start, end))
            if observed:
                self._observe(inst, key, start, end, duration, pressure)
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
        if requests:
            for end, count, group in requests:
                _SCHED_REQUEST_LATENCY.observe(end, count=count)
                if _BUS.enabled:
                    _BUS.publish("request", "sched/request", value=end,
                                 count=count, group=group)
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
        self, inst: Instruction, key: str, start: float, end: float,
        duration: float, pressure: Optional[list],
    ) -> None:
        """Publish one executed instruction to whichever telemetry is on."""
        op = inst.op
        if inst.engine is Engine.DMA:
            self.hbm.record_transfer(
                inst.data_bytes, "xpu" if op is DmaOp.LOAD_BSK else "vpu"
            )
        if _METRICS.enabled:
            _SCHED_INSTRUCTIONS.inc(op=op.value)
        if _TRACER.enabled:
            _TRACER.add_span(
                op.value, ts_us=start * 1e6, dur_us=duration * 1e6,
                category="schedule", track=f"hw/{key}",
                args={"group": inst.group, "count": inst.count},
            )
        if pressure is not None:
            _COUNTERS.add_cycles(f"sched/engine/{key}", duration * self._clock_hz)
            if op is XpuOp.BLIND_ROTATE:
                waves = -(-inst.count // self._bootstrap_cores)
                self.xpu.record_blind_rotations(waves * self.config.num_xpus)
                pressure.append((end, inst.count * self.params.glwe_bytes))
            elif op in (
                VpuOp.MODULUS_SWITCH, VpuOp.SAMPLE_EXTRACT, VpuOp.KEY_SWITCH
            ):
                cycles = self.vpu.stage_cycles().stage_cycle_map()[op.value]
                _COUNTERS.add_cycles(f"vpu/stage/{op.value}", inst.count * cycles)
                if op is VpuOp.SAMPLE_EXTRACT:
                    pressure.append((end, -inst.count * self.params.glwe_bytes))


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
