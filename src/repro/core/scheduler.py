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

from array import array
from dataclasses import dataclass
from typing import List, Optional, Tuple, TypeVar

import numpy as np
from numpy.typing import ArrayLike

from ..params import TFHEParams
from .accelerator import MorphlingConfig
from .buffers import acc_stream_capacity
from .hbm import HbmModel
from .isa import OPCODES, DepView, DmaOp, Engine, InstructionStream, StreamColumns, VpuOp, XpuOp
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

#: A schedule's clock: modelled seconds or the verifier's unit steps.
_Time = TypeVar("_Time", int, float)

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
_LOAD_ROWS = np.arange(8) < 3
_CHAIN_DEPS = np.array([0, 0, 0, 1, 2, 1, 2, 1])  # dependencies per chain row
_CHAIN_AT = np.cumsum(_CHAIN_DEPS) - _CHAIN_DEPS  # their place among the seven
_FROM_LOAD = np.array([1, 0, 1, 0, 0, 1, 0], dtype=bool)
_DEP_OFFSET = np.array([0, 0, 1, 1, 2, 2, 3])
#: How each opcode code is priced (:meth:`HwScheduler._durations`): 0 a
#: transfer's bytes, 1 XPU waves, 2 a VPU stage's cycles, 3 P_ALU MACs.
_PRICING = np.array([
    0 if op.engine is Engine.DMA else 1 if op.engine is Engine.XPU
    else 2 if op in (VpuOp.MODULUS_SWITCH, VpuOp.SAMPLE_EXTRACT, VpuOp.KEY_SWITCH) else 3
    for op in OPCODES])


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
        """Emit the instruction stream for ``layers`` (in dependency order),
        built as columns and appended as one block.

        Per layer, all DMA loads are emitted before the compute chains so
        the in-order DMA queues prefetch ahead of the XPUs - the
        double-buffering role of the Private-A2 buffer.  A layer of ``k``
        groups is its P_ALU (if it has linear work), ``3k`` loads, then
        ``k`` chains of five, every chain dependency at a fixed offset from
        its group's first load and first chain row.  The P_ALU - or, without
        one, every load - waits on the P_ALU and stores of the last layer
        that emitted rows.
        """
        p, size = self.params, self.group_size
        boots = np.array([layer.bootstraps for layer in layers], dtype=np.int64)
        macs = np.array([layer.linear_macs for layer in layers], dtype=np.int64)
        has = macs > 0
        palu, k = has.astype(np.int64), -(-boots // size)  # P_ALU rows, groups
        width = palu + k  # barrier size (P_ALU and stores); 0: the layer is empty
        rows = palu + 8 * k
        base, first_group = np.cumsum(rows) - rows, np.cumsum(k) - k  # first row, group
        bar_at = np.cumsum(width) - width
        layer = np.repeat(np.arange(len(layers)), k)[:, None]  # per group, its layer
        g = np.arange(len(layer))[:, None]
        j = g - first_group[layer]  # index within its layer
        loads = (base + palu)[layer] + 3 * j  # the group's first load row
        chains = loads + 3 * k[layer] + 2 * j  # and its first chain row
        batch = np.minimum(boots[layer] - j * size, size)
        # Each layer waits on the barrier of the last layer before it that
        # emitted rows (-1: none); its loads wait on its P_ALU if it has one.
        last = np.maximum.accumulate(np.where(width > 0, np.arange(len(layers)), -1))
        prev = np.concatenate(([-1], last))[:-1]
        wait_n, wait_at = np.append(width, 0)[prev], bar_at[prev]
        at = np.where(_LOAD_ROWS, loads, chains - 3) + np.arange(8)

        def column(palu_value: ArrayLike, per_group: ArrayLike) -> np.ndarray:
            out = np.empty(int(rows.sum()), dtype=np.int64)
            out[base[has]] = palu_value
            out[at] = per_group
            return out

        code = column(VpuOp.P_ALU.code, _GROUP_OPS)
        barriers = np.flatnonzero((code == VpuOp.P_ALU.code) | (code == DmaOp.STORE_LWE.code))
        n_deps = column(wait_n[has], np.where(
            _LOAD_ROWS, np.where(has, 1, wait_n)[layer], _CHAIN_DEPS))
        dep_at = column(wait_at[has], np.where(  # first dep in (barriers, chain deps)
            _LOAD_ROWS, np.where(has, bar_at, wait_at)[layer], len(barriers) + 7 * g + _CHAIN_AT))
        chain_deps = np.where(_FROM_LOAD, loads, chains) + _DEP_OFFSET
        key_bytes = np.array([0, p.bsk_transform_bytes, p.ksk_bytes, 0, 0, 0, 0, 0])
        stream = InstructionStream()
        stream.emit_block(
            code, column(first_group[has], g), column(0, batch * _BATCH_ROWS),
            column(0, batch * p.lwe_bytes * _LWE_ROWS + key_bytes), column(macs[has], 0), n_deps,
            np.concatenate((barriers, chain_deps.ravel()))[
                np.arange(n_deps.sum()) + np.repeat(dep_at - np.cumsum(n_deps) + n_deps, n_deps)])
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
    queues: List[int], n_queues: int, deps: DepView, durations: List[_Time], origin: _Time,
) -> Tuple[List[_Time], List[_Time], List[_Time]]:
    """The list-scheduling recurrence, once: ``(starts, ends)`` per row,
    then each queue's ready time.

    ``queues[i]`` is row ``i``'s in-order queue, one of ``n_queues``
    (:meth:`~repro.core.isa.StreamColumns.queues`), and ``deps`` the
    earlier rows each row waits on
    (:attr:`~repro.core.isa.StreamColumns.dep_view`); a row starts at
    ``max(queue ready, dependencies retired)`` counted from ``origin``.
    A queue's rows retire in order, so its final ready time is its last
    row's end (``origin`` if it ran nothing) and ``max(ready)`` is the
    makespan.  :class:`HwScheduler` feeds modelled seconds (``origin``
    0.0); the verifier's occupancy model feeds unit steps (``origin`` 0).
    """
    first, second, wide = deps
    n = len(queues)
    ready = [origin] * n_queues
    starts = [origin] * n
    ends = [origin] * (n + 1)  # ends[n]: "no dependency" retires at origin
    lo = 0
    # Every row compares its first two dependencies in one tight loop; a
    # wide row's others first raise its queue's ready time (the same
    # compare-and-keep, so the same maximum).
    for row, rest in [*wide, (n, array("q"))]:
        for i, queue, a, b, duration in zip(range(lo, row), queues[lo:row], first[lo:row],
                                            second[lo:row], durations[lo:row]):
            start = ready[queue]
            retired = ends[a]
            if retired > start:
                start = retired
            retired = ends[b]
            if retired > start:
                start = retired
            end = start + duration
            ready[queue] = end
            starts[i] = start
            ends[i] = end
        for dep in rest:
            if ends[dep] > ready[queues[row]]:
                ready[queues[row]] = ends[dep]
        lo = row
    del ends[n]
    return starts, ends, ready


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
        self._bootstrap_cores = config.bootstrap_cores
        self._clock_hz = config.clock_ghz * 1e9
        self._blind_rotation_seconds = self.xpu.blind_rotation_seconds()
        # Per opcode code: the channel group a transfer streams at (the
        # BSK rides the XPU's, everything else the VPU's) and a VPU
        # stage's cycles per ciphertext.
        self._bytes_per_second = np.array([self.hbm.bytes_per_second(
            "xpu" if op is DmaOp.LOAD_BSK else "vpu") for op in OPCODES])
        stage_cycles = self.vpu.stage_cycles().stage_cycle_map()  # MS / SE / KS by op value
        self._cycles = np.array([stage_cycles.get(op.value, 0.0) for op in OPCODES])

    # -- per-instruction timing ----------------------------------------
    def _durations(self, cols: StreamColumns) -> Tuple[np.ndarray, np.ndarray]:
        """Every row's duration as ``prices[price]``, one entry of
        ``prices`` per distinct duration.

        Each engine class is priced as arrays, each float operation in
        the models' order: a transfer's bytes over its channel group's
        rate; ``ceil(count / cores)`` resident waves of one full blind
        rotation; a VPU stage's or P_ALU's cycles on one lane group
        (1/``vpu_lane_groups`` of the MAC width serves each scheduled
        group, so consecutive groups post-process in parallel, Section
        V-B) over the clock.
        """
        code, count = cols.code, cols.count
        kind, scale, clock = _PRICING[code], self.config.vpu_lane_groups, self._clock_hz
        seconds = np.where(
            kind == 0, cols.data_bytes / self._bytes_per_second[code], np.where(
                kind == 1, -(-count // self._bootstrap_cores) * self._blind_rotation_seconds,
                np.where(kind == 2, scale * count * self._cycles[code] / clock,
                         scale * (cols.macs / self.config.vpu_macs_per_cycle) / clock)))
        prices = np.unique(seconds)
        return prices, np.searchsorted(prices, seconds)

    def execute(
        self, stream: InstructionStream, record_spans: bool = False,
        verify: bool = False,
    ) -> ScheduleResult:
        """Run the stream to completion; returns makespan and busy times.

        With ``record_spans`` the result carries per-instruction
        ``(engine, op, group, start, end)`` tuples for Gantt rendering
        (:func:`render_schedule`).  With ``verify`` the stream must
        first pass the static program verifier (raises
        :class:`repro.verify.VerificationError` otherwise);
        :func:`run_workload` and :func:`repro.core.compiler.compile_program`
        verify by default, so this is off here to avoid re-checking the
        same stream.
        """
        if verify:
            from ..verify import verify_or_raise

            verify_or_raise(stream, config=self.config, params=self.params)
        cols = stream.columns()
        cores = self._bootstrap_cores
        lane_groups = self.config.vpu_lane_groups
        queue_ids, names = cols.queues(lane_groups)
        queues = queue_ids.tolist()
        prices, price = self._durations(cols)
        # Accumulated in stream order, as one += per instruction would.
        busy = dict(zip(names, np.bincount(
            queue_ids, weights=prices[price], minlength=len(names)).astype(float).tolist()))
        group = cols.group
        if (group[1:] < group[:-1]).any():  # lowered programs are in group order
            group = np.sort(group)
        counts = cols.count[cols.code == XpuOp.BLIND_ROTATE.code]
        scheduled_slots = int((cores * -(-counts // cores)).sum())
        used_slots = int(counts.sum())
        # Rows share one float object per distinct price: no per-row float.
        durations = prices.astype(object)[price].tolist()
        starts, ends, ready = list_schedule(queues, len(names), cols.dep_view, durations, 0.0)
        total = max(ready)
        spans = None
        if record_spans:
            spans = [(names[q], OPCODES[c].value, g, start, end) for q, c, g, start, end
                     in zip(queues, cols.code.tolist(), cols.group.tolist(), starts, ends)]
        waste = 1.0 - used_slots / scheduled_slots if scheduled_slots else 0.0
        # Collapse the per-lane-group VPU engines into one "vpu" row,
        # normalized so utilization stays a fraction of the whole unit.
        merged = {
            "xpu": busy["xpu"],
            "vpu": sum(v for k, v in busy.items() if k.startswith("vpu")) / lane_groups,
            "dma_xpu": busy["dma_xpu"],
            "dma_vpu": busy["dma_vpu"],
        }
        return ScheduleResult(
            total_seconds=total,
            engine_busy_seconds=merged,
            instructions=len(stream),
            groups=int(np.count_nonzero(group[1:] != group[:-1])) + min(len(group), 1),
            padding_waste=waste,
            spans=spans,
        )


def render_schedule(result: ScheduleResult, width: int = 72) -> str:
    """ASCII Gantt chart of an executed schedule (the paper's Fig. 6 view).

    One row per engine; digits mark which group occupies the engine.
    Requires the result to have been produced with ``record_spans=True``.
    """
    if result.spans is None:
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
