"""VER007: occupancy-over-time proofs via abstract interpretation.

VER004 bounds a single instruction's batch ``count`` against the
resident-stream capacity, but says nothing about *aggregate* pressure:
a stream where every instruction individually fits can still overflow
the Shared buffer when several blind-rotation results are live at once
(their sample-extracts lagging behind the XPU).  This pass symbolically
executes the scheduled program's timeline - the same in-order engine
queues the HW-scheduler uses, with abstract unit durations - and tracks
interval-domain occupancy of the three bootstrap buffers:

- **Shared**: a ``BLIND_ROTATE`` result (``count x glwe_bytes``) is live
  from the rotation's completion until its last consumer (the
  ``SAMPLE_EXTRACT`` per VER005's stage chain) retires.  A result no
  instruction consumes never drains - it stays live to the end of the
  program (a leak the proof makes visible).
- **Private-A1**: the rotating ACC streams pin
  ``count x glwe_bytes x A1_STREAM_OVERHEAD`` (rotation windows, double
  buffering, bank padding - the :mod:`repro.core.buffers` residency
  model) while the ``BLIND_ROTATE`` executes.
- **Private-A2**: the double-buffered transform-domain BSK_i slice for
  every XPU plus the twiddle table is pinned while any rotation runs
  (the BSK itself *streams* through - only the per-iteration slice is
  resident, which is the whole point of the buffer's sizing).

The result is a per-buffer high-water-mark **proof**: the peak
occupancy, when it happens, and which instruction produced the peak.
Because the model is a pure function of the instruction stream and the
architecture - no timing models, no simulation - the same
:class:`OccupancyModel` doubles as the admission-control oracle for a
serving scheduler (:meth:`OccupancyModel.admissible_batch`): the
verifier and the scheduler share one resource model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..core.isa import StreamColumns, XpuOp
from ..core.scheduler import list_schedule
from .diagnostics import Diagnostic, Severity
from .program import VerifyContext, normalise, register_program_pass

__all__ = [
    "BufferHighWater",
    "OccupancyProof",
    "OccupancyModel",
]

#: Buffers the proof covers, in report order.
_BUFFERS = ("shared", "private_a1", "private_a2")


@dataclass(frozen=True)
class BufferHighWater:
    """Peak occupancy of one buffer over the program's timeline."""

    buffer: str
    capacity_bytes: int
    high_water_bytes: int
    at_step: int
    at_instruction: Optional[int]

    @property
    def ok(self) -> bool:
        return self.high_water_bytes <= self.capacity_bytes

    @property
    def utilization(self) -> float:
        if self.capacity_bytes <= 0:
            return 0.0
        return self.high_water_bytes / self.capacity_bytes

    def to_jsonable(self) -> dict:
        return {
            "buffer": self.buffer,
            "capacity_bytes": self.capacity_bytes,
            "high_water_bytes": self.high_water_bytes,
            "utilization": self.utilization,
            "at_step": self.at_step,
            "at_instruction": self.at_instruction,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class OccupancyProof:
    """High-water marks for every modeled buffer over one stream."""

    subject: str
    steps: int
    buffers: Tuple[BufferHighWater, ...]

    @property
    def ok(self) -> bool:
        return all(b.ok for b in self.buffers)

    def high_water(self, buffer: str) -> Optional[BufferHighWater]:
        for hw in self.buffers:
            if hw.buffer == buffer:
                return hw
        return None

    def to_jsonable(self) -> dict:
        return {
            "subject": self.subject,
            "steps": self.steps,
            "ok": self.ok,
            "buffers": [b.to_jsonable() for b in self.buffers],
        }

    def render_text(self) -> str:
        lines = [f"occupancy proof ({self.subject}, {self.steps} abstract steps):"]
        for hw in self.buffers:
            verdict = "fits" if hw.ok else "OVERFLOW"
            lines.append(
                f"  {hw.buffer:10s} peak {hw.high_water_bytes:>12,} B of "
                f"{hw.capacity_bytes:>12,} B ({hw.utilization:.0%}) "
                f"at step {hw.at_step}: {verdict}"
            )
        return "\n".join(lines)


class OccupancyModel:
    """Interval-domain buffer occupancy over a scheduled ISA stream.

    The timeline is an abstract list schedule: the same engine queues as
    :class:`repro.core.scheduler.HwScheduler` (XPU pool, per-lane-group
    VPUs, the two DMA channel groups), in-order per queue, every
    instruction one abstract step.  Real durations only shift when peaks
    happen, not whether producers and consumers can overlap - the
    high-water mark over the abstract timeline bounds what the in-order
    queues can keep live simultaneously.
    """

    def __init__(self, config: object, params: object) -> None:
        from ..core.buffers import A1_STREAM_OVERHEAD

        self.config = config
        self.params = params
        self.lane_groups = int(getattr(config, "vpu_lane_groups"))
        glwe = int(getattr(params, "glwe_bytes"))
        self.shared_per_ct = glwe
        self.a1_per_ct = glwe * A1_STREAM_OVERHEAD
        # Per-iteration BSK slice, double buffered per XPU, plus twiddles
        # (the Private-A2 budget from repro.core.buffers.buffer_budget).
        bsk_slice = (int(getattr(params, "polynomials_per_ggsw"))
                     * int(getattr(params, "N"))
                     * int(getattr(params, "coeff_bytes")))
        self.a2_resident = (int(getattr(config, "num_xpus")) * 2 * bsk_slice
                            + int(getattr(params, "N")) * 8)
        self.capacities = {
            "shared": int(getattr(config, "shared_bytes")),
            "private_a1": int(getattr(config, "private_a1_bytes")),
            "private_a2": int(getattr(config, "private_a2_bytes")),
        }

    # -- abstract timeline ---------------------------------------------
    def _abstract_schedule(self, cols: StreamColumns) -> np.ndarray:
        """Unit-duration list schedule: the step each row retires at (it
        occupies its queue for the one step before that)."""
        queues, _names = cols.queues(self.lane_groups)
        _starts, ends = list_schedule(queues, cols.dep_rows(), [1] * len(cols), 0)
        return np.array(ends, dtype=np.int64)

    # -- liveness intervals --------------------------------------------
    def _intervals(
        self, cols: StreamColumns, end: np.ndarray,
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Per-buffer ``(from, to, bytes, producer row)`` live ranges."""
        rotations = np.flatnonzero(cols.code == XpuOp.BLIND_ROTATE.code)
        n = len(cols)
        # Retire step of each rotation result's last consumer, keyed by
        # the last row carrying the result's id.
        consumed = np.isin(cols.deps, cols.ids[rotations])
        drained = np.zeros(n + 1, dtype=np.int64)
        np.maximum.at(drained, cols.resolve(cols.deps[consumed], n),
                      end[cols.owner[consumed]])
        drained = drained[cols.resolve(cols.ids[rotations], n)]
        horizon = int(end.max(initial=0)) + 1
        count = cols.count[rotations]
        retired = end[rotations]
        ones = np.ones_like(retired)
        # ACC streams + the resident BSK slice live while rotating.  The
        # rotation result sits in Shared until its last consumer (the SE
        # per VER005) retires; unconsumed results leak to the end of the
        # program.
        return {
            "shared": (retired, np.maximum(np.where(drained > 0, drained, horizon),
                                           retired + 1),
                       count * self.shared_per_ct, rotations),
            "private_a1": (retired - 1, retired, count * self.a1_per_ct, rotations),
            "private_a2": (retired - 1, retired, ones * self.a2_resident, rotations),
        }

    # -- the proof ------------------------------------------------------
    def analyze(
        self, instructions: Iterable[object], subject: str = "<stream>"
    ) -> OccupancyProof:
        """High-water-mark proof for ``instructions``."""
        cols = normalise(instructions)
        end = self._abstract_schedule(cols)
        intervals = self._intervals(cols, end)
        marks: List[BufferHighWater] = []
        for buffer in _BUFFERS:
            # Sweep allocation/release events in time order; releases
            # sort before allocations at equal timestamps (the intervals
            # are half-open, so a consumer retiring at t frees its bytes
            # before anything allocated at t lands).  Each interval
            # contributes its allocation, then its release, in row order;
            # the sort is stable.
            t_from, t_to, nbytes, rows = intervals[buffer]
            live = nbytes > 0
            t = np.stack((t_from[live], t_to[live]), 1).ravel()
            delta = np.stack((nbytes[live], -nbytes[live]), 1).ravel()
            order = np.lexsort((delta, t))
            level = np.cumsum(delta[order])
            # The peak is where the level first reaches its maximum.
            peak = int(level.max(initial=0))
            at = order[np.argmax(level)] if peak else None
            marks.append(BufferHighWater(
                buffer=buffer,
                capacity_bytes=self.capacities[buffer],
                high_water_bytes=peak,
                at_step=int(t[at]) if peak else 0,
                at_instruction=int(rows[live][at // 2]) if peak else None,
            ))
        steps = int(end.max(initial=0))
        return OccupancyProof(subject=subject, steps=steps, buffers=tuple(marks))

    # -- admission control ---------------------------------------------
    def fits_batch(self, count: int) -> bool:
        """Can one group of ``count`` ciphertexts run without overflow?

        Steady state keeps two rotation results in Shared (the producing
        group plus the one draining - exactly the double buffering the
        capacity formula provisions) and one group's ACC streams in
        Private-A1.
        """
        if count <= 0:
            return False
        return (
            2 * count * self.shared_per_ct <= self.capacities["shared"]
            and count * self.a1_per_ct <= self.capacities["private_a1"]
            and self.a2_resident <= self.capacities["private_a2"]
        )

    def admissible_batch(self) -> int:
        """Largest per-group ciphertext count every buffer can sustain.

        The serving scheduler's admission bound: work beyond this must
        queue rather than be scheduled, or the stream it compiles into
        would fail its own occupancy proof.
        """
        if self.a2_resident > self.capacities["private_a2"]:
            return 0
        if self.shared_per_ct <= 0 or self.a1_per_ct <= 0:
            return 0
        return min(
            self.capacities["shared"] // (2 * self.shared_per_ct),
            self.capacities["private_a1"] // self.a1_per_ct,
        )


# ----------------------------------------------------------------------
# VER007 - occupancy-over-time
# ----------------------------------------------------------------------
@register_program_pass(
    "VER007", "occupancy-over-time",
    "aggregate buffer occupancy over the scheduled timeline must fit "
    "Shared/Private capacities (liveness of results vs consumers)",
)
def _check_occupancy(ctx: VerifyContext) -> Iterator[Diagnostic]:
    if ctx.config is None or ctx.params is None:
        return
    proof = OccupancyModel(ctx.config, ctx.params).analyze(ctx.columns)
    for hw in proof.buffers:
        if hw.ok:
            continue
        op = (ctx.columns.op(hw.at_instruction)
              if hw.at_instruction is not None else None)
        yield Diagnostic(
            code="VER007", severity=Severity.ERROR,
            message=(
                f"{hw.buffer} high-water mark of {hw.high_water_bytes:,} B "
                f"exceeds the {hw.capacity_bytes:,} B capacity at abstract "
                f"step {hw.at_step}: too many live results between "
                f"producers and their consumers (per-instruction batches "
                f"fit, the aggregate does not)"
            ),
            instruction_index=hw.at_instruction,
            op=getattr(op, "value", str(op)) if op is not None else None,
        )
