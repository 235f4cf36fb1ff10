"""Application workload descriptors consumed by the scheduler + simulator.

A :class:`Workload` is a named sequence of dependency layers
(:class:`~repro.core.scheduler.LayerDemand`): within a layer every
bootstrap is independent (the SW-scheduler batches them into groups);
across layers there is a barrier.  This matches how Concrete-ML lowers
tree ensembles and quantized networks: per-layer programmable bootstraps
for activations/requantization, linear algebra in between.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.scheduler import LayerDemand

__all__ = ["Workload"]


@dataclass(frozen=True)
class Workload:
    """A TFHE application expressed as bootstrap/linear-op demands."""

    name: str
    layers: tuple
    description: str = ""

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("workload needs at least one layer")
        for layer in self.layers:
            if not isinstance(layer, LayerDemand):
                raise TypeError("layers must be LayerDemand instances")

    @property
    def total_bootstraps(self) -> int:
        return sum(l.bootstraps for l in self.layers)

    @property
    def total_linear_macs(self) -> int:
        return sum(l.linear_macs for l in self.layers)

    @property
    def depth(self) -> int:
        """Number of sequential dependency levels."""
        return len(self.layers)

    def summary(self) -> str:
        return (
            f"{self.name}: {self.depth} layers, "
            f"{self.total_bootstraps:,} bootstraps, "
            f"{self.total_linear_macs:,} linear MACs"
        )
