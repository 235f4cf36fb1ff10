"""Prior-accelerator-style configurations expressed in our simulator.

MATCHA and Strix differ from Morphling (for the Fig. 7-b study) chiefly
in how much transform-domain reuse their datapaths capture: MATCHA is the
No-Reuse class and Strix the Input-Reuse class, both optimized for k=1.
The equal-resource variants here keep Morphling's unit counts and memory
system and change only the reuse class (and merge-split availability), so
throughput differences isolate the paper's contribution.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.accelerator import MorphlingConfig
from ..core.reuse import ReuseType

__all__ = ["equal_resource_variants"]


def equal_resource_variants(**overrides: Any) -> Dict[str, MorphlingConfig]:
    """The Fig. 7-b ladder: same resources, increasing reuse, then +MS-FFT.

    Returns an ordered mapping: MATCHA's No-Reuse class, Strix's
    Input-Reuse class, Morphling without merge-split, then the shipped
    design.
    """
    return {
        "no-reuse": MorphlingConfig.no_reuse(**overrides),
        "input-reuse": MorphlingConfig.input_reuse(**overrides),
        "input+output-reuse": MorphlingConfig(
            name="input+output-reuse", reuse=ReuseType.INPUT_OUTPUT_REUSE,
            merge_split=False, **overrides,
        ),
        "input+output-reuse+ms-fft": MorphlingConfig.morphling(
            name="input+output-reuse+ms-fft", **overrides
        ),
    }
