"""Shared deterministic scenario behind the verify-JSON golden test.

The golden file pins the ``repro verify --json`` document shape: field
names, nesting, and the per-report ``occupancy``/``noise_budget``
attachment sections.  Any change to that shape is a schema change and
must come with a ``repro.observability.SCHEMA_VERSION`` bump and a
regenerated golden (run ``python tests/verify/_golden.py``).  The scenario is a
pure function of the committed source - a fixed workload compiled under
the default architecture, a deliberately malformed stream, and a fixed
lint snippet - so reruns reproduce the document exactly (floats up to
libm rounding, which the test compares with tolerance).
"""

import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_DOC = os.path.join(GOLDEN_DIR, "verify_report.json")

#: Torus-discipline violations under a numpy alias: RPR001 (raw mod-q)
#: and the alias-aware RPR004 (xp.fft) both fire in a tfhe-scoped path.
LINT_SNIPPET = "\n".join([
    "import numpy as xp",
    "acc = (a * b) % 2**32",
    "spec = xp.fft.fft(acc)",
    "",
])


def build_document():
    """The ``repro verify --json`` document for the golden scenario."""
    import numpy as np

    from repro.core.accelerator import MorphlingConfig
    from repro.core.isa import StreamColumns
    from repro.core.scheduler import LayerDemand, SwScheduler
    from repro.observability import json_document
    from repro.params import get_params
    from repro.verify import lint_source, verify_stream
    from repro.verify.cli import report_document
    from repro.verify.noisepass import static_noise_report
    from repro.verify.occupancy import OccupancyModel

    config = MorphlingConfig.morphling()
    params = get_params("III")
    stream = SwScheduler(config, params).schedule(
        [LayerDemand("golden-l0", bootstraps=3, linear_macs=128)]
    )
    program = verify_stream(stream, config=config, params=params,
                            subject="golden-program")
    program.attachments["occupancy"] = OccupancyModel(config, params).analyze(
        stream, subject="golden-program"
    )
    program.attachments["noise_budget"] = static_noise_report(stream, params)
    # One deliberately ill-formed row (pins diagnostics): an unknown
    # opcode code that depends on itself.
    zero = np.zeros(1, dtype=np.int64)
    bad = verify_stream(StreamColumns(zero, zero - 1, zero, zero, zero, zero,
                                      np.array([0, 1]), zero),
                        subject="golden-bad")
    lint = lint_source(LINT_SNIPPET, path="golden/tfhe/sample.py")
    return json_document(report_document([program, bad, lint]))


def regenerate():
    """Rewrite the golden file (run after an intentional schema bump)."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(GOLDEN_DOC, "w") as fh:
        json.dump(build_document(), fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.join(
        os.path.dirname(__file__), os.pardir, os.pardir, "src"))
    regenerate()
    print(f"regenerated {GOLDEN_DOC}")
