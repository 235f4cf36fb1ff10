"""Shared scenario behind the scheduler golden test.

The golden file pins what ``run_workload(verify=True)`` computes for the
five Table VI applications on set III under the ``morphling`` and
``no_reuse`` configurations: makespan and every engine's busy time as
``float.hex`` (bit-exact), instruction and group counts, padding waste.
The ``bootstrap`` entry pins
``simulate_bootstrap`` itself on the six canonical pairs (``morphling`` on
sets I-IV, ``no-reuse`` and ``input-reuse`` on set III): throughput and
latency as ``float.hex``, the bottleneck and scheduler shape, and a digest
of the bottleneck profile's model sections (:data:`PROFILE_SECTIONS`).
A host-side speed-up of the scheduler or verifier must leave the file
untouched; a deliberate timing-model change regenerates it with
``PYTHONPATH=src python tests/core/_sim_golden.py``.
"""

import hashlib
import json
import os

GOLDEN_DOC = os.path.join(os.path.dirname(__file__), "golden", "sim_apps.json")

#: The profile sections built from the stage models, hashed per pair.
PROFILE_SECTIONS = ("xpu_stage_cycles", "vpu_stage_cycles", "hbm_channel_bytes",
                    "hbm_channel_utilization", "noc_hops", "buffer_watermarks",
                    "rotator_ops")


def build_document():
    from repro.apps import deepcnn_workload, vgg9_workload, xgboost_workload
    from repro.core import MorphlingConfig, run_workload
    from repro.params import get_params

    params = get_params("III")
    apps = [xgboost_workload(), deepcnn_workload(20), deepcnn_workload(50),
            deepcnn_workload(100), vgg9_workload()]
    document = {}
    for config in (MorphlingConfig.morphling(), MorphlingConfig.no_reuse()):
        for app in apps:
            result = run_workload(config, params, list(app.layers), verify=True)
            document[f"{config.name}/{app.name}"] = {
                "total_seconds": result.total_seconds.hex(),
                "engine_busy_seconds": {
                    engine: busy.hex()
                    for engine, busy in sorted(result.engine_busy_seconds.items())
                },
                "instructions": result.instructions,
                "groups": result.groups,
                "padding_waste": result.padding_waste.hex(),
            }
    document["bootstrap"] = _bootstrap_section()
    return document


def _bootstrap_section():
    from repro.core import MorphlingConfig
    from repro.observability.profile import collect_profile
    from repro.params import get_params

    pairs = [(MorphlingConfig.morphling(), pset) for pset in ("I", "II", "III", "IV")]
    pairs += [(MorphlingConfig.no_reuse(), "III"), (MorphlingConfig.input_reuse(), "III")]
    section = {}
    for config, pset in pairs:
        profile = collect_profile(config, get_params(pset), what_ifs=False)
        report = profile.simulation
        sections = {name: getattr(profile, name) for name in PROFILE_SECTIONS}
        payload = json.dumps(sections, sort_keys=True, separators=(",", ":"))
        section[f"{config.name}@{pset}"] = {
            "throughput_bs": report.throughput_bs.hex(),
            "bootstrap_latency_ms": report.bootstrap_latency_ms.hex(),
            "bottleneck": report.bottleneck,
            "group_size": report.group_size,
            "acc_streams": report.acc_streams,
            "bsk_reuse": report.bsk_reuse,
            "ksk_reuse": report.ksk_reuse,
            "profile_digest": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        }
    return section


def regenerate():
    os.makedirs(os.path.dirname(GOLDEN_DOC), exist_ok=True)
    with open(GOLDEN_DOC, "w") as fh:
        json.dump(build_document(), fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
    print(f"regenerated {GOLDEN_DOC}")
