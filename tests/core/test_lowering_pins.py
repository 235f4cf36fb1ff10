"""The SW-scheduler's lowered programs, pinned byte for byte.

The simulator golden pins totals and counts; these pin every instruction
field and dependency tuple through the binary encoding: the sha256 of
``encode_stream`` for the five Table VI applications on set III (the
``sim-apps`` sweep) and for one two-client ``schedule_clients`` stream
with empty, partial and linear-only layers.  A lowering change that
moves any of them is a program change, not a host-time change.
"""

import hashlib

import pytest

from repro.apps import deepcnn_workload, vgg9_workload, xgboost_workload
from repro.core import MorphlingConfig
from repro.core.isa_encoding import encode_stream
from repro.core.scheduler import LayerDemand, SwScheduler
from repro.params import get_params

APPS = {
    "XG-Boost": (xgboost_workload, (),
                 "5890e2efa38690af1db498705e1f6c1dfa34de742f4aed1b181be4194eb143b3"),
    "DeepCNN-20": (deepcnn_workload, (20,),
                   "3bff8995b6b2034591cfb5ee826ba7399f6113b2f5a75173c281d636b2abf3c7"),
    "DeepCNN-50": (deepcnn_workload, (50,),
                   "813734b88b7c276b823513ba819a62316ee05ecbb894dfaacef4aa502d050384"),
    "DeepCNN-100": (deepcnn_workload, (100,),
                    "5e9c38e7b2a58a3300561804267876be71b6cb1e2ac304549bb27f24f89b39c9"),
    "VGG-9": (vgg9_workload, (),
              "4565fca4ccd2fcda8f336744f6cd78e177eb3b947d5faf5e553df4763b7fd8c7"),
}
CLIENTS = "5d4e6dacac15ae2651bf320b7750c0f7c5bf850c87a5779751b483afc6006433"


@pytest.fixture(scope="module")
def scheduler():
    return SwScheduler(MorphlingConfig.morphling(), get_params("III"))


def _sha(stream) -> str:
    return hashlib.sha256(encode_stream(stream)).hexdigest()


@pytest.mark.parametrize("name", list(APPS))
def test_table_vi_programs(scheduler, name):
    make, args, want = APPS[name]
    app = make(*args)
    assert app.name == name
    assert _sha(scheduler.schedule(list(app.layers))) == want


def test_two_client_program(scheduler):
    stream = scheduler.schedule_clients({
        "alice": list(xgboost_workload().layers),
        "edges": [
            LayerDemand("a", 70), LayerDemand("empty", 0), LayerDemand("b", 5),
            LayerDemand("macs-only", 0, linear_macs=9),
            LayerDemand("c", 33, linear_macs=4),
        ],
    })
    assert len(stream) == 692
    assert _sha(stream) == CLIENTS
