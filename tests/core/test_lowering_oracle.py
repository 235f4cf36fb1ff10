"""The SW-scheduler's one-block lowering against a row-at-a-time oracle.

``_lowering_oracle.py`` builds the same program one row at a time.
Over random layer lists - empty layers, linear-only layers, remainder
groups, a first layer with a P_ALU, exact multiples of the group size -
the block lowering must produce identical columns.
"""

from hypothesis import HealthCheck, example, given, settings

from repro.core import MorphlingConfig
from repro.core.scheduler import LayerDemand, SwScheduler
from repro.params import get_params

from ..verify.test_scalar_oracle import layer_lists
from . import _lowering_oracle as oracle

SCHEDULER = SwScheduler(MorphlingConfig.morphling(), get_params("III"))
FIELDS = ("ids", "code", "group", "count", "data_bytes", "macs", "dep_ptr", "deps")
L = LayerDemand


def _assert_same_columns(layers):
    got = SCHEDULER.schedule(layers).columns()
    want = oracle.schedule(SCHEDULER, layers).columns()
    for name in FIELDS:
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(layers=layer_lists)
@example(layers=[])
@example(layers=[L("l", 0), L("l", 40), L("l", 0), L("l", 0, 96), L("l", 5)])  # empty
@example(layers=[L("l", 0, 96), L("l", 0, 10**9), L("l", 33)])  # linear-only
@example(layers=[L("l", 70, 96), L("l", 40), L("l", 1, 96)])  # remainders, P_ALU first
@example(layers=[L("l", 32), L("l", 64, 96), L("l", 0), L("l", 96)])  # multiples of 32
def test_block_lowering_matches_the_oracle(layers):
    assert SCHEDULER.group_size == 32
    _assert_same_columns(layers)


def test_table_vi_layers_match_the_oracle():
    from repro.apps import deepcnn_workload, vgg9_workload, xgboost_workload

    for app in (xgboost_workload(), deepcnn_workload(20), vgg9_workload()):
        _assert_same_columns(list(app.layers))
