"""The columnar verifier against its per-instruction oracle.

``_scalar_oracle.py`` holds the VER001-VER008 bodies that walked one
object per instruction.  Over randomly mutated programs - dropped,
forward, duplicate and self dependencies, reordered stages, zeroed
payloads, unknown opcodes, records missing fields - the columnar passes
must report exactly the oracle's diagnostics, in the same order, and the
same occupancy proof and static noise report.
"""

from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.accelerator import MorphlingConfig
from repro.core.isa import OPCODES, DmaOp, Instruction, InstructionStream, VpuOp, XpuOp
from repro.core.scheduler import HwScheduler, LayerDemand, SwScheduler, run_workload
from repro.params import get_params
from repro.verify import OccupancyModel, static_noise_report, verify_stream

from . import _scalar_oracle as oracle

CONFIG = MorphlingConfig.morphling()
PARAMS = get_params("III")
FIELDS = ("inst_id", "op", "group", "count", "data_bytes", "macs", "depends_on")


@dataclass(frozen=True)
class Fake:
    """Instruction-shaped record free of the ISA constructor's checks."""

    inst_id: int
    op: object
    group: int = 0
    count: int = 0
    data_bytes: int = 0
    macs: int = 0
    depends_on: Tuple[int, ...] = field(default_factory=tuple)


def _records(layers):
    stream = SwScheduler(CONFIG, PARAMS).schedule(layers)
    return [Fake(*(getattr(inst, f) for f in FIELDS)) for inst in stream]


def _mutate(records, data):
    """Apply a few random corruptions to a copy of ``records``."""
    records = list(records)
    n = len(records)
    row = st.integers(0, n - 1)
    for kind in data.draw(st.lists(st.sampled_from([
        "drop_dep", "forward_dep", "duplicate_id", "self_dep", "repeat_dep",
        "swap", "zero_payload", "unknown_op", "missing_fields", "regroup",
        "oversize", "reop", "huge_rotation",
    ]), max_size=6)):
        i = data.draw(row)
        r = records[i]
        if not isinstance(r, Fake) and kind != "swap":
            continue  # a record missing fields stays as it is
        if kind == "drop_dep" and r.depends_on:
            deps = list(r.depends_on)
            deps.pop(data.draw(st.integers(0, len(deps) - 1)))
            records[i] = replace(r, depends_on=tuple(deps))
        elif kind == "forward_dep":
            target = data.draw(st.integers(r.inst_id + 1, n + 3))
            records[i] = replace(r, depends_on=r.depends_on + (target,))
        elif kind == "duplicate_id":
            records[i] = replace(r, inst_id=data.draw(st.integers(0, n - 1)))
        elif kind == "self_dep":
            records[i] = replace(r, depends_on=r.depends_on + (r.inst_id,))
        elif kind == "repeat_dep" and r.depends_on:
            records[i] = replace(r, depends_on=r.depends_on + r.depends_on[:1])
        elif kind == "swap":
            j = data.draw(row)
            records[i], records[j] = records[j], records[i]
        elif kind == "zero_payload":
            name = data.draw(st.sampled_from(["count", "data_bytes", "macs"]))
            records[i] = replace(r, **{name: 0})
        elif kind == "unknown_op":
            records[i] = replace(r, op=data.draw(st.sampled_from(["bogus_op", None, 3])))
        elif kind == "missing_fields":
            kept = data.draw(st.sets(st.sampled_from(FIELDS)))
            records[i] = SimpleNamespace(**{f: getattr(r, f) for f in kept})
        elif kind == "regroup":
            records[i] = replace(r, group=data.draw(st.integers(-2, 5)))
        elif kind == "huge_rotation":  # VER004 and VER007's overflow
            records[i] = replace(r, op=XpuOp.BLIND_ROTATE, count=10**6)
        elif kind == "reop":
            records[i] = replace(r, op=data.draw(st.sampled_from(OPCODES)))
        elif kind == "oversize":
            records[i] = replace(r, count=data.draw(st.sampled_from([33, 10**6])),
                                 data_bytes=data.draw(st.sampled_from([0, 7, r.data_bytes])))
    return records


layer_lists = st.lists(st.builds(
    LayerDemand, st.just("l"), st.integers(0, 70),
    st.sampled_from([0, 0, 96, 10**9]),
), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(layers=layer_lists, data=st.data())
def test_columnar_passes_match_the_oracle(layers, data):
    records = _records(layers)
    if records:
        records = _mutate(records, data)
    for config, params in ((CONFIG, PARAMS), (None, get_params("IV")), (None, None)):
        got = verify_stream(records, config=config, params=params).diagnostics
        assert got == oracle.verify(records, config=config, params=params)
    model = OccupancyModel(CONFIG, PARAMS)
    assert model.analyze(records) == oracle.analyze(model, records)
    assert static_noise_report(records, PARAMS) == oracle.static_noise_report(
        records, PARAMS)


@pytest.mark.parametrize("params_name", ["I", "III", "IV"])
def test_shipped_programs_match_the_oracle(params_name):
    """A scheduled stream (its own arrays, not records) agrees too."""
    params = get_params(params_name)
    layers = [LayerDemand("a", 150, linear_macs=4096), LayerDemand("b", 0),
              LayerDemand("c", 33)]
    stream = SwScheduler(CONFIG, params).schedule(layers)
    report = verify_stream(stream, config=CONFIG, params=params)
    assert report.diagnostics == oracle.verify(list(stream), CONFIG, params)
    model = OccupancyModel(CONFIG, params)
    assert model.analyze(stream) == oracle.analyze(model, list(stream))


def _walk_matches_the_oracle(stream) -> int:
    """The seconds walk of ``execute`` against the per-instruction
    recurrence, start and end bit for bit; returns the widest row's
    dependency count."""
    hw = HwScheduler(CONFIG, PARAMS)
    cols = stream.columns()
    spans = hw.execute(stream, record_spans=True).spans
    prices, price = hw._durations(cols)
    want = oracle.list_schedule(list(stream), prices[price].tolist(),
                                CONFIG.vpu_lane_groups, 0.0)
    assert [(q, start, end) for q, _op, _group, start, end in spans] == [
        (q, start, end) for q, start, end, _duration in want]
    return int(np.diff(cols.dep_ptr).max(initial=0))


def test_seconds_walk_matches_the_oracle():
    widths = []

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(layers=layer_lists)
    def drawn(layers):
        widths.append(_walk_matches_the_oracle(SwScheduler(CONFIG, PARAMS).schedule(layers)))

    drawn()
    assert max(widths) > 2  # the walk's wide-row path was exercised
    two_clients = SwScheduler(CONFIG, PARAMS).schedule_clients({
        "a": [LayerDemand("a", 70, linear_macs=96), LayerDemand("b", 0), LayerDemand("c", 65)],
        "b": [LayerDemand("d", 33), LayerDemand("e", 0, linear_macs=10**9), LayerDemand("f", 7)],
    })
    assert _walk_matches_the_oracle(two_clients) > 2


def _prices_match_the_oracle(stream) -> None:
    """``execute``'s durations against the per-instruction price, row by
    row and bit for bit."""
    hw = HwScheduler(CONFIG, PARAMS)
    prices, price = hw._durations(stream.columns())
    want = np.array([oracle.duration(hw, inst.op, inst.count, inst.data_bytes, inst.macs)
                     for inst in stream], dtype=float)
    assert prices[price].view(np.int64).tolist() == want.view(np.int64).tolist()


extra_rows = st.lists(st.tuples(
    st.sampled_from(OPCODES), st.integers(0, 10**6), st.integers(0, 10**9),
    st.integers(0, 10**12),
), max_size=12)


def test_prices_match_the_oracle():
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(layers=layer_lists, rows=extra_rows)
    def drawn(layers, rows):
        stream = SwScheduler(CONFIG, PARAMS).schedule(layers)
        for op, count, data_bytes, macs in rows:  # every opcode, any payload
            stream.emit(op, 0, count=count, data_bytes=data_bytes, macs=macs)
        _prices_match_the_oracle(stream)

    drawn()
    # The two-client stream of test_seconds_walk_matches_the_oracle.
    _prices_match_the_oracle(SwScheduler(CONFIG, PARAMS).schedule_clients({
        "a": [LayerDemand("a", 70, linear_macs=96), LayerDemand("b", 0), LayerDemand("c", 65)],
        "b": [LayerDemand("d", 33), LayerDemand("e", 0, linear_macs=10**9), LayerDemand("f", 7)],
    }))
    palu = InstructionStream()
    palu.emit(VpuOp.P_ALU, 0, macs=10**9)
    _prices_match_the_oracle(palu)


def test_run_workload_builds_no_instruction_objects(monkeypatch):
    """Lowering, all eight passes and execution read the columns: a
    verified DeepCNN-100 run constructs no ``Instruction`` record."""
    from repro.apps import deepcnn_workload

    built = []
    original = Instruction.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Instruction, "__init__", counting_init)
    layers = list(deepcnn_workload(100).layers)
    result = run_workload(CONFIG, PARAMS, layers, verify=True)
    assert result.instructions == 18_736
    assert built == []
    Instruction(0, XpuOp.BLIND_ROTATE, 0)  # the probe itself counts
    assert built == [1]


def test_oracle_flags_what_the_passes_flag():
    """Guard against a vacuous property: the mutations do produce
    diagnostics from every structural pass."""
    lwe = PARAMS.lwe_bytes
    records = [
        Fake(0, DmaOp.LOAD_LWE, count=1, data_bytes=7),
        Fake(0, VpuOp.MODULUS_SWITCH, count=10**6, depends_on=(0, 0, 5)),
        Fake(2, VpuOp.P_ALU, count=1),
        Fake(3, VpuOp.KEY_SWITCH, count=1, depends_on=(3,)),
        Fake(4, DmaOp.STORE_LWE, count=1, data_bytes=2 * lwe),
        # Out of group order, and a repeated dependency that only a sort
        # makes adjacent: the two sorts the passes skip on lowered programs.
        Fake(5, DmaOp.STORE_LWE, group=1, count=1, data_bytes=lwe, depends_on=(4, 3, 4)),
        Fake(6, VpuOp.MODULUS_SWITCH, count=1),
    ]
    codes = {d.code for d in oracle.verify(records, CONFIG, PARAMS)}
    assert codes >= {"VER001", "VER002", "VER003", "VER004", "VER005", "VER006"}
    assert verify_stream(records, CONFIG, PARAMS).diagnostics == oracle.verify(
        records, CONFIG, PARAMS)
