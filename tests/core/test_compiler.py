"""Tests for the compiler front end and the compile -> run path."""

import pytest

from repro.apps import Workload, xgboost_workload
from repro.core.accelerator import MorphlingConfig
from repro.core.compiler import compile_program
from repro.core.isa import XpuOp
from repro.core.isa_encoding import decode_stream, encode_stream
from repro.core.scheduler import LayerDemand, run_workload
from repro.core.simulator import simulate_bootstrap
from repro.params import get_params
from repro.tfhe.boolean import Circuit, ripple_carry_adder


def adder_circuit(width=4):
    c = Circuit()
    a = [c.add_input(f"a{i}") for i in range(width)]
    b = [c.add_input(f"b{i}") for i in range(width)]
    ripple_carry_adder(c, a, b)
    return c


class TestCompileProgram:
    def test_workload_lowered(self):
        name, stream, binary = compile_program(
            xgboost_workload(), MorphlingConfig(), get_params("III")
        )
        assert name == "XG-Boost"
        assert len(stream) > 0
        assert len(binary) > 0

    def test_circuit_lowered(self):
        name, stream, _ = compile_program(
            adder_circuit(), MorphlingConfig(), get_params("I")
        )
        assert name == "circuit"
        total = sum(i.count for i in stream if i.op is XpuOp.BLIND_ROTATE)
        assert total == adder_circuit().gate_count()

    def test_layer_list_lowered(self):
        name, stream, _ = compile_program(
            [LayerDemand("x", 10)], MorphlingConfig(), get_params("I")
        )
        assert name == "layers"

    def test_binary_decodes_back(self):
        _, stream, binary = compile_program(
            xgboost_workload(), MorphlingConfig(), get_params("III")
        )
        assert decode_stream(binary) == list(stream)

    def test_bad_program_rejected(self):
        with pytest.raises(TypeError):
            compile_program("not a program", MorphlingConfig(), get_params("I"))
        with pytest.raises(TypeError):
            compile_program([], MorphlingConfig(), get_params("I"))


class TestCompileAndRun:
    """Programs compiled by ``compile_program`` and executed by
    ``run_workload``, the lower -> verify -> execute path every caller uses."""

    def test_rate_bounded_by_simulator(self):
        params = get_params("I")
        big = Workload("big", tuple([LayerDemand("l", 64 * 20)]))
        result = run_workload(MorphlingConfig(), params, list(big.layers))
        bootstraps_per_second = big.total_bootstraps / result.total_seconds
        analytic = simulate_bootstrap(MorphlingConfig(), params).throughput_bs
        assert bootstraps_per_second <= analytic * 1.05

    @pytest.mark.parametrize("layers", [
        [LayerDemand("a", 1)],
        [LayerDemand("a", 150, linear_macs=4096), LayerDemand("b", 0), LayerDemand("c", 33)],
        [LayerDemand("a", 0, linear_macs=96), LayerDemand("b", 64), LayerDemand("c", 65)],
    ])
    def test_bootstraps_counted_from_the_program(self, layers):
        """Every ciphertext of every layer is rotated once: the count read
        off the program's columns is the layers' sum, partial groups and
        empty layers included."""
        _, stream, _ = compile_program(layers, MorphlingConfig(), get_params("I"))
        cols = stream.columns()
        rotated = int(cols.count[cols.code == XpuOp.BLIND_ROTATE.code].sum())
        assert rotated == sum(layer.bootstraps for layer in layers)

    def test_binary_smaller_than_data(self):
        _, stream, _ = compile_program(
            xgboost_workload(), MorphlingConfig(), get_params("III"))
        binary = encode_stream(stream)
        # instruction bytes are negligible next to the BSK alone
        assert len(binary) < get_params("III").bsk_bytes / 100
