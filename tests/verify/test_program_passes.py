"""Program-verifier passes: each VERxxx rule catches its violation and
stays silent on a well-formed stream.

Malformed streams are hand-built from duck-typed fake instructions -
``Instruction.__post_init__`` (rightly) refuses to construct some of the
violations the verifier must still catch in decoded binaries.
"""

from dataclasses import dataclass, field
from typing import Tuple

import pytest

from repro.core.buffers import acc_stream_capacity
from repro.core.isa import DmaOp, Instruction, VpuOp, XpuOp
from repro.core.accelerator import MorphlingConfig
from repro.params import get_params
from repro.verify import (
    Severity,
    VerificationError,
    program_rule_catalog,
    verify_or_raise,
    verify_stream,
)


@dataclass(frozen=True)
class Fake:
    """Instruction-shaped object free of the ISA constructor's checks."""

    inst_id: int
    op: object
    group: int = 0
    count: int = 0
    data_bytes: int = 0
    macs: int = 0
    depends_on: Tuple[int, ...] = field(default_factory=tuple)


@pytest.fixture(scope="module")
def config():
    return MorphlingConfig.morphling()


@pytest.fixture(scope="module")
def params():
    return get_params("III")


def _chain(params, group=0, count=4, base=0):
    """A well-formed single-group bootstrap chain (loads + MS..STORE)."""
    lwe = count * params.lwe_bytes
    return [
        Instruction(base + 0, DmaOp.LOAD_LWE, group, count=count, data_bytes=lwe),
        Instruction(base + 1, DmaOp.LOAD_BSK, group,
                    data_bytes=params.bsk_transform_bytes),
        Instruction(base + 2, DmaOp.LOAD_KSK, group, data_bytes=params.ksk_bytes),
        Instruction(base + 3, VpuOp.MODULUS_SWITCH, group, count=count,
                    depends_on=(base + 0,)),
        Instruction(base + 4, XpuOp.BLIND_ROTATE, group, count=count,
                    depends_on=(base + 3, base + 1)),
        Instruction(base + 5, VpuOp.SAMPLE_EXTRACT, group, count=count,
                    depends_on=(base + 4,)),
        Instruction(base + 6, VpuOp.KEY_SWITCH, group, count=count,
                    depends_on=(base + 5, base + 2)),
        Instruction(base + 7, DmaOp.STORE_LWE, group, count=count,
                    data_bytes=lwe, depends_on=(base + 6,)),
    ]


def test_catalog_has_all_passes():
    codes = [info.code for info in program_rule_catalog()]
    assert codes == ["VER001", "VER002", "VER003", "VER004", "VER005",
                     "VER006", "VER007", "VER008"]


def test_clean_chain_passes_every_rule(config, params):
    report = verify_stream(_chain(params), config=config, params=params)
    assert report.ok
    assert report.diagnostics == []


class TestVer001DefBeforeUse:
    def test_forward_reference_caught(self):
        stream = [
            Fake(0, VpuOp.MODULUS_SWITCH, count=1, depends_on=(1,)),
            Fake(1, DmaOp.LOAD_LWE, data_bytes=4, count=1),
        ]
        report = verify_stream(stream, passes=["VER001"])
        assert not report.ok
        assert report.codes() == {"VER001"}
        assert "forward reference" in report.errors[0].message
        assert report.errors[0].instruction_index == 0

    def test_unknown_dependency_caught(self):
        stream = [Fake(0, XpuOp.BLIND_ROTATE, count=1, depends_on=(99,))]
        report = verify_stream(stream, passes=["VER001"])
        assert not report.ok
        assert "unknown instruction" in report.errors[0].message

    def test_backward_reference_clean(self):
        stream = [
            Fake(0, DmaOp.LOAD_LWE, data_bytes=4, count=1),
            Fake(1, VpuOp.MODULUS_SWITCH, count=1, depends_on=(0,)),
        ]
        assert verify_stream(stream, passes=["VER001"]).ok


class TestVer002IdentitySanity:
    def test_duplicate_id_caught(self):
        stream = [
            Fake(7, DmaOp.LOAD_LWE, data_bytes=4, count=1),
            Fake(7, DmaOp.LOAD_BSK, data_bytes=4),
        ]
        report = verify_stream(stream, passes=["VER002"])
        assert not report.ok
        assert "duplicate instruction id" in report.errors[0].message

    def test_self_dependency_caught(self):
        stream = [Fake(0, XpuOp.BLIND_ROTATE, count=1, depends_on=(0,))]
        report = verify_stream(stream, passes=["VER002"])
        assert not report.ok
        assert "depends on itself" in report.errors[0].message

    def test_duplicate_dependency_is_warning_only(self):
        stream = [
            Fake(0, DmaOp.LOAD_LWE, data_bytes=4, count=1),
            Fake(1, XpuOp.BLIND_ROTATE, count=1, depends_on=(0, 0)),
        ]
        report = verify_stream(stream, passes=["VER002"])
        assert report.ok  # warnings never fail verification
        assert len(report.warnings) == 1
        assert report.warnings[0].severity is Severity.WARNING

    def test_unique_ids_clean(self):
        stream = [Fake(i, DmaOp.LOAD_LWE, data_bytes=4, count=1)
                  for i in range(3)]
        assert verify_stream(stream, passes=["VER002"]).diagnostics == []


class TestVer003OpcodeEngine:
    def test_unknown_opcode_caught(self):
        report = verify_stream([Fake(0, "bogus_op")], passes=["VER003"])
        assert not report.ok
        assert "unknown opcode" in report.errors[0].message

    def test_dma_with_macs_caught(self):
        report = verify_stream([Fake(0, DmaOp.LOAD_BSK, data_bytes=4, macs=10)],
                               passes=["VER003"])
        assert not report.ok

    def test_compute_with_payload_caught(self):
        report = verify_stream(
            [Fake(0, XpuOp.BLIND_ROTATE, count=4, data_bytes=64)],
            passes=["VER003"])
        assert not report.ok
        assert "DMA payloads" in report.errors[0].message

    def test_compute_with_zero_count_caught(self):
        report = verify_stream([Fake(0, VpuOp.SAMPLE_EXTRACT, count=0)],
                               passes=["VER003"])
        assert not report.ok
        assert "zero ciphertexts" in report.errors[0].message

    def test_palu_without_macs_caught(self):
        report = verify_stream([Fake(0, VpuOp.P_ALU, macs=0)],
                               passes=["VER003"])
        assert not report.ok

    def test_well_typed_instructions_clean(self):
        stream = [
            Fake(0, DmaOp.LOAD_LWE, data_bytes=4, count=1),
            Fake(1, VpuOp.P_ALU, macs=128),
            Fake(2, XpuOp.BLIND_ROTATE, count=64),
        ]
        assert verify_stream(stream, passes=["VER003"]).ok


class TestVer004BufferCapacity:
    def test_overflowing_batch_caught(self, config, params):
        streams = max(1, acc_stream_capacity(config, params))
        capacity = streams * config.bootstrap_cores
        stream = [Fake(0, XpuOp.BLIND_ROTATE, count=capacity + 1)]
        report = verify_stream(stream, config=config, params=params,
                               passes=["VER004"])
        assert not report.ok
        assert "exceeds the scheduler group capacity" in report.errors[0].message

    def test_batch_at_capacity_clean(self, config, params):
        streams = max(1, acc_stream_capacity(config, params))
        capacity = streams * config.bootstrap_cores
        stream = [Fake(0, XpuOp.BLIND_ROTATE, count=capacity)]
        assert verify_stream(stream, config=config, params=params,
                             passes=["VER004"]).ok

    def test_skipped_without_architectural_context(self):
        stream = [Fake(0, XpuOp.BLIND_ROTATE, count=10**9)]
        assert verify_stream(stream, passes=["VER004"]).ok


class TestVer005StageOrder:
    def test_out_of_order_emission_caught(self):
        stream = [
            Fake(0, VpuOp.KEY_SWITCH, group=1, count=1),
            Fake(1, VpuOp.MODULUS_SWITCH, group=1, count=1),
        ]
        report = verify_stream(stream, passes=["VER005"])
        assert not report.ok
        assert any("after a later stage" in d.message for d in report.errors)

    def test_missing_raw_dependency_caught(self):
        # SE emitted in order but without a dep on its group's BR result.
        stream = [
            Fake(0, VpuOp.MODULUS_SWITCH, group=0, count=1),
            Fake(1, XpuOp.BLIND_ROTATE, group=0, count=1, depends_on=(0,)),
            Fake(2, VpuOp.SAMPLE_EXTRACT, group=0, count=1),
        ]
        report = verify_stream(stream, passes=["VER005"])
        assert not report.ok
        assert "RAW hazard" in report.errors[0].message

    def test_cross_group_dependency_not_accepted(self):
        # BR depends on the *other* group's MS: still a RAW violation.
        stream = [
            Fake(0, VpuOp.MODULUS_SWITCH, group=0, count=1),
            Fake(1, XpuOp.BLIND_ROTATE, group=1, count=1, depends_on=(0,)),
        ]
        report = verify_stream(stream, passes=["VER005"])
        assert not report.ok

    def test_ordered_chain_clean(self, params):
        assert verify_stream(_chain(params), passes=["VER005"]).ok

    def test_independent_groups_interleave_clean(self, params):
        stream = _chain(params, group=0, base=0) + _chain(params, group=1, base=8)
        assert verify_stream(stream, passes=["VER005"]).ok


class TestVer006TransferSanity:
    def test_zero_byte_transfer_caught(self):
        report = verify_stream([Fake(0, DmaOp.LOAD_BSK, data_bytes=0)],
                               passes=["VER006"])
        assert not report.ok
        assert "zero bytes" in report.errors[0].message

    def test_misaligned_transfer_caught(self, params):
        report = verify_stream([Fake(0, DmaOp.LOAD_BSK, data_bytes=7)],
                               params=params, passes=["VER006"])
        assert not report.ok
        assert "coefficient word" in report.errors[0].message

    def test_lwe_size_mismatch_caught(self, params):
        wrong = 2 * params.lwe_bytes  # says 1 ciphertext, carries 2
        stream = [Fake(0, DmaOp.LOAD_LWE, count=1, data_bytes=wrong)]
        report = verify_stream(stream, params=params, passes=["VER006"])
        assert not report.ok
        assert "does not match" in report.errors[0].message

    def test_odd_bsk_footprint_is_warning(self, params):
        stream = [Fake(0, DmaOp.LOAD_BSK,
                       data_bytes=params.bsk_transform_bytes + params.coeff_bytes)]
        report = verify_stream(stream, params=params, passes=["VER006"])
        assert report.ok
        assert len(report.warnings) == 1

    def test_consistent_transfers_clean(self, params):
        assert verify_stream(_chain(params), params=params,
                             passes=["VER006"]).diagnostics == []


class TestDriver:
    def test_verify_or_raise_raises_with_report(self):
        stream = [Fake(0, "bogus_op")]
        with pytest.raises(VerificationError) as exc:
            verify_or_raise(stream)
        assert exc.value.report.codes() == {"VER003"}
        assert "VER003" in str(exc.value)

    def test_verify_or_raise_returns_clean_report(self, config, params):
        report = verify_or_raise(_chain(params), config=config, params=params)
        assert report.ok

    def test_streams_own_instructions_are_not_copied(self, config, params):
        """``verify_stream`` may allocate index structures, never a
        per-instruction record: its extra peak on the DeepCNN-100 stream
        stays within what it was before the passes read fields directly
        (5.8 MB) and below the 3.3 MB it was while they walked one
        ``Instruction`` per row: at most 3.0 MB (1.7 MB measured; the
        columnar stream itself is 1.7 MB, so a ratio to it no longer
        bounds anything useful)."""
        import tracemalloc

        from repro.apps import deepcnn_workload
        from repro.core.scheduler import SwScheduler

        layers = list(deepcnn_workload(100).layers)
        tracemalloc.start()
        try:
            stream = SwScheduler(config, params).schedule(layers)
            stream_bytes, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            report = verify_stream(stream, config=config, params=params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.ok
        extra = peak - stream_bytes
        assert extra <= 5_809_720
        assert extra <= 3_000_000

    def test_pass_subset_restricts_checks(self):
        # Stream violates VER003; restricting to VER001 must not see it.
        stream = [Fake(0, "bogus_op")]
        assert verify_stream(stream, passes=["VER001"]).ok
