"""The ``pbs-*`` workloads: batched programmable bootstraps on real keys.

One closed-loop client submits ``programmable_bootstrap_batch`` calls of a
fixed width against one keyset.  The end-to-end path imports only the
names a user of the substrate needs (keygen, the BSK table, the batch
bootstrap, encrypt/decrypt, encoding); everything layer-specific is
imported inside a probe, so removing a layer's function costs that
probe's metrics and nothing else.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.params import get_params
from repro.tfhe.bootstrap import programmable_bootstrap_batch
from repro.tfhe.encoding import make_test_polynomial
from repro.tfhe.keys import generate_keyset
from repro.tfhe.lwe import lwe_decrypt_phase, lwe_encrypt
from repro.tfhe.torus import decode_message, encode_message, to_signed
from repro.transforms.backends import active_backend_name

from common import Probes, Spans, Workload, closed_loop, digest, pred_shares, time_calls

#: Message modulus and the LUT every bootstrap evaluates: x -> (3x+1) mod 4.
#: It is not the identity, so a bootstrap that does nothing cannot pass.
P = 8
LUT = np.array([(3 * x + 1) % 4 for x in range(P // 2)], dtype=np.int64)

#: name -> (parameter set, batch width, set-ups per run).  Set-up is timed
#: several times and the fastest reported where one set-up is cheap; on set
#: I a single keygen already runs for ~11 s, across several of the
#: machine's speed bursts, and repeating it would not fit the driver's
#: time budget.
SPECS = {
    "pbs-setI-b8": ("I", 8, 1),
    "pbs-setI-b1": ("I", 1, 1),
    "pbs-toy-b16": ("test", 16, 5),
}

WARMUP_BATCHES = 2

#: Requests whose inputs and outputs are kept for the traced loop to
#: re-submit.  Everything else is checked and dropped at once, so peak
#: memory does not grow with the number of requests a run fits in.
KEPT_REQUESTS = 8


def make_inputs(keyset, batch: int, rng: np.random.Generator) -> Tuple[np.ndarray, list]:
    """Fresh messages in ``[0, p/2)`` (padding bit clear) and their encryptions."""
    msgs = rng.integers(0, P // 2, size=batch)
    cts = [
        lwe_encrypt(int(encode_message(int(m), P)), keyset.lwe_key, rng,
                    keyset.params.lwe_noise_log2)
        for m in msgs
    ]
    return msgs, cts


def set_up(params, batch: int, rng: np.random.Generator) -> Tuple[object, np.ndarray, Dict[str, float]]:
    """Everything before the first timed operation, timed in parts.

    Input encryption for the warm-up batches is load generation and is
    not in any part.
    """
    parts: Dict[str, float] = {}
    start = time.perf_counter()
    keyset = generate_keyset(params, rng)
    parts["keygen_s"] = time.perf_counter() - start
    start = time.perf_counter()
    keyset.bsk_spectrum_table("double")
    parts["bsk_table_s"] = time.perf_counter() - start
    start = time.perf_counter()
    test_poly = make_test_polynomial(LUT, params, P)
    parts["test_poly_s"] = time.perf_counter() - start
    parts["warmup_s"] = 0.0
    for _ in range(WARMUP_BATCHES):
        _, cts = make_inputs(keyset, batch, rng)
        start = time.perf_counter()
        programmable_bootstrap_batch(cts, test_poly, keyset)
        parts["warmup_s"] += time.perf_counter() - start
    return keyset, test_poly, parts


def check_outputs(msgs: np.ndarray, outputs: Optional[list], lwe_key,
                  lut: np.ndarray) -> Tuple[int, np.ndarray]:
    """Decrypt one request's outputs against ``lut``.

    ``outputs`` is ``None`` when the call raised.  Returns ``(failed,
    phase errors)``, the errors as centred fractions of the torus.
    """
    if outputs is None:
        return len(msgs), np.zeros(0)
    phases = np.array([lwe_decrypt_phase(ct, lwe_key) for ct in outputs], dtype=np.uint32)
    want = lut[msgs]
    failed = int(np.count_nonzero(decode_message(phases, P) != want))
    return failed, to_signed(phases - encode_message(want, P)) / float(1 << 32)


class PbsRun(Workload):
    """One keyset, one batch width, one closed-loop client."""

    def __init__(self, name: str, seed: int) -> None:
        set_name, self.batch, self.setups = SPECS[name]
        self.params = get_params(set_name)
        self.ops_per_request = self.batch
        self.seed = seed
        self.kept: List[tuple] = []  # (cts, outputs) of the first requests
        self.attempted = self.failed = 0
        self.errors: List[np.ndarray] = []
        self.call_errors: List[str] = []

    def prepare(self, import_s: float) -> None:
        """Run set-up ``setups`` times; keep the last keyset, report the fastest."""
        runs = []
        for rep in range(self.setups):
            rng = np.random.default_rng([self.seed, rep])
            self.keyset, self.test_poly, parts = set_up(self.params, self.batch, rng)
            runs.append(parts)
        self.rng = rng
        self.setup_parts = min(runs, key=lambda parts: sum(parts.values()))
        self.setup_s = import_s + sum(self.setup_parts.values())
        probe_msgs, probe_cts = make_inputs(
            self.keyset, self.batch, np.random.default_rng([self.seed, self.setups]))
        self.input_digest = digest(
            self.keyset.lwe_key.bits, probe_msgs, np.stack([ct.a for ct in probe_cts]))

    def request(self, _index: int) -> float:
        msgs, cts = make_inputs(self.keyset, self.batch, self.rng)
        outputs: Optional[list] = None
        start = time.perf_counter()
        try:
            outputs = programmable_bootstrap_batch(cts, self.test_poly, self.keyset)
        except Exception as exc:  # boundary: a failed call is a failed operation
            self.call_errors.append(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        failed, errors = check_outputs(msgs, outputs, self.keyset.lwe_key, LUT)
        self.attempted += len(msgs)
        self.failed += failed
        self.errors.append(errors)
        if outputs is not None and len(self.kept) < KEPT_REQUESTS:
            self.kept.append((cts, outputs))
        return elapsed

    def outcome(self) -> Tuple[int, int]:
        return self.attempted, self.failed

    def accuracy_bits(self) -> float:
        """``-log2`` of the std of the centred output phase error: the
        bits of phase a bootstrap output keeps."""
        errors = np.concatenate(self.errors) if self.errors else np.zeros(0)
        std = float(np.std(errors)) if errors.size else 0.0
        return -math.log2(std) if std > 0.0 else 0.0

    def info(self) -> dict:
        return {
            "backend": active_backend_name(),
            "param_set": self.params.name,
            "batch": self.batch,
            "input_digest": self.input_digest,
            "setups": self.setups,
            "setup_parts_s": self.setup_parts,
            "out_noise_log2": -self.accuracy_bits(),
            "call_errors": self.call_errors[:5],
        }

    # ------------------------------------------------------------------
    def layer_probes(self, probes: Probes, spans: Spans, seconds: float) -> bool:
        self.trace_state = {"identical": True, "requests": 0, "products": 0, "steps": 0}
        probes.run("stage_split", lambda: self._stage_split(spans, seconds))
        probes.run("kernel_replay", lambda: self._kernel_replay(probes))
        probes.run("sim_prediction", self._sim_prediction)
        values = probes.values
        values["keys.keygen_s"] = self.setup_parts["keygen_s"]
        values["keys.bsk_table_s"] = self.setup_parts["bsk_table_s"]
        values["keys.bsk_table_mb"] = self.keyset.bsk_spectrum_table("double").nbytes / 2**20
        ksk = self.keyset.ksk
        values["keys.ksk_mb"] = (ksk.masks.nbytes + ksk.bodies.nbytes) / 2**20
        return self.trace_state["identical"]

    def _stage_split(self, spans: Spans, seconds: float) -> Dict[str, float]:
        """Drive the four public stage calls under spans.

        Re-submits the untraced loop's first inputs and requires every
        output to be bit-identical to what ``programmable_bootstrap_batch``
        returned for them.
        """
        from repro.tfhe.bootstrap import blind_rotate_batch, key_switch_batch
        from repro.tfhe.glwe import sample_extract_batch
        from repro.tfhe.torus import modswitch

        two_n = 2 * self.params.N
        state = self.trace_state

        def request(index: int) -> float:
            cts, outputs = self.kept[index % len(self.kept)]
            with spans.span("request"):
                a = np.stack([ct.a for ct in cts])
                b = np.asarray([ct.b for ct in cts], dtype=np.uint32)
                with spans.span("bootstrap.modswitch"):
                    a_tilde = modswitch(a, two_n)
                    b_tilde = modswitch(b, two_n)
                with spans.span("bootstrap.blind_rotate"):
                    acc = blind_rotate_batch(a_tilde, b_tilde, self.test_poly, self.keyset)
                with spans.span("bootstrap.sample_extract"):
                    ext_a, ext_b = sample_extract_batch(acc)
                with spans.span("bootstrap.key_switch"):
                    out_a, out_b = key_switch_batch(ext_a, ext_b, self.keyset.ksk)
            state["requests"] += 1
            state["products"] += int(np.count_nonzero(a_tilde))
            state["steps"] += int(np.count_nonzero(a_tilde.any(axis=0)))
            state["identical"] &= all(
                np.array_equal(out_a[r], ct.a) and out_b[r] == ct.b
                for r, ct in enumerate(outputs)
            )
            return 0.0

        closed_loop(request, seconds)
        stages = ("modswitch", "blind_rotate", "sample_extract", "key_switch")
        out = {f"bootstrap.{s}_ms": spans.per_request_ms(f"bootstrap.{s}") for s in stages}
        whole = sum(out.values())
        for s in stages:
            out[f"bootstrap.{s}_share"] = out[f"bootstrap.{s}_ms"] / whole * 100.0
        return out

    def _kernel_replay(self, probes: Probes) -> Dict[str, float]:
        """Replay one blind-rotation step's kernels at this workload's shapes.

        Each kernel gets its own inputs of the right shape and dtype and
        its own probe, so the parts stay measurable when one of them is
        fused away.  Per-step medians are scaled by the steps one request
        ran, which makes them comparable with ``bootstrap.blind_rotate_ms``.
        """
        p = self.params
        kp1, l_b, n, batch = p.k + 1, p.l_b, p.N, self.batch
        rng = np.random.default_rng(0)
        requests = self.trace_state["requests"]
        steps = self.trace_state["steps"] / requests if requests else float(p.n)
        products = self.trace_state["products"] / requests if requests else float(p.n * batch)
        acc = rng.integers(0, 1 << 32, size=(batch, kp1, n), dtype=np.uint64).astype(np.uint32)
        shift = rng.integers(1, 2 * n, size=(batch, 1))
        half_beta = 1 << (p.beta_bits - 1)
        digits = rng.integers(-half_beta, half_beta, size=(batch, kp1, l_b, n)).astype(np.float64)
        digit_spec = rng.standard_normal((batch, kp1, l_b, n // 2)) * (1 + 1j)
        acc_spec = rng.standard_normal((batch, kp1, n // 2)) * (1e6 + 1e6j)
        row_spec = self.keyset.bsk_spectrum_table("double")[0]
        rows = row_spec.reshape(kp1, l_b, kp1, n // 2)
        step_ms: Dict[str, float] = {}

        def per_request(metric: str, make_call) -> None:
            def probe() -> Dict[str, float]:
                step_ms[metric] = time_calls(make_call()) * 1e3
                return {metric: step_ms[metric] * steps}
            probes.run(metric, probe)

        def rotate_diff():
            from repro.tfhe.polynomial import monomial_rotate_batch

            def call() -> None:
                diff = monomial_rotate_batch(acc, shift)
                diff -= acc
            return call

        def decompose():
            from repro.tfhe.decomposition import decompose as fn
            return lambda: fn(acc, p.beta_bits, l_b)

        def fft_fwd():
            from repro.transforms.negacyclic import negacyclic_fft
            return lambda: negacyclic_fft(digits)

        def einsum_mac():
            from repro.transforms.backends import active_backend
            backend = active_backend()
            return lambda: backend.einsum("aijf,ijcf->acf", digit_spec, rows)

        def fft_inv():
            from repro.tfhe.polynomial import from_spectrum
            return lambda: from_spectrum(acc_spec, n)

        def external_product():
            from repro.tfhe.ggsw import external_product_spectrum_batch
            return lambda: external_product_spectrum_batch(row_spec, acc, p.beta_bits, l_b)

        per_request("polynomial.rotate_diff_ms", rotate_diff)
        per_request("decomposition.decompose_ms", decompose)
        per_request("transforms.fft_fwd_ms", fft_fwd)
        per_request("backends.einsum_mac_ms", einsum_mac)
        per_request("transforms.fft_inv_ms", fft_inv)
        per_request("ggsw.external_product_ms", external_product)

        out: Dict[str, float] = {}
        parts = ("decomposition.decompose_ms", "transforms.fft_fwd_ms",
                 "backends.einsum_mac_ms", "transforms.fft_inv_ms")
        if "ggsw.external_product_ms" in step_ms and all(m in step_ms for m in parts):
            out["ggsw.unattributed_ms"] = (
                step_ms["ggsw.external_product_ms"] - sum(step_ms[m] for m in parts)) * steps
        blind_rotate = probes.values.get("bootstrap.blind_rotate_ms")
        if blind_rotate and {"ggsw.external_product_ms", "polynomial.rotate_diff_ms"} <= set(step_ms):
            out["bootstrap.glue_ms"] = blind_rotate - steps * (
                step_ms["ggsw.external_product_ms"] + step_ms["polynomial.rotate_diff_ms"])
        # Exact counts per request, computed from the shapes at the same boundaries.
        out["ggsw.external_products"] = products
        out["transforms.fwd_polys"] = products * kp1 * l_b
        out["transforms.inv_polys"] = products * kp1
        # One complex multiply-accumulate is 8 real flops; bytes are the
        # operands and result of each step's einsum, computed, not measured.
        out["backends.mac_flops"] = products * kp1 * kp1 * l_b * (n // 2) * 8
        out["backends.mac_bytes"] = steps * (digit_spec.nbytes + rows.nbytes + acc_spec.nbytes)
        return out

    def _sim_prediction(self) -> Dict[str, float]:
        """The simulator's predicted stage split for this parameter set."""
        from repro.core import MorphlingConfig, simulate_bootstrap

        config = MorphlingConfig.morphling()
        start = time.perf_counter()
        report = simulate_bootstrap(config, self.params)
        elapsed = time.perf_counter() - start
        return {"core.simulate_bootstrap_us": elapsed * 1e6, **pred_shares(report)}
