"""Boolean circuits over TFHE gates, with scheduler workload extraction.

TFHE's gate bootstrapping makes any boolean circuit evaluable: every
2-input gate costs one programmable bootstrap, NOT is linear (free).
``Circuit`` is a small DAG builder with three consumers:

- :meth:`Circuit.evaluate_plain` - golden-model evaluation on bits;
- :meth:`Circuit.evaluate_encrypted` - the same circuit on ciphertexts
  through a :class:`~repro.tfhe.ops.TfheContext`;
- :meth:`Circuit.to_workload` - lower the circuit's topological levels
  into scheduler :class:`~repro.core.scheduler.LayerDemand` layers, so
  any circuit can be costed on the Morphling performance model.

Builders for ripple-carry adders, equality and less-than comparators,
and multiplexers cover the structures the paper's applications need.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..observability import NOISE as _NOISE
from .ops import GATE_LUTS, TfheContext

__all__ = ["Wire", "Circuit", "ripple_carry_adder", "equality_comparator", "less_than_comparator", "multiplexer"]

_BINARY_GATES = set(GATE_LUTS)


@dataclass(frozen=True)
class Wire:
    """A value in the circuit DAG (input, constant, or gate output)."""

    node_id: int


@dataclass
class _Node:
    kind: str  # "input" | "const" | "gate" | "not"
    operands: tuple = ()
    op: str = None
    name: str = None
    value: int = None  # constants only


class Circuit:
    """A combinational boolean circuit."""

    def __init__(self):
        self._nodes = []
        self._outputs = {}

    # -- construction -----------------------------------------------------
    def _add(self, node: _Node) -> Wire:
        self._nodes.append(node)
        return Wire(len(self._nodes) - 1)

    def add_input(self, name: str) -> Wire:
        """Declare a named input bit."""
        if name in self.input_names():
            raise ValueError(f"duplicate input name {name!r}")
        return self._add(_Node("input", name=name))

    def add_const(self, value: int) -> Wire:
        """A constant bit (trivial ciphertext at evaluation time)."""
        if value not in (0, 1):
            raise ValueError("constants must be bits")
        return self._add(_Node("const", value=value))

    def gate(self, op: str, a: Wire, b: Wire) -> Wire:
        """A 2-input gate (one bootstrap when evaluated encrypted)."""
        if op not in _BINARY_GATES:
            raise ValueError(f"unknown gate {op!r}; known: {sorted(_BINARY_GATES)}")
        self._check(a)
        self._check(b)
        return self._add(_Node("gate", operands=(a.node_id, b.node_id), op=op))

    def not_gate(self, a: Wire) -> Wire:
        """NOT is linear in TFHE: no bootstrap."""
        self._check(a)
        return self._add(_Node("not", operands=(a.node_id,)))

    def mark_output(self, wire: Wire, name: str) -> None:
        self._check(wire)
        if name in self._outputs:
            raise ValueError(f"duplicate output name {name!r}")
        self._outputs[name] = wire.node_id

    def _check(self, wire: Wire) -> None:
        if not 0 <= wire.node_id < len(self._nodes):
            raise ValueError("wire does not belong to this circuit")

    # -- introspection ------------------------------------------------------
    def input_names(self) -> list:
        return [n.name for n in self._nodes if n.kind == "input"]

    def output_names(self) -> list:
        return list(self._outputs)

    def gate_count(self) -> int:
        """Bootstrapped (2-input) gates in the circuit."""
        return sum(1 for n in self._nodes if n.kind == "gate")

    def levels(self) -> list:
        """Topological levels of bootstrapped gates (NOTs fold into wires).

        Level ``i`` holds the gate node-ids whose longest gate-depth from
        any input is ``i`` - gates within a level are independent, which
        is what the SW-scheduler parallelizes.
        """
        depth = {}
        out = {}
        for node_id, node in enumerate(self._nodes):
            if node.kind in ("input", "const"):
                depth[node_id] = 0
            elif node.kind == "not":
                depth[node_id] = depth[node.operands[0]]
            else:
                d = 1 + max(depth[o] for o in node.operands)
                depth[node_id] = d
                out.setdefault(d, []).append(node_id)
        return [out[d] for d in sorted(out)]

    def to_workload(self, name: str = "circuit"):
        """Lower into scheduler layers: one layer per gate level."""
        from ..apps.workload import Workload
        from ..core.scheduler import LayerDemand

        layers = [
            LayerDemand(f"{name}-level{i}", bootstraps=len(level))
            for i, level in enumerate(self.levels())
        ]
        if not layers:
            layers = [LayerDemand(f"{name}-linear", bootstraps=0)]
        return Workload(name, tuple(layers),
                        description=f"boolean circuit, {self.gate_count()} gates")

    # -- evaluation ----------------------------------------------------------
    def evaluate_plain(self, inputs: dict) -> dict:
        """Golden model: evaluate on plaintext bits."""
        values = {}
        for node_id, node in enumerate(self._nodes):
            if node.kind == "input":
                try:
                    values[node_id] = int(inputs[node.name]) & 1
                except KeyError:
                    raise KeyError(f"missing input {node.name!r}") from None
            elif node.kind == "const":
                values[node_id] = node.value
            elif node.kind == "not":
                values[node_id] = 1 - values[node.operands[0]]
            else:
                a, b = (values[o] for o in node.operands)
                values[node_id] = GATE_LUTS[node.op](a + b)
        return {name: values[nid] for name, nid in self._outputs.items()}

    def evaluate_encrypted(self, ctx: TfheContext, inputs: dict) -> dict:
        """Evaluate on ciphertexts; inputs map names to bit ciphertexts.

        Gates are evaluated level by level: every gate within a
        topological level is independent, so one level becomes a single
        batched bootstrap sharing each BSK row - the SW-scheduler
        parallelism executed for real.  Linear nodes (inputs, constants,
        NOTs) resolve between levels.  Bit-identical to the node-by-node
        evaluation.
        """
        from .lwe import lwe_trivial
        from .torus import encode_message

        values = {}

        def _annotate(node_id: int) -> None:
            if _NOISE.enabled:
                # Tie the provenance record back to the circuit DAG so the
                # noise waterfall reads in circuit terms, not op soup.
                record = _NOISE.record_of(values[node_id])
                if record is not None:
                    record.meta.setdefault("circuit_node", node_id)

        def _eval_linear(node_id: int, node: _Node) -> None:
            if node.kind == "input":
                try:
                    values[node_id] = inputs[node.name]
                except KeyError:
                    raise KeyError(f"missing input {node.name!r}") from None
            elif node.kind == "const":
                enc = int(encode_message(node.value, 8)[()])
                values[node_id] = lwe_trivial(enc, ctx.params.n)
            else:  # "not"
                values[node_id] = ctx.lwe_not(values[node.operands[0]])
            _annotate(node_id)

        depth = {}
        by_depth = {}
        for node_id, node in enumerate(self._nodes):
            if node.kind in ("input", "const"):
                d = 0
            elif node.kind == "not":
                d = depth[node.operands[0]]
            else:
                d = 1 + max(depth[o] for o in node.operands)
            depth[node_id] = d
            by_depth.setdefault(d, []).append(node_id)

        for d in sorted(by_depth):
            gate_ids = [nid for nid in by_depth[d]
                        if self._nodes[nid].kind == "gate"]
            if gate_ids:
                names = [self._nodes[nid].op for nid in gate_ids]
                ops_a = [values[self._nodes[nid].operands[0]] for nid in gate_ids]
                ops_b = [values[self._nodes[nid].operands[1]] for nid in gate_ids]
                for nid, out in zip(gate_ids, ctx.gate_batch(names, ops_a, ops_b)):
                    values[nid] = out
                    _annotate(nid)
            # Linear nodes in construction order: operands always precede.
            for nid in by_depth[d]:
                if self._nodes[nid].kind != "gate":
                    _eval_linear(nid, self._nodes[nid])
        return {name: values[nid] for name, nid in self._outputs.items()}


# ---------------------------------------------------------------------------
# Standard circuit builders
# ---------------------------------------------------------------------------
def ripple_carry_adder(circuit: Circuit, a_bits: list, b_bits: list) -> tuple:
    """Add two little-endian bit vectors; returns (sum_bits, carry_out)."""
    if len(a_bits) != len(b_bits):
        raise ValueError("operand widths differ")
    carry = None
    sums = []
    for a, b in zip(a_bits, b_bits):
        axb = circuit.gate("xor", a, b)
        if carry is None:
            sums.append(axb)
            carry = circuit.gate("and", a, b)
        else:
            sums.append(circuit.gate("xor", axb, carry))
            prop = circuit.gate("and", axb, carry)
            gen = circuit.gate("and", a, b)
            carry = circuit.gate("or", prop, gen)
    return sums, carry


def equality_comparator(circuit: Circuit, a_bits: list, b_bits: list) -> Wire:
    """1 iff the two bit vectors are equal."""
    if len(a_bits) != len(b_bits):
        raise ValueError("operand widths differ")
    acc = None
    for a, b in zip(a_bits, b_bits):
        eq = circuit.gate("xnor", a, b)
        acc = eq if acc is None else circuit.gate("and", acc, eq)
    if acc is None:
        raise ValueError("comparator needs at least one bit")
    return acc


def less_than_comparator(circuit: Circuit, a_bits: list, b_bits: list) -> Wire:
    """1 iff a < b (unsigned, little-endian bit vectors)."""
    if len(a_bits) != len(b_bits):
        raise ValueError("operand widths differ")
    if not a_bits:
        raise ValueError("comparator needs at least one bit")
    lt = None
    for a, b in zip(a_bits, b_bits):  # LSB to MSB
        not_a = circuit.not_gate(a)
        bit_lt = circuit.gate("and", not_a, b)
        if lt is None:
            lt = bit_lt
        else:
            eq = circuit.gate("xnor", a, b)
            keep = circuit.gate("and", eq, lt)
            lt = circuit.gate("or", bit_lt, keep)
    return lt


def multiplexer(circuit: Circuit, select: Wire, when0: Wire, when1: Wire) -> Wire:
    """``when1`` if select else ``when0``."""
    take1 = circuit.gate("and", select, when1)
    take0 = circuit.gate("and", circuit.not_gate(select), when0)
    return circuit.gate("or", take0, take1)
