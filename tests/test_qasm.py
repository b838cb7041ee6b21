import math
import re

import numpy as np
import pytest

from fcqw.circuits import Circuit, PotentialProfile, TrotterConfig, build_fcqw_step, build_xy_trotter
from fcqw.qasm import emit_qasm3
from fcqw.statevec import MAX_QUBITS, GateInstruction, cnot, h, hy, rz, swap


class QasmParseError(ValueError):
    """Unsupported or malformed construct, with the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


_RE_QUBIT = re.compile(r"^qubit\[(\d+)\]\s+(\w+);$")
_RE_1Q = re.compile(r"^(h|hy)\s+(\w+)\[(\d+)\];$")
_RE_RZ = re.compile(r"^rz\(([^)]+)\)\s+(\w+)\[(\d+)\];$")
_RE_2Q = re.compile(r"^(cx|swap)\s+(\w+)\[(\d+)\]\s*,\s*(\w+)\[(\d+)\];$")


def parse_qasm3(text: str) -> Circuit:
    """Reference reader: parse text produced by :func:`emit_qasm3` back into
    a Circuit, the oracle of the round-trip tests.

    Only the emitter's subset is accepted; anything else raises
    :class:`QasmParseError` with the offending line number.
    """
    num_qubits = None
    register = None
    gates: list[GateInstruction] = []
    saw_header = False
    in_gate_def = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if in_gate_def:
            if line == "}":
                in_gate_def = False
            continue
        if not saw_header:
            if line != "OPENQASM 3.0;":
                raise QasmParseError(line_no, f"expected OPENQASM 3.0 header, got {line!r}")
            saw_header = True
            continue
        if line == 'include "stdgates.inc";':
            continue
        if line.startswith("gate hy"):
            if not line.endswith("{"):
                raise QasmParseError(line_no, "gate definition must open a block")
            in_gate_def = True
            continue
        m = _RE_QUBIT.match(line)
        if m:
            if num_qubits is not None:
                raise QasmParseError(line_no, "only one qubit register is supported")
            num_qubits = int(m.group(1))
            if not 1 <= num_qubits <= MAX_QUBITS:
                raise QasmParseError(line_no, f"register width must be in [1, {MAX_QUBITS}]")
            register = m.group(2)
            continue
        if num_qubits is None:
            raise QasmParseError(line_no, "instruction before qubit declaration")
        if m := _RE_1Q.match(line):
            _check_register(line_no, m.group(2), register)
            gate = _make(line_no, h if m.group(1) == "h" else hy, int(m.group(3)))
        elif m := _RE_RZ.match(line):
            try:
                theta = float(m.group(1))
            except ValueError:
                theta = math.nan
            if not math.isfinite(theta):
                raise QasmParseError(line_no, f"bad rz angle {m.group(1)!r}")
            _check_register(line_no, m.group(2), register)
            gate = _make(line_no, rz, int(m.group(3)), theta)
        elif m := _RE_2Q.match(line):
            _check_register(line_no, m.group(2), register)
            _check_register(line_no, m.group(4), register)
            build = cnot if m.group(1) == "cx" else swap
            gate = _make(line_no, build, int(m.group(3)), int(m.group(5)))
        else:
            raise QasmParseError(line_no, f"unsupported construct: {line!r}")
        if max(gate.targets) >= num_qubits:
            raise QasmParseError(line_no, f"qubit {max(gate.targets)} outside qubit[{num_qubits}]")
        gates.append(gate)

    if not saw_header:
        raise QasmParseError(1, "empty program")
    if num_qubits is None:
        raise QasmParseError(1, "missing qubit declaration")
    return Circuit(num_qubits, tuple(gates))


def _make(line_no: int, build, *args) -> GateInstruction:
    try:
        return build(*args)
    except ValueError as exc:
        raise QasmParseError(line_no, str(exc)) from None


def _check_register(line_no: int, name: str, declared: str | None) -> None:
    if name != declared:
        raise QasmParseError(line_no, f"unknown register {name!r}")


class TestEmit:
    def test_empty_circuit_is_header_and_declaration(self):
        text = emit_qasm3(Circuit(2, ()))
        assert text.splitlines() == [
            "OPENQASM 3.0;",
            'include "stdgates.inc";',
            "qubit[2] q;",
        ]

    def test_single_swap_line(self):
        text = emit_qasm3(Circuit(2, (swap(0, 1),)))
        assert text.splitlines()[-1] == "swap q[0], q[1];"

    def test_fcqw_step_line_counts(self):
        step = build_fcqw_step(8, PotentialProfile.uniform(8, 0.0))
        lines = emit_qasm3(step).splitlines()
        assert sum(1 for l in lines if l.startswith("rz(")) == 8
        assert sum(1 for l in lines if l.startswith("swap ")) == 7

    def test_lf_endings_and_trailing_newline(self):
        text = emit_qasm3(Circuit(2, (swap(0, 1),)))
        assert "\r" not in text
        assert text.endswith(";\n")

    def test_hy_emitted_via_named_gate_with_decomposition(self):
        text = emit_qasm3(Circuit(2, (hy(1),)))
        assert "gate hy a {" in text
        assert "  rz(-pi/2) a;" in text
        assert "  h a;" in text
        assert "  rz(pi/2) a;" in text
        assert text.splitlines()[-1] == "hy q[1];"


class TestRoundTrip:
    def test_fcqw_step(self):
        step = build_fcqw_step(8, PotentialProfile.box(8, 4.0))
        parsed = parse_qasm3(emit_qasm3(step))
        assert parsed.num_qubits == 8
        assert parsed.instructions == step.instructions

    def test_trotter_circuit_with_hy(self):
        circ = build_xy_trotter(4, PotentialProfile.uniform(4, 1.5), TrotterConfig(1.0, 0.8, 2))
        parsed = parse_qasm3(emit_qasm3(circ))
        assert parsed.instructions == circ.instructions

    def test_pair_block_parses_to_fourteen_instructions(self):
        circ = build_xy_trotter(2, PotentialProfile.uniform(2, 0.0), TrotterConfig(1.0, 0.3, 1))
        parsed = parse_qasm3(emit_qasm3(circ))
        assert len(parsed.instructions) == 14
        assert [g.kind for g in parsed.instructions] == [
            "h", "h", "cnot", "rz", "cnot", "h", "h",
            "hy", "hy", "cnot", "rz", "cnot", "hy", "hy",
        ]

    def test_rz_angles_roundtrip_exactly(self):
        rng = np.random.default_rng(1)
        gates = tuple(rz(0, float(t)) for t in rng.uniform(-10, 10, size=20))
        parsed = parse_qasm3(emit_qasm3(Circuit(1, gates)))
        assert parsed.instructions == gates


class TestParseErrors:
    def test_malformed_gate_reports_line(self):
        text = 'OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit[2] q;\nswp q[0];\n'
        with pytest.raises(QasmParseError) as err:
            parse_qasm3(text)
        assert err.value.line == 4

    def test_missing_header(self):
        with pytest.raises(QasmParseError):
            parse_qasm3("qubit[2] q;\n")

    def test_instruction_before_declaration(self):
        with pytest.raises(QasmParseError):
            parse_qasm3('OPENQASM 3.0;\nh q[0];\n')

    def test_unknown_register(self):
        text = "OPENQASM 3.0;\nqubit[2] q;\nh r[0];\n"
        with pytest.raises(QasmParseError) as err:
            parse_qasm3(text)
        assert err.value.line == 3

    def test_bad_rz_angle(self):
        text = "OPENQASM 3.0;\nqubit[2] q;\nrz(pi/2) q[0];\n"
        with pytest.raises(QasmParseError) as err:
            parse_qasm3(text)
        assert err.value.line == 3

    @pytest.mark.parametrize("line", [
        "h q[5];", "cx q[1], q[1];", "rz(nan) q[0];", "rz(inf) q[0];", "swap q[0], q[2];"])
    def test_bad_gate_reports_line(self, line):
        with pytest.raises(QasmParseError) as err:
            parse_qasm3(f"OPENQASM 3.0;\nqubit[2] q;\n{line}\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("width", [0, 25])
    def test_register_width_reports_line(self, width):
        with pytest.raises(QasmParseError) as err:
            parse_qasm3(f"OPENQASM 3.0;\nqubit[{width}] q;\n")
        assert err.value.line == 2

    def test_two_registers_rejected(self):
        text = "OPENQASM 3.0;\nqubit[2] q;\nqubit[2] r;\n"
        with pytest.raises(QasmParseError):
            parse_qasm3(text)

    def test_cnot_roundtrip_targets(self):
        parsed = parse_qasm3("OPENQASM 3.0;\nqubit[3] q;\ncx q[2], q[0];\n")
        assert parsed.instructions == (cnot(2, 0),)
