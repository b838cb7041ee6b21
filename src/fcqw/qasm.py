"""OpenQASM 3 emission and a minimal reader for the emitted subset.

The emitter writes UTF-8 text with LF line endings, one instruction per
line, using stdgates names (h, rz, cx, swap).  The y-basis Hadamard is
not a stdgates gate; when present it is emitted once as a named gate
whose body is the three-gate decomposition rz(-pi/2), h, rz(pi/2), so a
re-parse recovers the original instruction sequence exactly.
"""
from __future__ import annotations

import math
import re

from .circuits import Circuit
from .statevec import MAX_QUBITS, GateInstruction, cnot, h, hy, rz, swap

_HY_BLOCK = [
    "// hy maps the z basis to the y basis (hy Z hy = Y, hy hy = I);",
    "// decomposition: hy = rz(pi/2) h rz(-pi/2).",
    "gate hy a {",
    "  rz(-pi/2) a;",
    "  h a;",
    "  rz(pi/2) a;",
    "}",
]


class QasmParseError(ValueError):
    """Unsupported or malformed construct, with the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def emit_qasm3(circuit: Circuit) -> str:
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";']
    if any(g.kind == "hy" for g in circuit.instructions):
        lines += _HY_BLOCK
    lines.append(f"qubit[{circuit.num_qubits}] q;")
    for g in circuit.instructions:
        if g.kind == "h":
            lines.append(f"h q[{g.targets[0]}];")
        elif g.kind == "hy":
            lines.append(f"hy q[{g.targets[0]}];")
        elif g.kind == "rz":
            lines.append(f"rz({g.theta!r}) q[{g.targets[0]}];")
        elif g.kind == "cnot":
            lines.append(f"cx q[{g.targets[0]}], q[{g.targets[1]}];")
        else:
            lines.append(f"swap q[{g.targets[0]}], q[{g.targets[1]}];")
    return "\n".join(lines) + "\n"


_RE_QUBIT = re.compile(r"^qubit\[(\d+)\]\s+(\w+);$")
_RE_1Q = re.compile(r"^(h|hy)\s+(\w+)\[(\d+)\];$")
_RE_RZ = re.compile(r"^rz\(([^)]+)\)\s+(\w+)\[(\d+)\];$")
_RE_2Q = re.compile(r"^(cx|swap)\s+(\w+)\[(\d+)\]\s*,\s*(\w+)\[(\d+)\];$")


def parse_qasm3(text: str) -> Circuit:
    """Parse text produced by :func:`emit_qasm3` back into a Circuit.

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
    return Circuit(num_qubits, tuple(gates), label="parsed")


def _make(line_no: int, build, *args) -> GateInstruction:
    try:
        return build(*args)
    except ValueError as exc:
        raise QasmParseError(line_no, str(exc)) from None


def _check_register(line_no: int, name: str, declared: str | None) -> None:
    if name != declared:
        raise QasmParseError(line_no, f"unknown register {name!r}")
