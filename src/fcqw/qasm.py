"""OpenQASM 3 emission.

The emitter writes UTF-8 text with LF line endings, one instruction per
line, using stdgates names (h, rz, cx, swap).  The y-basis Hadamard is
not a stdgates gate; when present it is emitted once as a named gate
whose body is the three-gate decomposition rz(-pi/2), h, rz(pi/2), so a
reader of the emitted subset (the tests' round-trip oracle) recovers the
original instruction sequence exactly.
"""
from __future__ import annotations

from .circuits import Circuit
from .statevec import GATES

_HY_BLOCK = [
    "// hy maps the z basis to the y basis (hy Z hy = Y, hy hy = I);",
    "// decomposition: hy = rz(pi/2) h rz(-pi/2).",
    "gate hy a {",
    "  rz(-pi/2) a;",
    "  h a;",
    "  rz(pi/2) a;",
    "}",
]


def emit_qasm3(circuit: Circuit) -> str:
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";']
    if any(g.kind == "hy" for g in circuit.instructions):
        lines += _HY_BLOCK
    lines.append(f"qubit[{circuit.num_qubits}] q;")
    for g in circuit.instructions:
        angle = "" if g.theta is None else f"({g.theta!r})"
        lines.append(f"{GATES[g.kind][0]}{angle} q[{'], q['.join(map(str, g.targets))}];")
    return "\n".join(lines) + "\n"
