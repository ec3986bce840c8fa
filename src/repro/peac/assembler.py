"""PEAC assembler: text <-> instruction objects, Figure 12 syntax.

``format_routine`` renders a :class:`~repro.peac.isa.Routine` in the
paper's concrete syntax; ``parse_routine`` reads it back.  Round-tripping
is exact (tests rely on it).
"""

from __future__ import annotations

import re

from .isa import (
    OPCODES,
    CReg,
    Imm,
    Instr,
    LabelRef,
    Mem,
    Operand,
    PeacError,
    PReg,
    Routine,
    SReg,
    VReg,
)

_MEM_RE = re.compile(r"^\[aP(\d+)\+(-?\d+)\](-?\d+)\+\+$")
_REG_RE = re.compile(r"^a([VSP])(\d+)$")
_CREG_RE = re.compile(r"^ac(\d+)$")
_IMM_RE = re.compile(r"^#(-?[\d.eE+-]+)$")


def format_instr(instr: Instr) -> str:
    return str(instr)


def format_routine(routine: Routine) -> str:
    """Render a routine exactly as in Figure 12."""
    lines = [routine.label]
    for instr in routine.body:
        lines.append("    " + format_instr(instr))
    lines.append(f"    jnz ac2 {routine.label}")
    return "\n".join(lines)


def parse_operand(text: str) -> Operand:
    text = text.strip()
    m = _MEM_RE.match(text)
    if m:
        return Mem(PReg(int(m.group(1))), int(m.group(2)), int(m.group(3)))
    m = _REG_RE.match(text)
    if m:
        cls = {"V": VReg, "S": SReg, "P": PReg}[m.group(1)]
        return cls(int(m.group(2)))
    m = _CREG_RE.match(text)
    if m:
        return CReg(int(m.group(1)))
    m = _IMM_RE.match(text)
    if m:
        return Imm(float(m.group(1)))
    if re.match(r"^[A-Za-z_][\w]*_?$", text):
        return LabelRef(text)
    raise PeacError(f"cannot parse operand {text!r}")


def parse_instr(text: str) -> Instr:
    """Parse one instruction line, handling dual-issue commas."""
    text = text.split(";")[0].strip()
    if "," in text:
        main_text, paired_text = text.split(",", 1)
        main = parse_instr(main_text)
        paired = parse_instr(paired_text)
        return Instr(main.op, main.operands, paired=paired)
    parts = text.split()
    if not parts:
        raise PeacError("empty instruction")
    op = parts[0]
    if op not in OPCODES:
        raise PeacError(f"unknown opcode {op!r}")
    operands = tuple(parse_operand(p) for p in parts[1:])
    return Instr(op, operands)


def parse_routine(text: str) -> Routine:
    """Parse a routine in Figure 12 syntax (label, body, jnz back edge)."""
    lines = [ln for ln in (raw.split(";")[0].rstrip()
                           for raw in text.splitlines()) if ln.strip()]
    if not lines:
        raise PeacError("empty routine text")
    label = lines[0].strip()
    if not label.endswith("_"):
        raise PeacError(f"expected a routine label, got {label!r}")
    name = label[:-1]
    body: list[Instr] = []
    for ln in lines[1:]:
        stripped = ln.strip()
        if stripped.startswith("jnz"):
            instr = parse_instr(stripped)
            target = instr.operands[1]
            if not (isinstance(target, LabelRef) and target.name == label):
                raise PeacError("jnz target does not match routine label")
            break
        body.append(parse_instr(stripped))
    return Routine(name=name, body=body)
