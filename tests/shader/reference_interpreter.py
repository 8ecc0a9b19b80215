"""Reference warp executor: the decode-every-instruction oracle.

:class:`ReferenceInterpreter` runs a program the plain way — operand
isinstance checks, opcode table probes and a fresh ``np.errstate`` per
instruction — with the same SIMT reconvergence stack semantics as the
compiled dispatch tables in :mod:`repro.shader.dispatch`.  It exists only
as the equivalence oracle for ``tests/shader/test_dispatch.py``: any
trace, mask, register or env side effect the compiled path produces must
match this loop exactly.
"""

from typing import Optional

import numpy as np

from repro.shader.interpreter import (
    ExecResult,
    TraceOp,
    WarpInterpreter,
    WarpTrace,
    _ALU_BINARY,
    _ALU_UNARY,
    _SETP,
    _StackEntry,
)
from repro.shader.isa import Imm, Instruction, Opcode, Pred, Reg


class ReferenceInterpreter(WarpInterpreter):
    """:class:`WarpInterpreter` with the reference decode loop as ``run``."""

    def run(self, initial_mask: Optional[np.ndarray] = None) -> ExecResult:
        width = self.warp_size
        program = self.program
        instructions = program.instructions
        exit_pc = len(instructions)

        regs = np.zeros((max(program.num_regs, 1), width))
        preds = np.zeros((max(program.num_preds, 1), width), dtype=bool)
        if initial_mask is None:
            initial_mask = np.ones(width, dtype=bool)
        else:
            initial_mask = np.asarray(initial_mask, dtype=bool).copy()

        discarded = np.zeros(width, dtype=bool)
        completed = np.zeros(width, dtype=bool)
        stack = [_StackEntry(0, exit_pc, initial_mask.copy())]
        trace = WarpTrace()

        def read(operand, mask):
            if isinstance(operand, Reg):
                return regs[operand.index]
            if isinstance(operand, Imm):
                return np.full(width, operand.value)
            if isinstance(operand, Pred):
                return preds[operand.index]
            raise TypeError(f"cannot read operand {operand!r}")

        def write_reg(operand, values, mask):
            regs[operand.index][mask] = np.asarray(values)[mask]

        def kill_lanes(mask):
            for entry in stack:
                entry.mask &= ~mask

        while stack:
            if trace.dynamic_instructions > self.max_dynamic_instructions:
                raise RuntimeError(
                    f"{program.name}: exceeded {self.max_dynamic_instructions} "
                    "dynamic instructions (diverging loop?)"
                )
            entry = stack[-1]
            if entry.pc == entry.rpc or entry.pc >= exit_pc or not entry.mask.any():
                stack.pop()
                continue
            instr = instructions[entry.pc]
            active = entry.mask
            if instr.guard is not None and instr.op is not Opcode.BRA:
                guard_values = preds[instr.guard.index]
                if not instr.guard_sense:
                    guard_values = ~guard_values
                effective = active & guard_values
            else:
                effective = active

            record = TraceOp(instr.op, entry.pc, int(effective.sum()))
            trace.ops.append(record)

            op = instr.op
            if op is Opcode.BRA:
                self._branch(instr, entry, stack, preds, active)
                continue

            if op is Opcode.EXIT:
                completed |= active
                entry.pc += 1
                kill_lanes(active.copy())
                continue

            if op is Opcode.DISCARD:
                discarded |= effective
                entry.pc += 1
                kill_lanes(effective.copy())
                continue

            if effective.any():
                self._execute(instr, regs, preds, effective, read, write_reg,
                              record)
            entry.pc += 1

        return ExecResult(trace=trace, discarded=discarded, completed=completed)

    def _branch(self, instr: Instruction, entry: _StackEntry,
                stack: list[_StackEntry], preds: np.ndarray,
                active: np.ndarray) -> None:
        if instr.guard is None:
            entry.pc = instr.target
            return
        cond = preds[instr.guard.index]
        if not instr.guard_sense:
            cond = ~cond
        taken = active & cond
        fall = active & ~cond
        if not taken.any():
            entry.pc += 1
        elif not fall.any():
            entry.pc = instr.target
        else:
            reconv = instr.reconv
            if reconv is None:
                raise RuntimeError(f"divergent branch without reconvergence: {instr}")
            fall_pc = entry.pc + 1
            entry.pc = reconv           # current entry becomes the join point
            stack.append(_StackEntry(fall_pc, reconv, fall))
            stack.append(_StackEntry(instr.target, reconv, taken))

    def _execute(self, instr, regs, preds, mask, read, write_reg, record):
        op = instr.op
        env = self.env
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if op in _ALU_BINARY:
                a = read(instr.srcs[0], mask)
                b = read(instr.srcs[1], mask)
                write_reg(instr.dsts[0], _ALU_BINARY[op](a, b), mask)
            elif op in _ALU_UNARY:
                a = read(instr.srcs[0], mask)
                write_reg(instr.dsts[0], _ALU_UNARY[op](a), mask)
            elif op is Opcode.MAD:
                a = read(instr.srcs[0], mask)
                b = read(instr.srcs[1], mask)
                c = read(instr.srcs[2], mask)
                write_reg(instr.dsts[0], a * b + c, mask)
            elif op in _SETP:
                a = read(instr.srcs[0], mask)
                b = read(instr.srcs[1], mask)
                preds[instr.dsts[0].index][mask] = _SETP[op](a, b)[mask]
            elif op is Opcode.SEL:
                p = preds[instr.srcs[0].index]
                a = read(instr.srcs[1], mask)
                b = read(instr.srcs[2], mask)
                write_reg(instr.dsts[0], np.where(p, a, b), mask)
            elif op is Opcode.PAND:
                result = preds[instr.srcs[0].index] & preds[instr.srcs[1].index]
                preds[instr.dsts[0].index][mask] = result[mask]
            elif op is Opcode.POR:
                result = preds[instr.srcs[0].index] | preds[instr.srcs[1].index]
                preds[instr.dsts[0].index][mask] = result[mask]
            elif op is Opcode.PNOT:
                preds[instr.dsts[0].index][mask] = ~preds[instr.srcs[0].index][mask]
            elif op is Opcode.LD_ATTR:
                values, accesses = env.attribute(instr.slot, mask)
                write_reg(instr.dsts[0], values, mask)
                record.accesses.extend(accesses)
            elif op is Opcode.LD_VARY:
                write_reg(instr.dsts[0], env.varying(instr.slot, mask), mask)
            elif op is Opcode.LD_CONST:
                value, accesses = env.constant(instr.slot, mask)
                write_reg(instr.dsts[0], np.full(self.warp_size, value), mask)
                record.accesses.extend(accesses)
            elif op is Opcode.ST_OUT:
                env.store_output(instr.slot, read(instr.srcs[0], mask), mask)
            elif op is Opcode.TEX:
                u = read(instr.srcs[0], mask)
                v = read(instr.srcs[1], mask)
                rgba, accesses = env.tex(instr.slot, u, v, mask)
                for i, dst in enumerate(instr.dsts):
                    write_reg(dst, rgba[:, i], mask)
                record.accesses.extend(accesses)
            elif op is Opcode.ZREAD:
                values, accesses = env.zread(mask)
                write_reg(instr.dsts[0], values, mask)
                record.accesses.extend(accesses)
            elif op is Opcode.ZWRITE:
                record.accesses.extend(env.zwrite(read(instr.srcs[0], mask), mask))
            elif op is Opcode.SREAD:
                values, accesses = env.sread(mask)
                write_reg(instr.dsts[0], values, mask)
                record.accesses.extend(accesses)
            elif op is Opcode.SWRITE:
                record.accesses.extend(env.swrite(read(instr.srcs[0], mask), mask))
            elif op is Opcode.FB_READ:
                rgba, accesses = env.fb_read(mask)
                for i, dst in enumerate(instr.dsts):
                    write_reg(dst, rgba[:, i], mask)
                record.accesses.extend(accesses)
            elif op is Opcode.FB_WRITE:
                rgba = np.stack([read(s, mask) for s in instr.srcs], axis=1)
                record.accesses.extend(env.fb_write(rgba, mask))
            elif op is Opcode.LD_GLOBAL:
                addresses = read(instr.srcs[0], mask)
                values, accesses = env.ld_global(addresses, mask)
                write_reg(instr.dsts[0], values, mask)
                record.accesses.extend(accesses)
            elif op is Opcode.ST_GLOBAL:
                addresses = read(instr.srcs[0], mask)
                values = read(instr.srcs[1], mask)
                record.accesses.extend(env.st_global(addresses, values, mask))
            else:  # pragma: no cover - opcode table is exhaustive
                raise NotImplementedError(f"unhandled opcode {op}")
