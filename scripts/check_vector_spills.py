#!/usr/bin/env python3
"""Fails when a SIMD kernel loop spills a vector register to the stack.

The GEMM tiles keep every accumulator in a ymm or zmm register; whether
GCC manages that depends on the code around a tile, not only on the tile, so
an unrelated edit can bring a spill back without any test failing. This
check reads the disassembly of the given object files and flags every
innermost loop that contains a multiply-add (vfmadd*, vpmadd*) and reads
or writes an xmm/ymm/zmm register at a stack address ((%rsp) or (%rbp)).

A loop is a backward branch and the instructions from its target to
itself; an innermost loop holds no other loop whole inside that range.
Outer loops and the scalar reference kernels keep general-purpose state
on the stack, which this rule leaves alone.

  scripts/check_vector_spills.py OBJ...   # exit 1 on a spill

x86-64 objects only (GNU objdump, AT&T syntax).
"""

import re
import subprocess
import sys

INSN = re.compile(r"^\s*([0-9a-f]+):\s+(\S+)\s*(.*)$")
FUNC = re.compile(r"^[0-9a-f]+ <(.+)>:$")
BRANCH_TARGET = re.compile(r"^([0-9a-f]+) <")
VECTOR_REG = re.compile(r"%[xyz]mm\d+")
STACK_MEM = re.compile(r"\(%r[sb]p[,)]")
MULTIPLY_ADD = re.compile(r"^(vfmadd|vpmadd)")


def sections(disasm):
    """Yields the instructions of each disassembled section.

    Each instruction is (address, mnemonic, operands, function). Branch
    targets are section offsets, so a loop never spans two sections.
    """
    insns, func = [], None
    for line in disasm.splitlines():
        if line.startswith("Disassembly of section"):
            if insns:
                yield insns
            insns = []
            continue
        m = FUNC.match(line)
        if m:
            func = m.group(1)
            continue
        m = INSN.match(line)
        if m:
            insns.append((int(m.group(1), 16), m.group(2), m.group(3), func))
    if insns:
        yield insns


def innermost_loops(insns):
    """Returns the instruction lists of the innermost loops."""
    backward = []  # (target, branch) address pairs
    for addr, mnem, ops, _ in insns:
        if not mnem.startswith("j"):
            continue
        m = BRANCH_TARGET.match(ops)
        if m and int(m.group(1), 16) <= addr:
            backward.append((int(m.group(1), 16), addr))
    loops = []
    for lo, hi in backward:
        if any(lo <= t and b < hi for t, b in backward):
            continue  # another loop inside: not innermost
        loops.append([i for i in insns if lo <= i[0] <= hi])
    return loops


def main(paths):
    failed = False
    for path in paths:
        disasm = subprocess.run(
            ["objdump", "-d", "--no-show-raw-insn", "-C", path],
            check=True, capture_output=True, text=True).stdout
        checked = 0
        for insns in sections(disasm):
            for loop in innermost_loops(insns):
                if not any(MULTIPLY_ADD.match(m) for _, m, _, _ in loop):
                    continue
                checked += 1
                spills = [i for i in loop
                          if VECTOR_REG.search(i[2]) and STACK_MEM.search(i[2])]
                for addr, mnem, ops, func in spills:
                    failed = True
                    print(f"{path}: {func}: {addr:x}: {mnem} {ops}")
        print(f"{path}: {checked} multiply-add loops checked")
        if checked == 0:
            failed = True
            print(f"{path}: no multiply-add loop found; is it a SIMD object?")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
