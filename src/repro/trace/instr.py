"""Instruction taxonomy for kernel traces.

The paper reasons about performance from PTX instruction mixes ("one
fused multiply-add out of eight operations in the inner loop", "16 out
of 59 instructions").  Our kernel DSL emits instructions in the classes
below; the bounds model (:mod:`repro.sim.bounds`) and the analytical
timing model (:mod:`repro.sim.timing`) consume the per-class counts.
"""

from __future__ import annotations

import enum


class InstrClass(enum.Enum):
    """Dynamic instruction classes recognized by the timing models."""

    # hash by identity, in C (Enum's name hash is a Python call on every
    # trace counter update); members are singletons compared by
    # identity, so it agrees with equality.  A set of members then
    # iterates in a different order from run to run: code whose result
    # depends on order iterates InstrClass itself
    __hash__ = object.__hash__

    FMA = "fma"            # fused multiply-add (2 flops)
    FADD = "fadd"          # floating add/sub (1 flop)
    FMUL = "fmul"          # floating multiply (1 flop)
    FDIV = "fdiv"          # floating divide (multi-cycle, SFU-assisted)
    FCMP = "fcmp"          # floating compare / min / max
    IALU = "ialu"          # integer add/sub/logic/shift, address arithmetic
    IMUL = "imul"          # integer multiply (4 ops/clock on G80 -> slower)
    SETP = "setp"          # predicate-setting compare
    BRANCH = "branch"      # conditional/unconditional branch
    SFU = "sfu"            # transcendental: sin, cos, rsqrt, exp, log
    CVT = "cvt"            # type conversion / move
    LD_GLOBAL = "ld.global"
    ST_GLOBAL = "st.global"
    LD_SHARED = "ld.shared"
    ST_SHARED = "st.shared"
    LD_CONST = "ld.const"
    LD_TEX = "ld.tex"
    LD_LOCAL = "ld.local"
    ST_LOCAL = "st.local"
    SYNC = "sync"          # __syncthreads barrier
    ATOM_GLOBAL = "atom.global"
    MISC = "misc"


#: Floating-point operations contributed by one *thread* executing one
#: instruction of each class (used for GFLOPS accounting).
FLOPS_PER_THREAD = {
    InstrClass.FMA: 2,
    InstrClass.FADD: 1,
    InstrClass.FMUL: 1,
    InstrClass.FDIV: 1,
    InstrClass.FCMP: 0,
    InstrClass.SFU: 1,
}

#: Instruction classes that touch the global-memory system.
GLOBAL_MEMORY_CLASSES = frozenset({
    InstrClass.LD_GLOBAL,
    InstrClass.ST_GLOBAL,
    InstrClass.LD_LOCAL,
    InstrClass.ST_LOCAL,
    InstrClass.ATOM_GLOBAL,
})

#: Read-only cached paths (constant and texture) — they only reach DRAM
#: on a cache miss, which the memory model accounts separately.
CACHED_MEMORY_CLASSES = frozenset({InstrClass.LD_CONST, InstrClass.LD_TEX})

#: Classes executed on the SFU pipe rather than the SP pipe.
SFU_CLASSES = frozenset({InstrClass.SFU, InstrClass.FDIV})

#: Shared-memory classes, subject to bank-conflict serialization.
SHARED_MEMORY_CLASSES = frozenset({InstrClass.LD_SHARED, InstrClass.ST_SHARED})


def flops_of(cls: InstrClass) -> int:
    """Flops contributed per thread by one instruction of class ``cls``."""
    return FLOPS_PER_THREAD.get(cls, 0)


def is_global_memory(cls: InstrClass) -> bool:
    return cls in GLOBAL_MEMORY_CLASSES


def is_sfu(cls: InstrClass) -> bool:
    return cls in SFU_CLASSES
