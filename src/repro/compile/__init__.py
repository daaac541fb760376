"""Grid-vectorizing kernel compiler.

Lowers a DSL kernel's AST into one whole-grid NumPy program: thread
loops become array axes ``(block, tz, ty, tx)``, ``__syncthreads()``
becomes a compile-time program-point split, divergent branches become
masked stores, and shared-memory tiles become per-block staging
arrays.  The :class:`~repro.cuda.executors.CompiledExecutor` runs
these programs with bit-identical results to the sequential
interpreter, falling back per kernel when a construct is unsupported.
"""

from ..cuda.source import fingerprint as kernel_fingerprint
from .artifact import (ArtifactCache, COMPILER_VERSION,
                       active_artifact_cache, install_artifact_cache,
                       use_artifact_cache)
from .fuse import FusedGroup, FusionPlan, fuse_schedule
from .lower import CompileError, LoweredFunction, LoweringSession
from .module import CompiledModule, HostStep, ModuleSchedule
from .program import (CompiledProgram, clear_program_cache,
                      compile_kernel, compile_status, executable_for,
                      get_program, plan_context)
from .runtime import NP_SHIM, GridPrelude, GridRT, LaneCount, prelude_for

__all__ = [
    "ArtifactCache",
    "COMPILER_VERSION",
    "CompileError",
    "CompiledModule",
    "CompiledProgram",
    "FusedGroup",
    "FusionPlan",
    "GridPrelude",
    "GridRT",
    "HostStep",
    "LaneCount",
    "LoweredFunction",
    "LoweringSession",
    "ModuleSchedule",
    "NP_SHIM",
    "active_artifact_cache",
    "clear_program_cache",
    "compile_kernel",
    "compile_status",
    "executable_for",
    "fuse_schedule",
    "get_program",
    "install_artifact_cache",
    "kernel_fingerprint",
    "plan_context",
    "prelude_for",
    "use_artifact_cache",
]
