"""Compiled-program construction and caching.

A :class:`CompiledProgram` is the AOT artifact for one kernel: a
single Python function ``entry(__rt, *args)`` over a
:class:`~repro.compile.runtime.GridRT` that executes every lane of a
block range in one shot.  Programs (and compile *failures*) are cached
by content (:func:`repro.cuda.source.fingerprint`), so the fresh
closures a kernel factory returns on every run share one program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..cuda.launch import Kernel
from ..cuda.source import fingerprint
from .lower import CompileError, LoweringSession
from .runtime import NP_SHIM, GridPrelude, prelude_for

__all__ = ["CompiledProgram", "compile_kernel", "get_program",
           "compile_status", "executable_for", "clear_program_cache",
           "plan_context"]


@dataclass(frozen=True)
class CompiledProgram:
    """AOT artifact for one kernel."""

    kernel_name: str
    entry: object          # callable(__rt, *launch_args)
    source: str            # unparsed lowered kernel (debug aid)
    sync_points: int       # barriers deleted during lowering
    lowered_ops: int       # ctx.* call sites rewritten to __rt.*
    helpers: int           # transitively lowered helper functions


#: content fingerprint -> CompiledProgram | CompileError
_PROGRAMS: Dict[str, Union[CompiledProgram, CompileError]] = {}

#: programs kept before the cache starts over
_MAX_PROGRAMS = 256


def compile_kernel(kernel: Kernel) -> CompiledProgram:
    """Lower ``kernel`` to a whole-grid program (uncached); raises
    :class:`CompileError` for constructs outside the supported set."""
    session = LoweringSession(NP_SHIM)
    lowered = session.lower_function(kernel.fn, ctx_positions=(0,))
    return CompiledProgram(
        kernel_name=kernel.name,
        entry=lowered.callable,
        source=lowered.source,
        sync_points=session.sync_points,
        lowered_ops=session.lowered_ops,
        helpers=session.helper_count)


def get_program(kernel: Kernel,
                context: Optional[Tuple[str, Tuple]] = None
                ) -> CompiledProgram:
    """Cached :func:`compile_kernel`; failures are cached too, by the
    kernel's content fingerprint (a kernel without one is compiled on
    every call).

    Kernels declared ``batchable=False`` are refused before the cache:
    whole-grid execution runs every block's lanes at once, so the
    batchable contract is the correctness gate for compilation, and it
    is not part of the content key.

    ``context`` is an optional ``(device name, arg signature)`` pair
    from a concrete launch plan.  When an artifact cache is active
    (:func:`repro.compile.artifact.active_artifact_cache`), a memory
    miss with context first tries the on-disk artifact keyed by
    ``(kernel name, device, signature, compiler version)`` — the
    cold-process path that skips lowering entirely — and a fresh
    compile is written back for the next process.
    """
    if not kernel.batchable:
        raise CompileError(
            f"kernel {kernel.name!r} is declared batchable=False "
            f"(order-sensitive); whole-grid lowering would reorder "
            f"its effects")
    key = fingerprint(kernel)
    cached = _PROGRAMS.get(key) if key is not None else None
    if cached is None:
        from .artifact import active_artifact_cache
        disk = active_artifact_cache() if key is not None else None
        if disk is not None and context is not None:
            cached = disk.load(kernel, *context)
        if cached is None:
            try:
                cached = compile_kernel(kernel)
                if disk is not None and context is not None:
                    disk.store(kernel, cached, *context)
            except CompileError as exc:
                cached = exc
        if key is not None:
            if len(_PROGRAMS) >= _MAX_PROGRAMS:
                _PROGRAMS.clear()
            _PROGRAMS[key] = cached
    if isinstance(cached, CompileError):
        raise cached
    return cached


def compile_status(kernel: Kernel,
                   context: Optional[Tuple[str, Tuple]] = None
                   ) -> Tuple[bool, str]:
    """Non-raising probe: ``(ok, reason)``; reason empty on success."""
    try:
        get_program(kernel, context)
    except CompileError as exc:
        return False, str(exc)
    return True, ""


def executable_for(plan) -> Tuple[CompiledProgram, GridPrelude]:
    """Program plus the (cached) grid prelude for one launch plan."""
    return (get_program(plan.kernel, plan_context(plan)),
            prelude_for(plan.grid, plan.block))


def plan_context(plan) -> Tuple[str, Tuple]:
    """The artifact-cache context of one launch plan."""
    return (plan.spec.name, plan.arg_signature())


def clear_program_cache() -> None:
    """Drop every cached program and failure (tests use this)."""
    _PROGRAMS.clear()
