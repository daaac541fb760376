"""The abstract interpreter on constructs no app kernel uses.

One synthetic kernel exercises what
:class:`~repro.analysis.interp.KernelInterp` handles but no shipped
kernel reaches (a dict display, a slice, a list comprehension, ``not``
on a lane value, a chained comparison, a starred call, ``while`` with
``break``/``continue``, a loop ``else``, a nested ``def``) and what it
refuses (``try``, ``lambda``, a set display).  The recorder's event
counts by kind, its memory events, notes and hazards are pinned for two
sample blocks, so a change to the interpreter's dispatch leaves them as
they are.  Smaller kernels pin ``not`` on an identity lane vector (the
statement is skipped with a note), ``while … else``, ``continue`` in a
data-dependent ``while`` and a division by zero.  Lines are relative to
the kernel's ``co_firstlineno``.
"""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np
import pytest

from repro.analysis import LintTarget, garr
from repro.analysis.interp import HazardEvent, MemEvent, interpret
from repro.cuda import Device, kernel, launch


@kernel("interp_constructs", regs_per_thread=8)
def interp_constructs(ctx, x, y, n):
    i = ctx.global_tid()
    lane = ctx.iadd(ctx.tx, 0)
    base = int(ctx.bx) * ctx.blockDim.x
    offsets = {"lo": 0, "hi": ctx.blockDim.x}
    window = [0, 1, 2, 3, 4][1:4]
    picks = [k * 2 for k in window if k != 2]
    low = not (lane >= 16)
    data = ctx.ld_global(x, i)
    unknown = not (data > 0)
    with ctx.masked(0 <= lane < 24):
        ctx.st_global(y, *(i, data))
    with ctx.masked(low):
        ctx.st_global(y, base + ctx.tx + offsets["lo"], data)
    with ctx.masked(unknown):
        ctx.st_global(y, i + offsets["hi"] * 0, data)
    k = 0
    while k < 6:
        k += 1
        if k == 2:
            continue
        if k == 5:
            break
        ctx.st_global(y, i, ctx.ld_global(x, i + picks[0] * 0))
    for _ in range(2):
        ctx.sync()
    else:
        ctx.st_global(y, i, data)

    def scaled(a, b=2):
        return a * b

    ctx.st_global(y, scaled(i, 1), data)
    try:
        ctx.st_global(y, i, data)
    except IndexError:
        pass
    ctx.st_global(y, i, (lambda v: v)(data))
    len({1, 2})
    ctx.st_global(y, i, ctx.fadd(data, np.float32(1.0)))


#: event kinds, memory events (op, array, line, active lanes, mask
#: exactly known), notes and hazards, the same for both sample blocks
EXPECTED = (
    {"MemEvent": 13, "SyncEvent": 2, "HazardEvent": 1},
    [("ld", "x", 9, 32, True), ("st", "y", 12, 24, True),
     ("st", "y", 14, 16, True), ("st", "y", 16, 32, False)]
    + [("ld", "x", 24, 32, True), ("st", "y", 24, 32, True)] * 3
    + [("st", "y", 28, 32, True), ("st", "y", 31, 32, True),
       ("st", "y", 40, 32, True)],
    [(34, "skipped Try: unsupported statement Try"),
     (38, "skipped Expr: unsupported expression Lambda"),
     (39, "skipped Expr: unsupported expression Set")],
    [("scalar-coerce", 4, "int() on a scalar derived from block-varying "
      "state (breaks compiled execution)")],
)


def _observed(coord):
    target = LintTarget(interp_constructs, (2,), (32,),
                        (garr("x", 64), garr("y", 64), 64))
    recorder, _ctx = interpret(target, coord)
    first = interp_constructs.fn.__code__.co_firstlineno
    kinds = Counter(type(ev).__name__ for ev in recorder.events)
    mem = [(ev.op, ev.array, ev.line - first, int(ev.mask.sum()),
            ev.mask_exact)
           for ev in recorder.events if isinstance(ev, MemEvent)]
    notes = [(line - first, message) for line, message in recorder.notes]
    hazards = [(ev.kind, ev.line - first, ev.detail)
               for ev in recorder.events if isinstance(ev, HazardEvent)]
    return dict(kinds), mem, notes, hazards


@pytest.mark.parametrize("coord", [(0, 0, 0), (1, 0, 0)])
def test_constructs_no_app_kernel_uses(coord):
    assert _observed(coord) == EXPECTED


def test_no_operand_is_broadcast_to_its_own_shape(monkeypatch):
    """An operand that already has the lane shape is used as it is
    (:func:`repro.analysis.symbolic.lanes`); ``np.broadcast_to`` runs
    only where the shape changes."""
    from repro.analysis import analyze_target
    from repro.apps.registry import get_app

    target = next(t for t in get_app("matmul").lint_targets()
                  if t.note == "tiled")
    real = np.broadcast_to
    calls = Counter()

    def counting(array, shape, *args, **kwargs):
        shape = tuple(shape) if isinstance(shape, (tuple, list)) \
            else (shape,)
        calls["same" if np.shape(array) == shape else "other"] += 1
        return real(array, shape, *args, **kwargs)

    monkeypatch.setattr(np, "broadcast_to", counting)
    analyze_target(target, app="matmul")
    assert calls["same"] == 0, calls


@kernel("not_identity_lanes", regs_per_thread=4)
def not_identity_lanes(ctx, x, y, n):
    i = ctx.global_tid()
    with ctx.masked(not (ctx.tx < 16)):
        ctx.st_global(y, i, ctx.ld_global(x, i))
    ctx.st_global(y, i, ctx.ld_global(x, i))


def _lint_block(kern, n=64):
    target = LintTarget(kern, (1,), (32,), (garr("x", 64), garr("y", 64), n))
    recorder, _ctx = interpret(target, (0, 0, 0))
    first = kern.fn.__code__.co_firstlineno
    mem = [(ev.op, ev.line - first) for ev in recorder.events
           if isinstance(ev, MemEvent)]
    notes = [(line - first, message) for line, message in recorder.notes]
    return mem, notes


def test_not_on_an_identity_lane_vector_is_skipped_with_a_note():
    """``ctx.tx`` is a plain lane vector, so ``not`` on a comparison of
    it raises NumPy's ValueError when the kernel runs; lint skips the
    statement with a note and goes on."""
    dev = Device()
    x = dev.to_device(np.zeros(64, np.float32), "x")
    y = dev.alloc(64, np.float32, "y")
    with pytest.raises(ValueError, match="truth value"):
        launch(not_identity_lanes, (1,), (32,), (x, y, 64), device=dev)
    mem, notes = _lint_block(not_identity_lanes)
    assert mem == [("ld", 5), ("st", 5)]
    (line, message), = notes
    assert line == 3
    assert message.startswith("skipped With: operator failed: The truth "
                              "value of an array")


@kernel("while_else_store", regs_per_thread=4)
def while_else_store(ctx, x, y, n):
    i = ctx.global_tid()
    k = 0
    while k < n:
        k += 1
        if k == 3:
            break
    else:
        ctx.st_global(y, i, ctx.ld_global(x, i))


@pytest.mark.parametrize("n, mem", [(2, [("ld", 9), ("st", 9)]),
                                    (4, [])],
                         ids=["ends", "breaks"])
def test_while_else_runs_unless_the_loop_breaks(n, mem):
    """As in Python: the ``else`` of a ``while`` runs after the loop
    ends on its condition, and not after a ``break``."""
    assert _lint_block(while_else_store, n) == (mem, [])


@kernel("unknown_while_continue", regs_per_thread=4)
def unknown_while_continue(ctx, x, y, n):
    i = ctx.global_tid()
    v = ctx.ld_global(x, i)
    k = 0
    while ctx.any_active(v > k):
        ctx.st_global(y, i, v)
        k += 1
        if n > 0:
            continue
        k += 1


@pytest.mark.parametrize("n", [1, 0], ids=["continues", "falls-through"])
def test_continue_moves_a_data_dependent_while_on(n):
    """A ``continue`` ends one analyzed iteration of a data-dependent
    ``while``, not the loop: both iterations store, as they do when
    the body falls through to its end."""
    assert _lint_block(unknown_while_continue, n) == (
        [("ld", 3), ("st", 6), ("st", 6)],
        [(5, "data-dependent while loop: analyzed 2 iterations")])


@kernel("zero_divisor", regs_per_thread=4)
def zero_divisor(ctx, x, y, n):
    i = ctx.global_tid()
    lane = ctx.iadd(ctx.tx, 0)
    ctx.st_global(y, i, ctx.ld_global(x, lane // (n - n) + ctx.tx // (n - n)))


def test_division_by_zero_lints_without_a_warning():
    """A sample block runs under one NumPy error state, as an executed
    block does, so dividing a lane value (``SymVal``) or an identity
    lane vector (ndarray) by zero warns in neither."""
    target = LintTarget(zero_divisor, (1,), (32,),
                        (garr("x", 64), garr("y", 64), 64))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        recorder, _ctx = interpret(target, (0, 0, 0))
    assert [str(w.message) for w in caught] == []
    assert [ev.op for ev in recorder.events
            if isinstance(ev, MemEvent)] == ["ld", "st"]
