"""The abstract interpreter on constructs no app kernel uses.

One synthetic kernel exercises what
:class:`~repro.analysis.interp.KernelInterp` handles but no shipped
kernel reaches (a dict display, a slice, a list comprehension, ``not``
on a lane value, a chained comparison, a starred call, ``while`` with
``break``/``continue``, a loop ``else``, a nested ``def``) and what it
refuses (``try``, ``lambda``, a set display).  The recorder's event
counts by kind, its memory events, notes and hazards are pinned for two
sample blocks, so a change to the interpreter's dispatch leaves them as
they are.  Lines are relative to the kernel's ``co_firstlineno``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.analysis import LintTarget, garr
from repro.analysis.interp import HazardEvent, MemEvent, interpret
from repro.cuda import kernel


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
