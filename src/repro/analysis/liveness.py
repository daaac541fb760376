"""Def-use liveness over kernel ASTs: static registers-per-thread.

Section 4.2 of the paper turns on register pressure: 10 registers per
thread let three 256-thread matmul blocks share an SM (the full 768
thread contexts), one more register would drop that to two, and the
prefetching variant's 11 registers actually do.  This module estimates
a kernel's register demand the way that anecdote reasons: the peak
number of *per-thread* values simultaneously live at any program
point.

The analysis runs on the kernel's Python AST (the front end's parse,
:mod:`repro.cuda.source`) with the closure environment resolved (tile
size, ``unrolled``/``prefetch`` flags), so configuration branches are
pruned before liveness.  Values are classified by data flow:

* **varying** — derived from thread identity (``ctx.tx``,
  ``ctx.global_tid*``) or loaded data: needs a register per thread;
* **uniform** — derived only from kernel parameters and constants
  (``ntiles = n // tile``): kept in shared/constant storage or
  rematerialized by the compiler, no per-thread register;
* **induction** — a ``for`` target whose loop survives at the ISA
  level.  The DSL marks that explicitly: a loop body that calls
  ``ctx.loop_tail`` pays per-iteration bookkeeping, so its induction
  variable occupies a register; a fully unrolled loop (no
  ``loop_tail``) folds the index into immediates — exactly the
  Section 4.3 "frees the induction register" effect;
* **shared** — handles from ``ctx.shared_alloc``: compile-time base
  addresses, no register.

The estimate is a *lower bound* (compiler temporaries for address
arithmetic are not modeled), but it reproduces the ladder anecdotes
exactly: tiled 10, +unroll 9, +prefetch 11 registers — and therefore
the 3/3/2 blocks-per-SM occupancy the paper derives from them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from ..cuda.context import CTX_ATTRS, CTX_OPS
from ..cuda.source import closure_env, fingerprint, kernel_source
from .divergence import SEED_UNIFORMITY, Uniformity

#: ctx methods whose result is per-thread regardless of arguments:
#: thread identities, loads from every memory space, global atomics
VARYING_CALLS = frozenset(
    op for op, cat in CTX_OPS.items()
    if cat in ("identity", "global_atomic") or cat.endswith("_ld"))

#: ctx attributes that are per-thread lane vectors: the thread-varying
#: identity seeds (``mask`` is the active-lane predicate, not a value
#: a kernel keeps in a register)
VARYING_ATTRS = frozenset(
    name for name, u in SEED_UNIFORMITY.items()
    if u is Uniformity.VARYING and name in CTX_ATTRS and name != "mask")

#: np constructors that build per-thread accumulator arrays
ARRAY_CTORS = frozenset({"zeros", "ones", "empty", "full", "arange"})

#: fixpoint iteration cap for loop liveness/classification
_MAX_PASSES = 8


@dataclass(frozen=True)
class RegisterEstimate:
    """Static register-pressure estimate for one kernel."""

    kernel: str
    regs: int                       # peak simultaneously-live values
    peak_names: Tuple[str, ...]     # the values live at the peak
    classes: Dict[str, str] = field(default_factory=dict)
    fallback: bool = False          # AST analysis failed; regs is the
    #                                 kernel's declared count

    def to_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "regs": self.regs,
            "peak_names": list(self.peak_names),
            "fallback": self.fallback,
        }


def _const_eval(node: ast.AST, env: Dict[str, object]):
    """Evaluate a configuration expression against the closure env.
    Returns the value, or None when it involves runtime state."""
    try:
        expr = ast.Expression(body=node)
        code = compile(ast.fix_missing_locations(expr), "<cfg>", "eval")
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        if not names <= set(env):
            return None
        return eval(code, {"__builtins__": {}}, dict(env))  # noqa: S307
    except Exception:
        return None


def _uses(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _target_names(target: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for n in ast.walk(target):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            out.add(n.id)
    return out


def _has_loop_tail(body: List[ast.stmt], env: Dict[str, object]) -> bool:
    """Does this loop body (excluding nested loops, respecting
    configuration-branch pruning) call ``ctx.loop_tail``?  That is the
    DSL's marker for a loop that survives at the ISA level."""
    for stmt in body:
        if isinstance(stmt, (ast.For, ast.While)):
            continue
        if isinstance(stmt, ast.If):
            value = _const_eval(stmt.test, env)
            arms = [stmt.body, stmt.orelse] if value is None \
                else [stmt.body if value else stmt.orelse]
            if any(_has_loop_tail(arm, env) for arm in arms):
                return True
            continue
        if isinstance(stmt, ast.With):
            if _has_loop_tail(stmt.body, env):
                return True
            continue
        for n in ast.walk(stmt):
            if (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "loop_tail"):
                return True
    return False


class _Liveness:
    """Backward liveness with data-flow value classification."""

    def __init__(self, fdef: ast.FunctionDef,
                 env: Dict[str, object]) -> None:
        self.fdef = fdef
        self.env = env
        self.params = {a.arg for a in fdef.args.args}
        self.varying: Set[str] = set()
        self.shared: Set[str] = set()
        self.induction: Set[str] = set()     # materialized for targets
        self.peak = 0
        self.peak_names: Tuple[str, ...] = ()

    # -- branch pruning --------------------------------------------------
    def _arms(self, stmt: ast.If) -> List[List[ast.stmt]]:
        value = _const_eval(stmt.test, self.env)
        if value is None:
            return [stmt.body, stmt.orelse]
        return [stmt.body if value else stmt.orelse]

    # -- classification (forward, to fixpoint) ---------------------------
    def _expr_varying(self, node: ast.AST) -> bool:
        for n in ast.walk(node):
            if isinstance(n, ast.Attribute) and n.attr in VARYING_ATTRS \
                    and isinstance(n.value, ast.Name) \
                    and n.value.id == "ctx":
                return True
            if isinstance(n, ast.Call) and isinstance(n.func,
                                                      ast.Attribute):
                if n.func.attr in VARYING_CALLS:
                    return True
                if n.func.attr in ARRAY_CTORS \
                        and isinstance(n.func.value, ast.Name) \
                        and n.func.value.id == "np":
                    return True
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) \
                    and n.id in self.varying:
                return True
        return False

    def _classify_stmts(self, stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.Assign, ast.AugAssign,
                                 ast.AnnAssign)):
                value = getattr(stmt, "value", None)
                if value is None:
                    continue
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                names: Set[str] = set()
                for t in targets:
                    names |= _target_names(t)
                is_alloc = (isinstance(value, ast.Call)
                            and isinstance(value.func, ast.Attribute)
                            and value.func.attr == "shared_alloc")
                if is_alloc:
                    self.shared |= names
                elif self._expr_varying(value) \
                        or (isinstance(stmt, ast.AugAssign)
                            and names & self.varying):
                    self.varying |= names - self.shared
            elif isinstance(stmt, ast.If):
                for arm in self._arms(stmt):
                    self._classify_stmts(arm)
            elif isinstance(stmt, (ast.For, ast.While)):
                if isinstance(stmt, ast.For):
                    names = _target_names(stmt.target)
                    if _has_loop_tail(stmt.body, self.env):
                        self.induction |= names
                    if self._expr_varying(stmt.iter):
                        self.varying |= names
                self._classify_stmts(stmt.body)
                self._classify_stmts(stmt.orelse)
            elif isinstance(stmt, ast.With):
                self._classify_stmts(stmt.body)

    def classify(self) -> None:
        for _ in range(_MAX_PASSES):
            before = (len(self.varying), len(self.shared),
                      len(self.induction))
            self._classify_stmts(self.fdef.body)
            if (len(self.varying), len(self.shared),
                    len(self.induction)) == before:
                break

    # -- liveness (backward, loops to fixpoint) --------------------------
    def _counted(self, live: Set[str]) -> Set[str]:
        return {n for n in live
                if n in self.varying or n in self.induction}

    def _note(self, live: Set[str]) -> None:
        counted = self._counted(live)
        if len(counted) > self.peak:
            self.peak = len(counted)
            self.peak_names = tuple(sorted(counted))

    def _stmts(self, stmts: List[ast.stmt],
               live: Set[str]) -> Set[str]:
        for stmt in reversed(stmts):
            live = self._stmt(stmt, live)
        return live

    def _stmt(self, stmt: ast.stmt, live: Set[str]) -> Set[str]:
        if isinstance(stmt, ast.Assign):
            defs: Set[str] = set()
            uses: Set[str] = _uses(stmt.value)
            for t in stmt.targets:
                if isinstance(t, (ast.Name, ast.Tuple, ast.List)):
                    defs |= _target_names(t)
                else:           # subscript/attribute store: pure use
                    uses |= _uses(t)
            live = (live - defs) | uses
        elif isinstance(stmt, ast.AugAssign):
            live = live | _uses(stmt.value) | _target_names(stmt.target) \
                | _uses(stmt.target)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                live = (live - _target_names(stmt.target)) \
                    | _uses(stmt.value)
        elif isinstance(stmt, ast.Expr):
            live = live | _uses(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                live = live | _uses(stmt.value)
        elif isinstance(stmt, ast.If):
            arms = self._arms(stmt)
            merged: Set[str] = set()
            for arm in arms:
                merged |= self._stmts(arm, set(live))
            live = merged
            if len(arms) > 1:
                live = live | _uses(stmt.test)
        elif isinstance(stmt, (ast.For, ast.While)):
            live = self._loop(stmt, live)
        elif isinstance(stmt, ast.With):
            cond_uses: Set[str] = set()
            for item in stmt.items:
                cond_uses |= _uses(item.context_expr)
            live = self._stmts(stmt.body, live) | cond_uses
        self._note(live)
        return live

    def _loop(self, stmt, live_after: Set[str]) -> Set[str]:
        targets: Set[str] = _target_names(stmt.target) \
            if isinstance(stmt, ast.For) else set()
        head_uses = _uses(stmt.iter) if isinstance(stmt, ast.For) \
            else _uses(stmt.test)
        # a materialized induction variable is live for the whole
        # iteration (it is incremented at the loop tail), so it joins
        # the body's live-out, not just the range of its last use
        carried = targets & self.induction
        cur = set(live_after)
        for _ in range(_MAX_PASSES):
            body_in = self._stmts(stmt.body, cur | carried)
            new = (body_in | live_after | head_uses) - targets
            if new <= cur:
                break
            cur |= new
        return cur | head_uses

    # -- entry -----------------------------------------------------------
    def run(self) -> Tuple[int, Tuple[str, ...], Dict[str, str]]:
        self.classify()
        self._stmts(self.fdef.body, set())
        classes: Dict[str, str] = {}
        for name in sorted(self.varying):
            classes[name] = "varying"
        for name in sorted(self.shared):
            classes[name] = "shared"
        for name in sorted(self.induction):
            classes[name] = "induction"
        return max(1, self.peak), self.peak_names, classes


#: estimates by (content fingerprint, name, declared count); entries
#: kept before the memo starts over
_ESTIMATES: Dict[Tuple[str, str, int], RegisterEstimate] = {}
_MAX_ESTIMATES = 1024


def estimate_registers(kernel) -> RegisterEstimate:
    """Estimate registers/thread for a DSL kernel (see module docs).

    Falls back to the kernel's declared ``regs_per_thread`` when its
    source is unavailable or uses constructs the AST pass cannot
    follow — the estimate then carries ``fallback=True``.  Memoized by
    content (:func:`repro.cuda.source.fingerprint`: source plus closure
    values), so the lint pass and the estimator walk a kernel once; a
    kernel without a fingerprint is walked on every call.
    """
    name = getattr(kernel, "name", "<kernel>")
    declared = int(getattr(kernel, "regs_per_thread", 10))
    content = fingerprint(kernel)
    key = (content, name, declared) if content is not None else None
    if key is not None and key in _ESTIMATES:
        return _ESTIMATES[key]
    try:
        analysis = _Liveness(kernel_source(kernel).fdef, closure_env(kernel))
        regs, peak_names, classes = analysis.run()
        estimate = RegisterEstimate(name, regs, peak_names, classes)
    except Exception:
        estimate = RegisterEstimate(name, declared, (), {}, fallback=True)
    if key is not None:
        if len(_ESTIMATES) >= _MAX_ESTIMATES:
            _ESTIMATES.clear()
        _ESTIMATES[key] = estimate
    return estimate
