"""AST lowering: DSL kernel source -> whole-grid NumPy program.

The lowering reuses the approach of the PR-3 abstract interpreter
(:mod:`repro.analysis.interp`): parse the kernel's own source, resolve
its closure/global environment, and drive every ``ctx.*`` site from
the :data:`repro.cuda.context.CTX_OPS` table.  Where the interpreter
*re-executes* the AST per sample block, the lowerer *rewrites* it once
into an ordinary Python function over :class:`repro.compile.runtime.GridRT`:

* ``ctx.fma(a, b, c)``            -> ``__rt.fma(a, b, c)``
* ``ctx.tx`` / ``ctx.nthreads``   -> precomputed axis identities
* ``with ctx.masked(c): body``    -> ``push_mask(c); try: body
  finally: pop_mask()`` (predicated stores, no divergence)
* ``ctx.sync()``                  -> deleted: whole-grid statements
  already form one program point per source line, so the barrier is
  a compile-time split, not a runtime operation.  Inside ``masked``
  it is allowed only when the R8 uniformity dataflow
  (:mod:`repro.analysis.divergence`) proves every enclosing mask
  uniform/block-uniform — every lane of a block agrees, so the
  barrier is never divergent; otherwise refused (the DSL would
  deadlock there too)
* ``ctx.loop_tail/address_ops``   -> deleted (bookkeeping only)
* ``np.zeros(ctx.nthreads, ...)`` -> broadcastable lane seed, even
  through aliases (``t = ctx.nthreads``), via the runtime NumPy shim
* helper calls (``rotl(ctx, x, r)``) -> recursively lowered helpers

Anything outside the supported construct set raises
:class:`CompileError` with the reason; the compiled executor then
falls back to the sequential reference backend for that kernel.
"""

from __future__ import annotations

import ast
import builtins
import copy
import types
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cuda.context import CTX_ATTRS, CTX_OPS
from ..cuda.source import SOURCE_ERRORS, closure_env, kernel_source

__all__ = ["CompileError", "LoweringSession", "LoweredFunction"]


class CompileError(Exception):
    """A kernel construct the grid compiler does not support."""


#: ctx methods that vanish entirely (accounting the vectorized
#: execution performs implicitly; the traced blocks and the census
#: charge them through BlockAccounting.loop_tail and address_ops)
_META_OPS = frozenset(op for op, cat in CTX_OPS.items() if cat == "meta")

#: environment value types that may be bound into lowered code as-is
_CONST_TYPES = (int, float, complex, bool, str, bytes, type(None),
                tuple, list, dict, frozenset, set, type,
                np.ndarray, np.generic, np.dtype, types.ModuleType)

#: statements that have no lowering (visit methods raise below)
_FORBIDDEN_STMTS = {
    ast.Raise: "raise", ast.Try: "try", ast.Import: "import",
    ast.ImportFrom: "import", ast.Global: "global",
    ast.Nonlocal: "nonlocal", ast.ClassDef: "class", ast.Delete: "del",
    ast.AsyncFunctionDef: "async def", ast.AsyncFor: "async for",
    ast.AsyncWith: "async with",
}


def _is_numpy(value) -> bool:
    return isinstance(value, types.ModuleType) \
        and getattr(value, "__name__", "") == "numpy"


def _snapshot(value):
    """Closure arrays, also inside tuples, bound as copies: a program
    cached by content must keep computing with that content."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if type(value) is tuple:
        return tuple(_snapshot(item) for item in value)
    return value


def _target_names(node: ast.AST) -> List[str]:
    """All plain names bound by an assignment-target tree."""
    names: List[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
    return names


def _collect_locals(fndef: ast.FunctionDef) -> set:
    """Every name the function binds: params, assignment/for/with/
    comprehension targets and walrus expressions."""
    bound = {a.arg for a in fndef.args.args}
    for node in ast.walk(fndef):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                bound.update(_target_names(t))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            bound.update(_target_names(node.target))
        elif isinstance(node, ast.For):
            bound.update(_target_names(node.target))
        elif isinstance(node, ast.comprehension):
            bound.update(_target_names(node.target))
        elif isinstance(node, ast.NamedExpr):
            bound.update(_target_names(node.target))
        elif isinstance(node, ast.withitem) and node.optional_vars:
            bound.update(_target_names(node.optional_vars))
    return bound


@dataclass
class LoweredFunction:
    """One lowered function: the compiled callable plus its debug
    source (``ast.unparse`` of the rewritten tree)."""

    name: str
    callable: object
    source: str


class _FunctionLowerer(ast.NodeTransformer):
    """Rewrites one function body; shared session handles helpers."""

    def __init__(self, session: "LoweringSession", fn, offset: int,
                 ctx_names: frozenset, env: Dict[str, object],
                 bindings: Dict[str, object]) -> None:
        self.session = session
        self.fn = fn
        self.offset = offset            # absolute line = offset + lineno
        self.ctx_names = ctx_names
        self.env = env
        self.bindings = bindings        # globals dict of the lowered fn
        self.locals: set = set()
        self.mask_depth = 0
        #: absolute source lines of ``ctx.masked`` branches the R8
        #: uniformity dataflow proved uniform/block-uniform — a
        #: ``__syncthreads`` under only such masks is never divergent
        #: (every lane of a block agrees), so it lowers instead of
        #: refusing the kernel
        self.uniform_lines: frozenset = frozenset()
        self._masked_uniform: List[bool] = []

    def fail(self, node: Optional[ast.AST], message: str) -> CompileError:
        line = getattr(node, "lineno", None)
        where = f"{self.fn.__name__}"
        if line is not None:
            where += f" (line {self.offset + line})"
        return CompileError(f"{where}: {message}")

    # -- names ---------------------------------------------------------
    def visit_Name(self, node: ast.Name) -> ast.AST:
        if not isinstance(node.ctx, ast.Load):
            return node
        name = node.id
        if name in self.locals:
            return node
        if name in self.ctx_names:
            raise self.fail(node, "ctx escapes into an expression the "
                                  "lowerer cannot follow")
        if name in self.env:
            value = self.env[name]
            if _is_numpy(value):
                self.session.uses_numpy_shim = True
                self.bindings["__np"] = self.session.np_shim
                return ast.copy_location(
                    ast.Name("__np", ast.Load()), node)
            if isinstance(value, types.FunctionType):
                raise self.fail(
                    node, f"function {name!r} referenced outside a "
                          f"direct call")
            if isinstance(value, _CONST_TYPES):
                self.bindings[name] = value
                return node
            raise self.fail(
                node, f"global {name!r} of unsupported type "
                      f"{type(value).__name__}")
        if hasattr(builtins, name):
            return node
        raise self.fail(node, f"unresolvable name {name!r}")

    # -- ctx attributes ------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> ast.AST:
        if isinstance(node.value, ast.Name) \
                and node.value.id in self.ctx_names:
            if not isinstance(node.ctx, ast.Load):
                raise self.fail(node, "assignment to a ctx attribute")
            if node.attr in CTX_ATTRS:
                return ast.copy_location(
                    ast.Attribute(ast.Name("__rt", ast.Load()),
                                  node.attr, ast.Load()), node)
            raise self.fail(
                node, f"ctx.{node.attr} read without a call — only the "
                      f"data attributes {CTX_ATTRS} lower directly")
        return self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def _check_call_shape(self, node: ast.Call) -> None:
        if any(isinstance(a, ast.Starred) for a in node.args):
            raise self.fail(node, "*args call")
        if any(kw.arg is None for kw in node.keywords):
            raise self.fail(node, "**kwargs call")

    def visit_Call(self, node: ast.Call) -> ast.AST:
        func = node.func
        # ctx.<op>(...) — the CTX_OPS-driven dispatch
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in self.ctx_names:
            op = func.attr
            if op not in CTX_OPS:
                raise self.fail(node, f"unknown ctx method {op!r}")
            self._check_call_shape(node)
            if op in _META_OPS:
                return ast.copy_location(ast.Constant(None), node)
            if op == "sync":
                raise self.fail(
                    node, "__syncthreads() used as an expression")
            if op == "masked":
                raise self.fail(
                    node, "ctx.masked outside a with statement")
            self.session.lowered_ops += 1
            return ast.copy_location(ast.Call(
                ast.Attribute(ast.Name("__rt", ast.Load()), op,
                              ast.Load()),
                [self.visit(a) for a in node.args],
                [ast.keyword(kw.arg, self.visit(kw.value))
                 for kw in node.keywords]), node)
        # helper(ctx, ...) — recursively lowered user function
        if isinstance(func, ast.Name) and func.id not in self.locals \
                and func.id in self.env \
                and isinstance(self.env[func.id], types.FunctionType):
            self._check_call_shape(node)
            for kw in node.keywords:
                if isinstance(kw.value, ast.Name) \
                        and kw.value.id in self.ctx_names:
                    raise self.fail(node, "ctx passed by keyword")
            ctx_positions = tuple(
                i for i, a in enumerate(node.args)
                if isinstance(a, ast.Name) and a.id in self.ctx_names)
            helper = self.session.lower_function(
                self.env[func.id], ctx_positions)
            self.bindings[helper.name] = helper.callable
            new_args = [ast.Name("__rt", ast.Load())]
            new_args += [self.visit(a) for i, a in enumerate(node.args)
                         if i not in ctx_positions]
            return ast.copy_location(ast.Call(
                ast.Name(helper.name, ast.Load()), new_args,
                [ast.keyword(kw.arg, self.visit(kw.value))
                 for kw in node.keywords]), node)
        return self.generic_visit(node)

    # -- statements ----------------------------------------------------
    def visit_Expr(self, node: ast.Expr):
        call = node.value
        if isinstance(call, ast.Call) \
                and isinstance(call.func, ast.Attribute) \
                and isinstance(call.func.value, ast.Name) \
                and call.func.value.id in self.ctx_names:
            op = call.func.attr
            if op in _META_OPS:
                return None                      # pure accounting
            if op == "sync":
                if self._masked_uniform and not all(self._masked_uniform):
                    raise self.fail(
                        node, "__syncthreads() inside divergent control "
                              "flow — the uniformity analysis cannot "
                              "prove every enclosing mask uniform (the "
                              "DSL rejects it at runtime too)")
                self.session.sync_points += 1
                return None                      # program-point split
        return self.generic_visit(node)

    def visit_With(self, node: ast.With):
        if len(node.items) != 1:
            raise self.fail(node, "multi-item with statement")
        item = node.items[0]
        call = item.context_expr
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id in self.ctx_names
                and call.func.attr == "masked"):
            raise self.fail(node, "with statement that is not ctx.masked")
        if item.optional_vars is not None:
            raise self.fail(node, "ctx.masked(...) as <name>")
        if len(call.args) != 1 or call.keywords:
            raise self.fail(node, "ctx.masked takes exactly one condition")
        cond = self.visit(call.args[0])
        self.mask_depth += 1
        self._masked_uniform.append(
            self.offset + node.lineno in self.uniform_lines)
        try:
            body = self._visit_body(node.body, node)
        finally:
            self.mask_depth -= 1
            self._masked_uniform.pop()
        rt = ast.Name("__rt", ast.Load())
        push = ast.Expr(ast.Call(
            ast.Attribute(rt, "push_mask", ast.Load()), [cond], []))
        pop = ast.Expr(ast.Call(
            ast.Attribute(ast.Name("__rt", ast.Load()), "pop_mask",
                          ast.Load()), [], []))
        guarded = ast.Try(body=body, handlers=[], orelse=[],
                          finalbody=[pop])
        return [ast.copy_location(push, node),
                ast.copy_location(guarded, node)]

    def visit_Assign(self, node: ast.Assign):
        if isinstance(node.value, ast.Name) \
                and node.value.id in self.ctx_names:
            raise self.fail(node, "aliasing ctx to another name")
        for t in node.targets:
            if isinstance(t, ast.Attribute):
                raise self.fail(node, "assignment to an attribute")
            for name in _target_names(t):
                if name in self.ctx_names:
                    raise self.fail(node, "rebinding the ctx name")
        return self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign):
        if isinstance(node.target, ast.Attribute):
            raise self.fail(node, "augmented assignment to an attribute")
        return self.generic_visit(node)

    def visit_If(self, node: ast.If):
        node.test = self.visit(node.test)
        node.body = self._visit_body(node.body, node)
        node.orelse = self._visit_opt_body(node.orelse)
        return node

    def visit_While(self, node: ast.While):
        node.test = self.visit(node.test)
        node.body = self._visit_body(node.body, node)
        node.orelse = self._visit_opt_body(node.orelse)
        return node

    def visit_For(self, node: ast.For):
        node.target = self.visit(node.target)
        node.iter = self.visit(node.iter)
        node.body = self._visit_body(node.body, node)
        node.orelse = self._visit_opt_body(node.orelse)
        return node

    def visit_FunctionDef(self, node: ast.FunctionDef):
        raise self.fail(node, "nested function definition")

    def visit_Lambda(self, node: ast.Lambda):
        raise self.fail(node, "lambda expression")

    def visit_GeneratorExp(self, node: ast.GeneratorExp):
        # a generator is a lazily-evaluated nested scope; lowering it
        # soundly would need closure analysis, so refuse it
        raise self.fail(node, "generator expression")

    def visit_Yield(self, node):
        raise self.fail(node, "yield")

    visit_YieldFrom = visit_Yield
    visit_Await = visit_Yield

    def generic_visit(self, node):
        forbidden = _FORBIDDEN_STMTS.get(type(node))
        if forbidden is not None:
            raise self.fail(node, f"{forbidden!r} statement")
        return super().generic_visit(node)

    # -- driver --------------------------------------------------------
    def _visit_body(self, stmts, parent) -> List[ast.stmt]:
        out: List[ast.stmt] = []
        for stmt in stmts:
            result = self.visit(stmt)
            if result is None:
                continue
            if isinstance(result, list):
                out.extend(result)
            else:
                out.append(result)
        if not out:
            out.append(ast.copy_location(ast.Pass(), parent))
        return out

    def _visit_opt_body(self, stmts) -> List[ast.stmt]:
        """Like :meth:`_visit_body` but an empty result is legal
        (``orelse`` suites may vanish entirely)."""
        out: List[ast.stmt] = []
        for stmt in stmts:
            result = self.visit(stmt)
            if result is None:
                continue
            if isinstance(result, list):
                out.extend(result)
            else:
                out.append(result)
        return out

    def lower(self, fndef: ast.FunctionDef, ctx_positions: Tuple[int, ...],
              lowered_name: str) -> ast.FunctionDef:
        args = fndef.args
        if args.vararg or args.kwarg or args.kwonlyargs \
                or args.posonlyargs or args.defaults or args.kw_defaults:
            raise self.fail(fndef, "unsupported parameter kind "
                                   "(defaults/varargs/kw-only)")
        if max(ctx_positions, default=-1) >= len(args.args):
            raise self.fail(fndef, "ctx argument position out of range")
        self.locals = _collect_locals(fndef)
        params = [ast.arg("__rt")] + [
            ast.arg(a.arg) for i, a in enumerate(args.args)
            if i not in ctx_positions]
        body = self._visit_body(fndef.body, fndef)
        new = ast.FunctionDef(
            name=lowered_name,
            args=ast.arguments(posonlyargs=[], args=params, vararg=None,
                               kwonlyargs=[], kw_defaults=[], kwarg=None,
                               defaults=[]),
            body=body, decorator_list=[], returns=None)
        return ast.copy_location(new, fndef)


class LoweringSession:
    """Lowers one kernel plus every helper it (transitively) calls.

    Helpers are memoized per ``(function, ctx argument positions)`` —
    the same helper called with and without ``ctx`` lowers twice, once
    per calling convention.
    """

    def __init__(self, np_shim) -> None:
        self.np_shim = np_shim
        self.sync_points = 0
        self.lowered_ops = 0
        self.uses_numpy_shim = False
        self._done: Dict[Tuple[int, Tuple[int, ...]], LoweredFunction] = {}
        self._in_progress: set = set()
        self._counter = 0

    def lower_function(self, fn, ctx_positions: Tuple[int, ...]
                       ) -> LoweredFunction:
        key = (id(fn), ctx_positions)
        hit = self._done.get(key)
        if hit is not None:
            return hit
        if key in self._in_progress:
            raise CompileError(
                f"recursive call cycle through {fn.__name__!r}")
        self._in_progress.add(key)
        try:
            lowered = self._lower(fn, ctx_positions)
        finally:
            self._in_progress.discard(key)
        self._done[key] = lowered
        return lowered

    @property
    def helper_count(self) -> int:
        return max(0, len(self._done) - 1)

    def _lower(self, fn, ctx_positions: Tuple[int, ...]) -> LoweredFunction:
        try:
            src = kernel_source(fn)
            # the rewrite below edits the tree in place: work on a copy
            # of the front end's shared parse
            fndef = copy.deepcopy(src.fdef)
            closure = closure_env(fn)
        except SOURCE_ERRORS as exc:
            raise CompileError(
                f"source of {fn.__name__!r} unavailable: {exc}") from None
        fndef.decorator_list = []

        env = dict(fn.__globals__)
        env.update((name, _snapshot(value))
                   for name, value in closure.items())
        ctx_names = frozenset(
            fndef.args.args[i].arg for i in ctx_positions
            if i < len(fndef.args.args))

        self._counter += 1
        lowered_name = f"__grid_{fn.__name__}_{self._counter}"
        bindings: Dict[str, object] = {"__builtins__": builtins}
        lowerer = _FunctionLowerer(self, fn, src.offset, ctx_names, env,
                                   bindings)
        if len(self._in_progress) == 1:
            # root kernel entry only: launch arguments are grid
            # constants, so the R8 dataflow's UNIFORM parameter seed is
            # sound.  Helpers may receive per-lane arguments and keep
            # the conservative refusal.
            from ..analysis.divergence import uniform_mask_lines
            lowerer.uniform_lines = uniform_mask_lines(fn)
        new_def = lowerer.lower(fndef, ctx_positions, lowered_name)
        module = ast.Module(body=[new_def], type_ignores=[])
        ast.fix_missing_locations(module)
        code = compile(module, filename=f"<lowered {fn.__name__}>",
                       mode="exec")
        exec(code, bindings)
        return LoweredFunction(
            name=lowered_name, callable=bindings[lowered_name],
            source=ast.unparse(new_def))
