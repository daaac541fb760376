"""Kernel IR: a CFG lowering of DSL kernels with dominance and loops.

The lint rules observe hazards on the sample blocks the abstract
interpreter re-executes, which cannot *prove* control-flow properties
— a branch's uniformity, a barrier's reachability under divergence —
before a kernel runs, nor see what the other blocks do.  This module
supplies the missing substrate: it lowers a kernel function into a
small typed control-flow graph whose instructions are classified
through the same :data:`repro.cuda.context.CTX_OPS` table the grid
compiler dispatches over, then computes the classic structures a
divergence analysis needs — dominator and post-dominator trees,
natural loops, and the *reconvergence point* of every branch (its
immediate post-dominator, where a diverged warp's lanes rejoin).

The IR is deliberately SSA-lite: statements keep their source names
(``dests``/``srcs``/``binds``) rather than versioned values, because
its consumers need name-level joins only: the uniformity lattice and
the data taint of :mod:`repro.analysis.divergence` (forward, to
fixpoint), the register estimate's backward liveness
(:mod:`repro.analysis.liveness`) and R7's per-launch global footprint
(:mod:`repro.analysis.rules`).  The last two walk the CFG in source
nesting with the closure's configuration ``if``s pruned
(:meth:`KernelIR.source_order`).  ``ctx`` attribute reads, query
calls and loads are surfaced as *seed tokens* (``"tid"``, ``"bx"``,
``"global_tid"``, ``"ld_global"``, ...; a raw ``arr.data`` read is
``"data"``, an ``np.zeros``-style constructor ``"array"``) so the
lattice seeding stays out of this module, and an ``if`` keeps its
test for the configuration pruning.  A statement's ``ctx`` ops and its
global loads, stores, atomics and helper calls (:class:`Access`) are
listed in evaluation order.  Every ``ctx`` call whose trace charge
reads an operand (a memory op's index, ``shared_alloc``'s shape, a
bookkeeping count, a mask condition) records the names that operand
reads, and the constructs that hide statements from the CFG (a nested
``def`` or ``lambda``, a call that receives ``ctx``) are listed as
``opaque``; a nested ``def`` is lowered on demand
(:meth:`KernelIR.helper`).

The source comes from the kernel front end (:mod:`repro.cuda.source`),
and line numbers are absolute file lines from its one line offset, the
coordinates :mod:`repro.analysis.interp` and :mod:`repro.compile.lower`
use too, so findings and compiler queries key on the same lines.  One
IR serves every closure of a ``def``: it is memoized on the front
end's per-code-object entry.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from ..cuda.context import CTX_ATTRS, CTX_OPS
from ..cuda.source import KernelSource, kernel_source

__all__ = ["Access", "IRInstr", "Branch", "BasicBlock", "Loop",
           "KernelIR", "lower_kernel", "lower_helper"]


# ----------------------------------------------------------------------
# IR node types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Access:
    """A global load, store or atomic, or a call that may make some.

    For a memory op, ``op`` is the ``ctx`` method and ``name`` its
    array argument.  For a call (``op == "call"``) of a plain name or
    one that receives ``ctx``, ``name`` is the callee and ``args`` pairs
    each argument's position, keyword, or ``"*"``/``"**"`` unpacking
    with the argument.  A name is ``None`` where the expression is not
    a plain name.
    """

    op: str
    name: Optional[str]
    args: Tuple[Tuple[object, Optional[str]], ...] = ()


@dataclass(frozen=True)
class IRInstr:
    """One source statement, classified against the DSL vocabulary.

    ``ops`` lists the ``ctx.*`` methods the statement invokes (with
    their :data:`CTX_OPS` categories in ``categories``); ``seeds``
    lists the ``ctx`` identity attributes, query calls and loads it
    reads (``"tid"``, ``"bx"``, ``"global_tid"``, ``"ld_global"``, ...)
    so a dataflow client can seed lattice values without re-parsing.
    ``operands`` pairs each charged operand of a ``ctx`` call (see
    :data:`CHARGED_OPERAND`) with the names and seed tokens it reads,
    e.g. ``("ld_global index", ("col",))``; the test of a conditional
    expression or comprehension that guards a ``ctx`` call is one too.
    ``binds`` lists the names the statement rebinds (plain-name
    targets); ``dests`` adds the names of a subscripted store.
    ``accesses`` lists its global loads, stores and atomics and the
    calls that may make some.  ``ops`` and ``accesses`` are in
    evaluation order (a call after its arguments).
    """

    line: int
    dests: Tuple[str, ...]
    srcs: Tuple[str, ...]
    seeds: Tuple[str, ...]
    ops: Tuple[str, ...]
    categories: Tuple[str, ...]
    operands: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    binds: Tuple[str, ...] = ()
    accesses: Tuple[Access, ...] = ()

    @property
    def is_sync(self) -> bool:
        return "sync" in self.categories


@dataclass(frozen=True)
class Branch:
    """A conditional terminator: the block forks on ``cond``.

    ``kind`` is ``"masked"`` (a ``with ctx.masked(...)`` region),
    ``"if"``, ``"loop"`` (``for``) or ``"while"``; ``test`` is the
    condition of an ``if`` or masked region.  ``accesses`` are those of
    the condition (a loop's iterable), which runs before the arms.
    """

    kind: str
    line: int
    srcs: Tuple[str, ...]
    seeds: Tuple[str, ...]
    test: Optional[ast.AST] = field(default=None, compare=False)
    accesses: Tuple[Access, ...] = ()

    @property
    def is_loop(self) -> bool:
        return self.kind in ("loop", "while")


@dataclass
class BasicBlock:
    """Straight-line statements plus an optional branching terminator."""

    index: int
    instrs: List[IRInstr] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)
    branch: Optional[Branch] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tail = f" branch={self.branch.kind}@{self.branch.line}" \
            if self.branch else ""
        return (f"B{self.index}(instrs={len(self.instrs)}, "
                f"succs={self.succs}{tail})")


@dataclass(frozen=True)
class Loop:
    """A natural loop: ``header`` plus the body block set."""

    header: int
    body: FrozenSet[int]
    line: int


# ----------------------------------------------------------------------
# Statement classification
# ----------------------------------------------------------------------

def _is_ctx_call(node: ast.AST, ctx_name: str) -> Optional[str]:
    """The ``ctx`` method name when ``node`` is ``ctx.meth(...)``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and isinstance(node.func.value, ast.Name) \
            and node.func.value.id == ctx_name:
        return node.func.attr
    return None


#: the operand a ``ctx`` call's trace charge reads, by :data:`CTX_OPS`
#: category: (argument position, role)
CHARGED_OPERAND: Dict[str, Tuple[int, str]] = {
    **{cat: (1, "index") for cat in (
        "global_ld", "global_st", "global_atomic", "shared_ld",
        "shared_st", "const_ld", "tex_ld")},
    "alloc": (0, "shape"),
    "meta": (0, "count"),
    "masked": (0, "condition"),
    "query": (0, "condition"),
}


#: NumPy constructors of per-thread arrays (the ``"array"`` seed)
ARRAY_CTORS = frozenset({"zeros", "ones", "empty", "full", "arange"})


#: the ``ctx`` methods that move global memory
GLOBAL_MEMORY_OPS = frozenset(
    op for op, cat in CTX_OPS.items() if cat.startswith("global_"))

#: a node's operands in evaluation order, by node type, where that is
#: not its fields' order or a field is not an operand (a load or store
#: context, an operator): a call's arguments before the call (whose
#: ``ctx`` op its callee names), a comprehension's iteration before its
#: element
_OPERANDS: Dict[type, Callable[..., Tuple[ast.AST, ...]]] = {
    ast.Name: lambda n: (),
    ast.Constant: lambda n: (),
    ast.Attribute: lambda n: (n.value,),
    ast.Subscript: lambda n: (n.value, n.slice),
    ast.BinOp: lambda n: (n.left, n.right),
    ast.UnaryOp: lambda n: (n.operand,),
    ast.BoolOp: lambda n: tuple(n.values),
    ast.Compare: lambda n: (n.left, *n.comparators),
    ast.Call: lambda n: (*n.args, *n.keywords, n.func),
    ast.ListComp: lambda n: (*n.generators, n.elt),
    ast.SetComp: lambda n: (*n.generators, n.elt),
    ast.GeneratorExp: lambda n: (*n.generators, n.elt),
    ast.DictComp: lambda n: (*n.generators, n.key, n.value),
    ast.comprehension: lambda n: (n.iter, n.target, *n.ifs),
}


def _in_order(node: ast.AST, out: List[ast.AST]) -> List[ast.AST]:
    """Append ``node`` and its operands to ``out`` in the order they
    run: each operand (recursively) before the node (see
    :data:`_OPERANDS`)."""
    operands = _OPERANDS.get(type(node))
    for child in (operands(node) if operands is not None
                  else ast.iter_child_nodes(node)):
        _in_order(child, out)
    out.append(node)
    return out


def _name(node: Optional[ast.AST]) -> Optional[str]:
    return node.id if isinstance(node, ast.Name) else None


def _access(call: ast.Call, ctx_name: str) -> Optional[Access]:
    """The :class:`Access` ``call`` makes, if any."""
    meth = _is_ctx_call(call, ctx_name)
    if meth is not None:
        if meth not in GLOBAL_MEMORY_OPS:
            return None
        arr = call.args[0] if call.args else next(
            (kw.value for kw in call.keywords if kw.arg == "arr"), None)
        return Access(meth, _name(arr))
    args: List[Tuple[object, Optional[str]]] = [
        ("*" if isinstance(arg, ast.Starred) else pos, _name(arg))
        for pos, arg in enumerate(call.args)]
    args += [(kw.arg or "**", _name(kw.value)) for kw in call.keywords]
    callee = _name(call.func)
    if callee is None and all(name != ctx_name for _, name in args):
        return None
    return Access("call", callee or ast.unparse(call.func), tuple(args))


def _scan_expr(node: ast.AST, ctx_name: str,
               srcs: Set[str], seeds: Set[str],
               ops: List[str], cats: List[str],
               operands: Optional[List] = None,
               accesses: Optional[List[Access]] = None) -> None:
    """Collect names, ctx seed tokens and ctx ops from an expression in
    evaluation order (and, when given, the charged operands and the
    :class:`Access` list)."""
    for sub in _in_order(node, []):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) \
                and sub.id != ctx_name:
            srcs.add(sub.id)
        elif isinstance(sub, ast.Attribute) \
                and isinstance(sub.value, ast.Name) \
                and sub.value.id == ctx_name:
            meth = sub.attr
            cat = CTX_OPS.get(meth)
            if cat is not None:
                ops.append(meth)
                cats.append(cat)
                if cat in ("query", "identity") or cat.endswith("_ld"):
                    seeds.add(meth)   # global_tid & friends vary
            elif meth in CTX_ATTRS:
                seeds.add(meth)
        elif isinstance(sub, ast.Attribute) and sub.attr == "data":
            seeds.add("data")         # a raw read of array storage
        elif isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Attribute) and func.attr in ARRAY_CTORS \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "np":
                seeds.add("array")    # a new per-thread array
            if accesses is not None:
                access = _access(sub, ctx_name)
                if access is not None:
                    accesses.append(access)
        if operands is not None:
            _charged(sub, ctx_name, operands)


def _reads(nodes: Sequence[ast.AST], ctx_name: str) -> Tuple[str, ...]:
    """Names and seed tokens read anywhere in ``nodes``."""
    srcs: Set[str] = set()
    seeds: Set[str] = set()
    for node in nodes:
        _scan_expr(node, ctx_name, srcs, seeds, [], [])
    return tuple(sorted(srcs | seeds))


def _calls_ctx(nodes: Sequence[ast.AST], ctx_name: str) -> bool:
    return any(_is_ctx_call(sub, ctx_name) for node in nodes
               for sub in ast.walk(node))


def _charged(node: ast.AST, ctx_name: str, operands: List) -> None:
    """Record ``node``'s charged operand: the one :data:`CHARGED_OPERAND`
    names for a ``ctx`` call (every keyword when it is not positional),
    or the test of a conditional expression, short-circuit operator or
    comprehension that decides whether a ``ctx`` call runs."""
    meth = _is_ctx_call(node, ctx_name)
    cat = CTX_OPS.get(meth) if meth is not None else None
    charged = CHARGED_OPERAND.get(cat) if cat is not None else None
    if isinstance(node, ast.Call) and charged is not None:
        pos, role = charged
        arg = [node.args[pos]] if len(node.args) > pos \
            else [kw.value for kw in node.keywords]
        operands.append((f"{meth} {role}", _reads(arg, ctx_name)))
    elif isinstance(node, ast.IfExp) \
            and _calls_ctx([node.body, node.orelse], ctx_name):
        operands.append(("conditional expression test",
                         _reads([node.test], ctx_name)))
    elif isinstance(node, ast.BoolOp) \
            and _calls_ctx(node.values[1:], ctx_name):
        operands.append(("boolean operand",
                         _reads(node.values[:-1], ctx_name)))
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)) \
            and _calls_ctx([node], ctx_name):
        operands.append(("comprehension iteration", _reads(
            [part for gen in node.generators
             for part in (gen.iter, *gen.ifs)], ctx_name)))


def _bound(targets: Sequence[ast.AST]) -> Tuple[str, ...]:
    """The names ``targets`` rebind: plain names, alone or unpacked."""
    return tuple(sorted({sub.id for tgt in targets for sub in ast.walk(tgt)
                         if isinstance(sub, ast.Name)
                         and isinstance(sub.ctx, ast.Store)}))


def _classify_stmt(stmt: ast.stmt, ctx_name: str, offset: int) -> IRInstr:
    dests: Set[str] = set()
    srcs: Set[str] = set()
    seeds: Set[str] = set()
    ops: List[str] = []
    cats: List[str] = []
    operands: List[Tuple[str, Tuple[str, ...]]] = []
    accesses: List[Access] = []
    values: List[ast.AST] = []
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        values, targets = [stmt.value], stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        values = [stmt.value] if stmt.value is not None else []
        targets = [stmt.target]
    else:                             # every expression of the statement
        values = [sub for sub in ast.iter_child_nodes(stmt)
                  if isinstance(sub, ast.expr)]
    for value in values:
        _scan_expr(value, ctx_name, srcs, seeds, ops, cats, operands,
                   accesses)
    for tgt in targets:
        if isinstance(tgt, ast.Name):
            dests.add(tgt.id)
            if isinstance(stmt, ast.AugAssign):
                srcs.add(tgt.id)      # x += v reads x
        elif not isinstance(stmt, ast.AnnAssign):
            # a subscripted (``a[i] = v``, ``a[i] += v``), attribute or
            # unpacking target updates its names and reads the index
            dests.update(sub.id for sub in ast.walk(tgt)
                         if isinstance(sub, ast.Name))
            _scan_expr(tgt, ctx_name, srcs, seeds, ops, cats, operands,
                       accesses)
    return IRInstr(offset + stmt.lineno, tuple(sorted(dests)),
                   tuple(sorted(srcs)), tuple(sorted(seeds)),
                   tuple(ops), tuple(cats), tuple(operands),
                   _bound(targets) if values else (), tuple(accesses))


def _cond_info(node: ast.AST, ctx_name: str
               ) -> Tuple[Tuple[str, ...], Tuple[str, ...],
                          Tuple[Access, ...]]:
    srcs: Set[str] = set()
    seeds: Set[str] = set()
    accesses: List[Access] = []
    _scan_expr(node, ctx_name, srcs, seeds, [], [], accesses=accesses)
    return tuple(sorted(srcs)), tuple(sorted(seeds)), tuple(accesses)


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------

class _CFGBuilder:
    def __init__(self, ctx_name: str, offset: int) -> None:
        self.ctx_name = ctx_name
        self.offset = offset
        self.blocks: List[BasicBlock] = [BasicBlock(0)]
        self.cur: Optional[int] = 0      # None after return/break/continue
        #: (header_index, exit_index) per enclosing loop
        self.loop_stack: List[Tuple[int, int]] = []
        self.exit_index: Optional[int] = None
        #: the nested ``def`` statements of this function's own body
        self.defs: Dict[str, ast.FunctionDef] = {}

    # -- plumbing -------------------------------------------------------
    def new_block(self) -> int:
        b = BasicBlock(len(self.blocks))
        self.blocks.append(b)
        return b.index

    def edge(self, a: int, b: int) -> None:
        if b not in self.blocks[a].succs:
            self.blocks[a].succs.append(b)
            self.blocks[b].preds.append(a)

    def _start(self, idx: int) -> None:
        self.cur = idx

    # -- statement walk -------------------------------------------------
    def build(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if self.cur is None:          # unreachable after a jump
                break
            self.stmt(stmt)

    def stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._branch_join("if", stmt.test, stmt.lineno,
                              stmt.body, stmt.orelse)
        elif isinstance(stmt, ast.With) and self._masked_cond(stmt) is not None:
            cond = self._masked_cond(stmt)
            self._branch_join("masked", cond,
                              stmt.lineno, stmt.body, [])
        elif isinstance(stmt, (ast.For, ast.While)):
            self._loop(stmt)
        elif isinstance(stmt, ast.Return):
            self.blocks[self.cur].instrs.append(
                _classify_stmt(stmt, self.ctx_name, self.offset))
            self.edge(self.cur, self._exit())
            self.cur = None
        elif isinstance(stmt, ast.Break):
            if self.loop_stack:
                self.edge(self.cur, self.loop_stack[-1][1])
            self.cur = None
        elif isinstance(stmt, ast.Continue):
            if self.loop_stack:
                self.edge(self.cur, self.loop_stack[-1][0])
            self.cur = None
        elif isinstance(stmt, ast.FunctionDef):
            self.defs[stmt.name] = stmt   # lowered where it is called
        elif isinstance(stmt, (ast.AsyncFunctionDef, ast.ClassDef,
                               ast.Import, ast.ImportFrom, ast.Pass,
                               ast.Global, ast.Nonlocal)):
            pass                          # no dataflow contribution
        elif isinstance(stmt, ast.With):  # non-masked context manager
            for item in stmt.items:       # its ctx calls still charge
                entry = ast.Assign([item.optional_vars], item.context_expr) \
                    if item.optional_vars else ast.Expr(item.context_expr)
                self.blocks[self.cur].instrs.append(_classify_stmt(
                    ast.copy_location(entry, stmt),
                    self.ctx_name, self.offset))
            self.build(stmt.body)
        elif isinstance(stmt, (ast.Try,)):
            self.build(stmt.body)         # conservative: straight-line
            self.build(stmt.orelse)
            for h in stmt.handlers:
                self.build(h.body)
            self.build(stmt.finalbody)
        else:
            self.blocks[self.cur].instrs.append(
                _classify_stmt(stmt, self.ctx_name, self.offset))

    def _masked_cond(self, stmt: ast.With) -> Optional[ast.AST]:
        if len(stmt.items) != 1:
            return None
        call = stmt.items[0].context_expr
        if _is_ctx_call(call, self.ctx_name) == "masked" and call.args:
            return call.args[0]
        return None

    def _branch_join(self, kind: str, cond: ast.AST, lineno: int,
                     body: Sequence[ast.stmt],
                     orelse: Sequence[ast.stmt]) -> None:
        srcs, seeds, accesses = _cond_info(cond, self.ctx_name)
        branch_blk = self.cur
        self.blocks[branch_blk].branch = Branch(
            kind, self.offset + lineno, srcs, seeds, cond, accesses)
        join = self.new_block()

        then_entry = self.new_block()
        self.edge(branch_blk, then_entry)
        self._start(then_entry)
        self.build(body)
        if self.cur is not None:
            self.edge(self.cur, join)

        if orelse:
            else_entry = self.new_block()
            self.edge(branch_blk, else_entry)
            self._start(else_entry)
            self.build(orelse)
            if self.cur is not None:
                self.edge(self.cur, join)
        else:
            self.edge(branch_blk, join)   # fall-through / masked-off path

        self._start(join)

    def _loop(self, stmt) -> None:
        header = self.new_block()
        self.edge(self.cur, header)
        if isinstance(stmt, ast.For):
            kind = "loop"
            srcs, seeds, accesses = _cond_info(stmt.iter, self.ctx_name)
            dests = tuple(sorted(
                sub.id for sub in ast.walk(stmt.target)
                if isinstance(sub, ast.Name)))
            self.blocks[header].instrs.append(IRInstr(
                self.offset + stmt.lineno, dests, srcs, seeds, (), (),
                binds=_bound([stmt.target])))
        else:
            kind = "while"
            srcs, seeds, accesses = _cond_info(stmt.test, self.ctx_name)
        self.blocks[header].branch = Branch(
            kind, self.offset + stmt.lineno, srcs, seeds,
            accesses=accesses)

        exit_blk = self.new_block()
        body_entry = self.new_block()
        self.edge(header, body_entry)
        self.edge(header, exit_blk)

        self.loop_stack.append((header, exit_blk))
        self._start(body_entry)
        self.build(stmt.body)
        if self.cur is not None:
            self.edge(self.cur, header)   # back edge
        self.loop_stack.pop()

        if stmt.orelse:                   # for/while ... else
            else_entry = self.new_block()
            # else runs on normal exit; fold it into the exit path
            self.edge(header, else_entry)
            self._start(else_entry)
            self.build(stmt.orelse)
            if self.cur is not None:
                self.edge(self.cur, exit_blk)
        self._start(exit_blk)

    def _exit(self) -> int:
        if self.exit_index is None:
            self.exit_index = self.new_block()
        return self.exit_index


# ----------------------------------------------------------------------
# Dominance
# ----------------------------------------------------------------------

def _dom_sets(nodes: Sequence[int], entry: int,
              preds_of: Dict[int, List[int]]) -> Dict[int, Set[int]]:
    """Iterative dominator sets over ``nodes`` (all reachable)."""
    universe = set(nodes)
    doms: Dict[int, Set[int]] = {n: set(universe) for n in nodes}
    doms[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            if n == entry:
                continue
            preds = [p for p in preds_of[n] if p in universe]
            new = set(universe)
            for p in preds:
                new &= doms[p]
            new.add(n)
            if not preds:
                new = {n}
            if new != doms[n]:
                doms[n] = new
                changed = True
    return doms


def _idoms(doms: Dict[int, Set[int]], entry: int) -> Dict[int, int]:
    """Immediate dominators from dominator sets."""
    idom: Dict[int, int] = {}
    for n, ds in doms.items():
        if n == entry:
            continue
        strict = ds - {n}
        # the immediate dominator is the strict dominator dominated by
        # all the others, i.e. the one with the largest dominator set
        if strict:
            idom[n] = max(strict, key=lambda d: len(doms[d]))
    return idom


# ----------------------------------------------------------------------
# The lowered kernel
# ----------------------------------------------------------------------

class KernelIR:
    """CFG + dominance + loop structure of one kernel function."""

    def __init__(self, name: str, blocks: List[BasicBlock],
                 entry: int, exit_index: int, line_offset: int,
                 params: Tuple[str, ...], ctx_name: str,
                 opaque: Tuple[Tuple[int, str], ...] = (),
                 unread: Tuple[Tuple[int, str], ...] = (),
                 defs: Optional[Dict[str, ast.FunctionDef]] = None) -> None:
        self.name = name
        self.blocks = blocks
        self.entry = entry
        self.exit_index = exit_index
        self.line_offset = line_offset
        self.params = params
        self.ctx_name = ctx_name
        #: (line, what) of every construct whose statements the CFG
        #: does not see: a nested ``def``/``class``/``lambda``, a call
        #: that receives ``ctx``, any other escape of ``ctx``, a ``try``
        self.opaque = opaque
        #: the constructs a source-order walk cannot read either (see
        #: :func:`_opaque`)
        self.unread = unread
        #: the nested ``def`` statements of the body, by name
        self.defs = defs or {}
        self._helpers: Dict[str, KernelIR] = {}

        self.reachable = self._reachable_from(entry, lambda b: b.succs)
        nodes = sorted(self.reachable)
        preds = {b.index: b.preds for b in blocks}
        succs = {b.index: b.succs for b in blocks}
        self.dominators = _dom_sets(nodes, entry, preds)
        self.idom = _idoms(self.dominators, entry)
        # post-dominance runs on the reversed CFG from the exit block
        back_reachable = self._reachable_from(exit_index,
                                              lambda b: b.preds)
        pnodes = sorted(self.reachable & back_reachable)
        self.post_dominators = _dom_sets(
            pnodes, exit_index,
            {n: [s for s in succs[n] if s in back_reachable]
             for n in pnodes})
        self.ipdom = _idoms(self.post_dominators, exit_index)
        self.rpo = self._rpo()
        self.loops = self._find_loops()

    # -- graph helpers --------------------------------------------------
    def _reachable_from(self, start: int, nbrs) -> Set[int]:
        seen = {start}
        work = [start]
        while work:
            n = work.pop()
            for s in nbrs(self.blocks[n]):
                if s not in seen:
                    seen.add(s)
                    work.append(s)
        return seen

    def _rpo(self) -> List[int]:
        order: List[int] = []
        seen: Set[int] = set()

        def visit(n: int) -> None:
            stack = [(n, iter(self.blocks[n].succs))]
            seen.add(n)
            while stack:
                node, it = stack[-1]
                advanced = False
                for s in it:
                    if s in seen:
                        continue
                    seen.add(s)
                    stack.append((s, iter(self.blocks[s].succs)))
                    advanced = True
                    break
                if not advanced:
                    order.append(node)
                    stack.pop()

        visit(self.entry)
        return list(reversed(order))

    def _find_loops(self) -> List[Loop]:
        loops: List[Loop] = []
        for b in self.blocks:
            if b.index not in self.reachable:
                continue
            for s in b.succs:
                if s in self.dominators.get(b.index, ()):   # back edge
                    body = {s}
                    work = [b.index]
                    while work:
                        n = work.pop()
                        if n in body or n not in self.reachable:
                            continue
                        body.add(n)
                        work.extend(self.blocks[n].preds)
                    # restrict to nodes dominated by the header
                    body = {n for n in body
                            if s in self.dominators.get(n, ())}
                    line = self.blocks[s].branch.line \
                        if self.blocks[s].branch else \
                        (self.blocks[s].instrs[0].line
                         if self.blocks[s].instrs else 0)
                    loops.append(Loop(s, frozenset(body), line))
        return loops

    # -- queries --------------------------------------------------------
    def dominates(self, a: int, b: int) -> bool:
        return a in self.dominators.get(b, set())

    def reconvergence(self, branch_block: int) -> Optional[int]:
        """Where a divergent warp's lanes rejoin: the immediate
        post-dominator of the branch block."""
        return self.ipdom.get(branch_block)

    def influence_region(self, branch_block: int) -> Set[int]:
        """Blocks control-dependent on the branch: reachable from a
        successor without passing the reconvergence point."""
        stop = self.reconvergence(branch_block)
        region: Set[int] = set()
        work = [s for s in self.blocks[branch_block].succs if s != stop]
        while work:
            n = work.pop()
            if n in region or n == stop:
                continue
            region.add(n)
            for s in self.blocks[n].succs:
                if s != stop and s not in region:
                    work.append(s)
        region.discard(branch_block)
        if stop is not None:
            region.discard(stop)
        return region

    def branch_blocks(self) -> List[BasicBlock]:
        return [b for b in self.blocks
                if b.branch is not None and b.index in self.reachable]

    def sync_sites(self) -> List[Tuple[int, int]]:
        """``(block_index, line)`` of every ``ctx.sync()`` statement."""
        sites = []
        for b in self.blocks:
            if b.index not in self.reachable:
                continue
            for instr in b.instrs:
                if instr.is_sync:
                    sites.append((b.index, instr.line))
        return sites

    def in_loop(self, block: int) -> bool:
        return any(block in lp.body for lp in self.loops)

    def helper(self, name: str) -> "KernelIR":
        """The IR of the nested ``def name``, lowered on first use; its
        ``ctx`` is this function's."""
        if name not in self._helpers:
            self._helpers[name] = _lower(self.defs[name], self.ctx_name,
                                         self.line_offset)
        return self._helpers[name]

    # -- the CFG in source nesting -----------------------------------------
    def arm_end(self, idx: int) -> Optional[int]:
        """Where the arms of the fork at ``idx`` end: a loop body at its
        header, a branch arm at the reconvergence point."""
        branch = self.blocks[idx].branch
        return idx if branch is not None and branch.is_loop \
            else self.reconvergence(idx)

    def region(self, start: int, stop: Optional[int]) -> Iterator[int]:
        """The blocks from ``start`` to ``stop`` at one nesting level: a
        loop continues at its exit, a branch after its arms.  A jump out
        (``break``, ``return``) ends the region."""
        idx: Optional[int] = start
        while idx is not None and idx != stop and self.dominates(start, idx):
            yield idx
            blk = self.blocks[idx]
            if blk.branch is None:
                idx = blk.succs[0] if blk.succs else None
            elif blk.branch.is_loop:
                idx = blk.succs[1]
            else:
                idx = self.reconvergence(idx)

    def kept_arms(self, idx: int, env: Dict[str, object]) -> List[int]:
        """The entries of the fork's kept arms: a loop's or a masked
        region's body, an ``if``'s arms less one the closure ``env``
        rules out."""
        blk = self.blocks[idx]
        if blk.branch is None or blk.branch.kind != "if":
            return blk.succs[:1]
        value = _const_eval(blk.branch.test, env)
        if value is None:
            return blk.succs[:2]
        return [blk.succs[0] if value else blk.succs[1]]

    def source_order(self, env: Dict[str, object],
                     start: Optional[int] = None,
                     stop: Optional[int] = None,
                     loop: Optional[int] = None,
                     ) -> Iterator[Tuple[int, Optional[int]]]:
        """The blocks the closure ``env`` keeps, in source order (a
        fork's block before its arms), each with the header of the
        innermost loop around it; the whole body by default."""
        if start is None:
            start, stop = self.entry, self.exit_index
        for idx in self.region(start, stop):
            yield idx, loop
            branch = self.blocks[idx].branch
            if branch is not None:
                inner = idx if branch.is_loop else loop
                for arm in self.kept_arms(idx, env):
                    yield from self.source_order(env, arm, self.arm_end(idx),
                                                 inner)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"KernelIR({self.name!r}, {len(self.blocks)} blocks, "
                f"{len(self.loops)} loops)")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def lower_kernel(fn: Callable) -> KernelIR:
    """Lower a kernel function (or :class:`~repro.cuda.launch.Kernel`)
    into its :class:`KernelIR`; memoized per code object, since the IR
    depends on the source alone."""
    src = kernel_source(fn)
    return src.derive("ir", lambda: _build_ir(src))


def _build_ir(src: KernelSource) -> KernelIR:
    params = tuple(a.arg for a in src.fdef.args.args)
    return _lower(src.fdef, params[0] if params else "ctx", src.offset)


def lower_helper(fn: Callable, ctx_name: str) -> KernelIR:
    """The IR of a module-level helper that receives ``ctx`` as its
    parameter ``ctx_name``, which need not be its first; memoized per
    code object and name."""
    src = kernel_source(fn)
    return src.derive(("ir", ctx_name),
                      lambda: _lower(src.fdef, ctx_name, src.offset))


def _lower(fdef: ast.FunctionDef, ctx_name: str, offset: int) -> KernelIR:
    """The IR of one function whose ``ctx`` is named ``ctx_name``."""
    builder = _CFGBuilder(ctx_name, offset)
    builder.build(fdef.body)
    exit_index = builder._exit()
    if builder.cur is not None:
        builder.edge(builder.cur, exit_index)
    opaque, unread = _opaque(fdef.body, ctx_name, offset)
    return KernelIR(fdef.name, builder.blocks, 0, exit_index, offset,
                    tuple(a.arg for a in fdef.args.args), ctx_name,
                    opaque, unread, builder.defs)


#: compound statements the CFG builder does not lower
_UNLOWERED = tuple(getattr(ast, name) for name in
                   ("AsyncFor", "AsyncWith", "Match", "TryStar")
                   if hasattr(ast, name))


def _opaque(body: Sequence[ast.stmt], ctx_name: str, offset: int
            ) -> Tuple[Tuple[Tuple[int, str], ...], Tuple[Tuple[int, str], ...]]:
    """The constructs of ``body`` that hide statements from the CFG, and
    those a source-order walk cannot read either.  The walk reads a
    nested ``def`` where it is called, a call that receives ``ctx``
    through its callee and a ``try`` straight through; it cannot read a
    class, a ``lambda``, a decorated ``def``, a compound statement the
    builder does not lower (``match``, ``async for``/``with``), or an
    escape of ``ctx`` or of a nested ``def``'s name."""
    found: List[Tuple[int, str]] = []
    unread: List[Tuple[int, str]] = []
    bases: Set[int] = set()        # ctx names read as ``ctx.<attr>``
    passed: Set[int] = set()       # ctx names passed to a call
    callees: Set[int] = set()      # names called as ``name(...)``
    defs: Set[str] = set()
    nodes = [sub for stmt in body for sub in ast.walk(stmt)]
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((node.lineno, f"nested def {node.name}"))
            defs.add(node.name)
            if not isinstance(node, ast.FunctionDef) or node.decorator_list:
                unread.append(found[-1])
        elif isinstance(node, ast.Lambda):
            found.append((node.lineno, "lambda"))
            unread.append(found[-1])
        elif isinstance(node, ast.Try):
            found.append((node.lineno, "try statement"))
        elif isinstance(node, _UNLOWERED):
            found.append((node.lineno, f"{type(node).__name__} statement"))
            unread.append(found[-1])
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name):
            bases.add(id(node.value))
        elif isinstance(node, ast.Call):
            callees.add(id(node.func))
            for arg in (*node.args, *(kw.value for kw in node.keywords)):
                if isinstance(arg, ast.Name) and arg.id == ctx_name:
                    passed.add(id(arg))
                    found.append((node.lineno, f"{ast.unparse(node.func)} "
                                               f"receives {ctx_name}"))
    for node in nodes:
        if not isinstance(node, ast.Name):
            continue
        if node.id == ctx_name and id(node) not in bases \
                and id(node) not in passed:
            found.append((node.lineno, f"{ctx_name} escapes"))
            unread.append(found[-1])
        elif node.id in defs and isinstance(node.ctx, ast.Load) \
                and id(node) not in callees:
            unread.append((node.lineno, f"nested def {node.id} escapes"))
    return (tuple(sorted((offset + line, what) for line, what in found)),
            tuple(sorted((offset + line, what) for line, what in unread)))


def _const_eval(node: Optional[ast.AST], env: Dict[str, object]) -> object:
    """Evaluate a configuration expression against the closure env.
    Returns the value, or None when it involves runtime state."""
    if not isinstance(node, ast.expr):
        return None
    try:
        expr = ast.Expression(body=node)
        code = compile(ast.fix_missing_locations(expr), "<cfg>", "eval")
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        if not names <= set(env):
            return None
        return eval(code, {"__builtins__": {}}, dict(env))  # noqa: S307
    except Exception:
        return None
