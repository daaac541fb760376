"""Kernel IR: a CFG lowering of DSL kernels with dominance and loops.

Rules R1–R7 work straight off the Python AST (re-executed by the
abstract interpreter), which is enough to *observe* hazards on sample
blocks but cannot *prove* control-flow properties — a branch's
uniformity, a barrier's reachability under divergence — before a
kernel runs.  This module supplies the missing substrate: it lowers a
kernel function into a small typed control-flow graph whose
instructions are classified through the same :data:`repro.cuda.context.CTX_OPS`
table the interpreter and the grid compiler dispatch over, then
computes the classic structures a divergence analysis needs —
dominator and post-dominator trees, natural loops, and the
*reconvergence point* of every branch (its immediate post-dominator,
where a diverged warp's lanes rejoin).

The IR is deliberately SSA-lite: statements keep their source names
(``dests``/``srcs``) rather than versioned values, because the
consumer (:mod:`repro.analysis.divergence`) runs a monotone forward
dataflow to fixpoint where name-level join is exactly as precise for
the three-point uniformity lattice.  ``ctx`` attribute reads and
query calls are surfaced as *seed tokens* (``"tid"``, ``"bx"``,
``"global_tid"``, ...) so the lattice seeding stays out of this
module.

Line numbers are absolute file lines (decorator-relative offsets are
resolved the same way :mod:`repro.analysis.interp` and
:mod:`repro.compile.lower` resolve theirs), so findings and compiler
queries key on the same coordinates.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..cuda.context import CTX_ATTRS, CTX_OPS

__all__ = ["IRInstr", "Branch", "BasicBlock", "Loop", "KernelIR",
           "lower_kernel", "kernel_source"]


# ----------------------------------------------------------------------
# IR node types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IRInstr:
    """One source statement, classified against the DSL vocabulary.

    ``ops`` lists the ``ctx.*`` methods the statement invokes (with
    their :data:`CTX_OPS` categories in ``categories``); ``seeds``
    lists the ``ctx`` identity attributes / query calls it reads
    (``"tid"``, ``"bx"``, ``"global_tid"``, ...) so a dataflow client
    can seed lattice values without re-parsing.
    """

    line: int
    dests: Tuple[str, ...]
    srcs: Tuple[str, ...]
    seeds: Tuple[str, ...]
    ops: Tuple[str, ...]
    categories: Tuple[str, ...]

    @property
    def is_sync(self) -> bool:
        return "sync" in self.categories

    @property
    def is_load(self) -> bool:
        return any(c in ("global_ld", "shared_ld", "const_ld", "tex_ld")
                   for c in self.categories)


@dataclass(frozen=True)
class Branch:
    """A conditional terminator: the block forks on ``cond``.

    ``kind`` is ``"masked"`` (a ``with ctx.masked(...)`` region),
    ``"if"``, ``"loop"`` (``for``) or ``"while"``.
    """

    kind: str
    line: int
    srcs: Tuple[str, ...]
    seeds: Tuple[str, ...]


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
# Source acquisition (shared convention with analysis.interp)
# ----------------------------------------------------------------------

def kernel_source(fn: Callable) -> Tuple[ast.FunctionDef, int]:
    """``(FunctionDef, line_offset)`` for a kernel function; absolute
    file line of a node is ``line_offset + node.lineno``."""
    fn = getattr(fn, "fn", fn)          # unwrap a Kernel wrapper
    lines, start = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    fdef = tree.body[0]
    if not isinstance(fdef, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise ValueError(f"not a function definition: {fn!r}")
    return fdef, start - 1


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


def _scan_expr(node: ast.AST, ctx_name: str,
               srcs: Set[str], seeds: Set[str],
               ops: List[str], cats: List[str]) -> None:
    """Collect names, ctx seed tokens and ctx ops from an expression."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) \
                and sub.id != ctx_name:
            srcs.add(sub.id)
        elif isinstance(sub, ast.Attribute) \
                and isinstance(sub.value, ast.Name) \
                and sub.value.id == ctx_name:
            meth = sub.attr
            op = CTX_OPS.get(meth)
            if op is not None:
                ops.append(meth)
                cats.append(op.category)
                if op.category in ("query", "identity"):
                    seeds.add(meth)   # global_tid & friends vary
            elif meth in CTX_ATTRS:
                seeds.add(meth)


def _classify_stmt(stmt: ast.stmt, ctx_name: str, offset: int) -> IRInstr:
    dests: Set[str] = set()
    srcs: Set[str] = set()
    seeds: Set[str] = set()
    ops: List[str] = []
    cats: List[str] = []
    value: Optional[ast.AST] = None
    if isinstance(stmt, ast.Assign):
        value = stmt.value
        for tgt in stmt.targets:
            for sub in ast.walk(tgt):
                if isinstance(sub, ast.Name):
                    dests.add(sub.id)
    elif isinstance(stmt, ast.AugAssign):
        value = stmt.value
        if isinstance(stmt.target, ast.Name):
            dests.add(stmt.target.id)
            srcs.add(stmt.target.id)      # x += v reads x
    elif isinstance(stmt, ast.AnnAssign):
        value = stmt.value
        if isinstance(stmt.target, ast.Name):
            dests.add(stmt.target.id)
    elif isinstance(stmt, ast.Expr):
        value = stmt.value
    elif isinstance(stmt, ast.Return):
        value = stmt.value
    if value is not None:
        _scan_expr(value, ctx_name, srcs, seeds, ops, cats)
    # subscripted / attribute assignment targets also read names
    if isinstance(stmt, ast.Assign):
        for tgt in stmt.targets:
            if not isinstance(tgt, ast.Name):
                _scan_expr(tgt, ctx_name, srcs, seeds, ops, cats)
    return IRInstr(offset + stmt.lineno, tuple(sorted(dests)),
                   tuple(sorted(srcs)), tuple(sorted(seeds)),
                   tuple(ops), tuple(cats))


def _cond_info(node: ast.AST, ctx_name: str
               ) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    srcs: Set[str] = set()
    seeds: Set[str] = set()
    ops: List[str] = []
    cats: List[str] = []
    _scan_expr(node, ctx_name, srcs, seeds, ops, cats)
    return tuple(sorted(srcs)), tuple(sorted(seeds))


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
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef, ast.Import, ast.ImportFrom,
                               ast.Pass, ast.Global, ast.Nonlocal)):
            pass                          # no dataflow contribution
        elif isinstance(stmt, ast.With):  # non-masked context manager
            self.build(stmt.body)
        elif isinstance(stmt, (ast.Try,)):
            self.build(stmt.body)         # conservative: straight-line
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
        srcs, seeds = _cond_info(cond, self.ctx_name)
        branch_blk = self.cur
        self.blocks[branch_blk].branch = Branch(
            kind, self.offset + lineno, srcs, seeds)
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
            srcs, seeds = _cond_info(stmt.iter, self.ctx_name)
            dests = tuple(sorted(
                sub.id for sub in ast.walk(stmt.target)
                if isinstance(sub, ast.Name)))
            self.blocks[header].instrs.append(IRInstr(
                self.offset + stmt.lineno, dests, srcs, seeds, (), ()))
        else:
            kind = "while"
            srcs, seeds = _cond_info(stmt.test, self.ctx_name)
        self.blocks[header].branch = Branch(
            kind, self.offset + stmt.lineno, srcs, seeds)

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
                 params: Tuple[str, ...], ctx_name: str) -> None:
        self.name = name
        self.blocks = blocks
        self.entry = entry
        self.exit_index = exit_index
        self.line_offset = line_offset
        self.params = params
        self.ctx_name = ctx_name

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"KernelIR({self.name!r}, {len(self.blocks)} blocks, "
                f"{len(self.loops)} loops)")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

#: ``id(fn) -> (fn, ir)``; holding ``fn`` keeps its id from being
#: reused by another function while the entry lives
_IR_CACHE: Dict[int, Tuple[Callable, KernelIR]] = {}


def lower_kernel(fn: Callable) -> KernelIR:
    """Lower a kernel function (or :class:`~repro.cuda.launch.Kernel`)
    into its :class:`KernelIR`; memoized per function object."""
    raw = getattr(fn, "fn", fn)
    hit = _IR_CACHE.get(id(raw))
    if hit is not None and hit[0] is raw:
        return hit[1]
    fdef, offset = kernel_source(raw)
    args = fdef.args
    params = tuple(a.arg for a in args.args)
    ctx_name = params[0] if params else "ctx"
    builder = _CFGBuilder(ctx_name, offset)
    builder.build(fdef.body)
    exit_index = builder._exit()
    if builder.cur is not None:
        builder.edge(builder.cur, exit_index)
    ir = KernelIR(getattr(fn, "name", fdef.name), builder.blocks,
                  0, exit_index, offset, params, ctx_name)
    if len(_IR_CACHE) > 256:
        _IR_CACHE.clear()
    _IR_CACHE[id(raw)] = (raw, ir)
    return ir
