"""Abstract interpreter: executes kernel source for one sample block.

The analyzer does not pattern-match source text.  It *runs* the kernel
the same way the simulator does — once per thread block with per-
thread NumPy vectors — but against a :class:`LintContext` that records
memory/barrier events instead of touching data, and with every value a
kernel cannot know statically (loaded data) represented by the
:class:`~repro.analysis.symbolic.SymVal` domain.  Because the sample
block's coordinates and the target's scalar arguments are concrete,
nearly all index arithmetic evaluates to exact per-lane vectors; the
rules in :mod:`repro.analysis.rules` then replay the event stream.

The ``ctx.*`` value ops are :class:`~repro.cuda.context.LaneOps`'s,
the functions execution and the grid compiler run: :class:`LintContext`
inherits them and supplies only their operands as :class:`SymVal`
values and an array namespace over those values.  Its memory, barrier
and divergence ops record events and charge through
:class:`~repro.cuda.context.BlockAccounting`, as execution charges.

Approximations (all deliberate, documented in DESIGN.md):

* ``ctx.select``/``ctx.merge``/``np.where`` under an *unknown*
  condition take the primary (new-value) branch and union taints;
* a data-dependent ``while`` runs its body twice;
* a data-dependent Python ``if`` runs both branches on forked scopes
  and merges, under an unknown divergence mask;
* ``for`` loops are bounded by :data:`LOOP_CAP` iterations.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import dataclass, field
from types import MethodType, SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.device import DEFAULT_DEVICE, DeviceSpec
from ..cuda.context import BlockAccounting, LaneOps
from ..cuda.dim3 import Dim3, as_dim3
from ..cuda.memory import CudaModelError
from ..cuda.source import SOURCE_ERRORS, closure_env, kernel_source
# re-exported: benchmarks/suite/layers.py patches the names here (the
# census calls them through repro.cuda.context)
from ..sim.memsys import (  # noqa: F401
    block_bank_conflicts,
    coalesce_block_access,
)
from ..trace.instr import InstrClass
from ..trace.trace import KernelTrace
from .symbolic import (
    AnalysisLimit,
    BLOCK_COORD,
    NTHREADS,
    SymVal,
    as_lanes,
    as_sym,
    is_varying,
    taints_of,
)
from .targets import LintArray, LintTarget

#: iteration bound for concrete loops (largest shipped loop is the
#: 256-iteration SAD accumulation in h264; rc5 mixes for 78)
LOOP_CAP = 512

#: iterations to run a data-dependent while loop for
UNKNOWN_WHILE_ITERS = 2

#: memory (op, space) -> instruction class for the static census
CENSUS_MEM: Dict[Tuple[str, str], InstrClass] = {
    ("ld", "global"): InstrClass.LD_GLOBAL,
    ("st", "global"): InstrClass.ST_GLOBAL,
    ("atom", "global"): InstrClass.ATOM_GLOBAL,
    ("ld", "shared"): InstrClass.LD_SHARED,
    ("st", "shared"): InstrClass.ST_SHARED,
    ("ld", "const"): InstrClass.LD_CONST,
    ("ld", "tex"): InstrClass.LD_TEX,
}


# ----------------------------------------------------------------------
# Event stream
# ----------------------------------------------------------------------

@dataclass
class MemEvent:
    """One memory access site execution (ld/st/atom, any space)."""

    line: int
    op: str                       # ld | st | atom
    space: str                    # global | shared | const | tex
    array: str
    index: object                 # SymVal or native snapshot
    itemsize: int
    size: Optional[int]           # element count when known
    mask: Optional[np.ndarray]    # concrete active-lane superset
    mask_exact: bool              # mask is exactly known
    mask_divergent: bool          # enclosing control flow diverges
    word_offset: int = 0          # shared only: first word of the array
    word_scale: int = 1           # shared only: words per element
    #: barrier interval: incremented at every __syncthreads(); two
    #: shared accesses in the same interval are concurrent (no
    #: happens-before edge orders them across threads)
    interval: int = 0


@dataclass
class SyncEvent:
    line: int
    divergent: bool
    #: the barrier interval this sync closes
    interval: int = 0


@dataclass
class AllocEvent:
    line: int
    name: str
    nbytes: int
    shape_taints: frozenset = frozenset()


@dataclass
class HazardEvent:
    """A construct that breaks the grid compiler's widening assumptions."""

    line: int
    kind: str      # scalar-coerce | scalar-range | python-if-coord |
    #                nthreads-index | nthreads-shared-shape | shared-data
    detail: str


@dataclass
class SpaceEvent:
    """A memory op on an array of another space, which execution
    refuses (constant and texture arrays are read-only)."""

    line: int
    array: str
    detail: str    # execution's refusal message


@dataclass
class Recorder:
    """Collects the event stream of one sample-block execution."""

    events: List[object] = field(default_factory=list)
    notes: List[Tuple[int, str]] = field(default_factory=list)
    current_line: int = 0
    _hazard_seen: set = field(default_factory=set)

    def emit(self, event) -> None:
        self.events.append(event)

    def hazard(self, kind: str, detail: str,
               line: Optional[int] = None) -> None:
        line = self.current_line if line is None else line
        key = (kind, line)
        if key in self._hazard_seen:
            return
        self._hazard_seen.add(key)
        self.events.append(HazardEvent(line, kind, detail))

    def note(self, message: str, line: Optional[int] = None) -> None:
        line = self.current_line if line is None else line
        if (line, message) not in self.notes and len(self.notes) < 20:
            self.notes.append((line, message))


# ----------------------------------------------------------------------
# Stand-ins handed to the interpreted kernel
# ----------------------------------------------------------------------

class OpaqueData:
    """Result of reading a shared array's raw ``.data`` attribute."""

    def __init__(self, owner: "LintShared") -> None:
        self._owner = owner

    def __getitem__(self, _index):
        kind = "int" if self._owner.dtype.kind in "iu" else "float"
        return SymVal.opaque(kind)

    def __setitem__(self, _index, _value) -> None:
        pass


class LintShared:
    """Shared-array stand-in produced by ``ctx.shared_alloc``."""

    space = "shared"

    def __init__(self, name: str, shape: Tuple[int, ...], dtype: np.dtype,
                 word_offset: int, recorder: Recorder) -> None:
        self.name = name
        self.shape = shape
        self.dtype = dtype
        self.word_offset = word_offset
        self._recorder = recorder

    @property
    def size(self) -> int:
        out = 1
        for dim in self.shape:
            out *= dim
        return out

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def data(self) -> OpaqueData:
        self._recorder.hazard(
            "shared-data",
            f"raw .data access on shared array {self.name!r} bypasses the "
            f"lane model")
        return OpaqueData(self)


class _MaskedCM:
    """Context manager returned by the lint ``ctx.masked``."""

    def __init__(self, ctx: "LintContext", cond: Any) -> None:
        self._ctx = ctx
        self._cond = cond

    def __enter__(self) -> None:
        self._ctx._enter_masked(self._cond)

    def __exit__(self, *_exc: Any) -> bool:
        self._ctx._pop_mask()
        return False


def _select(cond: Any, new: Any, old: Any) -> SymVal:
    """``where(cond, new, old)`` in the abstract domain.

    Unknown condition: if both branches are provably the same value,
    keep it; otherwise take the *primary* (new) branch, mark varying
    and union taints — interior-block behaviour, good enough for the
    index structure the classifiers need.
    """
    c = as_sym(cond)
    cv = c.concrete_value()
    n, o = as_sym(new), as_sym(old)
    taints = c.taints | n.taints | o.taints
    if cv is not None:
        nv, ov = n.concrete_value(), o.concrete_value()
        if nv is not None and ov is not None:
            result = np.where(np.asarray(cv, dtype=bool), nv, ov)
            kind = "float" if (n.kind == "float" or o.kind == "float") \
                else n.kind
            return SymVal(result, None, kind, taints,
                          is_varying(result) or n.varying or o.varying)
        cond_arr = np.asarray(cv, dtype=bool)
        if bool(np.all(cond_arr)):
            return SymVal(n.lanes, n.terms, n.kind, taints, n.varying)
        if not bool(np.any(cond_arr)):
            return SymVal(o.lanes, o.terms, o.kind, taints, o.varying)
        primary = n if nv is not None or ov is None else o
        return SymVal(primary.lanes, primary.terms, primary.kind, taints,
                      True)
    if n.same_expr(o):
        return SymVal(n.lanes, n.terms, n.kind, taints, n.varying)
    return SymVal(n.lanes, n.terms, n.kind, taints, True)


def _opaque_float(*args: Any) -> SymVal:
    """A new opaque float with ``args``' taints, varying if any of them
    is (never an operand itself: a data-dependent ``if`` merges a name
    bound to the very same object as unchanged)."""
    return SymVal.opaque("float", frozenset().union(*map(taints_of, args)),
                         any(map(is_varying, args)))


#: the array namespace :class:`LintContext` gives the
#: :class:`~repro.cuda.context.LaneOps` value ops: the NumPy calls
#: :class:`SymVal` refuses (``__array_ufunc__ = None``).  The census
#: computes no float, so each float function returns an opaque float.
LINT_XP = SimpleNamespace(where=_select,
                          **dict.fromkeys(("minimum", "maximum", "sin",
                                           "cos", "sqrt", "exp", "log"),
                                          _opaque_float))


class LintContext(BlockAccounting, LaneOps):
    """Event-recording stand-in for
    :class:`~repro.cuda.context.BlockContext`.

    The value ops (``fma`` … ``sfu_rcp``, ``cvt``, ``select``) are
    :class:`~repro.cuda.context.LaneOps`'s own functions, run over
    :meth:`_bc` operands and :data:`LINT_XP`; only ``merge`` and
    ``any_active``, which read whether the lint mask is exactly known,
    are defined here.  The memory, barrier and divergence ops record
    events for the rules.  Every charge to :attr:`trace` goes through
    :class:`~repro.cuda.context.BlockAccounting`, the accounting
    execution uses; the identity helpers are inherited as they are.
    """

    #: static instruction census of this sample block, charged exactly
    #: as executing the block records its trace, so
    #: :mod:`repro.analysis.census` compares one-for-one with dynamic
    #: LaunchProfiler counters
    trace: KernelTrace

    xp = LINT_XP

    def __init__(self, spec: DeviceSpec, grid: Dim3, block: Dim3,
                 coord: Tuple[int, int, int], recorder: Recorder) -> None:
        super().__init__(spec, grid, block, KernelTrace())
        self._recorder = recorder

        T = block.size
        bx, by, bz = coord
        self.bx = SymVal.concrete(bx, "int", frozenset({BLOCK_COORD}))
        self.by = SymVal.concrete(by, "int", frozenset({BLOCK_COORD}))
        self.bz = SymVal.concrete(bz, "int", frozenset({BLOCK_COORD}))
        self.block_linear = SymVal.concrete(
            grid.linear(bx, by, bz), "int", frozenset({BLOCK_COORD}))
        #: widens to the whole grid segment when compiled — tainted
        self.nthreads = SymVal.concrete(T, "int", frozenset({NTHREADS}))

        # (active-lane superset, exactly known?, divergent?)
        self._mask_stack: List[Tuple[np.ndarray, bool, bool]] = [
            (np.ones(T, dtype=bool), True, False)]
        #: current barrier interval (bumped by every __syncthreads())
        self._sync_interval = 0
        self.shared_arrays: List[LintShared] = []

    @staticmethod
    def _bc(v: Any, dtype: Any = None) -> SymVal:
        """A value op's operand as a :class:`SymVal`.  A float operand
        (``dtype`` float32) is an opaque float keeping ``v``'s taints
        and varying flag, the census computing no float; one that is
        already an opaque float is returned as it is, since every op
        builds a new value from its operands."""
        if dtype is np.float32:
            if isinstance(v, SymVal) and v.lanes is None \
                    and v.kind == "float":
                return v
            return SymVal.opaque("float", taints_of(v), is_varying(v))
        return as_sym(v)

    # -- mask machinery -------------------------------------------------
    @property
    def mask(self) -> np.ndarray:
        return self._mask_stack[-1][0]

    def masked(self, cond: Any) -> _MaskedCM:
        return _MaskedCM(self, cond)

    def _enter_masked(self, cond: Any) -> None:
        """``ctx.masked``: charge the branch under the parent mask,
        then push the child mask."""
        parent, exact, divergent = self._mask_stack[-1]
        sym = as_sym(cond)
        value = sym.concrete_value()
        if value is None:
            # an unknown thread-varying predicate (a data-dependent
            # per-lane test) is charged as splitting every active warp;
            # an unknown scalar is uniform, every lane takes one side
            self._branch(parent, None if is_varying(sym) else parent)
            self.push_unknown_branch()
            return
        lanes = as_lanes(value, parent.shape, bool)
        self._branch(parent, lanes)
        m = parent & lanes
        self._mask_stack.append((m, exact, divergent or not bool(m.all())))
        self._push_level(m)

    def _pop_mask(self) -> None:
        self._mask_stack.pop()
        self._pop_level()

    def push_unknown_branch(self) -> None:
        """Divergence frame for a data-dependent Python ``if``: the
        parent's lanes, no longer exactly known."""
        parent, _exact, _div = self._mask_stack[-1]
        self._mask_stack.append((parent, False, True))
        self._push_level(None)

    def pop_unknown_branch(self) -> None:
        self._pop_mask()

    def merge(self, new: Any, old: Any) -> Any:
        """Lanes under an exactly known mask take ``new``; under an
        inexact one the select's condition is unknown."""
        mask, exact, _div = self._mask_stack[-1]
        if exact:
            return _select(SymVal.concrete(mask, "bool"), new, old)
        return _select(SymVal.opaque("bool"), new, old)

    def any_active(self, cond: Any) -> Any:
        """Whether an active lane satisfies ``cond``; an unknown
        ``cond`` gives an unknown, thread-varying bool."""
        sym = as_sym(cond)
        value = sym.concrete_value()
        if value is None:
            return SymVal.opaque("bool", sym.taints, True)
        mask = self.mask
        return bool(np.any(as_lanes(value, mask.shape, bool) & mask))

    def sync(self) -> None:
        """Record the barrier, divergent unless its mask is exactly
        known and not divergent, and charge it."""
        _mask, exact, divergent = self._mask_stack[-1]
        self._recorder.emit(SyncEvent(self._line(),
                                      divergent=divergent or not exact,
                                      interval=self._sync_interval))
        self._sync_interval += 1
        self._emit(InstrClass.SYNC)

    # -- bookkeeping (the inherited charges, over concrete counts) -------
    def loop_tail(self, induction_updates: int = 1) -> None:
        super().loop_tail(int(induction_updates))

    def address_ops(self, count: int = 1) -> None:
        super().address_ops(int(count))

    # -- memory ---------------------------------------------------------
    def _line(self) -> int:
        return self._recorder.current_line

    def _record_access(self, op: str, space: str, array: Any,
                       index: Any) -> None:
        mask, exact, divergent = self._mask_stack[-1]
        if isinstance(array, LintShared):
            name = array.name
            itemsize = array.itemsize
            size = array.size
            word_offset = array.word_offset
            word_scale = max(1, itemsize // 4)
        elif isinstance(array, LintArray):
            name = array.name
            itemsize = array.itemsize
            size = array.size
            word_offset = 0
            word_scale = 1
        else:
            raise AnalysisLimit(
                f"{op}_{space} on a non-array value {type(array).__name__}")
        if space != "shared":
            try:        # execution's check; a refused access is not charged
                self._check_space("atom_global_add" if op == "atom"
                                  else f"{op}_{space}", array, space)
            except CudaModelError as exc:
                self._recorder.emit(SpaceEvent(self._line(), name, str(exc)))
                return
        index_sym = as_sym(index)
        if NTHREADS in index_sym.taints:
            self._recorder.hazard(
                "nthreads-index",
                f"ctx.nthreads feeds the index of {name!r} (widens under "
                f"compiled execution; use ctx.threads_per_block)")
        self._recorder.emit(MemEvent(
            line=self._line(), op=op, space=space, array=name,
            index=index_sym, itemsize=itemsize, size=size,
            mask=mask.copy(), mask_exact=exact, mask_divergent=divergent,
            word_offset=word_offset, word_scale=word_scale,
            interval=self._sync_interval))
        self._emit(CENSUS_MEM[(op, space)])
        value = index_sym.concrete_value()
        if space == "global" and (value is None or op == "atom"):
            # atomics serialize whatever the index; an unknown index (a
            # gather/scatter) is charged as the same worst case
            self._record_serialized(array, mask, op)
            return
        if space == "tex" or value is None:
            # a texture read charges only its issue; unknown shared or
            # constant words charge no conflict cycles
            return
        lanes = as_lanes(value, mask.shape)
        if space == "global":
            self._record_global(array, lanes * itemsize, mask, op)
        elif space == "shared":
            words = lanes * word_scale + word_offset
            self._record_bank_conflicts(words, mask, words[mask])
        elif space == "const":
            self._record_broadcast(lanes, mask)

    def _load(self, space: str, array: Any, index: Any,
              op: str = "ld") -> SymVal:
        """Record a load (or an atomic) and return the unknown value it
        reads."""
        self._record_access(op, space, array, index)
        if isinstance(array, LintShared):
            integer = array.dtype.kind in "iu"
        else:
            integer = array.is_integer
        return SymVal.unknown_int() if integer else SymVal.opaque("float")

    def ld_global(self, arr: Any, index: Any) -> SymVal:
        return self._load("global", arr, index)

    def st_global(self, arr: Any, index: Any, value: Any) -> None:
        self._record_access("st", "global", arr, index)

    def atom_global_add(self, arr: Any, index: Any, value: Any) -> SymVal:
        return self._load("global", arr, index, "atom")

    def ld_shared(self, sh: Any, index: Any) -> SymVal:
        return self._load("shared", sh, index)

    def st_shared(self, sh: Any, index: Any, value: Any) -> None:
        self._record_access("st", "shared", sh, index)

    def ld_const(self, arr: Any, index: Any) -> SymVal:
        return self._load("const", arr, index)

    def ld_tex(self, arr: Any, index: Any) -> SymVal:
        return self._load("tex", arr, index)

    def shared_alloc(self, shape: Any, dtype: Any = np.float32,
                     name: str = "smem") -> LintShared:
        dims: List[int] = []
        shape_taints: frozenset = frozenset()
        shape_seq = shape if isinstance(shape, (tuple, list)) else (shape,)
        for dim in shape_seq:
            if isinstance(dim, SymVal):
                shape_taints |= dim.taints
                value = dim.concrete_value()
                if value is None or dim.varying:
                    raise AnalysisLimit("shared_alloc shape is data-"
                                        "dependent")
                dims.append(int(np.asarray(value)))
            else:
                dims.append(int(dim))
        if NTHREADS in shape_taints:
            self._recorder.hazard(
                "nthreads-shared-shape",
                f"shared array {name!r} sized by ctx.nthreads (widens "
                f"under compiled execution)")
        np_dtype = np.dtype(_np_dtype(dtype))
        arr = LintShared(name, tuple(dims), np_dtype, self._smem_words,
                         self._recorder)
        self._smem_words += max(1, np_dtype.itemsize // 4) * arr.size
        self._recorder.emit(AllocEvent(
            self._line(), name, arr.size * np_dtype.itemsize, shape_taints))
        self.shared_arrays.append(arr)
        return arr


# ----------------------------------------------------------------------
# NumPy shim
# ----------------------------------------------------------------------

_CASTER_NAMES = ("int8", "int16", "int32", "int64", "uint8", "uint16",
                 "uint32", "uint64", "float16", "float32", "float64")


class NpCaster:
    """Stand-in for ``np.int64`` & friends: usable both as a dtype and
    as a scalar-coercion call (the batch-safety flashpoint)."""

    def __init__(self, np_type, recorder: Recorder) -> None:
        self.np_type = np_type
        self._recorder = recorder

    def __call__(self, value):
        if isinstance(value, SymVal):
            if value.is_scalar and (value.taints & {BLOCK_COORD, NTHREADS}):
                which = "block coordinate" \
                    if BLOCK_COORD in value.taints else "ctx.nthreads"
                self._recorder.hazard(
                    "scalar-coerce",
                    f"np.{self.np_type.__name__}() on a scalar derived "
                    f"from the {which} (becomes a vector under compiled "
                    f"execution)")
            return value.astype(self.np_type)
        return self.np_type(value)


def _np_dtype(dtype):
    return dtype.np_type if isinstance(dtype, NpCaster) else dtype


class NpShim:
    """The ``np`` the interpreted kernel sees: concrete where possible,
    abstract where a value is symbolic, recording batch hazards."""

    def __init__(self, recorder: Recorder, nthreads: int) -> None:
        self._recorder = recorder
        self._nthreads = nthreads

    # shape arguments may legitimately be ctx.nthreads — drop taints
    def _shape(self, shape):
        if isinstance(shape, SymVal):
            value = shape.concrete_value()
            if value is None or shape.varying:
                raise AnalysisLimit("data-dependent array shape")
            return int(np.asarray(value))
        if isinstance(shape, (tuple, list)):
            return tuple(self._shape(s) for s in shape)
        return shape

    def zeros(self, shape, dtype=np.float64):
        return np.zeros(self._shape(shape), dtype=_np_dtype(dtype))

    def ones(self, shape, dtype=np.float64):
        return np.ones(self._shape(shape), dtype=_np_dtype(dtype))

    def empty(self, shape, dtype=np.float64):
        return np.zeros(self._shape(shape), dtype=_np_dtype(dtype))

    def arange(self, *args, **kwargs):
        args = tuple(int(a) if isinstance(a, SymVal) else a for a in args)
        if "dtype" in kwargs:
            kwargs["dtype"] = _np_dtype(kwargs["dtype"])
        return np.arange(*args, **kwargs)

    def full(self, shape, fill, dtype=None):
        shape = self._shape(shape)
        np_dtype = _np_dtype(dtype)
        if not isinstance(fill, SymVal):
            return np.full(shape, fill,
                           **({"dtype": np_dtype} if dtype is not None
                              else {}))
        value = fill.concrete_value()
        if value is None:
            return SymVal.opaque(fill.kind, fill.taints, fill.varying)
        lanes = np.broadcast_to(np.asarray(value), (shape,)
                                if isinstance(shape, int) else shape).copy()
        if np_dtype is not None:
            lanes = lanes.astype(np_dtype)
        return SymVal(lanes, None, fill.kind, fill.taints, fill.varying)

    def broadcast_to(self, value, shape):
        shape = self._shape(shape)
        if not isinstance(value, SymVal):
            return np.broadcast_to(value, shape)
        cv = value.concrete_value()
        if cv is None:
            return SymVal.opaque(value.kind, value.taints, value.varying)
        lanes = np.broadcast_to(np.asarray(cv), shape)
        return SymVal(lanes, None, value.kind, value.taints, value.varying)

    def asarray(self, value, dtype=None):
        if isinstance(value, SymVal):
            return value if dtype is None else value.astype(_np_dtype(dtype))
        return np.asarray(value, dtype=_np_dtype(dtype)) \
            if dtype is not None else np.asarray(value)

    array = asarray

    def where(self, cond, a, b):
        if not any(isinstance(v, SymVal) for v in (cond, a, b)):
            return np.where(cond, a, b)
        return _select(cond, a, b)

    def _minmax(self, func, *args):
        if not any(isinstance(v, SymVal) for v in args):
            return func(*args)
        syms = [as_sym(a) for a in args]
        taints = frozenset().union(*(s.taints for s in syms))
        varying = any(s.varying for s in syms)
        values = [s.concrete_value() for s in syms]
        if all(v is not None for v in values):
            out = values[0]
            for v in values[1:]:
                out = func(out, v)
            kind = "float" if any(s.kind == "float" for s in syms) else "int"
            return SymVal(out, None, kind, taints, varying)
        primary = syms[0]
        return SymVal(primary.lanes, primary.terms, primary.kind, taints,
                      True)

    def minimum(self, a, b):
        return self._minmax(np.minimum, a, b)

    def maximum(self, a, b):
        return self._minmax(np.maximum, a, b)

    def clip(self, a, lo, hi):
        return self._minmax(np.clip, a, lo, hi)

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        if name in _CASTER_NAMES:
            return NpCaster(getattr(np, name), self._recorder)
        attr = getattr(np, name)
        if callable(attr) and not isinstance(attr, type):
            recorder = self._recorder

            def generic(*args, **kwargs):
                if not any(isinstance(a, SymVal) for a in args):
                    return attr(*args, **kwargs)
                taints = frozenset().union(
                    *(taints_of(a) for a in args))
                varying = any(is_varying(a) for a in args)
                values = [a.concrete_value() if isinstance(a, SymVal)
                          else a for a in args]
                if all(v is not None for v in values):
                    try:
                        result = attr(*values, **kwargs)
                        kind = "float" \
                            if np.asarray(result).dtype.kind == "f" else (
                                "bool" if np.asarray(result).dtype.kind
                                == "b" else "int")
                        return SymVal(result, None, kind, taints, varying)
                    except Exception:
                        pass
                recorder.note(f"np.{name} on a symbolic value went opaque")
                return SymVal.opaque("float", taints, varying)

            generic.__name__ = name
            return generic
        return attr        # np.pi, np.inf, np.newaxis, dtypes, ...


# ----------------------------------------------------------------------
# The interpreter
# ----------------------------------------------------------------------

class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value) -> None:
        self.value = value


class Scope:
    """Lexical scope frame (function locals, chained to the def site)."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent: Optional["Scope"] = None) -> None:
        self.vars: Dict[str, object] = {}
        self.parent = parent


class InterpFunc:
    """A function defined (or reached) inside the kernel, interpreted
    rather than called."""

    def __init__(self, node: ast.FunctionDef, scope: Scope,
                 globals_dict: dict, line_offset: int) -> None:
        self.node = node
        self.scope = scope
        self.globals = globals_dict
        self.line_offset = line_offset

    @classmethod
    def of(cls, fn: Any) -> "InterpFunc":
        """A plain Python function: the front end's parse, its closure
        cells as the defining scope, its globals.  Raises one of
        :data:`~repro.cuda.source.SOURCE_ERRORS`."""
        src = kernel_source(fn)
        root = Scope()
        root.vars.update(closure_env(fn))
        return cls(src.fdef, root, fn.__globals__, src.offset)

    @property
    def name(self) -> str:
        return self.node.name


class KernelInterp:
    """Runs one kernel function for one sample block coordinate."""

    MAX_DEPTH = 8

    def __init__(self, target: LintTarget, coord: Tuple[int, int, int],
                 spec: DeviceSpec = DEFAULT_DEVICE) -> None:
        self.target = target
        self.spec = spec
        self.recorder = Recorder()
        grid = as_dim3(tuple(target.grid))
        block = as_dim3(tuple(target.block))
        self.ctx = LintContext(spec, grid, block, coord, self.recorder)
        self.shim = NpShim(self.recorder, block.size)
        self._builtins = self._make_builtins()
        self._depth = 0

    # -- public entry ---------------------------------------------------
    def run(self) -> Recorder:
        try:
            func = InterpFunc.of(self.target.kernel.fn)
        except SOURCE_ERRORS:
            self.recorder.note("kernel source unavailable", line=0)
            return self.recorder
        args = (self.ctx,) + tuple(self.target.args)
        try:
            self._call_interp(func, args, {})
        except AnalysisLimit as exc:
            self.recorder.note(f"analysis stopped: {exc}")
        return self.recorder

    # -- plumbing -------------------------------------------------------
    def _make_builtins(self) -> dict:
        recorder = self.recorder

        def lint_range(*args):
            out = []
            for a in args:
                if isinstance(a, SymVal):
                    if a.taints & {BLOCK_COORD, NTHREADS}:
                        which = "ctx.nthreads" if NTHREADS in a.taints \
                            else "a block coordinate"
                        recorder.hazard(
                            "scalar-range",
                            f"Python loop bound derived from {which} "
                            f"(breaks compiled execution)")
                    out.append(int(a))
                else:
                    out.append(a)
            return range(*out)

        def lint_int(value=0):
            if isinstance(value, SymVal):
                if value.is_scalar and (value.taints
                                        & {BLOCK_COORD, NTHREADS}):
                    recorder.hazard(
                        "scalar-coerce",
                        "int() on a scalar derived from block-varying "
                        "state (breaks compiled execution)")
                return int(value)
            return int(value)

        def lint_float(value=0.0):
            if isinstance(value, SymVal):
                return float(value)
            return float(value)

        def lint_bool(value=False):
            return bool(value)

        def lint_divmod(a, b):
            if isinstance(a, SymVal) or isinstance(b, SymVal):
                return (as_sym(a) // b, as_sym(a) % b)
            return divmod(a, b)

        def lint_minmax(func):
            def inner(*args):
                if len(args) == 1:
                    args = tuple(args[0])
                if not any(isinstance(a, SymVal) for a in args):
                    return func(args)
                syms = [as_sym(a) for a in args]
                if all(s.is_concrete and s.is_scalar for s in syms):
                    taints = frozenset().union(*(s.taints for s in syms))
                    values = [np.asarray(s.lanes) for s in syms]
                    result = func(values)
                    return SymVal(result, None, syms[0].kind, taints, False)
                raise AnalysisLimit(f"{func.__name__}() over symbolic "
                                    f"vectors")
            return inner

        return {
            "range": lint_range, "int": lint_int, "float": lint_float,
            "bool": lint_bool, "divmod": lint_divmod,
            "min": lint_minmax(min), "max": lint_minmax(max),
            "abs": abs, "len": len, "enumerate": enumerate, "zip": zip,
            "reversed": reversed, "sum": sum, "tuple": tuple,
            "list": list, "print": lambda *a, **k: None,
            "True": True, "False": False, "None": None,
        }

    # -- function calls -------------------------------------------------
    def _call_interp(self, func: InterpFunc, args: Sequence[object],
                     kwargs: Dict[str, object]):
        if self._depth >= self.MAX_DEPTH:
            raise AnalysisLimit("interpreted call depth exceeded")
        node = func.node
        params = [a.arg for a in node.args.args]
        scope = Scope(parent=func.scope)
        defaults = node.args.defaults
        if defaults:
            offset = len(params) - len(defaults)
            for i, default in enumerate(defaults):
                scope.vars[params[offset + i]] = self._eval(
                    default, scope, func)
        if len(args) > len(params):
            raise AnalysisLimit(
                f"{func.name}() takes {len(params)} args, got {len(args)}")
        for name, value in zip(params, args):
            scope.vars[name] = value
        for name, value in kwargs.items():
            if name not in params:
                raise AnalysisLimit(f"{func.name}() got unexpected "
                                    f"keyword {name!r}")
            scope.vars[name] = value
        self._depth += 1
        try:
            self._exec_block(node.body, scope, func)
        except _Return as ret:
            return ret.value
        finally:
            self._depth -= 1
        return None

    def _call_native_function(self, fn, args, kwargs):
        """Interpret a plain Python function reached through a closure
        (e.g. a rotate helper defined in a kernel factory)."""
        try:
            func = InterpFunc.of(fn)
        except SOURCE_ERRORS:
            raise AnalysisLimit(
                f"cannot interpret opaque callable {fn!r}") from None
        return self._call_interp(func, args, kwargs)

    # -- statement execution --------------------------------------------
    def _exec_block(self, body: Sequence[ast.stmt], scope: Scope,
                    func: InterpFunc) -> None:
        """Run each statement at its absolute line; one the interpreter
        cannot model is skipped with a note."""
        recorder = self.recorder
        for stmt in body:
            recorder.current_line = stmt.lineno + func.line_offset
            try:
                self._exec_stmt_inner(stmt, scope, func)
            except AnalysisLimit as exc:
                recorder.note(f"skipped {type(stmt).__name__}: {exc}")

    def _exec_stmt_inner(self, stmt: ast.stmt, scope: Scope,
                         func: InterpFunc) -> None:
        handler = self._STMTS.get(type(stmt))
        if handler is None:
            raise AnalysisLimit(f"unsupported statement "
                                f"{type(stmt).__name__}")
        handler(self, stmt, scope, func)

    def _exec_assign(self, stmt: ast.Assign, scope: Scope,
                     func: InterpFunc) -> None:
        value = self._eval(stmt.value, scope, func)
        for tgt in stmt.targets:
            self._assign(tgt, value, scope, func)

    def _exec_augassign(self, stmt: ast.AugAssign, scope: Scope,
                        func: InterpFunc) -> None:
        current = self._eval(stmt.target, scope, func)
        value = self._eval(stmt.value, scope, func)
        result = self._binop(type(stmt.op), current, value)
        self._assign(stmt.target, result, scope, func)

    def _exec_annassign(self, stmt: ast.AnnAssign, scope: Scope,
                        func: InterpFunc) -> None:
        if stmt.value is not None:
            self._assign(stmt.target, self._eval(stmt.value, scope, func),
                         scope, func)

    def _exec_expr(self, stmt: ast.Expr, scope: Scope,
                   func: InterpFunc) -> None:
        self._eval(stmt.value, scope, func)

    def _exec_def(self, stmt: ast.FunctionDef, scope: Scope,
                  func: InterpFunc) -> None:
        scope.vars[stmt.name] = InterpFunc(
            stmt, scope, func.globals, func.line_offset)

    def _exec_return(self, stmt: ast.Return, scope: Scope,
                     func: InterpFunc) -> None:
        value = None if stmt.value is None \
            else self._eval(stmt.value, scope, func)
        raise _Return(value)

    def _exec_break(self, stmt: ast.Break, scope: Scope,
                    func: InterpFunc) -> None:
        raise _Break()

    def _exec_continue(self, stmt: ast.Continue, scope: Scope,
                       func: InterpFunc) -> None:
        raise _Continue()

    def _exec_nothing(self, stmt: ast.stmt, scope: Scope,
                      func: InterpFunc) -> None:
        """``pass``, imports, ``global``/``nonlocal`` and ``assert``
        model nothing."""

    def _exec_if(self, stmt: ast.If, scope: Scope,
                 func: InterpFunc) -> None:
        test = self._eval(stmt.test, scope, func)
        if isinstance(test, SymVal):
            value = test.concrete_value()
            if value is None or test.varying:
                self._exec_if_unknown(stmt, test, scope, func)
                return
            test = bool(np.asarray(value))
        if test:
            self._exec_block(stmt.body, scope, func)
        else:
            self._exec_block(stmt.orelse, scope, func)

    def _exec_if_unknown(self, stmt: ast.If, test: SymVal, scope: Scope,
                         func: InterpFunc) -> None:
        """Data-dependent Python ``if``: run both arms on forked
        variable bindings under an unknown divergence mask, then merge
        (identical values survive, conflicting ones go opaque)."""
        if test.taints & {BLOCK_COORD, NTHREADS}:
            self.recorder.hazard(
                "python-if-coord",
                "Python branch on a value derived from block coordinates "
                "(control flow diverges across compiled blocks)")
        base = dict(scope.vars)
        self.ctx.push_unknown_branch()
        try:
            self._exec_block(stmt.body, scope, func)
        finally:
            self.ctx.pop_unknown_branch()
        then_vars = scope.vars
        scope.vars = dict(base)
        self.ctx.push_unknown_branch()
        try:
            self._exec_block(stmt.orelse, scope, func)
        finally:
            self.ctx.pop_unknown_branch()
        else_vars = scope.vars
        merged: Dict[str, object] = {}
        for name in set(then_vars) | set(else_vars):
            a = then_vars.get(name, _MISSING)
            b = else_vars.get(name, _MISSING)
            if a is b or (a is not _MISSING and b is not _MISSING
                          and _same_value(a, b)):
                merged[name] = a
            elif a is _MISSING:
                merged[name] = b
            elif b is _MISSING:
                merged[name] = a
            else:
                sa = as_sym(a) if not callable(a) else None
                kind = sa.kind if isinstance(sa, SymVal) else "float"
                taints = (taints_of(a) if not callable(a) else frozenset()) \
                    | (taints_of(b) if not callable(b) else frozenset())
                merged[name] = SymVal.opaque(kind, taints, True)
        scope.vars = merged

    def _exec_for(self, stmt: ast.For, scope: Scope,
                  func: InterpFunc) -> None:
        iterable = self._eval(stmt.iter, scope, func)
        if isinstance(iterable, SymVal):
            raise AnalysisLimit("iteration over a symbolic value")
        count = 0
        broke = False
        for item in iterable:
            if count >= LOOP_CAP:
                self.recorder.note(
                    f"loop truncated after {LOOP_CAP} iterations")
                break
            count += 1
            self._assign(stmt.target, item, scope, func)
            try:
                self._exec_block(stmt.body, scope, func)
            except _Break:
                broke = True
                break
            except _Continue:
                continue
        if not broke and stmt.orelse:
            self._exec_block(stmt.orelse, scope, func)

    def _exec_while(self, stmt: ast.While, scope: Scope,
                    func: InterpFunc) -> None:
        count = 0
        while True:
            test = self._eval(stmt.test, scope, func)
            if isinstance(test, SymVal):
                value = test.concrete_value()
                if value is None or test.varying:
                    self._exec_unknown_while(stmt, scope, func)
                    return
                test = bool(np.asarray(value))
            if not test:
                break
            if count >= LOOP_CAP:
                self.recorder.note(
                    f"while loop truncated after {LOOP_CAP} iterations")
                break
            count += 1
            try:
                self._exec_block(stmt.body, scope, func)
            except _Break:
                break
            except _Continue:
                continue

    def _exec_unknown_while(self, stmt: ast.While, scope: Scope,
                            func: InterpFunc) -> None:
        self.recorder.note(
            f"data-dependent while loop: analyzed "
            f"{UNKNOWN_WHILE_ITERS} iterations")
        for _ in range(UNKNOWN_WHILE_ITERS):
            try:
                self._exec_block(stmt.body, scope, func)
            except (_Break, _Continue):
                break

    def _exec_with(self, stmt: ast.With, scope: Scope,
                   func: InterpFunc) -> None:
        if len(stmt.items) != 1:
            raise AnalysisLimit("multi-item with statements")
        cm = self._eval(stmt.items[0].context_expr, scope, func)
        if not hasattr(cm, "__enter__"):
            raise AnalysisLimit("with on a non-context-manager value")
        entered = cm.__enter__()
        if stmt.items[0].optional_vars is not None:
            self._assign(stmt.items[0].optional_vars, entered, scope, func)
        try:
            self._exec_block(stmt.body, scope, func)
        finally:
            cm.__exit__(None, None, None)

    #: statement node type -> handler, looked up on the exact type; a
    #: statement of any other type is refused
    _STMTS: Dict[type, Callable[..., None]] = {
        ast.Assign: _exec_assign,
        ast.AugAssign: _exec_augassign,
        ast.AnnAssign: _exec_annassign,
        ast.Expr: _exec_expr,
        ast.If: _exec_if,
        ast.For: _exec_for,
        ast.While: _exec_while,
        ast.With: _exec_with,
        ast.FunctionDef: _exec_def,
        ast.Return: _exec_return,
        ast.Break: _exec_break,
        ast.Continue: _exec_continue,
        ast.Pass: _exec_nothing,
        ast.Import: _exec_nothing,
        ast.ImportFrom: _exec_nothing,
        ast.Global: _exec_nothing,
        ast.Nonlocal: _exec_nothing,
        ast.Assert: _exec_nothing,
    }

    # -- assignment -----------------------------------------------------
    def _assign(self, target: ast.expr, value, scope: Scope,
                func: InterpFunc) -> None:
        if isinstance(target, ast.Name):
            scope.vars[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, SymVal):
                raise AnalysisLimit("tuple-unpacking a symbolic value")
            items = list(value)
            if len(items) != len(target.elts):
                raise AnalysisLimit("unpack arity mismatch")
            for tgt, item in zip(target.elts, items):
                self._assign(tgt, item, scope, func)
        elif isinstance(target, ast.Subscript):
            obj = self._eval(target.value, scope, func)
            index = self._eval(target.slice, scope, func)
            if isinstance(obj, OpaqueData):
                return
            if isinstance(index, SymVal):
                index = int(index)
            try:
                obj[index] = value
            except Exception as exc:
                raise AnalysisLimit(f"subscript store failed: {exc}") \
                    from None
        else:
            raise AnalysisLimit(
                f"unsupported assignment target {type(target).__name__}")

    # -- expression evaluation ------------------------------------------
    def _eval(self, node: ast.expr, scope: Scope, func: InterpFunc) -> Any:
        handler = self._EXPRS.get(type(node))
        if handler is None:
            raise AnalysisLimit(f"unsupported expression "
                                f"{type(node).__name__}")
        return handler(self, node, scope, func)

    def _constant(self, node: ast.Constant, scope: Scope,
                  func: InterpFunc) -> Any:
        return node.value

    def _name(self, node: ast.Name, scope: Scope, func: InterpFunc) -> Any:
        """A name, innermost scope first, then the kernel's globals and
        the builtins; the ``np`` module reads as the shim."""
        name = node.id
        frame: Optional[Scope] = scope
        while frame is not None:
            if name in frame.vars:
                value = frame.vars[name]
                return self.shim if value is np else value
            frame = frame.parent
        if name in func.globals:
            value = func.globals[name]
            return self.shim if value is np else value
        if name in self._builtins:
            return self._builtins[name]
        raise AnalysisLimit(f"unknown name {name!r}")

    def _tuple(self, node: ast.Tuple, scope: Scope,
               func: InterpFunc) -> tuple:
        return tuple(self._eval(e, scope, func) for e in node.elts)

    def _list(self, node: ast.List, scope: Scope, func: InterpFunc) -> list:
        return [self._eval(e, scope, func) for e in node.elts]

    def _dict(self, node: ast.Dict, scope: Scope, func: InterpFunc) -> dict:
        return {self._eval(k, scope, func): self._eval(v, scope, func)
                for k, v in zip(node.keys, node.values)}

    def _binop_expr(self, node: ast.BinOp, scope: Scope,
                    func: InterpFunc) -> Any:
        left = self._eval(node.left, scope, func)
        right = self._eval(node.right, scope, func)
        return self._binop(type(node.op), left, right)

    def _ifexp(self, node: ast.IfExp, scope: Scope, func: InterpFunc) -> Any:
        test = self._eval(node.test, scope, func)
        if isinstance(test, SymVal):
            value = test.concrete_value()
            if value is None or test.varying:
                return _select(test,
                               self._eval(node.body, scope, func),
                               self._eval(node.orelse, scope, func))
            test = bool(np.asarray(value))
        return self._eval(node.body if test else node.orelse, scope, func)

    def _slice(self, node: ast.Slice, scope: Scope,
               func: InterpFunc) -> slice:
        def opt(sub: Optional[ast.expr]) -> Any:
            if sub is None:
                return None
            value = self._eval(sub, scope, func)
            return int(value) if isinstance(value, SymVal) else value
        return slice(opt(node.lower), opt(node.upper), opt(node.step))

    _BINOPS = {
        ast.Add: lambda a, b: a + b,
        ast.Sub: lambda a, b: a - b,
        ast.Mult: lambda a, b: a * b,
        ast.Div: lambda a, b: a / b,
        ast.FloorDiv: lambda a, b: a // b,
        ast.Mod: lambda a, b: a % b,
        ast.Pow: lambda a, b: a ** b,
        ast.LShift: lambda a, b: a << b,
        ast.RShift: lambda a, b: a >> b,
        ast.BitAnd: lambda a, b: a & b,
        ast.BitOr: lambda a, b: a | b,
        ast.BitXor: lambda a, b: a ^ b,
    }

    def _binop(self, op_type, left, right):
        fn = self._BINOPS.get(op_type)
        if fn is None:
            raise AnalysisLimit(f"unsupported operator {op_type.__name__}")
        try:
            return fn(left, right)
        except AnalysisLimit:
            raise
        except Exception as exc:
            raise AnalysisLimit(f"operator failed: {exc}") from None

    def _unaryop(self, node: ast.UnaryOp, scope: Scope, func: InterpFunc):
        value = self._eval(node.operand, scope, func)
        if isinstance(node.op, ast.USub):
            return -value
        if isinstance(node.op, ast.UAdd):
            return +value
        if isinstance(node.op, ast.Invert):
            return ~value
        if isinstance(node.op, ast.Not):
            if isinstance(value, SymVal):
                cv = value.concrete_value()
                if cv is None:
                    return SymVal.opaque("bool", value.taints, value.varying)
                return SymVal(np.logical_not(cv), None, "bool",
                              value.taints, value.varying)
            return not value
        raise AnalysisLimit("unsupported unary operator")

    def _boolop(self, node: ast.BoolOp, scope: Scope, func: InterpFunc):
        is_and = isinstance(node.op, ast.And)
        result = None
        for sub in node.values:
            result = self._eval(sub, scope, func)
            truth = bool(result)    # may raise AnalysisLimit via SymVal
            if is_and and not truth:
                return result
            if not is_and and truth:
                return result
        return result

    _CMPOPS = {
        ast.Lt: lambda a, b: a < b,
        ast.LtE: lambda a, b: a <= b,
        ast.Gt: lambda a, b: a > b,
        ast.GtE: lambda a, b: a >= b,
        ast.Eq: lambda a, b: a == b,
        ast.NotEq: lambda a, b: a != b,
        ast.Is: lambda a, b: a is b,
        ast.IsNot: lambda a, b: a is not b,
        ast.In: lambda a, b: a in b,
        ast.NotIn: lambda a, b: a not in b,
    }

    def _compare(self, node: ast.Compare, scope: Scope, func: InterpFunc):
        left = self._eval(node.left, scope, func)
        result = None
        for op, comparator in zip(node.ops, node.comparators):
            right = self._eval(comparator, scope, func)
            fn = self._CMPOPS.get(type(op))
            if fn is None:
                raise AnalysisLimit(f"unsupported comparison "
                                    f"{type(op).__name__}")
            piece = fn(left, right)
            result = piece if result is None else (result & piece)
            left = right
        return result

    def _call(self, node: ast.Call, scope: Scope, func: InterpFunc):
        self.recorder.current_line = node.lineno + func.line_offset
        callee = self._eval(node.func, scope, func)
        args = []
        for a in node.args:
            if isinstance(a, ast.Starred):
                spread = self._eval(a.value, scope, func)
                if isinstance(spread, SymVal):
                    raise AnalysisLimit("star-unpacking a symbolic value")
                args.extend(spread)
            else:
                args.append(self._eval(a, scope, func))
        kwargs = {kw.arg: self._eval(kw.value, scope, func)
                  for kw in node.keywords if kw.arg is not None}
        # a method of this interpreter's own ctx or shim is called as
        # it is; anything else may be interpreted instead
        if type(callee) is not MethodType or (
                callee.__self__ is not self.ctx
                and callee.__self__ is not self.shim):
            if isinstance(callee, InterpFunc):
                return self._call_interp(callee, args, kwargs)
            if not callable(callee):
                raise AnalysisLimit(f"call of non-callable "
                                    f"{type(callee).__name__}")
            module = getattr(callee, "__module__", "") or ""
            if (module.startswith("repro.")
                    and not module.startswith("repro.analysis")
                    and inspect.isfunction(callee)):
                return self._call_native_function(callee, args, kwargs)
        try:
            return callee(*args, **kwargs)
        except AnalysisLimit:
            raise
        except (_Break, _Continue, _Return):
            raise
        except Exception as exc:
            raise AnalysisLimit(
                f"call to {getattr(callee, '__name__', callee)!r} "
                f"failed: {exc}") from None

    def _attribute(self, node: ast.Attribute, scope: Scope,
                   func: InterpFunc):
        obj = self._eval(node.value, scope, func)
        name = node.attr
        if obj is not self.ctx:
            if isinstance(obj, SymVal):
                if name == "astype":
                    return obj.astype
                raise AnalysisLimit(
                    f"attribute {name!r} on a symbolic value")
            if isinstance(obj, LintArray):
                if name in ("name", "space", "size", "itemsize", "dtype"):
                    value = getattr(obj, name)
                    if name == "size" and value is None:
                        raise AnalysisLimit(
                            f"size of {obj.name!r} not declared in the "
                            f"lint target")
                    return value
                raise AnalysisLimit(f"attribute {name!r} on array marker")
        try:
            value = getattr(obj, name)
        except AttributeError:
            raise AnalysisLimit(
                f"no attribute {name!r} on {type(obj).__name__}") from None
        return self.shim if value is np else value

    def _subscript(self, node: ast.Subscript, scope: Scope,
                   func: InterpFunc):
        obj = self._eval(node.value, scope, func)
        index = self._eval(node.slice, scope, func)
        if isinstance(obj, OpaqueData):
            return obj[index]
        if isinstance(obj, SymVal):
            raise AnalysisLimit("subscript on a symbolic value")
        if isinstance(index, SymVal):
            cv = index.concrete_value()
            if cv is None:
                raise AnalysisLimit("data-dependent subscript on a native "
                                    "container")
            if isinstance(obj, np.ndarray):
                return SymVal(obj[np.asarray(cv)], None,
                              "float" if obj.dtype.kind == "f" else "int",
                              index.taints, True)
            index = int(index)
        try:
            return obj[index]
        except Exception as exc:
            raise AnalysisLimit(f"subscript failed: {exc}") from None

    def _listcomp(self, node: ast.ListComp, scope: Scope,
                  func: InterpFunc):
        if len(node.generators) != 1:
            raise AnalysisLimit("nested comprehensions")
        gen = node.generators[0]
        iterable = self._eval(gen.iter, scope, func)
        if isinstance(iterable, SymVal):
            raise AnalysisLimit("comprehension over a symbolic value")
        out = []
        for item in iterable:
            self._assign(gen.target, item, scope, func)
            keep = True
            for cond in gen.ifs:
                keep = keep and bool(self._eval(cond, scope, func))
            if keep:
                out.append(self._eval(node.elt, scope, func))
        return out

    #: expression node type -> handler, looked up on the exact type; an
    #: expression of any other type is refused
    _EXPRS: Dict[type, Callable[..., Any]] = {
        ast.Constant: _constant,
        ast.Name: _name,
        ast.Tuple: _tuple,
        ast.List: _list,
        ast.Dict: _dict,
        ast.BinOp: _binop_expr,
        ast.UnaryOp: _unaryop,
        ast.BoolOp: _boolop,
        ast.Compare: _compare,
        ast.Call: _call,
        ast.Attribute: _attribute,
        ast.Subscript: _subscript,
        ast.IfExp: _ifexp,
        ast.Slice: _slice,
        ast.ListComp: _listcomp,
    }


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


def _same_value(a, b) -> bool:
    if isinstance(a, SymVal) and isinstance(b, SymVal):
        return a.same_expr(b)
    if isinstance(a, SymVal) or isinstance(b, SymVal):
        return False
    try:
        return bool(np.all(np.asarray(a) == np.asarray(b)))
    except Exception:
        return a is b


def interpret(target: LintTarget, coord: Tuple[int, int, int],
              spec: DeviceSpec = DEFAULT_DEVICE,
              ) -> Tuple[Recorder, LintContext]:
    """Run one sample block; returns the event recorder and context."""
    interp = KernelInterp(target, coord, spec)
    recorder = interp.run()
    return recorder, interp.ctx
