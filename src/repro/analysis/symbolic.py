"""The analyzer's abstract value domain and access-pattern classifiers.

The interpreter executes a kernel for a *concrete representative
block* (sampled grid coordinates, real thread-index vectors), so most
index arithmetic evaluates to exact per-lane integer vectors.  Three
things cannot be concrete and are carried symbolically by
:class:`SymVal`:

* **unknown integers** loaded from memory (e.g. CSR row pointers) —
  kept as affine terms ``sum(coeff * sym)`` over fresh per-lane
  symbols, so stride/modulus structure survives arithmetic;
* **opaque values** (floats, unknown bools) — no structure, only
  provenance;
* **taints** — provenance markers that power the batch-safety rule:
  ``block-coord`` for values derived from ``ctx.bx/by/bz`` and
  ``nthreads`` for values derived from ``ctx.nthreads`` (which widens
  under :class:`~repro.cuda.executors.CompiledExecutor`).

Classifiers at the bottom turn index vectors into coalescing / bank-
conflict verdicts by *reusing the dynamic model* in
:mod:`repro.sim.memsys` — the static verdict and the trace counters
cannot disagree on a concrete pattern by construction.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, Optional, Tuple, Union

import numpy as np

from ..arch.device import DEFAULT_DEVICE, DeviceSpec
from ..sim.memsys import bank_conflict_degrees, coalesce_groups, group_rows

#: taint labels
BLOCK_COORD = "block-coord"
NTHREADS = "nthreads"

_sym_counter = itertools.count(1)


def fresh_sym() -> int:
    """A new unknown per-lane integer symbol."""
    return next(_sym_counter)


class AnalysisLimit(Exception):
    """Raised when the interpreter meets a construct it cannot model;
    caught at statement level and degraded to an ``analysis`` note."""


class SymVal:
    """Abstract value: concrete lanes + affine unknown terms + taints.

    ``lanes`` is a NumPy vector (one entry per thread of the block), a
    scalar, or ``None`` when the value is opaque.  ``terms`` maps
    unknown-symbol ids to integer coefficients; the value denoted is
    ``lanes + sum(coeff * sym)`` where each symbol is an arbitrary
    per-lane integer.  Opaque floats/bools have ``lanes=None`` and no
    terms.
    """

    __slots__ = ("lanes", "terms", "kind", "taints", "varying")

    #: make NumPy defer binary ufuncs to our reflected operators
    __array_ufunc__ = None

    #: shared empty taint set (avoids call-in-default, flake8-bugbear B008)
    NO_TAINTS: FrozenSet[str] = frozenset()

    def __init__(self, lanes, terms: Optional[Dict[int, int]] = None,
                 kind: str = "int",
                 taints: FrozenSet[str] = NO_TAINTS,
                 varying: bool = False) -> None:
        self.lanes = lanes
        self.terms = dict(terms) if terms else {}
        self.kind = kind
        self.taints = frozenset(taints)
        self.varying = bool(varying) or bool(self.terms)

    # -- constructors ---------------------------------------------------
    @classmethod
    def concrete(cls, value, kind: str = "int",
                 taints: FrozenSet[str] = NO_TAINTS) -> "SymVal":
        varying = isinstance(value, np.ndarray) and value.ndim > 0 \
            and value.size > 1 and bool((value != value.flat[0]).any())
        return cls(value, None, kind, taints, varying)

    @classmethod
    def unknown_int(cls, taints: FrozenSet[str] = NO_TAINTS) -> "SymVal":
        return cls(0, {fresh_sym(): 1}, "int", taints, True)

    @classmethod
    def opaque(cls, kind: str = "float",
               taints: FrozenSet[str] = NO_TAINTS,
               varying: bool = True) -> "SymVal":
        return cls(None, None, kind, taints, varying)

    # -- inspection -----------------------------------------------------
    @property
    def is_opaque(self) -> bool:
        return self.lanes is None

    @property
    def is_concrete(self) -> bool:
        return self.lanes is not None and not self.terms

    def concrete_value(self):
        """The concrete lanes when fully known, else ``None``."""
        return self.lanes if self.is_concrete else None

    @property
    def is_scalar(self) -> bool:
        return self.lanes is not None and (
            not isinstance(self.lanes, np.ndarray) or self.lanes.ndim == 0)

    def same_expr(self, other: "SymVal") -> bool:
        """Symbolic identity: provably the same value lane-for-lane."""
        if self.is_opaque or other.is_opaque:
            return False
        if self.terms != other.terms:
            return False
        return bool(np.all(np.asarray(self.lanes) == np.asarray(other.lanes)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.is_opaque:
            return f"SymVal(opaque {self.kind}, taints={set(self.taints)})"
        return (f"SymVal({self.lanes!r} + {self.terms}, kind={self.kind}, "
                f"taints={set(self.taints)})")

    # -- conversions the interpreter polices ---------------------------
    def __bool__(self) -> bool:
        value = self.concrete_value()
        if value is None or self.varying:
            raise AnalysisLimit(
                "truth value of a data-dependent quantity used in Python "
                "control flow")
        return bool(np.asarray(value))

    def __index__(self) -> int:
        value = self.concrete_value()
        if value is None or self.varying:
            raise AnalysisLimit("data-dependent value used where a Python "
                                "int is required")
        return int(np.asarray(value))

    __int__ = __index__

    def __float__(self) -> float:
        value = self.concrete_value()
        if value is None or self.varying:
            raise AnalysisLimit("data-dependent value used where a Python "
                                "float is required")
        return float(np.asarray(value))

    def __iter__(self):
        raise AnalysisLimit("iteration over a per-thread value")

    def __hash__(self):
        raise TypeError("SymVal is unhashable")

    # -- helpers --------------------------------------------------------
    def _join_taints(self, other) -> FrozenSet[str]:
        if isinstance(other, SymVal):
            return self.taints | other.taints
        return self.taints

    def astype(self, dtype) -> "SymVal":
        """Mirror ``ndarray.astype`` on abstract values."""
        kind = "float" if np.dtype(_np_type(dtype)).kind == "f" else "int"
        if self.is_opaque:
            return SymVal.opaque(kind, self.taints, self.varying)
        if kind == "float" and self.kind != "float":
            value = np.asarray(self.lanes).astype(_np_type(dtype)) \
                if not self.terms else None
            if value is None:
                return SymVal.opaque("float", self.taints, self.varying)
            return SymVal(value, None, "float", self.taints, self.varying)
        if kind == "int" and self.kind == "float":
            if self.is_concrete:
                return SymVal(np.asarray(self.lanes).astype(_np_type(dtype)),
                              None, "int", self.taints, self.varying)
            return SymVal.opaque("int", self.taints, self.varying)
        return SymVal(self.lanes, self.terms, self.kind, self.taints,
                      self.varying)

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other):
        return _binop("add", self, other)

    def __radd__(self, other):
        return _binop("add", other, self)

    def __sub__(self, other):
        return _binop("sub", self, other)

    def __rsub__(self, other):
        return _binop("sub", other, self)

    def __mul__(self, other):
        return _binop("mul", self, other)

    def __rmul__(self, other):
        return _binop("mul", other, self)

    def __floordiv__(self, other):
        return _binop("floordiv", self, other)

    def __rfloordiv__(self, other):
        return _binop("floordiv", other, self)

    def __mod__(self, other):
        return _binop("mod", self, other)

    def __rmod__(self, other):
        return _binop("mod", other, self)

    def __truediv__(self, other):
        return _binop("truediv", self, other)

    def __rtruediv__(self, other):
        return _binop("truediv", other, self)

    def __neg__(self):
        return _binop("sub", 0, self)

    def __pos__(self):
        return self

    def __abs__(self):
        if self.is_concrete:
            return SymVal(np.abs(np.asarray(self.lanes)), None, self.kind,
                          self.taints, self.varying)
        return SymVal.opaque(self.kind, self.taints, self.varying)

    def __pow__(self, other):
        return _bitop("pow", self, other)

    def __and__(self, other):
        return _bitop("and", self, other)

    def __rand__(self, other):
        return _bitop("and", other, self)

    def __or__(self, other):
        return _bitop("or", self, other)

    def __ror__(self, other):
        return _bitop("or", other, self)

    def __xor__(self, other):
        return _bitop("xor", self, other)

    def __rxor__(self, other):
        return _bitop("xor", other, self)

    def __lshift__(self, other):
        return _bitop("lshift", self, other)

    def __rlshift__(self, other):
        return _bitop("lshift", other, self)

    def __rshift__(self, other):
        return _bitop("rshift", self, other)

    def __rrshift__(self, other):
        return _bitop("rshift", other, self)

    def __invert__(self):
        if self.kind == "bool":
            if self.is_concrete:
                return SymVal(~np.asarray(self.lanes), None, "bool",
                              self.taints, self.varying)
            return SymVal.opaque("bool", self.taints, self.varying)
        return _bitop("xor", self, -1)

    # -- comparisons ----------------------------------------------------
    def __lt__(self, other):
        return _compare("lt", self, other)

    def __le__(self, other):
        return _compare("le", self, other)

    def __gt__(self, other):
        return _compare("gt", self, other)

    def __ge__(self, other):
        return _compare("ge", self, other)

    def __eq__(self, other):  # noqa: A003 - value semantics intended
        return _compare("eq", self, other)

    def __ne__(self, other):
        return _compare("ne", self, other)


SymLike = Union[SymVal, np.ndarray, int, float, bool, np.generic]


def _np_type(dtype):
    """Unwrap an :class:`NpCaster`-style wrapper to the NumPy type."""
    return getattr(dtype, "np_type", dtype)


def as_sym(value: SymLike) -> SymVal:
    """Wrap a native value into the abstract domain."""
    if isinstance(value, SymVal):
        return value
    arr = np.asarray(value)
    if arr.dtype.kind == "b":
        kind = "bool"
    elif arr.dtype.kind == "f":
        kind = "float"
    else:
        kind = "int"
    return SymVal.concrete(value, kind)


def as_lanes(value: SymLike, shape: Tuple[int, ...],
             dtype: type = np.int64) -> np.ndarray:
    """``value`` as a ``dtype`` array of the lane ``shape``: an operand
    that already has the shape is returned as it is (never written to),
    anything else is broadcast to it."""
    arr = np.asarray(value, dtype=dtype)
    return arr if arr.shape == shape else np.broadcast_to(arr, shape)


def taints_of(value: SymLike) -> FrozenSet[str]:
    return value.taints if isinstance(value, SymVal) else frozenset()


def is_varying(value: SymLike) -> bool:
    if isinstance(value, SymVal):
        return value.varying
    arr = np.asarray(value)
    return arr.ndim > 0 and arr.size > 1 and (arr != arr.flat[0]).any()


def _result_kind(op: str, a: SymVal, b: SymVal) -> str:
    if op == "truediv":
        return "float"
    if a.kind == "float" or b.kind == "float":
        return "float"
    return "int"


#: the NumPy function of each arithmetic, bitwise and comparison op
_ARITH = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
          "floordiv": np.floor_divide, "mod": np.mod,
          "truediv": np.true_divide}
_BITWISE = {"and": np.bitwise_and, "or": np.bitwise_or,
            "xor": np.bitwise_xor, "lshift": np.left_shift,
            "rshift": np.right_shift, "pow": np.power}
_COMPARISONS = {"lt": np.less, "le": np.less_equal, "gt": np.greater,
                "ge": np.greater_equal, "eq": np.equal, "ne": np.not_equal}


def _binop(op: str, left: SymLike, right: SymLike) -> SymVal:
    a, b = as_sym(left), as_sym(right)
    taints = a.taints | b.taints
    varying = a.varying or b.varying
    if (a.lanes is None and a.kind == "float") \
            or (b.lanes is None and b.kind == "float"):
        # an opaque float operand: the float result below, reached early
        # (the census's float ops all take this path)
        return SymVal.opaque("float", taints, varying)
    kind = _result_kind(op, a, b)

    av, bv = a.concrete_value(), b.concrete_value()
    if av is not None and bv is not None:
        try:
            func = _ARITH[op]
            return SymVal(func(np.asarray(av), np.asarray(bv)),
                          None, kind, taints, varying)
        except Exception:
            return SymVal.opaque(kind, taints, varying)

    if kind == "float":
        return SymVal.opaque("float", taints, varying)

    if op in ("add", "sub"):
        if a.is_opaque or b.is_opaque:
            return SymVal.opaque("int", taints, varying)
        sign = 1 if op == "add" else -1
        terms = dict(a.terms)
        for sym, coeff in b.terms.items():
            terms[sym] = terms.get(sym, 0) + sign * coeff
            if terms[sym] == 0:
                del terms[sym]
        lanes = np.asarray(a.lanes) + sign * np.asarray(b.lanes)
        return SymVal(lanes, terms, "int", taints, varying)

    if op == "mul":
        # scaling an affine value by a concrete uniform integer keeps
        # the affine structure; everything else goes opaque
        for affine, scalar in ((a, b), (b, a)):
            sv = scalar.concrete_value()
            if sv is None or affine.is_opaque:
                continue
            sv_arr = np.asarray(sv)
            if sv_arr.ndim > 0 and sv_arr.size > 1 and np.ptp(sv_arr) != 0:
                if not affine.terms:
                    continue  # per-lane scale of affine terms: opaque
                return SymVal.opaque("int", taints, varying)
            factor = int(sv_arr.flat[0]) if sv_arr.ndim else int(sv_arr)
            terms = {sym: coeff * factor
                     for sym, coeff in affine.terms.items() if coeff * factor}
            lanes = np.asarray(affine.lanes) * factor
            return SymVal(lanes, terms, "int", taints, varying)
        return SymVal.opaque("int", taints, varying)

    if op in ("mod", "floordiv"):
        m = b.concrete_value()
        if m is not None and not a.is_opaque:
            m_arr = np.asarray(m)
            if m_arr.ndim == 0 or m_arr.size == 1 or np.ptp(m_arr) == 0:
                mod = int(m_arr.flat[0]) if m_arr.ndim else int(m_arr)
                if mod > 0 and all(c % mod == 0 for c in a.terms.values()):
                    # exact: floor((k*m)u + b, m) = k*u + floor(b, m)
                    if op == "mod":
                        return SymVal(np.asarray(a.lanes) % mod, None,
                                      "int", taints, varying)
                    terms = {sym: coeff // mod
                             for sym, coeff in a.terms.items()
                             if coeff // mod}
                    return SymVal(np.asarray(a.lanes) // mod, terms,
                                  "int", taints, varying)
        return SymVal.opaque("int", taints, varying)

    return SymVal.opaque("int", taints, varying)


def _bitop(op: str, left: SymLike, right: SymLike) -> SymVal:
    a, b = as_sym(left), as_sym(right)
    taints = a.taints | b.taints
    varying = a.varying or b.varying
    av, bv = a.concrete_value(), b.concrete_value()
    kind = "bool" if (a.kind == "bool" and b.kind == "bool"
                      and op in ("and", "or", "xor")) else "int"
    if av is not None and bv is not None:
        func = _BITWISE[op]
        try:
            return SymVal(func(np.asarray(av), np.asarray(bv)), None,
                          kind, taints, varying)
        except Exception:
            return SymVal.opaque(kind, taints, varying)
    return SymVal.opaque(kind, taints, varying)


def _compare(op: str, left: SymLike, right: SymLike) -> SymVal:
    a, b = as_sym(left), as_sym(right)
    taints = a.taints | b.taints
    av, bv = a.concrete_value(), b.concrete_value()
    if av is not None and bv is not None:
        result = _COMPARISONS[op](np.asarray(av), np.asarray(bv))
        return SymVal(result, None, "bool", taints,
                      bool(result.ndim and result.size > 1
                           and result.any() != result.all()))
    return SymVal.opaque("bool", taints, True)


# ----------------------------------------------------------------------
# Access-pattern classification
# ----------------------------------------------------------------------

def classify_global(index: SymLike, mask: Optional[np.ndarray],
                    nthreads: int, itemsize: int = 4,
                    spec: DeviceSpec = DEFAULT_DEVICE,
                    ) -> Tuple[str, Optional[bool]]:
    """Classify a global access index vector per the Section 3.2 rule.

    Returns ``(pattern, coalesced)`` where ``pattern`` is one of
    ``coalesced``, ``broadcast``, ``strided(k)``, ``misaligned``,
    ``irregular`` or ``data-dependent`` and ``coalesced`` is ``None``
    when the verdict cannot be decided statically.
    """
    sym = as_sym(index)
    value = sym.concrete_value()
    if value is None:
        return "data-dependent", None
    lanes = as_lanes(value, (nthreads,))
    active = np.ones(nthreads, dtype=bool) if mask is None \
        else np.asarray(mask, dtype=bool)
    _, _, _, _, coalesced = coalesce_groups(lanes * itemsize, active,
                                            itemsize, spec)
    rows, on = group_rows(lanes, active, spec.coalesce_group)
    counts = on.sum(axis=1)
    # <= 1 active lane costs one transaction either way, which is
    # exactly what a coalesced access costs — not a hazard.
    hazard = ~coalesced & (counts > 1)
    if not hazard.any():
        return "coalesced", True
    rows, on, counts = rows[hazard], on[hazard], counts[hazard]
    # each group's active lanes, in lane order, packed to the left
    packed = np.take_along_axis(
        rows, np.argsort(~on, axis=1, kind="stable"), axis=1)
    steps = np.diff(packed, axis=1)
    stride = steps[:, 0]
    counted = np.arange(1, rows.shape[1]) < counts[:, None]
    uniform = ((steps == stride[:, None]) | ~counted).all(axis=1)
    # rank: broadcast < misaligned < strided < irregular; the worst
    # group decides, the first of equally bad ones names the stride
    rank = np.where(~uniform, 4,
                    np.where(stride == 0, 1, np.where(stride == 1, 2, 3)))
    worst = int(np.argmax(rank))
    return {1: "broadcast", 2: "misaligned",
            3: f"strided({int(stride[worst])})",
            4: "irregular"}[int(rank[worst])], False


def classify_shared(index: SymLike, mask: Optional[np.ndarray],
                    nthreads: int, word_scale: int = 1,
                    word_offset: int = 0,
                    spec: DeviceSpec = DEFAULT_DEVICE,
                    ) -> Tuple[str, Optional[int]]:
    """Bank-conflict verdict for a shared access (Section 5.1).

    Returns ``(pattern, degree)``; ``degree`` is the worst
    access-group conflict degree, or ``None`` when unknown.  A value
    whose unknown terms all carry bank-count-divisible coefficients
    still gets a definite
    *conflict-free* verdict whenever its concrete residues hit
    distinct banks — the unknown parts cannot change the bank.
    """
    sym = as_sym(index)
    if sym.is_opaque:
        return "data-dependent", None
    nbanks = spec.shared_mem_banks
    active = np.ones(nthreads, dtype=bool) if mask is None \
        else np.asarray(mask, dtype=bool)
    value = sym.concrete_value()

    if value is not None:
        words = as_lanes(value, (nthreads,)) * word_scale + word_offset
        degree = max(int(bank_conflict_degrees(words, active, spec).max()), 1)
        return ("conflict-free" if degree <= 1
                else f"{degree}-way"), degree

    # unknown affine terms: banks are decidable iff every coefficient
    # (scaled to words) is a multiple of the bank count
    if any((coeff * word_scale) % nbanks for coeff in sym.terms.values()):
        return "data-dependent", None
    residues = (as_lanes(sym.lanes, (nthreads,)) * word_scale
                + word_offset) % nbanks
    rows, on = group_rows(residues, active, spec.shared_access_group)
    # inactive lanes take distinct out-of-range banks; two active lanes
    # sharing a bank may read different unknown words
    rows = np.sort(np.where(on, rows, nbanks + np.arange(rows.shape[1])),
                   axis=1)
    if (rows[:, 1:] == rows[:, :-1]).any():
        return "data-dependent", None
    return "conflict-free", 1


def cross_lane_disjoint(store: SymLike, store_mask: Optional[np.ndarray],
                        load: SymLike, load_mask: Optional[np.ndarray],
                        nthreads: int) -> bool:
    """True when no lane's load can alias a *different* lane's store.

    Decides the shared-memory race rule: a st→ld pair with no barrier
    is safe iff each thread only reads back what it wrote itself.
    Three decision procedures, in order: symbolic identity, exact
    cross-lane comparison of concrete indices, and a gcd/residue
    argument when unknown terms share a common modulus.
    """
    st, ld = as_sym(store), as_sym(load)
    if st.is_opaque or ld.is_opaque:
        return False
    sm = np.ones(nthreads, dtype=bool) if store_mask is None \
        else np.asarray(store_mask, dtype=bool)
    lm = np.ones(nthreads, dtype=bool) if load_mask is None \
        else np.asarray(load_mask, dtype=bool)

    if st.same_expr(ld):
        return True

    sv, lv = st.concrete_value(), ld.concrete_value()
    if sv is not None and lv is not None:
        s = as_lanes(sv, (nthreads,))
        load_lanes = as_lanes(lv, (nthreads,))
        eq = load_lanes[:, None] == s[None, :]
        eq &= lm[:, None] & sm[None, :]
        np.fill_diagonal(eq, False)
        return not eq.any()

    # gcd/residue privacy: indices are  residue(lane) + multiple-of-g
    coeffs = [c for c in st.terms.values()] + [c for c in ld.terms.values()]
    if not coeffs:
        return False
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    if g <= 1:
        return False
    s_res = as_lanes(st.lanes, (nthreads,)) % g
    l_res = as_lanes(ld.lanes, (nthreads,)) % g
    eq = l_res[:, None] == s_res[None, :]
    eq &= lm[:, None] & sm[None, :]
    np.fill_diagonal(eq, False)
    return not eq.any()
