"""The kernel front end: the one reader of a kernel's source.

Every static view of a kernel starts from the source read here: the
abstract interpreter, the liveness register estimate, the IR and its
uniformity dataflow, the lowering, and the program and artifact
caches, as the paper's optimization verdicts start from one reading of
a kernel's PTX.  The source is read once per code object, which every
closure of a ``def`` shares.  What depends on the source alone (the IR,
the uniformity verdicts) is memoized on that entry; what also depends
on the closure (the lowered program) is keyed by :func:`fingerprint`.
Each consumer keeps its own failure mode for :data:`SOURCE_ERRORS`.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import textwrap
import types
from dataclasses import dataclass, field
from functools import cached_property
from typing import (Callable, Dict, Hashable, Optional, Tuple, Type,
                    TypeVar, cast)

import numpy as np

__all__ = ["KernelSource", "SOURCE_ERRORS", "closure_env", "fingerprint",
           "kernel_source"]

#: ``OSError``/``TypeError``: the source cannot be read (``inspect``'s
#: own errors); ``ValueError``: it is not a plain ``def``
SOURCE_ERRORS: Tuple[Type[Exception], ...] = (OSError, TypeError, ValueError)

#: entries kept before the memo starts over
_MAX_SOURCES = 1024

#: closure value types whose ``repr`` is their exact value
_REPR_EXACT = (type(None), bool, int, float, complex, str, bytes)

T = TypeVar("T")


@dataclass(frozen=True)
class KernelSource:
    """The source of one function: its dedented text (decorators
    included) and the offset that makes a node's line absolute
    (``offset + node.lineno``)."""

    code: types.CodeType
    text: str
    offset: int
    _derived: Dict[Hashable, object] = field(
        default_factory=dict, repr=False, compare=False)

    @cached_property
    def fdef(self) -> ast.FunctionDef:
        """The parsed ``def``, on first use (a fingerprint needs only the
        text).  Shared by every consumer: one that rewrites it works on
        a copy."""
        try:
            fdef = ast.parse(self.text).body[0]
        except (SyntaxError, IndexError):
            fdef = None
        if not isinstance(fdef, ast.FunctionDef):
            raise ValueError(
                f"{self.code.co_name!r} is not a plain function definition")
        return fdef

    def derive(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, once per code object: the memo for results that
        depend on the source alone."""
        if key not in self._derived:
            self._derived[key] = build()
        return cast(T, self._derived[key])


#: ``id(code) -> entry``; the entry holds its code object, so neither a
#: reused id nor a reloaded module's new code is served a stale entry
_SOURCES: Dict[int, KernelSource] = {}


def _function(fn: object) -> types.FunctionType:
    fn = getattr(fn, "fn", fn)          # unwrap a Kernel
    if not isinstance(fn, types.FunctionType):
        raise TypeError(f"{fn!r} is not a Python function")
    return fn


def kernel_source(fn: object) -> KernelSource:
    """The source of a function or ``Kernel``, read once per code
    object; raises one of :data:`SOURCE_ERRORS`, as does its ``fdef``."""
    fn = _function(fn)
    entry = _SOURCES.get(id(fn.__code__))
    if entry is None:
        lines, start = inspect.getsourcelines(fn)
        if len(_SOURCES) >= _MAX_SOURCES:
            _SOURCES.clear()
        entry = _SOURCES[id(fn.__code__)] = KernelSource(
            fn.__code__, textwrap.dedent("".join(lines)), start - 1)
    return entry


def closure_env(fn: object) -> Dict[str, object]:
    """The closure cell values of a function or ``Kernel`` by name."""
    fn = _function(fn)
    return dict(zip(fn.__code__.co_freevars,
                    (cell.cell_contents for cell in fn.__closure__ or ())))


def fingerprint(fn: object) -> Optional[str]:
    """The content key of a function or ``Kernel``: its qualified name,
    its source and every closure value.  Function-valued cells add their
    own source and closure, recursively; arrays and NumPy scalars their
    dtype, shape and bytes; tuples their items; exact scalars, types,
    modules and dtypes their ``repr``.  ``None`` when the source is
    unavailable or a value has no faithful encoding (a list, an object
    with a default ``repr``): such a kernel is cached nowhere."""
    digest = hashlib.sha256()
    try:
        _feed(digest.update, _function(fn), {})
    except SOURCE_ERRORS:
        return None
    return digest.hexdigest()


def _feed(feed: Callable[[bytes], None], value: object,
          seen: Dict[int, int]) -> None:
    if isinstance(value, types.FunctionType):
        if id(value) in seen:            # a helper that calls itself
            feed(f"<function {seen[id(value)]}>".encode())
            return
        seen[id(value)] = len(seen)
        text = kernel_source(value).text
        env = closure_env(value)
        feed(f"<function {value.__module__}.{value.__qualname__} "
             f"{len(text)}:{text}{len(env)}:".encode())
        for name, cell in env.items():
            feed(f"\n{name}=".encode())
            _feed(feed, cell, seen)
    elif type(value) is np.ndarray or isinstance(value, np.generic):
        array = np.asarray(value)
        if array.dtype.hasobject:
            raise ValueError("an object array has no faithful encoding")
        feed(f"{type(value).__name__} {array.dtype.str} {array.shape}:"
             .encode() + np.ascontiguousarray(array).tobytes())
    elif type(value) is tuple:
        items = cast(Tuple[object, ...], value)
        feed(f"tuple {len(items)}(".encode())
        for item in items:
            _feed(feed, item, seen)
            feed(b",")
        feed(b")")
    elif type(value) in _REPR_EXACT \
            or isinstance(value, (type, types.ModuleType, np.dtype)):
        feed(f"{type(value).__name__} {value!r}".encode())
    else:
        raise ValueError(
            f"a {type(value).__name__} value has no faithful encoding")
