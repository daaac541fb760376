"""On-disk artifact cache for compiled grid programs.

A :class:`CompiledProgram` is ordinary Python: a handful of function
objects produced by ``exec`` of lowered ASTs, each with a private
globals dict holding its constant bindings and helper callables.  That
makes the whole program serializable with the standard library —
``marshal`` for the code objects, ``pickle`` for the constant
bindings — so a cold process can skip lowering (source fetch, AST
rewrite, the R8 uniformity dataflow, ``compile``) entirely and
rebuild the program from bytes.

Cache key
    ``sha256(kernel name, device name, arg signature, compiler
    version, python version)`` names the file; the kernel's *source
    fingerprint* (entry source + closure cell values, including the
    sources of function-valued cells) is stored inside the artifact
    and checked on load.  A fingerprint mismatch means the kernel
    changed since the artifact was written: the stale file is deleted,
    the ``artifact.invalidated`` counter bumps, and the kernel is
    recompiled (and re-cached).  Unreadable files are treated the same
    way (``artifact.corrupt``).

Activation
    :func:`active_artifact_cache` returns the process-wide cache: the
    one installed programmatically (:func:`install_artifact_cache` /
    :func:`use_artifact_cache`) or, failing that, the directory named
    by the ``REPRO_AOT_CACHE`` environment variable.  With no cache
    active, :func:`repro.compile.get_program` behaves exactly as
    before (in-memory memoization only).
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import marshal
import os
import pickle
import sys
import types
from collections import Counter
from typing import Dict, Optional, Tuple

from .lower import CompileError
from .program import CompiledProgram

__all__ = ["ArtifactCache", "COMPILER_VERSION", "active_artifact_cache",
           "artifact_key", "install_artifact_cache", "kernel_fingerprint",
           "use_artifact_cache"]

#: bump when the lowering or the artifact layout changes shape — old
#: artifacts become unreachable (different file names) rather than
#: wrongly loaded
COMPILER_VERSION = 1

#: serialized payload layout version (checked on load)
_FORMAT = 1


def kernel_fingerprint(kernel) -> str:
    """Content hash of everything that determines the lowered program:
    the kernel function's source plus its closure cell values (kernel
    factories like ``lbm_step_kernel(layout)`` share one source but
    close over different constants).  Function-valued cells contribute
    their own source.  Raises :class:`CompileError` when the source is
    unavailable (interactively defined kernels are not cacheable)."""
    fn = kernel.fn
    h = hashlib.sha256()
    try:
        h.update(inspect.getsource(fn).encode())
    except (OSError, TypeError) as exc:
        raise CompileError(
            f"source of {fn.__name__!r} unavailable: {exc}") from None
    if fn.__closure__:
        for name, cell in zip(fn.__code__.co_freevars, fn.__closure__):
            value = cell.cell_contents
            if isinstance(value, types.FunctionType):
                try:
                    part = inspect.getsource(value)
                except (OSError, TypeError):
                    part = repr(value.__code__.co_code)
            else:
                part = repr(value)
            h.update(f"{name}={part}\n".encode())
    return h.hexdigest()


def artifact_key(kernel, device_name: str = "",
                 signature: Tuple = ()) -> str:
    """File-name key: kernel identity + launch context + toolchain.

    The source fingerprint deliberately stays *out* of the key (and
    *inside* the payload) so an edited kernel maps to the same file —
    that is what makes staleness detectable as an invalidation rather
    than a silent miss.
    """
    h = hashlib.sha256()
    h.update(repr((kernel.name, device_name, signature,
                   COMPILER_VERSION, sys.version_info[:2])).encode())
    return h.hexdigest()[:32]


def _encode_const(value):
    """Modules pickle by reference only through importlib — encode them
    as names.  Everything else in ``_CONST_TYPES`` pickles directly."""
    if isinstance(value, types.ModuleType):
        return ("__module__", value.__name__)
    return ("__value__", value)


def _decode_const(tagged):
    tag, payload = tagged
    if tag == "__module__":
        import importlib
        return importlib.import_module(payload)
    return payload


def _dump_program(program: CompiledProgram) -> bytes:
    """Serialize a program: per-function marshalled code + pickled
    constant bindings + helper wiring."""
    functions: Dict[str, dict] = {}

    def visit(fn) -> None:
        name = fn.__name__
        if name in functions:
            return
        consts = {}
        helpers = []
        for key, value in fn.__globals__.items():
            if key in ("__builtins__", "__np") or key == name:
                continue
            if isinstance(value, types.FunctionType):
                helpers.append(key)
            else:
                consts[key] = _encode_const(value)
        functions[name] = {
            "code": marshal.dumps(fn.__code__),
            "consts": consts,
            "helpers": helpers,
            "uses_np": "__np" in fn.__globals__,
        }
        for key in helpers:
            visit(fn.__globals__[key])

    visit(program.entry)
    payload = {
        "format": _FORMAT,
        "python": sys.version_info[:2],
        "compiler": COMPILER_VERSION,
        "kernel_name": program.kernel_name,
        "entry": program.entry.__name__,
        "source": program.source,
        "sync_points": program.sync_points,
        "lowered_ops": program.lowered_ops,
        "helpers": program.helpers,
        "functions": functions,
    }
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def _load_program(payload: dict) -> CompiledProgram:
    """Rebuild a program from a :func:`_dump_program` payload."""
    from .runtime import NP_SHIM
    import builtins
    if payload.get("format") != _FORMAT \
            or tuple(payload.get("python", ())) != sys.version_info[:2] \
            or payload.get("compiler") != COMPILER_VERSION:
        raise ValueError("artifact toolchain mismatch")
    fns: Dict[str, types.FunctionType] = {}
    for name, rec in payload["functions"].items():
        bindings: Dict[str, object] = {"__builtins__": builtins}
        if rec["uses_np"]:
            bindings["__np"] = NP_SHIM
        for key, tagged in rec["consts"].items():
            bindings[key] = _decode_const(tagged)
        fn = types.FunctionType(marshal.loads(rec["code"]), bindings, name)
        bindings[name] = fn
        fns[name] = fn
    for name, rec in payload["functions"].items():
        for helper in rec["helpers"]:
            fns[name].__globals__[helper] = fns[helper]
    return CompiledProgram(
        kernel_name=payload["kernel_name"],
        entry=fns[payload["entry"]],
        source=payload["source"],
        sync_points=payload["sync_points"],
        lowered_ops=payload["lowered_ops"],
        helpers=payload["helpers"])


class ArtifactCache:
    """Directory of serialized :class:`CompiledProgram` artifacts.

    ``stats`` counts hits/misses/writes/invalidations and unwritable
    stores locally (always, so tests need no registry); the same events
    feed the ambient metrics registry as ``artifact.*`` counters when it
    is enabled.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.stats: Counter = Counter()

    # -- paths ---------------------------------------------------------
    def path_for(self, kernel, device_name: str = "",
                 signature: Tuple = ()) -> str:
        return os.path.join(
            self.root, artifact_key(kernel, device_name, signature) + ".aot")

    def _count(self, event: str, kernel_name: str) -> None:
        self.stats[event] += 1
        from ..obs.registry import get_registry
        registry = get_registry()
        if registry.enabled:
            registry.counter(f"artifact.{event}",
                             kernel=kernel_name).inc()

    # -- store ---------------------------------------------------------
    def store(self, kernel, program: CompiledProgram,
              device_name: str = "", signature: Tuple = ()) -> bool:
        """Write one artifact (atomic rename); returns False when the
        kernel or one of its constants is unserializable, or when the
        cache directory cannot be written (the caller keeps using its
        in-memory program)."""
        try:
            fingerprint = kernel_fingerprint(kernel)
            blob = pickle.dumps(
                {"fingerprint": fingerprint,
                 "program": _dump_program(program)},
                protocol=pickle.HIGHEST_PROTOCOL)
        except (CompileError, ValueError, TypeError, pickle.PicklingError,
                AttributeError):
            self._count("unserializable", kernel.name)
            return False
        path = self.path_for(kernel, device_name, signature)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(self.root, exist_ok=True)
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            self._discard(tmp)
            self._count("unwritable", kernel.name)
            return False
        self._count("writes", kernel.name)
        return True

    # -- load ----------------------------------------------------------
    def load(self, kernel, device_name: str = "",
             signature: Tuple = ()) -> Optional[CompiledProgram]:
        """Load one artifact; ``None`` on miss, corruption or staleness
        (the latter two delete the bad file so the rewrite is clean)."""
        path = self.path_for(kernel, device_name, signature)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            self._count("misses", kernel.name)
            return None
        try:
            wrapper = pickle.loads(blob)
            fingerprint = wrapper["fingerprint"]
            current = kernel_fingerprint(kernel)
        except Exception:
            self._count("corrupt", kernel.name)
            self._discard(path)
            return None
        if fingerprint != current:
            self._count("invalidated", kernel.name)
            self._discard(path)
            return None
        try:
            program = _load_program(pickle.loads(wrapper["program"]))
        except Exception:
            self._count("corrupt", kernel.name)
            self._discard(path)
            return None
        self._count("cold_hits", kernel.name)
        return program

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------

_ACTIVE: Optional[ArtifactCache] = None
_INSTALLED = False       # programmatic install overrides the env var


def active_artifact_cache() -> Optional[ArtifactCache]:
    """The installed cache, else one rooted at ``$REPRO_AOT_CACHE``."""
    global _ACTIVE
    if _INSTALLED:
        return _ACTIVE
    root = os.environ.get("REPRO_AOT_CACHE")
    if not root:
        return None
    if _ACTIVE is None or _ACTIVE.root != root:
        _ACTIVE = ArtifactCache(root)
    return _ACTIVE


def install_artifact_cache(cache: Optional[ArtifactCache]
                           ) -> Optional[ArtifactCache]:
    """Install (or, with ``None``, clear back to env-var behaviour)
    the process-wide artifact cache; returns the previous one."""
    global _ACTIVE, _INSTALLED
    previous = _ACTIVE if _INSTALLED else None
    if cache is None:
        _ACTIVE, _INSTALLED = None, False
    else:
        _ACTIVE, _INSTALLED = cache, True
    return previous


@contextlib.contextmanager
def use_artifact_cache(cache: Optional[ArtifactCache]):
    """Scoped :func:`install_artifact_cache` (tests)."""
    global _ACTIVE, _INSTALLED
    prev = (_ACTIVE, _INSTALLED)
    _ACTIVE, _INSTALLED = cache, True
    try:
        yield cache
    finally:
        _ACTIVE, _INSTALLED = prev
