"""Lint targets: concrete geometries the static analyzer runs against.

The analyzer symbolically executes a kernel *for a representative
launch*: a grid/block geometry plus lightweight stand-ins for the
device arrays the kernel would receive.  Each application exposes its
geometries through :meth:`repro.apps.base.Application.lint_targets`,
which returns a list of :class:`LintTarget`.

Array arguments are described with :class:`LintArray` markers — name,
memory space, element count and dtype are all the analyzer needs to
classify access patterns and check static bounds; no data is ever
allocated.  Scalar arguments are passed as plain Python numbers so the
interpreter can evaluate index arithmetic concretely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from ..arch.device import DeviceSpec
    from .census import KernelCensus


@dataclass(frozen=True)
class LintArray:
    """Stand-in for a device array argument of a kernel under analysis."""

    name: str
    space: str = "global"          # global | const | tex
    size: Optional[int] = None     # element count, for bounds checks
    dtype: str = "float32"

    @property
    def itemsize(self) -> int:
        return np.dtype(self.dtype).itemsize

    @property
    def is_integer(self) -> bool:
        return np.dtype(self.dtype).kind in "iu"


def garr(name: str, size: Optional[int] = None,
         dtype: str = "float32") -> LintArray:
    """Global-memory array marker."""
    return LintArray(name, "global", size, dtype)


def carr(name: str, size: Optional[int] = None,
         dtype: str = "float32") -> LintArray:
    """Constant-memory array marker."""
    return LintArray(name, "const", size, dtype)


def tarr(name: str, size: Optional[int] = None,
         dtype: str = "float32") -> LintArray:
    """Texture-memory array marker."""
    return LintArray(name, "tex", size, dtype)


@dataclass(frozen=True)
class LintTarget:
    """One kernel + representative launch geometry to analyze.

    ``args`` mirrors the kernel's positional arguments after ``ctx``:
    :class:`LintArray` markers for arrays, plain numbers/bools for
    scalars.
    """

    kernel: object                  # repro.cuda.launch.Kernel
    grid: Tuple[int, ...]
    block: Tuple[int, ...]
    args: Tuple[object, ...] = field(default_factory=tuple)
    note: str = ""
    #: the census per device that the lint pass
    #: (:func:`repro.analysis.rules.analyze_target`) left for
    #: :func:`repro.analysis.census.census_target`; not part of the
    #: target's identity
    censuses: Dict[DeviceSpec, KernelCensus] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def label(self) -> str:
        name = getattr(self.kernel, "name", str(self.kernel))
        return f"{name}[{self.note}]" if self.note else name
