"""Device memory spaces and host<->device transfers.

The CUDA execution model of the paper keeps the GPU in a *separate
address space*: all data movement is explicit through API calls, and
the cost of those transfers matters (Table 3 reports CPU-GPU transfer
time next to GPU execution time; for H.264 the transfers dominate).

This module provides:

* :class:`Device` — owns a simulated global address space (a bump
  allocator over the 768 MB of DRAM), the transfer ledger, and array
  factories;
* :class:`DeviceArray` — global-memory arrays with real NumPy storage
  *and* simulated byte addresses, so the coalescing model sees the
  exact addresses the kernel generates;
* :class:`ConstantArray` / :class:`TextureArray` — read-only spaces
  routed through the per-SM caches by the kernel DSL;
* :class:`SharedArray` — per-block scratchpad allocated by kernels.

Capacity limits are enforced: allocating beyond DRAM capacity raises
:class:`OutOfDeviceMemory` (this is the mechanism that limits PNS's
thread count in Section 5.1), and constant arrays beyond 64 KB are
rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..arch.device import DeviceSpec, DEFAULT_DEVICE


class OutOfDeviceMemory(MemoryError):
    """Raised when an allocation exceeds the device's DRAM capacity."""


class CudaModelError(RuntimeError):
    """Raised on misuse of the programming model (bad space, OOB, ...)."""


@dataclass
class TransferRecord:
    """One host<->device copy, for the transfer-time ledger."""

    direction: str          # "h2d" or "d2h"
    bytes: int
    seconds: float
    label: str = ""


class DeviceArray:
    """An array resident in simulated global memory.

    Storage is a flat NumPy array (row-major, like CUDA's linear
    global memory); ``shape`` is kept for convenience indexing on the
    host side.  ``base_addr`` is the simulated byte address used by the
    coalescing model.
    """

    space = "global"

    def __init__(self, name: str, data: np.ndarray, base_addr: int) -> None:
        self.name = name
        self.shape = data.shape
        self.data = np.ascontiguousarray(data).reshape(-1)
        self.base_addr = base_addr
        #: True when the contents came from a host copy (``to_device``
        #: and friends); ``alloc``-ed arrays hold the model's zero-fill
        #: that real hardware does not guarantee — the sanitizer's
        #: initcheck shadow bits start from this flag
        self.host_initialized = False

    @property
    def itemsize(self) -> int:
        return int(self.data.itemsize)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def size(self) -> int:
        return int(self.data.size)

    def addresses(self, flat_index: np.ndarray) -> np.ndarray:
        """Simulated byte addresses of the given flat element indices."""
        return self.base_addr + flat_index.astype(np.int64) * self.itemsize

    def check_bounds(self, idx: np.ndarray) -> None:
        """Raise unless every flat index in ``idx`` — the active lanes'
        indices, already gathered — lies inside the array."""
        if idx.size == 1:               # one lane: no reduction
            lo = hi = idx.item()
        elif idx.size:
            lo, hi = idx.min(), idx.max()
        else:
            return
        if lo < 0 or hi >= self.size:
            raise CudaModelError(
                f"out-of-bounds access to {self.name!r}: "
                f"index range [{lo}, {hi}] vs size {self.size}")

    def to_host(self) -> np.ndarray:
        """Host-side view reshaped to the original shape (no transfer
        accounting — use :meth:`Device.from_device` for timed copies)."""
        return self.data.reshape(self.shape)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DeviceArray {self.name!r} shape={self.shape} "
                f"dtype={self.data.dtype} @0x{self.base_addr:x}>")


class ConstantArray(DeviceArray):
    """Read-only data in the 64 KB constant space (cached per SM)."""

    space = "const"


class TextureArray(DeviceArray):
    """Read-only data bound to a texture reference (cached per SM).

    ``pitch`` (row length in elements) is recorded so 2D-local access
    patterns can be generated; the cache model captures the locality.
    """

    space = "tex"

    def __init__(self, name: str, data: np.ndarray, base_addr: int) -> None:
        super().__init__(name, data, base_addr)
        self.pitch = int(data.shape[-1]) if data.ndim >= 2 else int(data.size)


class SharedArray:
    """A per-block shared-memory allocation.

    Word-granular (4 B) offsets are used for bank-conflict analysis.
    Instances are created through
    :meth:`repro.cuda.context.BlockContext.shared_alloc` so that the
    per-block shared-memory footprint is metered against the SM's
    ``spec.shared_mem_per_sm`` (16 KB on the G80, 48 KB on GTX 480).
    """

    space = "shared"

    def __init__(self, name: str, shape: Tuple[int, ...],
                 dtype: np.dtype, word_offset: int) -> None:
        self.name = name
        self.shape = shape
        self.data = np.zeros(int(np.prod(shape)), dtype=dtype)
        self.word_offset = word_offset

    @property
    def itemsize(self) -> int:
        return int(self.data.itemsize)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def size(self) -> int:
        return int(self.data.size)

    def word_indices(self, flat_index: np.ndarray) -> np.ndarray:
        """Shared-memory word offsets for bank-conflict analysis."""
        words_per_elem = max(1, self.itemsize // 4)
        return self.word_offset + flat_index.astype(np.int64) * words_per_elem


class Device:
    """A simulated CUDA device: address space, transfers and arrays."""

    #: allocation alignment, matching cudaMalloc's 256 B alignment
    ALIGN = 256

    def __init__(self, spec: DeviceSpec = DEFAULT_DEVICE) -> None:
        self.spec = spec
        self._next_addr = self.ALIGN
        self._constant_used = 0
        self.arrays: Dict[str, DeviceArray] = {}
        self.transfers: List[TransferRecord] = []
        self._anon = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def _allocate(self, nbytes: int, name: str) -> int:
        aligned = -(-nbytes // self.ALIGN) * self.ALIGN
        if self._next_addr + aligned > self.spec.dram_capacity_bytes:
            raise OutOfDeviceMemory(
                f"cannot allocate {nbytes} B for {name!r}: "
                f"{self._next_addr} B of "
                f"{self.spec.dram_capacity_bytes} B already in use")
        addr = self._next_addr
        self._next_addr += aligned
        return addr

    def _name(self, name: Optional[str]) -> str:
        if name is None:
            self._anon += 1
            name = f"array{self._anon}"
        if name in self.arrays:
            self._anon += 1
            name = f"{name}#{self._anon}"
        return name

    def alloc(self, shape, dtype=np.float32, name: Optional[str] = None
              ) -> DeviceArray:
        """``cudaMalloc`` + zero-fill."""
        name = self._name(name)
        data = np.zeros(shape, dtype=dtype)
        arr = DeviceArray(name, data, self._allocate(data.nbytes, name))
        self.arrays[name] = arr
        return arr

    # ------------------------------------------------------------------
    # Transfers (explicit, timed — the paper's separate-address-space model)
    # ------------------------------------------------------------------
    def _transfer_time(self, nbytes: int, gbs: float) -> float:
        return self.spec.transfer_overhead_s + nbytes / (gbs * 1e9)

    def to_device(self, host: np.ndarray, name: Optional[str] = None
                  ) -> DeviceArray:
        """``cudaMemcpy(HostToDevice)`` with transfer-time accounting."""
        name = self._name(name)
        host = np.asarray(host)
        arr = DeviceArray(name, host.copy(), self._allocate(host.nbytes, name))
        arr.host_initialized = True
        self.arrays[name] = arr
        self.transfers.append(TransferRecord(
            "h2d", int(host.nbytes),
            self._transfer_time(host.nbytes, self.spec.h2d_bandwidth_gbs),
            label=name))
        return arr

    def from_device(self, arr: DeviceArray) -> np.ndarray:
        """``cudaMemcpy(DeviceToHost)`` with transfer-time accounting."""
        self.transfers.append(TransferRecord(
            "d2h", arr.nbytes,
            self._transfer_time(arr.nbytes, self.spec.d2h_bandwidth_gbs),
            label=arr.name))
        return arr.to_host().copy()

    def to_constant(self, host: np.ndarray, name: Optional[str] = None
                    ) -> ConstantArray:
        """``cudaMemcpyToSymbol`` into the 64 KB constant space."""
        host = np.asarray(host)
        if self._constant_used + host.nbytes > self.spec.constant_mem_bytes:
            raise OutOfDeviceMemory(
                f"constant memory overflow: {self._constant_used} + "
                f"{host.nbytes} > {self.spec.constant_mem_bytes} B")
        name = self._name(name)
        arr = ConstantArray(name, host.copy(),
                            self._allocate(host.nbytes, name))
        arr.host_initialized = True
        self._constant_used += host.nbytes
        self.arrays[name] = arr
        self.transfers.append(TransferRecord(
            "h2d", int(host.nbytes),
            self._transfer_time(host.nbytes, self.spec.h2d_bandwidth_gbs),
            label=name))
        return arr

    def to_texture(self, host: np.ndarray, name: Optional[str] = None
                   ) -> TextureArray:
        """Allocate + bind a read-only texture over ``host``'s data."""
        name = self._name(name)
        host = np.asarray(host)
        arr = TextureArray(name, host.copy(), self._allocate(host.nbytes, name))
        arr.host_initialized = True
        self.arrays[name] = arr
        self.transfers.append(TransferRecord(
            "h2d", int(host.nbytes),
            self._transfer_time(host.nbytes, self.spec.h2d_bandwidth_gbs),
            label=name))
        return arr

    # ------------------------------------------------------------------
    # Ledgers
    # ------------------------------------------------------------------
    @property
    def bytes_allocated(self) -> int:
        return self._next_addr - self.ALIGN

    def transfer_seconds(self, direction: Optional[str] = None) -> float:
        return sum(t.seconds for t in self.transfers
                   if direction is None or t.direction == direction)

    def transfer_bytes(self, direction: Optional[str] = None) -> int:
        return sum(t.bytes for t in self.transfers
                   if direction is None or t.direction == direction)

    def reset_transfers(self) -> None:
        self.transfers.clear()

    def free(self, arr: DeviceArray) -> None:
        """``cudaFree``.  The allocator is a bump pointer, so space is
        actually reclaimed only when the most recent allocation is
        freed (the batched-allocation pattern PNS uses); freeing an
        older array just drops the handle.
        """
        self.arrays.pop(arr.name, None)
        aligned = -(-arr.nbytes // self.ALIGN) * self.ALIGN
        if arr.base_addr + aligned == self._next_addr:
            self._next_addr = arr.base_addr

    def reset_constant_space(self) -> None:
        """Release the constant-memory budget so the next chunk of data
        can be staged through ``cudaMemcpyToSymbol`` (applications that
        stream data through constant memory, like CP and the MRI
        kernels, reuse the same symbols each launch)."""
        self._constant_used = 0
