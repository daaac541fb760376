"""CUDA-like programming model executed on the simulated G80.

Public surface::

    from repro.cuda import Device, Dim3, kernel, launch

    dev = Device()
    x = dev.to_device(np.arange(1024, dtype=np.float32), "x")

    @kernel("scale", regs_per_thread=4)
    def scale(ctx, x, alpha):
        i = ctx.global_tid()
        v = ctx.ld_global(x, i)
        ctx.st_global(x, i, ctx.fmul(v, alpha))

    result = launch(scale, grid=(4,), block=(256,), args=(x, 2.0), device=dev)
    result.gflops()        # analytical performance estimate
    dev.from_device(x)     # timed copy back
"""

from .dim3 import Dim3, as_dim3
from .memory import (
    ConstantArray,
    CudaModelError,
    Device,
    DeviceArray,
    OutOfDeviceMemory,
    SharedArray,
    TextureArray,
    TransferRecord,
)
from .context import BlockContext
from .launch import Kernel, LaunchResult, kernel, launch
from .plan import LaunchPlan
from .executors import (
    CompiledExecutor,
    Executor,
    SequentialExecutor,
    choose_executor,
    resolve_executor,
)

__all__ = [
    "Dim3",
    "as_dim3",
    "Device",
    "DeviceArray",
    "ConstantArray",
    "TextureArray",
    "SharedArray",
    "TransferRecord",
    "CudaModelError",
    "OutOfDeviceMemory",
    "BlockContext",
    "Kernel",
    "LaunchResult",
    "kernel",
    "launch",
    "LaunchPlan",
    "Executor",
    "SequentialExecutor",
    "CompiledExecutor",
    "choose_executor",
    "resolve_executor",
]
