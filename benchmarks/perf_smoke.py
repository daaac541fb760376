"""Pipeline perf smoke: 512^3 functional matmul, sequential vs compiled.

Times the full functional sweep (1024 blocks of 256 threads) of the
``tiled_unrolled`` kernel under the reference ``SequentialExecutor``
and the AOT ``CompiledExecutor`` using the observability layer's span
tracer (no hand-rolled ``perf_counter`` pairs), checks both device
results are bit-identical, and writes ``BENCH_pipeline.json`` at the
repo root with the per-stage pipeline breakdown of each backend, read
off the children of its ``launch.*`` span (``plan`` is its
``plan.build`` child; ``execute`` and ``finalize`` are the launch
record's split of its ``executor.<name>`` child), plus the
profiler-overhead measurement.
CI gates on the compiled backend clearing >= 20x over sequential; the
<5% profiler-overhead gate runs in the dedicated ``obs-profile`` CI
job (``profile_report --overhead-gate``).

Run as ``PYTHONPATH=src python benchmarks/perf_smoke.py``.

``--aot`` runs the whole-application AOT module smoke instead: the
launch-sequence fusion sweep (per-launch compiled execution vs the
fused :class:`~repro.compile.module.CompiledModule` path for LBM, FDTD
and MRI-Q on both device generations, bit-identity checked) plus the
cold-start benchmark (subprocesses timing program acquisition with no
artifact cache, a cold cache being populated, and a warm cache).  It
writes ``BENCH_compile.json`` and gates on fused >= 1.3x over
per-launch execution for at least one time-sliced app and on the warm
artifact cache making cold-process startup >= 5x faster than lowering
from source.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.arch.device import DEFAULT_DEVICE
from repro.arch.registry import device_by_name
from repro.cuda import CompiledExecutor, Device, SequentialExecutor, launch
from repro.apps.matmul import MatMul, build_kernel
from repro.bench.profile_report import measure_overhead
from repro.obs import SpanTracer, use_tracer

N = 512
TILE = 16
COMPILED_VS_SEQ_FLOOR = 20.0

#: --aot gates
FUSED_SPEEDUP_FLOOR = 1.3          # on at least one time-sliced app
COLD_START_FLOOR = 5.0             # lowering / warm-artifact-load


def run_provenance():
    """Provenance stamp for the bench envelopes: the git sha of this
    script's checkout (wherever it is run from) + UTC timestamp."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=True,
            cwd=Path(__file__).resolve().parent).stdout.strip()
    except Exception:
        sha = "unknown"
    return {
        "git_sha": sha,
        "timestamp": datetime.now(timezone.utc)
        .isoformat(timespec="seconds"),
    }


def _one(tracer, executor, label, a, b):
    dev = Device()
    d_a = dev.to_device(a, "A")
    d_b = dev.to_device(b, "B")
    d_c = dev.alloc((N, N), np.float32, "C")
    kern = build_kernel("tiled_unrolled", TILE)
    with tracer.span(label) as node:
        result = launch(kern, (N // TILE, N // TILE), (TILE, TILE),
                        (d_a, d_b, d_c, N), device=dev, executor=executor)
    (plan,) = [child for child in node.children if child.name == "plan.build"]
    stages = {"plan": plan.seconds, **result.profile().stage_seconds}
    return node.seconds, stages, d_c.to_host().copy()


def main() -> int:
    a, b = MatMul()._inputs(N)
    tracer = SpanTracer()
    with use_tracer(tracer):
        seq_wall, seq_stages, seq_c = _one(
            tracer, SequentialExecutor(), "launch.sequential", a, b)
        # warm compile once so the timed run measures execution, not
        # the one-off AST lowering (cached per kernel function)
        _one(tracer, CompiledExecutor(), "launch.compiled_warm", a, b)
        comp_wall, comp_stages, comp_c = _one(
            tracer, CompiledExecutor(), "launch.compiled", a, b)
    identical = bool(np.array_equal(seq_c, comp_c))
    comp_vs_seq = seq_wall / comp_wall if comp_wall > 0 else 0.0
    overhead = measure_overhead()

    def round_stages(s):
        return {k: round(v, 4) for k, v in s.items()}
    report = {
        "benchmark": "pipeline_perf_smoke",
        "workload": f"matmul {N}^3 functional, tiled_unrolled {TILE}x{TILE}",
        "device": DEFAULT_DEVICE.name,
        **run_provenance(),
        "sequential_seconds": round(seq_wall, 3),
        "compiled_seconds": round(comp_wall, 3),
        "sequential_stage_seconds": round_stages(seq_stages),
        "compiled_stage_seconds": round_stages(comp_stages),
        "compiled_speedup_vs_sequential": round(comp_vs_seq, 2),
        "compiled_vs_sequential_floor": COMPILED_VS_SEQ_FLOOR,
        "bit_identical": identical,
        "checksum": float(np.abs(comp_c).sum()),
        "profiler_overhead": overhead,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(tracer.format_tree())

    if not identical:
        print("FAIL: backend results differ bitwise", file=sys.stderr)
        return 1
    if comp_vs_seq < COMPILED_VS_SEQ_FLOOR:
        print(f"FAIL: compiled speedup {comp_vs_seq:.2f}x < "
              f"{COMPILED_VS_SEQ_FLOOR}x floor vs sequential",
              file=sys.stderr)
        return 1
    print(f"OK: compiled {comp_vs_seq:.2f}x over sequential, "
          f"bit-identical")
    return 0


# ----------------------------------------------------------------------
# --aot: AOT module fusion sweep + artifact-cache cold-start benchmark
# ----------------------------------------------------------------------

#: (app name, class path, perf workload) for the fusion sweep
AOT_APPS = [
    ("lbm", "repro.apps.lbm", "Lbm",
     {"nx": 128, "ny": 128, "steps": 8, "total_steps": 100,
      "layout": "soa"}),
    ("fdtd", "repro.apps.fdtd", "Fdtd",
     {"nx": 128, "ny": 128, "steps": 8, "total_steps": 100}),
    ("mri-q", "repro.apps.mri_q", "MriQ",
     {"nvoxels": 8192, "nsamples": 2048}),
]

AOT_DEVICES = ("geforce_8800_gtx", "gtx_480")

#: cold-start child: time program acquisition for the suite's AOT
#: kernels in a fresh interpreter (lowering from source without a
#: cache; artifact load with a warm one)
_COLD_SCRIPT = """\
import json
from time import perf_counter
from repro.apps.fdtd import fdtd_e_kernel, fdtd_h_kernel
from repro.apps.lbm import lbm_step_kernel
from repro.apps.matmul import build_kernel
from repro.apps.mri_fhd import mri_fhd_kernel
from repro.apps.mri_q import mri_q_kernel
from repro.compile import active_artifact_cache, get_program

kernels = [lbm_step_kernel(layout) for layout in ("aos", "soa", "texture")]
kernels += [fdtd_h_kernel(), fdtd_e_kernel(),
            mri_q_kernel(), mri_fhd_kernel(),
            build_kernel("tiled_unrolled", 16), build_kernel("prefetch", 16)]
t0 = perf_counter()
for kern in kernels:
    get_program(kern, ("bench", ()))
seconds = perf_counter() - t0
cache = active_artifact_cache()
print(json.dumps({"seconds": seconds, "kernels": len(kernels),
                  "stats": dict(cache.stats) if cache else {}}))
"""


def _fusion_row(module, cls_name, workload, device_name):
    """Time one app's per-launch compiled run vs its fused module run
    (both warmed so the artifact cache absorbs kernel lowering)."""
    import importlib
    app_cls = getattr(importlib.import_module(module), cls_name)
    spec = device_by_name(device_name)

    def unfused():
        app = app_cls(spec)
        app.executor = "compiled"
        return app.run(dict(workload), functional=True)

    def fused():
        return app_cls(spec).run_module(dict(workload))

    unfused()                               # warm the artifact cache
    t0 = perf_counter()
    run_u = unfused()
    t1 = perf_counter()
    fused()
    t2 = perf_counter()
    run_f = fused()
    t3 = perf_counter()

    identical = set(run_u.outputs) == set(run_f.outputs) and all(
        np.array_equal(run_u.outputs[k], run_f.outputs[k])
        for k in run_u.outputs)
    unfused_s, fused_s = t1 - t0, t3 - t2
    stats = run_f.module.stats if run_f.module is not None else {}
    return {
        "app": run_f.app,
        "device": device_name,
        "workload": {k: v for k, v in workload.items()},
        "unfused_seconds": round(unfused_s, 3),
        "fused_seconds": round(fused_s, 3),
        "fused_speedup": round(unfused_s / fused_s, 2) if fused_s else 0.0,
        "modeled_gflops": round(run_f.gpu_gflops, 2),
        "effective_unfused_gflops": round(
            run_u.merged_trace.flops * run_u.time_steps_scale
            / unfused_s / 1e9, 3) if unfused_s else 0.0,
        "effective_fused_gflops": round(
            run_f.merged_trace.flops * run_f.time_steps_scale
            / fused_s / 1e9, 3) if fused_s else 0.0,
        "fuse_applied": stats.get("fuse_applied", 0),
        "trace_replays": stats.get("trace_replays", 0),
        "fallback_launches": stats.get("fallback_launches", 0),
        "bit_identical": identical,
    }


def _cold_start(cache_dir: str) -> dict:
    """Three fresh interpreters: lowering (no cache), cache-populating
    store, warm artifact load."""
    base = dict(os.environ,
                PYTHONPATH=str(Path(__file__).resolve().parent.parent
                               / "src"))
    base.pop("REPRO_AOT_CACHE", None)

    def child(env):
        proc = subprocess.run([sys.executable, "-c", _COLD_SCRIPT],
                              env=env, capture_output=True, text=True,
                              check=True)
        return json.loads(proc.stdout)

    uncached = child(base)
    cached_env = dict(base, REPRO_AOT_CACHE=cache_dir)
    populate = child(cached_env)
    warm = child(cached_env)
    ratio = uncached["seconds"] / warm["seconds"] \
        if warm["seconds"] > 0 else 0.0
    return {
        "kernels": uncached["kernels"],
        "uncached_lowering_seconds": round(uncached["seconds"], 3),
        "cache_populate_seconds": round(populate["seconds"], 3),
        "warm_cache_seconds": round(warm["seconds"], 3),
        "cold_start_speedup": round(ratio, 2),
        "warm_cold_hits": warm["stats"].get("cold_hits", 0),
        "populate_writes": populate["stats"].get("writes", 0),
    }


def aot_main() -> int:
    from repro.compile import ArtifactCache, use_artifact_cache

    with tempfile.TemporaryDirectory(prefix="repro-aot-") as tmp:
        with use_artifact_cache(ArtifactCache(os.path.join(tmp, "fuse"))):
            rows = [_fusion_row(module, cls_name, wl, device)
                    for _, module, cls_name, wl in AOT_APPS
                    for device in AOT_DEVICES]
        cold = _cold_start(os.path.join(tmp, "cold"))

    sliced = [r for r in rows if r["app"] in ("lbm", "fdtd")]
    best = max(r["fused_speedup"] for r in sliced)
    report = {
        "benchmark": "aot_module_smoke",
        **run_provenance(),
        "fusion": rows,
        "fused_speedup_best": best,
        "fused_speedup_floor": FUSED_SPEEDUP_FLOOR,
        "cold_start": cold,
        "cold_start_floor": COLD_START_FLOOR,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_compile.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    broken = [r for r in rows if not r["bit_identical"]]
    if broken:
        print(f"FAIL: fused results differ bitwise for "
              f"{[r['app'] for r in broken]}", file=sys.stderr)
        return 1
    if best < FUSED_SPEEDUP_FLOOR:
        print(f"FAIL: best fused speedup {best:.2f}x < "
              f"{FUSED_SPEEDUP_FLOOR}x floor", file=sys.stderr)
        return 1
    if cold["cold_start_speedup"] < COLD_START_FLOOR:
        print(f"FAIL: warm-cache cold start {cold['cold_start_speedup']:.2f}x "
              f"< {COLD_START_FLOOR}x floor over lowering", file=sys.stderr)
        return 1
    print(f"OK: fused {best:.2f}x best over per-launch, warm cache "
          f"{cold['cold_start_speedup']:.2f}x faster cold start, "
          f"bit-identical")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--aot", action="store_true",
                        help="run the AOT module / artifact-cache smoke "
                             "instead of the pipeline smoke")
    cli = parser.parse_args()
    sys.exit(aot_main() if cli.aot else main())
