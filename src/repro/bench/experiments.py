"""Experiment runners: one function per paper table/figure.

Each ``run_*`` function executes the relevant simulations and returns a
:class:`ExperimentResult` whose rows place our measurement next to the
paper's reported value (with provenance marks from
:mod:`repro.data.paper`).  The ``benchmarks/`` tree wraps these in
pytest-benchmark targets that write ``benchmarks/out/*.txt``, the
files EXPERIMENTS.md quotes; the ``examples/`` scripts call them
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..arch import DEFAULT_DEVICE
from ..apps.matmul import MatMul
from ..apps.lbm import Lbm
from ..apps.registry import get_app, suite_names
from ..data import paper
from ..sim.bounds import analyze_bounds
from .tables import format_table


@dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure plus free-form notes."""

    exp_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        out = format_table(self.headers, self.rows,
                           title=f"{self.exp_id}: {self.title}")
        if self.notes:
            out += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return out


# ----------------------------------------------------------------------
# Table 1 — memory spaces
# ----------------------------------------------------------------------

def run_table1() -> ExperimentResult:
    from ..arch.memory_table import memory_table, HEADERS
    rows = [info.row() for info in memory_table(DEFAULT_DEVICE)]
    return ExperimentResult("Table 1", "GeForce 8800 memory spaces",
                            HEADERS, rows)


# ----------------------------------------------------------------------
# Section 4 — the four matmul anchors
# ----------------------------------------------------------------------

def run_section4(n: int = 4096, trace_blocks: int = 2,
                 executor=None) -> ExperimentResult:
    app = MatMul()
    if executor is not None:
        app.executor = executor
    rows = []
    for variant in ("naive", "tiled", "tiled_unrolled", "prefetch"):
        run = app.run({"n": n, "variant": variant, "tile": 16,
                       "trace_blocks": trace_blocks}, functional=False)
        launch = run.launches[0]
        est = launch.estimate()
        bounds = analyze_bounds(launch.trace, launch.spec)
        ref = paper.MATMUL_GFLOPS[variant]
        rows.append([
            variant,
            round(est.gflops, 2),
            f"{ref.value}{ref.mark}",
            round(est.gflops / ref.value, 3),
            round(bounds.potential_gflops, 1),
            round(bounds.bandwidth_demand_gbs, 1),
            est.occupancy.blocks_per_sm,
            est.bound,
        ])
    res = ExperimentResult(
        "Section 4", f"matrix multiplication study ({n}x{n})",
        ["variant", "GFLOPS (model)", "GFLOPS (paper)", "ratio",
         "potential", "BW demand GB/s", "blocks/SM", "bound"],
        rows)
    res.notes.append(
        "paper prose anchors: potential 43.2 (naive) / 93.72 (unrolled) "
        "GFLOPS; bandwidth demand 173 GB/s; tiling speedup ~4.5X")
    return res


# ----------------------------------------------------------------------
# Figure 4 — tile size x unrolling sweep
# ----------------------------------------------------------------------

def run_figure4(n: int = 4096, trace_blocks: int = 2,
                executor=None) -> ExperimentResult:
    app = MatMul()
    if executor is not None:
        app.executor = executor
    rows = []
    for config in app.figure4_configs():
        run = app.run_config(config, n=n, trace_blocks=trace_blocks)
        est = run.launches[0].estimate()
        occ = est.occupancy
        ref = paper.FIGURE4_GFLOPS.get(config.label)
        rows.append([
            config.label,
            round(est.gflops, 2),
            f"{ref.value}{ref.mark}" if ref else "-",
            occ.blocks_per_sm,
            occ.active_threads_per_sm,
            est.bound,
        ])
    res = ExperimentResult(
        "Figure 4", f"matmul GFLOPS vs tile size ({n}x{n})",
        ["configuration", "GFLOPS (model)", "GFLOPS (paper)",
         "blocks/SM", "threads/SM", "bound"],
        rows)
    res.notes.append("(r) = reconstructed bar height; only the 16x16 "
                     "bars survive in the OCR'd prose")
    return res


# ----------------------------------------------------------------------
# Table 2 — application suite
# ----------------------------------------------------------------------

def run_table2() -> ExperimentResult:
    import inspect
    rows = []
    for name in suite_names():
        app = get_app(name)
        t2 = paper.TABLE2[name]
        module = inspect.getmodule(type(app))
        our_lines = len(inspect.getsource(module).splitlines())
        rows.append([
            name,
            t2.source_lines,
            t2.kernel_lines,
            f"{100 * t2.kernel_fraction:.1f}%"
            + ("" if t2.fraction_provenance == paper.PROSE else " (r)"),
            our_lines,
            f"{100 * app.kernel_fraction:.1f}%",
        ])
    res = ExperimentResult(
        "Table 2", "application suite",
        ["app", "paper src lines", "paper kernel lines", "paper %kernel",
         "our module lines", "our %kernel"],
        rows)
    res.notes.append("paper line counts are C/C++ application totals; "
                     "our column counts the Python port module")
    return res


# ----------------------------------------------------------------------
# Table 3 — suite characteristics and speedups
# ----------------------------------------------------------------------

def run_table3(scale: str = "full",
               names: Optional[Sequence[str]] = None,
               executor=None) -> ExperimentResult:
    rows = []
    measured: Dict[str, Dict[str, float]] = {}
    for name in (names or suite_names()):
        app = get_app(name)
        if executor is not None:
            app.executor = executor
        run = app.run(app.default_workload(scale), functional=False)
        t3 = paper.TABLE3[name]
        trace = run.merged_trace
        rows.append([
            name,
            run.max_simultaneous_threads,
            run.registers_per_thread,
            run.smem_per_block,
            round(trace.memory_to_compute_ratio, 3),
            f"{100 * run.gpu_exec_fraction:.0f}%",
            f"{100 * run.transfer_fraction:.0f}%",
            run.bottleneck,
            round(run.kernel_speedup, 1),
            f"{t3.kernel_speedup.value}{t3.kernel_speedup.mark}",
            round(run.app_speedup, 2),
            f"{t3.app_speedup.value}{t3.app_speedup.mark}",
        ])
        measured[name] = {"kernel": run.kernel_speedup,
                          "app": run.app_speedup}
    res = ExperimentResult(
        "Table 3", f"suite characteristics and speedups ({scale} scale)",
        ["app", "max threads", "regs", "smem/blk", "mem/comp",
         "GPU%", "xfer%", "bottleneck",
         "kernel X", "paper", "app X", "paper"],
        rows)
    ks = [m["kernel"] for m in measured.values()]
    as_ = [m["app"] for m in measured.values()]
    res.notes.append(
        f"measured kernel speedups span {min(ks):.1f}X-{max(ks):.0f}X "
        f"(paper: {paper.KERNEL_SPEEDUP_RANGE[0]}X-"
        f"{paper.KERNEL_SPEEDUP_RANGE[1]:.0f}X); app speedups "
        f"{min(as_):.2f}X-{max(as_):.0f}X (paper: "
        f"{paper.APP_SPEEDUP_RANGE[0]}X-{paper.APP_SPEEDUP_RANGE[1]:.0f}X)")
    return res


# ----------------------------------------------------------------------
# Figure 5 — LBM access patterns (+ the Section 5.2 texture claim)
# ----------------------------------------------------------------------

def run_figure5(nx: int = 256, ny: int = 256,
                executor=None) -> ExperimentResult:
    app = Lbm()
    if executor is not None:
        app.executor = executor
    rows = []
    times = {}
    for layout in ("aos", "soa", "texture"):
        run = app.run({"nx": nx, "ny": ny, "steps": 1, "total_steps": 1,
                       "layout": layout}, functional=False)
        est = run.launches[0].estimate()
        trace = run.merged_trace
        loads = trace.per_array.get("f_a")
        times[layout] = est.seconds
        rows.append([
            layout,
            round(loads.transactions_per_access, 2) if loads else "-",
            f"{100 * (loads.bus_efficiency if loads else 1):.0f}%",
            round(est.seconds * 1e3, 3),
            est.bound,
        ])
    res = ExperimentResult(
        "Figure 5", f"LBM global load access patterns ({nx}x{ny})",
        ["layout", "transactions/half-warp access", "bus efficiency",
         "step time (ms)", "bound"],
        rows)
    res.notes.append(
        f"texture speedup over cell-major global accesses: "
        f"{times['aos'] / times['texture']:.2f}X; over plane-major "
        f"global: {times['soa'] / times['texture']:.2f}X "
        f"(paper Section 5.2: 2.8X over its global-only version)")
    return res

