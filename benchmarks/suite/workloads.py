"""The benchmark's five workloads: what one op is, and how it is checked.

Every workload is a list of op ids making up one *pass*.  A run does a
fixed number of whole passes (see ``Workload.passes``), so two runs of
the same workload always do the same multiset of ops; ``--seed`` only
draws the matmul inputs and the op order inside each pass.

Ops return a *record* of modelled outputs (GFLOPS, trace counters,
Table-3 columns, lint verdicts).  The simulator is deterministic, so a
record must equal the golden one exactly; every other output is
checked against a NumPy reference computed before any clock starts.

Importing this module imports nothing from ``repro``: the parent
process only needs the op lists, and each child imports the library
during set-up and its warm-up op, both timed as ``setup_s``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------


def normalize(value):
    """JSON-stable form of a record: floats to 10 significant digits,
    tuples to lists, so a record equals its golden after a round trip."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [normalize(v) for v in value]
    if isinstance(value, int):
        return value
    try:
        return float(f"{float(value):.10g}")
    except (TypeError, ValueError):
        return str(value)


def golden_mismatch(record, golden) -> str:
    """'' when ``record`` equals ``golden``, else the first differing
    field as a one-line description."""
    record = json.loads(json.dumps(normalize(record)))
    if record == golden:
        return ""
    if isinstance(record, dict) and isinstance(golden, dict):
        for key in sorted(set(record) | set(golden)):
            if record.get(key) != golden.get(key):
                return (f"{key}: got {record.get(key)!r}, "
                        f"golden {golden.get(key)!r}")
    return f"got {record!r}, golden {golden!r}"


def _trace_counters(trace) -> Dict[str, object]:
    counters = dict(trace.summary())
    counters["warp_insts_by_class"] = {
        cls.value: count for cls, count in sorted(
            trace.warp_insts.items(), key=lambda kv: kv[0].value)}
    return counters


# ----------------------------------------------------------------------
# Workload base
# ----------------------------------------------------------------------

@dataclass
class Workload:
    """One benchmark workload (subclasses fill in the op behaviour)."""

    name: str
    why: str
    #: op ids of one pass
    pass_ops: Tuple[str, ...]
    #: op run once per child, untimed, as part of set-up
    warmup: str
    #: scaled host seconds (see ``run.probe``) one pass takes on the
    #: 2-core reference machine; a run of ``--seconds S`` measures
    #: round(S / pass_seconds) whole passes
    pass_seconds: float

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_seconds))

    def schedule(self, seed: int, seconds: float) -> List[str]:
        """The op ids of one run: whole passes, each shuffled by seed."""
        ops: List[str] = []
        for p in range(self.passes(seconds)):
            one = list(self.pass_ops)
            random.Random(f"{seed}/{p}").shuffle(one)
            ops.extend(one)
        return ops

    # -- child side ----------------------------------------------------
    def setup(self, seed: int, child: int) -> Dict[str, object]:
        """Build inputs and references (the warm-up op that follows
        pays the library imports)."""
        return {}

    def run_op(self, state: Dict[str, object], op: str
               ) -> Tuple[object, str]:
        """Run one op; returns (record, output error or '')."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# matmul-functional
# ----------------------------------------------------------------------

MATMUL_N = 512
MATMUL_TILE = 16


class MatmulFunctional(Workload):
    """Fresh Device, upload, compiled ``tiled_unrolled`` 16 launch over
    the full 512^3 grid, download, check against float64 A@B."""

    def setup(self, seed, child):
        import hashlib

        import numpy as np

        from repro.apps.matmul import build_kernel
        rng = np.random.default_rng([seed, child])
        a = rng.standard_normal((MATMUL_N, MATMUL_N), dtype=np.float32)
        b = rng.standard_normal((MATMUL_N, MATMUL_N), dtype=np.float32)
        ref = a.astype(np.float64) @ b.astype(np.float64)
        return {"a": a, "b": b, "ref": ref,
                "kernel": build_kernel("tiled_unrolled", MATMUL_TILE),
                "input_digest": hashlib.sha256(a.tobytes()).hexdigest()[:16]}

    def run_op(self, state, op):
        import numpy as np

        from repro.cuda import Device, launch
        n = MATMUL_N
        dev = Device()
        d_a = dev.to_device(state["a"], "A")
        d_b = dev.to_device(state["b"], "B")
        d_c = dev.alloc((n, n), np.float32, "C")
        result = launch(state["kernel"], (n // MATMUL_TILE, n // MATMUL_TILE),
                        (MATMUL_TILE, MATMUL_TILE), (d_a, d_b, d_c, n),
                        device=dev, executor="auto")
        c = dev.from_device(d_c)
        error = "" if np.allclose(c, state["ref"], rtol=1e-4, atol=1e-4) \
            else f"C differs from A@B by {np.abs(c - state['ref']).max():.3g}"
        record = {"gflops": result.gflops(),
                  "trace": _trace_counters(result.trace)}
        return record, error


# ----------------------------------------------------------------------
# paper-sampled
# ----------------------------------------------------------------------

SECTION4_VARIANTS = ("naive", "tiled", "tiled_unrolled", "prefetch")
#: the Table-3 suite minus tpacf (31 s for one op at full scale)
TABLE3_APPS = ("h264", "lbm", "rc5-72", "fem", "rpes", "pns", "saxpy",
               "fdtd", "mri-q", "mri-fhd", "cp")
FIGURE5_LAYOUTS = ("aos", "soa", "texture")


def _section4_op(variant: str):
    from repro.apps.matmul import MatMul
    from repro.sim.bounds import analyze_bounds
    run = MatMul().run({"n": 1024, "variant": variant, "tile": 16,
                        "trace_blocks": 2}, functional=False)
    launch = run.launches[0]
    est = launch.estimate()
    bounds = analyze_bounds(launch.trace, launch.spec)
    return {"gflops": est.gflops,
            "potential_gflops": bounds.potential_gflops,
            "bandwidth_demand_gbs": bounds.bandwidth_demand_gbs,
            "blocks_per_sm": est.occupancy.blocks_per_sm,
            "bound": est.bound}


def _table3_op(name: str):
    from repro.apps.registry import get_app
    from repro.data import paper
    app = get_app(name)
    run = app.run(app.default_workload("full"), functional=False)
    return {"max_threads": run.max_simultaneous_threads,
            "regs": run.registers_per_thread,
            "smem_per_block": run.smem_per_block,
            "mem_to_compute": run.merged_trace.memory_to_compute_ratio,
            "gpu_exec_fraction": run.gpu_exec_fraction,
            "transfer_fraction": run.transfer_fraction,
            "bottleneck": run.bottleneck,
            "kernel_speedup": run.kernel_speedup,
            "app_speedup": run.app_speedup,
            "paper_kernel_speedup": paper.TABLE3[name].kernel_speedup.value}


def _figure5_op(layout: str):
    from repro.apps.lbm import Lbm
    run = Lbm().run({"nx": 256, "ny": 256, "steps": 1, "total_steps": 1,
                     "layout": layout}, functional=False)
    est = run.launches[0].estimate()
    loads = run.merged_trace.per_array.get("f_a")
    return {"transactions_per_access":
            loads.transactions_per_access if loads else None,
            "bus_efficiency": loads.bus_efficiency if loads else None,
            "step_seconds": est.seconds,
            "bound": est.bound}


_PAPER_OPS: Dict[str, Callable[[str], object]] = {
    "s4": _section4_op, "t3": _table3_op, "f5": _figure5_op}


class PaperSampled(Workload):
    """Trace-sampled regeneration of Section 4, Table 3 and Figure 5."""

    def run_op(self, state, op):
        kind, arg = op.split(":", 1)
        return _PAPER_OPS[kind](arg), ""


def paper_err_pct(records: Dict[str, Dict[str, object]]) -> float:
    """Median over Table-3 rows of |model/paper kernel speedup - 1|*100."""
    import statistics
    errs = [abs(r["kernel_speedup"] / r["paper_kernel_speedup"] - 1) * 100
            for op, r in records.items() if op.startswith("t3:")]
    return statistics.median(errs) if errs else 0.0


# ----------------------------------------------------------------------
# module-replay / module-distinct
# ----------------------------------------------------------------------

MODULE_WORKLOADS: Dict[str, Dict[str, object]] = {
    "lbm": {"nx": 128, "ny": 128, "steps": 8, "total_steps": 100,
            "layout": "soa"},
    "fdtd": {"nx": 128, "ny": 128, "steps": 8, "total_steps": 100},
    "mri-q": {"nvoxels": 4096, "nsamples": 512},
    "mri-fhd": {"nvoxels": 4096, "nsamples": 512},
}


class ModuleRun(Workload):
    """``run_module`` of one app; outputs checked against its NumPy
    reference, computed once in set-up."""

    def setup(self, seed, child):
        from repro.apps.registry import get_app
        refs = {}
        for name in set(self.pass_ops):
            app = get_app(name)
            refs[name] = (app.reference(dict(MODULE_WORKLOADS[name])),
                          app.verify_rtol, app.verify_atol)
        return {"refs": refs}

    def run_op(self, state, op):
        import numpy as np

        from repro.apps.registry import get_app
        run = get_app(op).run_module(dict(MODULE_WORKLOADS[op]))
        ref, rtol, atol = state["refs"][op]
        bad = [key for key, expect in ref.items()
               if not np.allclose(run.outputs[key], expect,
                                  rtol=rtol, atol=atol)]
        error = f"outputs {bad} differ from the reference" if bad else ""
        return {"gpu_gflops": run.gpu_gflops}, error


# ----------------------------------------------------------------------
# static-lint
# ----------------------------------------------------------------------

#: (app, number of lint targets) — tpacf is left out (1.7 s per op)
LINT_APPS = (("matmul", 4), ("h264", 1), ("lbm", 3), ("rc5-72", 2),
             ("fem", 1), ("rpes", 1), ("pns", 1), ("saxpy", 1),
             ("fdtd", 2), ("mri-q", 1), ("mri-fhd", 1), ("cp", 1))


class StaticLint(Workload):
    """``analyze_target`` + ``estimate_target`` on one lint target."""

    def run_op(self, state, op):
        from repro.analysis import estimate, rules
        from repro.apps.registry import get_app
        name, index = op.split("#")
        target = get_app(name).lint_targets()[int(index)]
        # the public calls are looked up on their modules at call time,
        # so the --trace wrappers see them
        report = rules.analyze_target(target, app=name)
        est = estimate.estimate_target(target)
        first = target.kernel.fn.__code__.co_firstlineno
        findings = [[f.rule, str(f.severity),
                     None if f.line is None else f.line - first]
                    for f in report.findings]
        return {"findings": findings, "predicted_gflops": est.predicted_gflops,
                "bound": est.bound, "regs": est.registers.regs}, ""


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    MatmulFunctional(
        "matmul-functional",
        "the headline 512^3 compiled launch: traced sample blocks, "
        "bank-conflict accounting and the compiled grid sweep",
        ("launch",), warmup="launch", pass_seconds=0.47),
    PaperSampled(
        "paper-sampled",
        "trace-sampled paper tables: scalar traced blocks and coalescing "
        "dominate, the compile layer is never used",
        tuple([f"s4:{v}" for v in SECTION4_VARIANTS]
              + [f"t3:{a}" for a in TABLE3_APPS]
              + [f"f5:{x}" for x in FIGURE5_LAYOUTS]),
        warmup="f5:soa", pass_seconds=8.7),
    ModuleRun(
        "module-replay",
        "time-sliced lbm/fdtd modules repeat launch configurations, so "
        "module trace replay applies",
        ("lbm", "fdtd"), warmup="fdtd", pass_seconds=0.154),
    ModuleRun(
        "module-distinct",
        "mri-q/mri-fhd modules have only distinct launch configurations: "
        "R7 planning with zero replays",
        ("mri-q", "mri-fhd"), warmup="mri-q", pass_seconds=1.55),
    StaticLint(
        "static-lint",
        "pure static analysis of 19 app lint targets; nothing executes, "
        "so every executor change is bypassed",
        tuple(f"{app}#{i}" for app, count in LINT_APPS for i in range(count)),
        warmup="saxpy#0", pass_seconds=7.1),
)}
