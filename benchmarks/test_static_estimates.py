"""Benchmark: the static estimator against the timing simulator.

Every app's lint targets on the G80 at their lint geometry: the static
estimate (:func:`repro.analysis.estimate.estimate_target` — census,
bounds and the liveness register count) beside the timing model on one
launch of the same geometry with seeded inputs
(:func:`repro.analysis.validate.materialized_launch`).
"""

from conftest import run_once
from repro.analysis.estimate import estimate_target
from repro.analysis.validate import materialized_launch
from repro.apps.registry import app_names, get_app
from repro.arch import DEFAULT_DEVICE
from repro.bench.experiments import ExperimentResult
from repro.sim.timing import estimate_kernel_time

HEADERS = ("app", "kernel", "static GFLOPS", "simulated GFLOPS", "ratio",
           "bound (static)", "regs static/declared")


def static_estimates() -> ExperimentResult:
    rows = []
    for app in app_names():
        for target in get_app(app, DEFAULT_DEVICE).lint_targets():
            est = estimate_target(target, DEFAULT_DEVICE)
            sim = estimate_kernel_time(
                materialized_launch(target, DEFAULT_DEVICE))
            rates = ("n/a",) * 3 if not sim.gflops else (
                f"{est.predicted_gflops:.2f}", f"{sim.gflops:.2f}",
                f"{est.predicted_gflops / sim.gflops:.2f}")
            declared = target.kernel.regs_per_thread
            rows.append([app, target.kernel.name, *rates, est.bound,
                         f"{est.registers.regs:2d} / {declared:2d}"])
    return ExperimentResult(
        "Static estimates",
        "static estimator vs timing simulator (lint-target geometry)",
        HEADERS, rows, notes=[
            "simulated: the timing model on one launch of the target "
            "geometry, arrays filled with seeded random values",
            "rc5-72 and pns execute no floating-point work, so a FLOP "
            "rate is undefined"])


def test_static_estimates(benchmark, record_table):
    result = record_table(run_once(benchmark, static_estimates))
    assert len(result.rows) == 20
    regs = {row[1]: row[-1] for row in result.rows}
    # Section 4.2-4.4: tiled 10, +unroll 9, +prefetch 11 registers
    assert [regs[f"mm_{v}_16x16"] for v in
            ("tiled", "tiled_unrolled", "prefetch")] == [
        "10 / 10", " 9 /  9", "11 / 11"]
    ladder = [row for row in result.rows if row[0] == "matmul"]
    assert all(row[4] == "1.00" for row in ladder)
