"""nvprof-style launch profile reports and the profiler CLI.

Runs an application of the suite under a
:class:`~repro.obs.profiler.LaunchProfiler` and prints one row per
kernel launch — kernel, geometry, executor, block accounting, the
execute and finalize wall time read off the launch's span, trace
counters and the timing model's binding bottleneck — the way
``nvprof`` summarized launches on real hardware.  Plan building is
its own ``plan.build`` span (``--spans``, ``--chrome-trace``).

Command line::

    python -m repro.bench.profile_report matmul
    python -m repro.bench.profile_report matmul --json
    python -m repro.bench.profile_report lbm --chrome-trace trace.json
    python -m repro.bench.profile_report matmul --overhead-gate 5
    python -m repro.bench.profile_report matmul --device gtx_480
    python -m repro.bench.profile_report matmul --metrics-derived
    python -m repro.bench.profile_report matmul --roofline --estimate
    python -m repro.bench.profile_report matmul --timeline warps.json

For ``matmul`` the report covers the Section 4 optimization ladder
(naive / tiled / tiled_unrolled / prefetch); any other registry app
runs its default workload.  ``--overhead-gate PCT`` additionally times
a functional matmul sweep with observability fully disabled vs. under
a profiler and fails (exit 1) if profiling costs more than PCT percent
— the CI guard for the zero-overhead-by-default contract.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.device import DEFAULT_DEVICE, DeviceSpec
from ..obs.profiler import LaunchProfiler, LaunchRecord
from .tables import format_table

#: matmul variants the profile ladder walks, in paper order
MATMUL_VARIANTS = ("naive", "tiled", "tiled_unrolled", "prefetch")


# ----------------------------------------------------------------------
# Formatting
# ----------------------------------------------------------------------

def _fmt_count(value: float) -> str:
    """Compact count rendering: 1234 -> "1234", 2.1e7 -> "2.10e7"."""
    if value == 0:
        return "0"
    if value < 1e5:
        return f"{value:.0f}"
    return f"{value:.2e}".replace("e+0", "e").replace("e+", "e")


def format_records(records: Sequence[LaunchRecord],
                   title: str = "launch profile") -> str:
    """The nvprof-like table over a set of launch records."""
    headers = ["kernel", "grid", "block", "exec",
               "blocks(X/T/M)", "exec ms", "fin ms",
               "warp insts", "txn/acc", "GFLOPS", "bound"]
    rows = []
    for rec in records:
        stages = rec.stage_seconds
        rows.append([
            rec.kernel,
            rec.grid,
            rec.block,
            rec.executor,
            f"{rec.blocks_executed}/{rec.blocks_traced}/{rec.memo_hits}",
            f"{stages['execute'] * 1e3:.2f}",
            f"{stages['finalize'] * 1e3:.2f}",
            _fmt_count(rec.trace.total_warp_insts),
            f"{rec.overall_transactions_per_access:.2f}",
            f"{rec.gflops:.2f}",
            rec.bound,
        ])
    out = format_table(headers, rows, title=title)
    details = []
    for rec in records:
        per_array = ", ".join(f"{name}={tpa:.2f}" for name, tpa
                              in rec.transactions_per_access.items())
        if per_array:
            details.append(f"  {rec.kernel}: txn/access per array: "
                           f"{per_array}")
        trace = rec.trace
        io = []
        for op in ("gld", "gst"):
            bus = getattr(trace, f"{op}_bus_bytes")
            if bus > 0:
                useful = getattr(trace, f"{op}_useful_bytes")
                io.append(f"{op}_efficiency={100 * useful / bus:.1f}%")
        io += [f"{space}_hit_rate={rate:.1%}"
               for space, rate in rec.cache_hit_rates().items()]
        if io:
            details.append(f"  {rec.kernel}: " + "  ".join(io))
        if trace.branch_warps > 0:
            # R8's dynamic counters
            details.append(
                f"  {rec.kernel}: {_fmt_count(trace.branch_warps)} branch "
                f"warps, {_fmt_count(trace.divergent_branch_warps)} "
                f"divergent ({trace.divergent_branch_fraction:.1%}); "
                f"{_fmt_count(trace.divergence_serialized_warp_insts)} "
                f"partial-mask warp insts "
                f"({trace.divergence_serialized_fraction:.1%} of issue)")
    if details:
        out += "\n" + "\n".join(details)
    return out


# ----------------------------------------------------------------------
# Profiling drivers
# ----------------------------------------------------------------------

def profile_matmul(scale: str = "test", executor=None,
                   variants: Sequence[str] = MATMUL_VARIANTS,
                   spec: DeviceSpec = DEFAULT_DEVICE,
                   ) -> Tuple[LaunchProfiler, List[Dict[str, object]]]:
    """Profile the Section 4 matmul ladder; returns (profiler, configs)."""
    from ..apps.matmul import MatMul
    app = MatMul(spec)
    if executor is not None:
        app.executor = executor
    if scale == "full":
        n, trace_blocks, functional = 4096, 2, False
    else:
        n, trace_blocks, functional = 128, 2, True
    configs = []
    profiler = LaunchProfiler()
    with profiler:
        for variant in variants:
            app.run({"n": n, "variant": variant, "tile": 16,
                     "trace_blocks": trace_blocks}, functional=functional)
            configs.append({"variant": variant, "n": n})
    return profiler, configs


def profile_app(name: str, scale: str = "test", executor=None,
                spec: DeviceSpec = DEFAULT_DEVICE,
                ) -> Tuple[LaunchProfiler, List[Dict[str, object]]]:
    """Profile one suite application's default workload."""
    if name == "matmul":
        return profile_matmul(scale=scale, executor=executor, spec=spec)
    from ..apps.registry import get_app
    app = get_app(name, spec)
    if executor is not None:
        app.executor = executor
    workload = app.default_workload(scale)
    profiler = LaunchProfiler()
    with profiler:
        app.run(workload, functional=False)
    return profiler, [dict(workload)]


# ----------------------------------------------------------------------
# Overhead gate
# ----------------------------------------------------------------------

def measure_overhead(n: int = 256, repeats: int = 11) -> Dict[str, float]:
    """Profiler overhead on a functional matmul sweep.

    Runs ``repeats`` (at least 11) *interleaved* disabled/profiled
    pairs and takes the median of the per-pair ratios.  Each ratio
    compares two launches made back to back, so a drift of the
    machine's speed between pairs cancels (the medians of five pairs,
    compared with each other, read up to 32 % on a shared 2-core
    machine).  The reported percentage is clamped at zero — the
    profiler cannot speed a launch up, so any negative difference is
    measurement noise by construction (the raw signed value is kept in
    ``overhead_pct_raw``).
    """
    import statistics

    import numpy as np
    from ..apps.matmul import MatMul, build_kernel
    from ..cuda import CompiledExecutor, Device, launch

    repeats = max(11, repeats)
    tile = 16
    kern = build_kernel("tiled_unrolled", tile)
    a, b = MatMul._inputs(n)

    def one_launch() -> float:
        dev = Device()
        d_a = dev.to_device(a, "A")
        d_b = dev.to_device(b, "B")
        d_c = dev.alloc((n, n), np.float32, "C")
        t0 = perf_counter()
        launch(kern, (n // tile, n // tile), (tile, tile),
               (d_a, d_b, d_c, n), device=dev, executor=CompiledExecutor())
        return perf_counter() - t0

    one_launch()    # warm-up: NumPy allocators, import costs
    with LaunchProfiler():
        one_launch()
    disabled_times, enabled_times = [], []
    for _ in range(repeats):
        disabled_times.append(one_launch())
        with LaunchProfiler():
            enabled_times.append(one_launch())
    raw_pct = 100.0 * statistics.median(
        enabled / disabled - 1.0
        for disabled, enabled in zip(disabled_times, enabled_times))
    return {
        "workload": f"matmul {n}^3 functional, tiled_unrolled, compiled",
        "repeats": repeats,
        "disabled_seconds": round(statistics.median(disabled_times), 4),
        "profiled_seconds": round(statistics.median(enabled_times), 4),
        "overhead_pct": round(max(0.0, raw_pct), 2),
        "overhead_pct_raw": round(raw_pct, 2),
    }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.profile_report",
        description="nvprof-style launch profile of a suite application")
    parser.add_argument("app", help="application name (e.g. matmul, lbm)")
    parser.add_argument("--scale", choices=("test", "full"), default="test")
    parser.add_argument("--executor", default=None,
                        help="executor backend (sequential/compiled/"
                             "sanitized/auto)")
    parser.add_argument("--json", action="store_true",
                        help="emit the structured records as JSON")
    parser.add_argument("--chrome-trace", metavar="PATH", default=None,
                        help="write the span trace as chrome://tracing JSON")
    parser.add_argument("--spans", action="store_true",
                        help="print the wall-clock span tree")
    parser.add_argument("--lint", action="store_true",
                        help="append the static analyzer's findings for "
                             "the app's kernels to the report")
    parser.add_argument("--estimate", action="store_true",
                        help="append the static performance estimates "
                             "(census + bounds) for the app's kernels, "
                             "for comparison against the profiled launches")
    parser.add_argument("--metrics-derived", action="store_true",
                        help="append the nvprof-style derived metrics "
                             "(achieved_occupancy, gld_efficiency, ...) "
                             "per launch; with --estimate also prints the "
                             "static-vs-measured deviation per metric")
    parser.add_argument("--roofline", action="store_true",
                        help="append the per-launch roofline report "
                             "(arithmetic intensity vs device peaks); "
                             "with --estimate the static points join "
                             "the chart")
    parser.add_argument("--timeline", metavar="PATH", default=None,
                        help="record a per-SM warp timeline of the app's "
                             "representative kernel (event-recording "
                             "warpsim replay), write chrome://tracing "
                             "JSON to PATH and print the ASCII "
                             "occupancy strip")
    parser.add_argument("--overhead-gate", metavar="PCT", type=float,
                        default=None,
                        help="fail if profiling overhead exceeds PCT%% "
                             "vs. a disabled-observability run")
    parser.add_argument("--device", metavar="NAME",
                        default="geforce_8800_gtx",
                        help="registered device profile to simulate "
                             "(see repro.arch.registry)")
    args = parser.parse_args(argv)

    from ..arch.registry import device_by_name
    try:
        spec = device_by_name(args.device)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    profiler, configs = profile_app(args.app, scale=args.scale,
                                    executor=args.executor, spec=spec)
    if len(configs) == len(profiler.records):
        paired = zip(profiler.records, configs)
    else:   # one workload, several launches (multi-kernel apps)
        paired = ((rec, configs[0] if configs else {})
                  for rec in profiler.records)
    records = [{**rec.to_dict(), "config": cfg} for rec, cfg in paired]

    overhead = None
    if args.overhead_gate is not None:
        overhead = measure_overhead()

    lint_reports = None
    if args.lint:
        from ..analysis.lint import lint_app
        lint_reports = lint_app(args.app, spec)

    estimates = None
    static_records: List[LaunchRecord] = []
    if args.estimate:
        from ..analysis.estimate import estimate_app
        estimates = estimate_app(args.app, spec)
        static_records = [LaunchRecord.from_estimate(e) for e in estimates]

    derived = None
    deviations = None
    if args.metrics_derived:
        from ..obs.derived import derive_metrics, metric_deviation
        derived = [(rec, derive_metrics(rec, spec))
                   for rec in profiler.records]
        if estimates is not None:
            static = {r.kernel: derive_metrics(r, spec)
                      for r in static_records}
            deviations = [(rec.kernel,
                           metric_deviation(vals, static[rec.kernel]))
                          for rec, vals in derived
                          if rec.kernel in static]

    roofline = None
    if args.roofline:
        from ..obs.roofline import point_from_record, roofline_report
        roofline = roofline_report(
            [point_from_record(rec)
             for rec in profiler.records + static_records], spec)

    timeline = None
    if args.timeline:
        from ..obs.timeline import timeline_for_target, write_chrome_trace
        from ..apps.registry import get_app
        targets = get_app(args.app, spec).lint_targets()
        target = next((t for t in targets if t.note == "tiled"), targets[0])
        timeline = timeline_for_target(target, spec)
        write_chrome_trace(timeline, args.timeline)

    if args.chrome_trace:
        profiler.tracer.write_chrome_trace(args.chrome_trace)

    if args.json:
        payload = {
            "app": args.app,
            "scale": args.scale,
            "device": args.device,
            "records": records,
        }
        if overhead is not None:
            payload["overhead"] = overhead
        if lint_reports is not None:
            payload["lint"] = [r.to_dict() for r in lint_reports]
        if estimates is not None:
            payload["estimates"] = [e.to_dict() for e in estimates]
        if derived is not None:
            payload["derived_metrics"] = [
                {"kernel": rec.kernel, "metrics": vals}
                for rec, vals in derived]
        if deviations is not None:
            payload["estimator_deviation"] = [
                {"kernel": kern, "metrics": dev}
                for kern, dev in deviations]
        if roofline is not None:
            payload["roofline"] = roofline
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(format_records(profiler.records,
                             title=f"launch profile: {args.app} "
                                   f"({args.scale} scale, {args.device})"))
        if lint_reports is not None:
            print()
            print("static analysis:")
            for report in lint_reports:
                for finding in report.findings:
                    print("  " + finding.format())
                if not report.findings:
                    print(f"  {report.label}: clean")
        if estimates is not None:
            from ..analysis.estimate import format_estimate
            print()
            print("static performance estimates:")
            for est in estimates:
                print("  " + format_estimate(est).replace("\n", "\n  "))
        if derived is not None:
            from ..obs.derived import format_derived
            for rec, vals in derived:
                print()
                print(format_derived(rec, vals))
        if deviations is not None:
            from ..obs.derived import format_deviation
            for kern, dev in deviations:
                print()
                print(f"{kern}:")
                print("  " + format_deviation(dev).replace("\n", "\n  "))
        if roofline is not None:
            from ..obs.roofline import format_roofline
            print()
            print(format_roofline(roofline))
        if timeline is not None:
            from ..obs.timeline import format_timeline
            print()
            print(format_timeline(timeline))
        if args.spans:
            print()
            print(profiler.tracer.format_tree())
        if overhead is not None:
            print()
            print(f"profiler overhead: {overhead['overhead_pct']:.2f}% "
                  f"(disabled {overhead['disabled_seconds']}s, profiled "
                  f"{overhead['profiled_seconds']}s, "
                  f"median of {overhead['repeats']} pairs)")
    if args.chrome_trace and not args.json:
        print(f"chrome trace written to {args.chrome_trace}")
    if args.timeline and not args.json:
        print(f"warp timeline written to {args.timeline}")

    if args.overhead_gate is not None \
            and overhead["overhead_pct"] > args.overhead_gate:
        print(f"FAIL: profiler overhead {overhead['overhead_pct']:.2f}% "
              f"> {args.overhead_gate}% gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
