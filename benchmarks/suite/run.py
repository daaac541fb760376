"""Host-time benchmark of the reproduction: five workloads, one command.

Run from the repository root::

    python3 benchmarks/suite/run.py                       # all workloads
    python3 benchmarks/suite/run.py --workload module-replay --seed 3
    python3 benchmarks/suite/run.py --workload paper-sampled --trace 1
    python3 benchmarks/suite/run.py --write-golden        # re-record goldens
    python3 benchmarks/suite/run.py --calibrate 10        # set the bounds

Every timing is host time: what the simulator costs to run.  Modelled
device numbers (GFLOPS, trace counters, Table-3 columns, lint verdicts)
are deterministic and serve only as correctness goldens.

A run of one workload executes as three fresh child processes, one
after the other, each single-threaded, with every ``REPRO_*`` variable
removed from its environment (default ``ExecutorPolicy``, no artifact
cache).  Each child imports the library, builds its inputs and runs one
warm-up op (together: ``setup_s``), then a closed loop over its third
of the run's ops; the op times of the three children are pooled.  With
``--trace 1`` every op runs twice, untraced and traced, in alternating
order; the traced copy feeds the per-layer metrics (see ``layers.py``).

The machine this was calibrated on shares its cores, and its speed
drifts by tens of percent over tens of seconds.  A fixed probe (see
:func:`probe`) is timed after set-up and between ops, and every time
is scaled by ``PROBE_REF_S / probe time``; the unscaled numbers are
kept as ``bench.raw_*`` layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named
in ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, time
from typing import Dict, List, Optional

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
sys.path.insert(0, str(SUITE))

from layers import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import (WORKLOADS, golden_mismatch, normalize,  # noqa: E402
                       paper_err_pct)

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
GOLDEN = SUITE / "golden.json"
OUT_DIR = SUITE / "out"
CHILDREN = 3
QUICK_OPS = 3
DEFAULT_SECONDS = 12
#: a run must end within this many seconds
RUN_DEADLINE_S = 170.0

#: (name, unit, better) of every end-to-end metric
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
#: set-up time may regress by at most this share (the contract's cap)
SETUP_BOUND = 0.25
#: calibrated bounds above this demote the metric to a layer metric
MAX_BOUND = 0.20
MIN_BOUND = 0.05

#: op times are scaled to a machine on which probe() takes PROBE_REF_S
PROBE_REF_S = 8.0e-3


# ----------------------------------------------------------------------
# Child process
# ----------------------------------------------------------------------

def probe() -> float:
    """Seconds a fixed piece of work takes now: the machine's current
    speed.  Half is interpreter arithmetic, half small-array NumPy in a
    Python loop, the mix the simulator itself runs; together they track
    op times under contention better than either alone."""
    import numpy as np
    start = perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    lanes = np.arange(256, dtype=np.float32)
    for _ in range(1_100):
        lanes = np.where(lanes > 3.0, lanes * 0.5 + 1.0, lanes)
    return perf_counter() - start


def child_main() -> int:
    """One child: set up, warm up, run the given ops, report as JSON."""
    t0 = perf_counter()
    spec = json.loads(sys.stdin.read())
    # library output must not corrupt the JSON reply on stdout
    reply, sys.stdout = sys.stdout, sys.stderr
    workload = WORKLOADS[spec["workload"]]
    golden: Dict[str, object] = spec["golden"]
    recording = spec["mode"] == "golden"
    records: Dict[str, object] = {}

    def attempt(op: str) -> str:
        """Run and check one op; '' on success, else why it failed.
        The op's own cyclic garbage is collected inside it, so neither
        its time nor the peak RSS depends on where the collector's
        thresholds happen to fall in the (seeded) op order."""
        try:
            record, error = workload.run_op(state, op)
        except Exception as exc:   # an op failure is counted, not fatal
            traceback.print_exc()
            return f"{op}: {type(exc).__name__}: {exc}"
        finally:
            gc.collect()
        records.setdefault(op, normalize(record))
        if recording:
            return ""
        if error:
            return f"{op}: {error}"
        if op not in golden:
            return f"{op}: no golden record"
        drift = golden_mismatch(record, golden[op])
        return f"{op}: golden drift in {drift}" if drift else ""

    state = workload.setup(spec["seed"], spec["child"])
    warm_error = attempt(workload.warmup)
    errors = [warm_error] if warm_error else []
    setup_s = perf_counter() - t0
    # the library and inputs live for the whole child: keep them out of
    # every later collection, which then costs each op only its garbage
    gc.freeze()

    trace = None
    if spec["trace"]:
        from layers import LayerTrace
        trace = LayerTrace(workload.name)
    times: List[float] = []
    probes: List[float] = []
    before: Optional[float] = probe()
    setup_probe = before
    attempted = 1
    for i, op in enumerate(spec["ops"]):
        order = ((False, True) if i % 2 == 0 else (True, False)) \
            if trace else (False,)
        for traced in order:
            if traced:
                with trace.op(op):
                    error = attempt(op)
                before = None
            else:
                if before is None:
                    before = probe()
                start = perf_counter()
                error = attempt(op)
                times.append(perf_counter() - start)
                after = probe()
                probes.append((before + after) / 2)
                before = after
            attempted += 1
            if error:
                errors.append(error)

    import numpy
    out = {
        "setup_s": setup_s,
        "setup_probe": setup_probe,
        "times": times,
        "probes": probes,
        "attempted": attempted,
        "errors": errors,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "numpy": numpy.__version__,
        "input_digest": state.get("input_digest"),
    }
    if trace is not None:
        out["layers"] = trace.totals()
        out["events"] = trace.chrome_events()
    reply.write(json.dumps(out))
    reply.flush()
    return 0


# ----------------------------------------------------------------------
# Parent: spawning and pooling
# ----------------------------------------------------------------------

class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    return env


def spawn_child(spec: Dict[str, object], deadline: float) -> Dict[str, object]:
    """Run one child to completion (killed at ``deadline``)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child"],
            input=json.dumps(spec), stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=str(ROOT),
            timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['workload']} child {spec['child']} "
                         f"overran the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']} child {spec['child']} exited "
                         f"with code {proc.returncode}")
    return json.loads(proc.stdout)


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(times: List[float]):
    """(value, percentile) at the highest percentile that has at least
    ten samples beyond it; the minimum when there are ten or fewer."""
    n = len(times)
    if n <= 10:
        return min(times), 0.0
    return sorted(times)[n - 11], 100.0 * (1 - 10 / n)


def kind_p50(ops: List[str], times: List[float]) -> float:
    """Median time of each op kind, combined by geometric mean so that
    every kind weighs the same however long its ops take (a pooled
    median of a mixed workload jumps between kinds)."""
    by_kind: Dict[str, List[float]] = {}
    for op, t in zip(ops, times):
        by_kind.setdefault(op, []).append(t)
    return statistics.geometric_mean(
        statistics.median(ts) for ts in by_kind.values())


def append_jsonl(path: Path, result: Dict[str, object]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(result) + "\n")


def load_golden(path: Path) -> Dict[str, Dict[str, object]]:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, golden_path: Path) -> Dict[str, object]:
    """One measured run of one workload (all children)."""
    workload = WORKLOADS[name]
    # a traced run executes every op twice, so it measures half the passes
    ops = workload.schedule(seed, seconds / 2 if trace else seconds)
    nchild = CHILDREN
    if quick:
        ops, nchild = ops[:QUICK_OPS], 1
    golden = load_golden(golden_path).get(name, {})
    load_before = os.getloadavg()
    started = time()
    deadline = perf_counter() + RUN_DEADLINE_S
    children = [
        spawn_child({"workload": name, "seed": seed, "child": k,
                     "ops": ops[k::nchild], "trace": trace,
                     "golden": golden, "mode": "run"}, deadline)
        for k in range(nchild)]
    load_after = os.getloadavg()

    raw = [t for c in children for t in c["times"]]
    probes = [p for c in children for p in c["probes"]]
    if not raw:
        raise BenchError(f"{name}: no op completed")
    times = [t * PROBE_REF_S / p for t, p in zip(raw, probes)]
    run_ops = [op for k in range(nchild) for op in ops[k::nchild]]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(c["setup_s"] * PROBE_REF_S
                                     / c["setup_probe"] for c in children),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": kind_p50(run_ops, times) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
    }
    unscaled = {
        "bench.raw_setup_s": statistics.median(c["setup_s"] for c in children),
        "bench.raw_ops_per_s": len(raw) / sum(raw),
        "bench.raw_op_p50_ms": kind_p50(run_ops, raw) * 1e3,
        "bench.machine_slowdown": statistics.median(probes) / PROBE_REF_S,
    }
    attempted = sum(c["attempted"] for c in children)
    errors = [e for c in children for e in c["errors"]]
    result: Dict[str, object] = {
        "workload": name,
        "metrics": metrics,
        "unscaled": unscaled,
        "n_ops": len(times),
        "tail_percentile": tail_pct,
        "attempted": attempted,
        "failed": len(errors),
        "fail_ratio": len(errors) / attempted,
        "errors": errors[:20],
        "provenance": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": children[0]["numpy"],
            "nproc": os.cpu_count(),
            "loadavg_before": list(load_before),
            "loadavg_after": list(load_after),
            "started_unix": started,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "ops_per_child": [len(ops[k::nchild]) for k in range(nchild)],
            "input_digests": [c["input_digest"] for c in children],
        },
    }
    if name == "paper-sampled":
        records: Dict[str, Dict[str, object]] = {}
        for c in children:
            for op, rec in c["records"].items():
                records.setdefault(op, rec)
        result["paper_err_pct"] = paper_err_pct(records)
    if trace:
        result["layers"] = dict(layer_metrics(
            [c["layers"] for c in children], statistics.median(raw)),
            **unscaled)
        OUT_DIR.mkdir(exist_ok=True)
        events = [dict(e, pid=k) for k, c in enumerate(children)
                  for e in c["events"]]
        chrome = OUT_DIR / f"{name}-seed{seed}.trace.json"
        chrome.write_text(json.dumps({"traceEvents": events,
                                      "displayTimeUnit": "ms"}))
        result["chrome_trace"] = str(chrome.relative_to(ROOT))
    return result


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def benchmark_spec() -> Dict[str, object]:
    try:
        return json.loads(BENCHMARK_JSON.read_text())
    except FileNotFoundError:
        return {}


def selected_metrics(trace: bool) -> Dict[str, str]:
    """name -> unit of the metrics the final line carries."""
    spec = benchmark_spec()
    key = "per_layer" if trace else "end_to_end"
    if key in spec:
        return {m["name"]: m["unit"] for m in spec[key]}
    if trace:
        return {name: unit for name, unit, _ in LAYER_METRICS}
    return {name: unit for name, unit, _ in E2E_METRICS}


def print_result(result: Dict[str, object]) -> None:
    name = result["workload"]
    units = {n: u for n, u, _ in E2E_METRICS}
    for metric, value in result["metrics"].items():
        extra = ""
        if metric == "op_tail_ms":
            extra = (f"  (p{result['tail_percentile']:.1f} of "
                     f"n={result['n_ops']})")
        print(f"{name:18s} {metric:16s} {value:12.4f} {units[metric]}{extra}")
    for metric, value in result["unscaled"].items():
        print(f"{name:18s} {metric[6:]:16s} {value:12.4f}  (unscaled)")
    print(f"{name:18s} {'fail_ratio':16s} {result['fail_ratio']:12.4f} "
          f"ratio  ({result['failed']}/{result['attempted']})")
    if "paper_err_pct" in result:
        print(f"{name:18s} {'paper_err_pct':16s} "
              f"{result['paper_err_pct']:12.4f} %  (modelled, deterministic)")
    for error in result["errors"]:
        print(f"{name:18s} FAIL {error}")
    if "layers" in result:
        layers = result["layers"]
        units = {n: u for n, u, _ in LAYER_METRICS}
        print(f"{name:18s} per-layer, per traced op "
              f"(chrome trace: {result['chrome_trace']}):")
        for metric, value in layers.items():
            print(f"{'':18s} {metric:36s} {value:14.6f} {units[metric]}")


def final_line(results: List[Dict[str, object]], trace: bool) -> str:
    wanted = selected_metrics(trace)
    metrics = {}
    for result in results:
        values = dict(result["metrics"], **result.get("layers", {}))
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for metric, unit in wanted.items():
            metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    failed = sum(r["failed"] for r in results)
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(r["attempted"] for r in results),
                       "failed": failed, "metrics": metrics})


# ----------------------------------------------------------------------
# Goldens and calibration
# ----------------------------------------------------------------------

def write_golden(path: Path) -> None:
    """Record every op's modelled outputs (run once, one child each)."""
    golden = {}
    for name, workload in WORKLOADS.items():
        ops = sorted(set(workload.pass_ops))
        child = spawn_child({"workload": name, "seed": 0, "child": 0,
                             "ops": ops, "trace": False, "golden": {},
                             "mode": "golden"},
                            perf_counter() + RUN_DEADLINE_S)
        if child["errors"]:
            raise BenchError(f"{name}: {child['errors']}")
        golden[name] = {op: child["records"][op] for op in ops}
        print(f"{name}: {len(ops)} golden records")
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def calibrate(sets: int, seconds: int, runs_out: Path) -> None:
    """Run ``sets`` full sets and derive every end-to-end bound.

    A metric's bound is the largest, over workloads, of 5 % and three
    times the interquartile range of the sets over their median.  The
    largest deviation of one set from the median is recorded but not
    used: on a shared machine it is set by single slow episodes.
    Metrics whose bound would exceed 20 % are demoted to layer metrics;
    ``setup_s`` keeps the 25 % cap.  Writes ``BENCHMARK.json`` and
    ``calibration.json`` (every set's values, including the unscaled
    ones, with their spreads).
    """
    if sets < 6:
        raise BenchError("--calibrate needs at least 6 sets")
    names = list(WORKLOADS)
    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in names}
    for i in range(sets):
        for name in names[i % len(names):] + names[:i % len(names)]:
            result = run_workload(name, 1000 + i, seconds, False, False,
                                  GOLDEN)
            append_jsonl(runs_out, result)
            if result["failed"]:
                raise BenchError(f"{name}: set {i} failed its checks: "
                                 f"{result['errors']}")
            for metric, value in dict(result["metrics"],
                                      **result["unscaled"]).items():
                values[name].setdefault(metric, []).append(value)
            print(f"set {i + 1}/{sets} {name}: "
                  + " ".join(f"{m}={v:.4g}"
                             for m, v in result["metrics"].items()))

    stats: Dict[str, Dict[str, Dict[str, object]]] = {}
    for name in names:
        for metric, vals in values[name].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            stats.setdefault(name, {})[metric] = {
                "values": vals, "median": med, "iqr_share": (q3 - q1) / med,
                "max_dev_share": max(abs(v - med) for v in vals) / med}
    bounds: Dict[str, float] = {}
    for metric, _, _ in E2E_METRICS:
        need = max([MIN_BOUND]
                   + [3 * s[metric]["iqr_share"] for s in stats.values()])
        bounds[metric] = SETUP_BOUND if metric == "setup_s" \
            else math.ceil(need * 100) / 100
    demoted = [m for m, b in bounds.items()
               if m != "setup_s" and b > MAX_BOUND]
    write_benchmark_json(seconds, bounds, demoted)
    (SUITE / "calibration.json").write_text(json.dumps({
        "sets": sets, "seconds": seconds, "git_sha": git_sha(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "bounds": bounds, "demoted": demoted, "stats": stats},
        indent=1) + "\n")
    for metric, bound in bounds.items():
        print(f"{metric:16s} bound {bound:.2f}"
              + ("  (demoted to per-layer)" if metric in demoted else ""))


def write_benchmark_json(seconds: int, bounds: Dict[str, float],
                         demoted: List[str]) -> None:
    spec = {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": seconds,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bounds[n]}
                       for n, u, b in E2E_METRICS if n not in demoted],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in E2E_METRICS if n in demoted]
        + [{"name": n, "unit": u, "better": b} for n, u, b in LAYER_METRICS],
    }
    BENCHMARK_JSON.write_text(json.dumps(spec, indent=2) + "\n")


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        prog="python3 benchmarks/suite/run.py",
        description="host-time benchmark of the CUDA/G80 reproduction")
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload (default: all five)")
    p.add_argument("--seed", type=int, default=1,
                   help="draws the matmul inputs and the op order")
    p.add_argument("--seconds", type=int, default=None,
                   help="measured seconds per run (default: run_seconds "
                        "of BENCHMARK.json); whole passes are measured")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="1: report the per-layer metrics")
    p.add_argument("--out", type=Path,
                   help="append each run's full result to this JSONL file")
    p.add_argument("--quick", action="store_true",
                   help=f"{QUICK_OPS} ops in one child (self-test)")
    p.add_argument("--golden", type=Path, default=GOLDEN,
                   help="golden records to check against")
    p.add_argument("--write-golden", action="store_true",
                   help="record the golden file from this checkout")
    p.add_argument("--calibrate", type=int, metavar="K",
                   help="run K full sets and write the bounds")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main()
    repro_env = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if repro_env:
        print(f"refusing to run: {', '.join(repro_env)} set; the benchmark "
              f"measures the default policy", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    seconds = args.seconds or benchmark_spec().get("run_seconds",
                                                   DEFAULT_SECONDS)
    try:
        if args.write_golden:
            write_golden(args.golden)
            return 0
        if args.calibrate is not None:
            calibrate(args.calibrate, seconds,
                      OUT_DIR / "calibration-runs.jsonl")
            return 0
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = []
        for name in names:
            result = run_workload(name, args.seed, seconds, bool(args.trace),
                                  args.quick, args.golden)
            print_result(result)
            results.append(result)
            if args.out:
                append_jsonl(args.out, result)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(final_line(results, bool(args.trace)))
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
