"""Cross-device retuning benchmark: ladder + autotuner per device.

The paper's Section 4 tuning study is specific to one device: every
bound, occupancy cliff and coalescing verdict is a G80 number.  This
benchmark replays the study across the registered device profiles
(:mod:`repro.arch.registry`) and records what *moves* — the modelled
GFLOPS of the four-variant matmul ladder, and the configuration the
autotuner crowns on each device.  The headline result is the winner
shift: the G80's best configuration (16x16 tiled + unrolled) is not
the best on Fermi-class parts, whose larger thread-block and
shared-memory budgets admit tile sizes the G80 cannot schedule.

Command line::

    python -m repro.bench.devices                    # default devices
    python -m repro.bench.devices --devices geforce_8800_gtx gtx_480
    python -m repro.bench.devices --n 256

prints one row per device: peak, ladder GFLOPS per variant, the
autotuner winner, its GFLOPS, and the number of configurations the
exhaustive search evaluated.  ``benchmarks/test_cross_device.py`` writes
the n=512 table to ``benchmarks/out/cross_device.txt``, the committed
record of these numbers.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from ..arch.registry import device_by_name
from ..sim.autotuner import MatmulAutotuner
from .tables import format_table

#: profiles the benchmark sweeps by default: the paper's device, the
#: Fermi-class part, and a modern-class part
DEFAULT_DEVICES = ("geforce_8800_gtx", "gtx_480", "rtx_3090")

#: matmul variants of the Section 4 ladder, in paper order
LADDER_VARIANTS = ("naive", "tiled", "tiled_unrolled", "prefetch")


def run_ladder(spec, n: int = 512, trace_blocks: int = 2
               ) -> Dict[str, float]:
    """Modelled GFLOPS of the Section 4 ladder (16x16 tiles) on
    ``spec``."""
    from ..apps.matmul import MatMul
    app = MatMul(spec)
    out = {}
    for variant in LADDER_VARIANTS:
        run = app.run({"n": n, "variant": variant, "tile": 16,
                       "trace_blocks": trace_blocks}, functional=False)
        out[variant] = round(run.launches[0].estimate().gflops, 2)
    return out


def tune_device(spec, n: int = 512, trace_blocks: int = 2
                ) -> Dict[str, object]:
    """Autotune the matmul space on ``spec``; returns the winner and
    the number of configurations evaluated."""
    tuner = MatmulAutotuner(n=n, trace_blocks=trace_blocks, spec=spec)
    result = tuner.exhaustive()
    return {
        "evaluated": len(result.evaluations),
        "winner": result.best.config.label,
        "winner_gflops": round(result.best_gflops, 2),
    }


def run_devices(names: Sequence[str] = DEFAULT_DEVICES, n: int = 512,
                trace_blocks: int = 2) -> List[Dict[str, object]]:
    """Ladder + retune for each named device profile."""
    entries = []
    for name in names:
        spec = device_by_name(name)
        entries.append({
            "device": name,
            "peak_mad_gflops": round(spec.peak_mad_gflops, 1),
            "ladder_gflops": run_ladder(spec, n, trace_blocks),
            "autotune": tune_device(spec, n, trace_blocks),
        })
    return entries


def format_entries(entries: Sequence[Dict[str, object]]) -> str:
    headers = ["device", "peak", "naive", "tiled", "unrolled", "prefetch",
               "winner", "winner GFLOPS", "evaluated"]
    rows = []
    for e in entries:
        ladder = e["ladder_gflops"]
        tune = e["autotune"]
        rows.append([
            e["device"],
            f"{e['peak_mad_gflops']:.1f}",
            f"{ladder['naive']:.2f}",
            f"{ladder['tiled']:.2f}",
            f"{ladder['tiled_unrolled']:.2f}",
            f"{ladder['prefetch']:.2f}",
            tune["winner"],
            f"{tune['winner_gflops']:.2f}",
            str(tune["evaluated"]),
        ])
    return format_table(headers, rows,
                        title="cross-device matmul ladder + retune "
                              "(modelled GFLOPS)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.devices",
        description="Section 4 matmul ladder and autotuner winner "
                    "across registered device profiles")
    parser.add_argument("--devices", nargs="+", default=list(DEFAULT_DEVICES),
                        help="registered device names to sweep")
    parser.add_argument("--n", type=int, default=512,
                        help="matrix size for the ladder and the tuner")
    parser.add_argument("--trace-blocks", type=int, default=2)
    args = parser.parse_args(argv)

    try:
        entries = run_devices(args.devices, n=args.n,
                              trace_blocks=args.trace_blocks)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    print(format_entries(entries))
    winners = {e["device"]: e["autotune"]["winner"] for e in entries}
    if len(set(winners.values())) > 1:
        print("note: autotuner winner shifts across devices: "
              + ", ".join(f"{d} -> {w}" for d, w in winners.items()))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
