"""Compare a parent and a change run set of the benchmark suite.

Usage, from the repository root::

    python3 benchmarks/suite/compare.py parent.jsonl change.jsonl \\
        [--claim op_p50_ms@module-distinct ...]

Each file is the JSONL ``run.py --out`` appends to, one run of one
workload per line.  Run both commits alternately, at least ten times
each per workload, with identical settings.

For every end-to-end metric of ``BENCHMARK.json`` and every workload:

* a claimed gain (``--claim metric@workload``) holds when the change
  wins at least nine tenths of the pairs (ties count for neither side)
  and the medians differ by more than the parent's interquartile range;
* any other pair is a regression when the change's median is worse
  than the parent's by more than the metric's bound;
* it is unresolved when either side's interquartile range exceeds the
  bound, unless every change run beats every parent run.

Exits 1 on a regression or an unmet claim, 2 on unusable input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> Dict[str, List[dict]]:
    """workload -> its runs in file order."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            result = json.loads(line)
            runs[result["workload"]].append(result)
    return runs


def iqr(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def better(a: float, b: float, direction: str) -> bool:
    """Is ``a`` strictly better than ``b``?"""
    return a < b if direction == "lower" else a > b


def alternated(parent: List[dict], change: List[dict]) -> bool:
    """Did the runs of the two sides start in alternation?"""
    stamps = sorted([(r["provenance"]["started_unix"], "p") for r in parent]
                    + [(r["provenance"]["started_unix"], "c") for r in change])
    sides = [s for _, s in stamps]
    return all(a != b for a, b in zip(sides, sides[1:]))


def verdict(p: List[float], c: List[float], direction: str, bound: float,
            claimed: bool) -> Tuple[str, str]:
    """(verdict, detail) for one metric x workload pair."""
    pm, cm = statistics.median(p), statistics.median(c)
    change = (cm - pm) / pm if pm else 0.0
    worse = change if direction == "lower" else -change
    detail = (f"parent {pm:.4g} [IQR {iqr(p):.3g}]  change {cm:.4g} "
              f"[IQR {iqr(c):.3g}]  {100 * change:+.1f}%")
    if claimed:
        wins = sum(better(x, y, direction) for x, y in zip(c, p))
        pairs = min(len(p), len(c))
        ok = wins >= WIN_SHARE * pairs and abs(cm - pm) > iqr(p)
        return ("gain" if ok else "claim not met",
                f"{detail}  wins {wins}/{pairs}")
    spread = max(iqr(p) / pm if pm else 0.0, iqr(c) / cm if cm else 0.0)
    if spread > bound:
        if all(better(x, y, direction) for x in c for y in p):
            return "better", detail
        return "unresolved", f"{detail}  spread {100 * spread:.1f}% > bound"
    if worse > bound:
        return "regression", f"{detail}  bound {100 * bound:.0f}%"
    return "ok", detail


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(prog="python3 benchmarks/suite/compare.py",
                                 description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--claim", action="append", default=[],
                    metavar="METRIC@WORKLOAD",
                    help="a gain the change claims (repeatable)")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    parent, change = load_runs(args.parent), load_runs(args.change)
    claims = set(args.claim)
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs and not c_runs:
            continue
        pairs = min(len(p_runs), len(c_runs))
        if pairs < MIN_PAIRS:
            print(f"{workload}: {pairs} pairs, need at least {MIN_PAIRS}",
                  file=sys.stderr)
            return 2
        note = "" if alternated(p_runs, c_runs) else "  (runs not alternated)"
        print(f"{workload}: {pairs} pairs{note}")
        for name, direction, bound in metrics:
            p = [r["metrics"][name] for r in p_runs[:pairs]]
            c = [r["metrics"][name] for r in c_runs[:pairs]]
            claimed = f"{name}@{workload}" in claims
            claims.discard(f"{name}@{workload}")
            result, detail = verdict(p, c, direction, bound, claimed)
            failed |= result in ("regression", "claim not met")
            print(f"  {name:14s} {result:14s} {detail}")
    for claim in sorted(claims):
        print(f"claim {claim}: no such metric x workload", file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
