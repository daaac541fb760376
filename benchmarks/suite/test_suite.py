"""Self-test of the benchmark suite (``python -m pytest benchmarks/suite -q``).

Each workload runs with ``--quick`` (three ops in one child).  The
tests check that every layer wrapper is installed at the name its
caller really looks up (a wrapper on the wrong name reads zero), that
the checks catch a corrupted golden, and that the seed changes the
inputs but not the modelled outputs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent.parent
GOLDEN = RUN.parent / "golden.json"

#: layer metrics that must be non-zero on every quick run of a workload
NONZERO = {
    "matmul-functional": [
        "cuda.plan.build_s", "cuda.executors.compiled_s",
        "cuda.executors.launches.compiled", "cuda.context.traced_block_s",
        "cuda.context.traced_blocks", "trace.collector.finalize_s",
        "sim.memsys.bank_conflicts_s", "sim.memsys.coalesce_s",
        "compile.get_program_s", "compile.grid_sweep_s",
        "sim.timing.estimate_s"],
    "paper-sampled": [
        "cuda.plan.build_s", "cuda.executors.sequential_s",
        "cuda.executors.launches.sequential", "cuda.context.traced_block_s",
        "trace.collector.finalize_s", "sim.memsys.coalesce_s",
        "sim.timing.estimate_s", "apps.host_s"],
    "module-replay": [
        "cuda.executors.compiled_s", "cuda.context.traced_block_s",
        "sim.memsys.coalesce_s", "compile.get_program_s",
        "compile.grid_sweep_s", "compile.module.execute_s",
        "compile.module.fuse_plan_s", "compile.module.trace_replays",
        "compile.module.replay_ratio", "analysis.r7_s", "apps.host_s"],
    "module-distinct": [
        "cuda.context.traced_block_s", "compile.grid_sweep_s",
        "compile.module.execute_s", "compile.module.fallback_launches",
        "analysis.r7_s", "apps.host_s"],
    "static-lint": [
        "analysis.lint_s", "analysis.census_s", "analysis.estimate_s",
        "analysis.registers_s", "sim.timing.estimate_s"],
}

#: layer metrics that must be exactly zero (the bypass cases)
ZERO = {
    "paper-sampled": ["compile.grid_sweep_s", "compile.get_program_calls"],
    "module-distinct": ["compile.module.trace_replays"],
    "static-lint": ["cuda.context.traced_block_s", "compile.grid_sweep_s"],
}


def run_quick(tmp_path, workload, *extra):
    """Run one quick workload; returns (exit code, full result)."""
    out = tmp_path / "runs.jsonl"       # run.py appends; read the last
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--quick",
         "--out", str(out), *extra],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=300)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads(out.read_text().splitlines()[-1])
    assert last["attempted"] == result["attempted"]
    return proc.returncode, result


@pytest.mark.parametrize("workload", sorted(NONZERO))
def test_traced_layers(tmp_path, workload):
    code, result = run_quick(tmp_path, workload, "--trace", "1")
    assert code == 0, result["errors"]
    assert result["fail_ratio"] == 0
    layers = result["layers"]
    assert [m for m in NONZERO[workload] if not layers[m] > 0] == []
    assert [m for m in ZERO.get(workload, []) if layers[m] != 0] == []
    assert layers["bench.unattributed_pct"] <= 15


def test_corrupted_golden_fails(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    golden["matmul-functional"]["launch"]["gflops"] += 1.0
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden))
    code, result = run_quick(tmp_path, "matmul-functional",
                             "--golden", str(corrupted))
    assert code == 1
    assert result["fail_ratio"] > 0
    assert any("golden drift" in e for e in result["errors"])


def test_seed_changes_inputs_not_goldens(tmp_path):
    digests = []
    for seed in ("1", "2"):
        code, result = run_quick(tmp_path, "matmul-functional",
                                 "--seed", seed)
        assert code == 0, result["errors"]
        digests.append(result["provenance"]["input_digests"][0])
    assert digests[0] != digests[1]
