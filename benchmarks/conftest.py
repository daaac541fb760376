"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
prints it (run with ``pytest benchmarks/ --benchmark-only -s`` to see
the tables inline; they are also written to ``benchmarks/out/``).
Simulation runs are deterministic, so a single benchmark round is
meaningful — the timing measures the cost of the reproduction
pipeline, while the *content* of the tables is the scientific output.
"""

import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture
def record_table(out_dir):
    """Print a rendered experiment and persist it for EXPERIMENTS.md."""
    def _record(result):
        text = result.render()
        print("\n" + text)
        slug = result.exp_id.lower().replace(" ", "_")
        (out_dir / f"{slug}.txt").write_text(text + "\n")
        return result
    return _record


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a deterministic experiment with one round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
