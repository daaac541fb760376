"""Smoke tests: every example script runs to completion.

Examples double as integration tests of the public API; they are run
in-process (imported and ``main()`` called) with output captured, at
sizes small enough for the unit-test budget.
"""

import importlib.util
import pathlib

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def load_example(name):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_directory_complete():
    names = sorted(p.stem for p in EXAMPLES.glob("*.py"))
    assert "quickstart" in names
    assert len(names) >= 3


def test_quickstart(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "functional check vs NumPy: OK" in out
    assert "bound by" in out


def test_matmul_walkthrough(capsys):
    load_example("matmul_optimization_walkthrough").main(n=256)
    out = capsys.readouterr().out
    assert "Step 4" in out
    assert "Figure 4" in out
    assert "BACKFIRES" in out


def test_mri_reconstruction(capsys):
    load_example("mri_reconstruction").main()
    out = capsys.readouterr().out
    assert "functional check vs NumPy reference OK" in out
    assert "SFU share of the speedup" in out


def test_autotuning_search(capsys):
    load_example("autotuning_search").main(n=256)
    out = capsys.readouterr().out
    assert "global optimum" in out
    assert "STUCK at a local maximum" in out


def test_lbm_flow(capsys):
    load_example("lbm_flow").main()
    out = capsys.readouterr().out
    assert "matches NumPy reference: OK" in out
    assert "Figure 5" in out
