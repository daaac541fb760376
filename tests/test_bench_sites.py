"""The benchmark suite's layer timer patches names in ``src/``.

``benchmarks/suite/layers.py`` times layers from outside by replacing
callables at the import paths its ``SPAN_SITES``, ``LEAF_SITES`` and
``GET_PROGRAM_SITES`` tables name.  A renamed or dropped target (or a
dropped re-export, such as ``repro.compile.module.get_program`` or
``repro.analysis.interp.block_bank_conflicts``) only fails the suite's
own self-test; these tests fail first.  They go with the tables once
the layers are spans in the code.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

LAYERS_PATH = (Path(__file__).resolve().parents[1]
               / "benchmarks" / "suite" / "layers.py")


def _load_layers():
    spec = importlib.util.spec_from_file_location("suite_layers",
                                                  LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


@pytest.mark.parametrize("module,attr,layer",
                         layers.SPAN_SITES + layers.LEAF_SITES)
def test_patch_site_resolves(module, attr, layer):
    owner, name = layers._resolve(module, attr)
    assert callable(getattr(owner, name)), f"{module}:{attr} ({layer})"


@pytest.mark.parametrize("module", layers.GET_PROGRAM_SITES)
def test_get_program_site_resolves(module):
    assert callable(importlib.import_module(module).get_program)


#: the layers static-lint's self-test requires non-zero, timed where
#: ``estimate_target`` looks them up
ESTIMATE_SITES = ("census_target", "estimate_registers")


def test_estimate_calls_each_layer_site_once(monkeypatch):
    """``analysis.census_s`` and ``analysis.registers_s`` stay non-zero
    on static-lint only while ``estimate_target`` calls both sites, also
    when the lint pass has already left the census on the target."""
    from repro.analysis import estimate, rules
    from repro.apps.registry import get_app

    calls = Counter()
    for attr in ESTIMATE_SITES:
        assert ("repro.analysis.estimate", attr) in {
            site[:2] for site in layers.SPAN_SITES}

        def counted(*args, _attr=attr, _wrapped=getattr(estimate, attr),
                    **kwargs):
            calls[_attr] += 1
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(estimate, attr, counted)

    target = get_app("saxpy").lint_targets()[0]
    estimate.estimate_target(target)
    assert calls == Counter(ESTIMATE_SITES)
    rules.analyze_target(target, app="saxpy")
    calls.clear()
    estimate.estimate_target(target)
    assert calls == Counter(ESTIMATE_SITES)
