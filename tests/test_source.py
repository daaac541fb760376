"""The kernel front end (:mod:`repro.cuda.source`).

Every static view of a kernel — the interpreter, liveness, the IR and
its uniformity dataflow, the lowering, the program and artifact caches
— is served from one reading of its source per code object, and the
lowered program is keyed by the kernel's content.  These tests pin
that contract: how often source is read, which closures share an IR
or a program, and which stay out of the caches.
"""

import inspect
from collections import Counter

import numpy as np
import pytest

from repro.analysis.estimate import estimate_target
from repro.analysis.ir import lower_kernel
from repro.analysis.rules import analyze_target
from repro.apps.lbm import lbm_step_kernel
from repro.apps.rc5 import rc5_search_kernel
from repro.apps.registry import ALL_APPS, get_app
from repro.arch.device import geforce_8800_gtx
from repro.compile import (ArtifactCache, clear_program_cache, get_program,
                           use_artifact_cache)
from repro.cuda import kernel
from repro.cuda.source import closure_env, fingerprint, kernel_source


def test_second_lint_pass_reads_no_source(monkeypatch):
    """The lint targets are fresh closures on every call, as in the
    static-lint benchmark; the second pass is served entirely from the
    first one's reads, which read each code object at most once."""
    spec = geforce_8800_gtx()
    reads = Counter()
    getsourcelines = inspect.getsourcelines

    def counted(obj):
        reads[getattr(obj, "__code__", obj)] += 1
        return getsourcelines(obj)

    monkeypatch.setattr(inspect, "getsourcelines", counted)
    monkeypatch.setattr(inspect, "getsource",
                        lambda obj: "".join(counted(obj)[0]))

    def lint_pass():
        for name in sorted(ALL_APPS):
            for target in get_app(name, spec).lint_targets():
                analyze_target(target, app=name, spec=spec)
                estimate_target(target, spec)

    lint_pass()
    assert max(reads.values(), default=0) <= 1, reads.most_common(3)
    reads.clear()
    lint_pass()
    assert sum(reads.values()) == 0, reads.most_common(3)


def test_closures_of_one_def_share_one_ir():
    assert lower_kernel(lbm_step_kernel("aos")) \
        is lower_kernel(lbm_step_kernel("soa"))
    assert kernel_source(lbm_step_kernel("aos")) \
        is kernel_source(lbm_step_kernel("soa"))


def test_equal_fresh_closures_share_one_program():
    soa = get_program(lbm_step_kernel("soa"))
    assert get_program(lbm_step_kernel("soa")) is soa
    assert get_program(lbm_step_kernel("aos")) is not soa
    assert get_program(rc5_search_kernel(False)) \
        is not get_program(rc5_search_kernel(True))


def test_source_offset_gives_absolute_lines():
    fn = lbm_step_kernel("aos").fn
    src = kernel_source(fn)
    assert src.offset + 1 == fn.__code__.co_firstlineno
    assert src.fdef.name == "step"
    assert src.text.lstrip().startswith("@kernel(")
    assert closure_env(fn) == {"layout": "aos"}


def test_fingerprint_encodes_nested_values():
    def factory(value):
        def helper(x):
            return x + value[0]

        def fn(ctx, out):
            ctx.st_global(out, ctx.global_tid(), helper(ctx.global_tid()))
        return fn

    same = fingerprint(factory((np.float32(1.0),)))
    assert same == fingerprint(factory((np.float32(1.0),)))
    assert same != fingerprint(factory((np.float64(1.0),)))
    assert same != fingerprint(factory((1.0,)))
    assert fingerprint(factory((np.arange(3),))) \
        != fingerprint(factory((np.arange(3)[::-1],)))


def _list_probe():
    scale = [2]         # lowerable, but a list has no faithful encoding

    @kernel("list_probe", regs_per_thread=4)
    def probe(ctx, out):
        i = ctx.global_tid()
        ctx.st_global(out, i, (i * scale[0]).astype(np.float32))
    return probe


@pytest.mark.parametrize("value", [[1, 2], object(), {"a": 1}])
def test_unencodable_closure_value_has_no_fingerprint(value):
    def fn(ctx):
        return value

    assert fingerprint(fn) is None


def test_kernel_without_fingerprint_stays_out_of_both_caches(tmp_path):
    kern = _list_probe()
    assert fingerprint(kern) is None
    cache = ArtifactCache(str(tmp_path))
    with use_artifact_cache(cache):
        clear_program_cache()
        first = get_program(kern, ("dev", ()))
        assert get_program(kern, ("dev", ())) is not first
    clear_program_cache()
    assert cache.stats["writes"] == 0
    assert cache.stats["misses"] == 0


def test_unreadable_source_raises_a_source_error():
    namespace = {}
    exec("def k(ctx):\n    pass\n", namespace)
    with pytest.raises(OSError):
        kernel_source(namespace["k"])
    assert fingerprint(namespace["k"]) is None
    lambda_source = kernel_source(lambda ctx: None)
    with pytest.raises(ValueError):
        _ = lambda_source.fdef
