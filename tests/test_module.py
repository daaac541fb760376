"""Whole-application AOT modules: fusion legality, trace replay and
the on-disk artifact cache.

The module layer's contract mirrors the executors': running an app
through :meth:`Application.run_module` must be *observationally
identical* to the sequential per-launch path — same output bits, same
merged trace statistics — whatever mix of fused execution, trace
replay and per-launch fallback the fusion plan picked.  Replay goes
through the schedule device's launch trace cache (``Device.traces``),
which the module's compiled executor shares with ``"auto"``; the
per-launch, two-device identity sweep lives in
``tests/test_executors.py`` (``test_every_app_identical_under_module``).
"""

import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.apps.fdtd import Fdtd
from repro.apps.lbm import Lbm
from repro.apps.mri_q import MriQ
from repro.apps.registry import ALL_APPS, get_app
from repro.compile import (
    ArtifactCache,
    CompiledModule,
    HostStep,
    ModuleSchedule,
    active_artifact_cache,
    clear_program_cache,
    fuse_schedule,
    get_program,
    kernel_fingerprint,
    plan_context,
    use_artifact_cache,
)
from repro.cuda import Device, LaunchPlan, kernel

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _sequential_run(app_cls, workload):
    app = app_cls()
    app.executor = "sequential"
    return app.run(dict(workload), functional=True)


def _assert_runs_identical(ref, mod):
    assert set(ref.outputs) == set(mod.outputs)
    for key in ref.outputs:
        np.testing.assert_array_equal(ref.outputs[key], mod.outputs[key])
    assert ref.merged_trace.summary() == mod.merged_trace.summary()


# ----------------------------------------------------------------------
# Fusion legality (R7 as the oracle)
# ----------------------------------------------------------------------

def test_fdtd_schedule_is_one_fused_group():
    app = Fdtd()
    wl = app.default_workload("test")          # steps=3 -> 6 launches
    schedule = app.module_schedule(wl)
    fusion = fuse_schedule(schedule)
    assert len(fusion.groups) == 1
    group = fusion.groups[0]
    assert group.fused and group.reason == ""
    assert len(group.steps) == 2 * int(wl["steps"])
    # the three fields flow around the timestep loop: loop-carried,
    # kept device-resident across the group's launches
    assert set(group.carried) == {"Ez", "Hx", "Hy"}
    assert fusion.fuse_applied == 2 * int(wl["steps"]) - 1


def test_lbm_soa_schedule_fuses():
    app = Lbm()
    wl = app.default_workload("test")          # soa layout, steps=2
    fusion = fuse_schedule(app.module_schedule(wl))
    assert [g.fused for g in fusion.groups] == [True]
    assert fusion.fuse_applied == int(wl["steps"]) - 1


def test_lbm_texture_host_steps_break_groups():
    app = Lbm()
    wl = {"nx": 32, "ny": 16, "steps": 2, "total_steps": 2,
          "layout": "texture"}
    schedule = app.module_schedule(wl)
    # launch / host re-bind copy / launch / host re-bind copy
    kinds = [isinstance(s, HostStep) for s in schedule.steps]
    assert kinds == [False, True, False, True]
    fusion = fuse_schedule(schedule)
    assert all(not g.fused for g in fusion.groups)
    assert fusion.fuse_applied == 0
    for group in fusion.groups:
        assert "host step barrier" in group.reason


def test_host_step_caps_but_does_not_unfuse_the_run_before_it():
    """A barrier ends a group; the launches before it still fuse."""
    app = Fdtd()
    wl = app.default_workload("test")
    schedule = app.module_schedule(wl)
    noted = []
    schedule.steps.append(HostStep(lambda: noted.append(1), note="drain"))
    fusion = fuse_schedule(schedule)
    assert [g.fused for g in fusion.groups] == [True]
    assert len(fusion.groups[0].steps) == 2 * int(wl["steps"])


def test_groups_below_threshold_are_refused():
    app = Fdtd()
    wl = {"nx": 32, "ny": 32, "steps": 1, "total_steps": 1}  # 2 launches
    schedule = app.module_schedule(wl)
    # two launches reach MIN_FUSE_STEPS and fuse...
    assert [g.fused for g in fuse_schedule(schedule).groups] == [True]
    # ...one alone is below it
    schedule.steps = schedule.steps[:1]
    fusion = fuse_schedule(schedule)
    assert [g.fused for g in fusion.groups] == [False]
    assert "below the fusion threshold (2)" in fusion.groups[0].reason


# ----------------------------------------------------------------------
# Bit-identity of the module path + replay accounting
# ----------------------------------------------------------------------

@pytest.mark.parametrize("app_cls", [Lbm, Fdtd, MriQ])
def test_module_run_identical_to_sequential(app_cls):
    wl = app_cls().default_workload("test")
    ref = _sequential_run(app_cls, wl)
    mod = app_cls().run_module(dict(wl))
    _assert_runs_identical(ref, mod)


def test_fdtd_module_replays_repeated_configurations():
    wl = Fdtd().default_workload("test")       # steps=3 -> 6 launches
    mod = Fdtd().run_module(dict(wl))
    module = mod.module
    assert module is not None
    # 2 distinct configurations (H update, E update) trace once each;
    # the other 4 launches replay
    assert module.stats["fused_launches"] == 2
    assert module.stats["trace_replays"] == 2 * int(wl["steps"]) - 2
    assert module.stats["fuse_applied"] == 2 * int(wl["steps"]) - 1
    # every fused launch runs on the compiled executor; a replay is one
    # whose whole traced sample came from the launch trace cache
    assert {l.executor for l in mod.launches} == {"compiled"}
    replayed = [l for l in mod.launches if l.memo_hits]
    assert len(replayed) == module.stats["trace_replays"]
    assert all(l.memo_hits == l.blocks_traced for l in replayed)
    # replayed launches carry the recorded configuration's accounting
    traced = [l for l in mod.launches if not l.memo_hits]
    assert {l.trace.summary()["flops"] for l in replayed} <= \
        {l.trace.summary()["flops"] for l in traced}


def test_lbm_replay_keeps_shared_memory_high_water_mark():
    """LBM stages its cells in dynamically allocated shared memory; a
    replayed launch traces no block, so its shared-memory footprint
    must come from the recorded configuration."""
    wl = {"nx": 32, "ny": 16, "steps": 4, "total_steps": 4,
          "layout": "soa"}                 # ping-pong: launches 3, 4 replay
    ref = _sequential_run(Lbm, wl)
    mod = Lbm().run_module(dict(wl))
    assert mod.module.stats["trace_replays"] == 2
    assert ref.smem_per_block > 0
    assert [l.smem_bytes_per_block for l in mod.launches] == \
        [l.smem_bytes_per_block for l in ref.launches]
    _assert_runs_identical(ref, mod)


@kernel("dup", regs_per_thread=4)
def dup_store(ctx, out):
    i = ctx.global_tid()
    ctx.st_global(out, i, (i * 0).astype(np.float32))


@kernel("dup", regs_per_thread=4)
def dup_fma(ctx, out):
    i = ctx.global_tid()
    ctx.st_global(out, i, ctx.fma(i.astype(np.float32), np.float32(2.0),
                                  np.float32(1.0)))


def test_replay_key_tells_same_named_kernels_apart():
    """Two different kernels sharing a name and a signature are two
    launch configurations: the second must trace, not replay the
    first's trace."""
    def steps(dev, out):
        return [LaunchPlan.build(k, (8,), (64,), (out,), device=dev)
                for k in (dup_store, dup_fma)]

    dev = Device()
    out = dev.alloc(8 * 64, np.float32, "out")
    sequential = [plan.execute("sequential").trace.flops
                  for plan in steps(dev, out)]
    dev = Device()
    out = dev.alloc(8 * 64, np.float32, "out")
    module = CompiledModule(ModuleSchedule(app="dup", device=dev,
                                           steps=steps(dev, out)))
    assert [g.fused for g in module.fusion.groups] == [True]
    results = module.execute()
    assert sequential == [0.0, 1024.0]
    assert [r.trace.flops for r in results] == sequential
    assert module.stats["trace_replays"] == 0


def test_module_counters_reach_the_registry():
    """``CompiledModule.stats`` is the module's one record of its
    events: fdtd's six launches fuse into one group, with no host step
    or fallback launch."""
    run = Fdtd().run_module()
    assert dict(run.module.stats) == {
        "fuse_applied": 5, "trace_replays": 4, "fused_launches": 2}


def test_apps_without_schedule_fall_back_to_plain_run():
    app = ALL_APPS["saxpy"]()
    wl = app.default_workload("test")
    mod = app.run_module(dict(wl))
    assert mod.module is None
    _assert_runs_identical(_sequential_run(ALL_APPS["saxpy"], wl), mod)


# ----------------------------------------------------------------------
# Artifact cache: round-trip, staleness, corruption
# ----------------------------------------------------------------------

@kernel("artifact_probe", regs_per_thread=4)
def artifact_probe(ctx, out, n):
    i = ctx.global_tid()
    with ctx.masked(i < n):
        ctx.st_global(out, i, (i * 2).astype(np.float32))


def _probe_plan():
    dev = Device()
    out = dev.alloc(64, np.float32, "out")
    return LaunchPlan.build(artifact_probe, (2,), (32,), (out, 64),
                            device=dev, functional=True), out


def test_artifact_roundtrip_in_process(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    with use_artifact_cache(cache):
        clear_program_cache()
        plan, out = _probe_plan()
        plan.execute("compiled")
        first = out.to_host().copy()
        assert cache.stats["writes"] == 1
        assert cache.stats["cold_hits"] == 0
        # a fresh memory cache now loads from disk instead of lowering
        clear_program_cache()
        plan, out = _probe_plan()
        plan.execute("compiled")
        assert cache.stats["cold_hits"] == 1
        assert cache.stats["writes"] == 1
        np.testing.assert_array_equal(first, out.to_host())
    clear_program_cache()


def test_artifact_roundtrip_across_processes(tmp_path):
    """A cold process with a warm REPRO_AOT_CACHE reloads the compiled
    programs from disk and produces the same output bits."""
    script = (
        "import hashlib, json\n"
        "from repro.apps.fdtd import Fdtd\n"
        "from repro.compile import active_artifact_cache\n"
        "run = Fdtd().run_module()\n"
        "cache = active_artifact_cache()\n"
        "print(json.dumps({\n"
        "    'checksums': {k: hashlib.sha256(v.tobytes()).hexdigest()\n"
        "                  for k, v in sorted(run.outputs.items())},\n"
        "    'writes': cache.stats['writes'],\n"
        "    'cold_hits': cache.stats['cold_hits'],\n"
        "}))\n")
    env = dict(os.environ, PYTHONPATH=SRC,
               REPRO_AOT_CACHE=str(tmp_path))

    def child():
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    cold = child()
    warm = child()
    assert cold["writes"] == 2 and cold["cold_hits"] == 0
    assert warm["cold_hits"] == 2 and warm["writes"] == 0
    assert cold["checksums"] == warm["checksums"]


def test_stale_artifact_is_invalidated(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    plan, _ = _probe_plan()
    program = get_program(artifact_probe)
    assert cache.store(artifact_probe, program, *plan_context(plan))
    path = cache.path_for(artifact_probe, *plan_context(plan))
    # simulate an edited kernel: same file name, different fingerprint
    with open(path, "rb") as fh:
        wrapper = pickle.loads(fh.read())
    wrapper["fingerprint"] = "0" * 64
    with open(path, "wb") as fh:
        fh.write(pickle.dumps(wrapper))
    assert cache.load(artifact_probe, *plan_context(plan)) is None
    assert cache.stats["invalidated"] == 1
    assert not os.path.exists(path)            # stale file removed
    # the rewrite is clean: store + load round-trips again
    assert cache.store(artifact_probe, program, *plan_context(plan))
    assert cache.load(artifact_probe, *plan_context(plan)) is not None


def test_corrupt_artifact_is_discarded(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    plan, _ = _probe_plan()
    program = get_program(artifact_probe)
    assert cache.store(artifact_probe, program, *plan_context(plan))
    path = cache.path_for(artifact_probe, *plan_context(plan))
    with open(path, "wb") as fh:
        fh.write(b"not a pickle")
    assert cache.load(artifact_probe, *plan_context(plan)) is None
    assert cache.stats["corrupt"] == 1
    assert not os.path.exists(path)


def test_unwritable_cache_falls_back_to_the_in_memory_program(
        tmp_path, monkeypatch):
    """REPRO_AOT_CACHE naming a regular file: the store fails and is
    counted, and the launch runs on the program it just lowered."""
    app = get_app("saxpy")
    workload = app.default_workload("test")
    monkeypatch.delenv("REPRO_AOT_CACHE", raising=False)
    clear_program_cache()
    want = app.run(dict(workload), functional=True).outputs
    blocker = tmp_path / "not-a-directory"
    blocker.write_bytes(b"")
    monkeypatch.setenv("REPRO_AOT_CACHE", str(blocker))
    clear_program_cache()
    got = app.run(dict(workload), functional=True).outputs
    clear_program_cache()
    assert active_artifact_cache().stats["unwritable"] >= 1
    assert set(got) == set(want)
    for key in want:
        np.testing.assert_array_equal(got[key], want[key])


def test_fingerprint_tracks_closure_constants():
    from repro.apps.lbm import lbm_step_kernel
    from repro.apps.rc5 import rc5_search_kernel
    assert kernel_fingerprint(lbm_step_kernel("aos")) != \
        kernel_fingerprint(lbm_step_kernel("soa"))
    assert kernel_fingerprint(lbm_step_kernel("aos")) == \
        kernel_fingerprint(lbm_step_kernel("aos"))
    # the variants differ only in what their rotl helper closes over
    assert kernel_fingerprint(rc5_search_kernel(False)) != \
        kernel_fingerprint(rc5_search_kernel(True))


def _scaled_probe(scale):
    def times(x):
        return x * scale

    @kernel("closure_probe", regs_per_thread=4)
    def probe(ctx, out):
        i = ctx.global_tid()
        ctx.st_global(out, i, times(i).astype(np.float32))
    return probe


def _table_probe(table):
    @kernel("closure_probe", regs_per_thread=4)
    def probe(ctx, out):
        i = ctx.global_tid()
        ctx.st_global(out, i, (i * 0 + table[5]).astype(np.float32))
    return probe


def _run_compiled(kern):
    dev = Device()
    out = dev.alloc(256, np.float32, "out")
    LaunchPlan.build(kern, (8,), (32,), (out,), device=dev,
                     functional=True).execute("compiled")
    return out.to_host()


def test_artifact_cache_tells_helper_closures_apart(tmp_path):
    """Two kernels of one name whose helper closes over different
    constants: the second must not load the first's artifact."""
    cache = ArtifactCache(str(tmp_path))
    with use_artifact_cache(cache):
        for scale in (1, 3):
            clear_program_cache()
            got = _run_compiled(_scaled_probe(scale))
            np.testing.assert_array_equal(got, np.arange(256) * scale)
    clear_program_cache()
    assert cache.stats["cold_hits"] == 0
    assert cache.stats["invalidated"] == 1


def test_artifact_cache_tells_array_contents_apart(tmp_path):
    """A closure array whose ``repr`` elides the changed element."""
    table = np.zeros(2000)
    edited = table.copy()
    edited[5] = 7.0
    assert repr(table) == repr(edited)
    cache = ArtifactCache(str(tmp_path))
    with use_artifact_cache(cache):
        for values in (table, edited):
            clear_program_cache()
            got = _run_compiled(_table_probe(values))
            np.testing.assert_array_equal(got, np.full(256, values[5]))
    clear_program_cache()
    assert cache.stats["cold_hits"] == 0
    assert cache.stats["invalidated"] == 1


def test_program_cached_by_content_keeps_that_content():
    """A closure array edited in place after its kernel compiled must
    not change what the program cached under its old content computes
    for a later kernel with that content."""
    clear_program_cache()
    table = np.zeros(8)
    np.testing.assert_array_equal(_run_compiled(_table_probe(table)),
                                  np.zeros(256))
    table[5] = 7.0
    np.testing.assert_array_equal(_run_compiled(_table_probe(table)),
                                  np.full(256, 7.0))
    np.testing.assert_array_equal(_run_compiled(_table_probe(np.zeros(8))),
                                  np.zeros(256))
    clear_program_cache()


# ----------------------------------------------------------------------
# Negative program cache
# ----------------------------------------------------------------------

@kernel("module_sync_in_branch", regs_per_thread=4)
def module_sync_in_branch(ctx, out):
    i = ctx.global_tid()
    with ctx.masked(i < 8):
        ctx.sync()
    ctx.st_global(out, i, i.astype(np.float32))


def test_negative_cache_hits_reach_the_registry(monkeypatch):
    """A refused kernel is lowered once: the negative cache answers
    its second probe."""
    from repro.compile import compile_status, program
    lowered = []
    lower = program.compile_kernel

    def counting_compile(kernel):
        lowered.append(kernel.name)
        return lower(kernel)

    monkeypatch.setattr(program, "compile_kernel", counting_compile)
    clear_program_cache()
    assert compile_status(module_sync_in_branch)[0] is False
    assert compile_status(module_sync_in_branch)[0] is False
    assert lowered == ["module_sync_in_branch"]
    clear_program_cache()
