"""Whole-application AOT modules: fusion legality, trace replay, the
on-disk artifact cache and the executor policy knobs.

The module layer's contract mirrors the executors': running an app
through :meth:`Application.run_module` must be *observationally
identical* to the sequential per-launch path — same output bits, same
merged trace statistics — whatever mix of fused execution, trace
replay and per-launch fallback the fusion plan picked.
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
from repro.apps.registry import ALL_APPS
from repro.compile import (
    ArtifactCache,
    HostStep,
    clear_program_cache,
    fuse_schedule,
    get_program,
    kernel_fingerprint,
    plan_context,
    use_artifact_cache,
)
from repro.cuda import CudaModelError, Device, LaunchPlan, kernel
from repro.cuda.executors import ExecutorPolicy, get_policy, use_policy
from repro.obs.registry import MetricsRegistry, use_registry

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
    fusion = fuse_schedule(
        schedule, policy=ExecutorPolicy(min_fuse_steps=3))
    assert [g.fused for g in fusion.groups] == [False]
    assert "below the fusion threshold (3)" in fusion.groups[0].reason
    # and with the threshold lowered the same schedule fuses
    fusion = fuse_schedule(
        schedule, policy=ExecutorPolicy(min_fuse_steps=2))
    assert [g.fused for g in fusion.groups] == [True]


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
    replayed = [l for l in mod.launches if l.executor == "module"]
    assert len(replayed) == module.stats["trace_replays"]
    # replayed launches carry the recorded configuration's accounting
    traced = [l for l in mod.launches if l.executor == "compiled"]
    assert {l.trace.summary()["flops"] for l in replayed} <= \
        {l.trace.summary()["flops"] for l in traced}


def test_replay_disabled_by_policy_retraces_every_launch():
    wl = Fdtd().default_workload("test")
    with use_policy(ExecutorPolicy(module_trace_replay=False)):
        mod = Fdtd().run_module(dict(wl))
    assert mod.module.stats["trace_replays"] == 0
    assert mod.module.stats["fused_launches"] == 2 * int(wl["steps"])
    _assert_runs_identical(_sequential_run(Fdtd, wl), mod)


def test_module_counters_reach_the_registry():
    reg = MetricsRegistry()
    with use_registry(reg):
        Fdtd().run_module()
    assert reg.value("module.fuse_applied", app="fdtd") == 5
    assert reg.value("module.trace_replays", app="fdtd") == 4
    assert reg.value("module.fused_launches", app="fdtd") == 2


def test_apps_without_schedule_fall_back_to_plain_run():
    app = ALL_APPS["saxpy"]()
    wl = app.default_workload("test")
    mod = app.run_module(dict(wl))
    assert mod.module is None
    _assert_runs_identical(_sequential_run(ALL_APPS["saxpy"], wl), mod)


# ----------------------------------------------------------------------
# Executor policy knobs
# ----------------------------------------------------------------------

def test_policy_from_env_overrides():
    policy = ExecutorPolicy.from_env({
        "REPRO_MIN_FUSE_STEPS": "5",
        "REPRO_MODULE_TRACE_REPLAY": "0",
    })
    assert policy.min_fuse_steps == 5
    assert policy.module_trace_replay is False
    assert ExecutorPolicy.from_env({}) == ExecutorPolicy()


def test_policy_from_env_rejects_garbage():
    with pytest.raises(CudaModelError, match="REPRO_MIN_FUSE_STEPS"):
        ExecutorPolicy.from_env({"REPRO_MIN_FUSE_STEPS": "many"})


def test_use_policy_scopes_the_global():
    base = get_policy()
    with use_policy(ExecutorPolicy(min_fuse_steps=9)):
        assert get_policy().min_fuse_steps == 9
    assert get_policy() == base


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


def test_fingerprint_tracks_closure_constants():
    from repro.apps.lbm import lbm_step_kernel
    assert kernel_fingerprint(lbm_step_kernel("aos")) != \
        kernel_fingerprint(lbm_step_kernel("soa"))
    assert kernel_fingerprint(lbm_step_kernel("aos")) == \
        kernel_fingerprint(lbm_step_kernel("aos"))


# ----------------------------------------------------------------------
# Negative-cache observability (R6 surfacing)
# ----------------------------------------------------------------------

@kernel("module_sync_in_branch", regs_per_thread=4)
def module_sync_in_branch(ctx, out):
    i = ctx.global_tid()
    with ctx.masked(i < 8):
        ctx.sync()
    ctx.st_global(out, i, i.astype(np.float32))


def test_negative_cache_hits_reach_the_registry():
    clear_program_cache()
    reg = MetricsRegistry()
    with use_registry(reg):
        from repro.compile import compile_status
        assert compile_status(module_sync_in_branch)[0] is False
        assert compile_status(module_sync_in_branch)[0] is False
    assert reg.value("compile.negative_cache_hits",
                     kernel="module_sync_in_branch") >= 1
    clear_program_cache()
