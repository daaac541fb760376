"""Static performance estimator: census, liveness, bounds, advisor.

Covers the contracts of the PR's static cost model:

* the static instruction census agrees with the dynamic
  ``LaunchProfiler`` trace counters on five apps (matmul, saxpy, cp,
  mri-q, rpes) when every block is traced — same accounting rules,
  no execution;
* the census equals execution op by op, on one small kernel per
  accounting path (arithmetic, bookkeeping, masks, each memory kind,
  atomics) on G80 and GTX 480;
* liveness reproduces the paper's register anecdotes exactly
  (tiled 10, +unroll 9, +prefetch 11) and never exceeds the declared
  counts on any shipped kernel;
* golden ``PerfEstimate`` values for the matmul ladder and saxpy:
  closed-form anchors (43.2 / 93.72 GFLOPS potentials, 173 GB/s
  naive demand), binding bottlenecks, blocks/SM;
* property: predicted GFLOPS and every closed-form bound stay under
  the 345.6 (SP) / 388.8 (SP+SFU) peaks across the variant space;
* the advisor ranks tiling first on the naive kernel, unrolling first
  on the tiled kernel, and flags prefetching's occupancy cliff with a
  negative payoff;
* the static closed-form ceiling bounds the autotuner's modelled
  GFLOPS on every configuration of the matmul space;
* the golden-ratio regression gate detects drift.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Severity
from repro.analysis.advisor import advise_estimate, advise_target
from repro.analysis.census import census_target
from repro.analysis.estimate import estimate_app, estimate_target
from repro.analysis.liveness import estimate_registers
from repro.analysis.targets import LintArray, LintTarget, garr
from repro.analysis.validate import (
    MATMUL_LADDER,
    estimator_checks,
    estimator_pairs,
    estimator_ratios,
    golden_checks,
    main as validate_main,
)
from repro.apps.matmul import build_kernel
from repro.apps.registry import app_names, get_app
from repro.arch.device import DEFAULT_DEVICE, geforce_8800_gtx, gtx_480
from repro.cuda import Device, kernel, launch
from repro.obs import LaunchProfiler
from repro.sim.autotuner import MatmulAutotuner
from repro.trace.instr import InstrClass

GOLDEN_PATH = Path(__file__).parent / "golden_estimates.json"


def _matmul_target(variant: str):
    app = get_app("matmul")
    return next(t for t in app.lint_targets() if t.note == variant)


def _matmul_space_target(variant: str, tile: int, n: int) -> LintTarget:
    """A matmul target of ``variant`` with ``n`` rounded up to whole
    blocks (the naive kernel runs 16x16 blocks)."""
    block = 16 if variant == "naive" else tile
    n = -(-n // block) * block
    return LintTarget(build_kernel(variant, tile),
                      (n // block, n // block), (block, block),
                      (garr("A", n * n), garr("B", n * n),
                       garr("C", n * n), n), note=variant)


# ----------------------------------------------------------------------
# Census vs dynamic trace counters (5 apps, every block traced)
# ----------------------------------------------------------------------

# (app, workload tracing every block, lint-target note, whether DRAM
# traffic is statically exact — cp, mri-q and rpes read constant
# memory, and the census assumes const caches are resident while the
# simulator charges cold misses, so only issue-side counters compare;
# cp and mri-q broadcast one word per read, rpes's per-thread index
# ``shell * 4 + word`` serializes the constant broadcast)
CENSUS_CASES = [
    ("matmul", {"n": 64, "variant": "naive", "tile": 16,
                "trace_blocks": 16}, "naive", True),
    ("matmul", {"n": 64, "variant": "prefetch", "tile": 16,
                "trace_blocks": 16}, "prefetch", True),
    ("saxpy", {"n": 4096, "a": 2.5, "iterations": 1,
               "trace_blocks": 16}, "", True),
    ("cp", {"width": 32, "height": 32, "natoms": 64, "spacing": 0.1,
            "trace_blocks": 4}, None, False),
    ("mri-q", {"nvoxels": 512, "nsamples": 96, "trace_blocks": 2}, None,
     False),
    ("rpes", {"batches": 1, "trace_blocks": 256}, None, False),
]


# One small kernel per accounting path, launched as 3 blocks x 64
# threads with every block traced, so execution and the census (which
# samples the first, middle and last block) see the same blocks.
# Arrays are (name, space, size).
PATH_BLOCKS, PATH_THREADS = 3, 64
PATH_N = PATH_BLOCKS * PATH_THREADS


@kernel("path_farith")
def path_farith(ctx):
    a = ctx.fma(ctx.tx, 2.0, 1.0)
    a = ctx.fsub(ctx.fadd(a, 1.0), 0.5)
    a = ctx.fdiv(ctx.fmul(a, a), 3.0)
    ctx.fmax(ctx.fmin(a, 5.0), 1.0)


@kernel("path_iarith")
def path_iarith(ctx):
    i = ctx.imul(ctx.iadd(ctx.tx, 1), 3)
    i = ctx.ixor(ctx.ior(ctx.iand(ctx.isub(i, 1), 7), 8), 5)
    ctx.ishr(ctx.ishl(i, 2), 1)


@kernel("path_sfu")
def path_sfu(ctx):
    x = ctx.tx + 1.0
    ctx.sfu_sin(x), ctx.sfu_cos(x), ctx.sfu_rsqrt(x), ctx.sfu_sqrt(x)
    ctx.sfu_exp(x), ctx.sfu_log(x), ctx.sfu_rcp(x)


@kernel("path_cvt_select")
def path_cvt_select(ctx):
    f = ctx.cvt(ctx.tx, np.float32)
    ctx.select(ctx.tx < 10, f, 2.0)


@kernel("path_bookkeeping")
def path_bookkeeping(ctx):
    ctx.loop_tail(2)
    ctx.address_ops(3)
    ctx.sync()


@kernel("path_masked_divergent")
def path_masked_divergent(ctx):
    with ctx.masked(ctx.tx < 20):
        ctx.fadd(ctx.tx, 1.0)


@kernel("path_masked_nested")
def path_masked_nested(ctx):
    with ctx.masked(ctx.tx < 40):
        ctx.fadd(ctx.tx, 1.0)
        with ctx.masked(ctx.tx % 2 == 0):
            ctx.fmul(ctx.tx, 2.0)


@kernel("path_masked_uniform")
def path_masked_uniform(ctx):
    with ctx.masked(ctx.bx == 1):
        ctx.fadd(ctx.tx, 1.0)


@kernel("path_global_coalesced")
def path_global_coalesced(ctx, x, y):
    i = ctx.global_tid()
    ctx.st_global(y, i, ctx.ld_global(x, i))


@kernel("path_global_strided")
def path_global_strided(ctx, x, y):
    i = ctx.global_tid()
    ctx.st_global(y, i * 3, ctx.ld_global(x, i * 2))


@kernel("path_global_masked")
def path_global_masked(ctx, x, y):
    i = ctx.global_tid()
    with ctx.masked(ctx.tx < 40):
        ctx.st_global(y, i, ctx.ld_global(x, i))


@kernel("path_atomic_contiguous")
def path_atomic_contiguous(ctx, h):
    ctx.atom_global_add(h, ctx.global_tid(), 1.0)


@kernel("path_atomic_repeated")
def path_atomic_repeated(ctx, h):
    ctx.atom_global_add(h, ctx.tid % 4, 1.0)


@kernel("path_shared_conflict_free")
def path_shared_conflict_free(ctx):
    s = ctx.shared_alloc((PATH_THREADS,), np.float32, "s")
    ctx.st_shared(s, ctx.tid, 1.0)
    ctx.sync()
    ctx.ld_shared(s, ctx.tid)


@kernel("path_shared_two_way")
def path_shared_two_way(ctx):
    s = ctx.shared_alloc((2 * PATH_THREADS,), np.float32, "s")
    ctx.st_shared(s, ctx.tid * 2, 1.0)
    ctx.sync()
    ctx.ld_shared(s, ctx.tid * 2)


@kernel("path_shared_broadcast")
def path_shared_broadcast(ctx):
    s = ctx.shared_alloc((PATH_THREADS,), np.float32, "s")
    ctx.st_shared(s, ctx.tid, 1.0)
    ctx.sync()
    ctx.ld_shared(s, 0)


@kernel("path_const_broadcast")
def path_const_broadcast(ctx, c):
    ctx.ld_const(c, ctx.bx)


@kernel("path_const_serialized")
def path_const_serialized(ctx, c):
    ctx.ld_const(c, ctx.tid % 8)


@kernel("path_texture")
def path_texture(ctx, t):
    ctx.ld_tex(t, ctx.global_tid())


_GLOBAL_XY = (("x", "global", 2 * PATH_N), ("y", "global", 3 * PATH_N))
_HIST = (("h", "global", PATH_N),)

#: (kernel, arrays, serialized) — ``serialized`` rows are atomics, whose
#: combined global totals are compared as well
PATH_CASES = [
    (path_farith, (), False),
    (path_iarith, (), False),
    (path_sfu, (), False),
    (path_cvt_select, (), False),
    (path_bookkeeping, (), False),
    (path_masked_divergent, (), False),
    (path_masked_nested, (), False),
    (path_masked_uniform, (), False),
    (path_global_coalesced, _GLOBAL_XY, False),
    (path_global_strided, _GLOBAL_XY, False),
    (path_global_masked, _GLOBAL_XY, False),
    (path_atomic_contiguous, _HIST, True),
    (path_atomic_repeated, _HIST, True),
    (path_shared_conflict_free, (), False),
    (path_shared_two_way, (), False),
    (path_shared_broadcast, (), False),
    (path_const_broadcast, (("c", "const", PATH_N),), False),
    (path_const_serialized, (("c", "const", PATH_N),), False),
    (path_texture, (("t", "tex", PATH_N),), False),
]

#: counters the census models exactly; const/tex/L1/L2 hits and misses
#: and their fill and DRAM traffic depend on cache residency, which the
#: census does not model
PATH_COUNTERS = (
    "flops", "syncs", "branch_warps", "divergent_branch_warps",
    "divergence_serialized_warp_insts", "shared_conflict_cycles",
    "gld_accesses", "gld_transactions", "gld_bus_bytes", "gld_useful_bytes",
    "gst_accesses", "gst_transactions", "gst_bus_bytes", "gst_useful_bytes",
)


def _path_counters(trace, serialized: bool) -> dict:
    out = {name: getattr(trace, name) for name in PATH_COUNTERS}
    for cls in InstrClass:
        out[f"warp_insts.{cls.value}"] = trace.warp_insts[cls]
        out[f"thread_insts.{cls.value}"] = trace.thread_insts[cls]
    if serialized:
        out["global_transactions"] = trace.global_transactions
        out["global_bus_bytes"] = trace.global_bus_bytes
    return out


class TestCensusAgreement:
    @pytest.mark.parametrize("app_name,workload,note,exact_memory",
                             CENSUS_CASES)
    def test_census_matches_launch_profiler(self, app_name, workload,
                                            note, exact_memory):
        app = get_app(app_name)
        targets = app.lint_targets()
        target = targets[0] if note is None else \
            next(t for t in targets if t.note == note)
        census = census_target(target)

        with LaunchProfiler() as prof:
            app.run(dict(workload), functional=False)
        record = prof.records[0]
        assert record.kernel == census.kernel

        assert census.trace.total_warp_insts == \
            pytest.approx(record.trace.total_warp_insts, rel=1e-9)
        assert census.trace.flops == pytest.approx(record.trace.flops,
                                                   rel=1e-9)
        assert census.trace.syncs == pytest.approx(record.trace.syncs,
                                                   rel=1e-9)
        assert census.trace.shared_conflict_cycles == \
            pytest.approx(record.trace.shared_conflict_cycles, rel=1e-9)
        if exact_memory:
            assert census.trace.global_transactions == \
                pytest.approx(record.trace.global_transactions, rel=1e-9)

    def test_census_per_class_counts_match_trace(self):
        # full per-class comparison on the whole matmul ladder
        app = get_app("matmul")
        for target in app.lint_targets():
            census = census_target(target)
            run = app.run({"n": 64, "variant": target.note, "tile": 16,
                           "trace_blocks": 16}, functional=False)
            trace = run.launches[0].trace
            for cls in InstrClass:
                assert census.trace.warp_insts[cls] == pytest.approx(
                    trace.warp_insts[cls], rel=1e-9, abs=1e-9), \
                    f"{target.note}: {cls.value}"
            assert census.trace.global_bus_bytes == \
                pytest.approx(trace.global_bus_bytes, rel=1e-9)
            assert census.trace.global_useful_bytes == \
                pytest.approx(trace.global_useful_bytes, rel=1e-9)

    @pytest.mark.parametrize("spec_factory", [geforce_8800_gtx, gtx_480],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("kern,arrays,serialized", PATH_CASES,
                             ids=[case[0].name for case in PATH_CASES])
    def test_census_equals_execution_per_path(self, kern, arrays,
                                              serialized, spec_factory):
        spec = spec_factory()
        dev = Device(spec)
        upload = {"global": dev.to_device, "const": dev.to_constant,
                  "tex": dev.to_texture}
        device_args = tuple(upload[space](np.zeros(size, np.float32), name)
                            for name, space, size in arrays)
        lint_args = tuple(LintArray(name, space, size)
                          for name, space, size in arrays)
        result = launch(kern, (PATH_BLOCKS,), (PATH_THREADS,), device_args,
                        device=dev, trace_blocks=PATH_BLOCKS)
        assert result.blocks_traced == PATH_BLOCKS
        census = census_target(
            LintTarget(kern, (PATH_BLOCKS,), (PATH_THREADS,), lint_args),
            spec)
        assert census.blocks_sampled == PATH_BLOCKS
        assert _path_counters(census.trace, serialized) \
            == _path_counters(result.trace, serialized)

    def test_census_fp_useful_fraction_naive_is_an_eighth(self):
        census = census_target(_matmul_target("naive"))
        # the paper's "1 out of 8 operations is a fused multiply-add"
        assert census.fp_useful_fraction == pytest.approx(1 / 8,
                                                          rel=0.05)


# ----------------------------------------------------------------------
# Liveness register estimates
# ----------------------------------------------------------------------

class TestLiveness:
    def test_paper_register_anecdotes(self):
        # the closure's tile size and flags prune the configuration
        # branches at every tile, not only the 16x16 lint targets
        expected = {"naive": 6, "tiled": 10, "tiled_unrolled": 9,
                    "prefetch": 11}
        for tile in (4, 8, 12, 16, 24, 32):
            for variant, regs in expected.items():
                est = estimate_registers(build_kernel(variant, tile))
                assert not est.fallback
                assert est.regs == regs, \
                    f"{variant} {tile}x{tile}: {est.peak_names}"

    def test_unrolling_frees_the_induction_register(self):
        tiled = estimate_registers(_matmul_target("tiled").kernel)
        unrolled = estimate_registers(
            _matmul_target("tiled_unrolled").kernel)
        assert "k" in tiled.peak_names
        assert "k" not in unrolled.peak_names
        assert tiled.regs - unrolled.regs == 1

    def test_never_exceeds_declared_across_the_suite(self):
        for name in app_names():
            for target in get_app(name).lint_targets():
                est = estimate_registers(target.kernel)
                declared = target.kernel.regs_per_thread
                assert est.regs <= declared, \
                    f"{name}/{target.kernel.name}: static {est.regs} " \
                    f"> declared {declared} ({est.peak_names})"

    def test_fallback_on_unanalyzable_callable(self):
        est = estimate_registers(abs)          # no source available
        assert est.fallback

    def test_varying_sets_derive_from_the_ctx_tables(self):
        # derived from CTX_OPS categories and the divergence seeds; a
        # new entry in either table must not silently move the
        # register estimates
        from repro.analysis.liveness import VARYING_ATTRS, VARYING_CALLS
        assert VARYING_CALLS == {
            "global_tid", "global_tid_x", "global_tid_y",
            "ld_global", "ld_shared", "ld_const", "ld_tex",
            "atom_global_add"}
        assert VARYING_ATTRS == {"tx", "ty", "tz", "tid"}


# ----------------------------------------------------------------------
# Golden PerfEstimate values (lint-target geometry, n=64)
# ----------------------------------------------------------------------

class TestGoldenEstimates:
    def test_naive_matmul(self):
        est = estimate_target(_matmul_target("naive"))
        assert est.bounds.memory_bound
        assert est.bound == "memory bandwidth"
        # Section 4.1: 1/8 * 345.6 = 43.2 GFLOPS, 173 GB/s demand
        assert est.compute_bound_gflops == pytest.approx(43.2, abs=1.0)
        assert est.bounds.bandwidth_demand_gbs == pytest.approx(173.0,
                                                               abs=3.0)
        assert est.occupancy.blocks_per_sm == 3

    def test_tiled_unrolled_matmul(self):
        est = estimate_target(_matmul_target("tiled_unrolled"))
        assert not est.bounds.memory_bound
        # Section 4.3: 16/59 * 345.6 = 93.72 GFLOPS potential
        assert est.compute_bound_gflops == pytest.approx(93.72, abs=4.0)
        assert est.registers.regs == 9
        assert est.occupancy.blocks_per_sm == 3

    def test_prefetch_occupancy_cliff(self):
        est = estimate_target(_matmul_target("prefetch"))
        assert est.registers.regs == 11
        assert est.occupancy.blocks_per_sm == 2
        assert est.occupancy.limiter == "registers"

    def test_saxpy(self):
        est = estimate_app("saxpy")[0]
        assert est.bounds.memory_bound
        assert est.bound == "memory bandwidth"
        # 1 FMA per 8 slots, 12 useful bytes per flop pair
        assert est.compute_bound_gflops == pytest.approx(43.2, abs=0.5)
        assert est.bounds.bandwidth_demand_gbs == pytest.approx(259.2,
                                                               abs=3.0)
        assert est.registers.regs <= 5

    def test_estimates_cover_every_app(self):
        for name in app_names():
            for est in estimate_app(name):
                assert est.predicted_seconds > 0
                assert est.bound != ""


# ----------------------------------------------------------------------
# Property: predictions never exceed the hardware peaks
# ----------------------------------------------------------------------

class TestPeakProperty:
    @settings(max_examples=12, deadline=None)
    @given(variant=st.sampled_from(MATMUL_LADDER),
           tile=st.sampled_from([4, 8, 16]),
           n=st.sampled_from([64, 128, 256]))
    def test_matmul_space_under_peaks(self, variant, tile, n):
        est = estimate_target(_matmul_space_target(variant, tile, n))
        peak = DEFAULT_DEVICE.peak_gflops_with_sfu          # 388.8
        for value in (est.predicted_gflops, est.compute_bound_gflops,
                      est.bandwidth_bound_gflops,
                      est.static_bound_gflops):
            assert value <= peak + 1e-6

    def test_suite_estimates_under_peaks(self):
        peak = DEFAULT_DEVICE.peak_gflops_with_sfu
        for name in app_names():
            for est in estimate_app(name):
                assert est.predicted_gflops <= peak + 1e-6, est.label
                assert est.compute_bound_gflops <= peak + 1e-6, est.label


# ----------------------------------------------------------------------
# Advisor
# ----------------------------------------------------------------------

class TestAdvisor:
    def test_tiling_tops_the_naive_kernel(self):
        report = advise_target(_matmul_target("naive"))
        assert report.advice, "no advice for the naive kernel"
        assert report.best().pass_name == "tiling"
        assert report.best().payoff_gflops > 0

    def test_unrolling_tops_the_tiled_kernel(self):
        report = advise_target(_matmul_target("tiled"))
        assert report.best().pass_name == "unrolling"
        assert report.best().payoff_gflops > 0

    def test_prefetch_cliff_is_flagged_negative(self):
        report = advise_target(_matmul_target("tiled"))
        pre = next(a for a in report.advice
                   if a.pass_name == "prefetching")
        assert pre.payoff_gflops < 0
        assert pre.occupancy_cliff
        assert pre.blocks_per_sm_after == 2

    def test_findings_flow_through_lint_plumbing(self):
        est = estimate_target(_matmul_target("naive"))
        report = advise_estimate(est)
        findings = report.findings()
        assert findings
        assert all(f.rule == "advisor" for f in findings)
        assert all(f.severity == Severity.INFO for f in findings)
        assert "tiling" in findings[0].message

    def test_advice_is_sorted_by_payoff(self):
        report = advise_target(_matmul_target("tiled"))
        payoffs = [a.payoff_gflops for a in report.advice]
        assert payoffs == sorted(payoffs, reverse=True)


# ----------------------------------------------------------------------
# Estimator vs timing simulator (shared fixture: ~4 s once)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def pairs():
    return estimator_pairs()


class TestEstimatorValidation:
    def test_all_checks_agree(self, pairs):
        checks = estimator_checks(pairs=pairs)
        bad = [c.format() for c in checks if not c.ok]
        assert not bad, "\n".join(bad)

    def test_golden_file_matches(self, pairs):
        golden = json.loads(GOLDEN_PATH.read_text())
        checks = golden_checks(golden, pairs=pairs)
        bad = [c.format() for c in checks if not c.ok]
        assert not bad, "\n".join(bad)

    def test_golden_gate_detects_drift(self, pairs):
        golden = json.loads(GOLDEN_PATH.read_text())
        drifted = {k: {**v, "ratio": v["ratio"] * 1.5}
                   for k, v in golden.items()}
        checks = golden_checks(drifted, pairs=pairs)
        assert any(not c.ok for c in checks)

    def test_golden_gate_flags_unlisted_kernels(self, pairs):
        golden = json.loads(GOLDEN_PATH.read_text())
        partial = dict(list(golden.items())[:2])
        checks = golden_checks(partial, pairs=pairs)
        missing = [c for c in checks
                   if c.dynamic == "absent from golden file"]
        assert len(missing) == len(golden) - 2

    def test_ratios_are_finite(self, pairs):
        for label, entry in estimator_ratios(pairs=pairs).items():
            assert math.isfinite(entry["ratio"]), label
            assert entry["simulated_gflops"] > 0, label


# ----------------------------------------------------------------------
# Autotuner vs the static ceilings
# ----------------------------------------------------------------------

class TestAutotunerPruning:
    def test_static_bounds_ceil_the_evaluations(self):
        """Each configuration's ``static_bound_gflops``, estimated on an
        n=256 target, ceils its modelled GFLOPS at n=512 (10% margin
        for the census-vs-trace drift between the two sizes) — the
        soundness a bound-pruned search would rest on."""
        tuner = MatmulAutotuner(n=512, trace_blocks=2)
        for point in tuner.space():
            cfg = point.config
            target = _matmul_space_target(cfg.variant, cfg.tile, 256)
            bound = estimate_target(target, tuner.spec).static_bound_gflops
            measured = tuner.evaluate(point)
            assert measured <= bound * (1.0 + 0.10), \
                f"{point}: measured {measured:.2f} > " \
                f"ceiling {bound:.2f}"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestValidateCli:
    def test_golden_flag_passes(self, capsys):
        """The one full run of the validation driver: every sweep's
        checks, as JSON, all agreeing."""
        from repro.apps.registry import app_names
        assert validate_main(["--golden", str(GOLDEN_PATH), "--json"]) == 0
        checks = json.loads(capsys.readouterr().out)
        assert all(c["ok"] is True for c in checks), \
            [c for c in checks if c["ok"] is not True]
        kinds = {c["check"].split(" (")[0] for c in checks}
        assert kinds >= {
            "occupancy", "bank conflicts", "no R8 divergent-sync HIGH",
            "trace vs warpsim serialized fraction",
            "divergent-branch fraction", "launch-dataflow class agrees",
            "sanitized outputs bit-identical", "caught by both sides",
            "R8 HIGH == synccheck divergent-sync",
            "predicted/simulated GFLOPS",
            "predicted/simulated ratio drift vs golden"}
        clean = {c["subject"] for c in checks
                 if c["check"] == "clean app unflagged by both sides"}
        assert clean == set(app_names())

    def test_write_golden_round_trips(self, tmp_path, capsys,
                                      monkeypatch):
        """``--write-golden`` computes the estimator pairs and nothing
        else."""
        from repro.analysis import validate

        def not_run(*args, **kwargs):
            raise AssertionError("--write-golden ran a sweep")

        for sweep in ("validation_checks", "app_checks", "broken_checks"):
            monkeypatch.setattr(validate, sweep, not_run)
        path = tmp_path / "golden.json"
        assert validate_main(["--write-golden", str(path)]) == 0
        capsys.readouterr()
        written = json.loads(path.read_text())
        checked_in = json.loads(GOLDEN_PATH.read_text())
        assert set(written) == set(checked_in)

    def test_lint_estimate_flag(self, capsys):
        from repro.analysis.lint import main as lint_main
        assert lint_main(["saxpy", "--estimate", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        est = payload["reports"][0]["estimate"]
        assert est["bound"] == "memory bandwidth"
        assert est["compute_bound_gflops"] == pytest.approx(43.2,
                                                            abs=0.5)

    def test_lint_advise_flag(self, capsys):
        from repro.analysis.lint import main as lint_main
        assert lint_main(["matmul", "--advise", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        naive = next(r for r in payload["reports"]
                     if r["note"] == "naive")
        assert naive["advice"]
        assert naive["advice"][0]["pass"] == "tiling"
        assert any(f["rule"] == "advisor" for f in naive["findings"])
