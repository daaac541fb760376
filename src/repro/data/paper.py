"""Paper-reported values used for comparison in the benchmark harness.

Provenance levels (the OCR of the paper drops the numeric cells of
Tables 2/3 and the Figure 4 bar heights; see DESIGN.md):

* ``PROSE`` — the number appears verbatim in the paper's prose and is
  exact;
* ``RECONSTRUCTED`` — the number is reconstructed from the surviving
  prose constraints and the publicly known companion material
  (marked ``(r)`` in reports); treat as approximate;
* ``BOUND`` — only a bound survives (e.g. ">99%", "10.5X-457X").
"""

from __future__ import annotations

from typing import Dict, NamedTuple

PROSE = "prose"
RECONSTRUCTED = "reconstructed"
BOUND = "bound"


# The records are NamedTuples, not frozen dataclasses: building a frozen
# dataclass costs about 0.7 ms, paid by the first Table-3 run that
# imports this module.
class PaperValue(NamedTuple):
    value: float
    provenance: str = RECONSTRUCTED

    def __float__(self) -> float:
        return self.value

    @property
    def mark(self) -> str:
        return "" if self.provenance == PROSE else " (r)"


# ----------------------------------------------------------------------
# Section 4: matrix multiplication at 4096x4096 (all prose-exact)
# ----------------------------------------------------------------------
MATMUL_GFLOPS: Dict[str, PaperValue] = {
    "naive": PaperValue(10.58, PROSE),
    "tiled": PaperValue(46.49, PROSE),
    "tiled_unrolled": PaperValue(91.14, PROSE),
    "prefetch": PaperValue(87.10, PROSE),
}
MATMUL_POTENTIAL_GFLOPS: Dict[str, PaperValue] = {
    "naive": PaperValue(43.2, PROSE),
    "tiled_unrolled": PaperValue(93.72, PROSE),
}
MATMUL_BW_DEMAND_GBS = PaperValue(173.0, PROSE)
TILED_SPEEDUP_OVER_NAIVE = PaperValue(4.5, PROSE)

#: Figure 4 bar heights (GFLOPS).  Only the 16x16 bars and the
#: qualitative ordering survive; the small-tile bars are reconstructed
#: from the prose ("4x4 ... performance to be worse than the non-tiled
#: code", "the performance of other tile sizes is only marginally
#: improved by unrolling").
FIGURE4_GFLOPS: Dict[str, PaperValue] = {
    "not tiled": PaperValue(10.58, PROSE),
    "4x4": PaperValue(9.0),
    "4x4 unrolled": PaperValue(10.0),
    "8x8": PaperValue(23.0),
    "8x8 unrolled": PaperValue(26.0),
    "12x12": PaperValue(32.0),
    "12x12 unrolled": PaperValue(36.0),
    "16x16": PaperValue(46.49, PROSE),
    "16x16 unrolled": PaperValue(91.14, PROSE),
}

# ----------------------------------------------------------------------
# Table 2: application suite (source/kernel lines reconstructed from the
# companion tech report; kernel-time fractions partly prose)
# ----------------------------------------------------------------------


class Table2Row(NamedTuple):
    app: str
    source_lines: int
    kernel_lines: int
    kernel_fraction: float          # of single-thread execution time
    fraction_provenance: str = RECONSTRUCTED


TABLE2: Dict[str, Table2Row] = {
    "h264": Table2Row("h264", 34811, 194, 0.35, PROSE),
    "lbm": Table2Row("lbm", 1481, 285, 0.996, BOUND),      # >99%
    "rc5-72": Table2Row("rc5-72", 1979, 218, 0.996, BOUND),
    "fem": Table2Row("fem", 1874, 146, 0.99, RECONSTRUCTED),
    "rpes": Table2Row("rpes", 1104, 281, 0.99, RECONSTRUCTED),
    "pns": Table2Row("pns", 322, 160, 0.996, BOUND),
    "saxpy": Table2Row("saxpy", 952, 31, 0.996, BOUND),
    "tpacf": Table2Row("tpacf", 536, 98, 0.96, RECONSTRUCTED),
    "fdtd": Table2Row("fdtd", 1365, 93, 0.164, PROSE),
    "mri-q": Table2Row("mri-q", 490, 33, 0.996, BOUND),
    "mri-fhd": Table2Row("mri-fhd", 343, 39, 0.99, RECONSTRUCTED),
    "cp": Table2Row("cp", 409, 47, 0.996, BOUND),
}

# ----------------------------------------------------------------------
# Table 3: speedups.  The suite-wide ranges are prose ("between a 10.5X
# to 457X speedup in kernel codes and between 1.16X to 431X total
# application speedup"); MRI-Q anchors the maxima and FDTD the minima.
# Per-app values other than those are reconstructed.
# ----------------------------------------------------------------------


class Table3Row(NamedTuple):
    app: str
    kernel_speedup: PaperValue
    app_speedup: PaperValue
    bottleneck: str


TABLE3: Dict[str, Table3Row] = {
    "h264": Table3Row("h264", PaperValue(20.2), PaperValue(1.47),
                      "transfer-bound offload; instruction issue"),
    "lbm": Table3Row("lbm", PaperValue(12.5), PaperValue(12.3),
                     "shared memory capacity"),
    "rc5-72": Table3Row("rc5-72", PaperValue(17.1), PaperValue(11.0),
                        "instruction issue (emulated rotates)"),
    "fem": Table3Row("fem", PaperValue(11.0), PaperValue(10.1),
                     "global memory bandwidth"),
    "rpes": Table3Row("rpes", PaperValue(210.0), PaperValue(79.4),
                      "instruction issue"),
    "pns": Table3Row("pns", PaperValue(24.0), PaperValue(23.7),
                     "global memory capacity"),
    "saxpy": Table3Row("saxpy", PaperValue(19.4), PaperValue(11.8),
                       "global memory bandwidth"),
    "tpacf": Table3Row("tpacf", PaperValue(60.2), PaperValue(21.6),
                       "shared memory capacity"),
    "fdtd": Table3Row("fdtd", PaperValue(10.5, PROSE),
                      PaperValue(1.16, PROSE),
                      "global memory bandwidth"),
    "mri-q": Table3Row("mri-q", PaperValue(457.0, PROSE),
                       PaperValue(431.0, PROSE), "instruction issue"),
    "mri-fhd": Table3Row("mri-fhd", PaperValue(316.0), PaperValue(263.0),
                         "instruction issue"),
    "cp": Table3Row("cp", PaperValue(102.0), PaperValue(102.0),
                    "instruction issue"),
}

#: Abstract-level suite ranges (prose-exact).
KERNEL_SPEEDUP_RANGE = (10.5, 457.0)
APP_SPEEDUP_RANGE = (1.16, 431.0)

# ----------------------------------------------------------------------
# Section 5 prose anchors
# ----------------------------------------------------------------------
LBM_TEXTURE_SPEEDUP = PaperValue(2.8, PROSE)      # texture vs global-only
MRI_SFU_SPEEDUP_SHARE = PaperValue(0.30, PROSE)   # ~30% of MRI speedup
MRI_CPU_OPT_FACTOR = PaperValue(4.3, PROSE)       # CPU baseline tuning
FDTD_APP_SPEEDUP_CAP = PaperValue(1.2, PROSE)     # Amdahl bound
