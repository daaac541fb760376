"""Optimization-space exploration (the paper's future-work section).

Section 6: "It is also possible to get stuck in local maximums of
performance when attempting to follow a particular optimization
strategy. ... Better tools and compilers that allow programmers to
specify the types of reorganizations desired and automatically
experiment with their performance effects would greatly reduce the
optimization effort."

This module implements that tool for the matmul study's variant space
(tile size x unrolling x prefetching): it evaluates every
configuration with the calibrated model, runs greedy hill-climbing
from arbitrary starting points, and reports which starting points get
trapped in *local maxima* — reproducing the paper's observation that
greedy optimization strategies are unreliable on this architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..apps.matmul import MatMul, MatmulConfig, TILE_SIZES
from ..arch.device import DEFAULT_DEVICE, DeviceSpec

#: tile sizes beyond the paper's Figure 4 sweep that only later
#: devices can schedule (a 24x24 or 32x32 block exceeds the G80's
#: 512-thread block limit) — the source of the cross-device winner
#: shift
EXTENDED_TILE_SIZES = (24, 32)


def device_tile_sizes(spec: DeviceSpec) -> Tuple[int, ...]:
    """Tile sizes schedulable on ``spec``: the block must respect the
    device's thread-per-block limit and both staged input tiles must
    fit in shared memory.  On the paper's G80 this reproduces the
    Figure 4 sweep exactly."""
    tiles = []
    for tile in TILE_SIZES + EXTENDED_TILE_SIZES:
        threads = tile * tile
        smem = 2 * tile * tile * 4
        if threads <= spec.max_threads_per_block \
                and smem <= spec.shared_mem_per_sm:
            tiles.append(tile)
    return tuple(tiles)


@dataclass(frozen=True)
class Point:
    """One configuration in the matmul optimization space."""

    tile: int               # 0 means untiled
    unrolled: bool
    prefetch: bool

    def valid(self) -> bool:
        if self.tile == 0:
            return not self.unrolled and not self.prefetch
        if self.prefetch and not self.unrolled:
            return False
        return True

    @property
    def config(self) -> MatmulConfig:
        if self.tile == 0:
            return MatmulConfig("naive")
        if self.prefetch:
            return MatmulConfig("prefetch", self.tile)
        if self.unrolled:
            return MatmulConfig("tiled_unrolled", self.tile)
        return MatmulConfig("tiled", self.tile)

    def neighbors(self, tile_sizes: Sequence[int] = TILE_SIZES
                  ) -> List["Point"]:
        """One-transformation-at-a-time moves (a greedy tuner's steps)
        within the device's schedulable tile ladder."""
        out = []
        tiles = (0,) + tuple(tile_sizes)
        i = tiles.index(self.tile)
        if i + 1 < len(tiles):
            out.append(Point(tiles[i + 1], self.unrolled and tiles[i+1] > 0,
                             self.prefetch and tiles[i+1] > 0))
        if i - 1 >= 0:
            t = tiles[i - 1]
            out.append(Point(t, self.unrolled and t > 0,
                             self.prefetch and t > 0))
        if self.tile > 0:
            out.append(Point(self.tile, not self.unrolled,
                             self.prefetch and not self.unrolled))
            if self.unrolled:
                out.append(Point(self.tile, True, not self.prefetch))
        return [p for p in out if p.valid() and p != self]


@dataclass
class TuneResult:
    best: Point
    best_gflops: float
    evaluations: Dict[Point, float]
    local_maxima: List[Tuple[Point, float]]

    def is_global(self, point: Point) -> bool:
        return self.evaluations[point] == self.best_gflops


class MatmulAutotuner:
    """Exhaustive + greedy exploration of the matmul variant space."""

    def __init__(self, n: int = 1024, trace_blocks: int = 2,
                 spec: DeviceSpec = DEFAULT_DEVICE) -> None:
        self.n = n
        self.trace_blocks = trace_blocks
        self.spec = spec
        self.tiles = device_tile_sizes(spec)
        self.app = MatMul(spec)
        self._cache: Dict[Point, float] = {}

    def space(self) -> List[Point]:
        points = [Point(0, False, False)]
        for tile in self.tiles:
            for unrolled, prefetch in ((False, False), (True, False),
                                       (True, True)):
                points.append(Point(tile, unrolled, prefetch))
        return points

    def neighbors(self, point: Point) -> List[Point]:
        """A point's moves within this device's tile ladder."""
        return point.neighbors(self.tiles)

    def evaluate(self, point: Point) -> float:
        """Modelled GFLOPS of one configuration (memoized)."""
        if point not in self._cache:
            run = self.app.run_config(point.config, n=self.n,
                                      trace_blocks=self.trace_blocks)
            self._cache[point] = run.launches[0].estimate().gflops
        return self._cache[point]

    def exhaustive(self) -> TuneResult:
        """Evaluate the whole space and identify every local maximum
        (``len(result.evaluations)`` is the number of configurations
        evaluated)."""
        evals = {p: self.evaluate(p) for p in self.space()}
        best = max(evals, key=evals.get)
        maxima = []
        for p, g in evals.items():
            if all(g >= evals[q] for q in self.neighbors(p)):
                maxima.append((p, g))
        maxima.sort(key=lambda pg: -pg[1])
        return TuneResult(best, evals[best], evals, maxima)

    def hill_climb(self, start: Point) -> Tuple[Point, float, List[Point]]:
        """Greedy one-step improvement until no neighbour is better.

        Returns the end point, its GFLOPS and the path taken — the
        paper's cautionary tale when the end point is not the global
        optimum.
        """
        current = start
        path = [start]
        while True:
            current_g = self.evaluate(current)
            neighbors = [q for q in self.neighbors(current)]
            if not neighbors:
                break
            best_n = max(neighbors, key=self.evaluate)
            if self.evaluate(best_n) <= current_g:
                break
            current = best_n
            path.append(current)
        return current, self.evaluate(current), path
