"""The four benchmark workloads.

Each workload writes its table JSON into a work directory, draws every other
input (directions, start points) from the seed, and then calls the same
library functions, in the same order, as the matching CLI command.  The
program sees only the generated inputs, never the seed.

All library calls go through module attributes (``vb.correlation``,
``spectral.series_to_csv``) at call time, so the traced run's wrappers see
them.  See README.md for why each workload exists and how large it is.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import vhbilliards as vb
from vhbilliards import dynamics, lab, spectral

SQUARE = {"outer": {"word": "ENWS", "lengths": ["1/1"] * 4}, "holes": []}
LSHAPE = {"outer": {"word": "ENWNWS",
                    "lengths": ["2/1", "1/1", "1/1", "1/1", "1/1", "2/1"]},
          "holes": []}
# the holed table of the package README: 10 sides, 5 reflex vertices
HOLED = {"outer": LSHAPE["outer"],
         "holes": [{"word": "ENWS", "lengths": ["1/2"] * 4,
                    "anchor": ["5/4", "5/4"]}]}

# spans every workload's set-up records
SETUP_LAYERS = ("geometry.load_table", "spectral.build_grid",
                "dynamics.prepare_sides")


@dataclass
class Setup:
    table: object
    cert: object
    grid: object
    sides: object


@dataclass
class Rep:
    """One timed pass of a workload: its outputs, one entry per op."""

    start: float
    end: float
    outputs: list
    latencies_s: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def label_batch(grid, thetas):
    """Grid points on the four labels {+-theta, +-(pi - theta)} of each theta,
    as FlowBatch inputs."""
    n = grid.npts
    vx, vy = [], []
    for th in thetas:
        c, s = math.cos(th), math.sin(th)
        for ux, uy in ((c, s), (c, -s), (-c, s), (-c, -s)):
            vx.append(np.full(n, ux))
            vy.append(np.full(n, uy))
    k = 4 * len(thetas)
    return (np.tile(grid.xs, k), np.tile(grid.ys, k),
            np.concatenate(vx), np.concatenate(vy))


def flow_events(sides, grid, thetas, times) -> int:
    """Boundary events of the label batch stepped through ``times``.

    FlowBatch results are elementwise, so they do not depend on how points
    are grouped; this replays the flow a workload ran and reads its count.
    """
    batch = dynamics.FlowBatch(sides, *label_batch(grid, thetas))
    for t in times:
        batch.advance_to(float(t))
    return int(batch.events.sum())


def stratified(rng, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of ``count`` equal strata of (lo, hi)."""
    u = rng.random(count)
    return [float(lo + (i + u[i]) * (hi - lo) / count) for i in range(count)]


class Workload:
    name = ""
    table_dict: dict = {}
    grid_m = 0
    # span names that must each record a span in the traced run
    layers: tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.table_path = work / "table.json"
        with open(self.table_path, "w", encoding="utf-8") as fh:
            json.dump(self.table_dict, fh)
        self.rng = np.random.default_rng(seed)

    def certificate(self, table):
        return table, vb.tiling_parameters(table)

    def setup(self) -> Setup:
        table, cert = self.certificate(vb.load_table(self.table_path))
        return Setup(table, cert, vb.build_grid(table, self.grid_m),
                     dynamics.prepare_sides(table))

    def run(self, s: Setup, mark_op) -> Rep:
        raise NotImplementedError

    def check(self, s: Setup, rep: Rep) -> list[bool]:
        """Untimed output check, one verdict per op."""
        raise NotImplementedError

    def point_steps(self, s: Setup) -> int:
        """Sum over ops of phase points times the times they are read at."""
        raise NotImplementedError

    def events(self, s: Setup, rep: Rep) -> int:
        raise NotImplementedError

    def needed_point_time(self, s: Setup) -> float:
        """Distinct phase points times the latest time each must reach."""
        return 0.0


def _guard(fn):
    """Run one op; a BilliardError is that op's failure, not the run's."""
    try:
        return fn()
    except vb.BilliardError as err:
        return err


class CorrelateSquare(Workload):
    """``vhbilliards correlate`` on the unit square, three directions."""

    name = "correlate-square"
    table_dict = SQUARE
    grid_m = 256
    step = 0.25
    n_steps = 12
    layers = ("dynamics.FlowBatch.__init__", "dynamics.FlowBatch.advance_to",
              "spectral.Observable.evaluate", "spectral.sweep_correlations",
              "spectral.series_to_csv", "geometry.tiling_parameters")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.thetas = stratified(self.rng, 3, 0.3, 1.3)
        self.t_grid = self.step * (1 + np.arange(self.n_steps))
        self.h = vb.Observable.cosine(1, 0)

    def run(self, s, mark_op):
        out = []
        start = time.perf_counter()
        for i, th in enumerate(self.thetas):
            mark_op(i)

            def op():
                series = vb.correlation(s.table, th, self.h, self.t_grid,
                                        grid=s.grid)
                spectral.series_to_csv(series, self.work / f"series_{i}.csv")
                return series
            out.append(_guard(op))
        return Rep(start, time.perf_counter(), out)

    def check(self, s, rep):
        ok = []
        for th, series in zip(self.thetas, rep.outputs):
            if isinstance(series, Exception):
                ok.append(False)
                continue
            oracle = np.cos(2 * math.pi * self.t_grid * math.cos(th)) / 2
            err = np.max(np.abs(series.values - oracle))
            ok.append(bool(err <= 3.0 / s.grid.m)
                      and series.dropped_fraction == 0.0)
        return ok

    def point_steps(self, s):
        return len(self.thetas) * 4 * s.grid.npts * self.t_grid.size

    def events(self, s, rep):
        return sum(flow_events(s.sides, s.grid, [th], self.t_grid)
                   for th in self.thetas)

    def needed_point_time(self, s):
        return len(self.thetas) * 4 * s.grid.npts * float(self.t_grid[-1])


class SweepLShape(Workload):
    """``vhbilliards theta-sweep`` on the L-shape, three observables."""

    name = "sweep-lshape"
    table_dict = LSHAPE
    grid_m = 8
    layers = ("dynamics.FlowBatch.__init__", "dynamics.FlowBatch.advance_to",
              "spectral.Observable.evaluate", "spectral.sweep_correlations",
              "lab.theta_sweep", "lab.sweep_to_csv",
              "geometry.tiling_parameters")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.config = vb.ExperimentConfig(
            table_path=str(self.table_path), count=64,
            seed=int(self.rng.integers(2**31)), n_gap=10, tau=15.0,
            h_indices=(2, 4, 6), grid_m=self.grid_m, step=1 / 40, workers=1)
        # directions whose sweep minima are recomputed one at a time
        self.probes = sorted(int(i) for i in self.rng.choice(
            self.config.count, size=2, replace=False))

    def run(self, s, mark_op):
        start = time.perf_counter()
        mark_op(0)
        ests = _guard(lambda: lab.theta_sweep(self.config, table=s.table))
        if not isinstance(ests, Exception):
            lab.sweep_to_csv(ests, self.work / "sweep.csv")
            summary = lab.sweep_summary(self.config, s.table, ests)
            with open(self.work / "sweep_summary.json", "w",
                      encoding="utf-8") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return Rep(start, time.perf_counter(), [ests])

    def check(self, s, rep):
        ests = rep.outputs[0]
        n_ops = len(self.config.h_indices) * self.config.count
        if isinstance(ests, Exception):
            return [False] * n_ops
        ok = []
        t_grid = self.config.time_grid()
        for est in ests:
            good = np.isfinite(est.min_gap) & (est.min_gap >= 0)
            good &= est.dropped_max <= spectral.MAX_DROPPED_FRACTION
            h = vb.basis_function(est.h_index)
            for i in self.probes:
                single = vb.correlation(s.table, float(est.thetas[i]), h,
                                        t_grid, grid=s.grid)
                good[i] &= np.min(single.gap) == est.min_gap[i]
            ok.extend(bool(g) for g in good)
        return ok

    def point_steps(self, s):
        return (len(self.config.h_indices) * self.config.count * 4
                * s.grid.npts * self.config.time_grid().size)

    def events(self, s, rep):
        thetas = lab.stratified_thetas(self.config.count, self.config.seed)
        return len(self.config.h_indices) * flow_events(
            s.sides, s.grid, thetas, self.config.time_grid())

    def needed_point_time(self, s):
        return (self.config.count * 4 * s.grid.npts
                * float(self.config.time_grid()[-1]))


class ChainRefinedLShape(Workload):
    """``correlation_chain_check`` on the (5, 5)-snapped L-shape."""

    name = "chain-refined-lshape"
    table_dict = LSHAPE
    grid_m = 40
    times = (5.0, 10.0, 20.0)
    basis = range(1, 6)
    layers = ("dynamics.FlowBatch.__init__", "dynamics.FlowBatch.advance_to",
              "spectral.Observable.evaluate",
              "spectral.TileAverageObservable.evaluate",
              "spectral.tile_average", "spectral.TileAverageObservable.__init__",
              "spectral.correlation_chain_check", "geometry.approximate_pq")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.thetas = stratified(self.rng, 3, 0.3, 1.3)

    def certificate(self, table):
        snapped = vb.approximate_pq(table, 5, Fraction(1, 10))
        return snapped, snapped.certificate

    def _ops(self):
        return [(th, j, t) for th in self.thetas for j in self.basis
                for t in self.times]

    def run(self, s, mark_op):
        out = []
        start = time.perf_counter()
        for k, (th, j, t) in enumerate(self._ops()):
            mark_op(k)
            out.append(_guard(lambda: vb.correlation_chain_check(
                s.table, s.cert, th, vb.basis_function(j), t, s.grid)))
        return Rep(start, time.perf_counter(), out)

    def check(self, s, rep):
        bound = 10.0 / s.grid.m
        return [not isinstance(r, Exception)
                and abs(r.cross_term) <= bound and r.slack >= -1e-10
                for r in rep.outputs]

    def point_steps(self, s):
        return len(self._ops()) * 4 * s.grid.npts

    def events(self, s, rep):
        per_theta = sum(flow_events(s.sides, s.grid, [th], [t])
                        for th in self.thetas for t in self.times)
        return len(self.basis) * per_theta

    def needed_point_time(self, s):
        return len(self.thetas) * 4 * s.grid.npts * max(self.times)


class OrbitHoled(Workload):
    """``vhbilliards orbit`` from 200 starts in the holed table, each
    followed by the reversed flow back to its start."""

    name = "orbit-holed"
    table_dict = HOLED
    grid_m = 8
    starts = 200
    max_time = 100.0
    layers = ("dynamics.orbit", "dynamics.flow", "dynamics.next_event",
              "dynamics.orbit_to_csv", "geometry.tiling_parameters")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.points = []
        while len(self.points) < self.starts:
            x, y = 1.0 + 2.0 * self.rng.random(2)
            theta = float(self.rng.uniform(0.1, math.pi / 2 - 0.1))
            sx, sy = (int(v) for v in self.rng.choice((-1, 1), size=2))
            if _inside_holed(x, y, margin=1e-3):
                self.points.append(vb.PhasePoint(
                    float(x), float(y), vb.DirectionState(theta, sx, sy)))

    def run(self, s, mark_op):
        out = []
        lat = []
        start = time.perf_counter()
        for i, p in enumerate(self.points):
            mark_op(i)

            def op():
                history = vb.orbit(s.table, p, max_time=self.max_time)
                dynamics.orbit_to_csv(history, self.work / "orbit.csv")
                if history.terminated is not None:
                    return history, None
                final = history.final
                reverse = vb.PhasePoint(final.x, final.y,
                                        final.direction.flip_both())
                return history, vb.flow(s.table, reverse, self.max_time)
            t0 = time.perf_counter()
            out.append(_guard(op))
            lat.append(time.perf_counter() - t0)
        return Rep(start, time.perf_counter(), out, lat)

    def check(self, s, rep):
        ok = []
        for p, res in zip(self.points, rep.outputs):
            if isinstance(res, Exception):
                ok.append(False)
                continue
            history, back = res
            ok.append(history.terminated is None and back is not None
                      and max(abs(back.x - p.x), abs(back.y - p.y)) <= 1e-9)
        return ok

    def point_steps(self, s):
        return 2 * self.starts

    def events(self, s, rep):
        # the reversed flow retraces the forward events, which the
        # reversibility check confirms
        return 2 * sum(len(res[0].events) for res in rep.outputs
                       if not isinstance(res, Exception))


def _inside_holed(x: float, y: float, margin: float) -> bool:
    """Whether (x, y) is at least ``margin`` inside the HOLED table."""
    in_l = (1 + margin < x < 3 - margin and 1 + margin < y < 2 - margin) or \
        (1 + margin < x < 2 - margin and 1 + margin < y < 3 - margin)
    in_hole = 1.25 - margin <= x <= 1.75 + margin and \
        1.25 - margin <= y <= 1.75 + margin
    return in_l and not in_hole


WORKLOADS = {w.name: w for w in (CorrelateSquare, SweepLShape,
                                 ChainRefinedLShape, OrbitHoled)}
