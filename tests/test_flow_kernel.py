"""Tests of the blocked, direction-pruned ``FlowBatch`` kernel.

The oracle is the kernel it replaced, kept here: every point tests every side,
over the whole batch at once.  Live points must come out of both bit for bit,
at their last events and at each target; a point frozen at a reflex vertex
may reach it through a side that faces away from the ray under the oracle, so
only its position and time may differ, in the last bits.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vhbilliards import dynamics
from vhbilliards.dynamics import (
    EPS_CORNER,
    DirectionState,
    FlowBatch,
    sides_of,
)
from vhbilliards.errors import SingularOrbit
from vhbilliards.lab import random_table
from vhbilliards.spectral import _direction_batch, build_grid

TIMES = (0.3, 2.0, 7.5, 20.0)
STATE = ("x", "y", "vx", "vy", "t", "singular", "events")
# a state after advance_to: the batch's arrays and the positions returned
FLOWED = STATE + ("x_at", "y_at")


class AllSidesBatch:
    """The batch kernel before side groups and blocks.  A corner is the
    vertex at the side's end, read with its convexity off the table's exact
    boundary model."""

    def __init__(self, table, x, y, vx, vy):
        self.sides = sides = sides_of(table)
        b = table.boundary
        self.lo_vertex = np.array([s.lo_vertex for s in b.sides])
        self.hi_vertex = np.array([s.hi_vertex for s in b.sides])
        self.vertex_x, self.vertex_y = (
            np.array([float(v[k]) for v in b.vertices]) for k in (0, 1))
        self.vertex_convex = np.array(b.convex)
        self.v_idx = np.nonzero(sides.axis == 0)[0]
        self.h_idx = np.nonzero(sides.axis == 1)[0]
        self.x = np.array(x, dtype=np.float64)
        self.y = np.array(y, dtype=np.float64)
        self.vx = np.array(vx, dtype=np.float64)
        self.vy = np.array(vy, dtype=np.float64)
        n = self.x.shape[0]
        self.t = np.zeros(n)
        self.singular = np.zeros(n, dtype=bool)
        self.events = np.zeros(n, dtype=np.int64)
        self.next_t = np.empty(n)
        self.next_side = np.empty(n, dtype=np.int64)
        self._recompute(np.arange(n))

    def _recompute(self, idx):
        if idx.size == 0:
            return
        s = self.sides
        x = self.x[idx, None]
        y = self.y[idx, None]
        vx = self.vx[idx, None]
        vy = self.vy[idx, None]

        tv = (s.coord[self.v_idx][None, :] - x) / vx
        cross_v = y + vy * tv
        bad = tv <= 0.0
        bad |= cross_v < s.lo[self.v_idx][None, :] - EPS_CORNER
        bad |= cross_v > s.hi[self.v_idx][None, :] + EPS_CORNER
        tv[bad] = np.inf

        th = (s.coord[self.h_idx][None, :] - y) / vy
        cross_h = x + vx * th
        bad = th <= 0.0
        bad |= cross_h < s.lo[self.h_idx][None, :] - EPS_CORNER
        bad |= cross_h > s.hi[self.h_idx][None, :] + EPS_CORNER
        th[bad] = np.inf

        av = np.argmin(tv, axis=1)
        ah = np.argmin(th, axis=1)
        rows = np.arange(idx.size)
        tv_min = tv[rows, av]
        th_min = th[rows, ah]
        use_v = tv_min <= th_min
        t_hit = np.where(use_v, tv_min, th_min)
        side = np.where(use_v, self.v_idx[av], self.h_idx[ah])
        if np.any(~np.isfinite(t_hit) & ~self.singular[idx]):
            raise SingularOrbit("a batch point lost containment")
        self.next_t[idx] = self.t[idx] + t_hit
        self.next_side[idx] = side

    def advance_to(self, t_target):
        while True:
            pending = (~self.singular) & (self.next_t <= t_target)
            if not pending.any():
                break
            self._process_events(np.where(pending)[0])
        dt = np.where(self.singular, 0.0, t_target - self.t)
        return self.x + self.vx * dt, self.y + self.vy * dt

    def _process_events(self, idx):
        s = self.sides
        side = self.next_side[idx]
        dt = self.next_t[idx] - self.t[idx]
        hx = self.x[idx] + self.vx[idx] * dt
        hy = self.y[idx] + self.vy[idx] * dt
        vert = s.axis[side] == 0
        hx = np.where(vert, s.coord[side], hx)
        hy = np.where(~vert, s.coord[side], hy)
        cross = np.where(vert, hy, hx)

        at_lo = np.abs(cross - s.lo[side]) <= EPS_CORNER
        at_hi = np.abs(cross - s.hi[side]) <= EPS_CORNER
        corner = at_lo | at_hi
        vid = np.where(at_lo, self.lo_vertex[side], self.hi_vertex[side])

        reflex = corner & ~self.vertex_convex[vid]
        plain = ~corner
        convex = corner & ~reflex

        self.x[idx] = np.where(convex, self.vertex_x[vid], hx)
        self.y[idx] = np.where(convex, self.vertex_y[vid], hy)
        flip_x = (plain & vert) | convex
        flip_y = (plain & ~vert) | convex
        self.vx[idx] = np.where(flip_x, -self.vx[idx], self.vx[idx])
        self.vy[idx] = np.where(flip_y, -self.vy[idx], self.vy[idx])
        self.t[idx] = self.next_t[idx]
        self.singular[idx] |= reflex
        self.events[idx] += 1
        self._recompute(idx[~self.singular[idx]])


def random_case(seed, thetas, m=6):
    """A seeded random table (holes likely) and its grid on the four labels
    of each direction, as 1-D inputs, which the oracle takes."""
    table = random_table(np.random.default_rng(seed), hole_probability=0.6)
    return table, [a.ravel()
                   for a in _direction_batch(build_grid(table, m), thetas)]


def flowed_states(table, inputs, times=TIMES):
    batch = FlowBatch(table, *inputs)
    out = []
    for t in times:
        x_at, y_at = batch.advance_to(t)
        state = {k: getattr(batch, k).copy() for k in STATE}
        state.update(x_at=x_at.copy(), y_at=y_at.copy())
        out.append(state)
    return out


def assert_states_equal(got, want):
    for g, w in zip(got, want):
        for k in FLOWED:
            assert g[k].dtype == w[k].dtype and g[k].tobytes() == \
                w[k].tobytes(), k


# slopes 1, 1/2 and 2 send grid midpoints into vertices, convex and reflex
thetas = st.lists(st.one_of(
    st.floats(min_value=0.05, max_value=1.52),
    st.sampled_from([math.pi / 4, math.atan(0.5), math.atan(2.0)])),
    min_size=1, max_size=2)


class TestAllSidesOracle:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), thetas=thetas)
    @settings(max_examples=100, deadline=None)
    def test_live_points_match_bit_for_bit(self, seed, thetas):
        table, inputs = random_case(seed, thetas)
        oracle = AllSidesBatch(table, *inputs)
        for t, got in zip(TIMES, flowed_states(table, inputs)):
            want = {k: getattr(oracle, k) for k in STATE}
            want["x_at"], want["y_at"] = oracle.advance_to(t)
            assert np.array_equal(got["singular"], oracle.singular)
            assert np.array_equal(got["events"], oracle.events)
            live = ~oracle.singular
            for k in ("x", "y", "vx", "vy", "t", "x_at", "y_at"):
                assert got[k][live].tobytes() == want[k][live].tobytes(), k
            frozen = oracle.singular
            for k in ("vx", "vy"):
                assert np.array_equal(got[k][frozen], want[k][frozen]), k
            for k in ("x", "y", "t", "x_at", "y_at"):
                assert np.allclose(got[k][frozen], want[k][frozen],
                                   rtol=1e-12, atol=1e-12), k

    def test_events_exactly_at_the_target_are_applied(self, square):
        # dyadic speeds put the events at t = 0.5 (x = 2), 1.0 (y = 2) and
        # 1.5 (x = 1) exactly; an event due at the target, found after an
        # earlier event of the same call, is applied in that call
        inputs = [np.array([1.5]), np.array([1.5]), np.array([1.0]),
                  np.array([0.5])]
        batch = FlowBatch(square, *inputs)
        oracle = AllSidesBatch(square, *inputs)
        for t, events in ((1.0, 2), (1.5, 3)):
            got = batch.advance_to(t)
            want = oracle.advance_to(t)
            assert batch.events[0] == oracle.events[0] == events
            # the last event is at the target, so the point sits on it
            assert batch.t[0] == t
            for k in ("x", "y", "vx", "vy", "t"):
                assert getattr(batch, k)[0] == getattr(oracle, k)[0], k
            for g, w in zip(got, want):
                assert g[0] == w[0]


class TestBlocks:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), thetas=thetas)
    @settings(max_examples=15, deadline=None)
    def test_block_size_and_batch_split_do_not_matter(self, seed, thetas):
        table, inputs = random_case(seed, thetas)
        want = flowed_states(table, inputs)
        # blocks of a small prime size
        with mock.patch.object(dynamics, "_BLOCK_POINTS", 7):
            assert_states_equal(flowed_states(table, inputs), want)
        # three batches of uneven sizes
        n = inputs[0].size
        cuts = [0, n // 3, n // 2 + 5, n]
        parts = [flowed_states(table, [a[lo:hi] for a in inputs])
                 for lo, hi in zip(cuts, cuts[1:])]
        joined = [{k: np.concatenate([p[i][k] for p in parts])
                   for k in FLOWED} for i in range(len(TIMES))]
        assert_states_equal(joined, want)


class TestKernelMemory:
    # the kernel's temporaries live in buffers allocated with the batch, so
    # advance_to's extra memory is per point of the batch (the indices of
    # the points due, 8 bytes, the masks that find them, and slack) plus,
    # per point of one block, the copies that drop the points frozen in a
    # round; no term grows with the side count
    BLOCK_POINT_BYTES = 64
    POINT_BYTES = 16

    @pytest.mark.parametrize("m", [32, 64, 128])
    def test_advance_to_extra_peak_is_bounded(self, holed_table, m):
        batch = FlowBatch(holed_table,
                          *_direction_batch(build_grid(holed_table, m), [0.7]))
        n = batch.x.size
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            batch.advance_to(3.0)
            extra = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # every point reflects at least once, so every point passes through
        # the kernel
        assert batch.events.min() >= 1
        bound = (self.BLOCK_POINT_BYTES * dynamics._BLOCK_POINTS
                 + self.POINT_BYTES * n)
        assert extra <= bound, (extra, bound, n)


class TestGridBatch:
    """A grid batch is built from broadcast views of the grid, so the
    batch's own block is its only full-size copy of the inputs."""

    def test_construction_peak_is_the_kept_batch(self, square):
        # 65,536 points: four tiled inputs would peak 2 MiB above the batch
        grid = build_grid(square, 128)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            batch = FlowBatch(square, *_direction_batch(grid, [0.7]))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.x.size == 4 * grid.npts
        assert kept - base >= 82 * batch.x.size
        assert peak - kept <= 64 * 1024, (peak - kept, kept - base)

    def test_inputs_are_views_of_the_grid(self, holed_table):
        grid = build_grid(holed_table, 8)
        x, y, vx, vy = _direction_batch(grid, [0.3, 1.1])
        assert all(a.shape == (8, grid.npts) for a in (x, y, vx, vy))
        assert np.shares_memory(x, grid.xs) and np.shares_memory(y, grid.ys)

    def test_views_flow_as_tiled_copies(self, holed_table):
        grid = build_grid(holed_table, 12)
        thetas = [0.3, 1.1]
        labels = [d.velocity for th in thetas
                  for d in DirectionState(th).direction_class()]
        ux, uy = zip(*labels)
        tiled = (np.tile(grid.xs, len(labels)), np.tile(grid.ys, len(labels)),
                 np.repeat(ux, grid.npts), np.repeat(uy, grid.npts))
        got = FlowBatch(holed_table, *_direction_batch(grid, thetas))
        want = FlowBatch(holed_table, *tiled)
        for t in (0.5, 3.0, 11.0):
            got_at, want_at = got.advance_to(t), want.advance_to(t)
            for g, w in zip(got_at, want_at):
                assert g.tobytes() == w.tobytes()
            for k in STATE:
                assert getattr(got, k).tobytes() == \
                    getattr(want, k).tobytes(), k


targets = st.lists(st.one_of(st.floats(min_value=0.0, max_value=25.0),
                             st.sampled_from(TIMES)),
                   min_size=1, max_size=5).map(sorted)


def one_jump(table, inputs, t):
    """A fresh batch after one advance to ``t``, with the positions it
    returned."""
    batch = FlowBatch(table, *inputs)
    return batch, batch.advance_to(t)


class TestAdvanceOut:
    """The positions ``advance_to`` puts out: each call leaves the points at
    their last event, so every call equals one jump from 0, whatever targets
    came before it."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), thetas=thetas,
           times=targets)
    @settings(max_examples=80, deadline=None)
    def test_out_equals_one_jump(self, seed, thetas, times):
        table, inputs = random_case(seed, thetas)
        batch = FlowBatch(table, *inputs)
        pair = None
        for t in times:
            got = batch.advance_to(t)
            assert batch.target == t
            # one pair, allocated with the batch, overwritten by each call
            assert pair is None or all(g is p for g, p in zip(got, pair))
            pair = got
            want, want_at = one_jump(table, inputs, t)
            for k, g, w in zip(("x_at", "y_at"), got, want_at):
                assert g.tobytes() == w.tobytes(), k
            for k in STATE:
                assert getattr(batch, k).tobytes() == \
                    getattr(want, k).tobytes(), k

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), thetas=thetas,
           times=targets)
    @settings(max_examples=40, deadline=None)
    def test_out_calls_change_no_later_call(self, seed, thetas, times):
        # the returned pair is the batch's output buffer, not its state:
        # a caller writing over it changes no later call
        table, inputs = random_case(seed, thetas)
        batch = FlowBatch(table, *inputs)
        for t in times:
            got = batch.advance_to(t)
            want, want_at = one_jump(table, inputs, t)
            for k, g, w in zip(("x_at", "y_at"), got, want_at):
                assert g.tobytes() == w.tobytes(), k
            for a in got:
                a.fill(math.nan)

    @pytest.mark.parametrize("target", [4.999, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("resumed", [False, True])
    def test_earlier_or_non_finite_target_rejected(self, holed_table, target,
                                                   resumed):
        # a rejected call leaves the state and the returned pair as they
        # were, on a fresh batch and on one resumed through an earlier target
        batch = FlowBatch(holed_table, *_direction_batch(
            build_grid(holed_table, 4), [0.7]))
        if resumed:
            batch.advance_to(2.0)
        got = batch.advance_to(5.0)
        before = {k: getattr(batch, k).copy() for k in STATE}
        at_before = [a.copy() for a in got]
        with pytest.raises(ValueError):
            batch.advance_to(target)
        assert batch.target == 5.0
        for k in STATE:
            assert getattr(batch, k).tobytes() == before[k].tobytes(), k
        for g, w in zip(got, at_before):
            assert g.tobytes() == w.tobytes()
