"""Flow, orbit, unfolding and batch-engine tests.

Derived expectations come from closed forms: 1-D tent-map folding for
rectangles, a parametric ray/segment intersection oracle for first hits, and
straight-line unfolding for mirror compositions.
"""

import csv
import gc
import io
import math
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vhbilliards import dynamics
from vhbilliards.dynamics import (
    EPS_CORNER,
    DirectionState,
    FlowBatch,
    OrbitEvent,
    OrbitSegmentList,
    PhasePoint,
    UnfoldedFrame,
    flow,
    is_pi_commensurable,
    next_event,
    orbit,
    orbit_to_csv,
    orbit_to_svg,
    prepare_sides,
    sides_of,
    unfold_position,
)
from vhbilliards.errors import (
    ConfigError,
    DegenerateDirection,
    EventBudgetExceeded,
    SingularOrbit,
    StalledState,
    UnalignedGrid,
)
from vhbilliards.geometry import PointLocation, contains_point
from vhbilliards.lab import random_table

from conftest import walked_loops


def fold_unit(x):
    """Period-2 tent map onto [0, 1]."""
    u = x % 2.0
    return 2.0 - u if u > 1.0 else u


def brute_force_first_hit(table, x, y, vx, vy):
    """Oracle: parametric intersection with every side, smallest t > 0."""
    best = (math.inf, None)
    for verts, _, _ in walked_loops(table):
        n = len(verts)
        for i in range(n):
            ax, ay = float(verts[i][0]), float(verts[i][1])
            bx, by = float(verts[(i + 1) % n][0]), float(verts[(i + 1) % n][1])
            if ax == bx:
                if vx == 0:
                    continue
                t = (ax - x) / vx
                hit_y = y + vy * t
                if t > 1e-12 and min(ay, by) <= hit_y <= max(ay, by):
                    best = min(best, (t, (ax, hit_y)))
            else:
                if vy == 0:
                    continue
                t = (ay - y) / vy
                hit_x = x + vx * t
                if t > 1e-12 and min(ax, bx) <= hit_x <= max(ax, bx):
                    best = min(best, (t, (hit_x, ay)))
    return best


def all_sides_next_event(table, state):
    """The scalar scan before side groups: one pass over every side in side
    order, spans widened by ``EPS_CORNER``, ties to the lower side index.

    A start within the ``EPS_CORNER`` band of a side (line and widened span)
    counts as on it: outward velocity stalls, inward velocity passes the
    side.  Without the second half a start rounded just behind a side, such
    as a vertex rebuilt as ``a + (b - a) * 1.0``, would "hit" that side from
    outside at t <= ``EPS_CORNER`` / |v|, which is the ray entering the
    table, not a collision."""
    sides = sides_of(table)
    rows = [(a, 1 - a, c, lo - EPS_CORNER, hi + EPS_CORNER, side.inward)
            for a, c, lo, hi, side in zip(
                sides.axis.tolist(), sides.coord.tolist(), sides.lo.tolist(),
                sides.hi.tolist(), table.boundary.sides)]
    vx, vy = state.direction.velocity
    if vx == 0.0 or vy == 0.0:
        raise StalledState("axis-parallel velocity")
    p = (state.x, state.y)
    v = (vx, vy)
    best_t, best_side, best_cross = math.inf, -1, 0.0
    for s, (a, b, c, lo, hi, inward) in enumerate(rows):
        gap = c - p[a]
        if abs(gap) <= EPS_CORNER and lo <= p[b] <= hi:
            if v[a] * inward < 0:
                raise StalledState(f"start point lies on side {s}")
            continue
        t = gap / v[a]
        if 0.0 < t < best_t:
            cross = p[b] + v[b] * t
            if lo <= cross <= hi:
                best_t, best_side, best_cross = t, s, cross
    if best_side < 0:
        raise SingularOrbit("no boundary ahead")
    # the vertex and its position come from the exact boundary model
    b = table.boundary
    exact = b.sides[best_side]
    for vert, end in ((exact.lo_vertex, sides.lo[best_side]),
                      (exact.hi_vertex, sides.hi[best_side])):
        if abs(best_cross - end) <= EPS_CORNER:
            return (tuple(float(c) for c in b.vertices[vert]),
                    best_side, best_t, vert)
    a, _, c, _, _, _ = rows[best_side]
    hit = (c, best_cross) if a == 0 else (best_cross, c)
    return hit, best_side, best_t, None


def random_direction(rng):
    return DirectionState(float(rng.uniform(0.05, math.pi / 2 - 0.05)),
                          *(int(v) for v in rng.choice((-1, 1), size=2)))


def interior_start(table, rng):
    """A uniform interior point of the bounding box, with a random
    direction."""
    (x0, y0), (x1, y1) = (tuple(map(float, c)) for c in table.bbox)
    while True:
        x, y = x0 + (x1 - x0) * rng.random(), y0 + (y1 - y0) * rng.random()
        if contains_point(table, (x, y)) is PointLocation.INTERIOR:
            return PhasePoint(x, y, random_direction(rng))


def next_event_starts(table, rng, count=20):
    """Phase points of three kinds, ``count`` each: interior starts, rays
    aimed at a vertex from inside, and starts on a side (or at a vertex)
    with a random velocity, so inward and outward both occur."""
    (x0, y0), (x1, y1) = (tuple(map(float, c)) for c in table.bbox)
    loops = [[(float(x), float(y)) for x, y in verts]
             for verts, _, _ in walked_loops(table)]
    corners = [v for verts in loops for v in verts]
    edges = [(verts[i], verts[(i + 1) % len(verts)])
             for verts in loops for i in range(len(verts))]
    starts = [interior_start(table, rng) for _ in range(count)]
    while len(starts) < 2 * count:
        (cx, cy) = corners[int(rng.integers(len(corners)))]
        d = random_direction(rng)
        vx, vy = d.velocity
        back = rng.uniform(0.01, 1.0) * (x1 - x0)
        x, y = cx - vx * back, cy - vy * back
        if contains_point(table, (x, y)) is PointLocation.INTERIOR:
            starts.append(PhasePoint(x, y, d))
    while len(starts) < 3 * count:
        (ax, ay), (bx, by) = edges[int(rng.integers(len(edges)))]
        u = rng.choice([0.0, 1.0, rng.random()])
        if ax == bx:
            x, y = ax, ay + (by - ay) * u
        else:
            x, y = ax + (bx - ax) * u, ay
        starts.append(PhasePoint(x, y, random_direction(rng)))
    return starts


class TestDirectionState:
    def test_four_directions(self):
        states = DirectionState(0.7).direction_class()
        vels = {s.velocity for s in states}
        assert len(vels) == 4
        c, s = math.cos(0.7), math.sin(0.7)
        assert (c, s) in vels and (-c, -s) in vels

    def test_velocity_is_cached(self):
        d = DirectionState(0.7, -1, 1)
        assert d.velocity is d.velocity
        assert d.velocity == (-math.cos(0.7), math.sin(0.7))
        # the kept value is not a field
        twin = DirectionState(0.7, -1, 1)
        assert d == twin and hash(d) == hash(twin)

    def test_rejects_degenerate_angles(self):
        for bad in (0.0, math.pi / 2, -0.3, 2.0):
            with pytest.raises(DegenerateDirection):
                DirectionState(bad)

    def test_pi_commensurability_flag(self):
        assert is_pi_commensurable(math.pi / 4)
        assert is_pi_commensurable(math.pi / 3)
        assert not is_pi_commensurable(1.0)
        assert not is_pi_commensurable(0.7)


class TestNextEvent:
    def test_square_closed_form(self, square):
        theta = math.atan(0.5)
        state = PhasePoint(1.5, 1.5, DirectionState(theta))
        (hx, hy), side, t, vertex = next_event(square, state)
        assert vertex is None
        assert hx == 2.0
        assert abs(hy - 1.75) < 1e-12
        assert abs(t - 0.5 / math.cos(theta)) < 1e-12

    def test_diagonal_into_corner(self, square):
        state = PhasePoint(1.5, 1.5, DirectionState(math.pi / 4))
        point, _, t, vertex = next_event(square, state)
        assert point == (2.0, 2.0)
        assert abs(t - math.sqrt(0.5)) < 1e-12
        assert square.boundary.convex[vertex]

    def test_lshape_matches_brute_force(self, lshape_table):
        state = PhasePoint(1.5, 1.5, DirectionState(math.pi / 3))
        (hx, hy), side, t, vertex = next_event(lshape_table, state)
        assert vertex is None
        vx, vy = state.direction.velocity
        t_oracle, point = brute_force_first_hit(lshape_table, 1.5, 1.5, vx, vy)
        assert abs(t - t_oracle) < 1e-12
        assert abs(hx - point[0]) < 1e-12 and abs(hy - point[1]) < 1e-12

    def test_random_starts_match_brute_force(self, lshape_table, holed_table,
                                             rng):
        # the holed table adds hole sides and more reflex vertices; corner
        # hits are skipped
        for table in (lshape_table, holed_table):
            checked = 0
            while checked < 100:
                x = 1.02 + 1.9 * rng.random()
                y = 1.02 + 1.9 * rng.random()
                if contains_point(table, (x, y)) is not PointLocation.INTERIOR:
                    continue
                theta = 0.05 + 1.4 * rng.random()
                sx = 1 if rng.random() < 0.5 else -1
                sy = 1 if rng.random() < 0.5 else -1
                state = PhasePoint(x, y, DirectionState(theta, sx, sy))
                vx, vy = state.direction.velocity
                (hx, hy), _, t, vertex = next_event(table, state)
                if vertex is not None:
                    continue
                t_oracle, point = brute_force_first_hit(table, x, y, vx, vy)
                assert abs(t - t_oracle) < 1e-9
                assert abs(hx - point[0]) < 1e-9 and abs(hy - point[1]) < 1e-9
                checked += 1


class TestFacedSides:
    """``next_event`` scans only the faced sides; the all-sides scan it
    replaced is the oracle.

    A corner hit may name either side meeting at the vertex.  At a convex
    vertex the time matches too; at a reflex vertex the oracle may reach
    the vertex through a side facing away from the ray, so there the time
    is the time to the named side's line, which may differ in the last
    bits, as it may for ``FlowBatch``.
    """

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_all_sides_scan(self, seed):
        rng = np.random.default_rng(seed)
        table = random_table(rng, hole_probability=0.6)
        sides = sides_of(table)
        b = table.boundary
        for state in next_event_starts(table, rng):
            try:
                want = all_sides_next_event(table, state)
            except (StalledState, SingularOrbit) as err:
                with pytest.raises(type(err)):
                    next_event(table, state)
                continue
            got = next_event(table, state)
            point, side, t, vertex = got
            if vertex is not None and side != want[1]:
                assert vertex in (b.sides[side].lo_vertex,
                                  b.sides[side].hi_vertex)
                a = int(sides.axis[side])
                gap = float(sides.coord[side]) - (state.x, state.y)[a]
                assert t == gap / state.direction.velocity[a]
                if b.convex[vertex]:
                    assert t == want[2]
                got = (point, want[1], want[2], vertex)
            assert got == want

    @pytest.mark.parametrize("x, velocity, vertical, horizontal", [
        (1.25, (0.75, 0.5), 1, 2),    # north-east corner
        (1.75, (-0.75, 0.5), 3, 2),   # north-west corner
    ])
    def test_exact_tie_goes_to_vertical_side(self, square, x, velocity,
                                             vertical, horizontal):
        # dyadic velocities reach both side lines at t = 1 exactly
        state = PhasePoint(x, 1.5, SimpleNamespace(velocity=velocity))
        point, side, t, vertex = next_event(square, state)
        assert (side, t) == (vertical, 1.0)
        assert vertex in (square.boundary.sides[horizontal].lo_vertex,
                          square.boundary.sides[horizontal].hi_vertex)
        batch = FlowBatch(square, [x], [1.5], [velocity[0]], [velocity[1]])
        assert (batch.next_side[0], batch.next_t[0]) == (vertical, 1.0)


class TestStalledState:
    def test_axis_parallel_velocity(self, square):
        for velocity in ((1.0, 0.0), (0.0, -1.0)):
            state = PhasePoint(1.5, 1.5, SimpleNamespace(velocity=velocity))
            with pytest.raises(StalledState):
                next_event(square, state)

    @pytest.mark.parametrize("run", [
        lambda table, state: next_event(table, state),
        lambda table, state: flow(table, state, 1.0),
        lambda table, state: orbit(table, state, max_time=1.0),
    ], ids=["next_event", "flow", "orbit"])
    def test_outward_start_on_side(self, square, run):
        # (2, 1.5) lies on the east side; sx = +1 points out of the table
        state = PhasePoint(2.0, 1.5, DirectionState(0.7))
        with pytest.raises(StalledState):
            run(square, state)

    def test_inward_start_on_side_accepted(self, square):
        state = PhasePoint(2.0, 1.5, DirectionState(0.7, sx=-1))
        (hx, hy), _, t, vertex = next_event(square, state)
        assert vertex is None
        vx, vy = state.direction.velocity
        t_oracle, point = brute_force_first_hit(square, 2.0, 1.5, vx, vy)
        assert abs(t - t_oracle) < 1e-12
        assert abs(hx - point[0]) < 1e-12 and abs(hy - point[1]) < 1e-12
        assert flow(square, state, 0.5).x < 2.0


class TestSideTable:
    def test_one_view_per_table(self, holed_table):
        sides = sides_of(holed_table)
        assert sides_of(holed_table) is sides
        assert sides_of(sides) is sides
        state = PhasePoint(1.1, 1.1, DirectionState(0.7))
        assert orbit(holed_table, state, max_time=3.0).table is holed_table
        assert sides_of(holed_table) is sides
        batch = FlowBatch(holed_table, [1.1], [1.1], [0.6], [0.8])
        assert batch.sides is sides
        # prepare_sides stays a plain builder
        assert prepare_sides(holed_table) is not sides

    def test_view_goes_with_its_table(self):
        from vhbilliards.geometry import lshape

        table = lshape()
        view = weakref.ref(sides_of(table))
        owner = weakref.ref(table)
        del table
        gc.collect()
        assert owner() is None and view() is None


# positions agree to this fraction of the table's extent: each event
# re-projects onto an exact side, so the error does not grow with the scale
FLOW_REL_TOL = 1e-9


def flow_case(seed):
    """A seeded random table (holes likely), an interior start on it, the
    table's extent and the generator, for drawing times."""
    rng = np.random.default_rng(seed)
    table = random_table(rng, hole_probability=0.6)
    (x0, y0), (x1, y1) = table.bbox
    return table, interior_start(table, rng), float(max(x1 - x0, y1 - y0)), rng


class TestFlow:
    def test_zero_time_is_identity(self, lshape_table):
        state = PhasePoint(1.3, 1.7, DirectionState(0.9))
        assert flow(lshape_table, state, 0.0) == state

    def test_folding_oracle(self, square):
        theta = math.acos(3 / 5)
        start = PhasePoint(1.25, 1.25, DirectionState(theta))
        for t in (0.3, 1.9, 7.77, 23.45):
            p = flow(square, start, t)
            assert abs(p.x - (1 + fold_unit(0.25 + 0.6 * t))) < 1e-9
            assert abs(p.y - (1 + fold_unit(0.25 + 0.8 * t))) < 1e-9

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_reversibility(self, seed):
        table, start, extent, rng = flow_case(seed)
        t = extent * float(rng.uniform(0.5, 6.0))
        try:
            fwd = flow(table, start, t)
        except SingularOrbit:
            assume(False)
        back = flow(table,
                    PhasePoint(fwd.x, fwd.y, fwd.direction.flip_both()), t)
        tol = FLOW_REL_TOL * extent
        assert abs(back.x - start.x) <= tol
        assert abs(back.y - start.y) <= tol
        assert back.direction == start.direction.flip_both()

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_time_additivity(self, seed):
        table, start, extent, rng = flow_case(seed)
        t1, t2 = (extent * float(u) for u in rng.uniform(0.2, 3.0, size=2))
        try:
            one = flow(table, start, t1 + t2)
        except SingularOrbit:
            assume(False)
        two = flow(table, flow(table, start, t1), t2)
        tol = FLOW_REL_TOL * extent
        assert abs(one.x - two.x) <= tol
        assert abs(one.y - two.y) <= tol
        assert one.direction == two.direction

    def test_convex_corner_double_reflection(self, square):
        # exact diagonal: the corner reflects the ray straight back
        start = PhasePoint(1.5, 1.5, DirectionState(math.pi / 4))
        p = flow(square, start, 2 * math.sqrt(2) * 0.5)
        assert abs(p.x - 1.5) < 1e-9 and abs(p.y - 1.5) < 1e-9
        assert (p.direction.sx, p.direction.sy) == (-1, -1)

    def test_reflex_corner_is_singular(self, lshape_table):
        # aim exactly at the reentrant vertex (2, 2)
        start = PhasePoint(1.5, 1.5, DirectionState(math.pi / 4))
        with pytest.raises(SingularOrbit):
            flow(lshape_table, start, 2.0)

    def test_event_budget(self, square, monkeypatch):
        # flow reads dynamics.MAX_EVENTS at call time and allows exactly
        # that many events
        start = PhasePoint(1.5, 1.5, DirectionState(1.0))
        events = len(orbit(square, start, max_time=100.0).events)
        monkeypatch.setattr(dynamics, "MAX_EVENTS", events)
        flow(square, start, 100.0)
        monkeypatch.setattr(dynamics, "MAX_EVENTS", events - 1)
        with pytest.raises(EventBudgetExceeded):
            flow(square, start, 100.0)

    @pytest.mark.parametrize("t", [-5.0, math.nan])
    def test_negative_or_nan_time_rejected(self, square, t):
        start = PhasePoint(1.5, 1.5, DirectionState(1.0))
        with pytest.raises(ValueError, match="nonnegative"):
            flow(square, start, t)

    def test_infinite_time_rejected(self, square):
        start = PhasePoint(1.5, 1.5, DirectionState(1.0))
        with pytest.raises(ValueError, match="finite"):
            flow(square, start, math.inf)

    def test_direction_class_closure_many_events(self, lshape_table):
        state = PhasePoint(1.2345, 1.5432, DirectionState(0.8765))
        theta0 = state.direction.theta
        for _ in range(5):
            state = flow(lshape_table, state, 11.7)
            assert state.direction.theta == theta0
            assert (state.direction.sx, state.direction.sy) in {
                (1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_direction_class_closure_ten_thousand_events(self, rng):
        """Speed components stay in the initial class bitwise over 1e4
        reflections on random tables."""
        from vhbilliards.lab import random_table

        for _ in range(3):
            table = random_table(rng, hole_probability=0.0)
            (x0, y0), (x1, y1) = table.bbox
            while True:
                x = float(x0) + float(x1 - x0) * rng.random()
                y = float(y0) + float(y1 - y0) * rng.random()
                if contains_point(table, (x, y)) is PointLocation.INTERIOR:
                    break
            theta = 0.1 + 1.3 * rng.random()
            c, s = math.cos(theta), math.sin(theta)
            batch = FlowBatch(table, np.array([x]), np.array([y]),
                              np.array([c]), np.array([s]))
            # advance in bounded chunks until 1e4 reflections accumulate
            t = 0.0
            chunk = 200.0 * float(max(x1 - x0, y1 - y0))
            while batch.events[0] < 10**4 and not batch.singular[0]:
                t += chunk
                batch.advance_to(t)
            if batch.singular[0]:
                continue
            assert batch.events[0] >= 10**4
            assert abs(batch.vx[0]) == c
            assert abs(batch.vy[0]) == s


class TestOrbit:
    def test_square_rational_slope_returns(self, square):
        # tan(theta) = 1/2 gives a periodic orbit of period 2*sqrt(5)
        theta = math.atan(0.5)
        start = PhasePoint(1.3, 1.55, DirectionState(theta))
        period = 2 * math.sqrt(5)
        p = flow(square, start, period)
        assert abs(p.x - start.x) < 1e-9 and abs(p.y - start.y) < 1e-9
        assert p.direction == start.direction

    def test_collisions_lie_on_boundary(self, lshape_table):
        hist = orbit(lshape_table, PhasePoint(1.25, 1.25, DirectionState(1.0)),
                     max_time=12.0)
        assert hist.events
        for ev in hist.events:
            assert contains_point(lshape_table, (ev.x, ev.y)) \
                is PointLocation.BOUNDARY

    @pytest.mark.parametrize("t", [-5.0, math.nan])
    def test_negative_or_nan_time_rejected(self, square, t):
        start = PhasePoint(1.5, 1.5, DirectionState(1.0))
        with pytest.raises(ValueError, match="nonnegative"):
            orbit(square, start, max_time=t, max_events=100)

    def test_zero_event_budget_ends_at_first_collision(self, square):
        hist = orbit(square, PhasePoint(1.5, 1.5, DirectionState(1.0)),
                     max_time=10.0, max_events=0)
        assert hist.terminated == "budget"
        assert len(hist.events) == 1 and hist.final is None
        assert hist.total_time == hist.events[0].time

    @pytest.mark.parametrize("max_time", [0.0, 0.25])
    def test_zero_event_budget_without_collision_finishes(self, square,
                                                          max_time):
        start = PhasePoint(1.5, 1.5, DirectionState(1.0))
        hist = orbit(square, start, max_time=max_time, max_events=0)
        assert hist.terminated is None and hist.events == []
        assert hist.total_time == max_time
        assert hist.final == flow(square, start, max_time)

    def test_infinite_time_runs_to_budget(self, square):
        hist = orbit(square, PhasePoint(1.5, 1.5, DirectionState(1.0)),
                     max_time=math.inf, max_events=5)
        assert hist.terminated == "budget"
        assert len(hist.events) == 6

    def test_negative_event_budget_rejected(self, square):
        start = PhasePoint(1.5, 1.5, DirectionState(1.0))
        with pytest.raises(ValueError, match="budget"):
            orbit(square, start, 5.0, max_events=-3)

    def test_singular_orbit_is_flagged(self, lshape_table):
        hist = orbit(lshape_table, PhasePoint(1.5, 1.5,
                                              DirectionState(math.pi / 4)),
                     max_time=5.0)
        assert hist.terminated == "singular"
        assert hist.singular

    def test_times_strictly_increasing(self, lshape_table):
        hist = orbit(lshape_table, PhasePoint(1.21, 1.81, DirectionState(0.6)),
                     max_time=25.0)
        times = [ev.time for ev in hist.events]
        assert all(b > a for a, b in zip(times, times[1:]))


class TestUnfold:
    def test_single_segment_identity_frame(self, square):
        hist = orbit(square, PhasePoint(1.2, 1.3, DirectionState(0.3)),
                     max_time=0.1)
        pts = unfold_position(hist)
        assert pts[0][1] == UnfoldedFrame(1, 1)
        assert pts[0][0] == (1.2, 1.3)

    def test_one_reflection_collinear(self, square):
        theta = math.atan(0.5)
        hist = orbit(square, PhasePoint(1.5, 1.5, DirectionState(theta)),
                     max_time=1.5)
        pts = unfold_position(hist)
        assert len(pts) >= 3
        (x0, y0), _ = pts[0]
        (x1, y1), _ = pts[1]
        (x2, y2), f2 = pts[2]
        cross = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        assert abs(cross) < 1e-9
        assert f2 == UnfoldedFrame(-1, 1)  # first hit is the right wall

    def test_rectangle_unfolds_to_straight_line(self, square):
        theta = 0.9
        start = PhasePoint(1.33, 1.71, DirectionState(theta))
        hist = orbit(square, start, max_time=17.0)
        pts = unfold_position(hist)
        (ux, uy), _ = pts[-1]
        vx, vy = start.direction.velocity
        assert abs(ux - (start.x + vx * 17.0)) < 1e-9
        assert abs(uy - (start.y + vy * 17.0)) < 1e-9

    def test_frame_parity_tracks_sign_flips(self, lshape_table):
        hist = orbit(lshape_table, PhasePoint(1.4, 1.6, DirectionState(0.95)),
                     max_time=9.0)
        sides = prepare_sides(lshape_table)
        ex = ey = 1
        pts = unfold_position(hist)
        for ev, (_, frame_at_arrival) in zip(hist.events, pts[1:]):
            assert (frame_at_arrival.ex, frame_at_arrival.ey) == (ex, ey)
            if ev.side_id == -1:
                ex, ey = -ex, -ey
            elif sides.axis[ev.side_id] == 0:
                ex = -ex
            else:
                ey = -ey


def replayed_signs(table, history):
    """The reflection law replayed from the side view's axes, as the
    exports did before each record carried its signs: a corner (side -1)
    flips both signs, a vertical side ``sx``, a horizontal one ``sy``."""
    axis = sides_of(table).axis
    d = history.initial.direction
    sx, sy = d.sx, d.sy
    out = []
    for ev in history.events:
        if ev.side_id == -1:
            sx, sy = -sx, -sy
        elif axis[ev.side_id] == 0:
            sx = -sx
        else:
            sy = -sy
        out.append((sx, sy))
    return out


class TestOrbitRecords:
    """Each record is its CSV row and carries the signs the orbit leaves the
    collision with, over random holed tables.  Cell-centre starts on slopes
    1 and 1/2 (and 2) meet vertices, so corner records occur."""

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([math.pi / 4, math.atan(0.5), math.atan(2.0)]),
           st.sampled_from([2, 4, 6]))
    @settings(max_examples=30, deadline=None)
    def test_records_are_reflection_law_rows(self, tmp_path_factory, seed,
                                             theta, m):
        from vhbilliards.spectral import build_grid

        rng = np.random.default_rng(seed)
        table = random_table(rng, hole_probability=0.6)
        vertices = {(float(x), float(y)) for x, y in table.boundary.vertices}
        try:
            grid = build_grid(table, m)
        except UnalignedGrid:
            # a table narrower than half a cell holds no cell midpoint
            assume(False)
        pick = rng.choice(grid.npts, size=min(8, grid.npts), replace=False)
        path = tmp_path_factory.mktemp("records") / "orbit.csv"
        for i in pick.tolist():
            d = DirectionState(theta, *(int(v) for v in
                                        rng.choice((-1, 1), size=2)))
            start = PhasePoint(float(grid.xs[i]), float(grid.ys[i]), d)
            hist = orbit(table, start, max_time=12.0)
            signs = replayed_signs(table, hist)
            assert [(ev.sx, ev.sy) for ev in hist.events] == signs
            for ev in hist.events:
                assert (ev.side_id == -1) == ((ev.x, ev.y) in vertices)
            if hist.final is not None:
                fd = hist.final.direction
                assert (fd.sx, fd.sy) == (signs[-1] if signs else (d.sx, d.sy))
            # the frame on arrival at a point is the product of the flips
            # before it: the start's signs times the signs the orbit arrives
            # with
            unfolded = unfold_position(hist)
            frames = [frame for _, frame in unfolded]
            before = [(d.sx, d.sy)] + signs
            arrivals = before[:1] + before[:-1]
            arrivals += before[-1:] if hist.final is not None else []
            assert frames == [UnfoldedFrame(d.sx * sx, d.sy * sy)
                              for sx, sy in arrivals]
            # the unfolded path is the start's straight ray
            vx, vy = d.velocity
            for ((ux, uy), _), ev in zip(unfolded[1:], hist.events):
                assert abs(ux - (start.x + vx * ev.time)) <= 1e-9
                assert abs(uy - (start.y + vy * ev.time)) <= 1e-9
            orbit_to_csv(hist, path)
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[2:2 + len(hist.events)]
            assert rows == [[repr(ev.time), repr(ev.x), repr(ev.y),
                             str(ev.sx), str(ev.sy), str(ev.side_id)]
                            for ev in hist.events]


def reference_advance(table, state, t, max_events, record):
    """The scalar loop as it stood with a new label per reflection: one
    ``next_event`` per event and a new ``DirectionState`` per reflection,
    reading convexity off the exact boundary model.  Appends each event's
    row to ``record``."""
    sides = sides_of(table)
    convex = table.boundary.convex
    x, y = state.x, state.y
    d = state.direction
    elapsed = 0.0
    events = 0
    while True:
        remaining = t - elapsed
        if remaining <= 0:
            break
        hit, s, dt, vertex = next_event(sides, PhasePoint(x, y, d))
        if (vertex is not None and not convex[vertex]
                and dt <= remaining):
            raise SingularOrbit(f"orbit reaches reflex vertex {vertex}")
        if dt > remaining:
            vx, vy = d.velocity
            x += vx * remaining
            y += vy * remaining
            break
        x, y = hit
        if vertex is not None:
            d = d.flip_both()
            s = -1
        elif sides.axis[s]:
            d = DirectionState(d.theta, d.sx, -d.sy)
        else:
            d = DirectionState(d.theta, -d.sx, d.sy)
        elapsed += dt
        events += 1
        record.append((elapsed, x, y, s, d.sx, d.sy))
        if events > max_events:
            raise EventBudgetExceeded(f"exceeded {max_events} events")
    return PhasePoint(x, y, d)


def compare_with_reference(seed, m, max_time=30.0, max_events=25):
    """``orbit`` and ``flow`` against :func:`reference_advance` from up to
    six cell midpoints of a random holed table, on slopes 1, 1/2, 2 and one
    random slope; asserts bit-equal results (``repr`` tells -0.0 from 0.0)
    and returns the counts of corner events and of terminations."""
    from vhbilliards.spectral import build_grid

    rng = np.random.default_rng(seed)
    table = random_table(rng, hole_probability=0.6)
    try:
        grid = build_grid(table, m)
    except UnalignedGrid:
        # a table narrower than half a cell holds no cell midpoint
        return None
    thetas = [math.pi / 4, math.atan(0.5), math.atan(2.0),
              float(rng.uniform(0.05, math.pi / 2 - 0.05))]
    counts = {"corner": 0, "singular": 0, "budget": 0}
    pick = rng.choice(grid.npts, size=min(6, grid.npts), replace=False)
    for i in pick.tolist():
        for theta in thetas:
            d = DirectionState(theta, *(int(v) for v in
                                        rng.choice((-1, 1), size=2)))
            start = PhasePoint(float(grid.xs[i]), float(grid.ys[i]), d)
            hist = orbit(table, start, max_time, max_events)
            rows = []
            try:
                final, terminated = reference_advance(
                    table, start, max_time, max_events, rows), None
            except (SingularOrbit, EventBudgetExceeded) as err:
                final = None
                terminated = ("singular" if isinstance(err, SingularOrbit)
                              else "budget")
            assert repr([(ev.time, ev.x, ev.y, ev.side_id, ev.sx, ev.sy)
                         for ev in hist.events]) == repr(rows)
            assert repr(hist.final) == repr(final)
            assert hist.terminated == terminated
            counts["corner"] += sum(s == -1 for _, _, _, s, _, _ in rows)
            if terminated:
                counts[terminated] += 1
            outcomes = []
            for run in (flow, reference_advance):
                extra = () if run is flow else (max_events, [])
                try:
                    with mock.patch.object(dynamics, "MAX_EVENTS",
                                           max_events):
                        outcomes.append(repr(run(table, start,
                                                 0.6 * max_time, *extra)))
                except (SingularOrbit, EventBudgetExceeded) as err:
                    outcomes.append(type(err))
            assert outcomes[0] == outcomes[1]
    return counts


class TestScalarLoopReference:
    """``orbit`` and ``flow`` equal the scalar loop that flips a new
    ``DirectionState`` per reflection, bit for bit, corner hits and reflex
    terminations included."""

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_orbit_and_flow_equal_reference(self, seed, m):
        assume(compare_with_reference(seed, m) is not None)

    def test_draws_reach_corners_and_terminations(self):
        # the property's draws exercise every branch of the loop
        totals = {"corner": 0, "singular": 0, "budget": 0}
        for seed in range(8):
            for k, v in (compare_with_reference(seed, 4) or {}).items():
                totals[k] += v
        assert all(totals.values()), totals


class TestFlowBatch:
    def test_matches_scalar_flow(self, lshape_table, rng):
        n = 60
        xs, ys, vxs, vys, states = [], [], [], [], []
        while len(xs) < n:
            x = 1.05 + 1.9 * rng.random()
            y = 1.05 + 1.9 * rng.random()
            if contains_point(lshape_table, (x, y)) is not PointLocation.INTERIOR:
                continue
            theta = 0.1 + 1.3 * rng.random()
            sx = 1 if rng.random() < 0.5 else -1
            sy = 1 if rng.random() < 0.5 else -1
            d = DirectionState(theta, sx, sy)
            xs.append(x)
            ys.append(y)
            vxs.append(d.velocity[0])
            vys.append(d.velocity[1])
            states.append(PhasePoint(x, y, d))
        batch = FlowBatch(lshape_table, np.array(xs), np.array(ys),
                          np.array(vxs), np.array(vys))
        batch.advance_to(4.0)
        bx, by = batch.advance_to(11.5)
        for i, st in enumerate(states):
            if batch.singular[i]:
                continue
            p = flow(lshape_table, st, 11.5)
            assert abs(p.x - bx[i]) < 1e-10
            assert abs(p.y - by[i]) < 1e-10

    # a bound in ulps of the table's largest coordinate per event: each
    # event re-projects one coordinate onto its side, and each flight adds
    # rounding to the other (at most 1.2 over 3200 starts to t = 40)
    ULPS_PER_EVENT = 4

    def test_matches_scalar_flow_on_random_tables(self):
        eps = np.finfo(np.float64).eps
        compared = 0
        for seed in range(15):
            rng = np.random.default_rng(seed)
            table = random_table(rng, hole_probability=0.6)
            (x0, y0), (x1, y1) = (map(float, c) for c in table.bbox)
            scale = max(abs(x0), abs(y0), abs(x1), abs(y1))
            starts = []
            while len(starts) < 8:
                x, y = rng.uniform(x0, x1), rng.uniform(y0, y1)
                if contains_point(table, (x, y)) is PointLocation.INTERIOR:
                    d = DirectionState(float(rng.uniform(0.05, 1.52)),
                                       *rng.choice([-1, 1], size=2).tolist())
                    starts.append(PhasePoint(x, y, d))
            batch = FlowBatch(table, *map(np.array, zip(
                *((p.x, p.y, *p.direction.velocity) for p in starts))))
            bx, by = batch.advance_to(12.0)
            for i, start in enumerate(starts):
                try:
                    p = flow(table, start, 12.0)
                except SingularOrbit:
                    continue
                if batch.singular[i]:
                    continue
                bound = self.ULPS_PER_EVENT * eps * scale * (
                    batch.events[i] + 1)
                assert abs(p.x - bx[i]) <= bound, (seed, i)
                assert abs(p.y - by[i]) <= bound, (seed, i)
                compared += 1
        assert compared >= 100

    def test_equal_2d_shapes_flatten_in_c_order(self, square):
        x = np.array([[1.3, 1.6, 1.2], [1.7, 1.4, 1.5]])
        y = np.full((2, 3), 1.5)
        vx = np.repeat([[0.6], [-0.8]], 3, axis=1)
        vy = np.repeat([[0.8], [0.6]], 3, axis=1)
        batch = FlowBatch(square, x, y, vx, vy)
        flat = FlowBatch(square, *(a.ravel() for a in (x, y, vx, vy)))
        assert np.array_equal(batch.x, x.ravel())
        for t in (0.5, 3.0):
            got, want = batch.advance_to(t), flat.advance_to(t)
            assert all(g.ndim == 1 and g.tobytes() == w.tobytes()
                       for g, w in zip(got, want))

    @pytest.mark.parametrize("x, y, vx, vy", [
        ([1.5, 1.2], [1.5], [0.6, 0.6], [0.8, 0.8]),
        ([[1.5, 1.2]], [[1.5], [1.2]], [[0.6, 0.6]], [[0.8, 0.8]]),
        (1.5, 1.5, 0.6, 0.8),
    ], ids=["lengths", "2-d", "0-d"])
    def test_inputs_must_be_1d_of_one_length(self, square, x, y, vx, vy):
        with pytest.raises(ConfigError, match="shapes"):
            FlowBatch(square, x, y, vx, vy)

    @pytest.mark.parametrize("x, y, vx, vy", [
        ([[1.5], [1.2, 1.3]], [1.5, 1.5], [0.6, 0.6], [0.8, 0.8]),
        (["a"], [1.5], [0.6], [0.8]),
    ], ids=["ragged", "text"])
    def test_unconvertible_inputs_are_config_errors(self, square,
                                                    x, y, vx, vy):
        with pytest.raises(ConfigError, match="float arrays"):
            FlowBatch(square, x, y, vx, vy)

    def test_inputs_are_copied(self, square):
        given = [np.array([1.3, 1.6]), np.array([1.2, 1.9]),
                 np.array([0.6, -0.6]), np.array([0.8, 0.8])]
        kept = [a.copy() for a in given]
        batch = FlowBatch(square, *given)
        batch.advance_to(3.0)
        for a, b in zip(given, kept):
            assert np.array_equal(a, b)
        moved = [a.copy() for a in (batch.x, batch.y, batch.vx, batch.vy)]
        for a in given:
            a.fill(7.0)
        for a, b in zip((batch.x, batch.y, batch.vx, batch.vy), moved):
            assert np.array_equal(a, b)

    def test_speed_components_preserved_bitwise(self, square):
        theta = 0.777
        c, s = math.cos(theta), math.sin(theta)
        batch = FlowBatch(square, np.array([1.3, 1.6]), np.array([1.2, 1.9]),
                          np.array([c, -c]), np.array([s, s]))
        batch.advance_to(50.0)
        assert set(np.abs(batch.vx)) == {c}
        assert set(np.abs(batch.vy)) == {s}

    def test_reflex_corner_marks_singular(self, lshape_table):
        batch = FlowBatch(lshape_table, np.array([1.5]), np.array([1.5]),
                          np.array([math.cos(math.pi / 4)]),
                          np.array([math.sin(math.pi / 4)]))
        batch.advance_to(3.0)
        assert batch.singular[0]

    def test_frozen_points_stay_put(self, lshape_table):
        # a point frozen at the reflex corner keeps x, y and t bit for bit
        # and is returned where it froze, while the live point is returned
        # at each target, one straight move from its last event
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        batch = FlowBatch(lshape_table, np.array([1.9, 1.2]),
                          np.array([1.9, 1.1]), np.array([c, math.cos(0.3)]),
                          np.array([s, math.sin(0.3)]))
        batch.advance_to(0.2)
        assert batch.singular.tolist() == [True, False]

        def frozen_bits():
            return np.array([batch.x[0], batch.y[0], batch.t[0]]).tobytes()

        frozen = frozen_bits()
        for target in (0.85, 7.7, 10.3, 10.3, 19.9):
            x, y = batch.advance_to(target)
            assert frozen_bits() == frozen
            assert (x[0], y[0]) == (batch.x[0], batch.y[0])
            assert not batch.singular[1]
            dt = target - batch.t[1]
            assert x[1] == batch.x[1] + batch.vx[1] * dt
            assert y[1] == batch.y[1] + batch.vy[1] * dt

    def test_budget(self, square, monkeypatch):
        # the batch reads dynamics.MAX_EVENTS at call time and allows
        # exactly that many events per point
        args = (square, np.array([1.5, 1.2]), np.array([1.5, 1.7]),
                np.array([math.cos(1.0)] * 2), np.array([math.sin(1.0)] * 2))
        batch = FlowBatch(*args)
        batch.advance_to(50.0)
        most = int(batch.events.max())
        monkeypatch.setattr(dynamics, "MAX_EVENTS", most)
        FlowBatch(*args).advance_to(50.0)
        monkeypatch.setattr(dynamics, "MAX_EVENTS", most - 1)
        with pytest.raises(EventBudgetExceeded):
            FlowBatch(*args).advance_to(50.0)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected(self, square, target):
        batch = FlowBatch(square, np.array([1.5, 1.2]), np.array([1.5, 1.7]),
                          np.array([math.cos(1.0)] * 2),
                          np.array([math.sin(1.0)] * 2))
        batch.advance_to(0.5)
        before = [getattr(batch, k).copy() for k in ("x", "y", "t", "events")]
        with pytest.raises(ValueError, match="not finite"):
            batch.advance_to(target)
        for a, k in zip(before, ("x", "y", "t", "events")):
            assert np.array_equal(getattr(batch, k), a), k


class TestMeasurePreservation:
    def test_smooth_observable_means_are_stable(self, lshape_table):
        """Weak numerical invariance: grid mean of h o flow_t vs mean of h.

        The invariant measure weights all four direction labels; single-label
        position marginals are NOT preserved (labels mix under reflections),
        so the mean must be taken across the full label set.
        """
        from vhbilliards.spectral import Observable, build_grid

        m = 40
        grid = build_grid(lshape_table, m)
        sides = prepare_sides(lshape_table)
        observables = [Observable.cosine(1, 0), Observable.sine(0, 1),
                       Observable.cosine(1, 1)]
        theta = 0.83
        c, s = math.cos(theta), math.sin(theta)
        for h in observables:
            h0 = grid.evaluate(h)
            mean0 = float(np.sum(h0) / grid.npts)
            for t in (1.0, 5.0, 20.0):
                total = 0.0
                count = 0
                for sx in (1, -1):
                    for sy in (1, -1):
                        batch = FlowBatch(sides, grid.xs, grid.ys,
                                          np.full(grid.npts, sx * c),
                                          np.full(grid.npts, sy * s))
                        x, y = batch.advance_to(t)
                        alive = ~batch.singular
                        vals = h.evaluate(x, y, grid.width, grid.height)
                        total += float(np.sum(vals * alive))
                        count += int(alive.sum())
                assert abs(total / count - mean0) <= 3.0 / m

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_means_preserved_on_random_tables(self, seed):
        # the alive mean of h o flow_t over all four labels stays within
        # O(1/m) of the grid mean of h (at most 1.93/m over 260 seeds)
        from vhbilliards.spectral import (
            _direction_batch,
            basis_function,
            build_grid,
        )

        m = 24
        rng = np.random.default_rng(seed)
        table = random_table(rng, hole_probability=0.6)
        theta = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        grid = build_grid(table, m)
        batch = FlowBatch(table, *_direction_batch(grid, [theta]))
        hs = [basis_function(j) for j in range(2, 7)]
        means = [float(np.sum(grid.evaluate(h)) / grid.npts) for h in hs]
        for t in (1.0, 5.0):
            x, y = batch.advance_to(t)
            alive = ~batch.singular
            for h, mean in zip(hs, means):
                vals = h.evaluate(x, y, grid.width, grid.height)
                moved = float(np.sum(vals * alive) / alive.sum())
                assert abs(moved - mean) <= 3.0 / m


class TestExports:
    def test_csv_columns_and_rows(self, square, tmp_path):
        # numpy scalars as the start must still give plain float fields
        start = PhasePoint(np.float64(1.5), np.float64(1.25),
                           DirectionState(1.0))
        hist = orbit(square, start, max_time=3.0)
        path = tmp_path / "orbit.csv"
        orbit_to_csv(hist, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x,y,sx,sy,side_id"
        assert len(lines) == len(hist.events) + 3
        first = lines[1].split(",")
        assert first[-1] == "-1"
        for line in lines[1:]:
            t, x, y = (float(v) for v in line.split(",")[:3])

    def test_csv_bytes_equal_csv_writer(self, square, tmp_path):
        """numpy scalars in every field, written as ``csv.writer`` writes
        the shortest float repr and the ints: CRLF line ends included."""
        f, i = np.float64, np.int64
        d = DirectionState(f(1.0), i(-1), i(1))
        events = [OrbitEvent(f(t), f(x), f(y), i(s), i(sx), i(sy))
                  for t, x, y, s, sx, sy in (
                      (0.1 + 0.2, 1e-05, 2.0, 3, 1, 1),
                      (1 / 3, -0.0, 1e22, -1, -1, -1),
                      (7.0, 1.25, 5e-324, 0, 1, -1))]
        hist = OrbitSegmentList(
            table=square, initial=PhasePoint(f(1.5), f(1.25), d),
            events=events, final=PhasePoint(
                f(0.5), f(2.0), DirectionState(d.theta, d.sx, -d.sy)),
            total_time=f(9.5))
        path = tmp_path / "orbit.csv"
        orbit_to_csv(hist, path)

        want = io.StringIO(newline="")
        w = csv.writer(want)
        w.writerow(["t", "x", "y", "sx", "sy", "side_id"])
        rows = [(0.0, hist.initial.x, hist.initial.y, d.sx, d.sy, -1)]
        rows += [(ev.time, ev.x, ev.y, ev.sx, ev.sy, ev.side_id)
                 for ev in events]
        fd = hist.final.direction
        rows.append((hist.total_time, hist.final.x, hist.final.y,
                     fd.sx, fd.sy, -1))
        w.writerows([repr(float(t)), repr(float(x)), repr(float(y)),
                     sx, sy, side] for t, x, y, sx, sy, side in rows)
        got = path.read_bytes()
        assert got == want.getvalue().encode("utf-8")
        assert got.count(b"\r\n") == len(events) + 3
        assert b"\n" not in got.replace(b"\r\n", b"")

    def test_svg_written(self, lshape_table, tmp_path):
        hist = orbit(lshape_table, PhasePoint(1.5, 1.5, DirectionState(1.0)),
                     max_time=6.0)
        path = tmp_path / "orbit.svg"
        orbit_to_svg(hist, path)
        text = path.read_text()
        assert text.startswith("<svg") and "polyline" in text


def test_eps_corner_band(square):
    # aiming within EPS_CORNER of the corner resolves as a corner event
    theta = math.atan2(0.5 - EPS_CORNER / 4, 0.5)
    state = PhasePoint(1.5, 1.5, DirectionState(theta))
    point, _, _, vertex = next_event(square, state)
    assert point == (2.0, 2.0)
    assert square.boundary.convex[vertex]
