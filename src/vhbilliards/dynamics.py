"""Directional billiard flow on VH tables.

The billiard moves at unit speed in one of the four directions of the class
``[theta] = {±theta, ±(pi − theta)}``; reflections off vertical sides flip the
horizontal sign, horizontal sides the vertical sign.  Positions evolve in
binary64 while the boundary stays exact-rational: every collision re-projects
the hit point onto the exact side line, so transverse error does not
accumulate.

Corner policy: a vertex with table-interior angle pi/2 reflects by flipping
both signs (the continuity limit); a reflex vertex (3*pi/2) has no continuous
extension and terminates the orbit (``SingularOrbit``).

Faced sides: every side is vertical or horizontal, so a ray moving +x can
first meet only vertical sides whose inward normal is -x, and likewise for -x
and for +-y.  A ray therefore scans two of the four (axis, inward sign)
groups of its table's side view, ``SideTable.groups``, each in side order
with its span widened by ``EPS_CORNER``.  The stalled-start test needs only
those sides too: a side that a point leaves with outward velocity always
faces the ray.  Ties go to the vertical group, then to the lower side index.

Events are found on two paths that share this rule, the corner policy and
one corner rule: a hit within ``EPS_CORNER`` of an end of its side is a
corner hit, snapped to that end.  Every vertex is the shared end of one
vertical and one horizontal side, so the snapped point is the vertex.

* :func:`next_event` serves one point (:func:`flow`, :func:`orbit`).  One
  scan over the faced groups both rejects stalled starts and finds the
  earliest hit; a corner hit comes back as data (the vertex index), and the
  scalar loop reads the vertex's convexity off ``SideTable.convex_of``.
* :class:`FlowBatch` serves arrays of points (the correlation sweeps) with a
  numpy kernel whose fixed cost per call dominates on a single point.  The
  kernel works on L2-sized blocks of points; :class:`FlowBatch` states the
  block rule and what the faced-sides rule means for frozen points.

The scalar loop calls :func:`next_event` once per event and reads only
Python values there: the side view's ``*_of`` tuples and the four labels of
the start's direction class, built once per call, each of which caches its
``velocity``.  On the holed table of the README (2-vCPU Xeon, Python 3.11,
numpy 2.4) it takes about 3 us per event (3.5 us when :func:`orbit` records
each one) and ``FlowBatch`` fed one point about 190 us, so single orbits
keep their own path.

Both paths read the table through its :class:`SideTable`, a float
projection of the table's exact boundary model (``VHTable.boundary``, every
loop walked once into sides with their spans, end vertices, inward normals
and vertex convexity); :func:`sides_of` builds it once per table and keeps it
on the table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDirection,
    EventBudgetExceeded,
    SingularOrbit,
    StalledState,
)
from .geometry import VHTable, check_int

#: vertex-proximity tolerance (table units)
EPS_CORNER = 1e-12

#: reflection budget per point of a :func:`flow` call or a
#: :class:`FlowBatch`, read at call time; :func:`orbit` takes its own
MAX_EVENTS = 10**7

#: points in one FlowBatch kernel block: the kernel's temporaries for a block
#: take about 1 MiB, inside a 2 MiB L2, and do not grow with the side count
_BLOCK_POINTS = 8192


# ---------------------------------------------------------------------------
# directions and phase points
# ---------------------------------------------------------------------------

def is_pi_commensurable(theta: float) -> bool:
    """Heuristic continued-fraction test of theta/pi being rational.

    Used only to label experiment outputs; float noise makes a rigorous test
    impossible.
    """
    x = theta / math.pi
    for _ in range(40):  # partial quotients
        a = math.floor(x)
        frac = x - a
        if frac < 1e-12:
            return True
        x = 1.0 / frac
    return False


@dataclass(frozen=True)
class DirectionState:
    """Base angle in (0, pi/2) plus the sign pair selecting one direction."""

    theta: float
    sx: int = 1
    sy: int = 1

    def __post_init__(self):
        if not (0.0 < self.theta < math.pi / 2):
            raise DegenerateDirection(
                f"theta = {self.theta} outside the open interval (0, pi/2)")
        if self.sx not in (-1, 1) or self.sy not in (-1, 1):
            raise DegenerateDirection("signs must be +1 or -1")

    @functools.cached_property
    def velocity(self) -> tuple[float, float]:
        return (self.sx * math.cos(self.theta), self.sy * math.sin(self.theta))

    def flip_both(self) -> "DirectionState":
        return DirectionState(self.theta, -self.sx, -self.sy)

    def direction_class(self) -> tuple["DirectionState", ...]:
        return tuple(DirectionState(self.theta, sx, sy)
                     for sx in (1, -1) for sy in (1, -1))


@dataclass(frozen=True)
class PhasePoint:
    x: float
    y: float
    direction: DirectionState


@dataclass(frozen=True)
class UnfoldedFrame:
    """Reflection parities selecting one of the four unfolded table copies."""

    ex: int = 1
    ey: int = 1


# ---------------------------------------------------------------------------
# precomputed boundary data
# ---------------------------------------------------------------------------

@dataclass
class SideTable:
    """Float view of a table's exact boundary model for the event loop; it
    holds no reference back to the table.

    Sides and vertices keep the numbering of ``table.boundary``: the outer
    loop first, then each hole loop.  A corner is its side's end, so the
    view holds no vertex coordinates.  The convexity of the table-interior
    angle (holes contribute reversed turns) is kept per side end for the
    kernel (``lo_convex``, ``hi_convex``) and per vertex for the scalar loop
    (``convex_of``).  ``groups`` maps ``(axis, inward normal sign)`` to the
    sides, in side order, as Python-float rows ``(coord, lo - EPS_CORNER,
    hi + EPS_CORNER, side)``: the layout every side scan reads (the
    faced-sides rule of the module docstring).  The ``*_of`` tuples are
    Python values for the scalar loop, which reads one entry per event:
    ``ends_of[s]`` is ``((lo, lo_vertex), (hi, hi_vertex))``.
    """

    axis: np.ndarray          # (S,) 0 = vertical, 1 = horizontal
    coord: np.ndarray         # (S,) line coordinate
    lo: np.ndarray            # (S,) span of the cross coordinate
    hi: np.ndarray
    lo_convex: np.ndarray     # (S,) bool: the vertex at lo is convex
    hi_convex: np.ndarray
    groups: dict[tuple[int, int], list[tuple[float, float, float, int]]]
    axis_of: tuple[int, ...]
    ends_of: tuple[tuple[tuple[float, int], tuple[float, int]], ...]
    convex_of: tuple[bool, ...]


def prepare_sides(table: VHTable) -> SideTable:
    """A new float view of ``table.boundary``, with convexity read off at
    each side's ends; :func:`sides_of` keeps one per table."""
    b = table.boundary
    axis, line, lo, hi, lo_v, hi_v, inward, _ = zip(*b.sides)
    coord, lo, hi = (np.array(a, dtype=np.float64) for a in (line, lo, hi))
    groups = {(a, sign): [] for a in (0, 1) for sign in (-1, 1)}
    for s, (a, c, low, high, sign) in enumerate(zip(
            axis, coord.tolist(), lo.tolist(), hi.tolist(), inward)):
        groups[a, sign].append((c, low - EPS_CORNER, high + EPS_CORNER, s))
    return SideTable(
        axis=np.array(axis, dtype=np.int8),
        coord=coord,
        lo=lo,
        hi=hi,
        lo_convex=np.array([b.convex[v] for v in lo_v], dtype=bool),
        hi_convex=np.array([b.convex[v] for v in hi_v], dtype=bool),
        groups=groups,
        axis_of=tuple(axis),
        ends_of=tuple(zip(zip(lo.tolist(), lo_v), zip(hi.tolist(), hi_v))),
        convex_of=b.convex,
    )


def sides_of(table: VHTable | SideTable) -> SideTable:
    """The boundary view of a table, built once and kept on the table.

    :func:`flow`, :func:`next_event` and :class:`FlowBatch` take a
    ``VHTable`` or a ``SideTable`` and come through here.  The view is
    stored on the (frozen) table instance and on its certified copies, so it
    lives and dies with them; equal tables built separately each get their
    own.
    """
    if isinstance(table, SideTable):
        return table
    sides = table.__dict__.get("_sides")
    if sides is None:
        sides = prepare_sides(table)
        object.__setattr__(table, "_sides", sides)
    return sides


# ---------------------------------------------------------------------------
# scalar event loop
# ---------------------------------------------------------------------------

def next_event(table: VHTable | SideTable, state: PhasePoint
               ) -> tuple[tuple[float, float], int, float, int | None]:
    """Earliest boundary hit of the ray from ``state``.

    Returns ``((x, y), side_id, time, vertex)``.  ``vertex`` is ``None`` for
    a plain hit, re-projected onto the exact side line; when the hit lands
    within ``EPS_CORNER`` of an end of its side it is the index of the
    vertex there (its convexity is ``convex_of[vertex]`` of the table's side
    view) and the hit point is that end, which is the vertex exactly.
    Raises :class:`StalledState` for an axis-parallel velocity or a start on
    a side with outward velocity.

    One scan over the faced sides (module docstring) does both jobs: the
    stalled-start test and the earliest strictly-positive hit.  A point
    sitting exactly on a side line gets t = 0 there and skips it, which
    makes restarting from a collision well defined.  A side facing away is
    never scanned, so a start within ``EPS_CORNER`` behind one (a vertex
    rounded just outside the table) passes it as if it sat on its line.
    """
    sides = sides_of(table)
    vx, vy = state.direction.velocity
    if vx == 0.0 or vy == 0.0:
        raise StalledState("velocity is axis-parallel; direction class "
                           "requires theta strictly inside (0, pi/2)")
    x, y = state.x, state.y
    best_t = math.inf
    best = None
    # a: coordinate normal to the group's sides, b: coordinate along them;
    # the vertical group goes first and the strict < keeps earlier rows
    for a, pa, pb, va, vb in ((0, x, y, vx, vy), (1, y, x, vy, vx)):
        for row in sides.groups[a, -1 if va > 0 else 1]:
            c, lo, hi, s = row
            gap = c - pa
            if abs(gap) <= EPS_CORNER and lo <= pb <= hi:
                raise StalledState(
                    f"start point lies on side {s} with outward velocity")
            t = gap / va
            if 0.0 < t < best_t:
                cross = pb + vb * t
                if lo <= cross <= hi:
                    best_t = t
                    best = a, row, cross
    if best is None:
        raise SingularOrbit("ray found no boundary ahead; state is outside "
                            "the table or numerically lost")
    a, (c, _, _, s), cross = best
    vertex = None
    for end, vert in sides.ends_of[s]:
        if abs(cross - end) <= EPS_CORNER:
            cross, vertex = end, vert
            break
    # c is the row's float, shared by every hit on this side
    hit = (c, cross) if a == 0 else (cross, c)
    return hit, s, best_t, vertex


@dataclass(slots=True)
class OrbitEvent:
    """One collision as its :func:`orbit_to_csv` row: ``(sx, sy)`` are the
    signs the orbit leaves it with, naming the table copy it enters.  At a
    corner ``side_id`` is -1 and ``(x, y)`` is the vertex."""

    # slots: long orbits hold one record per collision
    time: float
    x: float
    y: float
    side_id: int
    sx: int
    sy: int


@dataclass
class OrbitSegmentList:
    """Straight orbit segments between recorded collisions in ``table``;
    the records hold every number the exports write."""

    table: VHTable
    initial: PhasePoint
    events: list[OrbitEvent] = field(default_factory=list)
    final: PhasePoint | None = None
    total_time: float = 0.0
    terminated: str | None = None   # None | "singular" | "budget"

    @property
    def singular(self) -> bool:
        return self.terminated == "singular"


def flow(table: VHTable | SideTable, state: PhasePoint,
         t: float) -> PhasePoint:
    """Advance a phase point by total time ``t`` through its reflections;
    more than ``MAX_EVENTS`` of them raise :class:`EventBudgetExceeded`."""
    if not 0 <= t < math.inf:
        raise ConfigError(f"flow time must be finite and nonnegative, got {t}")
    return _advance(sides_of(table), state, t, MAX_EVENTS, record=None)


def orbit(table: VHTable, state: PhasePoint,
          max_time: float, max_events: int = MAX_EVENTS) -> OrbitSegmentList:
    """Record the orbit up to ``max_time`` or ``max_events`` collisions.

    Unlike :func:`flow`, singular terminations and an exhausted budget are
    flagged instead of raised, and ``max_time`` may be infinite.
    """
    if not max_time >= 0:
        raise ConfigError(f"orbit time must be nonnegative, got {max_time}")
    rec = OrbitSegmentList(table=table, initial=state)
    try:
        rec.final = _advance(sides_of(table), state, max_time, max_events,
                             record=rec)
        rec.total_time = max_time
    except (SingularOrbit, EventBudgetExceeded) as err:
        rec.terminated = ("singular" if isinstance(err, SingularOrbit)
                          else "budget")
        rec.total_time = rec.events[-1].time if rec.events else 0.0
    return rec


def _advance(sides: SideTable, state: PhasePoint, t: float,
             max_events: int, record: OrbitSegmentList | None) -> PhasePoint:
    check_int("max_events", max_events)
    if max_events < 0:
        raise ConfigError(f"event budget must be nonnegative, got {max_events}")
    x, y = state.x, state.y
    d = state.direction
    # the four labels, indexed 2*(sx < 0) + (sy < 0): a flip of sy is xor 1,
    # of sx xor 2, at a corner xor 3
    labels = d.direction_class()
    label = 2 * (d.sx < 0) + (d.sy < 0)
    elapsed = 0.0
    events = 0
    while True:
        remaining = t - elapsed
        if remaining <= 0:
            break
        # one module-level call per event: the traced bench wraps it
        hit, s, dt, vertex = next_event(sides, PhasePoint(x, y, d))
        if (vertex is not None and not sides.convex_of[vertex]
                and dt <= remaining):
            raise SingularOrbit(f"orbit reaches reflex vertex {vertex}")
        if dt > remaining:
            vx, vy = d.velocity
            x += vx * remaining
            y += vy * remaining
            break
        x, y = hit
        if vertex is not None:
            label ^= 3
            s = -1
        else:
            label ^= 1 if sides.axis_of[s] else 2
        d = labels[label]
        elapsed += dt
        events += 1
        if record is not None:
            record.events.append(OrbitEvent(elapsed, x, y, s, d.sx, d.sy))
        if events > max_events:
            raise EventBudgetExceeded(f"exceeded {max_events} events")
    return PhasePoint(x, y, d)


# ---------------------------------------------------------------------------
# unfolding
# ---------------------------------------------------------------------------

def unfold_position(history: OrbitSegmentList) -> list[tuple[tuple[float, float],
                                                             UnfoldedFrame]]:
    """Straighten an orbit by composing reflections across the hit side lines.

    Each reflection toggles one frame parity instead of bending the path, so
    the returned points are collinear (the whole unfolded path is one line).
    Entry k carries the frame in effect when the path arrives at point k.
    A collision that flips ``sx`` (``sy``) reflects across the line through
    it normal to x (y); a corner flips both.
    """
    # isometry z -> (ex*z_x + tx, ey*z_y + ty), composed right-to-left
    ex, ey = 1, 1
    tx, ty = 0.0, 0.0

    def apply(px: float, py: float) -> tuple[float, float]:
        return (ex * px + tx, ey * py + ty)

    out = [(apply(history.initial.x, history.initial.y), UnfoldedFrame(ex, ey))]
    prev = history.initial.direction
    for ev in history.events:
        out.append((apply(ev.x, ev.y), UnfoldedFrame(ex, ey)))
        if ev.sx != prev.sx:
            tx, ex = tx + 2.0 * ex * ev.x, -ex
        if ev.sy != prev.sy:
            ty, ey = ty + 2.0 * ey * ev.y, -ey
        prev = ev
    if history.final is not None:
        out.append((apply(history.final.x, history.final.y),
                    UnfoldedFrame(ex, ey)))
    return out


# ---------------------------------------------------------------------------
# batch engine
# ---------------------------------------------------------------------------

class FlowBatch:
    """Vectorized event-driven flow for many phase points at once.

    Points advance to synchronized absolute times via :meth:`advance_to`.
    Orbits that reach a reflex corner are frozen and flagged in
    ``singular`` rather than raised, so quadrature callers can drop them and
    renormalize; a point that reaches a convex corner lands on the end of
    the side it hit, whose convexity the kernel reads per side end.  A
    point past ``MAX_EVENTS`` events raises :class:`EventBudgetExceeded`.
    All operations are elementwise or per-point reductions, so results are
    bitwise independent of how points are grouped into batches or blocks.

    It copies ``x``, ``y``, ``vx`` and ``vy`` (one shape, at least 1-D) in C
    order into 1-D rows and takes 82 bytes per point; its eight float64 rows
    are one ``(8, n)`` block, in huge pages from 65,536 points (4 MiB) on.

    The kernel works on blocks of ``_BLOCK_POINTS`` points.  Its
    temporaries live in buffers of one block, allocated with the batch and
    written in place (about 1.4 MiB, inside L2), so the rounds of
    :meth:`advance_to` allocate nothing per block, and its extra memory is
    8 bytes per point for the indices of the points due, whatever the side
    count.  A point tests only the sides it faces (module docstring), so a
    live point moves exactly as under a search of every side.  A point
    frozen at a reflex vertex is the exception: such a search may meet the
    vertex through a side that faces away from the ray, so a frozen point's
    ``x``, ``y`` and ``t`` may differ from it in the last bits.

    Targets never go back: each :meth:`advance_to` target must be at least
    the batch's latest one, ``target`` (0 at the start), or the call raises
    ``ConfigError``.  A call applies every event up to its target, leaves
    each point at its last event (``x``, ``y`` and ``t`` are that event's)
    and returns the positions at the target, written into the block's last
    two rows and overwritten by the next call.  The move to the target is
    the only step that depends on where a jump ends, and every other step
    is elementwise, so every call returns what one jump from 0 would.
    """

    def __init__(self, table: VHTable | SideTable,
                 x: np.ndarray, y: np.ndarray,
                 vx: np.ndarray, vy: np.ndarray):
        self.sides = sides_of(table)
        try:
            given = [np.asarray(a, dtype=np.float64) for a in (x, y, vx, vy)]
        except ValueError as exc:
            raise ConfigError(f"x, y, vx and vy must convert to float "
                              f"arrays: {exc}") from exc
        if given[0].ndim == 0 or len({a.shape for a in given}) != 1:
            raise ConfigError("x, y, vx and vy must be of one shape, at least "
                              f"1-D, got shapes {[a.shape for a in given]}")
        n = given[0].size
        rows = np.empty((8, n))
        self.x, self.y, self.vx, self.vy, self.t, self.next_t = rows[:6]
        self._at_target = tuple(rows[6:])
        for row, a in zip(rows, given + [0.0]):  # t starts at 0
            row.reshape(given[0].shape)[...] = a
        self.singular = np.zeros(n, dtype=bool)
        self._due = np.empty(n, dtype=bool)
        self.events = np.zeros(n, dtype=np.int64)
        self.target = 0.0
        self.next_side = np.empty(n, dtype=np.int64)
        g = self.sides.groups
        self._columns = (_column_pairs(g[0, -1], g[0, 1]),
                         _column_pairs(g[1, -1], g[1, 1]))
        self._vertical = self.sides.axis == 0
        self._work = _Workspace(min(n, _BLOCK_POINTS))
        for sl in _blocks(n):
            t_hit, side = self._recompute(self.x[sl], self.y[sl],
                                          self.vx[sl], self.vy[sl])
            np.add(self.t[sl], t_hit, out=self.next_t[sl])
            self.next_side[sl] = side

    def _recompute(self, x, y, vx, vy) -> tuple[np.ndarray, np.ndarray]:
        """Time to and index of each ray's first side hit, in the
        workspace's ``th`` and ``sh`` rows."""
        w = self._work
        k = x.shape[0]
        tv, th, sv, sh = w.tv[:k], w.th[:k], w.sv[:k], w.sh[:k]
        _axis_hits(self._columns[0], x, y, vx, vy, tv, sv, w)
        _axis_hits(self._columns[1], y, x, vy, vx, th, sh, w)
        use_v = np.less_equal(tv, th, out=w.use_v[:k])
        np.copyto(th, tv, where=use_v)
        if not np.isfinite(th, out=w.finite[:k]).all():
            raise SingularOrbit("a batch point lost containment")
        np.copyto(sh, sv, where=use_v)
        return th, sh

    def advance_to(self, t_target: float) -> tuple[np.ndarray, np.ndarray]:
        """Apply every event up to ``t_target`` and return the positions
        ``(x, y)`` at it, ``x + vx * (t_target - t)`` with a zero step for
        frozen points, leaving each point at its last event."""
        if not math.isfinite(t_target):
            raise ConfigError(f"advance_to target {t_target} is not finite")
        if t_target < self.target:
            raise ConfigError(f"advance_to target {t_target} precedes the "
                              f"batch's latest target {self.target}")
        self.target = t_target
        # the points due by t_target, found once; each round compacts the
        # points still due to the front of the same array, in order
        due = np.less_equal(self.next_t, t_target, out=self._due)
        if self.singular.any():
            due &= ~self.singular
        due = np.flatnonzero(due)
        count = due.size
        while count:
            kept = 0
            for sl in _blocks(count):
                idx = self._work.idx[:sl.stop - sl.start]
                idx[...] = due[sl]
                kept += self._process_events(idx, t_target, due[kept:])
            count = kept
        x_at, y_at = self._at_target
        # y_at holds the step lengths until the last line
        dt = np.subtract(t_target, self.t, out=y_at)
        if self.singular.any():
            np.copyto(dt, 0.0, where=self.singular)
        np.add(self.x, np.multiply(self.vx, dt, out=x_at), out=x_at)
        np.add(self.y, np.multiply(self.vy, dt, out=y_at), out=y_at)
        return self._at_target

    def _process_events(self, idx: np.ndarray, t_target: float,
                        still_due: np.ndarray) -> int:
        """Apply the cached next event of the points ``idx`` (one block) and
        find their next events; writes the points still due by ``t_target``
        to the front of ``still_due`` and returns their count."""
        s = self.sides
        w = self._work
        k = idx.shape[0]
        side, events = w.side[:k], w.events[:k]
        t, vx, vy, hx, hy, dt, line, cross = (a[:k] for a in (
            w.t, w.vx, w.vy, w.hx, w.hy, w.dt, w.line, w.cross))
        vert, horiz, at_lo, corner, off_corner = (a[:k] for a in (
            w.vert, w.horiz, w.at_lo, w.corner, w.off_corner))
        convex, reflex, flip_x, flip_y = (a[:k] for a in (
            w.convex, w.reflex, w.flip_x, w.flip_y))
        take = _take_into
        take(self.next_side, idx, side)
        take(self.next_t, idx, t)
        take(self.vx, idx, vx)
        take(self.vy, idx, vy)
        np.subtract(t, take(self.t, idx, dt), out=dt)
        np.add(take(self.x, idx, hx), np.multiply(vx, dt, out=line), out=hx)
        np.add(take(self.y, idx, hy), np.multiply(vy, dt, out=line), out=hy)
        take(self._vertical, side, vert)
        np.logical_not(vert, out=horiz)
        # re-project onto the exact side line
        take(s.coord, side, line)
        np.copyto(hx, line, where=vert)
        np.copyto(hy, line, where=horiz)
        np.copyto(cross, hx)
        np.copyto(cross, hy, where=vert)
        np.less_equal(np.abs(np.subtract(cross, take(s.lo, side, dt),
                                         out=dt), out=dt),
                      EPS_CORNER, out=at_lo)
        np.less_equal(np.abs(np.subtract(cross, take(s.hi, side, dt),
                                         out=dt), out=dt),
                      EPS_CORNER, out=corner)
        corner |= at_lo
        if corner.any():
            # convex: snap to the side's end and flip both; reflex: freeze
            take(s.hi, side, line)
            np.copyto(line, take(s.lo, side, dt), where=at_lo)
            take(s.hi_convex, side, convex)
            np.copyto(convex, take(s.lo_convex, side, reflex), where=at_lo)
            convex &= corner
            np.logical_and(corner, np.logical_not(convex, out=reflex),
                           out=reflex)
            np.copyto(cross, line, where=convex)
            np.copyto(hx, cross, where=horiz)
            np.copyto(hy, cross, where=vert)
            np.logical_not(corner, out=off_corner)
            np.logical_and(vert, off_corner, out=flip_x)
            np.logical_and(horiz, off_corner, out=flip_y)
            flip_x |= convex
            flip_y |= convex
        else:
            reflex = corner
            flip_x, flip_y = vert, horiz
        np.negative(vx, out=vx, where=flip_x)
        np.negative(vy, out=vy, where=flip_y)
        self.x[idx] = hx
        self.y[idx] = hy
        self.vx[idx] = vx
        self.vy[idx] = vy
        self.t[idx] = t
        take(self.events, idx, events)
        events += 1
        self.events[idx] = events
        if events.max() > MAX_EVENTS:
            raise EventBudgetExceeded(
                f"a batch point exceeded {MAX_EVENTS} events")
        if reflex.any():
            self.singular[idx[reflex]] = True
            live = ~reflex
            idx, hx, hy, vx, vy, t = (a[live] for a in (idx, hx, hy, vx, vy, t))
        t_hit, side = self._recompute(hx, hy, vx, vy)
        t += t_hit
        self.next_t[idx] = t
        self.next_side[idx] = side
        still = np.less_equal(t, t_target, out=w.still[:t.shape[0]])
        kept = np.count_nonzero(still)
        np.compress(still, idx, out=still_due[:kept])
        return kept


class _Workspace:
    """One kernel block's buffers, one named row per temporary.

    :class:`FlowBatch` allocates them once, so a round's temporaries are
    views of these rows (``row[:k]`` for a block of k points) and the
    rounds allocate nothing per block: no memory is returned to and taken
    back from the system between rounds.
    """

    FLOATS = ("t", "vx", "vy", "hx", "hy", "dt", "line", "cross",
              "tv", "th", "at", "at_cross", "bound")
    INTS = ("idx", "side", "events", "sv", "sh", "lane", "at_side")
    BOOLS = ("vert", "horiz", "at_lo", "corner", "off_corner", "convex",
             "reflex", "flip_x", "flip_y", "still", "use_v", "finite",
             "ahead", "hit", "ok")

    def __init__(self, size: int):
        for names, dtype in ((self.FLOATS, np.float64),
                             (self.INTS, np.int64), (self.BOOLS, bool)):
            rows = np.empty((len(names), size), dtype=dtype)
            for name, row in zip(names, rows):
                setattr(self, name, row)


def _take_into(a: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a[idx]`` written into ``out``; ``idx`` is in range, and a mode
    other than ``raise`` keeps ``take`` from buffering its output."""
    return np.take(a, idx, out=out, mode="clip")


def _blocks(n: int) -> list[slice]:
    return [slice(lo, min(lo + _BLOCK_POINTS, n))
            for lo in range(0, n, _BLOCK_POINTS)]


def _column_pairs(ahead: list[tuple], behind: list[tuple]) -> list[tuple]:
    """Column j pairs side j of ``behind`` with side j of ``ahead``, as four
    two-entry arrays (line coordinate, widened span, side index) that a
    ray's lane, 0 behind and 1 ahead, indexes; the shorter group is padded
    with a side no ray can hit."""
    never = (0.0, math.inf, -math.inf, -1)
    width = max(len(ahead), len(behind))
    return [(np.array([cb, ca]), np.array([lo_b, lo_a]),
             np.array([hi_b, hi_a]), np.array([sb, sa], dtype=np.int64))
            for (ca, lo_a, hi_a, sa), (cb, lo_b, hi_b, sb) in zip(
                ahead + [never] * (width - len(ahead)),
                behind + [never] * (width - len(behind)))]


def _axis_hits(columns: list[tuple], p, q, vp, vq, best, side,
               w: _Workspace) -> None:
    """Earliest hit among one axis's sides, for rays at ``p`` (the coordinate
    normal to those sides) and ``q`` with velocity ``(vp, vq)``, written to
    ``best`` (time) and ``side``.

    A ray with vp > 0 tests only the sides whose inward normal is negative,
    the ahead entry of each column, and any other ray only the behind
    entry.  The strict ``<`` keeps the lower side index on a tie.  No hit
    gives an infinite time.
    """
    k = p.shape[0]
    lane, t, cross, bound, at_side = (a[:k] for a in (
        w.lane, w.at, w.at_cross, w.bound, w.at_side))
    hit, ok = w.hit[:k], w.ok[:k]
    np.copyto(lane, np.greater(vp, 0.0, out=w.ahead[:k]))
    best.fill(np.inf)
    side.fill(-1)
    take = _take_into
    for c, lo, hi, s in columns:
        np.divide(np.subtract(take(c, lane, t), p, out=t), vp, out=t)
        np.add(q, np.multiply(vq, t, out=cross), out=cross)
        np.greater(t, 0.0, out=hit)
        hit &= np.greater_equal(cross, take(lo, lane, bound), out=ok)
        hit &= np.less_equal(cross, take(hi, lane, bound), out=ok)
        hit &= np.less(t, best, out=ok)
        np.copyto(best, t, where=hit)
        np.copyto(side, take(s, lane, at_side), where=hit)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def orbit_to_csv(history: OrbitSegmentList, path) -> None:
    """Write t, x, y, sx, sy, side_id rows (initial and final rows use -1).

    Numbers are written as the shortest round-tripping float repr, whatever
    float type the orbit carries, and lines end in CRLF, as ``csv.writer``
    writes them.
    """
    row = "%r,%r,%r,%d,%d,%d\r\n"
    start, final = history.initial, history.final
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t,x,y,sx,sy,side_id\r\n")
        fh.write(row % (0.0, float(start.x), float(start.y),
                        start.direction.sx, start.direction.sy, -1))
        fh.writelines(row % (float(ev.time), float(ev.x), float(ev.y),
                             ev.sx, ev.sy, ev.side_id)
                      for ev in history.events)
        if final is not None:
            fh.write(row % (float(history.total_time), float(final.x),
                            float(final.y), final.direction.sx,
                            final.direction.sy, -1))


def orbit_to_svg(history: OrbitSegmentList, path) -> None:
    """Table outline plus the orbit polyline, y-axis flipped for SVG."""
    scale = 200.0  # pixels per unit length
    table = history.table
    (x0, y0), (x1, y1) = table.bbox
    pad = 0.1 * float(max(x1 - x0, y1 - y0))
    fx0, fy0 = float(x0) - pad, float(y0) - pad
    fw = float(x1 - x0) + 2 * pad
    fh = float(y1 - y0) + 2 * pad

    def pt(x: float, y: float) -> str:
        sx = (x - fx0) * scale
        sy = (fy0 + fh - y) * scale
        return f"{sx:.3f},{sy:.3f}"

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{fw * scale:.0f}" height="{fh * scale:.0f}">']
    for k in range(len(table.holes) + 1):
        verts, _ = table.boundary.loop(k)
        pts = " ".join(pt(float(vx), float(vy)) for vx, vy in verts)
        fill = "#ffffff" if k else "#f2f2f2"
        parts.append(f'<polygon points="{pts}" fill="{fill}" '
                     f'stroke="#333333" stroke-width="2"/>')
    path_pts = [pt(history.initial.x, history.initial.y)]
    path_pts += [pt(ev.x, ev.y) for ev in history.events]
    if history.final is not None:
        path_pts.append(pt(history.final.x, history.final.y))
    parts.append(f'<polyline points="{" ".join(path_pts)}" fill="none" '
                 f'stroke="#c0392b" stroke-width="1"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
