"""Observables, quadrature and correlation diagnostics for VH tables.

The invariant measure is the product of normalized area measure on the table
with uniform weight on the four direction labels; quadrature uses midpoints of
an m-per-unit cell grid, with weights normalized to total mass one.  When m is
a multiple of both tiling denominators the grid is *aligned*: every cell lies
in exactly one rectangle tile, which makes the tile-average projector
self-adjoint at the discrete level and idempotent to the rounding of one
pairwise sum per class (at most 2.8e-16 over 400 random tables).

There are three kinds of observable: trigonometric sums over a frame
``(width, height)`` (:class:`Observable`), their analytic tile average
(:class:`TileAverageObservable`) and values at the points of one grid
(:class:`SampledObservable`).  One rule evaluates them all:
``h.evaluate(xs, ys, width, height)`` in the frame it is given, where
``SampledObservable.evaluate`` raising :class:`GridMismatch` is the typed
failure away from its grid.  The grid carries the frame, its table's
bounding box unless given another, and :meth:`QuadratureGrid.evaluate`
applies the rule at grid points; a sampled observable of the grid gives its
stored values.  A correlation evaluates each observable once at the grid
points and once per time at the flowed points.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from . import __version__ as _version
from .dynamics import DirectionState, FlowBatch
from .errors import ConfigError, GridMismatch, TooManySingular, UnalignedGrid
from .geometry import (
    TilingCertificate,
    VHTable,
    interior_cells,
    table_hash,
    tile_anchors,
)

#: abort correlation runs whose dropped (singular) mass exceeds this fraction
MAX_DROPPED_FRACTION = 1e-3

#: points processed per flow batch when sweeping many directions
BATCH_POINT_LIMIT = 4_000_000


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def _eval_trig(coeffs: Sequence[tuple[int, int, complex]],
               xs: np.ndarray, ys: np.ndarray,
               width: float, height: float) -> np.ndarray:
    """Real part of a Hermitian trigonometric sum, via one rep per +/- pair.

    The sum starts at 0.0 and adds each scaled wave, computed from its own
    phase: the first in the output array, later ones in one scratch array.
    """
    out = wave = None
    for kx, ky, c in coeffs:
        if (kx, ky) < (-kx, -ky):
            continue  # handled through its mirror partner
        for f, s in (((np.cos, 2.0 * c.real), (np.sin, -2.0 * c.imag))
                     if kx or ky else ((None, c.real),)):
            if not s:
                continue
            buf = np.empty_like(xs) if wave is None else wave
            if f is None:
                buf.fill(s)
            else:
                if kx:
                    np.multiply(2.0 * math.pi * kx / width, xs, out=buf)
                    if ky:
                        buf += 2.0 * math.pi * ky / height * ys
                else:
                    np.multiply(2.0 * math.pi * ky / height, ys, out=buf)
                f(buf, out=buf)
                if s != 1.0:
                    buf *= s
            if out is None:
                out = buf
                out += 0.0  # as 0.0 + wave: a -0.0 wave sums to +0.0
            else:
                out += buf
                wave = buf
    return np.zeros_like(xs) if out is None else out


@dataclass(frozen=True)
class Observable:
    """Finite Hermitian trigonometric sum over a frame ``(width, height)``.

    ``coeffs`` maps integer frequency pairs to complex amplitudes with
    ``c[-k] == conj(c[k])`` so values are real.
    """

    coeffs: tuple[tuple[int, int, complex], ...]

    def __post_init__(self):
        table = {(kx, ky): c for kx, ky, c in self.coeffs}
        for (kx, ky), c in table.items():
            mirror = table.get((-kx, -ky))
            if mirror is None or abs(mirror - c.conjugate()) > 1e-15 * (1 + abs(c)):
                raise ConfigError(
                    f"coefficients are not Hermitian at frequency ({kx}, {ky})")

    @classmethod
    def from_dict(cls, coeffs: dict[tuple[int, int], complex]) -> "Observable":
        items = tuple(sorted((kx, ky, complex(c))
                             for (kx, ky), c in coeffs.items() if c != 0))
        return cls(items)

    @classmethod
    def constant(cls, value: float) -> "Observable":
        return cls.from_dict({(0, 0): complex(value)})

    @classmethod
    def cosine(cls, kx: int, ky: int) -> "Observable":
        return cls.from_dict({(kx, ky): 0.5 + 0j, (-kx, -ky): 0.5 + 0j})

    @classmethod
    def sine(cls, kx: int, ky: int) -> "Observable":
        return cls.from_dict({(kx, ky): complex(0, -0.5),
                              (-kx, -ky): complex(0, 0.5)})

    def evaluate(self, xs, ys, width: float, height: float) -> np.ndarray:
        return _eval_trig(self.coeffs, np.asarray(xs, dtype=np.float64),
                          np.asarray(ys, dtype=np.float64), width, height)

    def lipschitz(self, width: float, height: float) -> float:
        """Upper bound for |grad h| from the coefficients."""
        return sum(abs(c) * 2.0 * math.pi * math.hypot(kx / width, ky / height)
                   for kx, ky, c in self.coeffs)

    def descriptor(self) -> dict:
        return {"coeffs": [[kx, ky, c.real, c.imag] for kx, ky, c in self.coeffs]}


def _frequency_reps():
    """(kx, ky) representatives ordered by max(|kx|,|ky|), then lexicographic."""
    ring = 1
    while True:
        members = []
        for kx in range(-ring, ring + 1):
            for ky in range(-ring, ring + 1):
                if max(abs(kx), abs(ky)) != ring:
                    continue
                if (kx, ky) > (-kx, -ky):
                    members.append((kx, ky))
        for rep in sorted(members):
            yield rep
        ring += 1


def basis_function(j: int) -> Observable:
    """j-th element (1-based) of the fixed countable observable basis.

    j = 1 is the constant; each later frequency representative contributes a
    cosine then a sine.
    """
    if j < 1:
        raise ConfigError("basis index is 1-based")
    if j == 1:
        return Observable.constant(1.0)
    rep_index, kind = divmod(j - 2, 2)
    kx, ky = next(islice(_frequency_reps(), rep_index, None))
    return Observable.cosine(kx, ky) if kind == 0 else Observable.sine(kx, ky)


# ---------------------------------------------------------------------------
# quadrature grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Midpoint quadrature over the table, replicated on four direction labels.

    ``xs``/``ys`` are the interior cell midpoints; each carries weight
    ``1/(4*npts)`` on each of the four labels so the total mass is exactly 1.
    ``width``/``height`` are the frame observables are evaluated in;
    :func:`build_grid` sets them to the table's bounding box.  The grid is
    frozen, and a ``dataclasses.replace`` copy starts with nothing kept.
    ``==`` and ``hash`` go by identity; :meth:`compatible` is the
    comparison of two grids' points.
    """

    table: VHTable
    m: int
    xs: np.ndarray
    ys: np.ndarray
    ix: np.ndarray
    iy: np.ndarray
    width: float
    height: float
    # certificate -> its (cls, rows), and "flow" -> one direction's (theta,
    # batch, t -> (x, y, singular)); see tile_classes and _flowed
    _kept: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def npts(self) -> int:
        return self.xs.shape[0]

    @property
    def weight(self) -> float:
        return 1.0 / (4.0 * self.npts)

    def compatible(self, other: "QuadratureGrid") -> bool:
        return self is other or (self.m == other.m and self.table == other.table)

    def evaluate(self, h) -> np.ndarray:
        """Values of an observable at the grid points, in the grid's frame."""
        if isinstance(h, SampledObservable):
            if not h.grid.compatible(self):
                raise GridMismatch(
                    "sampled observable belongs to a different grid")
            return h.values
        return h.evaluate(self.xs, self.ys, self.width, self.height)

    def tile_classes(self, cert: TilingCertificate
                     ) -> tuple[np.ndarray, np.ndarray]:
        """``(cls, rows)`` under the (1/p, 1/q) lattice: each grid point's
        congruence class, and one row per class listing its points in grid
        order, ``cert.tile_count`` of them.

        Built and checked once per certificate: a grid not aligned for it,
        or a class not holding one point per tile, raises
        :class:`UnalignedGrid`.
        """
        kept = self._kept.get(cert)
        if kept is not None:
            return kept
        if self.m % cert.p or self.m % cert.q:
            raise UnalignedGrid(
                f"grid m = {self.m} is not a multiple of p = {cert.p} "
                f"and q = {cert.q}")
        mx = self.m // cert.p
        my = self.m // cert.q
        cls = (self.ix % mx) * my + (self.iy % my)
        if not np.all(np.bincount(cls, minlength=mx * my) == cert.tile_count):
            raise UnalignedGrid(
                "tile classes are not uniformly populated; the certificate "
                "does not describe a tiling of this table")
        rows = np.argsort(cls, kind="stable").reshape(mx * my, -1)
        self._kept[cert] = (cls, rows)
        return cls, rows

    def _flowed(self, theta: float, t: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(x, y, singular)`` of the grid's four-label batch for
        ``theta`` at time ``t``, bit-identical to one ``advance_to(t)`` from
        time 0 and kept as :func:`correlation_chain_check` describes."""
        theta, t = float(theta), float(t)
        kept_theta, batch, states = self._kept.get("flow", (None, None, {}))
        if kept_theta != theta:
            batch, states = None, {}
        state = states.get(t)
        if state is not None:
            return state
        # no batch is kept while it flows, so a flow that raises drops it
        self._kept["flow"] = (theta, None, states)
        if batch is None or t < batch.target:
            batch = FlowBatch(self.table, *_direction_batch(self, [theta]))
        state = (*(a.copy() for a in batch.advance_to(t)),
                 batch.singular.copy())
        for a in state:
            a.setflags(write=False)
        if 4 * self.npts <= BATCH_POINT_LIMIT:
            self._kept["flow"] = (theta, batch, states)
        if (len(states) + 1) * 4 * self.npts <= BATCH_POINT_LIMIT:
            states[t] = state
        return state


def build_grid(table: VHTable, m: int) -> QuadratureGrid:
    """Interior cell midpoints of the m-per-unit grid, decided exactly.

    Membership comes from :func:`geometry.interior_cells`, the rule that
    also finds the tile anchors, so aligned grids have exactly
    ``area * m**2`` points.  When the bounding box is not commensurate with
    1/m the cover is rounded up, and a midpoint on the boundary is dropped.
    """
    if m < 1:
        raise ConfigError("resolution m must be positive")
    (x0, y0), (x1, y1) = table.bbox
    ix, iy = np.nonzero(interior_cells(table, m, m))
    if ix.size == 0:
        raise UnalignedGrid(f"resolution m = {m} leaves no interior midpoints")
    xs = float(x0) + (ix + 0.5) / m
    ys = float(y0) + (iy + 0.5) / m
    return QuadratureGrid(table=table, m=m,
                          xs=xs.astype(np.float64), ys=ys.astype(np.float64),
                          ix=ix.astype(np.int64), iy=iy.astype(np.int64),
                          width=float(x1 - x0), height=float(y1 - y0))


def aligned_m(cert: TilingCertificate, target: int) -> int:
    """Smallest multiple of lcm(p, q) that is at least ``target``."""
    base = cert.p * cert.q // math.gcd(cert.p, cert.q)
    return base * max(1, -(-target // base))


@dataclass(eq=False)
class SampledObservable:
    """Observable known through its values at the points of one grid."""

    grid: QuadratureGrid
    values: np.ndarray

    def evaluate(self, xs, ys, width: float, height: float) -> np.ndarray:
        raise GridMismatch("sampled observables can only be used on their grid")


def chi(grid: QuadratureGrid) -> SampledObservable:
    """Indicator of the table, as a sampled observable."""
    return SampledObservable(grid, np.ones(grid.npts))


# ---------------------------------------------------------------------------
# inner products and the tile-average projector
# ---------------------------------------------------------------------------

def inner(h1, h2, grid: QuadratureGrid) -> float:
    """Quadrature of h1*h2 against the normalized measure.

    The sum is a fixed-order pairwise reduction over the grid points, so the
    value is bit-reproducible regardless of any outer parallelism.
    """
    v1 = grid.evaluate(h1)
    v2 = grid.evaluate(h2)
    return float(np.sum(v1 * v2) / grid.npts)


def norm(h, grid: QuadratureGrid) -> float:
    return math.sqrt(max(inner(h, h, grid), 0.0))


def tile_average(h, cert: TilingCertificate, grid: QuadratureGrid) -> SampledObservable:
    """Average the observable over the rectangle tiles.

    Each congruence class of grid points modulo the (1/p, 1/q) lattice is
    replaced by its mean, the pairwise sum of its row of
    :meth:`QuadratureGrid.tile_classes` over the tile count.  The result is
    (1/p, 1/q)-periodic across the table by construction, and preserves the
    integral and is idempotent to the rounding of one pairwise sum per class.
    """
    cls, rows = grid.tile_classes(cert)
    means = grid.evaluate(h)[rows].sum(axis=1) / cert.tile_count
    return SampledObservable(grid, means[cls])


def continuous_part(h, cert: TilingCertificate,
                    grid: QuadratureGrid) -> SampledObservable:
    """Residual after removing the tile average; integrates to ~0."""
    values = grid.evaluate(h)
    avg = tile_average(SampledObservable(grid, values), cert, grid)
    return SampledObservable(grid, values - avg.values)


def _anchor_coords(table: VHTable, cert: TilingCertificate
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float x and y of ``tile_anchors(table, cert)``.

    They are built once per certificate and kept on the table, keyed by the
    whole certificate, as :func:`dynamics.sides_of` keeps its side view; a
    copy made by ``VHTable.with_certificate`` has the same geometry and
    shares them.
    """
    kept = table.__dict__.setdefault("_anchors", {})
    coords = kept.get(cert)
    if coords is None:
        anchors = tile_anchors(table, cert)
        coords = tuple(np.array([float(a[k]) for a in anchors])
                       for k in (0, 1))
        for a in coords:
            a.setflags(write=False)
        kept[cert] = coords
    return coords


class TileAverageObservable:
    """Analytic form of the tile average, evaluable at arbitrary points.

    Translation averaging of a trigonometric sum factorizes: each frequency
    picks up the mean phase over the tile anchors (a structure factor), and
    the result is a trigonometric sum in the within-tile offset.  The
    factors are built in the frame each call gives, so on any grid's points
    this agrees with :func:`tile_average` to rounding error.
    """

    def __init__(self, h: Observable, table: VHTable, cert: TilingCertificate):
        if not isinstance(h, Observable):
            raise ConfigError(f"h must be an Observable, not {type(h).__name__}")
        self._h = h
        self._anchors = _anchor_coords(table, cert)
        self._x0, self._y0 = map(float, table.bbox[0])
        self._tile_w, self._tile_h = 1.0 / cert.p, 1.0 / cert.q

    def evaluate(self, xs, ys, width: float, height: float) -> np.ndarray:
        ax, ay = self._anchors
        coeffs = []
        for kx, ky, c in self._h.coeffs:
            phases = 2.0 * math.pi * (kx * ax / width + ky * ay / height)
            factor = complex(np.mean(np.cos(phases)), np.mean(np.sin(phases)))
            coeffs.append((kx, ky, c * factor))
        ux = (np.asarray(xs, dtype=np.float64) - self._x0) % self._tile_w
        uy = (np.asarray(ys, dtype=np.float64) - self._y0) % self._tile_h
        return _eval_trig(coeffs, ux, uy, width, height)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------

@dataclass
class CorrelationSeries:
    """Time autocorrelation of an observable under the flow in direction
    ``theta``."""

    times: np.ndarray
    values: np.ndarray
    level: float            # squared mean against the indicator
    norm_sq: float          # value at t = 0
    dropped_fraction: float
    theta: float

    @property
    def gap(self) -> np.ndarray:
        return np.abs(self.values - self.level)

    def cesaro_squared(self) -> np.ndarray:
        g2 = self.gap ** 2
        return np.cumsum(g2) / np.arange(1, g2.size + 1)

    def cesaro_absolute(self) -> np.ndarray:
        g = self.gap
        return np.cumsum(g) / np.arange(1, g.size + 1)


def _direction_batch(grid: QuadratureGrid, thetas: Sequence[float]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """FlowBatch inputs ``(x, y, vx, vy)``: the grid points on each theta's
    four labels, in the order of ``DirectionState.direction_class``."""
    ux, uy = zip(*(d.velocity for th in thetas
                   for d in DirectionState(th).direction_class()))
    k = len(ux)
    return (np.tile(grid.xs, k), np.tile(grid.ys, k),
            np.repeat(ux, grid.npts), np.repeat(uy, grid.npts))


def sweep_correlations(grid: QuadratureGrid, thetas: Sequence[float], hs,
                       t_grid: Sequence[float],
                       ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Correlation values C_j(theta_i, t_k) for a stack of observables ``hs``
    and a batch of directions.

    Returns ``(values, dropped, h0s)``: ``values`` has shape
    ``(len(hs), len(thetas), len(t_grid))``, ``dropped`` holds the final
    dropped mass of each direction and ``h0s`` each observable's values at
    the grid points, its one evaluation there.  The flow does not depend on
    the observable, so one flow serves them all: each chunk of directions is
    advanced once through the increasing time grid and every observable is
    read off the positions ``FlowBatch.advance_to`` returns at each time,
    which equal one jump from 0.  The per-direction reduction order is
    fixed, so a value at t depends only on theta, t and the grid, not on
    the other grid times, the chunking of directions across workers or the
    other observables sharing the flow.  Every flow has the ``MAX_EVENTS``
    budget per point.  Before any work, a theta outside (0, pi/2) raises
    :class:`DegenerateDirection`, as it does for :func:`dynamics.orbit`, a
    time grid that is not finite, nonnegative and strictly increasing
    raises :class:`ConfigError`, and a :class:`SampledObservable`, which
    has no values at flowed points, raises :class:`GridMismatch`.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    t_grid = np.asarray(t_grid, dtype=np.float64)
    for theta in thetas.tolist():
        DirectionState(theta)
    if not (np.all(np.isfinite(t_grid)) and np.all(t_grid >= 0)
            and np.all(np.diff(t_grid) > 0)):
        raise ConfigError("time grid must be finite, strictly increasing "
                          "and >= 0")
    hs = list(hs)
    if any(isinstance(h, SampledObservable) for h in hs):
        raise GridMismatch("a sampled observable cannot be flowed")
    h0s = [grid.evaluate(h) for h in hs]

    npts = grid.npts
    block = 4 * npts
    chunk = max(1, BATCH_POINT_LIMIT // block)
    c_out = np.empty((len(hs), thetas.size, t_grid.size))
    dropped = np.empty(thetas.size)
    for start in range(0, thetas.size, chunk):
        sel = thetas[start:start + chunk]
        nb = sel.size
        batch = FlowBatch(grid.table, *_direction_batch(grid, sel))
        frac = np.zeros(nb)
        for k, t_k in enumerate(t_grid):
            x, y = batch.advance_to(float(t_k))
            alive, counts = None, block  # all weights 1 while none is frozen
            if batch.singular.any():
                alive = ~batch.singular
                counts = alive.reshape(nb, block).sum(axis=1)
                frac = 1.0 - counts / block
                if np.any(frac > MAX_DROPPED_FRACTION):
                    raise TooManySingular(
                        f"dropped quadrature mass {frac.max():.2e} exceeds "
                        f"{MAX_DROPPED_FRACTION:.0e}")
            for j, (h, h0) in enumerate(zip(hs, h0s)):
                # in place, as (h o flow) * h0 * alive; one row per
                # (direction, label), so h0 broadcasts along the rows
                vals = h.evaluate(x, y, grid.width, grid.height)
                rows = vals.reshape(4 * nb, npts)
                rows *= h0
                if alive is not None:
                    vals *= alive
                sums = vals.reshape(nb, block).sum(axis=1)
                c_out[j, start:start + nb, k] = sums / counts
        dropped[start:start + nb] = frac
    return c_out, dropped, h0s


def _check_grid_table(table: VHTable, grid: QuadratureGrid) -> None:
    if table != grid.table:
        raise GridMismatch("the quadrature grid was built on another table")


def correlation(table: VHTable, theta: float, h, t_grid: Sequence[float],
                grid: QuadratureGrid) -> CorrelationSeries:
    """Autocorrelation t -> <h o flow_t, h> on the normalized measure.

    Each value is that of a flow from 0 straight to its time, whatever the
    other times, and the flow has the ``MAX_EVENTS`` budget per point
    (:func:`sweep_correlations`).  Orbits that reach a reflex
    corner are dropped and the mass renormalized, aborting if the dropped
    fraction passes MAX_DROPPED_FRACTION.  ``grid`` must belong to
    ``table`` (:class:`GridMismatch` otherwise), and ``h`` is evaluated in
    the grid's frame; ``level`` and ``norm_sq`` come from the sweep's ``h0s``.
    """
    _check_grid_table(table, grid)
    values, dropped, (h0,) = sweep_correlations(grid, [theta], [h], t_grid)
    return CorrelationSeries(
        times=np.asarray(t_grid, dtype=np.float64),
        values=values[0, 0],
        level=float(np.sum(h0) / grid.npts) ** 2,
        norm_sq=float(np.sum(h0 * h0) / grid.npts),
        dropped_fraction=float(dropped[0]),
        theta=float(theta),
    )


# ---------------------------------------------------------------------------
# decomposition chain and bounds
# ---------------------------------------------------------------------------

@dataclass
class ChainReport:
    """Numerical audit of the correlation-gap decomposition at one time.

    ``lines`` are the four algebraically equal forms of
    ``<h o flow_t, h> - level``; the last equals the third up to the reported
    cross term between the flowed residual and the tile average.

    Two Cauchy-Schwarz bounds are reported for the flowed tile-average term:
    ``slack`` uses the quadrature norm of the flowed samples (exact discrete
    Cauchy-Schwarz, nonnegative up to rounding), while ``invariant_slack``
    replaces it by the unflowed norm via measure invariance, which at finite
    quadrature is only valid up to a flow-dependent O(1/m) defect.
    """

    t: float
    lines: tuple[float, float, float, float]
    cross_term: float
    cauchy_schwarz_lhs: float
    cauchy_schwarz_rhs: float
    slack: float
    invariant_rhs: float
    invariant_slack: float
    unitarity_defect: float
    dropped_fraction: float

    @property
    def max_consistency_gap(self) -> float:
        l1, l2, l3, _ = self.lines
        return max(abs(l1 - l2), abs(l2 - l3))

    @property
    def decomposition_residual(self) -> float:
        _, _, l3, l4 = self.lines
        return abs((l3 - l4) - self.cross_term)


def correlation_chain_check(table: VHTable, cert: TilingCertificate,
                            theta: float, h: Observable, t: float,
                            grid: QuadratureGrid) -> ChainReport:
    """Evaluate the split of the correlation gap into tile-average and
    residual contributions, plus the Cauchy-Schwarz bound on the first part.

    The flowed factor is always evaluated analytically (trigonometric sums
    and their tile averages), while the unflowed factor uses grid samples.

    ``grid`` must belong to ``table`` (:class:`GridMismatch` otherwise).
    Before any work, a ``theta`` outside (0, pi/2) raises
    :class:`DegenerateDirection`, and a ``t`` outside [0, inf) or an ``h``
    that is not an :class:`Observable` raises :class:`ConfigError`.  Flows
    use the ``MAX_EVENTS`` budget.
    The flow does not depend on ``h``, so the grid keeps the flowed points
    of one direction, keyed by ``theta`` alone: calls that repeat ``theta``
    and ``t`` on one grid flow once and read the kept state, whatever their
    observable.  A new time at or after the direction's latest one resumes
    the grid's ``FlowBatch`` from its last events with ``advance_to(t)``,
    so the direction is flowed once across all its times and every report
    stays byte-identical to a cold call on a fresh grid; an earlier time
    flows a new batch from 0.  A new ``theta`` drops the kept batch and
    states, and a flow that raises drops the batch.  The batch costs 82
    bytes per point, its floats in one block (huge pages from 65,536
    points), plus its kernel workspace (about 1.4 MiB), and is kept only
    while the direction's points fit in ``BATCH_POINT_LIMIT``.
    Each kept time costs 17 bytes per point, and a time that would take the
    kept points past ``BATCH_POINT_LIMIT`` is flowed but not kept.  All of
    it stays with the grid for its lifetime (up to about 68 MB of kept
    times at ``BATCH_POINT_LIMIT``), and only saves work for consecutive
    calls that share the direction.
    """
    DirectionState(theta)
    if not 0 <= t < math.inf:
        raise ConfigError(f"chain check time must be finite and "
                          f"nonnegative, got {t}")
    if not isinstance(h, Observable):
        raise ConfigError(f"h must be an Observable, not {type(h).__name__}")
    _check_grid_table(table, grid)
    h_vals = grid.evaluate(h)
    hd = tile_average(SampledObservable(grid, h_vals), cert, grid)
    hc_vals = h_vals - hd.values
    level_mean = float(np.sum(h_vals) / grid.npts)      # <h_a, chi>
    level = level_mean ** 2

    hd_fn = TileAverageObservable(h, table, cert)

    n = grid.npts
    x, y, singular = grid._flowed(theta, t)
    alive = ~singular
    count = int(alive.sum())
    dropped_fraction = 1.0 - count / (4 * n)
    if dropped_fraction > MAX_DROPPED_FRACTION:
        raise TooManySingular(
            f"dropped fraction {dropped_fraction:.2e} too large")

    f_h = h.evaluate(x, y, grid.width, grid.height)
    f_hd = hd_fn.evaluate(x, y, grid.width, grid.height)
    f_hc = f_h - f_hd

    # one row per label: the unflowed values broadcast along the rows
    alive_rows = alive.reshape(4, n)

    def term(fvals: np.ndarray, gvals: np.ndarray) -> float:
        return float(np.sum(fvals.reshape(4, n) * gvals * alive_rows) / count)

    t_hh = term(f_h, h_vals)
    t_shift = term(f_hd - level_mean, h_vals)
    t_chi = term(np.full(4 * n, level_mean), h_vals)
    t_c_h = term(f_hc, h_vals)
    t_c_c = term(f_hc, hc_vals)
    cross = term(f_hc, hd.values)

    line1 = t_hh - level
    line2 = (t_shift + t_chi + t_c_h) - level
    line3 = t_shift + t_c_h
    line4 = t_shift + t_c_c

    hd_centered = hd.values - np.sum(hd.values) / grid.npts
    h_norm = math.sqrt(max(float(np.sum(h_vals ** 2) / grid.npts), 0.0))
    flowed_norm_sq = float(np.sum((f_hd - level_mean) ** 2 * alive) / count)
    unflowed_norm_sq = float(np.sum(hd_centered ** 2) / grid.npts)
    lhs = abs(t_shift)
    rhs = math.sqrt(max(flowed_norm_sq, 0.0)) * h_norm
    invariant_rhs = math.sqrt(max(unflowed_norm_sq, 0.0)) * h_norm

    return ChainReport(
        t=float(t),
        lines=(line1, line2, line3, line4),
        cross_term=cross,
        cauchy_schwarz_lhs=lhs,
        cauchy_schwarz_rhs=rhs,
        slack=rhs - lhs,
        invariant_rhs=invariant_rhs,
        invariant_slack=invariant_rhs - lhs,
        unitarity_defect=abs(flowed_norm_sq - unflowed_norm_sq),
        dropped_fraction=dropped_fraction,
    )


@dataclass
class OscillationReport:
    """Oscillation of the tile average over nearby in-tile offsets."""

    hypothesis_met: bool
    delta: float
    tile_diameter_bound: float
    max_oscillation: float
    bound: float
    passed: bool


def oscillation_bound_check(h: Observable, cert: TilingCertificate,
                            grid: QuadratureGrid, eps: float) -> OscillationReport:
    """Check that the tile average oscillates by at most eps/||h|| across
    offsets closer than the modulus-of-continuity scale delta.

    ``delta`` comes from the analytic Lipschitz constant of ``h``; when the
    tiles are not finer than delta the hypothesis fails and the check reports
    that instead of a violation.
    """
    if eps <= 0:
        raise ConfigError("eps must be positive")
    if not hasattr(h, "lipschitz"):
        raise ConfigError(f"a {type(h).__name__} has no Lipschitz constant")
    lip = h.lipschitz(grid.width, grid.height)
    h_norm = norm(h, grid)
    if h_norm == 0.0:
        return OscillationReport(True, math.inf, 0.0, 0.0, math.inf, True)
    bound = eps / h_norm
    delta = bound / lip if lip > 0 else math.inf
    tile_bound = max(1.0 / cert.p, 1.0 / cert.q)
    if not tile_bound < delta:
        return OscillationReport(False, delta, tile_bound, math.nan, bound, False)

    _, rows = grid.tile_classes(cert)
    class_vals = tile_average(h, cert, grid).values[rows[:, 0]]
    mx = grid.m // cert.p
    my = grid.m // cert.q
    # classes form an (mx, my) raster of in-tile offsets.  Every offset
    # (da, db) between two classes is walked once (distance and difference
    # are symmetric) by comparing the raster with its shifted self, so memory
    # is O(ncls) while time stays O(ncls**2); each pair gets the same float
    # distance a dense pairwise table would hold.
    vals = class_vals.reshape(mx, my)
    ux = (np.arange(mx) + 0.5) / grid.m
    uy = (np.arange(my) + 0.5) / grid.m
    peaks = []
    for da in range(mx):
        dx = ux[:mx - da] - ux[da:]
        for db in range(1 - my, my):
            if da == 0 and db <= 0:
                continue
            b0, b1 = max(0, -db), my - max(0, db)
            dy = uy[b0:b1] - uy[b0 + db:b1 + db]
            dist = np.hypot(dx[:, None], dy[None, :])
            close = dist < delta
            if np.any(close):
                diffs = np.abs(vals[:mx - da, b0:b1]
                               - vals[da:, b0 + db:b1 + db])
                peaks.append(diffs[close].max())
    max_osc = float(np.max(peaks)) if peaks else 0.0
    return OscillationReport(
        hypothesis_met=True,
        delta=delta,
        tile_diameter_bound=tile_bound,
        max_oscillation=max_osc,
        bound=bound,
        passed=max_osc <= bound + 1e-12,
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def series_to_csv(series: CorrelationSeries, path) -> None:
    gap = series.gap
    ces_sq = series.cesaro_squared()
    ces_abs = series.cesaro_absolute()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "C", "gap", "cesaro_sq", "cesaro_abs"])
        w.writerows([repr(float(v)) for v in row] for row in zip(
            series.times, series.values, gap, ces_sq, ces_abs))


def series_summary(series: CorrelationSeries, table: VHTable, h,
                   grid: QuadratureGrid) -> dict:
    from .geometry import table_to_dict
    if not isinstance(h, Observable):
        raise ConfigError(f"only an Observable has a descriptor, not a "
                          f"{type(h).__name__}")
    return {
        "version": _version,
        "table": table_to_dict(table),
        "table_hash": table_hash(table),
        "theta": series.theta,
        "observable": h.descriptor(),
        "grid_m": grid.m,
        "level": series.level,
        "norm_sq": series.norm_sq,
        "dropped_fraction": series.dropped_fraction,
    }


def series_to_svg(series: CorrelationSeries, path) -> None:
    """Gap-versus-time polyline with the running squared-gap average."""
    width, height = 900, 300  # pixels
    t = series.times
    gap = series.gap
    ces = series.cesaro_squared()
    if t.size == 0:
        raise ConfigError("empty correlation series")
    t0, t1 = float(t[0]), float(t[-1])
    span = (t1 - t0) or 1.0
    top = max(float(gap.max()), float(ces.max()), 1e-12)
    pad = 30.0

    def px(tv: float) -> float:
        return pad + (tv - t0) / span * (width - 2 * pad)

    def py(v: float) -> float:
        return height - pad - (v / top) * (height - 2 * pad)

    def polyline(vals, color):
        pts = " ".join(f"{px(float(tv)):.2f},{py(float(v)):.2f}"
                       for tv, v in zip(t, vals))
        return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="#888888"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="#888888"/>',
        polyline(gap, "#2980b9"),
        polyline(ces, "#c0392b"),
        f'<text x="{pad}" y="{pad - 8}" font-size="12" fill="#333333">'
        f'gap(t) (blue), running squared-gap mean (red); '
        f't in [{t0:g}, {t1:g}], max {top:.3g}</text>',
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
