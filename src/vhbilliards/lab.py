"""Experiment drivers: direction sweeps, parameter continuity, genericity demo.

A direction sweep estimates, for one observable and a (N, tau) time window,
the fraction of directions whose correlation gap dips below 1/N somewhere in
the window.  The continuity probe measures how the correlation moves when the
table's lengths are perturbed with the combinatorics held fixed.  The
genericity demo chains both over a ladder of lattice refinements, emitting a
ledger of empirical window lengths and stability radii; it demonstrates the
construction, it does not claim convergence.

Sweeps parallelize over direction samples.  Per-direction results are
independent of batching, and output files embed only exact, seeded inputs, so
reruns are byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from fractions import Fraction
from itertools import repeat

import numpy as np

from . import __version__ as _version
from .errors import (
    CombinatoricsMismatch,
    ConfigError,
    GeometryError,
    NumericalAbort,
    UnalignedGrid,
)
from .geometry import (
    CombinatoricsWord,
    VHTable,
    approximate_pq,
    build_polygon,
    build_table,
    check_config_keys,
    check_int,
    parameter_distance,
    table_hash,
    table_to_dict,
)
from .spectral import (
    basis_function,
    build_grid,
    correlation,
    sweep_correlations,
)

#: perturbation ladder of the genericity demo's stability probes
D_LADDER = (Fraction(1, 25), Fraction(1, 50), Fraction(1, 100))

#: the genericity demo's window ends run n_gap * 2, 4, ... up to this factor
TAU_FACTOR = 8

#: direction of the genericity demo's stability probes
PROBE_THETA = 1.0


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of a direction sweep.

    ``n_gap`` plays two roles, following the gap criterion: the time window is
    ``(n_gap, tau)`` and a direction counts as a hit when the correlation gap
    drops below ``1/n_gap``.  The time step must not exceed ``1/(4*n_gap)`` so
    a sub-threshold dip of the Lipschitz gap cannot fall between grid points.
    """

    table_path: str
    count: int
    seed: int
    n_gap: int
    tau: float
    h_indices: tuple[int, ...]
    grid_m: int
    step: float | None = None
    out_dir: str | None = None
    workers: int = 1

    def __post_init__(self):
        _require(isinstance(self.table_path, (str, os.PathLike)),
                 f"table_path must be a path, got {self.table_path!r}")
        _require(isinstance(self.out_dir, (str, os.PathLike, type(None))),
                 f"out_dir must be a path, got {self.out_dir!r}")
        for name in ("count", "seed", "n_gap", "grid_m", "workers"):
            check_int(name, getattr(self, name))
        _check_real("tau", self.tau)
        if self.step is not None:
            _check_real("step", self.step)
            _require(self.step > 0, "step must be positive")
        _require(isinstance(self.h_indices, tuple),
                 "h_indices must be a list of integers")
        for j in self.h_indices:
            check_int("h_indices", j)
        _require(self.count > 0, "theta sample count must be positive")
        _require(self.seed >= 0, f"seed must be nonnegative, got {self.seed}")
        _require(self.n_gap > 0, "n_gap must be a positive integer")
        _require(self.n_gap < self.tau,
                 "need n_gap < tau for a nonempty window")
        _require(self.grid_m > 0, "grid resolution must be positive")
        _require(self.h_indices and all(j >= 1 for j in self.h_indices),
                 "h_indices must be 1-based basis indices")
        _require(self.effective_step <= 1.0 / (4.0 * self.n_gap) + 1e-15,
                 f"step {self.effective_step} exceeds 1/(4*n_gap) = "
                 f"{1.0 / (4 * self.n_gap)}; dips below 1/n_gap could be "
                 "missed")
        _require(self.time_grid().size > 0,
                 f"the window (n_gap, tau] = ({self.n_gap}, {self.tau}] holds "
                 f"no time step of {self.effective_step}")
        _require(self.workers >= 1, "workers must be >= 1")

    @property
    def effective_step(self) -> float:
        return self.step if self.step is not None else 1.0 / (4.0 * self.n_gap)

    def time_grid(self) -> np.ndarray:
        step = self.effective_step
        k_max = int(math.floor((self.tau - self.n_gap) / step + 1e-9))
        return self.n_gap + step * np.arange(1, k_max + 1)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        # h_indices defaults to (1,) in files only
        required = [f.name for f in fields(cls)
                    if f.default is MISSING and f.name != "h_indices"]
        check_config_keys(raw, required, [f.name for f in fields(cls)],
                          "sweep config")
        h_indices = raw.get("h_indices", [1])
        _require(isinstance(h_indices, list),
                 "h_indices must be a list of integers")
        raw["h_indices"] = tuple(h_indices)
        return cls(**raw)


def _require(ok, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _int_list(name: str, values) -> list:
    _require(isinstance(values, Iterable),
             f"{name} must be a list of integers, got {values!r}")
    values = list(values)
    for k, v in enumerate(values):
        check_int(f"{name}[{k}]", v)
    return values


def _check_real(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")


def stratified_thetas(count: int, seed: int) -> np.ndarray:
    """One uniform draw per equal stratum of (0, pi/2)."""
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    return (np.arange(count) + u) * (math.pi / 2.0) / count


# ---------------------------------------------------------------------------
# direction sweep
# ---------------------------------------------------------------------------

@dataclass
class ThetaSetEstimate:
    """Hit statistics of the gap criterion over a direction sample.

    ``first_dip_t`` is the earliest grid time with gap < 1/n_gap (NaN when the
    direction never dips), so hits for any window prefix can be read off
    without recomputing.
    """

    h_index: int
    thetas: np.ndarray
    min_gap: np.ndarray
    argmin_t: np.ndarray
    first_dip_t: np.ndarray
    hit: np.ndarray
    measure: float
    half_width: float
    level: float
    dropped_max: float


def theta_sweep(config: ExperimentConfig,
                table: VHTable) -> list[ThetaSetEstimate]:
    """Run the direction sweep; one estimate per configured basis index.

    All basis indices share one flow per chunk of directions, and the levels
    come from its grid values (see :func:`sweep_correlations`).
    Deterministic given the seed: the theta sample, the time grid and every
    reduction order are fixed, independently of ``workers``.
    """
    thetas = stratified_thetas(config.count, config.seed)
    t_grid = config.time_grid()
    grid = build_grid(table, config.grid_m)
    hs = [basis_function(j) for j in config.h_indices]

    if config.workers == 1 or config.count == 1:
        parts = [sweep_correlations(grid, thetas, hs, t_grid)]
    else:
        # each worker gets the built grid and one block of directions
        blocks = np.array_split(thetas, min(config.workers, config.count))
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            parts = list(pool.map(sweep_correlations, repeat(grid), blocks,
                                  repeat(hs), repeat(t_grid)))
    values = np.concatenate([p[0] for p in parts], axis=1)
    dropped = np.concatenate([p[1] for p in parts])
    h0s = parts[0][2]

    out = []
    for j, h0, c in zip(config.h_indices, h0s, values):
        level = float(np.sum(h0) / grid.npts) ** 2
        gaps = np.abs(c - level)
        min_idx = np.argmin(gaps, axis=1)
        min_gap = gaps[np.arange(config.count), min_idx]
        below = gaps < 1.0 / config.n_gap
        hit = below.any(axis=1)
        first_idx = np.argmax(below, axis=1)
        first_dip = np.where(hit, t_grid[first_idx], np.nan)
        measure = float(np.sum(hit) / config.count)
        half_width = 1.96 * math.sqrt(measure * (1.0 - measure) / config.count)
        out.append(ThetaSetEstimate(
            h_index=j,
            thetas=thetas,
            min_gap=min_gap,
            argmin_t=t_grid[min_idx],
            first_dip_t=first_dip,
            hit=hit,
            measure=measure,
            half_width=half_width,
            level=level,
            dropped_max=float(dropped.max()),
        ))
    return out


def sweep_to_csv(estimates: list[ThetaSetEstimate], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["h_index", "theta_index", "theta", "min_gap",
                    "argmin_t", "first_dip_t", "hit"])
        for est in estimates:
            cols = zip(est.thetas, est.min_gap, est.argmin_t, est.first_dip_t)
            w.writerows([est.h_index, i, *map(repr, map(float, row)), int(hit)]
                        for i, (row, hit) in enumerate(zip(cols, est.hit)))


def sweep_summary(config: ExperimentConfig, table: VHTable,
                  estimates: list[ThetaSetEstimate]) -> dict:
    return {
        "version": _version,
        "table": table_to_dict(table),
        "table_hash": table_hash(table),
        "seed": config.seed,
        "count": config.count,
        "n_gap": config.n_gap,
        "tau": config.tau,
        "step": config.effective_step,
        "grid_m": config.grid_m,
        "estimates": [
            {
                "h_index": est.h_index,
                "measure": est.measure,
                "half_width": est.half_width,
                "level": est.level,
                "dropped_max": est.dropped_max,
            }
            for est in estimates
        ],
    }


# ---------------------------------------------------------------------------
# continuity probe
# ---------------------------------------------------------------------------

@dataclass
class ContinuityReport:
    """Correlation response to a combinatorics-preserving perturbation."""

    distance: float
    times: np.ndarray
    delta_c: np.ndarray
    max_delta: float
    ratio: float     # max_delta / distance (0 when distance is 0)


def _check_same_combinatorics(a: VHTable, b: VHTable) -> None:
    if a.outer.word != b.outer.word or len(a.holes) != len(b.holes):
        raise CombinatoricsMismatch(
            "tables do not share outer word / hole count")
    for (pa, _), (pb, _) in zip(a.holes, b.holes):
        if pa.word != pb.word:
            raise CombinatoricsMismatch("hole words differ")


def continuity_probe(table_a: VHTable, table_b: VHTable, theta: float,
                     h, t_list, m: int) -> ContinuityReport:
    """Compare correlations of two same-combinatorics tables.

    The observable is evaluated in table_a's frame (its grid's bounding
    box) on both tables, so only the table varies between the two runs.
    """
    _check_same_combinatorics(table_a, table_b)
    grid_a = build_grid(table_a, m)
    series_a = correlation(table_a, theta, h, t_list, grid_a)
    return _probe_against(series_a, grid_a, table_b, theta, h)


def _probe_against(series_a, grid_a, table_b: VHTable,
                   theta: float, h) -> ContinuityReport:
    """Continuity report of table_b against ``series_a``, the correlation of
    the same observable on ``grid_a``, table_a's grid.

    Table_b's grid has the same resolution and takes grid_a's frame.
    Callers probing many tables against one table_a compute series_a once.
    """
    table_a = grid_a.table
    d = parameter_distance(table_a.outer, table_a.holes,
                           table_b.outer, table_b.holes)
    grid_b = replace(build_grid(table_b, grid_a.m),
                     width=grid_a.width, height=grid_a.height)
    series_b = correlation(table_b, theta, h, series_a.times, grid_b)
    delta = np.abs(series_a.values - series_b.values)
    max_delta = float(delta.max()) if delta.size else 0.0
    ratio = max_delta / float(d) if d > 0 else 0.0
    return ContinuityReport(distance=float(d), times=series_a.times,
                            delta_c=delta, max_delta=max_delta, ratio=ratio)


def perturb_length(table: VHTable, index: int, delta) -> VHTable:
    """Add delta to one outer length, rebalancing on the opposite letter class.

    The compensating side is the longest one of the opposite class (earliest
    word index on ties), which keeps the sup-norm distance equal to |delta|.
    """
    delta = Fraction(delta) if not isinstance(delta, Fraction) else delta
    word = table.outer.word
    lengths = list(table.outer.lengths)
    letter = word.letters[index]
    opposite = {"E": "W", "W": "E", "N": "S", "S": "N"}[letter]
    candidates = [i for i, c in enumerate(word.letters) if c == opposite]
    partner = max(candidates, key=lambda i: (lengths[i], -i))
    lengths[index] += delta
    lengths[partner] += delta
    return build_table(build_polygon(word, lengths),
                       [(p, a) for p, a in table.holes])


# ---------------------------------------------------------------------------
# random tables
# ---------------------------------------------------------------------------

#: words whose parameter spaces are easy to hit by rejection sampling
TEMPLATE_WORDS = ("ENWS", "ENWNWS", "ENENWNWSWS")


def _random_lengths(word, rng: np.random.Generator):
    from .geometry import _repair_class_sums, parse_word  # deterministic repair

    w = parse_word(word) if isinstance(word, str) else word
    # numerators 1..6 over denominators 1..5
    lens = [Fraction(int(rng.integers(1, 7)),
                     int(rng.choice((1, 2, 3, 4, 5))))
            for _ in range(len(w))]
    q = 1
    for v in lens:
        q = q * v.denominator // math.gcd(q, v.denominator)
    return w, _repair_class_sums(w, lens, q)


def random_table(rng: np.random.Generator, word=None,
                 hole_probability: float = 0.3) -> VHTable:
    """Rejection-sample a valid table with exact rational lengths.

    Words come from ``TEMPLATE_WORDS`` unless given; self-intersecting draws
    are rejected; a rectangular hole is attempted with the given probability.
    """
    for _ in range(200):
        chosen = word if word is not None else \
            TEMPLATE_WORDS[int(rng.integers(0, len(TEMPLATE_WORDS)))]
        try:
            w, lens = _random_lengths(chosen, rng)
            outer = build_polygon(w, lens)
        except GeometryError:
            continue
        table = build_table(outer)
        if word is None and rng.random() < hole_probability:
            with_hole = _try_add_hole(table, rng)
            if with_hole is not None:
                table = with_hole
        return table
    raise ConfigError(f"could not sample a valid table for word {word!r}")


def _try_add_hole(table: VHTable,
                  rng: np.random.Generator) -> VHTable | None:
    from .geometry import TABLE_ANCHOR

    for _ in range(20):
        den = int(rng.integers(2, 7))
        hw = Fraction(int(rng.integers(1, 3)), den)
        hh = Fraction(int(rng.integers(1, 3)), den)
        ax = TABLE_ANCHOR[0] + Fraction(int(rng.integers(1, 4 * den)), 2 * den)
        ay = TABLE_ANCHOR[1] + Fraction(int(rng.integers(1, 4 * den)), 2 * den)
        try:
            hole = build_polygon("ENWS", [hw, hh, hw, hh])
            return build_table(table.outer, [(hole, (ax, ay))])
        except GeometryError:
            continue
    return None


# ---------------------------------------------------------------------------
# genericity demonstration
# ---------------------------------------------------------------------------

@dataclass
class GDeltaRow:
    table_index: int
    q_min: int
    table_hash: str
    h_index: int
    n_gap: int
    tau_emp: float
    measure: float
    measure_target: float
    target_met: bool
    eta_emp: float
    eta_capped: bool
    max_delta_at_eta: float


@dataclass
class GDeltaReport:
    rows: list[GDeltaRow]
    tables: list[VHTable]
    meta: dict = field(default_factory=dict)


def gdelta_demo(word, area_band, q_list, j_max: int, n_list, m: int, *,
                seed: int = 0, theta_count: int = 32) -> GDeltaReport:
    """Tabulate empirical window lengths and stability radii over a ladder of
    lattice refinements of one combinatorics class.

    For each requested refinement level a random table with area inside
    ``area_band`` is snapped to the lattice; for every basis index and gap
    level the sweep measure is evaluated on a doubling ladder of window ends
    up to ``n * TAU_FACTOR`` (reporting the first one reaching 1 - 1/n^2),
    and the stability radius is the largest rung of ``D_LADDER`` keeping the
    correlation at ``PROBE_THETA`` within 1/(2n), probed on one grid per
    snapped table.
    Demonstration data only: nothing here is a convergence claim.
    """
    _require(isinstance(word, (str, CombinatoricsWord)),
             f"word must be a string of E/N/W/S letters, got {word!r}")
    for name, value, least in (("j_max", j_max, 1), ("grid_m", m, 1),
                               ("theta_count", theta_count, 1),
                               ("seed", seed, 0)):
        check_int(name, value)
        _require(value >= least,
                 f"{name} must be at least {least}, got {value}")
    q_list, n_list = _int_list("q_list", q_list), _int_list("n_list", n_list)
    _require(q_list, "q_list must be nonempty")
    _require(q_list[0] >= 1 and all(a < b for a, b in zip(q_list, q_list[1:])),
             "q_list must be positive and strictly increasing")
    _require(n_list, "n_list must be nonempty")
    lo, hi = (Fraction(area_band[0]), Fraction(area_band[1]))

    rng = np.random.default_rng(seed)
    rows: list[GDeltaRow] = []
    tables: list[VHTable] = []
    for i, q_min in enumerate(q_list):
        base = None
        for _ in range(1000):
            cand = random_table(rng, word=word)
            if lo <= cand.area <= hi:
                base = cand
                break
        _require(base is not None,
                 f"no random table with area in [{lo}, {hi}] after 1000 draws")
        snapped = approximate_pq(base, q_min, eta=Fraction(1))
        tables.append(snapped)
        thash = table_hash(snapped)
        grid = build_grid(snapped, m)

        for j in range(1, j_max + 1):
            for n_gap in n_list:
                tau_ladder = [n_gap * 2 ** k
                              for k in range(1, TAU_FACTOR.bit_length())]
                cfg = ExperimentConfig(
                    table_path="<in-memory>", count=theta_count,
                    seed=seed + 7919 * i + 131 * j + n_gap,
                    n_gap=n_gap, tau=float(tau_ladder[-1]),
                    h_indices=(j,), grid_m=m)
                est = theta_sweep(cfg, table=snapped)[0]
                target = 1.0 - 1.0 / n_gap ** 2
                tau_emp = float(tau_ladder[-1])
                measure = est.measure
                for tau in tau_ladder:
                    hits = est.hit & (est.first_dip_t <= tau)
                    meas = float(np.sum(hits) / est.thetas.size)
                    if meas >= target:
                        tau_emp, measure = float(tau), meas
                        break

                window_t = [n_gap + f * (tau_emp - n_gap)
                            for f in (0.25, 0.5, 0.75)]
                eta_emp, max_delta_at_eta = 0.0, math.nan
                h = basis_function(j)
                # the unperturbed series is shared by every rung; a table the
                # perturbation breaks, a grid it unaligns or a computation
                # it aborts ends the ladder at the last stable rung, and any
                # other error is a bug and propagates
                try:
                    series_a = correlation(snapped, PROBE_THETA, h, window_t,
                                           grid)
                    for d in sorted(D_LADDER):
                        rep = _probe_against(series_a, grid,
                                             perturb_length(snapped, 0, d),
                                             PROBE_THETA, h)
                        if rep.max_delta <= 1.0 / (2.0 * n_gap):
                            eta_emp = float(d)
                            max_delta_at_eta = rep.max_delta
                        else:
                            break
                except (GeometryError, UnalignedGrid, NumericalAbort):
                    pass

                rows.append(GDeltaRow(
                    table_index=i, q_min=q_min, table_hash=thash,
                    h_index=j, n_gap=n_gap, tau_emp=tau_emp,
                    measure=measure, measure_target=target,
                    target_met=measure >= target,
                    eta_emp=eta_emp,
                    eta_capped=eta_emp == float(max(D_LADDER)),
                    max_delta_at_eta=max_delta_at_eta))
    meta = {
        "version": _version,
        "seed": seed,
        "word": str(word),
        "area_band": [str(lo), str(hi)],
        "q_list": q_list,
        "j_max": j_max,
        "n_list": n_list,
        "grid_m": m,
        "theta_count": theta_count,
        "d_ladder": [str(d) for d in D_LADDER],
        "probe_theta": PROBE_THETA,
        "note": "empirical surrogates; eta values are finite-probe estimates "
                "capped at the ladder maximum",
    }
    return GDeltaReport(rows=rows, tables=tables, meta=meta)


def gdelta_to_csv(report: GDeltaReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["table_index", "q_min", "table_hash", "h_index", "n_gap",
                    "tau_emp", "measure", "measure_target", "target_met",
                    "eta_emp", "eta_capped", "max_delta_at_eta"])
        for r in report.rows:
            w.writerow([r.table_index, r.q_min, r.table_hash, r.h_index,
                        r.n_gap, repr(r.tau_emp), repr(r.measure),
                        repr(r.measure_target), int(r.target_met),
                        repr(r.eta_emp), int(r.eta_capped),
                        repr(r.max_delta_at_eta)])


def gdelta_summary(report: GDeltaReport) -> dict:
    return {
        "meta": report.meta,
        "tables": [table_to_dict(t) for t in report.tables],
        "rows": len(report.rows),
        "all_targets_met": all(r.target_met for r in report.rows),
    }
