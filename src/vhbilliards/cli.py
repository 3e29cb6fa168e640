"""Command-line interface.

Exit codes: 0 success, 1 invalid input (a ``ConfigError``: bad tables, words,
configs, options, usage errors such as a missing or malformed flag; or an
unreadable or malformed file), 2 numerical abort (a ``NumericalAbort``:
singular orbits, event budgets, dropped quadrature mass).  Errors are
emitted as one JSON object on stderr so callers can parse them; any other
exception is a bug and escapes with its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BilliardError, ConfigError, NumericalAbort
from .geometry import (
    PointLocation,
    _parse_rationals,
    approximate_pq,
    check_config_keys,
    contains_point,
    load_table,
    save_table,
    table_hash,
    tiling_parameters,
)
from .dynamics import (
    DirectionState,
    PhasePoint,
    is_pi_commensurable,
    orbit,
    orbit_to_csv,
    orbit_to_svg,
)
from .spectral import (
    Observable,
    build_grid,
    correlation,
    series_summary,
    series_to_csv,
    series_to_svg,
)
from .lab import (
    ExperimentConfig,
    _require,
    continuity_probe,
    gdelta_demo,
    gdelta_summary,
    gdelta_to_csv,
    sweep_summary,
    sweep_to_csv,
    theta_sweep,
)

_GDELTA_REQUIRED = ("word", "area_band", "q_list", "j_max", "n_list", "grid_m")
_GDELTA_OPTIONAL = ("seed", "theta_count", "out_dir")


def _fail(err: Exception, code: int) -> int:
    payload = {"error": type(err).__name__, "message": str(err)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def _parse_h(selector: str) -> Observable:
    """Observable selector 'kx,ky' -> cosine at that frequency."""
    try:
        kx, ky = (int(v) for v in selector.split(","))
    except ValueError as exc:
        raise ConfigError(
            f"bad observable selector {selector!r}; expected kx,ky") from exc
    if kx == 0 and ky == 0:
        return Observable.constant(1.0)
    return Observable.cosine(kx, ky)


def _parse_times(text: str) -> list[float]:
    try:
        times = [float(v) for v in text.split(",")]
    except ValueError:
        times = []
    if not times or not all(0 <= t < math.inf for t in times) \
            or any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError(f"--t must be finite, nonnegative, strictly "
                          f"increasing times, got {text!r}")
    return times


def _write_json(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    table = load_table(args.table)
    cert = tiling_parameters(table)
    info = {
        "word": table.outer.word.render(),
        "holes": [poly.word.render() for poly, _ in table.holes],
        "area": str(table.area),
        "p": cert.p,
        "q": cert.q,
        "tile_count": cert.tile_count,
        "table_hash": table_hash(table),
    }
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def _cmd_tile(args) -> int:
    from .geometry import tile_anchors

    table = load_table(args.table)
    cert = tiling_parameters(table)
    out = {
        "p": cert.p,
        "q": cert.q,
        "tile_count": cert.tile_count,
        "area": str(table.area),
    }
    if args.list:
        out["anchors"] = [[str(a[0]), str(a[1])]
                          for a in tile_anchors(table, cert)]
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_approximate(args) -> int:
    _require(args.Q >= 1, f"--Q must be a positive integer, got {args.Q}")
    _require(math.isfinite(args.eta) and args.eta > 0,
             f"--eta must be a positive finite number, got {args.eta}")
    table = load_table(args.table)
    snapped = approximate_pq(table, args.Q, Fraction(str(args.eta)))
    cert = snapped.certificate
    save_table(snapped, args.output)
    print(json.dumps({
        "output": str(args.output),
        "p": cert.p, "q": cert.q, "tile_count": cert.tile_count,
    }, indent=2, sort_keys=True))
    return 0


def _cmd_orbit(args) -> int:
    _require(args.time >= 0, f"--time must be nonnegative, got {args.time}")
    _require(args.max_events >= 0,
             f"--max-events must be nonnegative, got {args.max_events}")
    for flag, v in (("--x", args.x), ("--y", args.y)):
        _require(math.isfinite(v), f"{flag} must be a finite number, got {v}")
    table = load_table(args.table)
    if contains_point(table, (args.x, args.y)) is PointLocation.EXTERIOR:
        raise ConfigError(
            f"start ({args.x}, {args.y}) lies outside the table")
    state = PhasePoint(args.x, args.y,
                       DirectionState(args.theta, args.sx, args.sy))
    history = orbit(table, state, max_time=args.time,
                    max_events=args.max_events)
    if args.csv:
        orbit_to_csv(history, args.csv)
    if args.svg:
        orbit_to_svg(history, args.svg)
    print(json.dumps({
        "events": len(history.events),
        "total_time": history.total_time,
        "terminated": history.terminated,
        "pi_commensurable": is_pi_commensurable(args.theta),
    }, indent=2, sort_keys=True))
    return 0


def _cmd_correlate(args) -> int:
    _require(math.isfinite(args.step) and args.step > 0,
             f"--step must be a positive finite number, got {args.step}")
    _require(math.isfinite(args.tmax) and args.tmax >= args.step,
             f"--tmax must be finite and at least --step {args.step}, "
             f"got {args.tmax}")
    _require(math.isfinite(args.theta),
             f"--theta must be a finite number, got {args.theta}")
    _require(args.m >= 1, f"--m must be a positive integer, got {args.m}")
    table = load_table(args.table)
    h = _parse_h(args.h)
    grid = build_grid(table, args.m)
    n_steps = int(math.floor(args.tmax / args.step + 1e-9))
    t_grid = args.step * (1 + np.arange(n_steps))
    series = correlation(table, args.theta, h, t_grid, grid=grid)
    out_csv = args.output or "correlation.csv"
    series_to_csv(series, out_csv)
    summary = series_summary(series, table, h, grid)
    summary["pi_commensurable"] = is_pi_commensurable(args.theta)
    if args.summary:
        _write_json(summary, args.summary)
    if args.svg:
        series_to_svg(series, args.svg)
    print(json.dumps({"csv": str(out_csv),
                      "dropped_fraction": series.dropped_fraction},
                     indent=2, sort_keys=True))
    return 0


def _cmd_theta_sweep(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.workers is not None:
        from dataclasses import replace
        config = replace(config, workers=args.workers)
    table = load_table(config.table_path)
    estimates = theta_sweep(config, table=table)
    out_dir = Path(config.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_to_csv(estimates, out_dir / "sweep.csv")
    _write_json(sweep_summary(config, table, estimates),
                out_dir / "sweep_summary.json")
    print(json.dumps({
        "out_dir": str(out_dir),
        "measures": {str(e.h_index): e.measure for e in estimates},
    }, indent=2, sort_keys=True))
    return 0


def _cmd_continuity(args) -> int:
    _require(math.isfinite(args.theta),
             f"--theta must be a finite number, got {args.theta}")
    _require(args.m >= 1, f"--m must be a positive integer, got {args.m}")
    t_list = _parse_times(args.t)
    table_a = load_table(args.table_a)
    table_b = load_table(args.table_b)
    h = _parse_h(args.h)
    report = continuity_probe(table_a, table_b, args.theta, h, t_list, args.m)
    print(json.dumps({
        "distance": report.distance,
        "times": list(map(float, report.times)),
        "delta_c": list(map(float, report.delta_c)),
        "max_delta": report.max_delta,
        "ratio": report.ratio,
    }, indent=2, sort_keys=True))
    return 0


def _cmd_gdelta_demo(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    check_config_keys(cfg, _GDELTA_REQUIRED,
                      _GDELTA_REQUIRED + _GDELTA_OPTIONAL, "gdelta-demo config")
    out_dir = cfg.get("out_dir", ".")
    _require(isinstance(out_dir, str),
             f"out_dir must be a path, got {out_dir!r}")
    # seed and theta_count take gdelta_demo's defaults when not set
    options = {k: cfg[k] for k in ("seed", "theta_count") if k in cfg}
    report = gdelta_demo(
        cfg["word"],
        tuple(_parse_rationals(cfg["area_band"], "area_band", 2)),
        cfg["q_list"],
        cfg["j_max"],
        cfg["n_list"],
        cfg["grid_m"],
        **options,
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gdelta_to_csv(report, out_dir / "gdelta.csv")
    _write_json(gdelta_summary(report), out_dir / "gdelta_summary.json")
    print(json.dumps({"out_dir": str(out_dir), "rows": len(report.rows)},
                     indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are validation errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="vhbilliards",
        description="billiards in axis-parallel polygons: validation, "
                    "tilings, orbits, correlations, experiment sweeps")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="check a table file and print facts")
    s.add_argument("table")
    s.set_defaults(func=_cmd_validate)

    s = sub.add_parser("tile", help="minimal rectangle-tiling certificate")
    s.add_argument("table")
    s.add_argument("--list", action="store_true", help="print tile anchors")
    s.set_defaults(func=_cmd_tile)

    s = sub.add_parser("approximate",
                       help="snap to a (1/Q, 1/Q) lattice within eta")
    s.add_argument("table")
    s.add_argument("--Q", type=int, required=True)
    s.add_argument("--eta", type=float, required=True)
    s.add_argument("-o", "--output", default="approximated.json")
    s.set_defaults(func=_cmd_approximate)

    s = sub.add_parser("orbit", help="run one orbit; optional CSV/SVG export")
    s.add_argument("table")
    s.add_argument("--theta", type=float, required=True)
    s.add_argument("--x", type=float, required=True)
    s.add_argument("--y", type=float, required=True)
    s.add_argument("--sx", type=int, default=1, choices=(-1, 1))
    s.add_argument("--sy", type=int, default=1, choices=(-1, 1))
    s.add_argument("--time", type=float, required=True)
    s.add_argument("--max-events", type=int, default=10**6)
    s.add_argument("--csv")
    s.add_argument("--svg")
    s.set_defaults(func=_cmd_orbit)

    s = sub.add_parser("correlate", help="correlation series for one direction")
    s.add_argument("table")
    s.add_argument("--theta", type=float, required=True)
    s.add_argument("--h", required=True, metavar="KX,KY",
                   help="cosine observable frequency, e.g. 1,0")
    s.add_argument("--tmax", type=float, required=True)
    s.add_argument("--step", type=float, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("-o", "--output")
    s.add_argument("--summary")
    s.add_argument("--svg", help="gap-vs-t chart output path")
    s.set_defaults(func=_cmd_correlate)

    s = sub.add_parser("theta-sweep", help="directional gap-criterion sweep")
    s.add_argument("config")
    s.add_argument("--workers", type=int)
    s.set_defaults(func=_cmd_theta_sweep)

    s = sub.add_parser("continuity",
                       help="correlation change under a table perturbation")
    s.add_argument("table_a")
    s.add_argument("table_b")
    s.add_argument("--theta", type=float, required=True)
    s.add_argument("--h", required=True, metavar="KX,KY")
    s.add_argument("--t", required=True, help="comma-separated times")
    s.add_argument("--m", type=int, required=True)
    s.set_defaults(func=_cmd_continuity)

    s = sub.add_parser("gdelta-demo",
                       help="lattice-refinement genericity demonstration")
    s.add_argument("config")
    s.set_defaults(func=_cmd_gdelta_demo)

    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except NumericalAbort as err:
        return _fail(err, 2)
    # anything else is a bug and keeps its traceback
    except (BilliardError, OSError, json.JSONDecodeError) as err:
        return _fail(err, 1)


if __name__ == "__main__":
    raise SystemExit(main())
