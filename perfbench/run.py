"""Benchmark of the vhbilliards package: four seeded workloads, one process.

    python3 perfbench/run.py --workload correlate-square --seed 1 --seconds 25
    python3 perfbench/run.py --workload all --seconds 25      # every workload
    python3 perfbench/run.py --workload orbit-holed --trace 1 # per-layer run

Run from a checkout of the repository; the program is imported from its
``src`` directory.  The run repeats the workload until ``--seconds`` of timed
work are spent and reports medians over those reps.  Before each rep it sets
up several times (``setup_s`` is the median over all set-ups); after each rep
it checks the outputs, untimed.  With ``--trace 1`` it alternates plain and
traced reps and reports the per-layer metrics of the traced ones.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# each rep follows a block of set-ups that lasts at least this long, so that
# set-ups sample the host over the whole run; setup_s is their median
SETUP_BLOCK_S = 0.1
# the calibration loop and its duration at the reference speed, close to its
# usual duration on the 2-vCPU test host
CAL_LOOPS = 400_000
CAL_REF_S = 0.03
# a rep is calibrated again at the first op boundary after this many seconds
SEGMENT_S = 0.5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "point_steps_per_s": "1/s",
                    "events_per_s": "1/s", "peak_rss_mb": "MiB"}
# the keys of workloads.WORKLOADS, which needs the program imported
WORKLOAD_CHOICES = ["correlate-square", "sweep-lshape", "chain-refined-lshape",
                    "orbit-holed", "all"]


def _import_program() -> None:
    package = SRC / "vhbilliards"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    import vhbilliards
    if Path(vhbilliards.__file__).resolve().parent != package.resolve():
        raise SystemExit("perfbench: imported vhbilliards from "
                         f"{vhbilliards.__file__}, not from {package}")


def _calibrate() -> float:
    """Time of a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


class HostSpeed:
    """Scales times measured on a host whose speed drifts to reference seconds.

    The test host's single-thread speed swings by up to half over tens of
    seconds, and CPU time swings with it.  Timing a fixed loop before and
    after each stage and scaling the stage by ``CAL_REF_S`` over their mean
    removes most of that drift; the program's own speed still shows in full.
    """

    def __init__(self):
        self._last = _calibrate()

    def factor(self) -> float:
        """Scale for the stage that ran since the previous calibration."""
        now = _calibrate()
        f = CAL_REF_S / (0.5 * (self._last + now))
        self._last = now
        return f


class ScaledTimer:
    """Times one rep in segments, calibrating at op boundaries in between.

    A segment closes at the first op boundary after ``SEGMENT_S``, so a long
    rep follows the host's drift more closely.  Calibration time is not
    counted in the rep.
    """

    def __init__(self, host: HostSpeed):
        self.host = host
        self.raw = 0.0
        self.scaled = 0.0
        host.factor()
        self._t0 = time.perf_counter()

    def mark(self, _op: int) -> None:
        now = time.perf_counter()
        if now - self._t0 >= SEGMENT_S:
            self._close(now)

    def stop(self) -> None:
        self._close(time.perf_counter())

    def _close(self, now: float) -> None:
        d = now - self._t0
        self.raw += d
        self.scaled += d * self.host.factor()
        self._t0 = time.perf_counter()


def _median_rate(amount: float, walls: list[float]) -> float:
    return statistics.median(amount / w for w in walls)


def _stop(walls: list[float], seconds: float, min_reps: int) -> bool:
    """Whether another rep would overrun the timed budget."""
    return (len(walls) >= min_reps
            and sum(walls) + statistics.median(walls) > seconds)


def _setup_block(wl, host: HostSpeed) -> tuple[list[float], object]:
    """Reference-second times of a block of set-ups, and the last set-up."""
    block = []
    while not block or sum(block) < SETUP_BLOCK_S:
        t0 = time.perf_counter()
        s = wl.setup()
        block.append(time.perf_counter() - t0)
    f = host.factor()
    return [t * f for t in block], s


def measure(wl, seconds: float) -> tuple[dict, list[bool], list[str]]:
    host = HostSpeed()
    setup_times, raw, walls, latencies, verdicts = [], [], [], [], []
    events = None
    while not raw or not _stop(raw, seconds, 1):
        times, s = _setup_block(wl, host)
        setup_times.extend(times)
        timer = ScaledTimer(host)
        rep = wl.run(s, timer.mark)
        timer.stop()
        raw.append(timer.raw)
        walls.append(timer.scaled)
        latencies.extend(x * timer.scaled / timer.raw for x in rep.latencies_s)
        verdicts.extend(wl.check(s, rep))
        if events is None:
            events = wl.events(s, rep)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "point_steps_per_s": _median_rate(wl.point_steps(s), walls),
        "events_per_s": _median_rate(events, walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    notes = {"setup_s": f"median of {len(setup_times)} set-ups"}
    for k in ("wall_s", "point_steps_per_s", "events_per_s"):
        notes[k] = f"median of {len(walls)} reps"
    notes["peak_rss_mb"] = "whole process"
    lines = [f"  {k:<20} {v:<22.6g} {END_TO_END_UNITS[k]:<6} {notes[k]}"
             for k, v in metrics.items()]
    lines.append(f"  {'unscaled wall_s':<20} {statistics.median(raw):<22.6g} "
                 f"{'s':<6} median of {len(raw)} reps, as the clock read")
    if latencies:
        p50, p95 = np.percentile(latencies, [50, 95]) * 1e3
        for k, v in (("orbit_p50_ms", p50), ("orbit_p95_ms", p95)):
            lines.append(f"  {k:<20} {v:<22.6g} {'ms':<6} "
                         f"over {len(latencies)} starts")
    return metrics, verdicts, lines


def measure_traced(wl, seconds: float) -> tuple[dict, list[bool], list[str]]:
    import spans
    from workloads import SETUP_LAYERS

    host = HostSpeed()
    raw, plain, traced, rows, verdicts, recorders = [], [], [], [], [], []
    while not _stop(raw, seconds, 2):
        if len(plain) > len(traced):
            rec = spans.SpanRecorder()
            tracer = spans.Tracer(rec)
            tracer.install()
            try:
                s = wl.setup()
                timer = ScaledTimer(host)

                def mark(k):
                    timer.mark(k)
                    rec.op_id = k
                rep = wl.run(s, mark)
                timer.stop()
            finally:
                tracer.uninstall()
            missing = spans.missing_layers(rec, SETUP_LAYERS + wl.layers)
            if missing:
                raise SystemExit(f"perfbench: {wl.name} recorded no span "
                                 f"for {', '.join(missing)}")
            f = timer.scaled / timer.raw
            row = spans.layer_metrics(tracer, (rep.start, rep.end), timer.raw,
                                      wl.needed_point_time(s))
            rows.append({k: v * f if spans.UNITS[k] == "s" else v
                         for k, v in row.items()})
            traced.append(timer.scaled)
            recorders.append(rec)
        else:
            s = wl.setup()
            timer = ScaledTimer(host)
            rep = wl.run(s, timer.mark)
            timer.stop()
            plain.append(timer.scaled)
        raw.append(timer.raw)
        verdicts.extend(wl.check(s, rep))
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics["trace.overhead_fraction"] = (statistics.median(traced)
                                          / statistics.median(plain) - 1.0)
    metrics = {k: metrics[k] for k in spans.UNITS}
    n_spans = sum(len(r) for r in recorders)
    lines = [f"  {k:<36} {v:<14.6g} {spans.UNITS[k]}"
             for k, v in metrics.items()]
    lines.append(f"  medians of {len(traced)} traced reps ({n_spans} spans); "
                 f"overhead against {len(plain)} plain reps")
    return metrics, verdicts, lines


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    import spans
    from workloads import WORKLOADS

    work = Path(tempfile.mkdtemp(prefix=f".work-{name}-",
                                 dir=ROOT / "perfbench"))
    try:
        wl = WORKLOADS[name](seed, work)
        if trace:
            metrics, verdicts, lines = measure_traced(wl, seconds)
            units = spans.UNITS
        else:
            metrics, verdicts, lines = measure(wl, seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work)
    failed = verdicts.count(False)
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    print("\n".join(lines))
    print(f"  {'ops_attempted':<20} {len(verdicts):<22} count")
    print(f"  {'ops_failed':<20} {failed:<22} count")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics, code = True, 0, 0, {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            code = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v
                        for k, v in result["metrics"].items()})
    if code == 0:
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_CHOICES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.workload == "all":
        _import_program()
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
