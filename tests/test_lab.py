"""Experiment-driver tests: sweeps, continuity probes, genericity demo."""

import hashlib
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from vhbilliards import lab
from vhbilliards.errors import (
    CombinatoricsMismatch,
    ConfigError,
    EventBudgetExceeded,
    GridMismatch,
    NonPositiveLength,
    SingularOrbit,
    TooManySingular,
    UnalignedGrid,
)
from vhbilliards.geometry import (
    lshape,
    save_table,
    tiling_parameters,
    unit_square,
)
from vhbilliards.lab import (
    ExperimentConfig,
    continuity_probe,
    gdelta_demo,
    gdelta_to_csv,
    perturb_length,
    random_table,
    stratified_thetas,
    sweep_summary,
    sweep_to_csv,
    theta_sweep,
)
from vhbilliards.spectral import Observable, build_grid, correlation


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    save_table(unit_square(), path)
    return str(path)


class TestConfig:
    def test_window_must_be_nonempty(self, square_file):
        with pytest.raises(ConfigError):
            ExperimentConfig(table_path=square_file, count=4, seed=0,
                             n_gap=10, tau=5.0, h_indices=(1,), grid_m=4)

    def test_window_must_hold_a_step(self, square_file):
        # 2 < 2.1, but the first time, 2 + 1/8, lies beyond tau
        with pytest.raises(ConfigError, match="n_gap.*tau.*0.125"):
            ExperimentConfig(table_path=square_file, count=4, seed=0,
                             n_gap=2, tau=2.1, h_indices=(1,), grid_m=4)

    def test_step_cap_enforced(self, square_file):
        with pytest.raises(ConfigError):
            ExperimentConfig(table_path=square_file, count=4, seed=0,
                             n_gap=10, tau=50.0, h_indices=(1,), grid_m=4,
                             step=0.1)  # exceeds 1/(4*10)

    def test_default_step(self, square_file):
        cfg = ExperimentConfig(table_path=square_file, count=4, seed=0,
                               n_gap=5, tau=20.0, h_indices=(1,), grid_m=4)
        assert cfg.effective_step == 1.0 / 20.0
        grid = cfg.time_grid()
        assert grid[0] > cfg.n_gap
        assert grid[-1] <= cfg.tau + 1e-12

    def test_positive_counts(self, square_file):
        with pytest.raises(ConfigError):
            ExperimentConfig(table_path=square_file, count=0, seed=0,
                             n_gap=5, tau=20.0, h_indices=(1,), grid_m=4)


class TestStratifiedThetas:
    def test_deterministic(self):
        a = stratified_thetas(64, 7)
        b = stratified_thetas(64, 7)
        assert np.array_equal(a, b)

    def test_one_per_stratum(self):
        th = stratified_thetas(50, 3)
        edges = np.arange(51) * (math.pi / 2) / 50
        assert np.all((th > edges[:-1]) & (th < edges[1:]))


class TestThetaSweep:
    def test_indicator_observable_hits_everywhere(self, square_file):
        cfg = ExperimentConfig(table_path=square_file, count=8, seed=1,
                               n_gap=4, tau=10.0, h_indices=(1,), grid_m=4)
        est = theta_sweep(cfg, table=unit_square())[0]
        assert est.measure == 1.0
        assert np.all(est.min_gap < 1e-10)

    def test_square_cosine_dips(self, square_file):
        cfg = ExperimentConfig(table_path=square_file, count=12, seed=5,
                               n_gap=5, tau=40.0, h_indices=(6,), grid_m=8)
        est = theta_sweep(cfg, table=unit_square())[0]
        # closed form guarantees a dip whenever the window length exceeds
        # half the gap period 1/(2 cos theta); check agreement per theta
        for i, theta in enumerate(est.thetas):
            if 35.0 * 2 * math.cos(theta) > 1.2:
                assert est.hit[i], f"no dip found at theta={theta}"

    def test_monotone_in_tau(self, square_file):
        base = dict(table_path=square_file, count=16, seed=9, n_gap=5,
                    h_indices=(6,), grid_m=8)
        short = theta_sweep(ExperimentConfig(tau=15.0, **base),
                            table=unit_square())[0]
        long = theta_sweep(ExperimentConfig(tau=30.0, **base),
                           table=unit_square())[0]
        assert long.measure >= short.measure
        assert np.all(long.min_gap <= short.min_gap + 1e-15)

    def test_multiple_h_indices(self, square_file):
        cfg = ExperimentConfig(table_path=square_file, count=4, seed=2,
                               n_gap=4, tau=10.0, h_indices=(1, 6), grid_m=4)
        ests = theta_sweep(cfg, table=unit_square())
        assert [e.h_index for e in ests] == [1, 6]

    def test_observables_evaluated_once_at_grid_points(self, square_file,
                                                       monkeypatch):
        # the levels come from the sweep's grid values
        cfg = ExperimentConfig(table_path=square_file, count=4, seed=2,
                               n_gap=4, tau=10.0, h_indices=(1, 6), grid_m=4)
        sizes = []
        evaluate = Observable.evaluate

        def counted(h, xs, ys, width, height):
            sizes.append(np.size(xs))
            return evaluate(h, xs, ys, width, height)

        monkeypatch.setattr(Observable, "evaluate", counted)
        theta_sweep(cfg, table=unit_square())
        npts = build_grid(unit_square(), 4).npts
        assert sizes.count(npts) == 2
        assert len(sizes) == 2 + 2 * cfg.time_grid().size

    def test_stacked_indices_match_single_sweeps(self, tmp_path):
        # all h_indices share one flow; the outputs must not show it, for
        # any worker count
        table = lshape()
        outputs = set()
        for workers in (1, 2):
            cfg = ExperimentConfig(table_path="<in-memory>", count=6, seed=7,
                                   n_gap=3, tau=8.0, h_indices=(2, 4, 6),
                                   grid_m=8, workers=workers)
            ests = theta_sweep(cfg, table=table)
            csv_path = tmp_path / f"sweep_{workers}.csv"
            sweep_to_csv(ests, csv_path)
            summary = json.dumps(sweep_summary(cfg, table, ests),
                                 sort_keys=True)
            outputs.add((csv_path.read_bytes(), summary))
        assert len(outputs) == 1
        for est in ests:
            single_cfg = replace(cfg, h_indices=(est.h_index,), workers=1)
            single = theta_sweep(single_cfg, table=table)
            sweep_to_csv([est], tmp_path / "stacked.csv")
            sweep_to_csv(single, tmp_path / "single.csv")
            assert (tmp_path / "stacked.csv").read_bytes() \
                == (tmp_path / "single.csv").read_bytes()
            assert sweep_summary(cfg, table, [est])["estimates"] \
                == sweep_summary(single_cfg, table, single)["estimates"]

    def test_workers_give_identical_bytes(self, square_file, tmp_path):
        digests = []
        for workers in (1, 2, 4):
            cfg = ExperimentConfig(table_path=square_file, count=8, seed=11,
                                   n_gap=4, tau=12.0, h_indices=(6,),
                                   grid_m=4, workers=workers)
            table = unit_square()
            ests = theta_sweep(cfg, table=table)
            csv_path = tmp_path / f"sweep_{workers}.csv"
            sweep_to_csv(ests, csv_path)
            digests.append(hashlib.sha256(csv_path.read_bytes()).hexdigest())
        assert len(set(digests)) == 1


class TestContinuityProbe:
    def test_zero_distance_zero_delta(self):
        table = lshape()
        h = Observable.cosine(1, 0)
        rep = continuity_probe(table, table, 1.0, h, [2.0, 5.0], m=8)
        assert rep.distance == 0.0
        assert rep.max_delta == 0.0
        assert rep.ratio == 0.0

    def test_delta_shrinks_with_perturbation(self):
        table = lshape()
        h = Observable.cosine(1, 0)
        deltas = {}
        for d in (Fraction(1, 25), Fraction(1, 50), Fraction(1, 100)):
            perturbed = perturb_length(table, 0, d)
            rep = continuity_probe(table, perturbed, 1.0, h, [5.0], m=20)
            deltas[d] = rep.max_delta
            assert rep.distance == float(d)
        # limit trend, not monotonicity: the smallest step must not exceed
        # the largest one beyond tolerance
        assert deltas[Fraction(1, 100)] <= deltas[Fraction(1, 25)] + 0.02

    @pytest.mark.parametrize("index, d", [(0, Fraction(1, 25)),
                                          (1, Fraction(1, 50))])
    def test_observable_keeps_table_a_frame(self, index, d):
        # the perturbation moves the bounding box, so the observable's
        # frequencies are fixed by table_a's frame on both tables
        table_a = lshape()
        table_b = perturb_length(table_a, index, d)
        assert table_b.bbox != table_a.bbox
        h, times, m = Observable.cosine(1, 1), [1.0, 2.5, 5.0], 12
        rep = continuity_probe(table_a, table_b, 1.0, h, times, m)
        grid_a = build_grid(table_a, m)
        own_b = build_grid(table_b, m)
        framed_b = replace(own_b, width=grid_a.width, height=grid_a.height)
        values_a = correlation(table_a, 1.0, h, times, grid_a).values
        for grid_b, same in ((framed_b, True), (own_b, False)):
            delta = np.abs(values_a - correlation(table_b, 1.0, h, times,
                                                  grid_b).values)
            assert (delta.tobytes() == rep.delta_c.tobytes()) is same

    def test_combinatorics_mismatch(self):
        h = Observable.cosine(1, 0)
        with pytest.raises(CombinatoricsMismatch):
            continuity_probe(unit_square(), lshape(), 1.0, h, [1.0], m=4)


class TestPerturbLength:
    def test_preserves_word_and_closure(self):
        table = lshape()
        out = perturb_length(table, 0, Fraction(1, 50))
        assert out.outer.word == table.outer.word
        sums = {c: Fraction(0) for c in "ENWS"}
        for ch, ln in zip(out.outer.word.letters, out.outer.lengths):
            sums[ch] += ln
        assert sums["E"] == sums["W"] and sums["N"] == sums["S"]

    def test_sup_distance_equals_delta(self):
        table = lshape()
        out = perturb_length(table, 1, Fraction(1, 25))
        diffs = [abs(a - b) for a, b in
                 zip(out.outer.lengths, table.outer.lengths)]
        assert max(diffs) == Fraction(1, 25)


class TestRandomTable:
    def test_valid_and_seeded(self, rng):
        seen_words = set()
        for _ in range(30):
            table = random_table(rng)
            assert table.area > 0
            cert = tiling_parameters(table)
            assert cert.tile_count == cert.p * cert.q * table.area
            seen_words.add(table.outer.word.render())
        assert len(seen_words) > 1

    def test_word_restriction(self, rng):
        table = random_table(rng, word="ENWNWS")
        assert table.outer.word.render() == "ENWNWS"

    def test_determinism(self):
        a = random_table(np.random.default_rng(5))
        b = random_table(np.random.default_rng(5))
        assert a == b


class TestGDeltaDemo:
    def test_structure_row_count(self, monkeypatch):
        monkeypatch.setattr(lab, "TAU_FACTOR", 4)
        report = gdelta_demo("ENWNWS", (Fraction(1), Fraction(8)),
                             q_list=[2, 3], j_max=3, n_list=[2, 3], m=6,
                             seed=4, theta_count=6)
        assert len(report.rows) == 2 * 3 * 2
        assert len(report.tables) == 2
        for row in report.rows:
            assert row.q_min in (2, 3)
            assert 0.0 <= row.measure <= 1.0
            assert row.measure_target == 1.0 - 1.0 / row.n_gap ** 2
        for table, q_min in zip(report.tables, [2, 3]):
            cert = table.certificate
            assert min(cert.p, cert.q) >= q_min

    def test_indicator_gives_full_measure_and_capped_eta(self, monkeypatch):
        monkeypatch.setattr(lab, "TAU_FACTOR", 4)
        report = gdelta_demo("ENWS", (Fraction(1, 2), Fraction(30)),
                             q_list=[2], j_max=1, n_list=[2], m=4,
                             seed=1, theta_count=4)
        row = report.rows[0]
        assert row.measure == 1.0
        assert row.target_met
        assert row.eta_capped

    @staticmethod
    def _demo_with_probe_raising(monkeypatch, error):
        def broken_probe(*args, **kwargs):
            raise error

        monkeypatch.setattr(lab, "_probe_against", broken_probe)
        monkeypatch.setattr(lab, "TAU_FACTOR", 4)
        return gdelta_demo("ENWS", (Fraction(1, 2), Fraction(30)),
                           q_list=[2], j_max=1, n_list=[2], m=4,
                           seed=1, theta_count=4)

    @pytest.mark.parametrize("error", [
        NonPositiveLength, UnalignedGrid, SingularOrbit, EventBudgetExceeded,
        TooManySingular])
    def test_rung_failure_ends_ladder(self, monkeypatch, error):
        # a perturbed table that breaks, a grid it unaligns or a flow it
        # makes singular or too long ends the ladder below its first rung
        report = self._demo_with_probe_raising(monkeypatch,
                                               error("planted"))
        row = report.rows[0]
        assert row.eta_emp == 0.0 and math.isnan(row.max_delta_at_eta)

    def test_probe_bug_propagates(self, monkeypatch):
        # any other error is a bug, a package error included, and must not
        # turn into a smaller eta_emp
        for bug in (RuntimeError("bug inside the continuity probe"),
                    GridMismatch("planted grid mismatch"),
                    ConfigError("planted config error")):
            with pytest.raises(type(bug)) as raised:
                self._demo_with_probe_raising(monkeypatch, bug)
            assert raised.value is bug

    def test_empty_q_list_rejected(self):
        with pytest.raises(ConfigError):
            gdelta_demo("ENWS", (1, 2), q_list=[], j_max=1, n_list=[2], m=4)

    def test_nonincreasing_q_list_rejected(self):
        with pytest.raises(ConfigError):
            gdelta_demo("ENWS", (1, 2), q_list=[3, 2], j_max=1, n_list=[2],
                        m=4)

    def test_csv_export(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lab, "TAU_FACTOR", 4)
        report = gdelta_demo("ENWS", (Fraction(1, 2), Fraction(30)),
                             q_list=[2], j_max=1, n_list=[2], m=4,
                             seed=1, theta_count=4)
        path = tmp_path / "gdelta.csv"
        gdelta_to_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("table_index,q_min,table_hash")


class TestSweepExports:
    def test_summary_embeds_exact_table_and_seed(self, square_file):
        cfg = ExperimentConfig(table_path=square_file, count=4, seed=21,
                               n_gap=4, tau=10.0, h_indices=(1,), grid_m=4)
        table = unit_square()
        ests = theta_sweep(cfg, table=table)
        summary = sweep_summary(cfg, table, ests)
        assert summary["seed"] == 21
        assert summary["table"]["outer"]["word"] == "ENWS"
        assert summary["table"]["outer"]["lengths"][0] == "1/1"
        assert summary["estimates"][0]["measure"] == 1.0
