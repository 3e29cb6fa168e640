"""End-to-end CLI tests: exit codes, JSON errors, file outputs."""

import json
import math

import numpy as np
import pytest

from vhbilliards.cli import main
from vhbilliards.errors import ConfigError
from vhbilliards.geometry import (
    build_polygon,
    build_table,
    load_table,
    lshape,
    save_table,
    unit_square,
)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    save_table(unit_square(), path)
    return str(path)


@pytest.fixture
def lshape_file(tmp_path):
    path = tmp_path / "lshape.json"
    save_table(lshape(), path)
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({
        "outer": {"word": "ENWS", "lengths": ["1/1", "1/1", "2/1", "1/1"]},
        "holes": [],
    }))
    return str(path)


class TestValidate:
    def test_lshape(self, lshape_file, capsys):
        assert main(["validate", lshape_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["word"] == "ENWNWS"
        assert out["area"] == "3"
        assert out["p"] == 1 and out["q"] == 1

    def test_closure_violation_exits_1(self, broken_file, capsys):
        assert main(["validate", broken_file]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ClosureViolated"

    def test_missing_file_exits_1(self, capsys):
        assert main(["validate", "/nonexistent/table.json"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"

    _SQUARE = '"outer": {"word": "ENWS", "lengths": [%s, 1, 1, 1]}'
    _HOLE = '{"word": "ENWS", "lengths": [1, 1, 1, 1], "anchor": %s}'
    _RING = '{"outer": {"word": "ENWS", "lengths": [3, 3, 3, 3]}, %s}'

    @pytest.mark.parametrize("text, field", [
        ("{%s}" % (_SQUARE % '"1/0"'), "outer.lengths[0]"),
        ("{%s}" % (_SQUARE % '"1//2"'), "outer.lengths[0]"),
        ("{%s}" % (_SQUARE % "NaN"), "outer.lengths[0]"),
        ("{%s}" % (_SQUARE % "Infinity"), "outer.lengths[0]"),
        ("{%s}" % (_SQUARE % "true"), "outer.lengths[0]"),
        ("{%s}" % (_SQUARE % "null"), "outer.lengths[0]"),
        ("{%s}" % (_SQUARE % "[1]"), "outer.lengths[0]"),
        ("{%s}" % (_SQUARE % '{"n": 1}'), "outer.lengths[0]"),
        ('{"outer": {"word": "ENWS", "lengths": "1111"}}', "outer.lengths"),
        ('{"outer": {"word": ["E", "N", "W", "S"], "lengths": [1, 1, 1, 1]}}',
         "outer.word"),
        ('{"outer": {"word": "ENWS"}}', "outer key(s): lengths"),
        ('{"holes": []}', "table key(s): outer"),
        ('[{"word": "ENWS", "lengths": [1, 1, 1, 1]}]', "table"),
        (_RING % ('"hole": [%s]' % (_HOLE % "[2, 2]")), "table key(s): hole"),
        (_RING % '"holes": [{"word": "ENWS", "lengths": [1, 1, 1, 1]}]',
         "holes[0] key(s): anchor"),
        (_RING % ('"holes": [%s]' % (_HOLE % "[2, 2, 2]")), "holes[0].anchor"),
        (_RING % ('"holes": [%s]' % (_HOLE % '[2, "x"]')),
         "holes[0].anchor[1]"),
        (_RING % '"holes": {}', "holes"),
    ], ids=["zero-denominator", "malformed-string", "nan", "infinity", "bool",
            "null", "list", "dict", "string-lengths", "list-word",
            "missing-lengths", "missing-outer", "top-level-list",
            "misspelt-holes", "missing-anchor", "anchor-length",
            "anchor-entry", "holes-dict"])
    def test_malformed_table_exits_1(self, text, field, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert field in err["message"]


class TestTile:
    def test_counts(self, lshape_file, capsys):
        assert main(["tile", lshape_file, "--list"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tile_count"] == 3
        assert len(out["anchors"]) == 3

    def test_anchor_order_is_row_major(self, lshape_file, tmp_path, capsys):
        assert main(["tile", lshape_file, "--list"]) == 0
        assert json.loads(capsys.readouterr().out)["anchors"] == [
            ["1", "1"], ["2", "1"], ["1", "2"]]
        # a 3x3 square with the centre tile cut out as a hole
        path = tmp_path / "ring.json"
        save_table(build_table(build_polygon("ENWS", [3, 3, 3, 3]),
                               [(build_polygon("ENWS", [1, 1, 1, 1]),
                                 (2, 2))]), path)
        assert main(["tile", str(path), "--list"]) == 0
        assert json.loads(capsys.readouterr().out)["anchors"] == [
            ["1", "1"], ["2", "1"], ["3", "1"],
            ["1", "2"], ["3", "2"],
            ["1", "3"], ["2", "3"], ["3", "3"]]


class TestApproximate:
    def test_writes_snapped_table(self, lshape_file, tmp_path, capsys):
        out_path = str(tmp_path / "snapped.json")
        code = main(["approximate", lshape_file, "--Q", "5", "--eta", "0.2",
                     "-o", out_path])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert min(out["p"], out["q"]) >= 5
        snapped = load_table(out_path)
        assert snapped.outer.word.render() == "ENWNWS"


class TestOrbit:
    def test_csv_and_svg(self, lshape_file, tmp_path, capsys):
        csv_path = tmp_path / "orbit.csv"
        svg_path = tmp_path / "orbit.svg"
        code = main(["orbit", lshape_file, "--theta", "1.0",
                     "--x", "1.3", "--y", "1.4", "--time", "8.0",
                     "--csv", str(csv_path), "--svg", str(svg_path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["events"] > 0
        assert csv_path.read_text().startswith("t,x,y,sx,sy,side_id")
        assert svg_path.read_text().startswith("<svg")

    def test_singular_orbit_reported(self, lshape_file, capsys):
        code = main(["orbit", lshape_file, "--theta",
                     repr(math.pi / 4), "--x", "1.5", "--y", "1.5",
                     "--time", "5.0"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["terminated"] == "singular"

    @pytest.mark.parametrize("x, y", [("5", "5"), ("0.5", "1.5"),
                                      ("2.5", "2.5")])
    def test_start_outside_exits_1(self, lshape_file, tmp_path, capsys, x, y):
        csv_path = tmp_path / "orbit.csv"
        code = main(["orbit", lshape_file, "--theta", "1.0", "--x", x,
                     "--y", y, "--time", "5.0", "--csv", str(csv_path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "outside the table" in err["message"]
        assert not csv_path.exists()

    @pytest.mark.parametrize("time", ["-5", "nan"])
    def test_negative_or_nan_time_exits_1(self, lshape_file, tmp_path,
                                          capsys, time):
        csv_path = tmp_path / "orbit.csv"
        code = main(["orbit", lshape_file, "--theta", "1.0", "--x", "1.3",
                     "--y", "1.4", "--time", time, "--csv", str(csv_path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "--time" in err["message"]
        assert not csv_path.exists()

    def test_negative_event_budget_exits_1(self, lshape_file, tmp_path,
                                           capsys):
        csv_path = tmp_path / "orbit.csv"
        code = main(["orbit", lshape_file, "--theta", "1.0", "--x", "1.3",
                     "--y", "1.4", "--time", "5", "--max-events", "-3",
                     "--csv", str(csv_path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "--max-events" in err["message"]
        assert not csv_path.exists()

    def test_zero_event_budget_stops_at_first_collision(self, lshape_file,
                                                        capsys):
        code = main(["orbit", lshape_file, "--theta", "1.0", "--x", "1.3",
                     "--y", "1.4", "--time", "5", "--max-events", "0"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["terminated"] == "budget"
        assert out["events"] == 1 and out["total_time"] > 0

    def test_start_in_hole_exits_1(self, tmp_path, capsys):
        path = tmp_path / "ring.json"
        save_table(build_table(build_polygon("ENWS", [3, 3, 3, 3]),
                               [(build_polygon("ENWS", [1, 1, 1, 1]),
                                 (2, 2))]), path)
        code = main(["orbit", str(path), "--theta", "1.0", "--x", "2.5",
                     "--y", "2.5", "--time", "5.0"])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_start_on_boundary_keeps_direction_rule(self, lshape_file,
                                                    capsys):
        # on the left side: inward velocity runs, outward velocity stalls
        args = ["orbit", lshape_file, "--theta", "1.0", "--x", "1.0",
                "--y", "1.5", "--time", "3.0"]
        assert main(args) == 0
        assert main(args + ["--sx", "-1"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "StalledState"


class TestCorrelate:
    def test_matches_closed_form(self, square_file, tmp_path, capsys):
        out_csv = str(tmp_path / "series.csv")
        m = 32
        code = main(["correlate", square_file, "--theta", "1.0",
                     "--h", "1,0", "--tmax", "10", "--step", "0.5",
                     "--m", str(m), "-o", out_csv,
                     "--summary", str(tmp_path / "summary.json"),
                     "--svg", str(tmp_path / "gap.svg")])
        assert code == 0
        assert (tmp_path / "gap.svg").read_text().startswith("<svg")
        rows = [line.split(",") for line in
                open(out_csv).read().strip().splitlines()[1:]]
        t = np.array([float(r[0]) for r in rows])
        c = np.array([float(r[1]) for r in rows])
        expected = 0.5 * np.cos(2 * math.pi * t * math.cos(1.0))
        assert np.abs(c - expected).max() <= 3.0 / m
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["grid_m"] == m
        assert summary["pi_commensurable"] is False

    def test_too_many_singular_exits_2(self, lshape_file, capsys):
        code = main(["correlate", lshape_file, "--theta", repr(math.pi / 4),
                     "--h", "1,0", "--tmax", "3", "--step", "1.0",
                     "--m", "2"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TooManySingular"

    @pytest.mark.parametrize("tmax, step", [
        ("10", "0"), ("10", "-1"), ("10", "nan"), ("10", "inf"),
        ("-5", "0.5"), ("0.25", "0.5"), ("inf", "0.5"), ("nan", "0.5")])
    def test_bad_step_or_tmax_exits_1(self, square_file, tmp_path, capsys,
                                      tmax, step):
        out_csv = tmp_path / "series.csv"
        code = main(["correlate", square_file, "--theta", "1.0",
                     "--h", "1,0", "--tmax", tmax, "--step", step,
                     "--m", "4", "-o", str(out_csv)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert not out_csv.exists()

    def test_degenerate_theta_exits_1(self, square_file, tmp_path, capsys):
        # the orbit command's direction rule: theta in (0, pi/2)
        out_csv = tmp_path / "series.csv"
        code = main(["correlate", square_file, "--theta=0", "--h", "1,0",
                     "--tmax", "1", "--step", "0.5", "--m", "4",
                     "-o", str(out_csv)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DegenerateDirection"
        assert not out_csv.exists()

    def test_tmax_equal_to_step_gives_one_row(self, square_file, tmp_path,
                                              capsys):
        out_csv = tmp_path / "series.csv"
        assert main(["correlate", square_file, "--theta", "1.0",
                     "--h", "1,0", "--tmax", "0.5", "--step", "0.5",
                     "--m", "4", "-o", str(out_csv)]) == 0
        assert len(out_csv.read_text().strip().splitlines()) == 2

    def test_event_budget_exits_2(self, square_file, tmp_path, capsys,
                                  monkeypatch):
        from vhbilliards import dynamics

        monkeypatch.setattr(dynamics, "MAX_EVENTS", 5)
        out_csv = tmp_path / "series.csv"
        code = main(["correlate", square_file, "--theta", "1.0",
                     "--h", "1,0", "--tmax", "10", "--step", "0.5",
                     "--m", "4", "-o", str(out_csv)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "EventBudgetExceeded"
        assert not out_csv.exists()


class TestThetaSweepCommand:
    def test_outputs(self, square_file, tmp_path, capsys):
        config = {
            "table_path": square_file,
            "count": 6,
            "seed": 3,
            "n_gap": 4,
            "tau": 12.0,
            "h_indices": [6],
            "grid_m": 4,
            "out_dir": str(tmp_path / "sweep_out"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["theta-sweep", str(cfg_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "6" in out["measures"]
        sweep_csv = tmp_path / "sweep_out" / "sweep.csv"
        summary = json.loads(
            (tmp_path / "sweep_out" / "sweep_summary.json").read_text())
        assert sweep_csv.exists()
        assert summary["seed"] == 3
        assert summary["table"]["outer"]["word"] == "ENWS"

    def test_bad_config_exits_1(self, square_file, tmp_path, capsys):
        config = {"table_path": square_file, "count": 4, "seed": 0,
                  "n_gap": 10, "tau": 5.0, "h_indices": [1], "grid_m": 4}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["theta-sweep", str(cfg_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_window_without_a_step_exits_1(self, square_file, tmp_path,
                                           capsys):
        config = {"table_path": square_file, "count": 4, "seed": 0,
                  "n_gap": 2, "tau": 2.1, "h_indices": [1], "grid_m": 4,
                  "out_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "short.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["theta-sweep", str(cfg_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "n_gap" in err["message"] and "tau" in err["message"]

    @pytest.mark.parametrize("field, value", [
        ("count", "4"), ("seed", 1.5), ("workers", True), ("tau", "12"),
        ("step", "0.05"), ("h_indices", 3), ("h_indices", [2.0]),
    ])
    def test_mistyped_value_exits_1(self, square_file, tmp_path, capsys,
                                    field, value):
        # a wrongly typed JSON value is a config error naming the field, not
        # a TypeError from deep inside the sweep
        config = {"table_path": square_file, "count": 4, "seed": 0,
                  "n_gap": 4, "tau": 12.0, "h_indices": [1], "grid_m": 4,
                  "out_dir": str(tmp_path / "out")}
        config[field] = value
        cfg_path = tmp_path / "typed.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["theta-sweep", str(cfg_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert field in err["message"]

    def test_unknown_key_exits_1(self, square_file, tmp_path, capsys):
        config = {"table_path": square_file, "count": 4, "seed": 0,
                  "n_gap": 2, "tau": 5.0, "h_indices": [1], "grid_m": 4,
                  "wrokers": 2}
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["theta-sweep", str(cfg_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "wrokers" in err["message"]

    def test_missing_key_exits_1(self, square_file, tmp_path, capsys):
        config = {"table_path": square_file, "count": 4, "seed": 0,
                  "n_gap": 2, "tau": 5.0, "h_indices": [1]}
        cfg_path = tmp_path / "short.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["theta-sweep", str(cfg_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "grid_m" in err["message"]


class TestContinuityCommand:
    def test_compares_tables(self, lshape_file, tmp_path, capsys):
        from fractions import Fraction
        from vhbilliards.lab import perturb_length

        other = perturb_length(lshape(), 0, Fraction(1, 50))
        other_path = tmp_path / "other.json"
        save_table(other, other_path)
        code = main(["continuity", lshape_file, str(other_path),
                     "--theta", "1.0", "--h", "1,0", "--t", "2.0,5.0",
                     "--m", "8"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["distance"] == 0.02
        assert len(out["delta_c"]) == 2

    def test_mismatch_exits_1(self, square_file, lshape_file, capsys):
        code = main(["continuity", square_file, lshape_file,
                     "--theta", "1.0", "--h", "1,0", "--t", "1.0",
                     "--m", "4"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CombinatoricsMismatch"


class TestGDeltaCommand:
    def test_runs_and_writes(self, tmp_path, capsys):
        config = {
            "word": "ENWS",
            "area_band": [0.5, 30],
            "q_list": [2],
            "j_max": 1,
            "n_list": [2],
            "grid_m": 4,
            "seed": 1,
            "theta_count": 4,
            "out_dir": str(tmp_path / "gd"),
        }
        cfg_path = tmp_path / "gd.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["gdelta-demo", str(cfg_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rows"] == 1
        assert (tmp_path / "gd" / "gdelta.csv").exists()
        assert (tmp_path / "gd" / "gdelta_summary.json").exists()


    @pytest.mark.parametrize("optional", [{}, {"seed": 3},
                                          {"seed": 3, "theta_count": 5}])
    def test_unset_options_take_library_defaults(self, tmp_path, capsys,
                                                 monkeypatch, optional):
        import vhbilliards.cli as cli

        seen = {}

        def fake_demo(*args, **kwargs):
            seen.update(kwargs)
            raise ConfigError("stop after the call")

        monkeypatch.setattr(cli, "gdelta_demo", fake_demo)
        config = {"word": "ENWS", "area_band": [0.5, 30], "q_list": [2],
                  "j_max": 1, "n_list": [2], "grid_m": 4} | optional
        cfg_path = tmp_path / "gd.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["gdelta-demo", str(cfg_path)]) == 1
        assert seen == optional

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        config = {"word": "ENWS", "area_band": [0.5, 30], "q_list": [2],
                  "j_max": 1, "n_list": [2], "grid_m": 4, "seed": 1,
                  "theta_cout": 4, "out_dir": str(tmp_path / "gd")}
        cfg_path = tmp_path / "gd.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["gdelta-demo", str(cfg_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "theta_cout" in err["message"]
        assert not (tmp_path / "gd").exists()


class TestTypedInputs:
    """A mistyped input exits 1 as a ConfigError naming it, before any
    work starts."""

    GDELTA = {"word": "ENWS", "area_band": [0.5, 30], "q_list": [2],
              "j_max": 1, "n_list": [2], "grid_m": 4}
    SWEEP = {"count": 2, "seed": 1, "n_gap": 2, "tau": 3.0, "grid_m": 4}

    @pytest.mark.parametrize("command, change, name", [
        ("gdelta-demo", {"area_band": ["1/0", 3]}, "area_band[0]"),
        ("gdelta-demo", {"area_band": 3}, "area_band"),
        ("gdelta-demo", {"area_band": [1, "x"]}, "area_band[1]"),
        ("gdelta-demo", {"q_list": "ab"}, "q_list[0]"),
        ("gdelta-demo", {"word": 3}, "word"),
        ("gdelta-demo", {"j_max": "x"}, "j_max"),
        ("gdelta-demo", {"seed": "x"}, "seed"),
        ("gdelta-demo", {"n_list": ["a"]}, "n_list[0]"),
        ("gdelta-demo", {"theta_count": "x"}, "theta_count"),
        ("gdelta-demo", {"theta_count": 0}, "theta_count"),
        ("gdelta-demo", {"q_list": [0]}, "q_list"),
        ("gdelta-demo", {"n_list": 3}, "n_list"),
        ("gdelta-demo", {"seed": -1}, "seed"),
        ("gdelta-demo", {"out_dir": 3}, "out_dir"),
        ("theta-sweep", {"seed": -1}, "seed"),
        ("theta-sweep", {"out_dir": 3}, "out_dir"),
        ("theta-sweep", {"table_path": 3}, "table_path"),
        ("orbit", ["--x", "inf"], "--x"),
        ("orbit", ["--x", "nan"], "--x"),
        ("orbit", ["--y=-inf"], "--y"),
        ("approximate", ["--Q", "0"], "--Q"),
        ("approximate", ["--eta", "0"], "--eta"),
        ("approximate", ["--eta", "inf"], "--eta"),
        ("correlate", ["--m", "0"], "--m"),
        ("correlate", ["--theta", "nan"], "--theta"),
        ("continuity", ["--m", "-3"], "--m"),
        ("continuity", ["--t", "1,x"], "--t"),
        ("continuity", ["--theta", "nan"], "--theta"),
    ], ids=["band-zero-denominator", "band-number", "band-word",
            "q-list-string", "word-number", "j-max-word", "seed-word",
            "n-list-word", "theta-count-word", "theta-count-zero",
            "q-list-zero", "n-list-number", "seed-negative",
            "out-dir-number", "sweep-seed-negative", "sweep-out-dir-number",
            "sweep-table-path-number", "orbit-x-inf", "orbit-x-nan",
            "orbit-y-minus-inf", "approximate-q-zero", "approximate-eta-zero",
            "approximate-eta-inf", "correlate-m-zero", "correlate-theta-nan",
            "continuity-m-negative", "continuity-t-word",
            "continuity-theta-nan"])
    def test_mistyped_input_exits_1(self, square_file, tmp_path, capsys,
                                    command, change, name):
        out_dir = tmp_path / "out"
        if command in ("gdelta-demo", "theta-sweep"):
            base = self.GDELTA if command == "gdelta-demo" else \
                self.SWEEP | {"table_path": square_file}
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(
                base | {"out_dir": str(out_dir)} | change))
            argv = [command, str(cfg_path)]
        elif command == "orbit":
            argv = [command, square_file, "--theta", "1.0", "--x", "1.5",
                    "--y", "1.5", "--time", "1", "--csv",
                    str(out_dir / "o.csv"), *change]
        elif command == "approximate":
            argv = [command, square_file, "--Q", "3", "--eta", "0.1",
                    "-o", str(out_dir / "a.json"), *change]
        elif command == "correlate":
            argv = [command, square_file, "--theta", "1.0", "--h", "1,0",
                    "--tmax", "1", "--step", "0.5", "--m", "4",
                    "-o", str(out_dir / "c.csv"), *change]
        else:
            argv = [command, square_file, square_file, "--theta", "1.0",
                    "--h", "1,0", "--t", "1.0", "--m", "4", *change]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert name in err["message"]
        assert not out_dir.exists()


class TestUsageErrors:
    """argparse's own usage errors are validation errors: exit 1 with one
    JSON ConfigError naming the argument, never argparse's exit 2."""

    @pytest.mark.parametrize("args, name", [
        (["orbit", "{table}", "--theta", "1", "--x", "1.5", "--y", "-inf",
          "--time", "1"], "--y"),
        (["orbit", "{table}", "--theta", "1", "--x", "0.5", "--y", "0.5"],
         "--time"),
        (["orbit", "{table}", "--theta", "1", "--x", "0.5", "--y", "0.5",
          "--time", "1", "--sx", "3"], "--sx"),
        (["correlate", "{table}", "--theta", "1", "--h", "1,0", "--tmax",
          "1", "--step", "0.5", "--m", "x"], "--m"),
        (["correlate", "{table}", "--theta", "1", "--h", "1,0", "--tmax",
          "1", "--step", "0.5", "--m", "4", "--budget", "5"], "--budget"),
        (["validate"], "table"),
        (["bogus"], "command"),
        ([], "command"),
    ], ids=["orbit-y-minus-inf", "orbit-missing-time", "orbit-sx-choice",
            "correlate-m-word", "correlate-budget", "validate-missing-table", "unknown-command",
            "no-command"])
    def test_usage_error_exits_1(self, square_file, capsys, args, name):
        argv = [a.format(table=square_file) for a in args]
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert name in err["message"]
        assert captured.out == ""

    def test_help_exits_0(self, capsys):
        for argv in (["--help"], ["orbit", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert "usage" in capsys.readouterr().out


def test_programming_error_escapes(square_file, monkeypatch):
    # only BilliardErrors and I/O errors are input errors; a bug keeps its
    # traceback instead of exiting 1
    import vhbilliards.cli as cli

    def buggy(*args, **kwargs):
        raise TypeError("planted bug")

    monkeypatch.setattr(cli, "tiling_parameters", buggy)
    with pytest.raises(TypeError, match="planted bug"):
        main(["validate", square_file])


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
