import ast
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import obslab
from obslab import cli, control, geometry, observability, report, trigpoly
from obslab.config import ExperimentConfig
from obslab.errors import ConfigError, PropertyViolation
from obslab.geometry import SpaceTimeSet
from obslab.report import RunReport, strip_timings, write_csv
from obslab.trigpoly import CheckResult
from oracles import (brute_force_single_mode_ratio, reference_csv,
                     remez_case_draws, sine_case_draws, space_time_box_draws,
                     to_rle)


def run(args):
    return cli.main(args)


def run_subprocess(tmp_path, sub, setting):
    """Run sub in a fresh interpreter on a config of setting, out to
    tmp_path / "out", so the process's own stderr can be read."""
    cfg = tmp_path / "setting.cfg"
    cfg.write_text(setting)
    return subprocess.run(
        [sys.executable, "-m", "obslab.cli", sub, "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(obslab.__file__))))


# -- config ---------------------------------------------------------------


def test_config_defaults_valid():
    cfg = ExperimentConfig()
    assert cfg.build_domain().n_modes == cfg.n_modes
    assert cfg.build_params().a == cfg.a


def test_config_round_trip():
    cfg = ExperimentConfig.from_text("[system]\na = 2.0\nb = -1.5\n"
                                     "[run]\nseed = 42\n")
    assert cfg.a == 2.0 and cfg.b == -1.5 and cfg.seed == 42
    again = ExperimentConfig.from_text(cfg.to_text())
    assert again == cfg


def test_config_field_level_errors():
    with pytest.raises(ConfigError, match="control.nu1"):
        ExperimentConfig.from_text("[control]\nnu1 = 2.0\nnu2 = 1.0\n")
    with pytest.raises(ConfigError, match="system.a"):
        ExperimentConfig.from_text("[system]\na = -1.0\n")
    with pytest.raises(ConfigError, match="interpolation.theta"):
        ExperimentConfig.from_text("[interpolation]\ntheta = 1.5\n")
    with pytest.raises(ConfigError, match="control.radius"):
        ExperimentConfig.from_text("[control]\nradius = 0\n")
    with pytest.raises(ConfigError, match="unknown"):
        ExperimentConfig.from_text("[system]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("[system]\na = not-a-number\n")
    # no library type checks these ranges again
    for setting, key in [("[domain]\nkind = disk\n", "domain.kind"),
                         ("[domain]\nlx = 0\n", "domain.lx"),
                         ("[domain]\nlx = -1.0\n", "domain.lx"),
                         ("[domain]\nkind = rectangle\nly = 0\n", "domain.ly"),
                         ("[domain]\nn_modes = 0\n", "domain.n_modes"),
                         ("[domain]\nnx = 0\n", "domain.nx"),
                         ("[domain]\nkind = rectangle\nny = 0\n", "domain.ny"),
                         ("[system]\nb = 0\n", "system.b"),
                         ("[interpolation]\ns1 = 0.75\n", "interpolation.s1"),
                         ("[interpolation]\ns1 = 0.9\n", "interpolation.s1"),
                         ("[interpolation]\nbeta = 0\n", "interpolation.beta"),
                         ("[control]\ntol = 1e-6\n", "control.tol"),
                         ("[control]\ntol = 0.1\n", "control.tol")]:
        with pytest.raises(ConfigError, match=rf"^{key}: "):
            ExperimentConfig.from_text(setting)


def test_config_rejects_non_finite_floats():
    # NaN is false under every comparison, so a range check alone let it by
    defaults = ExperimentConfig()
    floats = [(section, key)
              for section, keys in ExperimentConfig._SECTIONS.items()
              for key in keys if isinstance(getattr(defaults, key), float)]
    assert len(floats) == 17
    for section, key in floats:
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError,
                               match=rf"^{section}\.{key}: must be finite"):
                ExperimentConfig.from_text(f"[{section}]\n{key} = {value}\n")


def test_config_bounds_the_spectrum_and_the_mode_tables(tmp_path):
    # on (0, pi), lambda_1 = 1: the square of the slowest decay,
    # exp(-2 a horizon), which every norm sums, stays a normal float up to
    # a * horizon = 354.198
    ExperimentConfig.from_text("[system]\na = 354.0\n")
    ExperimentConfig.from_text("[system]\na = 0.354\nhorizon = 1000.0\n"
                               "[interpolation]\ns2 = 1.0\n")
    for setting, key in [("[system]\na = 355.0\n", "system.a"),
                         ("[system]\nhorizon = 355.0\n", "system.horizon"),
                         ("[system]\nb = 1e306\n", "system.b"),
                         ("[domain]\nlx = 1e-153\n", "domain.lx"),
                         ("[domain]\nkind = rectangle\nly = 1e-153\n",
                          "domain.ly")]:
        with pytest.raises(ConfigError, match=rf"^{key}: "):
            ExperimentConfig.from_text(setting)
    # an interval reads no ly
    ExperimentConfig.from_text("[domain]\nly = 1e-300\n")
    # a long side: lambda_1 = (pi / lx)^2 must be a normal float, and the
    # Gram's cell weight (dt * cell volume)^2 finite
    limit = "[domain]\nlx = 2.1060935446725317e154\n"
    ExperimentConfig.from_text(limit)
    # there counterexample's rotation periods 2 pi / (|b| lambda) overflow
    # to inf, which admit no mode, and it says so without a warning
    proc = run_subprocess(tmp_path, "counterexample", limit)
    assert proc.returncode == 3
    assert "Warning" not in proc.stderr and proc.stdout == ""
    _, values = report_values(tmp_path / "out")
    assert values["error"] == "InsufficientTruncationError"
    for setting, key in [("[domain]\nlx = 2.106093544672532e154\n", "domain.lx"),
                         ("[domain]\nlx = 1e300\n", "domain.lx"),
                         ("[domain]\nkind = rectangle\nly = 1e300\n",
                          "domain.ly"),
                         ("[domain]\nlx = 1e154\n[system]\nhorizon = 1e150\n",
                          "domain.lx")]:
        with pytest.raises(ConfigError, match=rf"^{key}: side too long"):
            ExperimentConfig.from_text(setting)
    # the weight names the horizon where dt is its larger factor, as where a
    # tiny a lets the decay bound pass a huge horizon
    for setting in ["[domain]\nlx = 1e150\n[system]\nhorizon = 1e200\n",
                    "[system]\na = 1e-300\nhorizon = 1e300\n"]:
        with pytest.raises(ConfigError, match=r"^system.horizon: horizon too long"):
            ExperimentConfig.from_text(setting)


@pytest.mark.parametrize("sub", ["telescope", "null-control", "time-optimal"])
def test_non_finite_horizon_exits_2(tmp_path, capsys, sub):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("[system]\nhorizon = nan\n")
    out = tmp_path / "out"
    assert run([sub, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "system.horizon" in err and "Traceback" not in err
    assert not out.exists()


def test_zero_direction_exits_2_naming_mu1(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("[observation]\nselector = direction\nmu1 = 0\nmu2 = 0\n")
    out = tmp_path / "out"
    assert run(["interp", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: observation.mu1: ")
    assert not out.exists()


def test_experiment_id_tracks_config_and_seed():
    a = ExperimentConfig()
    b = a.replaced(seed=1)
    assert a.experiment_id() != b.experiment_id()
    assert a.experiment_id() == ExperimentConfig().experiment_id()


# -- report ---------------------------------------------------------------


def test_report_render_and_strip():
    rep = RunReport("abc", "remez", 7)
    rep.add("sweep", cases=10, worst=0.5)
    rep.timings["remez"] = 1.234
    text = rep.render()
    assert "worst: 0.5" in text
    assert "time_remez" in text
    assert "time_remez" not in strip_timings(text)


def test_report_emits_csv(tmp_path):
    rep = RunReport("abc", "simulate", 0)
    rep.add_series("trace", "t,v", ([0.0, 0.5], [1.0, 0.25]))
    rep.write(tmp_path)
    assert (tmp_path / "report.txt").exists()
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "t,v"
    assert len(lines) == 3


# floats whose text a writer that converts or merges values could get wrong:
# both zeros, NaN of either sign, the infinities, subnormals
SPECIAL_FLOATS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                  5e-324, -5e-324, 2.2250738585072014e-308 / 3, 0.1, 1.0)


def _column(n: int):
    """Strategy for one CSV column of n values, of each kind a series holds."""
    floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    ints = st.integers(-2**63, 2**63 - 1)

    def of(values, size=n):
        return st.lists(values, min_size=size, max_size=size)

    return st.one_of(
        of(floats).map(lambda v: np.array(v, dtype=np.float64)),
        of(floats, 2 * n).map(lambda v: np.array(v, dtype=np.float64)[::2]),
        of(floats), of(st.integers()), of(st.booleans()),
        of(st.one_of(st.integers(), floats)),
        of(st.text(st.characters(codec="utf-8", exclude_characters=",\n"))),
        of(ints).map(lambda v: np.array(v, dtype=np.int64)),
        of(st.booleans()).map(lambda v: np.array(v, dtype=np.bool_)),
        st.just(range(n)))


@st.composite
def _series(draw):
    n = draw(st.integers(0, 12))
    return [draw(_column(n)) for _ in range(draw(st.integers(1, 4)))]


def _csv_bytes(writer, header, rows_or_columns) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        writer(path, header, rows_or_columns)
        with open(path, "rb") as fh:
            return fh.read()


@settings(max_examples=200, deadline=None)
@given(columns=_series(), block=st.integers(1, 5))
@example(columns=[np.array([0.0, -0.0, math.nan, -0.0, 0.0, math.inf,
                            -math.inf, 5e-324, 5e-324, 0.0]),
                  np.arange(10, dtype=np.int64), [1, 2.5, True, 0, -0.0,
                                                  3, 4, 5, 6, 7]],
         block=4)
@example(columns=[np.array([]), np.array([], dtype=np.int64), []], block=1)
@example(columns=[], block=1)
def test_csv_columns_match_the_row_wise_writer(columns, block):
    header = ",".join(f"c{k}" for k in range(len(columns)))
    with mock.patch.object(report, "CSV_BLOCK_ROWS", block):
        got = _csv_bytes(write_csv, header, columns)
    assert got == _csv_bytes(reference_csv, header, list(zip(*columns)))


def test_csv_of_one_block_plus_one_row_matches_the_row_wise_writer():
    n = report.CSV_BLOCK_ROWS + 1
    rng = np.random.default_rng(5)
    values = rng.choice(np.array(SPECIAL_FLOATS), n)
    values[::7] = rng.standard_normal(len(values[::7]))
    columns = (range(n), values, rng.integers(-3, 3, n), rng.random(n) < 0.5,
               [k % 3 for k in range(n)], [f"s{k % 5}" for k in range(n)])
    got = _csv_bytes(write_csv, "i,v,k,b,m,s", columns)
    assert got == _csv_bytes(reference_csv, "i,v,k,b,m,s", list(zip(*columns)))
    assert got.count(b"\n") == n + 1


@pytest.mark.parametrize("columns", [([0.0, 0.5], [1.0]),
                                     (np.zeros(3), range(2), [True] * 3),
                                     ([], [1])])
def test_csv_columns_of_unequal_length_are_refused(tmp_path, columns):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "s.csv", "a,b,c"[:2 * len(columns) - 1], columns)


def test_empty_report_emits_no_csv(tmp_path):
    rep = RunReport("abc", "simulate", 0)
    rep.write(tmp_path)
    assert list(tmp_path.glob("*.csv")) == []


# -- exit codes -----------------------------------------------------------


def test_exit_0_and_trace_csv(tmp_path):
    out = tmp_path / "out"
    assert run(["simulate", "--out", str(out)]) == 0
    (report_dir,) = out.iterdir()
    rows = (report_dir / "trace.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        t, observed, closed = (float(v) for v in row.split(","))
        assert abs(observed - math.exp(-t) * abs(math.cos(t))) <= 1e-12
        assert abs(observed - closed) <= 1e-12


def test_exit_2_on_malformed_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[control]\nnu1 = 2.0\nnu2 = 1.0\n")
    assert run(["simulate", "--config", str(cfg)]) == 2


def test_exit_2_on_missing_config():
    assert run(["simulate", "--config", "/nonexistent/x.cfg"]) == 2


def test_exit_2_on_unknown_subcommand():
    assert run(["frobnicate"]) == 2


def test_exit_3_on_numerical_failure_with_partial_report(tmp_path):
    cfg = tmp_path / "fixture.cfg"
    cfg.write_text("[observation]\ngenerator = fixture\n"
                   "fixture = /nonexistent/fixture.rle\n")
    out = tmp_path / "out"
    assert run(["interp", "--config", str(cfg), "--out", str(out)]) == 3
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    assert "status: convergence-failure" in text


def test_exit_3_on_a_linear_algebra_failure(tmp_path, monkeypatch):
    def singular(self, weights):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(control.ControlOperator, "gram", singular)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("[domain]\nnx = 8\nn_modes = 4\n"
                   "[observation]\nn_time = 16\nfill = 0.6\n")
    out = tmp_path / "out"
    assert run(["null-control", "--config", str(cfg), "--out", str(out)]) == 3
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    assert "status: convergence-failure" in text
    assert "error: LinAlgError" in text


def test_exit_4_on_property_violation(tmp_path, monkeypatch):
    # the sweep checks a block of lanes per remez_check call (2 + 1 here)
    def broken(f, E, p, degree):
        return CheckResult(lhs=np.ones(len(p)), rhs=np.full(len(p), 0.5),
                           holds=np.zeros(len(p), dtype=bool))

    monkeypatch.setattr(trigpoly, "remez_check", broken)
    out = tmp_path / "out"
    assert run(["remez", "--cases", "3", "--out", str(out)]) == 4
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    assert "status: violation" in text
    assert "cases: 3\nviolations: 3\nworst_ratio: 2.0\n" in text


def test_exit_4_when_a_property_violation_escapes(tmp_path, monkeypatch):
    def violated(cfg, rng, report):
        raise PropertyViolation("checked property failed")

    monkeypatch.setitem(cli._HANDLERS, "simulate", violated)
    out = tmp_path / "out"
    assert run(["simulate", "--out", str(out)]) == 4
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    assert "status: violation" in text
    assert "error: PropertyViolation" in text


def test_time_optimal_zero_radius_exits_2(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("[control]\nradius = 0\n")
    assert run(["time-optimal", "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "control.radius" in err and "Traceback" not in err


@pytest.mark.parametrize("depth", ["2", "3"])
def test_telescope_depth_below_four_exits_2(tmp_path, capsys, depth):
    # depth 2 has no ring to fit; depth 3 has no ring observation term
    cfg = tmp_path / "shallow.cfg"
    cfg.write_text(f"[interpolation]\ndepth = {depth}\n")
    out = tmp_path / "out"
    assert run(["telescope", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "interpolation.depth" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["[interpolation]\ndepth = 40",
                                     "[interpolation]\nbeta = 100",
                                     "[observation]\nn_time = 3"])
def test_telescope_ring_without_a_time_cell_exits_3(tmp_path, setting):
    # each config has a ring of positive measure in E that holds no time-cell
    # midpoint, so its observation is empty by discretisation, not by the
    # property failing
    cfg = tmp_path / "thin.cfg"
    cfg.write_text(setting + "\n")
    out = tmp_path / "out"
    assert run(["telescope", "--config", str(cfg), "--seed", "0",
                "--out", str(out)]) == 3
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    assert "status: convergence-failure" in text
    assert "error: ResolutionError" in text
    assert re.search(r"observation\.n_time: ring \d+, ", text)


def test_negative_seed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("[run]\nseed = -5\n")
    out = tmp_path / "out"
    for argv, key in ((["--config", str(cfg)], "run.seed"),
                      (["--seed", "-1"], "run.seed"),
                      (["--cases", "0"], "--cases")):
        assert run(["remez", "--cases", "3", "--out", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
    assert not out.exists()


def test_time_optimal_8x8_rectangle_is_bang_bang(tmp_path):
    cfg = tmp_path / "rect8.cfg"
    cfg.write_text("[domain]\nkind = rectangle\nnx = 8\nny = 8\n"
                   "[control]\nradius = 0.2\n")
    out = tmp_path / "out"
    assert run(["time-optimal", "--config", str(cfg), "--out", str(out)]) == 0
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    assert "bang_bang: true" in text and "stalled_trials: 0" in text
    rows = (report_dir / "time_optimal_trials.csv").read_text().split("\n")
    assert rows[0] == "trial,time,feasible,stop,lower,upper,iterations"
    assert len(rows) == 1 + 11 + 1                 # header, trials, final newline


def test_time_optimal_radius_holding_the_initial_state_exits_2(tmp_path,
                                                               capsys):
    # ||v0|| = 1 already lies in a target ball of radius 1.5
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[control]\nradius = 1.5\n")
    out = tmp_path / "out"
    assert run(["time-optimal", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "control.radius" in err and "Traceback" not in err
    assert not out.exists()
    # only time-optimal reads the radius
    assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0


def test_interp_window_without_good_times_exits_3(tmp_path):
    # a sparse region whose good-time set misses [0.97, 1.0] at seed 0
    cfg = tmp_path / "window.cfg"
    cfg.write_text("[observation]\nfill = 0.05\nmin_fraction = 0.0\n"
                   "[interpolation]\ns1 = 0.97\ns2 = 1.0\n")
    out = tmp_path / "out"
    assert run(["interp", "--config", str(cfg), "--seed", "0",
                "--out", str(out)]) == 3
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    assert "status: convergence-failure" in text
    assert "error: ResolutionError" in text and "[0.97, 1.0]" in text


@pytest.mark.parametrize("sub", ["estimate-L", "null-control"])
def test_unreachable_min_fraction_exits_3(tmp_path, sub):
    # boxes stop at 5% fill, so a region covering all cells is never drawn
    cfg = tmp_path / "sparse.cfg"
    cfg.write_text("[domain]\nnx = 16\nn_modes = 4\n"
                   "[observation]\nfill = 0.05\nmin_fraction = 1.0\n")
    out = tmp_path / "out"
    assert run([sub, "--config", str(cfg), "--out", str(out)]) == 3
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    assert "status: convergence-failure" in text
    assert "error: ResolutionError" in text
    assert "observation.min_fraction" in text and "1000 draws" in text


def test_time_optimal_reports_its_newton_polish(tmp_path):
    cfg = tmp_path / "rect8.cfg"
    cfg.write_text("[domain]\nkind = rectangle\nnx = 8\nny = 8\n"
                   "[control]\nradius = 0.2\n")
    out = tmp_path / "out"
    assert run(["time-optimal", "--config", str(cfg), "--out", str(out)]) == 0
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    values = dict(line.split(": ", 1) for line in text.splitlines()
                  if ": " in line)
    assert int(values["polish_newton_steps"]) > 0
    assert values["polish_mu"] == "1e-07"
    assert values["polish_stop"] == "converged"
    assert 0.0 <= float(values["gap"]) <= 1e-8
    assert "polish_iterations" not in values


def report_values(out):
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    return text, dict(line.split(": ", 1) for line in text.splitlines()
                      if ": " in line)


def test_time_optimal_box_without_zero_starts_admissible(tmp_path):
    # from u = 0, outside [0.5, 1.5], the first trial "reached" the free
    # decay's norm and the run exited 0 with terminal_norm 0.875 > 0.5
    cfg = tmp_path / "box.cfg"
    cfg.write_text("[control]\nnu1 = 0.5\nnu2 = 1.5\nradius = 0.5\n")
    out = tmp_path / "out"
    assert run(["time-optimal", "--config", str(cfg), "--out", str(out)]) == 3
    text, values = report_values(out)
    assert "status: convergence-failure" in text
    assert values["error"] == "InfeasibleError"
    assert "certified infeasible, distance >= 8.17" in values["message"]


@pytest.mark.parametrize("sub,setting,key", [
    ("interp", "[system]\na = 1e308\n", "system.a"),
    ("telescope", "[system]\na = 1e308\n", "system.a"),
    ("time-optimal", "[system]\na = 1e308\n", "system.a"),
    ("interp", "[system]\nb = 1e308\n", "system.b"),
    ("telescope", "[system]\nb = 1e308\n", "system.b"),
    ("counterexample", "[system]\nb = 1e308\n", "system.b"),
    ("time-optimal", "[system]\nb = 1e308\n", "system.b"),
    ("null-control", "[system]\nb = 1e308\n", "system.b"),
    ("estimate-L", "[system]\nb = 1e308\n", "system.b"),
    ("time-optimal", "[system]\nhorizon = 1e300\n", "system.horizon"),
    ("telescope", "[system]\nhorizon = 400\n", "system.horizon"),
    ("estimate-L", "[system]\nhorizon = 400\n", "system.horizon"),
    ("interp", "[system]\nhorizon = 400\n", "system.horizon"),
    ("null-control", "[system]\nhorizon = 400\n", "system.horizon"),
    ("simulate", "[domain]\nlx = 1e-300\n", "domain.lx"),
    ("interp", "[domain]\nkind = rectangle\nly = 1e-300\n", "domain.ly"),
    ("time-optimal", "[domain]\nlx = 1e300\n", "domain.lx"),
    ("interp", "[domain]\nlx = 1e300\n", "domain.lx"),
    ("telescope", "[domain]\nlx = 1e300\n", "domain.lx"),
    ("counterexample", "[domain]\nlx = 1e300\n", "domain.lx"),
    ("estimate-L", "[domain]\nlx = 1e300\n", "domain.lx"),
])
def test_extreme_config_exits_2_naming_the_key(tmp_path, sub, setting, key):
    # finite settings whose spectrum or mode tables overflow, whose slowest
    # mode's squared decay, which every norm sums, falls below the normal
    # floats by the horizon, or whose side is so long that lambda_1
    # underflows and (dt * dx)^2 overflows: the run used to read zero or NaN
    # tables or norms, warn, and exit 0, 3 or 4
    proc = run_subprocess(tmp_path, sub, setting)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error: {key}: ")
    assert "Warning" not in proc.stderr and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1     # the config error alone
    assert not (tmp_path / "out").exists()


def test_interp_and_telescope_name_the_extremal_lane(tmp_path):
    for sub, key in (("interp", "K_hat"), ("telescope", "N_hat")):
        out = tmp_path / sub
        assert run([sub, "--out", str(out)]) == 0
        _, values = report_values(out)
        lane = int(values[f"{key}_lane"])
        assert 0 <= lane < ExperimentConfig().batch
    # interp's per-probe series holds the lane's ratio: the constant itself
    (report_dir,) = (tmp_path / "interp").iterdir()
    rows = (report_dir / "interp_ratios.csv").read_text().splitlines()
    _, values = report_values(tmp_path / "interp")
    probe, ratio, _ = rows[1 + int(values["K_hat_lane"])].split(",")
    assert (probe, ratio) == (values["K_hat_lane"], values["K_hat"])


def test_time_optimal_control_outside_the_ball_is_a_violation(tmp_path,
                                                             monkeypatch):
    def corner(problem, op, u0):      # bang-bang, but far from the target
        u = problem.bounds[1] * op.region.mask
        norm = float(np.linalg.norm(op.free(problem.v0) + op.apply(u)))
        trial = control.Trial(op.region.horizon, 0.0, norm, 0, "converged")
        return trial, u, 1e-7

    monkeypatch.setattr(control, "_polish", corner)
    out = tmp_path / "out"
    assert run(["time-optimal", "--out", str(out)]) == 4
    text, values = report_values(out)
    assert "status: violation" in text
    assert values["bang_bang"] == "true"
    assert float(values["terminal_norm"]) > ExperimentConfig().radius


def test_interp_times_its_two_phases(tmp_path):
    cfg = tiny_config(tmp_path, "interval")
    out = tmp_path / "out"
    assert run(["interp", "--config", str(cfg), "--cases", "5",
                "--out", str(out)]) == 0
    text, values = report_values(out)
    for phase in ("interp", "interp.integral", "interp.equivalence"):
        assert float(values[f"time_{phase}"]) >= 0.0
    assert "time_" not in strip_timings(text)


def test_null_control_reports_solve_and_defect_times(tmp_path):
    cfg = tmp_path / "dual.cfg"
    cfg.write_text("[domain]\nn_modes = 6\nnx = 48\n"
                   "[observation]\nn_time = 32\nfill = 0.6\n"
                   "[control]\ntol = 0.05\n")
    out = tmp_path / "out"
    assert run(["null-control", "--config", str(cfg), "--out", str(out)]) == 0
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    for phase in ("solve", "L_hat", "defect"):
        assert f"time_null-control.{phase}: " in text
    assert "time_" not in strip_timings(text)
    # the inverse-power chain from z_star took at least one solve
    assert re.search(r"L_hat_iterations: [1-9]\d*\n", text)
    assert re.search(r"L_hat_stop: (stationary|budget)\n", text)
    assert re.search(r"L_hat_newton_steps: [1-9]\d*\n", text)


def test_estimate_l_times_each_region(tmp_path):
    cfg = tiny_config(tmp_path, "interval")
    out = tmp_path / "out"
    assert run(["estimate-L", "--config", str(cfg), "--out", str(out)]) == 0
    text, values = report_values(out)
    for phase in ("estimate-L", "estimate-L.config", "estimate-L.half"):
        assert float(values[f"time_{phase}"]) >= 0.0
    assert "time_" not in strip_timings(text)
    for region in ("config", "half"):
        section = text.split(f"section: estimate_L_{region}\n")[1]
        assert re.match(r"(.+\n)*L_hat_iterations: [1-9]\d*\n", section)
        assert re.match(r"(.+\n)*L_hat_stop: (stationary|budget)\n", section)


@pytest.mark.parametrize("flags", [["--time", "-1"], ["--multi", "0"],
                                   ["--time", "inf"], ["--time", "nan"]])
def test_counterexample_bad_flag_exits_2(tmp_path, capsys, flags):
    assert run(["counterexample", *flags, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert flags[0] in err and "Traceback" not in err


def test_counterexample_flags_do_not_gate_other_subcommands(tmp_path):
    # --time and --multi are read only by counterexample
    assert run(["simulate", "--time", "-1", "--multi", "0",
                "--out", str(tmp_path / "out")]) == 0


def test_sweep_all_counts_geometry_violations_under_optimize(tmp_path):
    # under python -O an assert-based check would vanish and report 0 failures
    script = ("import sys\n"
              "from obslab import cli, geometry\n"
              # a ball of almost no volume: |E| >= |D| / (2 |ball|) fails
              "geometry.ball_volume = lambda dim, radius: 1e-300\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(obslab.__file__)))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-O", "-c", script, "sweep-all",
                           "--cases", "4", "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    assert "section: geometry_sweep\ncases: 4\nfailures: 4\n" in text


def test_one_violated_lane_mid_block_is_counted_once_under_optimize(tmp_path):
    # blocks of 3 lanes (Remez, geometry) and one of 12 (sine); each sweep
    # sees one failed verdict, in the middle lane of a block
    script = ("import dataclasses, sys\n"
              "import numpy as np\n"
              "from obslab import cli, geometry, observability, trigpoly\n"
              "observability._FIELD_BLOCK = 3 * 8192\n"
              "def once(owner, name, call, lane):\n"
              "    original, calls = getattr(owner, name), []\n"
              "    def failing(*args):\n"
              "        res = original(*args)\n"
              "        calls.append(len(calls) + 1)\n"
              "        if calls[-1] != call:\n"
              "            return res\n"
              "        holds = np.array(res[1] if isinstance(res, tuple) else res.holds)\n"
              "        assert holds.all() and len(holds) == 2 * lane + 1\n"
              "        holds[lane] = False\n"
              "        if isinstance(res, tuple):\n"
              "            return res[0], holds\n"
              "        return dataclasses.replace(res, holds=holds)\n"
              "    setattr(owner, name, failing)\n"
              "once(trigpoly, 'remez_check', 2, 1)\n"
              "once(trigpoly, 'sine_integral_bound', 1, 5)\n"
              "once(geometry, 'good_times', 2, 1)\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(obslab.__file__)))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-O", "-c", script, "sweep-all",
                           "--cases", "12", "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    assert "section: remez_sweep\ncases: 12\nviolations: 1\n" in text
    assert "section: sine_sweep\ncases: 12\nviolations: 1\n" in text
    assert "section: geometry_sweep\ncases: 12\nfailures: 1\n" in text


# -- sweep-all's block sweeps: the per-case draws, lane for lane ------------


def spied(mp, owner, name):
    """Record each call of owner.name: its arguments and its result."""
    calls, original = [], getattr(owner, name)

    def spy(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    mp.setattr(owner, name, spy)
    return calls


def block_edges(blk):
    """--cases values around a block of blk lanes, and a long sweep."""
    return sorted({1, max(blk - 1, 1), blk, blk + 1, 300})


def blocks_of(cases, blk):
    return [min(blk, cases - lo) for lo in range(0, cases, blk)]


# _FIELD_BLOCK of 5 grid fields: Remez and geometry blocks of 5 lanes
@pytest.mark.parametrize("field_block", [None, 5 * 8192])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_remez_sweep_checks_the_per_case_draws_in_order(monkeypatch, seed,
                                                        field_block):
    if field_block:
        monkeypatch.setattr(observability, "_FIELD_BLOCK", field_block)
    blk = observability.lane_block(trigpoly.N_CELLS)
    for cases in block_edges(blk):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        with monkeypatch.context() as mp:
            calls = spied(mp, trigpoly, "remez_check")
            cli._remez_sweep(rng, cases)
        assert [len(args[2]) for args, _ in calls] == blocks_of(cases, blk)
        edge_redraws = 0
        lanes = [lane for (f, E, p, degree), _ in calls
                 for lane in zip(f.sin_coeffs, f.cos_coeffs, E, p, degree)]
        for i, (a, b, E, p, degree) in enumerate(lanes):
            d, a_ref, b_ref, E_ref, p_ref, redrawn = remez_case_draws(ref)
            assert degree == d and p == p_ref
            assert np.array_equal(a, np.pad(a_ref, (0, 8 - d)))
            assert np.array_equal(b, np.pad(b_ref, (0, 8 - d)))
            assert np.array_equal(E, E_ref)
            edge_redraws += redrawn > 0 and i % blk in (0, blk - 1)
        assert rng.bit_generator.state == ref.bit_generator.state
    # seed 7 redraws the union of case 50, the first lane of a block
    assert edge_redraws or seed != 7


@pytest.mark.parametrize("seed", [0, 5])
def test_sine_sweep_checks_the_per_case_draws_in_order(monkeypatch, seed):
    blk = observability.lane_block(trigpoly.SINE_CELLS)
    for cases in block_edges(blk):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        with monkeypatch.context() as mp:
            calls = spied(mp, trigpoly, "sine_integral_bound")
            cli._sine_violations(rng, cases)
        assert [len(case.F) for (case,), _ in calls] == blocks_of(cases, blk)
        for (case,), _ in calls:
            for lane in zip(case.lam, case.b, case.S, case.delta, case.F):
                lam, b, S, delta, F = sine_case_draws(ref)
                assert lane[:4] == (lam, b, S, delta)
                assert np.array_equal(lane[4], F)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed", [0, 5])
def test_geometry_sweep_checks_the_per_case_draws_in_order(monkeypatch, seed):
    domain = ExperimentConfig().build_domain()
    blk = observability.lane_block(32 * domain.n_cells)
    for cases in block_edges(blk):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        with monkeypatch.context() as mp:
            calls = spied(mp, geometry, "good_times")
            cli._geometry_failures(domain, 1.0, rng, cases)
        assert [len(args[0]) for args, _ in calls] == blocks_of(cases, blk)
        for (masks, horizon, dom), _ in calls:
            assert horizon == 1.0 and dom is domain
            for mask in masks:
                assert np.array_equal(mask, space_time_box_draws(
                    ref, 32, domain.n_cells, 0.2))
        assert rng.bit_generator.state == ref.bit_generator.state


def sweep_lanes(monkeypatch, field_block, sweep, owner, name):
    """Each lane's arguments and results in a sweep run with _FIELD_BLOCK
    set to field_block."""
    with monkeypatch.context() as mp:
        mp.setattr(observability, "_FIELD_BLOCK", field_block)
        calls = spied(mp, owner, name)
        sweep()
    return calls


# a lane of one grid field, the default, and blocks of 7 grid fields
FIELD_BLOCKS = [1, observability._FIELD_BLOCK, 7 * 8192]


@pytest.mark.parametrize("seed", [1, 2])
def test_remez_lanes_are_bit_identical_in_every_block(monkeypatch, seed):
    runs = []
    for field_block in FIELD_BLOCKS:
        calls = sweep_lanes(monkeypatch, field_block, lambda: cli._remez_sweep(
            np.random.default_rng(seed), 40), trigpoly, "remez_check")
        runs.append([np.concatenate([getattr(res, k) for _, res in calls])
                     for k in ("lhs", "rhs", "holds")])
    for run_ in runs[1:]:
        assert all(np.array_equal(x, y) for x, y in zip(runs[0], run_))
    # the one-lane call: a lone polynomial of its own degree
    for (f, E, p, degree), res in calls:
        for i, d in enumerate(degree):
            one = trigpoly.remez_check(trigpoly.TrigPoly(
                f.sin_coeffs[i, :d + 1], f.cos_coeffs[i, :d + 1]), E[i], p[i])
            assert (one.lhs, one.rhs, one.holds) == (
                res.lhs[i], res.rhs[i], res.holds[i])
            assert type(one.lhs) is float and type(one.holds) is bool


@pytest.mark.parametrize("seed", [1, 2])
def test_sine_lanes_are_bit_identical_in_every_block(monkeypatch, seed):
    runs = []
    for field_block in FIELD_BLOCKS:
        calls = sweep_lanes(monkeypatch, field_block, lambda: cli._sine_violations(
            np.random.default_rng(seed), 40), trigpoly, "sine_integral_bound")
        runs.append([np.concatenate([getattr(res, k) for _, res in calls])
                     for k in ("lhs", "rhs", "holds")])
    for run_ in runs[1:]:
        assert all(np.array_equal(x, y) for x, y in zip(runs[0], run_))
    for (case,), res in calls:
        for i in range(len(case.F)):
            one = trigpoly.sine_integral_bound(trigpoly.SineBoundCase(
                float(case.lam[i]), float(case.b[i]), float(case.S[i]),
                float(case.delta[i]), case.F[i]))
            assert (one.lhs, one.rhs, one.holds) == (
                res.lhs[i], res.rhs[i], res.holds[i])


@pytest.mark.parametrize("seed", [1, 2])
def test_geometry_lanes_are_bit_identical_in_every_block(monkeypatch, seed):
    domain = ExperimentConfig().build_domain()
    runs = []
    for field_block in FIELD_BLOCKS:
        calls = sweep_lanes(monkeypatch, field_block, lambda: cli._geometry_failures(
            domain, 1.0, np.random.default_rng(seed), 20), geometry, "good_times")
        runs.append([np.concatenate([res[k] for _, res in calls]) for k in (0, 1)])
    for run_ in runs[1:]:
        assert all(np.array_equal(x, y) for x, y in zip(runs[0], run_))
    for (masks, horizon, dom), (good, holds) in calls:
        for mask, g, ok in zip(masks, good, holds):
            assert ok
            E = geometry.good_time_set(SpaceTimeSet(mask, horizon, dom))
            assert np.array_equal(E.mask, g)


def test_sweep_all_reports_phase_timings(tmp_path):
    out = tmp_path / "out"
    assert run(["sweep-all", "--cases", "5", "--out", str(out)]) == 0
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    for phase in ("sweep-all.remez", "sweep-all.sine", "sweep-all.geometry",
                  "sweep-all"):
        assert f"time_{phase}: " in text
    assert "time_" not in strip_timings(text)


def test_counterexample_multi_reports_three_times(tmp_path):
    out = tmp_path / "out"
    assert run(["counterexample", "--multi", "3", "--out", str(out)]) == 0
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    assert "n_times: 3" in text
    rows = (report_dir / "counterexample_traces.csv").read_text()
    assert len(rows.strip().split("\n")) == 4


SELECTORS = {"first": "", "full": "selector = full\n",
             "direction": "selector = direction\nmu1 = 0.6\nmu2 = -0.8\n"}


def tiny_config(tmp_path, kind, selector="first"):
    """Every subcommand at a few cells, modes and cases."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"[domain]\nkind = {kind}\nnx = 8\nny = 8\nn_modes = 4\n"
                   "[observation]\nn_time = 16\nfill = 0.6\n"
                   + SELECTORS[selector] +
                   "[control]\ntol = 0.05\nradius = 0.25\n"
                   "[sweep]\nbatch = 4\n")
    return cfg


@pytest.mark.parametrize("sub,selector", [
    *(pytest.param(sub, "first", id=sub) for sub in cli.SUBCOMMANDS),
    *(pytest.param("interp", sel, id=f"interp-{sel}")
      for sel in ("direction", "full"))])
@pytest.mark.parametrize("kind", ["interval", "rectangle"])
def test_determinism_same_seed_same_report(tmp_path, kind, sub, selector):
    cfg = tiny_config(tmp_path, kind, selector)
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run([sub, "--config", str(cfg), "--cases", "5", "--seed", "9",
                    "--out", str(out)])
        (report_dir,) = out.iterdir()
        csvs = sorted(report_dir.glob("*.csv"))
        runs.append((code,
                     strip_timings((report_dir / "report.txt").read_text()),
                     [(p.name, p.read_text()) for p in csvs]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kind", ["interval", "rectangle"])
@pytest.mark.parametrize("selector,section", [
    ("direction", "direction_reduction"), ("full", "full_pointwise")])
def test_interp_reports_and_gates_its_selector_check(tmp_path, capsys, kind,
                                                      selector, section):
    cfg = tiny_config(tmp_path, kind, selector)
    out = tmp_path / "out"
    assert run(["interp", "--config", str(cfg), "--cases", "5",
                "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text, values = report_values(out)
    assert "status: ok" in text and f"section: {section}\n" in text
    if selector == "direction":      # the gates scale with mu1^2 + mu2^2 = 1
        assert float(values["amplitude_defect"]) <= 1e-12
        assert float(values["field_defect"]) <= 1e-10
    else:
        assert int(values["n_times"]) > 0
        assert math.isfinite(float(values["max_M_hat"]))
        assert float(values["min_trace"]) > 0


def test_interp_selector_checks_exit_4_on_a_seeded_defect(tmp_path,
                                                          monkeypatch):
    transform = observability.direction_transform
    monkeypatch.setattr(observability, "direction_transform",
                        lambda z, mu1, mu2: transform(z, mu1, mu2) * (1 + 1e-6))
    out = tmp_path / "direction"
    cfg = tiny_config(tmp_path, "interval", "direction")
    assert run(["interp", "--config", str(cfg), "--cases", "5",
                "--out", str(out)]) == 4
    text, values = report_values(out)
    assert "status: violation" in text
    assert float(values["field_defect"]) > 1e-10
    # no M from the pointwise fit: every full-observation constant is inf
    monkeypatch.setattr(observability, "solve_increasing",
                        lambda fn, target: math.inf)
    out = tmp_path / "full"
    cfg = tiny_config(tmp_path, "interval", "full")
    assert run(["interp", "--config", str(cfg), "--cases", "5",
                "--out", str(out)]) == 4
    text, values = report_values(out)
    assert "status: violation" in text and values["max_M_hat"] == "inf"


def counted(monkeypatch, calls, owners, name):
    """Count calls of owners' attribute name, one shared wrapper for all."""
    original = getattr(owners[0], name)

    def spy(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, spy)


@pytest.mark.parametrize("kind", ["interval", "rectangle"])
@pytest.mark.parametrize("selector", ["first", "direction", "full"])
def test_interp_observes_once_at_every_selector(tmp_path, monkeypatch, kind,
                                                selector):
    calls = {}
    counted(monkeypatch, calls, [observability], "observation_profile")
    counted(monkeypatch, calls, [observability, geometry], "good_time_set")
    cfg = tiny_config(tmp_path, kind, selector)
    assert run(["interp", "--config", str(cfg), "--cases", "5",
                "--out", str(tmp_path / "out")]) == 0
    assert calls == {"observation_profile": 1, "good_time_set": 1}


def per_case_equivalence_draws(rng, n):
    """The equivalence sweep's (pi1, theta, F1, F2, F3), one case at a time."""
    cases = []
    for _ in range(n):
        theta = float(rng.uniform(0.1, 0.9))
        pi1 = float(rng.uniform(0.5, 10.0))
        F3 = rng.uniform(0.1, 10.0, size=8)
        F2 = rng.uniform(0.0, 1.0, size=8) * F3
        e = np.geomspace(1e-9, 1 - 1e-9, 128)[:, None]
        best = (pi1 * (e ** (-theta / (1.0 - theta)) * F2 + e * F3)).min(axis=0)
        cases.append((pi1, theta, np.minimum(0.9 * best, F3), F2, F3))
    return cases


@pytest.mark.parametrize("forced", [(36,), (3, 5)])
def test_interp_sweep_draws_and_counts_every_case(tmp_path, monkeypatch,
                                                  forced):
    # 37 cases is no multiple of the block size, so the last block is partial;
    # the forced cases' verdicts fail, each counted once
    start = {}
    unit_lanes = observability.unit_lanes

    def lanes_spy(domain, rng, n):      # the last draw before the sweep
        lanes = unit_lanes(domain, rng, n)
        start.update(rng=rng, state=rng.bit_generator.state)
        return lanes

    seen = []
    equivalence = observability.interp_equivalence

    def equivalence_spy(pi1, theta, F1, F2, F3):
        res = equivalence(pi1, theta, F1, F2, F3)
        lo = len(seen)
        seen.extend(zip(pi1, theta, F1, F2, F3))
        holds = res.holds.copy()
        holds[[i - lo for i in forced if lo <= i < len(seen)]] = False
        return observability.EquivalenceResult(res.eps_form_passed, holds)

    monkeypatch.setattr(observability, "unit_lanes", lanes_spy)
    monkeypatch.setattr(observability, "interp_equivalence", equivalence_spy)
    out = tmp_path / "out"
    assert run(["interp", "--cases", "37", "--out", str(out)]) == 4
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    assert f"section: equivalence_sweep\ncases: 37\nfailures: {len(forced)}\n" in text
    ref = np.random.default_rng()
    ref.bit_generator.state = start["state"]
    expected = per_case_equivalence_draws(ref, 37)
    assert len(seen) == 37
    for got, want in zip(seen, expected):
        assert [np.asarray(v).tobytes() for v in got] == [
            np.asarray(v).tobytes() for v in want]
    assert start["rng"].bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("kind", ["interval", "rectangle"])
def test_null_control_builds_one_operator(tmp_path, monkeypatch, kind):
    calls = {}
    counted(monkeypatch, calls, [control.ControlOperator], "__init__")
    cfg = tiny_config(tmp_path, kind)
    assert run(["null-control", "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == 0
    assert calls == {"__init__": 1}


def test_no_assert_statement_under_src():
    # asserts vanish under python -O; every check in src/ must raise
    for path in pathlib.Path(obslab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert not [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Assert)], path.name


def src_trees():
    """Module name -> parsed source, for every module under src/obslab/."""
    return {path.stem: ast.parse(path.read_text())
            for path in pathlib.Path(obslab.__file__).parent.glob("*.py")}


def readme_list(marker):
    """The dotted names in backticks of the README bullets after marker."""
    readme = pathlib.Path(__file__).parents[1].joinpath("README.md").read_text()
    listed = readme.split(marker)[1].split("\n\n")[1]     # its bullets
    return set(re.findall(r"`(\w+(?:\.\w+)+)`", listed))


def attribute_reads(trees):
    """(base, name) of every attribute read, base being the name or attribute
    the read is taken on; a read on a module imported with ``import`` (np,
    math, ...) reaches nothing under src/, so it is left out."""
    modules = {(alias.asname or alias.name).split(".")[0]
               for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in modules):
                reads.add((getattr(node.value, "id",
                                   getattr(node.value, "attr", None)),
                           node.attr))
    return reads


def test_every_public_name_under_src_is_referenced():
    # a public function, class, method or property that no code in src/
    # reads, apart from its definition, is reached by no subcommand;
    # README lists the few kept on purpose
    allowed = readme_list("on purpose")
    trees = src_trees()
    public = {}     # qualified name -> (its class or None, its name)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                public[f"{module}.{node.name}"] = (None, node.name)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        public[f"{module}.{node.name}.{item.name}"] = (
                            node.name, item.name)
    public = {q: key for q, key in public.items() if not key[1].startswith("_")}
    classes = {owner for owner, _ in public.values()} - {None}
    names = {node.id for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    # attrs: (owner class or None, name)
    attrs = {(owner if owner in classes else None, name)
             for owner, name in attribute_reads(trees)}

    def reached(owner, name):
        return ((owner is None and name in names) or (None, name) in attrs
                or (owner, name) in attrs)

    assert allowed and allowed <= set(public)
    assert sorted(q for q, key in public.items()
                  if q not in allowed and not reached(*key)) == []
    assert sorted(q for q in allowed if reached(*public[q])) == []


def test_every_record_field_under_src_is_read():
    # a dataclass field that no code in src/ reads as an attribute is set
    # for the tests alone; README lists the few kept unread by design
    allowed = readme_list("unread by design")
    trees = src_trees()
    fields = {}     # qualified name -> field name
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                for item in node.body:
                    if (isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)):
                        fields[f"{module}.{node.name}.{item.target.id}"] = (
                            item.target.id)
    read = {name for _, name in attribute_reads(trees)}
    assert allowed and allowed <= set(fields)
    assert sorted(q for q, name in fields.items()
                  if q not in allowed and name not in read) == []
    assert sorted(q for q in allowed if fields[q] in read) == []


def test_no_module_but_semigroup_reads_spectral_state():
    # a state is an (n_modes, 2) array from the CLI through every solver;
    # SpectralState is the per-state reference the tests check lanes against
    readers = []
    for path in pathlib.Path(obslab.__file__).parent.glob("*.py"):
        if path.name == "semigroup.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else node.value if isinstance(node, ast.Constant)
                    else None)
            if name == "SpectralState":
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_no_oracle_is_defined_under_src():
    # oracles live in tests/oracles.py, out of every solver's reach
    names = set()
    for path in pathlib.Path(obslab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    assert not [n for n in names
                if n.startswith(("brute_force", "grid_scan", "least_squares"))]


def test_oracles_use_no_private_name_of_obslab():
    # an oracle shares no solver internals: it imports and reads only
    # obslab's public names
    path = pathlib.Path(__file__).with_name("oracles.py")
    private = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("obslab")):
            private += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            private.append(node.attr)
    assert not private


def test_different_seed_changes_report(tmp_path):
    texts = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert run(["remez", "--cases", "50", "--seed", seed,
                    "--out", str(out)]) == 0
        (report_dir,) = out.iterdir()
        texts.append(strip_timings((report_dir / "report.txt").read_text()))
    assert texts[0] != texts[1]


@pytest.mark.parametrize("kind,header", [("interval", "t,x,value"),
                                         ("rectangle", "t,x,y,value")])
def test_null_control_csv_is_plain_floats(tmp_path, kind, header):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(f"[domain]\nkind = {kind}\nnx = 8\nny = 8\nn_modes = 4\n"
                   "[observation]\nn_time = 16\nfill = 0.6\n"
                   "[control]\ntol = 0.05\n")
    out = tmp_path / "out"
    assert run(["null-control", "--config", str(cfg), "--seed", "0",
                "--out", str(out)]) == 0
    (report_dir,) = out.iterdir()
    lines = (report_dir / "control_field.csv").read_text().strip().split("\n")
    assert lines[0] == header
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert rows and all(len(r) == header.count(",") + 1 for r in rows)
    cells = [r[:-1] for r in rows]
    assert len(set(cells)) == len(cells)


def test_simulate_reports_plain_eigenvalue(tmp_path):
    out = tmp_path / "out"
    assert run(["simulate", "--out", str(out)]) == 0
    (report_dir,) = out.iterdir()
    assert "eigenvalue: 1.0\n" in (report_dir / "report.txt").read_text()


def test_report_renders_numpy_scalars_plainly():
    rep = RunReport("abc", "simulate", 0)
    rep.add("s", x=np.float64(0.25), y=np.float32(0.5), ok=np.bool_(True),
            bad=np.bool_(False))
    text = rep.render()
    assert "x: 0.25\ny: 0.5\nok: true\nbad: false\n" in text


@pytest.mark.parametrize("kind", ["interval", "rectangle"])
def test_no_report_renders_numpy_reprs(tmp_path, kind):
    cfg = tiny_config(tmp_path, kind)
    out = tmp_path / "out"
    for sub in cli.SUBCOMMANDS:
        code = run([sub, "--config", str(cfg), "--cases", "5", "--seed", "0",
                    "--out", str(out)])
        assert code in (0, 3, 4)
    reports = sorted(out.glob("*/report.txt"))
    assert len(reports) == len(cli.SUBCOMMANDS)
    for path in reports:
        assert "np." not in path.read_text(), path.parent.name


def test_subcommands_sharing_out_keep_their_reports(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("[domain]\nnx = 8\nn_modes = 4\n"
                   "[observation]\nn_time = 16\nfill = 0.6\n"
                   "[control]\ntol = 0.05\n")
    out = tmp_path / "out"
    for sub in ("estimate-L", "null-control"):
        assert run([sub, "--config", str(cfg), "--seed", "0",
                    "--out", str(out)]) == 0
    reports = {p.parent.name: p.read_text() for p in out.glob("*/report.txt")}
    assert len(reports) == 2
    for name, text in reports.items():
        sub = name.rsplit("-", 1)[0]
        assert f"subcommand: {sub}\n" in text


DUAL_CONFIG = ("[domain]\nn_modes = 6\nnx = 48\n"
               "[observation]\nn_time = 32\nfill = 0.6\n"
               "[control]\ntol = 0.05\n")


def test_null_control_at_horizon_2_holds_its_bound(tmp_path):
    # the certificate's constant is that of the time-reflected region; with
    # the region's own constant this seed broke the bound sup <= ||v0||/L
    cfg = tmp_path / "dual.cfg"
    cfg.write_text(DUAL_CONFIG + "[system]\nhorizon = 2.0\n")
    out = tmp_path / "out"
    assert run(["null-control", "--config", str(cfg), "--seed", "7",
                "--out", str(out)]) == 0
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    values = dict(line.split(": ", 1) for line in text.splitlines()
                  if ": " in line)
    assert float(values["sup_norm"]) <= float(values["control_bound"])


@pytest.mark.parametrize("seed", ["0", "2"])
def test_null_control_tight_tol_passes_the_duality_check(tmp_path, seed):
    # the pairing's two sides are near 1e-7 here; measured against their own
    # size, correct pairings read 8.8e-8 and 3.4e-8 and failed the 1e-8 gate
    cfg = tmp_path / "tight.cfg"
    cfg.write_text(DUAL_CONFIG.replace("tol = 0.05", "tol = 2e-6"))
    out = tmp_path / "out"
    assert run(["null-control", "--config", str(cfg), "--seed", seed,
                "--out", str(out)]) == 0
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    values = dict(line.split(": ", 1) for line in text.splitlines()
                  if ": " in line)
    assert float(values["terminal_norm"]) <= 2e-6
    assert float(values["duality_defect"]) <= 1e-8


def test_null_control_default_config_meets_its_target(tmp_path):
    # a region of the default config on which subgradient descent on the
    # nonsmooth dual stalls above tol
    out = tmp_path / "out"
    assert run(["null-control", "--seed", "2", "--out", str(out)]) == 0
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    values = dict(line.split(": ", 1) for line in text.splitlines()
                  if ": " in line)
    assert float(values["terminal_norm"]) <= 0.01
    assert (float(values["sup_norm"]) <= float(values["least_sup_lower"])
            <= float(values["control_bound"]))


def test_null_control_certificate_violation_under_optimize(tmp_path):
    # an assert-based certificate check would vanish under python -O
    script = ("import sys\n"
              "from obslab import cli, control\n"
              "control.estimate_L = lambda *args, **kwargs: "
              "control.LSearch(1e6, 1, 'stationary', 0)\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    cfg = tmp_path / "dual.cfg"
    cfg.write_text(DUAL_CONFIG)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(obslab.__file__)))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-O", "-c", script, "null-control",
                           "--config", str(cfg), "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    assert "status: violation" in text
    assert "error: PropertyViolation" in text
    assert "exceeds the duality bound" in text


def fixture_run(tmp_path, fixture_text, horizon=1.0, sub="null-control",
                *args, config=DUAL_CONFIG):
    """A subcommand at the dual sizes (or config's), its region read from a
    fixture file."""
    path = tmp_path / "region.rle"
    path.write_text(fixture_text)
    cfg = tmp_path / "fixture.cfg"
    cfg.write_text(config.replace(
        "[observation]\n",
        f"[observation]\ngenerator = fixture\nfixture = {path}\n")
        + f"[system]\nhorizon = {horizon}\n")
    out = tmp_path / "out"
    return run([sub, "--config", str(cfg), "--out", str(out), *args]), out


def fixture_rle(n_cells, horizon):
    dom = ExperimentConfig(nx=n_cells, n_modes=6).build_domain()
    region = SpaceTimeSet.random(dom, horizon, 32, np.random.default_rng(0),
                                 fill=0.6)
    return to_rle(region)


def test_fixture_is_read_at_the_config_horizon(tmp_path):
    code, _ = fixture_run(tmp_path, fixture_rle(48, 2.0), horizon=2.0)
    assert code == 0


@pytest.mark.parametrize("n_cells,fixture_horizon", [(40, 1.0), (48, 2.0)])
def test_fixture_not_matching_the_config_exits_2(tmp_path, capsys, n_cells,
                                                 fixture_horizon):
    # wrong cell count; a region drawn over (0, 2) for a horizon of 1
    code, out = fixture_run(tmp_path, fixture_rle(n_cells, fixture_horizon))
    assert code == 2
    err = capsys.readouterr().err
    assert "observation.fixture" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("sub", ["null-control", "interp", "telescope",
                                 "estimate-L"])
def test_fixture_of_zero_measure_exits_2(tmp_path, capsys, sub):
    code, out = fixture_run(tmp_path, "nt=4 nx=48 T=1.0\n" + "\n" * 4, sub=sub)
    assert code == 2
    err = capsys.readouterr().err
    assert "observation.fixture" in err and "zero measure" in err
    assert not out.exists()


@pytest.mark.parametrize("run_text", ["46:5", "-3:2", "2:0", "1:-1"])
def test_fixture_run_outside_the_row_exits_2(tmp_path, capsys, run_text):
    # read unchecked, these were clipped, wrapped or dropped in silence
    code, out = fixture_run(tmp_path, f"nt=4 nx=48 T=1.0\n0:8\n{run_text}\n",
                            sub="estimate-L")
    assert code == 2
    err = capsys.readouterr().err
    assert "observation.fixture" in err and repr(run_text) in err
    assert not out.exists()


def test_estimate_l_reports_the_constant_of_the_region_as_given(tmp_path):
    # one mode has a closed-form oracle; on a region asymmetric in time the
    # constant of the reflected region is 12-34% away from it
    text = fixture_rle(48, 1.0)
    dom = ExperimentConfig(nx=48, n_modes=1).build_domain()
    region = SpaceTimeSet.from_rle(text, dom)
    assert not np.array_equal(region.mask, region.mask[::-1])
    code, out = fixture_run(tmp_path, text, 1.0, "estimate-L",
                            config=DUAL_CONFIG.replace("n_modes = 6",
                                                       "n_modes = 1"))
    assert code == 0
    (report_dir,) = out.iterdir()
    report = (report_dir / "report.txt").read_text()
    config = report.split("section: estimate_L_config\n")[1].split("\n\n")[0]
    L_hat = float(dict(line.split(": ", 1) for line in config.splitlines())["L_hat"])
    assert L_hat == pytest.approx(brute_force_single_mode_ratio(
        region, ExperimentConfig().build_params()), rel=1e-3)


def test_fixture_without_a_time_row_exits_2(tmp_path, capsys):
    code, out = fixture_run(tmp_path, "nt=0 nx=48 T=1.0\n", sub="interp")
    assert code == 2
    err = capsys.readouterr().err
    assert "observation.fixture" in err and "n_time >= 1" in err
    assert not out.exists()


def test_unparseable_fixture_exits_2(tmp_path, capsys):
    code, _ = fixture_run(tmp_path, "nt=32 T=1.0\n")
    assert code == 2
    assert "observation.fixture" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["[domain]\nlx = 1\n",
                                     "[system]\nhorizon = 300\n"])
def test_estimate_l_exits_0_where_the_slowest_mode_decays_below_tol(
        tmp_path, setting):
    # exp(-a lambda_1 T), exp(-pi^2) ~ 5e-5 at lx = 1, is below half the
    # default tol, so a solve of the unscaled target exp(A^T T) v0 ends at
    # z = 0, whose ratio is 0 / 0; at horizon = 300 the chain's
    # exp(A^T T) exp(AT) y, exp(-600) ||y||, also has a norm that underflows
    cfg = tmp_path / "decayed.cfg"
    cfg.write_text(setting)
    out = tmp_path / "out"
    assert run(["estimate-L", "--config", str(cfg), "--out", str(out)]) == 0
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    for region in ("config", "half"):
        section = text.split(f"section: estimate_L_{region}\n")[1]
        L_hat = float(re.match(r"(.+\n)*L_hat: (.+)\n", section).group(2))
        assert 0 < L_hat < math.inf


def test_estimate_l_exit_3_when_ratio_collapses(tmp_path, monkeypatch):
    # every dual solve returns its target as z with a zero bulk
    monkeypatch.setattr(control, "_null_solve", lambda op, free, target: (
        1.0, free, None, 0.0, 0.0, 0.0, 0.0, 1))
    cfg = tmp_path / "small.cfg"
    cfg.write_text("[domain]\nnx = 8\nn_modes = 4\n"
                   "[observation]\nn_time = 16\nfill = 0.6\n")
    out = tmp_path / "out"
    assert run(["estimate-L", "--config", str(cfg), "--out", str(out)]) == 3
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    assert "status: convergence-failure" in text
    assert "collapsed to zero" in text
