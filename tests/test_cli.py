import math
import os
import subprocess
import sys

import numpy as np
import pytest

import obslab
from obslab import cli, control, trigpoly
from obslab.config import ExperimentConfig
from obslab.errors import ConfigError, PropertyViolation
from obslab.geometry import SpaceTimeSet
from obslab.report import RunReport, strip_timings
from obslab.trigpoly import CheckResult


def run(args):
    return cli.main(args)


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
    rep.add_series("trace", "t,v", [(0.0, 1.0), (0.5, 0.25)])
    rep.write(tmp_path)
    assert (tmp_path / "report.txt").exists()
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "t,v"
    assert len(lines) == 3


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


def test_exit_4_on_property_violation(tmp_path, monkeypatch):
    def broken(f, E, p):
        return CheckResult(lhs=1.0, rhs=0.5, holds=False)

    monkeypatch.setattr(trigpoly, "remez_check", broken)
    out = tmp_path / "out"
    assert run(["remez", "--cases", "3", "--out", str(out)]) == 4
    (report_dir,) = out.iterdir()
    assert "status: violation" in (report_dir / "report.txt").read_text()


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


def test_negative_seed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("[run]\nseed = -5\n")
    out = tmp_path / "out"
    for argv in (["--config", str(cfg)], ["--seed", "-1"]):
        assert run(["remez", "--cases", "3", "--out", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert "run.seed" in err and "Traceback" not in err
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
    for phase in ("solve", "defect"):
        assert f"time_null-control.{phase}: " in text
    assert "time_" not in strip_timings(text)


@pytest.mark.parametrize("flags", [["--time", "-1"], ["--multi", "0"]])
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
              "geometry.TimeSet.measure = lambda self: 0.0\n"
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


def tiny_config(tmp_path, kind):
    """Every subcommand at a few cells, modes and cases."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"[domain]\nkind = {kind}\nnx = 8\nny = 8\nn_modes = 4\n"
                   "[observation]\nn_time = 16\nfill = 0.6\n"
                   "[control]\ntol = 0.05\nradius = 0.25\n"
                   "[sweep]\nbatch = 4\n")
    return cfg


@pytest.mark.parametrize("sub", cli.SUBCOMMANDS)
@pytest.mark.parametrize("kind", ["interval", "rectangle"])
def test_determinism_same_seed_same_report(tmp_path, kind, sub):
    cfg = tiny_config(tmp_path, kind)
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
              "control.estimate_L = lambda *args, **kwargs: 1e6\n"
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


def fixture_run(tmp_path, fixture_text, horizon=1.0, sub="null-control"):
    """A subcommand at the dual sizes, its region read from a fixture file."""
    path = tmp_path / "region.rle"
    path.write_text(fixture_text)
    cfg = tmp_path / "fixture.cfg"
    cfg.write_text(DUAL_CONFIG.replace(
        "[observation]\n",
        f"[observation]\ngenerator = fixture\nfixture = {path}\n")
        + f"[system]\nhorizon = {horizon}\n")
    out = tmp_path / "out"
    return run([sub, "--config", str(cfg), "--out", str(out)]), out


def fixture_rle(n_cells, horizon):
    dom = ExperimentConfig(nx=n_cells, n_modes=6).build_domain()
    region = SpaceTimeSet.random(dom, horizon, 32, np.random.default_rng(0),
                                 fill=0.6)
    return region.to_rle()


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


def test_unparseable_fixture_exits_2(tmp_path, capsys):
    code, _ = fixture_run(tmp_path, "nt=32 T=1.0\n")
    assert code == 2
    assert "observation.fixture" in capsys.readouterr().err


def test_estimate_l_exit_3_when_ratio_collapses(tmp_path, monkeypatch):
    monkeypatch.setattr(control, "_ratio_and_grad",
                        lambda op, forward, Y: (np.zeros(len(Y)),
                                                np.zeros_like(Y)))
    cfg = tmp_path / "small.cfg"
    cfg.write_text("[domain]\nnx = 8\nn_modes = 4\n"
                   "[observation]\nn_time = 16\nfill = 0.6\n")
    out = tmp_path / "out"
    assert run(["estimate-L", "--config", str(cfg), "--out", str(out)]) == 3
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    assert "status: convergence-failure" in text
    assert "collapsed to zero" in text
