import math

import numpy as np
import pytest

from obslab import cli, control, trigpoly
from obslab.config import ExperimentConfig
from obslab.errors import ConfigError
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


def test_counterexample_multi_reports_three_times(tmp_path):
    out = tmp_path / "out"
    assert run(["counterexample", "--multi", "3", "--out", str(out)]) == 0
    (report_dir,) = out.iterdir()
    text = (report_dir / "report.txt").read_text()
    assert "n_times: 3" in text
    rows = (report_dir / "counterexample_traces.csv").read_text()
    assert len(rows.strip().split("\n")) == 4


def test_determinism_same_seed_same_report(tmp_path):
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["remez", "--cases", "50", "--seed", "9",
                    "--out", str(out)]) == 0
        (report_dir,) = out.iterdir()
        texts.append(strip_timings((report_dir / "report.txt").read_text()))
    assert texts[0] == texts[1]


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
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"[domain]\nkind = {kind}\nnx = 8\nny = 8\nn_modes = 4\n"
                   "[observation]\nn_time = 16\nfill = 0.6\n"
                   "[control]\ntol = 0.05\nradius = 0.25\n"
                   "[sweep]\nbatch = 4\n")
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
