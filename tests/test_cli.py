"""Command-line harness: exit codes, file formats, determinism."""

import json
import math
import os

import numpy as np
import pytest

from qrel import dynamics, suites
from qrel.cli import main
from qrel.config import ScenarioConfig, config_from_dict, load_config
from qrel.grid import Grid
from qrel.report import TRAJECTORY_HEADER
from qrel.states import GaussianParams, from_wave
from qrel.suites import _dilatation_sweep


def write_config(tmp_path, name="config.json", **overrides):
    base = {}
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return str(path)


def read_csv_columns(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, {h: np.array([float(r[i]) for r in rows]) for i, h in enumerate(header)}


class TestVerify:
    def test_default_group_suite_passes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["verify", "--suite", "group", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "pass"
        assert all("tolerance" in c for c in report["checks"])
        assert any("orientation" in note for note in report["notes"])

    def test_paper_literal_records_discrepancy_and_passes(self, tmp_path):
        out = tmp_path / "out"
        code = main(["verify", "--suite", "group", "--convention", "paper-literal",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "pass"
        informational = [c for c in report["checks"] if not c["asserted"]]
        ratios = [c for c in informational if "paper-literal" in c["name"]]
        assert ratios and abs(ratios[0]["measured"] - 2.0) < 1e-6

    @pytest.mark.parametrize("overrides, suite, field", [
        ({"grid": {"n": 500}}, "group", "grid.n"),
        ({"grid": {"dim": 1.0}}, "group", "grid.dim"),
        ({"state": {"b": math.nan}}, "group", "state.b"),
        ({"state": {"p0": "fast"}}, "group", "state.p0"),
        ({"state": {"x0": [1]}}, "group", "state.x0"),
        ({"alphas": [math.nan]}, "group", "alphas"),
        ({"alphas": [math.inf]}, "group", "alphas"),
        ({"alphas": [True]}, "group", "alphas"),
        # an empty sweep used to pass seven group checks at exactly 0
        ({"alphas": []}, "group", "alphas: list must be nonempty"),
        # two steps of 0.2 give 3 records; the rate stencil needs 5
        ({"flow": {"step": 0.2}}, "dynamics", "flow.step"),
        # misspelt keys are refused rather than replaced by their defaults
        ({"grid": {"N": 256, "lenght": 10}}, "group", "grid.N"),
        ({"grid": {"lenght": 10}}, "group", "grid.lenght"),
        ({"units": {"hbarr": 2}}, "group", "units.hbarr"),
        ({"flow": {"stpe": 0.1}}, "group", "flow.stpe"),
        ({"state": {"kind": "wave_file", "path": "psi.npy", "sigma2": 1.0}}, "group", "state.sigma2"),
        ({"suite": ["group"]}, "group", "suite is not a known field"),
        ({"flow": {"kind": "sideways"}}, "group", "flow.kind"),
        # an unhashable kind used to escape as a TypeError
        ({"flow": {"kind": ["t"]}}, "group", "flow.kind"),
        ({"flow": {"kind": {"t": 1}}}, "group", "flow.kind"),
        ({"suites": []}, "group", "suites must be a nonempty list"),
        ({"suites": ["group", "dynamics", "group"]}, "group", "suites: suite 'group' is listed more than once"),
    ], ids=["grid-n", "grid-dim-float", "state-b-nan", "state-p0-string", "state-x0-list",
            "alphas-nan", "alphas-infinity", "alphas-bool", "alphas-empty", "flow-step-coarse",
            "grid-key-N", "grid-key-lenght", "units-key-hbarr", "flow-key-stpe", "wave-file-key-sigma2",
            "root-key-suite", "flow-kind-sideways", "flow-kind-list", "flow-kind-object", "suites-empty",
            "suites-repeated"])
    def test_malformed_config_names_field(self, tmp_path, capsys, overrides, suite, field):
        cfg = write_config(tmp_path, **overrides)
        assert main(["verify", "--suite", suite, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, suite, fields", [
        # the battery's sigma2 = 0.5 members sit at the resolution floor 25 h^2 = 0.61 before
        # any step
        ({"grid": {"n": 256}}, None, ("grid.n", "grid.length")),
    ], ids=["battery-unresolved"])
    def test_tau_run_that_cannot_verify_is_refused_by_field(self, tmp_path, capsys, overrides, suite, fields):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)] + (["--suite", suite] if suite else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {fields[0]}: ") and all(f in err for f in fields)
        assert not (out / "report.json").exists()

    def test_tripped_battery_run_is_refused_without_a_re_march(self, tmp_path, capsys, monkeypatch):
        # the battery's run of the minimal Gaussian trips the noise budget after 872 steps: its
        # own guard reason refuses the scenario, and nothing marches that state again at the step
        step = 0.00025
        full_step_marches = []

        def counted(w, dtau, steps=1, _original=dynamics.evolve_tau):
            if dtau == step:
                full_step_marches.append(steps)
            return _original(w, dtau, steps)

        monkeypatch.setattr(dynamics, "evolve_tau", counted)
        # serially, so that every march runs in this process, where the counter sees it
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)
        cfg = write_config(tmp_path, units={"hbar": 1.42, "mass": 0.3}, grid={"length": 68.8}, flow={"step": step})
        out = tmp_path / "o"
        assert main(["verify", "--suite", "dynamics", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: flow.step: ") and "after 872 steps" in err
        assert not (out / "report.json").exists()
        assert full_step_marches == []

    def test_box_too_short_for_the_battery_is_refused_by_field(self, tmp_path, capsys):
        # the battery's sigma2 = 2 members keep 7.9e-10 of their peak amplitude at the faces
        cfg = write_config(tmp_path, grid={"length": 25.6})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid.length: ")
        assert all(part in err for part in ("tail 7.947e-10", "sigma2=2.0", "x0=0.0"))

    @pytest.mark.parametrize("state, prefix", [
        ({"x0": 15.0}, "state.sigma2/state.x0: grid.length: "),
        ({"kind": "wave_file", "path": "missing.npy"}, "state.path: "),
    ], ids=["packet-at-the-face", "missing-wave-file"])
    def test_state_that_cannot_be_built_is_refused(self, tmp_path, capsys, state, prefix):
        # refused as evolve refuses it, before any suite runs; no suite verifies the state yet
        if "path" in state:
            state = {**state, "path": str(tmp_path / state["path"])}
        cfg = write_config(tmp_path, state=state)
        out = tmp_path / "o"
        assert main(["verify", "--suite", "classical-limit", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {prefix}")
        assert not (out / "report.json").exists()

    def test_default_report_booleans_are_json_booleans(self, default_verify):
        # a numpy boolean used to be written as the string "True", which any JSON reader takes as true
        assert default_verify.returncode == 0, default_verify.stderr
        checks = json.loads((default_verify.out / "report.json").read_text())["checks"]
        assert len(checks) == 62
        assert all(type(c["passed"]) is bool and type(c["asserted"]) is bool for c in checks)

    def test_unknown_suite_rejected(self, tmp_path):
        assert main(["verify", "--suite", "nonsense", "--out", str(tmp_path / "o")]) == 2

    def test_empty_suite_flag_refused(self, tmp_path, capsys):
        # it used to run zero checks and report status=pass, where "suites": [] is refused
        assert main(["verify", "--suite", ",", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: --suite must be a nonempty list")

    def test_repeated_suite_flag_refused(self, tmp_path, capsys):
        # it used to run the suite twice and report 8 checks under 4 names
        out = tmp_path / "o"
        assert main(["verify", "--suite", "classical-limit,classical-limit", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: --suite: suite 'classical-limit' is listed more than once\n"
        assert not (out / "report.json").exists()

    def test_reports_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--suite", "group,classical-limit", "--out", str(a)]) == 0
        assert main(["verify", "--suite", "group,classical-limit", "--out", str(b)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


class TestEvolve:
    def test_tau_flow_monotone_s_gen(self, tmp_path):
        cfg = write_config(tmp_path, flow={"kind": "tau", "step": 1e-3, "duration": 0.2})
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        header, cols = read_csv_columns(out / "trajectory.csv")
        assert ",".join(header) == TRAJECTORY_HEADER
        assert np.diff(cols["s_gen"]).min() > 0.0

    def test_t_flow_conserves_momentum_dispersion(self, tmp_path):
        cfg = write_config(tmp_path, flow={"kind": "t", "step": 0.01, "duration": 1.0})
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        _, cols = read_csv_columns(out / "trajectory.csv")
        dp2 = cols["delta_p2_q"]
        assert np.abs(dp2 - dp2[0]).max() < 1e-12

    def test_zero_duration_gives_single_record(self, tmp_path):
        cfg = write_config(tmp_path, flow={"kind": "tau", "step": 1e-3, "duration": 0.0})
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "trajectory.csv").read_text().strip().splitlines()
        assert len(text) == 2

    def test_guard_trip_exits_one_with_last_index(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           state={"kind": "gaussian", "sigma2": 0.5, "b": -1.0},
                           flow={"kind": "tau", "step": 1e-3, "duration": 0.5})
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "last valid record index" in err
        summary = json.loads((out / "evolve_summary.json").read_text())
        assert summary["guard_tripped"] is True
        assert summary["last_valid_step"] < 500

    def test_wave_file_input(self, tmp_path, grid, minimal_wave):
        wave_path = tmp_path / "psi.npy"
        np.save(wave_path, minimal_wave.psi)
        cfg = write_config(tmp_path,
                           state={"kind": "wave_file", "path": str(wave_path)},
                           flow={"kind": "t", "step": 0.01, "duration": 0.05})
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0

    @pytest.mark.parametrize("state", [{"x0": 15.0}, {"sigma2": 9.0}], ids=["x0", "sigma2"])
    def test_packet_touching_the_far_face_refused(self, tmp_path, capsys, state):
        cfg = write_config(tmp_path, state=state)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        # the scenario's own packet is refused by its own fields first, and names the box
        assert err.startswith("config error: state.") and "grid.length: 40.0" in err

    def test_paper_literal_doubles_only_delta_x2(self, tmp_path):
        outs = {}
        for convention in ("consistent", "paper-literal"):
            outs[convention] = tmp_path / convention
            assert main(["evolve", "--convention", convention, "--out", str(outs[convention])]) == 0
        header, consistent = read_csv_columns(outs["consistent"] / "trajectory.csv")
        _, literal = read_csv_columns(outs["paper-literal"] / "trajectory.csv")
        assert len(consistent["step"]) == 501
        for name in header:
            want = 2.0 * consistent[name] if name == "delta_x2" else consistent[name]
            assert literal[name].tobytes() == want.tobytes(), name
        summary = json.loads((outs["paper-literal"] / "evolve_summary.json").read_text())
        assert summary["convention"] == "paper-literal"

    @pytest.mark.parametrize("command", ["evolve", "transform"])
    def test_wave_file_touching_the_far_face_refused(self, tmp_path, capsys, grid, minimal_wave, command):
        # the packet that {"state": {"x0": 15.0}} refuses, given as wave samples: the same tail rule holds
        wave_path = tmp_path / "psi.npy"
        np.save(wave_path, np.roll(minimal_wave.psi, round(15.0 / grid.spacing)))
        cfg = write_config(tmp_path, state={"kind": "wave_file", "path": str(wave_path)})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: state.path: ") and "grid.length: 40.0" in err

    @pytest.mark.parametrize("name", ["psi.txt", "psi.npz"])
    def test_wave_file_without_an_array_refused(self, tmp_path, capsys, name):
        # a text file used to escape as a ValueError traceback, and an .npz archive as an AttributeError
        wave_path = tmp_path / name
        if name.endswith(".npz"):
            np.savez(wave_path, psi=np.ones(16))
        else:
            wave_path.write_text("not wave samples\n")
        cfg = write_config(tmp_path, state={"kind": "wave_file", "path": str(wave_path)})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: state.path: cannot read wave samples")

    def test_wave_file_shape_mismatch(self, tmp_path):
        wave_path = tmp_path / "psi.npy"
        np.save(wave_path, np.ones(16, dtype=complex))
        cfg = write_config(tmp_path, state={"kind": "wave_file", "path": str(wave_path)})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestTransform:
    def test_single_zero_alpha(self, tmp_path):
        cfg = write_config(tmp_path, alphas=[0.0])
        out = tmp_path / "out"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
        _, cols = read_csv_columns(out / "transform.csv")
        assert cols["residual"][0] == 0.0

    def test_worked_example_row(self, tmp_path):
        cfg = write_config(tmp_path, alphas=[math.log(4.0)])
        out = tmp_path / "out"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
        _, cols = read_csv_columns(out / "transform.csv")
        assert abs(cols["delta_x2"][0] - 0.25) < 1e-10
        assert abs(cols["delta_p2_q"][0] - 1.0) < 1e-10
        assert cols["residual"][0] < 1e-10

    def test_sweep_summary_residual(self, tmp_path):
        cfg = write_config(tmp_path, alphas=list(np.arange(-3.0, 3.01, 0.5)))
        out = tmp_path / "out"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "transform_summary.json").read_text())
        assert summary["max_residual"] < 1e-9

    @pytest.mark.parametrize("convention", ["consistent", "paper-literal"])
    def test_residual_column_is_the_shared_sweep(self, tmp_path, convention):
        """The table's residuals are the rows of the sweep the group suite reduces."""
        alphas = [-1.5, 0.0, 0.7, math.log(4.0)]
        cfg = write_config(tmp_path, alphas=alphas, convention=convention)
        out = tmp_path / "out"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
        _, cols = read_csv_columns(out / "transform.csv")
        rows = _dilatation_sweep(load_config(cfg).make_state(), alphas, convention)
        assert cols["residual"].tolist() == [row["residual"] for row in rows]
        assert cols["alpha"].tolist() == alphas

    def test_wave_file_scenario_sweeps_its_polar_state(self, tmp_path, minimal_wave):
        wave_path = tmp_path / "psi.npy"
        np.save(wave_path, minimal_wave.psi)
        alphas = [-1.0, 0.0, 0.5]
        cfg = write_config(tmp_path, state={"kind": "wave_file", "path": str(wave_path)}, alphas=alphas)
        out = tmp_path / "out"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
        header, cols = read_csv_columns(out / "transform.csv")
        rows = _dilatation_sweep(from_wave(load_config(cfg).make_wave()), alphas, "consistent")
        for name in header:
            assert cols[name].tolist() == [row[name] for row in rows], name

    def test_empty_alpha_list_rejected(self, tmp_path):
        cfg = write_config(tmp_path, alphas=[])
        assert main(["transform", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestScenarioConfig:
    """A scenario is validated into the objects that act on it."""

    def test_grid_is_the_grid(self):
        cfg = config_from_dict({"grid": {"n": 256, "length": 30.0, "dim": 2}})
        assert cfg.grid == Grid(256, 30.0, 2)
        assert ScenarioConfig().grid == Grid(512, 40.0, 1)

    def test_state_is_the_gaussian_or_the_path(self):
        cfg = config_from_dict({"state": {"sigma2": 2.0, "x0": 1.5}})
        assert cfg.state == GaussianParams(sigma2=2.0, x0=1.5)
        assert config_from_dict({}).state == GaussianParams()
        cfg = config_from_dict({"state": {"kind": "wave_file", "path": "psi.npy"}})
        assert cfg.state == "psi.npy"


class TestSeventeenDigitOutput:
    def test_csv_round_trips_floats(self, tmp_path):
        cfg = write_config(tmp_path, flow={"kind": "tau", "step": 1e-3, "duration": 0.01})
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        value = lines[1].split(",")[2]
        assert float(value) == float(f"{float(value):.17g}")


class TestReportSerialization:
    def test_json_parses_and_floats_round_trip(self, tmp_path):
        from qrel.report import dumps17

        obj = {"a": 0.1 + 0.2, "b": [1e-300, 2.5, True, None], "c": {"n": 512}}
        text = dumps17(obj)
        back = json.loads(text)
        assert back["a"] == 0.1 + 0.2
        assert back["b"][0] == 1e-300
        assert back["b"][2] is True and back["b"][3] is None
        assert back["c"]["n"] == 512

    @pytest.mark.parametrize("measured", [np.float64(0.5), np.float64(2.0)], ids=["passing", "failing"])
    def test_checks_of_numpy_values_pass_python_booleans(self, measured):
        from qrel.report import Report, bound, compare, dumps17

        checks = [compare("c", measured, np.float64(0.25), 0.5), bound("b", measured, np.float64(1.0))]
        assert all(type(c.passed) is bool for c in checks)
        report = Report(title="t", convention="consistent", checks=checks)
        passed = [c["passed"] for c in json.loads(dumps17(report.to_obj()))["checks"]]
        assert passed == [measured < 1.0] * 2
