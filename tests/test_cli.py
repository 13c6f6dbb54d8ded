"""End-to-end command-line runs: artifacts, determinism, exit codes.

Every invocation goes through main() in-process with --out pointed at
tmp_path, so the suite never touches the working directory and never spawns
a subprocess.
"""

import json
import os

import pytest

from degenstein.cli import (EXIT_COEFFS, EXIT_CONFIG, EXIT_IO,
                            EXIT_KINETIC, EXIT_LOCALIZATION, EXIT_OK,
                            EXIT_SOLVER, main)

BASE = {
    "profile": {"kind": "power", "beta": 1.0, "M": 1.0},
    "lambda": 1.0,
    "table": {"s_min": 1e-8, "K": 256},
    "grid": {"extent": [[-1.0, 1.0]], "n": [201]},
    "eps": 1e-6,
    "eps_sweep": [1e-3, 5e-4, 2.5e-4],
    "bump": {"center": [-0.6], "radius": 0.2, "height": 0.2, "shape": "tent"},
    "psi": 1.0,
    "localization": {"x0": [0.5], "R": 0.4, "Rp": 0.2},
    "T": 0.02,
    "snapshots": 9,
    "kinetic": {"tau0": 1.5e-4, "a": 1.0, "dt": 1.5e-4},
}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        if val is None:
            cfg.pop(key, None)
        elif isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, *argv, sub="out"):
    out = tmp_path / sub
    code = main([*argv, "--out", str(out), "--quiet"])
    return code, out


def load_json(out, name):
    with open(os.path.join(str(out), name)) as fh:
        return json.load(fh)


def first_line(out, name):
    with open(os.path.join(str(out), name)) as fh:
        return fh.readline().strip()


class TestHappyPaths:
    def test_check_example_power(self, tmp_path):
        code, out = run(tmp_path, "check", "--example", "power",
                        "--beta", "1.0")
        assert code == EXIT_OK
        report = load_json(out, "report.json")
        assert report["A_est"] == pytest.approx(1.0, rel=0.05)
        assert all(report["verdicts"].values())

    def test_check_from_config(self, tmp_path):
        cfg = write_config(tmp_path)
        code, out = run(tmp_path, "check", "--config", cfg)
        assert code == EXIT_OK
        report = load_json(out, "report.json")
        assert set(report["verdicts"]) == {"A1", "A2", "P2",
                                           "almost_decreasing"}

    def test_table_artifact(self, tmp_path):
        cfg = write_config(tmp_path)
        code, out = run(tmp_path, "table", "--config", cfg)
        assert code == EXIT_OK
        assert first_line(out, "table.csv") == "s,I,H,h,F,Fprime,G"
        with open(os.path.join(str(out), "table.csv")) as fh:
            rows = fh.read().strip().splitlines()
        assert len(rows) == 1 + 256
        assert all(len(r.split(",")) == 7 for r in rows[1:])

    def test_custom_profile_table(self, tmp_path):
        # P(s) = s sampled on [1e-8, 2]; the domain edge M is the last node
        samples = tmp_path / "profile.csv"
        s_nodes = [10.0 ** k for k in range(-8, 1)] + [2.0]
        samples.write_text("s,P\n" + "".join(f"{s!r},{s!r}\n" for s in s_nodes))
        cfg = write_config(tmp_path, profile={"kind": "custom",
                                              "path": str(samples)})
        code, out = run(tmp_path, "table", "--config", cfg)
        assert code == EXIT_OK
        with open(os.path.join(str(out), "table.csv")) as fh:
            last = fh.read().strip().splitlines()[-1]
        assert float(last.split(",")[0]) == 2.0

    def test_solve_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        code, out = run(tmp_path, "solve", "--config", cfg)
        assert code == EXIT_OK
        assert first_line(out, "snapshots.csv") == "t,x,u"
        info = load_json(out, "run.json")
        assert info["T"] == pytest.approx(0.02)
        assert info["n_steps"] > 0
        assert 0 < info["dt_min"] <= info["dt_max"]
        assert info["energy_residual"] < 5e-2
        assert info["boundary_transient"] == 0.0

    def test_localize_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        code, out = run(tmp_path, "localize", "--config", cfg)
        assert code == EXIT_OK
        dg = load_json(out, "degiorgi.json")
        assert dg["T_prime"] > 0.0
        assert dg["verdict"]["all_hold"]
        assert first_line(out, "front.csv") == "t,r_front,r_empty"
        with open(os.path.join(str(out), "front.csv")) as fh:
            assert len(fh.read().strip().splitlines()) == 1 + 9

    def test_kinetic_compare_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, T=0.01, localization=None,
                           bump={"center": [0.0], "radius": 0.3,
                                 "height": 0.05, "shape": "cos2"})
        code, out = run(tmp_path, "kinetic-compare", "--config", cfg)
        assert code == EXIT_OK
        assert first_line(out, "kinetic.csv") == "x,master,pde"
        info = load_json(out, "kinetic.json")
        assert 0.0 < info["l1_over_mass"] < 0.05

    def test_sweep_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        code, out = run(tmp_path, "sweep-eps", "--config", cfg)
        assert code == EXIT_OK
        info = load_json(out, "sweep.json")
        assert info["eps"] == [1e-3, 5e-4, 2.5e-4]
        assert len(info["l1_gaps"]) == 2
        assert info["cauchy_decreasing"]
        assert info["l1_gaps"][1] < info["l1_gaps"][0]


class TestDeterminism:
    def test_localize_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        _, out1 = run(tmp_path, "localize", "--config", cfg, sub="a")
        _, out2 = run(tmp_path, "localize", "--config", cfg, sub="b")
        for name in ("degiorgi.json", "front.csv", "snapshots.csv"):
            with open(os.path.join(str(out1), name), "rb") as fh:
                blob1 = fh.read()
            with open(os.path.join(str(out2), name), "rb") as fh:
                blob2 = fh.read()
            assert blob1 == blob2, name


class TestFailurePaths:
    def test_missing_config_file(self, tmp_path):
        code, out = run(tmp_path, "table", "--config",
                        str(tmp_path / "nope.json"))
        assert code == EXIT_IO
        err = load_json(out, "error.json")
        assert err["exit_code"] == EXIT_IO
        assert err["phase"] == "config"

    def test_config_flag_missing_entirely(self, tmp_path):
        code, out = run(tmp_path, "table")
        assert code == EXIT_CONFIG

    def test_unparseable_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, out = run(tmp_path, "solve", "--config", str(path))
        assert code == EXIT_CONFIG
        err = load_json(out, "error.json")
        assert err["error"] == "ConfigError"
        assert "message" in err and err["phase"] == "config"

    def test_unknown_profile_kind(self, tmp_path):
        cfg = write_config(tmp_path, profile={"kind": "fancy"})
        code, _ = run(tmp_path, "table", "--config", cfg)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("override", [
        {"grid": {"n": ["a"]}},
        {"snapshots": "x"},
        {"table": {"K": "z"}},
        {"grid": {"n": 5}},
        {"eps": "small"},
        {"eps_sweep": 3},
        {"bump": {"radius": "r"}},
        {"localization": {"R": [0.4]}},
        {"kinetic": {"dt": "q"}},
    ], ids=["n-list-of-str", "snapshots-str", "K-str", "n-scalar",
            "eps-str", "sweep-scalar", "radius-str", "R-list", "dt-str"])
    def test_config_type_errors_exit_config(self, tmp_path, override):
        cfg = write_config(tmp_path, **override)
        code, out = run(tmp_path, "solve", "--config", cfg)
        assert code == EXIT_CONFIG
        err = load_json(out, "error.json")
        assert err["error"] == "ConfigError" and err["phase"] == "config"

    def test_bump_inside_watched_ball(self, tmp_path):
        cfg = write_config(tmp_path,
                           bump={"center": [0.5], "radius": 0.2,
                                 "height": 0.2, "shape": "tent"})
        code, out = run(tmp_path, "solve", "--config", cfg)
        assert code == EXIT_SOLVER
        assert load_json(out, "error.json")["exit_code"] == EXIT_SOLVER

    def test_watched_ball_outside_grid(self, tmp_path):
        cfg = write_config(tmp_path,
                           bump={"center": [-0.6], "radius": 0.2,
                                 "height": 0.2, "shape": "tent"},
                           localization={"x0": [0.95], "R": 0.4, "Rp": 0.2})
        code, out = run(tmp_path, "localize", "--config", cfg)
        assert code == EXIT_LOCALIZATION
        assert load_json(out, "error.json")["phase"] == "localization"

    def test_kinetic_step_too_large(self, tmp_path):
        cfg = write_config(tmp_path, T=0.01, localization=None,
                           bump={"center": [0.0], "radius": 0.3,
                                 "height": 0.05, "shape": "cos2"},
                           kinetic={"tau0": 1.5e-4, "a": 1.0, "dt": 0.1})
        code, out = run(tmp_path, "kinetic-compare", "--config", cfg)
        assert code == EXIT_KINETIC
        assert load_json(out, "error.json")["error"] == "StepError"

    def test_kinetic_needs_power_profile(self, tmp_path):
        cfg = write_config(tmp_path, profile={"kind": "exp_inv", "beta": 1.0,
                                              "M": 1.0})
        code, _ = run(tmp_path, "kinetic-compare", "--config", cfg)
        assert code == EXIT_CONFIG

    def test_check_catches_broken_assumptions(self, tmp_path):
        # constant control profile: nothing to check, flagged at config level
        cfg = write_config(tmp_path, profile={"kind": "constant", "M": 1.0})
        code, _ = run(tmp_path, "check", "--config", cfg)
        assert code == EXIT_COEFFS


class TestThreadKnob:
    def test_rejects_garbage(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DEGENSTEIN_THREADS", "abc")
        assert main(["check", "--example", "power",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "integer" in capsys.readouterr().err

    def test_rejects_nonpositive(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEGENSTEIN_THREADS", "0")
        assert main(["check", "--example", "power",
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_accepts_positive(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEGENSTEIN_THREADS", "4")
        code, _ = run(tmp_path, "check", "--example", "power")
        assert code == EXIT_OK
