"""End-to-end command-line runs: artifacts, determinism, exit codes.

Every invocation goes through main() in-process with --out pointed at
tmp_path, so the suite never touches the working directory and never spawns
a subprocess.
"""

import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenstein.checker import PROFILES, _zeta_bounded, _zeta_slow
from degenstein.cli import (EXIT_COEFFS, EXIT_CONFIG, EXIT_IO,
                            EXIT_KINETIC, EXIT_LOCALIZATION, EXIT_OK,
                            EXIT_SOLVER, PROFILE_KINDS, ExperimentConfig,
                            build_parser, main)
from degenstein.coeffs import exp_zeta_profile
from degenstein import solver as solver_mod
from degenstein.errors import ConfigError

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
        # a profile that names its kind replaces the base one, whose power
        # keys another kind does not read
        elif isinstance(val, dict) and isinstance(cfg.get(key), dict) \
                and not (key == "profile" and "kind" in val):
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
        # the tent's active window, never the whole interior
        assert 0 < info["cell_updates"] < info["n_steps"] * 199
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
        assert len(info["n_steps"]) == 3
        assert all(isinstance(k, int) and 0 < k < 100 for k in info["n_steps"])

    def test_sweep_with_one_gap_reports_no_trend(self, tmp_path, capsys):
        # two floors give one gap, and one gap neither falls nor rises
        cfg = write_config(tmp_path, eps_sweep=[1e-3, 5e-4])
        out = tmp_path / "out"
        assert main(["sweep-eps", "--config", cfg, "--out", str(out)]) \
            == EXIT_OK
        info = load_json(out, "sweep.json")
        assert len(info["l1_gaps"]) == 1
        assert info["cauchy_decreasing"] is None
        summary = capsys.readouterr().out
        assert "(one gap: no trend)" in summary
        assert "decreasing" not in summary


class TestDeterminism:
    @pytest.mark.parametrize(
        "command,names",
        [("localize", ("degiorgi.json", "front.csv", "snapshots.csv")),
         ("solve", ("run.json", "snapshots.csv")),
         ("sweep-eps", ("sweep.json",))],
        ids=["localize", "solve", "sweep-eps"])
    def test_reruns_byte_identical(self, tmp_path, command, names):
        cfg = write_config(tmp_path)
        _, out1 = run(tmp_path, command, "--config", cfg, sub="a")
        _, out2 = run(tmp_path, command, "--config", cfg, sub="b")
        for name in names:
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

    def test_out_that_is_a_file_exits_io(self, tmp_path):
        target = tmp_path / "out"
        target.write_text("not a directory")
        code, _ = run(tmp_path, "check", "--example", "power")
        assert code == EXIT_IO
        assert target.read_text() == "not a directory"

    def test_error_json_that_is_a_directory_exits_io(self, tmp_path):
        (tmp_path / "out" / "error.json").mkdir(parents=True)
        code, out = run(tmp_path, "check", "--example", "power")
        assert code == EXIT_IO
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("flags", [
        ["--config", "CONFIG", "--beta", "2"],
        ["--example", "exp_inv", "--config", "CONFIG"],
    ], ids=["beta-without-example", "example-and-config"])
    def test_check_rejects_a_flag_it_would_ignore(self, tmp_path, flags):
        cfg = write_config(tmp_path)
        code, out = run(tmp_path, "check",
                        *[cfg if f == "CONFIG" else f for f in flags])
        assert code == EXIT_CONFIG
        err = load_json(out, "error.json")
        assert err["error"] == "ConfigError" and err["phase"] == "config"
        assert not (out / "report.json").exists()

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
        {"bump": {"shape": "box"}},
        {"kinetic": {"shape": "box"}},
    ], ids=["n-list-of-str", "snapshots-str", "K-str", "n-scalar",
            "eps-str", "sweep-scalar", "radius-str", "R-list", "dt-str",
            "bump-shape-unknown", "kinetic-shape-unknown"])
    def test_config_type_errors_exit_config(self, tmp_path, override):
        cfg = write_config(tmp_path, **override)
        code, out = run(tmp_path, "solve", "--config", cfg)
        assert code == EXIT_CONFIG
        err = load_json(out, "error.json")
        assert err["error"] == "ConfigError" and err["phase"] == "config"

    @pytest.mark.parametrize("override", [
        {"eps": float("nan")},
        {"psi": float("nan")},
        {"bump": {"radius": float("nan")}},
        {"bump": {"height": float("inf")}},
        {"grid": {"extent": [[-1.0, float("nan")]]}},
        {"T": float("nan")},
        {"T": float("inf")},
        {"eps_sweep": [1e-3, float("nan")]},
        {"snapshots": [0.0, float("nan"), 0.02]},
        {"localization": {"R": float("-inf")}},
        {"lambda": float("nan")},
    ], ids=["eps-nan", "psi-nan", "radius-nan", "height-inf", "extent-nan",
            "T-nan", "T-inf", "sweep-nan", "snapshots-nan", "R-neg-inf",
            "lambda-nan"])
    @pytest.mark.parametrize("command", ["solve", "sweep-eps"])
    def test_non_finite_numbers_exit_config(self, tmp_path, override,
                                            command):
        # JSON's NaN and Infinity parse as floats; no run can use them
        cfg = write_config(tmp_path, **override)
        code, out = run(tmp_path, command, "--config", cfg)
        assert code == EXIT_CONFIG
        err = load_json(out, "error.json")
        assert err["error"] == "ConfigError" and err["phase"] == "config"

    @pytest.mark.parametrize("override,key", [
        ({"Eps": 1e-8}, "'Eps' in config"),
        ({"bump": {"center": [-0.6], "radius": 0.2, "height": 0.2,
                   "shpae": "cos2"}}, "'shpae' in bump"),
        ({"table": {"quad_tol": 1e-8}}, "'quad_tol' in table"),
    ], ids=["top-level", "in-bump", "table-quad_tol"])
    def test_misspelled_key_exits_config(self, tmp_path, override, key):
        # a misspelled key would otherwise leave its default in force
        cfg = write_config(tmp_path, **override)
        code, out = run(tmp_path, "localize", "--config", cfg)
        assert code == EXIT_CONFIG
        err = load_json(out, "error.json")
        assert err["error"] == "ConfigError" and err["phase"] == "config"
        assert err["message"] == f"unknown key {key}"
        assert not (out / "degiorgi.json").exists()

    @pytest.mark.parametrize("ladder", [[1e-4, 1e-3], [1e-3, 1e-3]],
                             ids=["rising", "repeated"])
    def test_sweep_ladder_must_fall(self, tmp_path, ladder):
        # the gaps approach eps -> 0 only down a strictly falling ladder
        cfg = write_config(tmp_path, eps_sweep=ladder)
        code, out = run(tmp_path, "sweep-eps", "--config", cfg)
        assert code == EXIT_CONFIG
        err = load_json(out, "error.json")
        assert err["error"] == "ConfigError" and err["phase"] == "config"
        assert "eps_sweep" in err["message"]
        assert not (out / "sweep.json").exists()

    def test_bump_inside_watched_ball(self, tmp_path):
        cfg = write_config(tmp_path,
                           bump={"center": [0.5], "radius": 0.2,
                                 "height": 0.2, "shape": "tent"})
        code, out = run(tmp_path, "solve", "--config", cfg)
        assert code == EXIT_SOLVER
        assert load_json(out, "error.json")["exit_code"] == EXIT_SOLVER

    @pytest.mark.parametrize("command,pin", [("solve", "1e-12"),
                                             ("sweep-eps", "1e-09")])
    def test_pin_below_the_table_floor(self, tmp_path, command, pin):
        # eps*psi on the ring, with eps the run's or the ladder's first,
        # is below the table's s_min = 1e-8
        cfg = write_config(tmp_path, psi=1e-6)
        code, out = run(tmp_path, command, "--config", cfg)
        assert code == EXIT_SOLVER
        err = load_json(out, "error.json")
        assert err["error"] == "DomainError" and err["phase"] == "solve"
        assert f"first offender {pin}" in err["message"]

    def test_error_json_goes_to_config_out_dir(self, tmp_path, monkeypatch):
        # no --out: a solver-phase failure leaves error.json where the
        # config's artifacts would go, not in the working directory
        monkeypatch.chdir(tmp_path)
        artifacts = tmp_path / "artifacts"
        cfg = write_config(tmp_path, out_dir=str(artifacts),
                           bump={"center": [0.5], "radius": 0.2,
                                 "height": 0.2, "shape": "tent"})
        code = main(["solve", "--config", cfg, "--quiet"])
        assert code == EXIT_SOLVER
        assert load_json(artifacts, "error.json")["phase"] == "solve"
        assert not (tmp_path / "error.json").exists()

    def test_success_removes_a_stale_error_json(self, tmp_path):
        bad = write_config(tmp_path, "bad.json",
                           grid={"extent": [[-1.0, 1.0]], "n": [4]})
        code, out = run(tmp_path, "solve", "--config", bad)
        assert code == EXIT_SOLVER
        assert load_json(out, "error.json")["exit_code"] == EXIT_SOLVER
        code, out = run(tmp_path, "solve", "--config", write_config(tmp_path))
        assert code == EXIT_OK
        assert (out / "run.json").exists()
        assert not (out / "error.json").exists()

    def test_watched_ball_outside_grid(self, tmp_path):
        cfg = write_config(tmp_path,
                           bump={"center": [-0.6], "radius": 0.2,
                                 "height": 0.2, "shape": "tent"},
                           localization={"x0": [0.95], "R": 0.4, "Rp": 0.2})
        code, out = run(tmp_path, "localize", "--config", cfg)
        assert code == EXIT_LOCALIZATION
        err = load_json(out, "error.json")
        assert err["phase"] == "localization"
        assert err["message"] == "ball of radius 0.4 at (0.95,) leaves the box"

    def test_kinetic_step_too_large(self, tmp_path):
        cfg = write_config(tmp_path, T=0.01, localization=None,
                           bump={"center": [0.0], "radius": 0.3,
                                 "height": 0.05, "shape": "cos2"},
                           kinetic={"tau0": 1.5e-4, "a": 1.0, "dt": 0.1})
        code, out = run(tmp_path, "kinetic-compare", "--config", cfg)
        assert code == EXIT_KINETIC
        assert load_json(out, "error.json")["error"] == "StepError"

    def test_kinetic_kernel_wider_than_domain(self, tmp_path):
        # tau0 = 4: sigma = 2, so 2K+1 = 1609 offsets on 201 cells
        cfg = write_config(tmp_path, T=0.01, localization=None,
                           bump={"center": [0.0], "radius": 0.3,
                                 "height": 0.05, "shape": "cos2"},
                           kinetic={"tau0": 4.0, "a": 1.0, "dt": 1.5e-4})
        code, out = run(tmp_path, "kinetic-compare", "--config", cfg)
        assert code == EXIT_KINETIC
        err = load_json(out, "error.json")
        assert err["error"] == "ResolutionError"
        assert err["phase"] == "kinetic"

    def test_kinetic_needs_power_profile(self, tmp_path):
        cfg = write_config(tmp_path, profile={"kind": "exp_inv", "beta": 1.0,
                                              "M": 1.0})
        code, _ = run(tmp_path, "kinetic-compare", "--config", cfg)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("profile,table,code", [
        ({"kind": "constant"}, {"s_min": None}, EXIT_OK),
        ({"kind": "constant", "M": 0.0}, {}, EXIT_COEFFS),
        ({"kind": "constant", "M": -1.0}, {}, EXIT_COEFFS),
        ({"kind": "exp_inv", "M": 0.0}, {"s_min": 1e-2}, EXIT_COEFFS),
    ], ids=["constant-null-s_min", "constant-M0", "constant-Mneg",
            "exp_inv-M0"])
    def test_table_of_other_kinds_at_the_edges(self, tmp_path, profile,
                                                table, code):
        cfg = write_config(tmp_path, profile=profile, table=table)
        assert run(tmp_path, "table", "--config", cfg)[0] == code

    def test_check_catches_broken_assumptions(self, tmp_path):
        # constant control table: it carries a profile but no Lambda, as
        # it bypasses the calculus, so there is nothing to check
        cfg = write_config(tmp_path, profile={"kind": "constant", "M": 1.0})
        code, out = run(tmp_path, "check", "--config", cfg)
        assert code == EXIT_COEFFS
        err = load_json(out, "error.json")
        assert err["error"] == "DomainError"
        assert err["message"] == ("the table has no Lambda, so it was not "
                                  "built from the coefficient calculus and "
                                  "there are no assumptions to check")


class TestInputShapes:
    @pytest.mark.parametrize("body", [
        "s\n1e-8\n1e-4\n1e-2\n1.0\n",
        "s,P\n1.0,1.0\n",
    ], ids=["one-column", "one-row"])
    def test_custom_csv_wrong_shape_exits_coeffs(self, tmp_path, body):
        samples = tmp_path / "profile.csv"
        samples.write_text(body)
        cfg = write_config(tmp_path, profile={"kind": "custom",
                                              "path": str(samples)})
        code, out = run(tmp_path, "table", "--config", cfg)
        assert code == EXIT_COEFFS
        err = load_json(out, "error.json")
        assert err["error"] == "DomainError"
        assert err["phase"] == "coefficients"

    @pytest.mark.parametrize("row, message", [
        ("1e-4,nan", "sample 2 of 4 is not finite: s=0.0001, P=nan"),
        ("1e-4,inf", "sample 2 of 4 is not finite: s=0.0001, P=inf"),
        ("nan,1e-4", "sample 2 of 4 is not finite: s=nan, P=0.0001"),
    ], ids=["nan-P", "inf-P", "nan-s"])
    def test_custom_csv_nonfinite_sample_named(self, tmp_path, row, message):
        samples = tmp_path / "profile.csv"
        samples.write_text(f"s,P\n1e-8,1e-8\n{row}\n1e-2,1e-2\n1,1\n")
        cfg = write_config(tmp_path, profile={"kind": "custom",
                                              "path": str(samples)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # nothing leaks to stderr
            code, out = run(tmp_path, "check", "--config", cfg)
        assert code == EXIT_COEFFS
        err = load_json(out, "error.json")
        assert err["error"] == "DomainError"
        assert err["message"] == message

    def test_bump_center_of_wrong_dimension(self, tmp_path):
        cfg = write_config(tmp_path, bump={"center": [-0.6, 0.0]})
        code, out = run(tmp_path, "solve", "--config", cfg)
        assert code == EXIT_CONFIG
        assert load_json(out, "error.json")["error"] == "ConfigError"

    def test_watch_center_of_wrong_dimension(self, tmp_path):
        cfg = write_config(tmp_path, localization={"x0": [0.5, 0.0]})
        code, out = run(tmp_path, "localize", "--config", cfg)
        assert code == EXIT_CONFIG
        assert load_json(out, "error.json")["error"] == "ConfigError"

    @pytest.mark.parametrize("profile", [
        {"kind": "exp_inv", "tail": 5.0},
        {"kind": "exp_zeta_bounded", "tail": 0.1},
        {"kind": "exp_zeta_slow", "tail": 5.0},
        {"kind": "exp_zeta_bounded", "beta": 2.0},
        {"kind": "exp_zeta_slow", "beta": 0.5},
        {"kind": "power", "F0": 2, "h0": 3, "path": "nope.csv"},
        {"kind": "constant", "beta": 3, "tail": 2},
        {"kind": "custom", "M": 1.0, "path": "nope.csv"},
    ], ids=["exp_inv-tail", "bounded-tail", "slow-tail", "bounded-beta",
            "slow-beta", "power-constant-and-custom-keys",
            "constant-beta-tail", "custom-M"])
    def test_profile_field_rejected_where_unused(self, tmp_path, profile):
        cfg = write_config(tmp_path, profile=profile)
        code, out = run(tmp_path, "table", "--config", cfg)
        assert code == EXIT_CONFIG
        err = load_json(out, "error.json")
        assert err["error"] == "ConfigError"
        assert err["phase"] == "config"
        # the first key the kind does not read is named
        unread = [key for key in profile if key != "kind"][0]
        assert f"'{profile['kind']}' takes no {unread}," in err["message"]

    def test_power_reads_tail(self, tmp_path):
        tables = []
        for sub, tail in (("plain", None), ("tail", 0.5)):
            cfg = write_config(tmp_path, name=f"{sub}.json",
                               profile={"tail": tail})
            code, out = run(tmp_path, "table", "--config", cfg, sub=sub)
            assert code == EXIT_OK
            tables.append((out / "table.csv").read_text())
        assert tables[0] != tables[1]

    @pytest.mark.parametrize("kind", ["power", "exp_inv"])
    def test_nonfinite_beta_is_named(self, tmp_path, kind):
        code, out = run(tmp_path, "check", "--example", kind, "--beta", "nan")
        assert code == EXIT_COEFFS
        err = load_json(out, "error.json")
        assert err["message"] == "beta must be positive and finite"

    @pytest.mark.parametrize("kind", ["exp_zeta_bounded", "exp_zeta_slow"])
    def test_beta_rejected_where_unused(self, tmp_path, kind):
        code, out = run(tmp_path, "check", "--example", kind, "--beta", "7")
        assert code == EXIT_CONFIG
        assert load_json(out, "error.json")["phase"] == "config"


class TestProfileRegistry:
    """The CLI choices, the config kinds and the checker catalog all read
    the one registry in checker.PROFILES."""

    def test_kinds_agree(self):
        subcommands = build_parser()._subparsers._group_actions[0].choices
        example, = [a for a in subcommands["check"]._actions
                    if a.dest == "example"]
        kinds = list(PROFILES)
        assert list(example.choices) == kinds
        assert list(PROFILE_KINDS) == kinds + ["custom", "constant"]
        for kind in kinds + ["constant"]:
            raw = json.loads(json.dumps(BASE))
            raw["profile"] = {"kind": kind}
            assert ExperimentConfig.from_dict(raw).profile["kind"] == kind
        raw["profile"] = {"kind": "exp_zeta"}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("kind", list(PROFILES))
    def test_check_example_is_catalog_report(self, tmp_path, kind):
        code, out = run(tmp_path, "check", "--example", kind)
        assert code == EXIT_OK
        assert load_json(out, "report.json") == \
            json.loads(PROFILES[kind].run().to_json())

    @pytest.mark.parametrize("kind, beta", [
        *((kind, None) for kind in PROFILES), ("power", 2), ("exp_inv", 2)],
        ids=[*PROFILES, "power-beta2", "exp_inv-beta2"])
    def test_config_of_only_the_kind_is_the_example(self, tmp_path, kind,
                                                    beta):
        # a null table.s_min takes the registry's build floor (exp_inv's
        # 1e-2) in a config as it does for --example
        profile = {"kind": kind} if beta is None else {"kind": kind,
                                                       "beta": beta}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"profile": profile,
                                    "grid": BASE["grid"]}))
        code, from_config = run(tmp_path, "check", "--config", str(path),
                                sub="config")
        assert code == EXIT_OK
        flags = [] if beta is None else ["--beta", str(beta)]
        code, example = run(tmp_path, "check", "--example", kind, *flags,
                            sub="example")
        assert code == EXIT_OK
        assert (from_config / "report.json").read_bytes() == \
            (example / "report.json").read_bytes()

    @pytest.mark.parametrize("M", [0.5, 2.0])
    @pytest.mark.parametrize("kind, zeta", [
        ("exp_zeta_bounded", _zeta_bounded), ("exp_zeta_slow", _zeta_slow)])
    def test_rate_integral_runs_to_M(self, tmp_path, kind, zeta, M):
        # the closed forms integrate zeta(r)/r over [s, M]; the reference
        # tabulates that integral by quadrature, and its last interpolation
        # interval below M is good to about 1.2e-7 (slow rate, M = 2)
        closed = PROFILES[kind].make_profile(M=M)
        quad = exp_zeta_profile(zeta, M=M)
        s = np.geomspace(1e-6 * M, M, 2000)
        assert np.allclose(closed(s), quad(s), rtol=2e-7, atol=0.0)
        cfg = write_config(tmp_path, profile={"kind": kind, "M": M})
        code, _ = run(tmp_path, "table", "--config", cfg)
        assert code == EXIT_OK


# ------------------------------------------------------------ config fuzz

# the config printed in the README
README_CONFIG = {
    "profile": {"kind": "power", "beta": 1.0, "M": 1.0},
    "lambda": 1.0,
    "table": {"s_min": 1e-8, "K": 256},
    "grid": {"extent": [[-1.0, 1.0]], "n": [401]},
    "eps": 1e-6,
    "T": 0.05,
    "snapshots": 33,
    "bump": {"center": [-0.6], "radius": 0.2, "height": 0.2, "shape": "tent"},
    "psi": 1.0,
    "localization": {"x0": [0.5], "R": 0.4, "Rp": 0.2},
    "eps_sweep": [1e-3, 5e-4, 2.5e-4],
    "kinetic": {"tau0": 1.5e-4, "a": 1.0, "dt": 1.5e-4},
    "out_dir": "out",
}


def readme_config_2d() -> dict:
    """The README config on a 48 x 48 grid of the square [-1, 1]^2."""
    cfg = json.loads(json.dumps(README_CONFIG))
    cfg["grid"] = {"extent": [[-1.0, 1.0], [-1.0, 1.0]], "n": [48, 48]}
    cfg["bump"].update(center=[-0.5, 0.0], radius=0.3)
    cfg["localization"]["x0"] = [0.5, 0.0]
    cfg["snapshots"] = 9
    return cfg


class TestTwoDimensionalRuns:
    @pytest.mark.parametrize("cmd", ["solve", "localize"])
    def test_readme_config_on_a_square(self, tmp_path, cmd):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(readme_config_2d()))
        code, out = run(tmp_path, cmd, "--config", str(path))
        assert code == EXIT_OK
        with open(os.path.join(str(out), "snapshots.csv")) as fh:
            rows = fh.read().strip().splitlines()
        assert rows[0] == "t,x,y,u"
        assert len(rows) == 1 + 9 * 48 ** 2
        if cmd == "solve":
            info = load_json(out, "run.json")
            # the 2-D active window, never the whole 46 x 46 interior
            assert 0 < info["cell_updates"] < info["n_steps"] * 46 ** 2


# values of a wrong JSON type for each kind of field in README_CONFIG; null
# is left out for the optional blocks (null means absent) and for s_min
# (null is valid there)
_WRONG = {
    "number": ["1e-3", True, None, {}, [1.0], 10 ** 400],
    "integer": ["256", True, None, {}, [256], 256.5],
    "number?": ["1e-8", True, {}, [1e-8]],
    "numbers": ["0.5", True, None, {}, [], ["0.5"]],
    "snapshots": ["33", True, None, {}, [], 2.5, ["0.1"]],
    "string": [1, True, None, {}, ["out"]],
    "kind": [1, True, None, {}, ["power"]],
    "enum": [1, True, None, {}, ["tent"]],
    "lambda": ["1.0", True, None, {}, [1.0]],
    "extent": ["-1,1", 1.0, True, None, {}, [], [[-1.0]],
               [[-1.0, 1.0, 2.0]], [-1.0, 1.0]],
    "pair": ["ab", 1.0, True, None, [1.0], ["a", "b"]],
    "n": ["401", 401, True, None, {}, [], [401, 401]],
    "sweep": ["1e-3", 1e-3, True, {}, [1e-3], ["a", "b"]],
    "block": ["x", 1, True, [1]],
    "required block": ["x", 1, True, [1], None],
}
_LEAVES = {
    ("profile",): "required block", ("profile", "kind"): "kind",
    ("profile", "beta"): "number", ("profile", "M"): "number",
    ("lambda",): "lambda", ("table",): "block",
    ("table", "s_min"): "number?", ("table", "K"): "integer",
    ("grid",): "required block", ("grid", "extent"): "extent",
    ("grid", "extent", 0): "pair", ("grid", "extent", 0, 0): "number",
    ("grid", "extent", 0, 1): "number", ("grid", "n"): "n",
    ("grid", "n", 0): "integer", ("eps",): "number", ("T",): "number",
    ("snapshots",): "snapshots", ("bump",): "block",
    ("bump", "center"): "numbers", ("bump", "center", 0): "number",
    ("bump", "radius"): "number", ("bump", "height"): "number",
    ("bump", "shape"): "enum", ("psi",): "number",
    ("localization",): "block", ("localization", "x0"): "numbers",
    ("localization", "x0", 0): "number", ("localization", "R"): "number",
    ("localization", "Rp"): "number", ("eps_sweep",): "sweep",
    ("eps_sweep", 1): "number", ("kinetic",): "block",
    ("kinetic", "tau0"): "number", ("kinetic", "a"): "number",
    ("kinetic", "dt"): "number", ("kinetic", "shape"): "enum",
    ("out_dir",): "string",
    ("profile", "tail"): "number?", ("profile", "path"): "string",
    ("profile", "F0"): "number", ("profile", "h0"): "number",
    ("exponents",): "block",
    ("exponents", "C1"): "number", ("exponents", "S"): "number",
    ("exponents", "j"): "number?",
}
_NUMERIC = ("number", "number?", "integer", "lambda", "snapshots")
_REQUIRED = [("profile",), ("profile", "kind"), ("grid",), ("grid", "extent"),
             ("grid", "n"), ("bump", "center"), ("bump", "radius"),
             ("bump", "height"), ("localization", "x0"),
             ("localization", "R"), ("localization", "Rp")]
_UNKNOWN_ENUMS = [(("profile", "kind"), "fancy"), (("profile", "kind"), "Power"),
                  (("bump", "shape"), "box"), (("kinetic", "shape"), "boxcar"),
                  (("lambda",), "automatic")]
# a misspelled or unknown key, at the top level and in every block
_UNKNOWN_KEYS = [("Eps",), ("snapshot",), ("lamda",), ("profile", "Beta"),
                 ("table", "k"), ("grid", "N"), ("bump", "centre"),
                 ("localization", "r"), ("exponents", "c1"),
                 ("kinetic", "tau"), ("kinetic", "Shape")]
_COMMANDS = ["check", "table", "solve", "localize", "kinetic-compare",
             "sweep-eps"]
# the README config with the optional exponents block it leaves out, at the
# defaults, so that the fuzz reaches that block's fields too
_FUZZ_BASE = {**README_CONFIG,
              "exponents": {"C1": 1.0, "S": 1.0, "j": None}}

_WRONG_TYPE = st.sampled_from(sorted(_LEAVES)).flatmap(
    lambda path: st.sampled_from(_WRONG[_LEAVES[path]]).map(
        lambda v: ("set", path, v)))
_NON_FINITE = st.sampled_from(sorted(
    p for p, kind in _LEAVES.items() if kind in _NUMERIC)).flatmap(
    lambda path: st.sampled_from([math.nan, math.inf, -math.inf]).map(
        lambda v: ("set", path, v)))
_MUTATION = st.one_of(
    _WRONG_TYPE, _NON_FINITE,
    st.sampled_from(_REQUIRED).map(lambda p: ("del", p, None)),
    st.sampled_from(_UNKNOWN_ENUMS).map(lambda pv: ("set", pv[0], pv[1])),
    st.sampled_from(_UNKNOWN_KEYS).map(lambda p: ("set", p, 1.0)))


def _apply(cfg, mutation):
    """Apply one mutation; skip it when an earlier one replaced or removed
    a container on its path (the config is invalid already)."""
    op, path, value = mutation
    node = cfg
    for key in path[:-1]:
        if isinstance(node, dict) and key in node:
            node = node[key]
        elif isinstance(node, list) and isinstance(key, int) \
                and key < len(node):
            node = node[key]
        else:
            return
    key = path[-1]
    if isinstance(node, dict) and op == "set":
        node[key] = value
    elif isinstance(node, dict):
        node.pop(key, None)
    elif isinstance(node, list) and isinstance(key, int) and key < len(node):
        node[key] = value


# out-of-range values of the right type, with the exit code of the phase
# that reads them: every subcommand builds the table (3), the solving ones
# build the grid, the hump and the declared empty ball (4), and
# kinetic-compare alone reads the master equation's tau0 and dt (6)
_SOLVING = ("solve", "localize", "kinetic-compare", "sweep-eps")
_OUT_OF_RANGE = [
    *((path, value, 3, _COMMANDS) for path in (
        ("profile", "M"), ("profile", "beta"), ("table", "K"))
      for value in (0, -1)),
    *((path, value, 4, _SOLVING) for path in (
        ("grid", "n", 0), ("bump", "radius"), ("bump", "height"),
        ("localization", "R"))
      for value in (0, -1)),
    (("grid", "extent", 0), [1.0, -1.0], 4, _SOLVING),
    # b - a overflows: every cell width is inf
    (("grid", "extent", 0), [-1e308, 1e308], 4, _SOLVING),
    *((path, value, 6, ("kinetic-compare",)) for path in (
        ("kinetic", "tau0"), ("kinetic", "dt")) for value in (0, -1)),
]


class TestConfigFuzz:
    """One to three mutations of the README config, each a wrong type, a
    missing required key, an unknown key, an unknown enumerated value or a
    non-finite number: every subcommand exits 2 at config load, never 1
    (the catch-all) and never later.  An out-of-range value of the right type
    exits with the code of the phase that reads it."""

    @pytest.mark.parametrize(
        "path,value,code,readers", _OUT_OF_RANGE,
        ids=[f"{'.'.join(map(str, p))}={v}" for p, v, _, _ in _OUT_OF_RANGE])
    def test_out_of_range_value_exits_its_phase_code(self, tmp_path, path,
                                                     value, code, readers):
        cfg = json.loads(json.dumps(README_CONFIG))
        # a short run for the subcommands that do not read the value
        cfg["T"], cfg["snapshots"] = 0.002, 3
        if _LEAVES[path] == "number":
            value = float(value)
        _apply(cfg, ("set", path, value))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        codes = {command: main([command, "--config", str(path), "--out",
                                str(tmp_path / "out"), "--quiet"])
                 for command in _COMMANDS}
        assert codes == {command: code if command in readers else EXIT_OK
                         for command in _COMMANDS}

    @pytest.mark.parametrize("command,override,code", [
        ("table", {"profile": {"kind": "power", "beta": 2.0, "M": 1e308}},
         EXIT_COEFFS),
        ("table", {"profile": {"kind": "exp_inv", "M": 1e-310}}, EXIT_COEFFS),
        ("localize", {"exponents": {"S": 1e308, "C1": 1e308}},
         EXIT_LOCALIZATION),
        ("localize", {"exponents": {"j": 1e308}}, EXIT_LOCALIZATION),
    ], ids=["power-M**beta", "exp_inv-M**-beta", "C1**2", "j"])
    def test_overflow_exits_its_phase_code(self, tmp_path, command, override,
                                           code):
        # finite numbers whose arithmetic overflows or divides by zero
        cfg = dict(json.loads(json.dumps(README_CONFIG)), **override)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run(tmp_path, command, "--config", str(path))[0] == code
        err = load_json(tmp_path / "out", "error.json")
        assert err["exit_code"] == code
        assert err["error"] in ("OverflowError", "ZeroDivisionError")

    def test_tiny_lambda_names_lambda(self, tmp_path):
        # H = (Lambda*I)^(-1/Lambda) overflows: exit 3 naming Lambda, with
        # no numpy warning on the way
        cfg = write_config(tmp_path, **{"lambda": 1e-300})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, "table", "--config", cfg)
        assert code == EXIT_COEFFS
        err = load_json(out, "error.json")
        assert err["error"] == "AssumptionError"
        assert err["message"].endswith(" at Lambda = 1e-300: the table "
                                       "leaves the double range")

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(mutations=st.lists(_MUTATION, min_size=1, max_size=3),
           command=st.sampled_from(_COMMANDS))
    def test_mutated_readme_config_exits_config(self, tmp_path_factory,
                                                mutations, command):
        root = tmp_path_factory.getbasetemp() / "config-fuzz"
        root.mkdir(exist_ok=True)
        cfg = json.loads(json.dumps(_FUZZ_BASE))
        for mutation in mutations:
            _apply(cfg, mutation)
        path = root / "config.json"
        path.write_text(json.dumps(cfg))
        code = main([command, "--config", str(path),
                     "--out", str(root / "out"), "--quiet"])
        assert code == EXIT_CONFIG, (mutations, command, code)


class TestStiffKinds:
    """On the README config, exp_zeta_slow and exp_inv (at its s_min floor
    1e-2) have D(eps) = P(eps) + eps close to eps, so their explicit solve
    finishes.  A diffusivity of 1e6 (a constant profile with F0 = 1e6)
    puts the CFL step near 1e-11, whose march would spin through 5e9
    steps; the projection made before the first step exits 4 instead.
    sweep-eps marches each floor with solve and finishes."""

    @pytest.mark.parametrize("kind,floor,n_steps", [
        ("exp_zeta_slow", None, 174), ("exp_inv", 1e-2, 76)])
    def test_solve_finishes(self, tmp_path, kind, floor, n_steps):
        cfg = json.loads(json.dumps(README_CONFIG))
        cfg["profile"] = {"kind": kind, "M": 1.0}
        if floor is not None:
            cfg["table"]["s_min"] = cfg["eps"] = floor
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code, out = run(tmp_path, "solve", "--config", str(path))
        assert code == EXIT_OK
        info = load_json(out, "run.json")
        assert info["n_steps"] == n_steps
        assert info["energy_residual"] < 0.03
        assert info["eps"] <= info["D_floor"] <= 1.0001 * info["eps"]

    def test_solve_exits_4_before_any_step(self, tmp_path, monkeypatch):
        # D is evaluated once for the budget projection and once per step
        calls = []
        diffusivity = solver_mod.EpsProblem.diffusivity

        def counted(*args, **kwargs):
            calls.append(1)
            return diffusivity(*args, **kwargs)

        monkeypatch.setattr(solver_mod.EpsProblem, "diffusivity", counted)
        cfg = json.loads(json.dumps(README_CONFIG))
        cfg["profile"] = {"kind": "constant", "F0": 1e6, "h0": 1.0}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code, out = run(tmp_path, "solve", "--config", str(path))
        assert code == EXIT_SOLVER
        err = load_json(out, "error.json")
        assert err["error"] == "CflError" and err["phase"] == "solve"
        assert "max D" in err["message"] and "budget" in err["message"]
        assert len(calls) == 1

    def test_sweep_eps_finishes_exp_zeta_slow(self, tmp_path):
        # each rung takes the steps of solve at its eps
        cfg = json.loads(json.dumps(README_CONFIG))
        cfg["profile"] = {"kind": "exp_zeta_slow", "M": 1.0}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code, out = run(tmp_path, "sweep-eps", "--config", str(path))
        assert code == EXIT_OK
        info = load_json(out, "sweep.json")
        assert info["cauchy_decreasing"]
        assert info["n_steps"] == [180, 177, 175]
        for eps, n_steps in zip(cfg["eps_sweep"], info["n_steps"]):
            path.write_text(json.dumps(dict(cfg, eps=eps)))
            code, out = run(tmp_path, "solve", "--config", str(path))
            assert code == EXIT_OK
            assert load_json(out, "run.json")["n_steps"] == n_steps

    @pytest.mark.parametrize("kind,n_steps", [
        ("power", [695, 691, 689]), ("exp_zeta_bounded", [490, 487, 485]),
        ("exp_inv", [239, 130, 76]), ("constant", [5031, 5028, 5027])])
    def test_sweep_eps_finishes(self, tmp_path, kind, n_steps):
        # the README config as the CI loop writes it; exp_inv's ladder
        # falls to its table floor s_min = 1e-2
        cfg = json.loads(json.dumps(README_CONFIG))
        cfg["profile"] = {"kind": kind, "M": 1.0}
        if kind == "exp_inv":
            cfg["table"]["s_min"] = cfg["eps"] = 1e-2
            cfg["eps_sweep"] = [4e-2, 2e-2, 1e-2]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code, out = run(tmp_path, "sweep-eps", "--config", str(path))
        assert code == EXIT_OK
        info = load_json(out, "sweep.json")
        assert info["cauchy_decreasing"]
        assert info["n_steps"] == n_steps

    def test_sweep_eps_below_the_table_floor_marches_nothing(
            self, tmp_path, monkeypatch):
        calls = []
        diffusivity = solver_mod.EpsProblem.diffusivity

        def counted(*args, **kwargs):
            calls.append(1)
            return diffusivity(*args, **kwargs)

        monkeypatch.setattr(solver_mod.EpsProblem, "diffusivity", counted)
        # exp_inv's table starts at 1e-2; the README ladder lies below it
        cfg = json.loads(json.dumps(README_CONFIG))
        cfg["profile"] = {"kind": "exp_inv", "M": 1.0}
        cfg["table"]["s_min"] = cfg["eps"] = 1e-2
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code, out = run(tmp_path, "sweep-eps", "--config", str(path))
        assert code == EXIT_SOLVER
        err = load_json(out, "error.json")
        assert err["error"] == "DomainError" and err["phase"] == "solve"
        assert err["message"].startswith("eps=0.001 below the table's")
        assert not os.path.exists(os.path.join(str(out), "sweep.json"))
        assert calls == []


class TestRecordedOutputs:
    """Headline figures of the CLI, recorded from the code before the
    checker, localization and kinetic layers lost their unused options and
    second copies of shared rules; that cut changed no output.  Values, not
    file hashes, so the check does not depend on one platform's libm."""

    @pytest.mark.parametrize("kind, A_est, B_est, C1", [
        ("power", 1.0000000000000018, 1.000000000000001, 1.0000000000000018),
        ("exp_inv", 0.5545179984440193, 0.0, 0.7602151692361053),
        ("exp_zeta_bounded", 1.0, 1.0000013831042642, 1.006350688555979),
        ("exp_zeta_slow", 1.0, 0.05095619787331351, 1.0498908104297253),
    ])
    def test_check_example(self, tmp_path, kind, A_est, B_est, C1):
        code, out = run(tmp_path, "check", "--example", kind)
        assert code == EXIT_OK
        report = load_json(out, "report.json")
        np.testing.assert_allclose(
            [report["A_est"], report["B_est"], report["C1_est"]],
            [A_est, B_est, C1], rtol=1e-12, atol=0.0)

    def test_localize_readme_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(README_CONFIG))
        code, out = run(tmp_path, "localize", "--config", str(path))
        assert code == EXIT_OK
        dg = load_json(out, "degiorgi.json")
        np.testing.assert_allclose(dg["T_prime"], 1.9418075680732732e-08,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(dg["threshold"], 1.2085610364491632e-14,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(dg["Y"], [
            3.1110781248778844e-08, 2.3702803064737733e-08,
            2.1232521720995482e-08, 2.040592857075189e-08,
            2.020000249688282e-08, 1.9955245130170747e-08,
            1.9950625938279324e-08], rtol=1e-12, atol=0.0)
        assert dg["exponents"]["C2"] == 1.0
        front = np.loadtxt(out / "front.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(front[-1, 1:],
                                   [0.20299251870324186, 0.89900249376558605],
                                   rtol=1e-12, atol=0.0)

    def test_kinetic_compare_lab_config(self, tmp_path):
        # the benchmark's lab kinetic config: 1601 cells, a cos2 hump
        cfg = {"profile": {"kind": "power", "beta": 1.0, "M": 1.0},
               "lambda": 1.0, "table": {"s_min": 1e-8, "K": 256},
               "grid": {"extent": [[-1.0, 1.0]], "n": [1601]},
               "eps": 1e-6, "psi": 1.0, "T": 0.01, "snapshots": 2,
               "bump": {"center": [0.0], "radius": 0.3, "height": 0.05,
                        "shape": "cos2"},
               "kinetic": {"tau0": 1.5e-4, "a": 1.0, "dt": 3.75e-5}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code, out = run(tmp_path, "kinetic-compare", "--config", str(path))
        assert code == EXIT_OK
        np.testing.assert_allclose(
            load_json(out, "kinetic.json")["l1_over_mass"],
            0.013347607696345923, rtol=1e-12, atol=0.0)
