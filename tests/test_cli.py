"""Command-line entry: exit codes, file output, summary lines."""

import json
from dataclasses import replace

import numpy as np
import pytest

from nonclassicality.cli import main
from nonclassicality.core import DensityMatrix, SystemDims
from nonclassicality.protocol import (
    SUITE_REE_CONFIG,
    TripartiteScenario,
    save_scenario,
    theorem_property_suite,
)

TRIPLE = SystemDims((2, 2, 2), ("A", "B", "C"))


def tiny_scenario() -> TripartiteScenario:
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = 0.5
    m[7, 7] = 0.5
    zero = np.zeros((8, 8))
    return TripartiteScenario(
        name="tiny",
        rho0=DensityMatrix(m, TRIPLE),
        h_ac=zero,
        h_bc=zero,
        sample_times=(0.0, 0.2),
    )


class TestParsing:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        assert "gain-example" in capsys.readouterr().out

    def test_subcommand_help_exits_clean(self, capsys):
        assert main(["optomech-sweep", "--help"]) == 0
        assert "--pb-mw-min" in capsys.readouterr().out


class TestDetectionCommands:
    def test_gain_example_writes_json(self, tmp_path, capsys):
        out = tmp_path / "gain.json"
        assert main(["gain-example", "--times", "2", "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "scenario=gain-example" in summary
        assert "verdict=INCONCLUSIVE" in summary
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "INCONCLUSIVE"
        assert len(payload["times"]) == 2
        assert out.read_text().endswith("\n")

    def test_format_inferred_from_extension(self, tmp_path, capsys):
        out = tmp_path / "gain.csv"
        assert main(["gain-example", "--times", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "t,e_ab_lo,e_ab_hi,e_abc_lo,e_abc_hi,d_ab_c"
        assert len(lines) == 3

    def test_counterexample_summary_and_csv(self, tmp_path, capsys):
        out = tmp_path / "cex.csv"
        code = main(["counterexample", "--times", "3", "--format", "csv",
                     "--out", str(out)])
        assert code == 0
        assert "scenario=counterexample" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + the three sampled times

    def test_detect_runs_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_scenario(tiny_scenario(), str(path))
        out = tmp_path / "report.json"
        code = main(["detect", "--scenario", str(path), "--out", str(out)])
        assert code == 0
        assert "scenario=tiny" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "INCONCLUSIVE"

    def test_sec_detect_runs_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_scenario(tiny_scenario(), str(path))
        assert main(["sec-detect", "--scenario", str(path)]) == 0
        assert "verdict=" in capsys.readouterr().out

    def test_missing_scenario_file_is_usage_error(self, tmp_path, capsys):
        code = main(["detect", "--scenario", str(tmp_path / "nope.json")])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_corrupt_scenario_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{\"name\": \"x\"}")
        assert main(["detect", "--scenario", str(path)]) == 2
        assert "bad scenario file" in capsys.readouterr().err

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gain-example", "--times", "2", "--out", str(out1)]) == 0
        first = capsys.readouterr().out
        assert main(["gain-example", "--times", "2", "--out", str(out2)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert out1.read_bytes() == out2.read_bytes()


class TestReeFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["--ree-max-iter", "-5"], "--ree-max-iter"),
        (["--gap-tol", "nan"], "--gap-tol"),
        (["--gap-tol", "0"], "--gap-tol"),
        (["--bracket-tol=-1e-3"], "--bracket-tol"),
        (["--bracket-tol", "inf"], "--bracket-tol"),
        (["--seed", "-1"], "--seed"),
    ])
    def test_rejected_budget_is_usage_error_naming_the_flag(self, argv, flag, capsys):
        assert main(["gain-example", "--times", "2"] + argv) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and flag in err

    def test_theorem_suite_checks_the_same_flags(self, capsys):
        for argv, flag in ((["--gap-tol", "nan"], "--gap-tol"), (["--seed", "-1"], "--seed")):
            assert main(["theorem-suite", "--trials", "1"] + argv) == 2
            err = capsys.readouterr().err
            assert "usage error" in err and flag in err


class TestTheoremSuiteCommand:
    def test_single_trial_passes(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        code = main(["theorem-suite", "--trials", "1", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        summary = capsys.readouterr().out
        assert "passed=True" in summary
        assert "closed=1" in summary and "open=1" in summary
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["failures"] == []

    def test_override_flag_keeps_the_suite_budget(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        assert main(["theorem-suite", "--trials", "1", "--seed", "7",
                     "--gap-tol", "0.002", "--out", str(out)]) == 0
        capsys.readouterr()
        cfg = replace(SUITE_REE_CONFIG, gap_tol=0.002)
        expected = theorem_property_suite(7, 1, ree_config=cfg).to_json() + "\n"
        assert out.read_text() == expected

    def test_zero_trials_is_computation_error(self, capsys):
        assert main(["theorem-suite", "--trials", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_csv_not_offered(self, capsys):
        code = main(["theorem-suite", "--trials", "1", "--format", "csv"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err


class TestOptomechCommands:
    def test_dynamics_row_count(self, tmp_path, capsys):
        out = tmp_path / "dyn.csv"
        code = main(["optomech-dynamics", "--pb-mw", "60",
                     "--t-max-omega-c", "2", "--samples", "5",
                     "--out", str(out)])
        assert code == 0
        assert "powers_mW=60" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "P_b_mW,t_s,t_omega_c,E_ab,E_abc"
        assert len(lines) == 7  # header, t=0, five samples
        assert lines[1].startswith("60,0,0,")

    def test_dynamics_rejects_json(self, tmp_path, capsys):
        # the flag is constrained at the parser...
        code = main(["optomech-dynamics", "--pb-mw", "60", "--format", "json"])
        assert code == 2
        assert "invalid choice" in capsys.readouterr().err
        # ...and extension inference runs into the same wall
        out = tmp_path / "dyn.json"
        code = main(["optomech-dynamics", "--pb-mw", "60", "--out", str(out)])
        assert code == 2
        assert "not supported here" in capsys.readouterr().err

    def test_dynamics_bad_params_file(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text("{\"mass_kg\": 1}")
        code = main(["optomech-dynamics", "--params", str(path)])
        assert code == 2
        assert "bad parameter file" in capsys.readouterr().err

    def test_fig4_single_power_deterministic(self, tmp_path, capsys):
        argv = ["fig4", "--pb-mw", "40", "--t-max-omega-c", "10",
                "--samples", "25"]
        out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        assert main(argv + ["--out", str(out1)]) == 0
        capsys.readouterr()
        assert main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["fig4", "--pb-mw", "40", "--samples", "0", "--t-max-omega-c", "5"],
        ["optomech-dynamics", "--samples", "-4", "--t-max-omega-c", "5"],
    ])
    def test_non_positive_samples_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "--samples" in err

    def test_sweep_small_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["optomech-sweep",
                     "--pb-mw-min", "20", "--pb-mw-max", "60",
                     "--pb-steps", "2",
                     "--delta-b-omega-c-min", "-1",
                     "--delta-b-omega-c-max", "1",
                     "--delta-b-steps", "2",
                     "--out", str(out)])
        assert code == 0
        assert "points=4" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "P_b_mW,Delta_b_over_omega_c,stable,E_ab,E_abc"
        assert len(lines) == 5

    def test_sweep_zero_steps_is_usage_error(self, capsys):
        code = main(["optomech-sweep", "--pb-steps", "0"])
        assert code == 2
        assert "at least one step" in capsys.readouterr().err

    def test_fig5_rejects_json(self, capsys):
        assert main(["fig5", "--format", "json"]) == 2
        capsys.readouterr()
