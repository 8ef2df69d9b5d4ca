import json
import math

import pytest

from bwtunnel.cli import parse_args
from bwtunnel.potential import BWParams, Kind
from bwtunnel.scattering import transmissivity

from conftest import KNOWN_SIGMA_PLUS, KNOWN_SIGMA_PRIME


class TestParseArgs:
    def test_reference_scan_configuration(self):
        cfg = parse_args([
            "scan-alpha", "--model", "plus", "--k", "1", "--eps", "0.1",
            "--b", "3", "--sigma", "1", "--alpha-min", "-40",
            "--alpha-max", "40", "--steps", "4000"])
        assert cfg.model is Kind.PLUS
        assert (cfg.c1, cfg.c2) == (3.0, 1.0)
        assert cfg.b == 3.0
        assert cfg.steps == 4000
        assert cfg.out_format == "csv"

    def test_defaults_follow_reference_configuration(self):
        cfg = parse_args(["scan-alpha"])
        assert cfg.model is Kind.PLUS
        assert cfg.b == 3.0 and cfg.sigma == 1.0
        assert cfg.eps == 0.1 and cfg.k == 1.0

    def test_grid_with_zero_sigma(self):
        cfg = parse_args(["grid", "--model", "minus", "--sigma", "0"])
        assert cfg.model is Kind.MINUS and cfg.sigma == 0.0
        assert cfg.k_min == 0.01

    def test_steps_too_small_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["scan-alpha", "--steps", "1"])
        assert exc.value.code == 2

    def test_b_and_c_pair_conflict(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["scan-alpha", "--b", "3", "--c1", "2", "--c2", "1"])
        assert exc.value.code == 2

    def test_c1_without_c2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["scan-alpha", "--c1", "2"])
        assert exc.value.code == 2

    def test_c_pair_accepted(self):
        cfg = parse_args(["scan-alpha", "--c1", "2.5", "--c2", "0.5"])
        assert (cfg.c1, cfg.c2) == (2.5, 0.5)
        assert cfg.b == 5.0

    def test_eps_list_must_decrease(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["converge", "--alpha", "2.28", "--eps-list", "0.1,0.2"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["scan-alpha", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"model": "minus", "b": 2.0, "alpha-min": -5.0}))
        cfg = parse_args(["scan-alpha", "--config", str(cfgfile), "--b", "4"])
        assert cfg.model is Kind.MINUS  # from file
        assert cfg.b == 4.0             # flag wins
        assert cfg.alpha_min == -5.0    # dashed key accepted


class TestRunCommands:
    def test_scan_alpha_csv_shape(self, run_cli):
        code, out, err = run_cli([
            "scan-alpha", "--alpha-min", "0", "--alpha-max", "1", "--steps", "3"])
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,k,T,log10T"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0
        assert float(first[2]) == 1.0  # free particle

    def test_scan_alpha_json_round_trip(self, run_cli):
        code, out, _ = run_cli([
            "scan-alpha", "--alpha-min", "2", "--alpha-max", "3", "--steps", "5",
            "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ks"] == [1.0]
        assert len(payload["alphas"]) == 5 and len(payload["values"]) == 5

    def test_resonances_reference_values(self, run_cli):
        code, out, _ = run_cli(["resonances", "--model", "plus"])
        assert code == 0
        entries = json.loads(out)
        plus = sorted(e["alpha"] for e in entries if e["set"] == "SigmaPlus" and e["alpha"] != 0)
        prime = sorted(e["alpha"] for e in entries if e["set"] == "SigmaPrime")
        assert len(plus) == len(KNOWN_SIGMA_PLUS)
        for got, want in zip(plus, KNOWN_SIGMA_PLUS):
            assert abs(got - want) < 0.01
        for got, want in zip(prime, KNOWN_SIGMA_PRIME):
            assert abs(got - want) < 0.01
        for e in entries:
            assert (e["theta"] is not None) == (e["set"] == "SigmaPrime")
            assert e["residual"] <= 1e-9

    def test_matrix_free_case(self, run_cli):
        code, out, _ = run_cli([
            "matrix", "--model", "minus", "--alpha", "0", "--k", "1",
            "--eps", "0.1", "--b", "3", "--sigma", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["det_error"] < 1e-12
        assert payload["max_rel_diff"] < 1e-12
        width = 2.0 * 4.0 * 0.1
        assert payload["product"]["m11"]["re"] == pytest.approx(math.cos(width), rel=1e-12)

    def test_matrix_raw_chain(self, run_cli):
        code, out, _ = run_cli(["matrix", "--raw", "1.5:0.5,0:0.25", "--k", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["closed_form"] is None and payload["max_rel_diff"] is None
        assert payload["det_error"] < 1e-12

    def test_converge_csv(self, run_cli):
        code, out, _ = run_cli([
            "converge", "--model", "plus", "--alpha", "2.2826475",
            "--eps-list", "0.2,0.1"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eps,alpha_peak,T_peak,alpha_drift"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2
        assert float(rows[0][3]) > float(rows[1][3])  # drift shrinks

    def test_classify_json(self, run_cli):
        code, out, _ = run_cli([
            "classify", "--model", "plus", "--alpha", "26.8672175538838"])
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "PartialTransmission"
        assert payload["set"] == "SigmaPrime"
        assert 0.0 < payload["t_limit"] < 1.0

    def test_grid_csv_row_major(self, run_cli):
        code, out, _ = run_cli([
            "grid", "--alpha-min", "0", "--alpha-max", "1", "--alpha-steps", "2",
            "--k-min", "1", "--k-max", "2", "--k-steps", "2"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        alphas = [float(line.split(",")[0]) for line in lines[1:]]
        ks = [float(line.split(",")[1]) for line in lines[1:]]
        assert alphas == [0.0, 0.0, 1.0, 1.0]  # alpha-major ordering
        assert ks == [1.0, 2.0, 1.0, 2.0]

    def test_computation_error_exits_one(self, run_cli):
        code, out, err = run_cli([
            "classify", "--model", "plus", "--alpha", "10",
            "--alpha-min", "-5", "--alpha-max", "5"])
        assert code == 1
        assert "error:" in err

    def test_out_file(self, run_cli, tmp_path):
        path = tmp_path / "scan.csv"
        code, out, _ = run_cli([
            "scan-alpha", "--alpha-min", "0", "--alpha-max", "1", "--steps", "3",
            "--out", str(path)])
        assert code == 0 and out == ""
        assert path.read_text().startswith("alpha,k,T,log10T\n")

    def test_help_lists_defaults(self, run_cli):
        code, out, _ = run_cli(["scan-alpha", "--help"])
        assert code == 0
        assert "default 0.1" in out and "default 1" in out


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["scan-alpha", "--alpha-min", "-10", "--alpha-max", "10", "--steps", "101"],
        ["resonances", "--model", "minus"],
        ["matrix", "--model", "plus", "--alpha", "2.5"],
        ["grid", "--alpha-min", "-5", "--alpha-max", "5", "--alpha-steps", "11",
         "--k-min", "0.5", "--k-max", "2", "--k-steps", "5", "--format", "json"],
    ])
    def test_repeated_runs_byte_identical(self, run_cli, argv):
        code1, out1, _ = run_cli(argv)
        code2, out2, _ = run_cli(argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestDegeneratePoints:
    # b = 1, eps = 0.5 gives h = d = 4: at k = 2 the barrier wave number p
    # vanishes exactly at alpha = 1 and the well wave number q at alpha = -1

    def test_matrix_at_zero_barrier_wave_number(self, run_cli):
        code, out, err = run_cli([
            "matrix", "--b", "1", "--eps", "0.5", "--alpha", "1", "--k", "2"])
        assert code == 0 and err == ""
        assert json.loads(out)["max_rel_diff"] < 1e-12

    @pytest.mark.parametrize("model, lo, hi", [
        ("plus", "0", "2"), ("plus", "-2", "0"), ("minus", "0", "2"), ("minus", "-2", "0")])
    def test_scan_through_degenerate_strength(self, run_cli, model, lo, hi):
        code, out, _ = run_cli([
            "scan-alpha", "--model", model, "--b", "1", "--eps", "0.5", "--k", "2",
            "--alpha-min", lo, "--alpha-max", hi, "--steps", "5", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        for alpha, (t,) in zip(payload["alphas"], payload["values"]):
            direct = transmissivity(BWParams(Kind(model), alpha, 0.5, 1.0, 1.0, 1.0), 2.0)
            assert abs(t - direct) < 1e-9
