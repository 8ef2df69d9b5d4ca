import io
import json
import math
import os
import re
import stat
import threading
import warnings
from contextlib import redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwtunnel import cli, scattering, serialize
from bwtunnel.cli import main, parse_args, run
from bwtunnel.potential import BWParams, Kind
from bwtunnel.resonance import WindowTooCoarseError, resonance_sets
from bwtunnel.scattering import grid, grid_blocks, transmissivity
from bwtunnel.serialize import csv_row, floats, format_rows, json_dumps, quote_nonfinite

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

    def test_shared_parser_parses_like_a_fresh_one(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"model": "minus", "b": 2.0, "eps-list": [0.2, 0.1]}))
        calls = [
            ["converge", "--config", str(cfgfile), "--alpha", "1.5"],
            ["scan-alpha", "--steps", "1"],
            ["grid", "--sigma", "0", "--k-steps", "9"],
        ]

        def outcome(argv):
            try:
                return parse_args(argv)
            except SystemExit as e:
                return e.code, capsys.readouterr().err

        assert cli._build_parser() is cli._build_parser()
        shared = [outcome(argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert shared == fresh
        assert shared[0].model is Kind.MINUS and shared[0].eps_list == [0.2, 0.1]
        assert shared[1][0] == 2 and "--steps" in shared[1][1]
        assert shared[2].sigma == 0.0 and shared[2].k_steps == 9


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

    def test_matrix_raw_chain_ignores_the_strength(self, run_cli):
        # the slab product of an explicit chain has no strength, as it has no model
        code, out, _ = run_cli(["matrix", "--raw", "5:0.1,-3:0.2", "--alpha", "7"])
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] is None and payload["alpha"] is None
        assert out == run_cli(["matrix", "--raw", "5:0.1,-3:0.2"])[1]

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


class TestLibraryFlags:
    """--tol, --grid-steps and --match-tol reach the library."""

    def test_match_tol_widens_the_match(self, run_cli):
        labels = [json.loads(run_cli(["classify", "--alpha", "2.2826", *extra])[1])["label"]
                  for extra in ([], ["--match-tol", "1e-4"])]
        assert labels == ["Opaque", "TotalTransmission"]

    def test_grid_steps_sets_the_scan_cell(self, run_cli):
        # sigma = 1e300 packs the roots closer than either cell of the window (-40, 40)
        for extra, cell in (([], "(0.004)"), (["--grid-steps", "1000"], "(0.08)")):
            code, out, err = run_cli(["resonances", "--sigma", "1e300", *extra])
            assert code == 1 and out == ""
            assert err.startswith("error: roots ") and cell in err

    def test_tol_sets_the_bisection_width(self, run_cli):
        first = [json.loads(run_cli(["resonances", *extra])[1])[0]["alpha"]
                 for extra in ([], ["--tol", "1e-3"])]
        assert first[0] == pytest.approx(-35.8212234, abs=1e-7)
        assert first[1] == pytest.approx(-35.821125, abs=1e-7)


class TestLocalClassify:
    """classify solves the grid cells around its strength, not the whole window."""

    # at negative strengths the tan phase is near 1e51 and changes sign between
    # grid points, so the window's roots there come in pairs closer than one
    # cell; at positive strengths both phases are sqrt(2 alpha)
    HUGE = ["--b", "1e100", "--sigma", "1e100"]

    @staticmethod
    def _full_window_error():
        with pytest.raises(WindowTooCoarseError) as exc:
            resonance_sets(Kind.PLUS, 1e100, 1e100)
        return exc.value

    def test_pair_far_from_the_strength_no_longer_fails(self, run_cli):
        assert float(re.search(r"and (\S+) are", str(self._full_window_error())).group(1)) < -30.0
        code, out, err = run_cli(["classify", *self.HUGE, "--alpha", "10"])
        assert code == 0 and err == ""
        assert json.loads(out)["label"] == "Opaque"

    @pytest.mark.parametrize("member", [1, 2])
    def test_pair_within_reach_still_fails(self, run_cli, member):
        # on either root of the pair, the other lies in a neighbouring cell
        error = self._full_window_error()
        alpha = re.search(r"roots (\S+) and (\S+) are", str(error)).group(member)
        code, out, err = run_cli(["classify", *self.HUGE, "--alpha", alpha])
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {error}"]

    def test_a_pole_is_no_root_of_resonances(self, run_cli):
        # the full window raised WindowTooCoarseError on a tan pole and a root
        code, out, err = run_cli(["resonances", "--model", "minus", "--b", "90.65087093655639",
                                  "--sigma", "9.885609104410841"])
        assert code == 0 and err == ""
        assert -0.12343864195794031 in [r["alpha"] for r in json.loads(out)]


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


def test_production_commands_never_take_the_slab_product(run_cli):
    # the closed-form kernel is their one route, down to the exact p = 0 / q = 0
    # points; the slab product is left to transmissivity and matrix, the oracle
    degenerate = ["--b", "1", "--eps", "0.5", "--alpha-min", "-2", "--alpha-max", "2",
                  "--alpha-steps", "17", "--k-min", "1", "--k-max", "2", "--k-steps", "2"]
    argvs = [
        ["scan-alpha", "--steps", "401"],
        ["grid", "--model", "plus", *degenerate],
        ["grid", "--model", "minus", *degenerate],
        ["converge", "--alpha", "2.282647521704435", "--eps-list", "0.2,0.1"],
        # the narrow crest of test_narrow_crest_reports_its_peak
        ["converge", "--model", "minus", "--alpha", "26.867217553883783",
         "--eps-list", "1e-3,3e-4,1e-4"],
        ["resonances"],
        ["classify", "--alpha", "2.282647521704435"],
    ]
    slab_product = mock.patch("bwtunnel.transfer.chain_matrix",
                              side_effect=AssertionError("the slab product was called"))
    with slab_product as spy:
        for argv in argvs:
            code, out, err = run_cli(argv)
            assert code == 0 and out and err == "", argv
    assert not spy.called


class TestRejectedInput:
    @pytest.mark.parametrize("argv", [
        ["scan-alpha", "--alpha-min", "0", "--alpha-max", "inf", "--steps", "3"],
        ["grid", "--k-max", "inf", "--alpha-min", "0", "--alpha-max", "1",
         "--alpha-steps", "2", "--k-steps", "2"],
        ["scan-alpha", "--k", "nan"],
    ])
    def test_non_finite_number_is_usage_error(self, run_cli, argv):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert "must be a finite number" in err

    def test_malformed_raw_chain_is_usage_error(self, run_cli):
        code, out, err = run_cli(["matrix", "--raw", "1:0.1,abc"])
        assert code == 2 and out == ""
        assert "'abc' is not 'value:width'" in err

    @pytest.mark.parametrize("raw", ["", " , ,"])
    def test_empty_raw_chain_is_usage_error(self, run_cli, raw):
        code, out, err = run_cli(["matrix", "--raw", raw])
        assert code == 2 and out == ""
        assert "the chain is empty" in err

    @pytest.mark.parametrize("argv, message", [
        (["scan-alpha", "--alpha-min", "1", "--alpha-max", "1"],
         "--alpha-min must be strictly less than --alpha-max"),
        (["grid", "--alpha-min", "2", "--alpha-max", "1"],
         "--alpha-min must be strictly less than --alpha-max"),
        (["grid", "--k-min", "2", "--k-max", "1"], "--k-min must be strictly less than --k-max"),
    ])
    def test_unordered_range_is_usage_error(self, run_cli, argv, message):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert message in err

    def test_x_left_is_no_flag(self, run_cli):
        code, out, err = run_cli(["matrix", "--raw", "1:1", "--x-left", "1"])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --x-left" in err

    # eps^2 underflows to 0, so the barrier height would divide by zero
    @pytest.mark.parametrize("argv", [
        ["scan-alpha", "--eps", "1e-200", "--steps", "3"],
        ["matrix", "--alpha", "1", "--eps", "1e-200"],
    ])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_non_finite_geometry_is_computation_error(self, run_cli, tmp_path, argv, to_file):
        path = tmp_path / "out.txt"
        code, out, err = run_cli([*argv, *(["--out", str(path)] if to_file else [])])
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: the slab geometry of eps = 1e-200, c1 = 3.0, c2 = 1.0, sigma = 1.0 is not finite"]
        assert not path.exists()

    @pytest.mark.parametrize("argv, message", [
        (["matrix", "--alpha", "1e6"], "math range error"),  # cmath overflows in a slab
        (["converge", "--alpha", "1e5", "--eps-list", "0.1"],  # the pre-scan's T is NaN
         "transmission is not finite on [99999.5, 100000.5]"),
    ], ids=["matrix", "converge"])
    def test_math_range_is_computation_error(self, run_cli, argv, message):
        code, out, err = run_cli(argv)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("model", ["plus", "minus"])
    @pytest.mark.parametrize("eps", ["0.1", "1e-7"])
    def test_matrix_past_the_slab_range_is_computation_error(self, run_cli, model, eps):
        # transmissivity gives NaN there; the slab product itself keeps raising
        code, out, err = run_cli(["matrix", "--model", model, "--alpha", "3.5e5", "--eps", eps])
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: math range error"]

    def test_r_past_the_float_range_is_computation_error(self, run_cli):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["resonances", "--model", "minus",
                                      "--b", "1e300", "--sigma", "5e-324"])
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: r = sqrt(b / sigma) is not finite at b = 1e+300, sigma = 5e-324"]


SCAN_ARGV = ["scan-alpha", "--alpha-min", "0", "--alpha-max", "1"]
CONVERGE_ARGV = ["converge", "--alpha", "2.2826475"]


class TestConfigFile:
    @pytest.fixture
    def config(self, tmp_path):
        def _write(data):
            path = tmp_path / "run.json"
            path.write_text(json.dumps(data))
            return str(path)
        return _write

    @pytest.mark.parametrize("data, argv, want", [
        ({"steps": "abc"}, SCAN_ARGV, 2),
        ({"model": "bogus"}, SCAN_ARGV, 2),
        ({"steps": 4000.5}, SCAN_ARGV, 2),
        ({"steps": 4000.0}, SCAN_ARGV, 0),
        ({"eps": None}, SCAN_ARGV, 0),
        ({"format": "xml", "eps-list": "0.1,0.05"}, CONVERGE_ARGV, 2),
        # as --eps-list 5: no crest near 2.28 at eps = 5, a computation error
        ({"eps_list": 5}, CONVERGE_ARGV, 1),
    ])
    def test_values_pass_the_flag_checks(self, run_cli, config, data, argv, want):
        code, out, err = run_cli([*argv, "--config", config(data)])
        assert code == want
        assert (out != "") == (want == 0)
        assert sum("error:" in line for line in err.splitlines()) == (want != 0)

    @pytest.mark.parametrize("data, flags", [
        ({"eps_list": 5}, ["--eps-list", "5"]),
        ({"eps_list": [0.2, 0.1]}, ["--eps-list", "0.2,0.1"]),
        ({"radius": 0.25, "k": None, "eps-list": "0.1"}, ["--radius", "0.25", "--eps-list", "0.1"]),
        ({"model": "minus", "format": "json", "eps-list": "0.1"},
         ["--model", "minus", "--format", "json", "--eps-list", "0.1"]),
    ])
    def test_values_parse_as_flags(self, config, data, flags):
        from_file = vars(parse_args([*CONVERGE_ARGV, "--config", config(data)]))
        from_flags = vars(parse_args([*CONVERGE_ARGV, *flags]))
        assert {**from_file, "config": None} == from_flags

    def test_out_and_format_keys(self, run_cli, config, tmp_path):
        target = tmp_path / "scan.json"
        code, out, _ = run_cli([*SCAN_ARGV, "--steps", "2",
                                "--config", config({"out": str(target), "format": "json"})])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["alphas"] == [0.0, 1.0]

    @pytest.mark.parametrize("text", [None, "{steps: 3}"], ids=["missing", "not_json"])
    def test_unreadable_config_is_usage_error(self, run_cli, tmp_path, text):
        path = tmp_path / "run.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run_cli([*SCAN_ARGV, "--config", str(path)])
        assert code == 2 and out == ""
        assert f"--config {path}: " in err

    @pytest.mark.parametrize("data", [[], ["--steps", 3], "steps", 3, None])
    def test_config_that_is_no_object_is_usage_error(self, run_cli, config, data):
        code, out, err = run_cli([*SCAN_ARGV, "--config", config(data)])
        assert code == 2 and out == ""
        assert "top level must be a JSON object" in err

    @pytest.mark.parametrize("key", ["alpah_min", "out_path"])
    def test_key_of_no_command_is_usage_error(self, run_cli, config, key):
        code, _, err = run_cli([*SCAN_ARGV, "--config", config({key: 1})])
        assert code == 2 and repr(key) in err

    def test_keys_of_other_commands_are_skipped(self, config):
        cfg = parse_args(["scan-alpha", "--config", config(
            {"steps": 5, "k_steps": 3, "eps-list": "0.2,0.1", "raw": "1:1"})])
        assert cfg.steps == 5
        assert not any(name in cfg for name in ("k_steps", "eps_list", "raw"))

    @pytest.mark.parametrize("data, flags", [
        ({"b": 2.0}, ["--c1", "1", "--c2", "2"]),
        ({"c1": 2.0, "c2": 1.0}, ["--b", "2"]),
    ])
    def test_b_and_c_pair_conflict_across_sources(self, config, data, flags):
        with pytest.raises(SystemExit) as exc:
            parse_args(["scan-alpha", *flags, "--config", config(data)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, data, flags", [
        ("converge", {"alpha": 2.28, "eps-list": [0.2, 0.1]}, ["--alpha", "2.28", "--eps-list", "0.2,0.1"]),
        ("classify", {"alpha": 2.282647521704435}, ["--alpha", "2.282647521704435"]),
    ])
    def test_config_supplies_the_required_flags(self, run_cli, config, command, data, flags):
        from_file = run_cli([command, "--config", config(data)])
        assert from_file[0] == 0 and from_file == run_cli([command, *flags])

    @pytest.mark.parametrize("argv, flag", [
        (["converge", "--eps-list", "0.1"], "--alpha"),
        (["classify"], "--alpha"),
        (["converge", "--alpha", "2.28"], "--eps-list"),
    ])
    @pytest.mark.parametrize("with_config", [False, True])
    def test_missing_required_flag_is_usage_error(self, run_cli, config, argv, flag, with_config):
        code, out, err = run_cli([*argv, *(["--config", config({"b": 3})] if with_config else [])])
        errors = [line for line in err.splitlines() if "error:" in line]
        assert code == 2 and out == ""
        assert len(errors) == 1 and f"{flag} is required for {argv[0]}" in errors[0]

    def test_flag_wins_for_list_and_choice(self, config):
        cfg = parse_args([*CONVERGE_ARGV, "--eps-list", "0.05", "--format", "csv",
                          "--config", config({"eps_list": [0.2, 0.1], "format": "json"})])
        assert cfg.eps_list == [0.05] and cfg.out_format == "csv"


def _per_point_oracle(template, alpha_range, k_range, alpha_steps, k_steps):
    """CSV and JSON bytes of the whole grid, one point at a time."""
    g = grid(template, alpha_range, k_range, alpha_steps, k_steps)
    lines = [b"alpha,k,T,log10T"]
    for i, a in enumerate(g.alphas.tolist()):
        for j, k in enumerate(g.ks.tolist()):
            t = float(g.values[i, j])
            lines.append(csv_row((a, k, t, math.log10(t) if t > 0 else -math.inf)))
    payload = {"alphas": g.alphas.tolist(), "ks": g.ks.tolist(), "values": g.values.tolist()}
    return (b"\n".join(lines) + b"\n").decode(), (json_dumps(payload) + b"\n").decode()


class TestStreamedOutput:
    ARGV = ["grid", "--alpha-min", "-5", "--alpha-max", "5", "--alpha-steps", "9",
            "--k-min", "0.5", "--k-max", "2", "--k-steps", "3"]

    @pytest.fixture
    def fail_third_block(self, monkeypatch):
        real = scattering._transmission_array
        calls = []

        def kernel(*args):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("complex residue in u or v; branch inconsistency")
            return real(*args)

        monkeypatch.setattr(scattering, "BLOCK_POINTS", 6)  # two alpha rows per block
        monkeypatch.setattr(scattering, "_transmission_array", kernel)
        return calls

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_error_in_a_later_block_leaves_no_file(self, run_cli, tmp_path, fail_third_block, fmt):
        path = tmp_path / "grid.out"
        code, out, err = run_cli([*self.ARGV, "--format", fmt, "--out", str(path)])
        assert code == 1 and out == ""
        assert "complex residue" in err
        assert len(fail_third_block) == 3  # two blocks were written before the failure
        assert not path.exists()

    def test_error_in_a_later_block_removes_an_earlier_output(self, run_cli, tmp_path,
                                                              fail_third_block):
        path = tmp_path / "grid.csv"
        path.write_bytes(b"x" * 100000)
        code, out, err = run_cli([*self.ARGV, "--out", str(path)])
        assert code == 1 and "complex residue" in err
        assert not path.exists()

    def test_error_in_a_later_block_keeps_a_symlink_and_its_target(self, run_cli, tmp_path,
                                                                   fail_third_block):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("earlier output\n" * 1000)
        link.symlink_to(target)
        code, out, err = run_cli([*self.ARGV, "--out", str(link)])
        assert code == 1 and "complex residue" in err
        assert link.is_symlink() and os.readlink(link) == str(target)
        # the open truncated the target, which then took the two finished blocks
        assert target.read_text().count("\n") == 1 + 2 * 2 * 3

    def test_error_in_a_later_block_keeps_a_fifo(self, run_cli, tmp_path, fail_third_block):
        fifo = tmp_path / "grid.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        code, out, err = run_cli([*self.ARGV, "--out", str(fifo)])
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert code == 1 and "complex residue" in err
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert got[0].count("\n") == 1 + 2 * 2 * 3  # header and the two finished blocks

    def test_symlinked_out_writes_its_target(self, run_cli, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("earlier output\n")
        link.symlink_to(target)
        code, out, err = run_cli([*self.ARGV, "--out", str(link)])
        assert code == 0 and out == "" and err == ""
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text().count("\n") == 1 + 9 * 3

    @pytest.mark.parametrize("old", [None, "shorter", "longer"])
    def test_existing_out_is_overwritten_with_the_fresh_bytes(self, run_cli, tmp_path, old):
        fresh, path, link = tmp_path / "fresh.csv", tmp_path / "grid.csv", tmp_path / "hard.csv"
        assert run_cli([*self.ARGV, "--out", str(fresh)]) == (0, "", "")
        want = fresh.read_bytes()
        if old is not None:
            path.write_bytes(want[:10] if old == "shorter" else b"x" * (3 * len(want)))
            path.chmod(0o640)
            os.link(path, link)
        assert run_cli([*self.ARGV, "--out", str(path)]) == (0, "", "")
        assert path.read_bytes() == want
        if old is not None:  # the same file: the mode stays and a hard link sees the new bytes
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
            assert link.read_bytes() == want

    def test_read_only_out_is_a_computation_error(self, run_cli, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("earlier output\n")
        path.chmod(0o444)
        try:
            os.close(os.open(path, os.O_WRONLY))
        except PermissionError:
            pass
        else:
            pytest.skip("this process may write a read-only file (root with CAP_DAC_OVERRIDE)")
        code, out, err = run_cli([*self.ARGV, "--out", str(path)])
        assert code == 1 and out == "" and err.startswith("error: ") and "Permission denied" in err
        assert path.read_text() == "earlier output\n"

    def test_error_in_a_later_block_on_stdout_exits_one(self, run_cli, fail_third_block):
        code, out, err = run_cli(self.ARGV)
        assert code == 1 and "error:" in err
        assert out.count("\n") == 1 + 2 * 2 * 3  # header and the two finished blocks

    @pytest.mark.parametrize("out_flag", [True, False])
    def test_validation_failure_writes_nothing(self, tmp_path, capsys, out_flag):
        path = tmp_path / "grid.csv"
        path.write_text("earlier output\n")
        config = parse_args([*self.ARGV, *(["--out", str(path)] if out_flag else [])])
        config.k_min = 0.0  # past the parser; the library's own check rejects it
        with pytest.raises(ValueError, match="k values must be > 0"):
            run(config)
        assert capsys.readouterr().out == ""
        assert path.read_text() == "earlier output\n"

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["scan-alpha", "grid"])
    def test_zeroed_points_across_block_edges(self, kind, fmt, command):
        # at eps = 1e-3 every point with alpha >= 70 (rows 27-40 of 41) has an entry
        # past 1e12 and T below 1e-20; 9-point blocks put a block edge between
        # row 26 and row 27, and every row holds its finite, nonzero T
        template = BWParams(kind, 0.0, 1e-3, 3.0, 1.0, 1.0)
        if command == "scan-alpha":
            k_range, k_steps, axes = (1.0, 1.0), 1, ["--k", "1", "--steps", "41"]
        else:
            k_range, k_steps = (0.5, 2.0), 3
            axes = ["--alpha-steps", "41", "--k-min", "0.5", "--k-max", "2", "--k-steps", "3"]
        want_csv, want_json = _per_point_oracle(template, (-200.0, 200.0), k_range, 41, k_steps)
        argv = [command, "--model", kind.value, "--eps", "1e-3", "--alpha-min", "-200",
                "--alpha-max", "200", "--format", fmt, *axes]
        out = io.StringIO()
        with mock.patch.object(scattering, "BLOCK_POINTS", 9), redirect_stdout(out):
            assert main(argv) == 0
        text = out.getvalue()
        assert text == (want_csv if fmt == "csv" else want_json)
        assert "-inf" not in text and "nan" not in text
        if fmt == "csv":
            ts = [float(row.split(",")[2]) for row in text.splitlines()[1:]]
        else:
            ts = [t for row in json.loads(text)["values"] for t in row]
        assert len(ts) == 41 * k_steps and all(0.0 < t <= 1.0 for t in ts)

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(Kind), degenerate=st.booleans(),
           window=st.sampled_from([(-3.0, 3.0), (0.0, 2.5), (-1.5, 0.0), (-7.0, 5.5)]),
           alpha_steps=st.integers(2, 23), k_steps=st.integers(1, 5),
           block_points=st.integers(1, 40), fmt=st.sampled_from(["csv", "json"]))
    def test_blocks_stream_the_per_point_bytes(self, kind, degenerate, window, alpha_steps,
                                               k_steps, block_points, fmt):
        if degenerate:
            # the p = 0 / q = 0 points of test_grid_matches_slab_product_at_degenerate_points
            # (alpha = +-0.25 at k = 1, +-1 at k = 2), on either side of a block edge as
            # block_points // 2 moves the edges
            window, alpha_steps, k_range, k_steps, b, eps = (-2.0, 2.0), 17, (1.0, 2.0), 2, 1.0, 0.5
        else:
            k_range, b, eps = ((1.3, 1.3) if k_steps == 1 else (0.4, 2.5)), 3.0, 0.2
        template = BWParams(kind, 0.0, eps, b, 1.0, 1.0)
        want_csv, want_json = _per_point_oracle(template, window, k_range, alpha_steps, k_steps)

        common = ["--model", kind.value, "--b", repr(b), "--eps", repr(eps),
                  "--alpha-min", repr(window[0]), "--alpha-max", repr(window[1]), "--format", fmt]
        if k_steps == 1:
            argv = ["scan-alpha", *common, "--k", repr(k_range[0]), "--steps", str(alpha_steps)]
        else:
            argv = ["grid", *common, "--alpha-steps", str(alpha_steps), "--k-min", repr(k_range[0]),
                    "--k-max", repr(k_range[1]), "--k-steps", str(k_steps)]
        out = io.StringIO()
        with mock.patch.object(scattering, "BLOCK_POINTS", block_points), redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue() == (want_csv if fmt == "csv" else want_json)


STDOUT_CASES = {
    "scan-csv": ["scan-alpha", "--steps", "5001"],
    "scan-json": ["scan-alpha", "--steps", "5001", "--format", "json"],
    "nan-scan-json": ["scan-alpha", "--alpha-min", "1e4", "--alpha-max", "1e6", "--steps", "9",
                      "--format", "json"],
    "grid-csv": ["grid", "--alpha-steps", "33", "--k-steps", "9"],
    "grid-json": ["grid", "--alpha-steps", "33", "--k-steps", "9", "--format", "json"],
    "resonances": ["resonances", "--model", "minus"],
    "converge-csv": ["converge", "--alpha", "2.282647521704435", "--eps-list", "0.2,0.1"],
    "converge-json": ["converge", "--alpha", "2.282647521704435", "--eps-list", "0.2,0.1",
                      "--format", "json"],
    "classify": ["classify", "--alpha", "26.867217553883783"],
    "matrix": ["matrix", "--model", "minus", "--alpha", "-7.3", "--sigma", "0"],
}


@pytest.mark.parametrize("case", list(STDOUT_CASES))
def test_out_file_holds_the_stdout_bytes(run_cli, tmp_path, case):
    # stdout through a StringIO, as run_cli captures it, and through a text layer over bytes
    argv = STDOUT_CASES[case]
    path = tmp_path / "out"
    assert run_cli([*argv, "--out", str(path)]) == (0, "", "")
    code, text, err = run_cli(argv)
    assert code == 0 and err == ""
    wrapped = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with redirect_stdout(wrapped):
        assert main(argv) == 0
    wrapped.flush()
    assert path.read_bytes() == text.encode("ascii") == wrapped.buffer.getvalue()


def _per_cell_reference(argv):
    """CSV and JSON bytes of argv's scan or grid, each cell formatted on its own."""
    config = parse_args(argv)
    if config.command == "scan-alpha":
        k_range, k_steps, alpha_steps = (config.k, config.k), 1, config.steps
    else:
        k_range, k_steps, alpha_steps = (config.k_min, config.k_max), config.k_steps, config.alpha_steps
    template = BWParams(config.model, 0.0, config.eps, config.c1, config.c2, config.sigma)
    g = grid(template, (config.alpha_min, config.alpha_max), k_range, alpha_steps, k_steps)

    def csv_cell(v):
        return "%.12g" % (v + 0.0)

    def json_cell(v):
        text = "%.17g" % (v + 0.0)
        return text if math.isfinite(v) else f'"{text}"'

    lines = ["alpha,k,T,log10T"]
    for a, row in zip(g.alphas.tolist(), g.values.tolist()):
        for k, t in zip(g.ks.tolist(), row):
            log_t = math.log10(t) if t > 0 else -math.inf if t == 0 else math.nan
            lines.append(",".join(map(csv_cell, (a, k, t, log_t))))
    rows = ", ".join("[" + ", ".join(map(json_cell, row)) + "]" for row in g.values.tolist())
    payload = (f'{{"alphas": [{", ".join(map(json_cell, g.alphas.tolist()))}], '
               f'"ks": [{", ".join(map(json_cell, g.ks.tolist()))}], "values": [{rows}]}}\n')
    return "\n".join(lines) + "\n", payload, g


class TestBlockBytes:
    """The block writer's bytes against a per-cell rendering of grid's values."""

    CASES = {
        "finite-scan": ["scan-alpha", "--model", "minus", "--steps", "2001"],
        "finite-grid": ["grid", "--alpha-steps", "33", "--k-steps", "9"],
        "nan-scan": ["scan-alpha", "--alpha-min", "1e4", "--alpha-max", "1e6", "--steps", "9"],
        "nan-grid": ["grid", "--alpha-min", "1e4", "--alpha-max", "1e6", "--alpha-steps", "3",
                     "--k-steps", "2"],
        # 5001 points: more than BLOCK_POINTS, and 1391 rows where T underflowed to 0
        "zero-scan": ["scan-alpha", "--alpha-min", "1.7e4", "--alpha-max", "2.2e4", "--steps", "5001"],
        "zero-grid": ["grid", "--alpha-min", "1.7e4", "--alpha-max", "2.2e4", "--alpha-steps", "11",
                      "--k-steps", "3"],
        # a k axis longer than BLOCK_POINTS: one alpha row per block, two JSON chunks of ks
        "long-k-grid": ["grid", "--alpha-min", "-0", "--alpha-max", "1", "--alpha-steps", "3",
                        "--k-steps", "5000"],
        # linspace ends an axis on its stop as given, so this one ends at -0, written 0
        "finite-minus-zero-scan": ["scan-alpha", "--alpha-min", "-3", "--alpha-max", "-0", "--steps", "301"],
        # from 1000 up the alpha cells keep their %g fields
        "finite-past-1000-scan": ["scan-alpha", "--alpha-min", "990", "--alpha-max", "1010",
                                  "--steps", "2001"],
        # a row layout that changes every row or two
        "finite-short-run-scan": ["scan-alpha", "--alpha-min", "-999", "--alpha-max", "999", "--steps", "5001",
                                  "--eps", "0.05", "--k", "3.7"],
        # runs of up to 315 equal row layouts, cut by blocks of 100 points
        "finite-block-crossing-scan": ["scan-alpha", "--alpha-min", "2", "--alpha-max", "2.5", "--steps", "2001"],
    }
    BLOCK_POINTS = {"finite-block-crossing-scan": 100}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_cli_bytes_equal_the_per_cell_rendering(self, run_cli, monkeypatch, case, fmt):
        argv = self.CASES[case]
        block_points = self.BLOCK_POINTS.get(case, scattering.BLOCK_POINTS)
        monkeypatch.setattr(scattering, "BLOCK_POINTS", block_points)
        monkeypatch.setattr(cli, "BLOCK_POINTS", block_points)
        want_csv, want_json, g = _per_cell_reference(argv)
        code, out, err = run_cli([*argv, "--format", fmt])
        assert code == 0 and err == ""
        assert out == (want_csv if fmt == "csv" else want_json)
        # each case holds what its name says
        kind = case.split("-")[0]
        assert np.isnan(g.values).any() == (kind == "nan")
        assert (g.values == 0).any() == (kind == "zero")
        assert (g.values.shape[1] == 1) == case.endswith("scan")
        if case == "zero-scan":
            assert g.values.size > scattering.BLOCK_POINTS
            assert want_csv.count(",-inf\n") == 1391
        if case == "long-k-grid":
            assert g.values.shape[1] > scattering.BLOCK_POINTS
        if case == "finite-minus-zero-scan":
            assert np.signbit(g.alphas[-1]) and g.alphas[-1] == 0
        if case == "finite-past-1000-scan":
            assert (g.alphas >= 1000).any() and (g.alphas < 1000).any()
        if case == "finite-block-crossing-scan":
            # some run of equal row layouts crosses a block boundary
            t = g.values.ravel()
            rows = np.column_stack([g.alphas, t, np.log10(t)])
            codes = serialize._codes(rows.ravel(), 12)[0].reshape(rows.shape)
            edges = np.arange(block_points, len(rows), block_points)
            assert (codes[edges] == codes[edges - 1]).all(axis=1).any()


def _percent_json(alphas, ks, values):
    """The JSON writer's bytes as one %.17g fill of each axis and of the value rows."""
    def fill(field, cells):
        return quote_nonfinite(format_rows(field * len(cells), (floats(cells),)))[2:]

    row = b", [" + b", ".join([b"%.17g"] * len(ks)) + b"]"
    return (b'{"alphas": [' + fill(b", %.17g", alphas) + b'], "ks": [' + fill(b", %.17g", ks)
            + b'], "values": [' + fill(row, values) + b"]}\n")


class TestJsonWriter:
    """cli._write_grid's JSON against the one %.17g fill per block it replaced."""

    CASES = {
        # 5001 rows of one cell: the axis and the rows cross BLOCK_POINTS
        "scan": (Kind.PLUS, 0.1, (-40.0, 40.0), (1.0, 1.0), 5001, 1),
        "grid": (Kind.MINUS, 0.2, (-40.0, 40.0), (0.01, 10.0), 33, 9),
        # every T is nan: each block is the plain fill
        "all-nan-grid": (Kind.PLUS, 0.1, (1e5, 1e6), (0.01, 10.0), 401, 401),
        # T underflows to 0 between tiny values; the alpha axis starts at -0
        "zero-scan": (Kind.MINUS, 0.1, (1.7e4, 2.2e4), (1.0, 1.0), 5001, 1),
        "signed-zero-grid": (Kind.PLUS, 0.2, (-0.0, 3.0), (0.5, 2.0), 7, 5000),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_grid_blocks(self, case):
        kind, eps, alpha_range, k_range, alpha_steps, k_steps = self.CASES[case]
        template = BWParams(kind, 0.0, eps, 3.0, 1.0, 1.0)
        alphas, ks, blocks = grid_blocks(template, alpha_range, k_range, alpha_steps, k_steps)
        blocks = list(blocks)
        values = np.concatenate([t for _, t in blocks])
        out = io.BytesIO()
        with np.errstate(all="raise"):
            cli._write_grid(out, "json", alphas, ks, iter(blocks))
        assert out.getvalue() == _percent_json(alphas, ks, values)
        assert np.isnan(values).all() == (case == "all-nan-grid")
        if case == "zero-scan":
            assert (values == 0).any() and (values > 0).any()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), width=st.integers(1, 4), block_points=st.integers(1, 9),
           block_rows=st.lists(st.integers(1, 5), min_size=1, max_size=5))
    def test_drawn_blocks(self, data, width, block_points, block_rows):
        # nan, +-inf and -0 among ordinary values, in blocks of drawn sizes;
        # block_points cuts the axes into chunks of their own
        cell = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 5e-324]),
                         st.floats(0.0, 1.0), st.floats(-50.0, 50.0))
        rows = sum(block_rows)
        values = np.reshape(data.draw(st.lists(cell, min_size=rows * width, max_size=rows * width)),
                            (rows, width))
        alphas = np.array(data.draw(st.lists(cell, min_size=rows, max_size=rows)))
        ks = np.array(data.draw(st.lists(cell, min_size=width, max_size=width)))
        cuts = np.cumsum([0, *block_rows])
        blocks = ((alphas[i:j], values[i:j]) for i, j in zip(cuts, cuts[1:]))
        out = io.BytesIO()
        with mock.patch.object(cli, "BLOCK_POINTS", block_points), np.errstate(all="raise"):
            cli._write_grid(out, "json", alphas, ks, blocks)
        assert out.getvalue() == _percent_json(alphas, ks, values)
