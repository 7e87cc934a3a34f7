import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import weakmeans
from weakmeans import (FilterConfig, GrayImage, SamplerConfig, filter_image, named_aggregator,
                       read_pgm, write_pgm)
from weakmeans import cli, properties
from weakmeans.cli import main
from weakmeans.properties import CHECKS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_aggregate_lehmer(capsys):
    code, out, _ = run(capsys, "aggregate", "lehmer", "--q", "1", "--", "1", "0.5")
    assert code == 0
    assert out.strip() == "0.833333333333"


def test_aggregate_mode_and_shorth(capsys):
    code, out, _ = run(capsys, "aggregate", "mode", "--", "1", "1", "2", "2", "3", "3", "3")
    assert code == 0 and float(out) == 3
    code, out, _ = run(capsys, "aggregate", "shorth", "--", "0", "1", "2", "10", "11")
    assert code == 0 and float(out) == 1


def test_aggregate_owa_penalty(capsys):
    # trimmed weights (1, 1, 0) are the LTS operator, (0, 0, 1) the midrange
    code, out, _ = run(capsys, "aggregate", "owa-penalty", "--weights", "1,1,0", "--", "0", "1", "10")
    assert code == 0 and out.strip() == "0.5"
    code, lts_out, _ = run(capsys, "aggregate", "lts", "--", "0", "1", "10")
    assert code == 0 and lts_out == out
    code, out, _ = run(capsys, "aggregate", "owa-penalty", "--weights", "0,0,1", "--", "0", "1", "10")
    assert code == 0 and out.strip() == "5"


def test_aggregate_from_file(tmp_path, capsys):
    f = tmp_path / "values.txt"
    f.write_text("1\n2\n3\n4\n")
    code, out, _ = run(capsys, "aggregate", "mean", "--file", str(f))
    assert code == 0 and float(out) == 2.5
    f.write_text("1\nx\n")
    code, out, err = run(capsys, "aggregate", "mean", "--file", str(f))
    assert code == 2 and out == "" and f"bad value in --file {f}:" in err and "'x'" in err


def test_aggregate_domain_error(capsys):
    code, _, err = run(capsys, "aggregate", "lehmer", "--q", "1", "--", "-1", "2")
    assert code == 2
    assert "domain" in err or "negative" in err


def test_aggregate_missing_param(capsys):
    code, _, err = run(capsys, "aggregate", "lehmer", "--", "1", "2")
    assert code == 2 and "--q" in err


def test_aggregate_rejects_parameters_the_mean_does_not_take(capsys):
    code, out, err = run(capsys, "aggregate", "mean", "--weights", "1,2", "--", "3", "1", "2")
    assert code == 2 and out == ""
    assert err.strip() == "error: mean takes no --weights"
    code, _, err = run(capsys, "aggregate", "lehmer", "--q", "1", "--p", "2", "--", "1", "2")
    assert code == 2 and "lehmer takes no --p" in err
    code, _, err = run(capsys, "check", "monotone", "median", "--q", "1", "--n", "3")
    assert code == 2 and "median takes no --q" in err
    # power takes --p and the optional --weights
    code, out, _ = run(capsys, "aggregate", "power", "--p", "1", "--weights", "1,3", "--", "0", "4")
    assert code == 0 and float(out) == 3


def test_check_weak_monotone_lehmer_violated(capsys):
    code, out, _ = run(
        capsys, "check", "weakly-monotone", "lehmer", "--q", "1", "--n", "3",
        "--samples", "20000",
    )
    assert code == 1
    assert "violated" in out


def test_check_shift_invariant_shorth(capsys):
    code, out, _ = run(
        capsys, "check", "shift-invariant", "shorth", "--n", "5", "--samples", "3000"
    )
    assert code == 0
    assert "no-violation-found" in out


def test_check_weak_monotone_mean(capsys):
    code, out, _ = run(
        capsys, "check", "weakly-monotone", "mean", "--n", "4", "--samples", "3000"
    )
    assert code == 0


def test_check_machine_format_roundtrips(capsys):
    code, out, _ = run(
        capsys, "check", "monotone", "mode", "--n", "7", "--samples", "20000",
        "--format", "machine",
    )
    assert code == 1
    report = json.loads(out)
    assert report["property"] == "monotone"
    assert report["verdict"] == "violated"
    assert isinstance(report["witness"]["x"], list)
    assert report["seed"] == 0
    assert report["evaluations"] >= 2 * report["samples_used"]
    assert report["elapsed_s"] > 0


def test_check_unknown_property(capsys):
    code, _, err = run(capsys, "check", "bounded", "mean", "--n", "3")
    assert code == 2 and "property" in err


@pytest.mark.parametrize("argv, message", [
    (("averaging", "mean", "--n", "0"), "n must be at least 1"),
    (("averaging", "mean", "--n", "-2"), "n must be at least 1"),
    (("weakly-monotone", "mean", "--n", "3", "--shift-max", "0"), "shift_max"),
    (("monotone", "lehmer", "--q", "2", "--n", "3", "--tol", "nan"), "tol"),
    (("monotone", "lehmer", "--q", "2", "--n", "3", "--tol", "inf"), "tol"),
], ids=["n-zero", "n-negative", "shift-max-zero", "tol-nan", "tol-inf"])
def test_check_bad_arity_or_shift_is_a_usage_error(capsys, argv, message):
    # exit 1 means "property violated", so a bad parameter must exit 2
    code, out, err = run(capsys, "check", *argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("argv", [
    ("gini", "--p", "1", "--q", "2", "--weights", "nan,1,1"),
    ("owa", "--weights", "nan,1,1"),
    ("power", "--p", "2", "--weights", "inf,1,1"),
    ("owa-penalty", "--weights", "nan,1,1"),
    ("owa-penalty", "--weights", "inf,1,1"),
])
def test_non_finite_weights_are_a_usage_error(capsys, argv):
    code, out, err = run(capsys, "aggregate", *argv, "--", "1", "2", "3")
    assert code == 2 and out == "" and "weights" in err and "must be finite" in err


@pytest.mark.parametrize("argv, message", [
    (("aggregate", "power", "--p", "nan", "--", "1", "2"), "--p must be a number"),
    (("check", "monotone", "lehmer", "--q", "nan", "--n", "3"), "--q must be a number"),
    (("table", "--q-list", "nan", "--n-max", "3"), "q must be a number"),
], ids=["aggregate-p", "check-q", "table-q-list"])
def test_nan_exponent_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and message in err


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--q-list", "1,3,0.5", "--n-max", "3",
                       "--samples", "2000")
    assert code == 0
    lines = out.splitlines()
    assert any("not weakly monotone" in line for line in lines)
    row_q1_n2 = next(l for l in lines if l.split()[:2] == ["1", "2"])
    assert "no-violation-found" in row_q1_n2
    row_q3 = next(l for l in lines if l.split()[:2] == ["3", "2"])
    assert "5" in row_q3  # bound 1+(4/2)^2


def test_table_options_left_out_keep_the_library_defaults(capsys, monkeypatch):
    used = []  # the config of every sampled row
    check = properties.check_weak_monotonicity
    monkeypatch.setattr(properties, "check_weak_monotonicity",
                        lambda F, n, cfg: used.append(cfg) or check(F, n=n, cfg=cfg))
    properties.lehmer_bound_table([2.0], 2)
    cfg = replace(used.pop(), seed=3)  # the table's default config at seed 3
    code, out, _ = run(capsys, "table", "--seed", "3", "--n-max", "3")
    assert code == 0 and used and all(u == cfg for u in used)
    rows = [line.split() for line in out.splitlines()[2:]]
    expected = properties.lehmer_bound_table(list(dict.fromkeys(float(r[0]) for r in rows)), 3, cfg)
    assert [(float(r[0]), int(r[1]), r[-1]) for r in rows] == [
        (e["q"], e["n"], e["empirical"]) for e in expected]


@pytest.mark.parametrize("prop", sorted(CHECKS))
def test_check_options_left_out_keep_the_library_defaults(capsys, prop):
    code, out, _ = run(capsys, "check", prop, "lehmer", "--q", "2", "--n", "3",
                       "--samples", "300", "--format", "machine")
    report = CHECKS[prop](named_aggregator("lehmer", q=2.0), n=3, cfg=SamplerConfig(samples=300))
    assert code == int(report.violated)
    assert _without_timing(out) == _without_timing(report.to_json() + "\n")


def test_check_averaging_of_weights_whose_sum_overflows(capsys):
    code, out, _ = run(capsys, "check", "averaging", "owa", "--weights", "1e308,1e308,1e308",
                       "--samples", "2000")
    assert code == 0 and "no-violation-found" in out


def test_filter_options_left_out_keep_the_library_defaults(tmp_path, capsys):
    img = GrayImage(pixels=np.random.default_rng(1).integers(0, 256, (8, 8)) / 255, maxval=255)
    src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
    src.write_bytes(write_pgm(img))
    code, _, _ = run(capsys, "filter", "--in", str(src), "--out", str(dst))
    read = read_pgm(src.read_bytes())
    expected = filter_image(read, FilterConfig(mode_quantize=1 / read.maxval))
    assert code == 0 and dst.read_bytes() == write_pgm(expected)


def test_filter_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(0)
    img = GrayImage(pixels=rng.integers(0, 256, (8, 8)) / 255, maxval=255)
    src = tmp_path / "in.pgm"
    dst = tmp_path / "out.pgm"
    src.write_bytes(write_pgm(img))
    code, out, _ = run(
        capsys, "filter", "--in", str(src), "--out", str(dst),
        "--radius", "1", "--estimator", "median",
    )
    assert code == 0
    assert "estimator=median" in out
    filtered = read_pgm(dst.read_bytes())
    assert filtered.pixels.shape == (8, 8)


def test_filter_constant_image_fixpoint(tmp_path, capsys):
    img = GrayImage(pixels=np.full((6, 6), 100 / 255), maxval=255)
    src, dst = tmp_path / "c.pgm", tmp_path / "c_out.pgm"
    src.write_bytes(write_pgm(img))
    code, _, _ = run(capsys, "filter", "--in", str(src), "--out", str(dst))
    assert code == 0
    assert dst.read_bytes() == src.read_bytes()


def test_filter_malformed_input(tmp_path, capsys):
    src = tmp_path / "bad.pgm"
    src.write_text("P2 2 2 255 1 2 3")
    dst = tmp_path / "never.pgm"
    code, _, err = run(capsys, "filter", "--in", str(src), "--out", str(dst))
    assert code == 2
    assert "truncated" in err


@pytest.mark.parametrize("option, name", [
    ("--tonal-sigma", "tonal_sigma"), ("--spatial-sigma", "spatial_sigma"),
    ("--huber-delta", "huber_delta"),
])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_filter_non_finite_parameter_is_a_usage_error(tmp_path, capsys, option, name, value):
    src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
    src.write_bytes(write_pgm(GrayImage(pixels=np.full((4, 4), 0.5), maxval=255)))
    code, out, err = run(capsys, "filter", "--in", str(src), "--out", str(dst),
                         "--dissimilarity", "huber", option, value)
    assert code == 2 and out == "" and f"{name} must be positive and finite" in err
    assert not dst.exists()


def test_usage_error_exit_code(capsys):
    assert main(["aggregate", "nosuchmean", "--", "1"]) == 2
    assert main(["frobnicate"]) == 2
    for argv, message in (
        (("aggregate", "mean"), "no input values given"),
        (("aggregate", "owa", "--weights", "1,x", "--", "1", "2"), "bad weight list '1,x'"),
        (("table", "--q-list", "1,x"), "bad --q-list '1,x': could not convert string to float: 'x'"),
        (("aggregate", "mean", "--", "1", "x"), "bad input value: could not convert string to float: 'x'"),
        (("check", "monotone", "mean", "--", "1", "2"), "only accepted by 'aggregate'"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and message in err


TOP_USAGE = "usage: weakmeans [-h] {aggregate,check,table,filter} ...\n"
CHECK_USAGE = """\
usage: weakmeans check [-h] [--q Q] [--p P] [--weights WEIGHTS] [--n N]
                       [--samples SAMPLES] [--seed SEED] [--tol TOL]
                       [--shift-max SHIFT_MAX] [--format {text,machine}]
                       {averaging,homogeneous,idempotent,internal,monotone,shift-invariant,weakly-monotone}
                       name
"""
AGGREGATE_USAGE = """\
usage: weakmeans aggregate [-h] [--q Q] [--p P] [--weights WEIGHTS]
                           [--file FILE]
                           name [values ...]
"""


@pytest.mark.parametrize("argv, err", [
    # tokens a command's parser leaves over are reported by the top-level parser
    (("check", "weakly-monotone", "lehmer", "--q", "2", "extra"),
     TOP_USAGE + "weakmeans: error: unrecognized arguments: extra\n"),
    (("check", "weakly-monotone", "lehmer", "--q", "2", "--bogus", "1"),
     TOP_USAGE + "weakmeans: error: unrecognized arguments: --bogus 1\n"),
    (("frobnicate",),
     TOP_USAGE + "weakmeans: error: argument command: invalid choice: 'frobnicate' "
                 "(choose from 'aggregate', 'check', 'table', 'filter')\n"),
    # a command's own errors carry its own usage
    (("check",),
     CHECK_USAGE + "weakmeans check: error: the following arguments are required: property, name\n"),
    (("aggregate", "--q", "1"),
     AGGREGATE_USAGE + "weakmeans aggregate: error: the following arguments are required: "
                       "name, values\n"),
])
def test_parse_errors_keep_their_messages(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")  # usage wraps at the terminal width
    assert run(capsys, *argv) == (2, "", err)


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-1e5"])
@pytest.mark.parametrize("name, flag", [("lehmer", "--q"), ("power", "--p")])
def test_negative_exponent_in_the_usual_form(capsys, name, flag, value):
    # argparse takes "-inf" for an option unless it is joined to its flag
    code, out, err = run(capsys, "aggregate", name, flag, value, "--", "1", "2")
    assert code == 0 and err == "" and float(out) == pytest.approx(1.0, abs=1e-5)  # near the min


def test_filter_radius_zero_is_the_identity_for_every_estimator(tmp_path, capsys):
    img = GrayImage(pixels=np.random.default_rng(0).integers(0, 256, (5, 6)) / 255, maxval=255)
    src = tmp_path / "in.pgm"
    src.write_bytes(write_pgm(img))
    for estimator in ("center", "median", "shorth", "mode"):
        dst = tmp_path / f"{estimator}.pgm"
        code, _, err = run(capsys, "filter", "--in", str(src), "--out", str(dst),
                           "--radius", "0", "--estimator", estimator)
        assert code == 0, err
        assert dst.read_bytes() == src.read_bytes()


@pytest.mark.parametrize("module", ["weakmeans", "weakmeans.cli"])
def test_runs_as_a_module(module):
    env = {**os.environ, "PYTHONPATH": str(Path(weakmeans.__file__).parents[1])}
    run_module = lambda *argv: subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=60)
    proc = run_module("aggregate", "mean", "--", "1", "2")
    assert (proc.returncode, proc.stdout) == (0, "1.5\n")
    proc = run_module("aggregate", "nosuchmean", "--", "1")
    assert proc.returncode == 2 and "unknown mean" in proc.stderr


def _without_timing(text):
    # a report's elapsed time is the one field that differs between two runs
    text = re.sub(r'"elapsed_s": [^,}]+', '"elapsed_s": T', text)
    return re.sub(r", [^ ]+ s\)$", ", T s)", text, flags=re.M)


def test_reused_parser_leaks_no_state_between_calls(capsys, monkeypatch):
    calls = [
        ("aggregate", "lehmer", "--q", "1", "--", "1", "0.5"),
        ("aggregate", "mean", "--", "-3", "4", "8", "1"),
        ("check", "weakly-monotone", "lehmer", "--q", "2", "--n", "3"),
        ("check", "weakly-monotone", "lehmer", "--q", "2", "--n", "3", "--format", "machine"),
        ("aggregate", "--q", "1"),
        ("aggregate", "median", "--", "5", "1", "2"),
        ("--help",),
        ("check", "--help"),
    ]
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the terminal width
    env = {**os.environ, "PYTHONPATH": str(Path(weakmeans.__file__).parents[1])}
    built = []  # every parser and subparser constructed
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    seen = []
    for argv in calls:
        code, out, err = run(capsys, *argv)
        seen.append(len(built))
        fresh = subprocess.run([sys.executable, "-m", "weakmeans", *argv], capture_output=True,
                               text=True, env=env, timeout=120)
        assert (code, _without_timing(out), err) == (
            fresh.returncode, _without_timing(fresh.stdout), fresh.stderr), argv
    assert seen[0] > 0 and seen == [seen[0]] * len(calls)
