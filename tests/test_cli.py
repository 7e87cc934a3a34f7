import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weakmeans
from weakmeans import GrayImage, read_pgm, write_pgm
from weakmeans.cli import main


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


def test_usage_error_exit_code(capsys):
    assert main(["aggregate", "nosuchmean", "--", "1"]) == 2
    assert main(["frobnicate"]) == 2


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
