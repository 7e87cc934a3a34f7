"""Tests of the benchmark itself: every correctness gate rejects a corrupted
output, the tracer survives a missing library name, and traced counts repeat.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, read_p5  # noqa: E402


def _one_op(name, tmp_path):
    from weakmeans import cli
    [op] = run.make_ops(WORKLOADS[name], 7, 1, tmp_path)
    outputs = run.run_op(cli, op)
    assert WORKLOADS[name].gate(op, outputs)
    return op, outputs


def _replace(outputs, index, text):
    return [(c, text if i == index else o) for i, (c, o) in enumerate(outputs)]


def test_falsify_gate_rejects_flipped_verdict(tmp_path):
    op, outputs = _one_op("falsify", tmp_path)
    i = next(i for i, (c, o) in enumerate(outputs) if json.loads(o)["property"] == "shift-invariant")
    report = json.loads(outputs[i][1])
    report.update(verdict="no-violation-found", witness=None)
    assert not WORKLOADS["falsify"].gate(op, _replace(outputs, i, json.dumps(report)))


def test_falsify_gate_rejects_witness_that_does_not_replay(tmp_path):
    op, outputs = _one_op("falsify", tmp_path)
    i = next(i for i, (c, o) in enumerate(outputs) if json.loads(o)["property"] == "monotone")
    report = json.loads(outputs[i][1])
    report["witness"]["y"] = report["witness"]["x"]
    assert not WORKLOADS["falsify"].gate(op, _replace(outputs, i, json.dumps(report)))


@pytest.mark.parametrize("name", ["filter", "filter-huber"])
def test_filter_gate_rejects_pixel_one_level_off(name, tmp_path):
    op, outputs = _one_op(name, tmp_path)
    path = op.data["outs"][-1]
    data = bytearray(path.read_bytes())
    levels = read_p5(bytes(data))
    i, j = divmod(int(op.data["spots"][-1][0]), levels.shape[1])
    offset = len(data) - levels.size + i * levels.shape[1] + j
    data[offset] += 1 if data[offset] < 255 else -1
    path.write_bytes(bytes(data))
    assert not WORKLOADS[name].gate(op, outputs)


def test_owa_gate_rejects_perturbed_value(tmp_path):
    op, outputs = _one_op("owa", tmp_path)
    [(code, out)] = outputs
    assert not WORKLOADS["owa"].gate(op, [(code, f"{float(out) * (1 + 1e-6):.12g}\n")])


def test_tracer_skips_missing_names_and_restores(tmp_path, monkeypatch):
    from weakmeans import cli
    monkeypatch.delattr(sys.modules["weakmeans.penalty"], "golden_section")
    original = sys.modules["weakmeans.means"].lehmer_mean
    tracer = tracing.Tracer()
    tracer.install()
    try:
        [op] = run.make_ops(WORKLOADS["falsify"], 3, 1, tmp_path)
        run.run_op(cli, op, tracer)
        tracer.end_op(0)
    finally:
        tracer.uninstall()
    assert sys.modules["weakmeans.means"].lehmer_mean is original
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.METRICS)
    assert metrics["penalty.golden_calls"] == 0.0
    assert metrics["properties.agg_calls"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_at_one_seed(name):
    def counts():
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
             "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=300, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        return {k: result["metrics"][k]["value"] for k in tracing.COUNTS}

    assert counts() == counts()


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".tmp-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "falsify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
