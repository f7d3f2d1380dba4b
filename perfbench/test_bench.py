"""Tests of the benchmark itself: its output checks, counters and output contract."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
# per-layer metrics computed from shapes, sizes and call counts; they must repeat exactly
COUNTED = (".calls", ".gflop", ".mk_mb", ".mb")


def smoke(name, trace, seed=3, cwd=workloads.ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           "--workload", name, "--seed", str(seed), "--seconds", "1",
                           "--trace", str(trace), "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {name: result_of(smoke(name, 1)) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_emits_every_end_to_end_metric(name):
    result = result_of(smoke(name, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert run.check_metric_names(result, trace=0) == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_emits_every_per_layer_metric(traced, name):
    assert traced[name]["correct"] and traced[name]["failed"] == 0
    assert run.check_metric_names(traced[name], trace=1) == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counters_repeat_exactly(traced, name):
    again = result_of(smoke(name, 1))
    first = traced[name]["metrics"]
    counted = [k for k in first if k.endswith(COUNTED)]
    assert len(counted) == len(tracer.Tracer().stats) + 3  # calls, plus three work counters
    assert {k: first[k] for k in counted} == {k: again["metrics"][k] for k in counted}
    conv_calls = first["tensor.conv2d.calls"]["value"]
    assert conv_calls == (13 if name == "net_image" else 0)
    assert (first["fileio.import_grid_json.mb"]["value"] > 5.0) == (name == "cli_points")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_check_rejects_perturbed_output(name, tmp_path):
    workload = workloads.WORKLOADS[name](5, tmp_path)
    workload.prepare()
    workload.setup()
    req = workload.request(1)
    out = workload.run(req)
    assert workload.check(req, out) == []
    if name == "cli_points":
        path = workload.outs[req.file]
        grey = workloads.read_pgm(path)
        workloads.write_pgm(path, 255 - grey)
        assert workload.check(req, 0)
        assert workload.check(req, 2)
        return
    warped, sampling = out[0], out[1]
    assert workload.check(req, (warped + 1e-3,) + out[1:])
    moved = workloads.warp.SamplingGrid(sampling.height, sampling.width, sampling.coords + 1e-6)
    assert workload.check(req, (warped, moved) + out[2:])


def test_perturbed_outputs_are_counted_as_failed(monkeypatch):
    real = workloads.PointsFeatures.run

    def perturbed(self, req):
        warped, sampling = real(self, req)
        return warped * np.float32(1.01), sampling

    monkeypatch.setattr(workloads.PointsFeatures, "run", perturbed)
    result, _ = run.run("points_features", seed=2, seconds=0, trace=1, smoke=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2 * workloads.PointsFeatures.cycle


def test_tracer_wraps_every_binding_and_restores_it():
    rectify = importlib.import_module("tpspp.rectify")
    cli = importlib.import_module("tpspp.cli")
    warp = importlib.import_module("tpspp.warp")
    package = importlib.import_module("tpspp")
    original = warp.warp
    with tracer.Tracer().installed():
        assert rectify.warp is package.warp is warp.warp is not original
        assert cli.rectify_map is rectify.rectify_map
        assert cli.rectify_map.__wrapped__ is not None
    assert rectify.warp is package.warp is warp.warp is original
    assert not hasattr(cli.rectify_map, "__wrapped__")


def test_fails_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("points_features", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
