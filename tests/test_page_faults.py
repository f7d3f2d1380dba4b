"""Minor page faults per warm request, counted in a fresh interpreter.

A warm request reuses the pages of the one before it: each kind below reads well under one
fault per call. A change that keeps outputs byte-identical can still break that by giving
glibc's dynamic mmap and trim thresholds a new allocation sequence; fusing relu into
conv2d's float64 GEMM buffer made the forward take about 1,800-1,950 faults per call, 7-8 MB
of fresh pages. A fault count is exact where timings drift with the host, so this guard pins it.

The child runs with OPENBLAS_NUM_THREADS=1 and without malloc variables in its environment;
the library sets no malloc options of its own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

resource = pytest.importorskip("resource")

import tpspp  # noqa: E402  (the child imports tpspp from where this process found it)

# faults per call, about 30 times the readings on a 2-vCPU Xeon (glibc 2.36, Python 3.11):
# every library kind reads 0.0-0.2; the CLI, whose parse of a 5.7 MB points file builds a
# few hundred thousand Python objects, reads 0-16 once warm, and thousands on its first calls
LIBRARY_BOUND = 16
CLI_BOUND = 512

CHILD = r"""
import json, resource, sys
from pathlib import Path

import numpy as np

from tpspp import cli, fileio, network, rectify, synth, tps


def per_call(run, calls=10, warm=3):
    for _ in range(warm):
        run()
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        run()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / calls


work = Path(sys.argv[1])
fileio.save_weights(network.init_weights(0), work / "w.tpsw")
weights = fileio.load_weights(work / "w.tpsw")
image = synth.make_stripe_image(7)
base = tps.make_grid(network.ENC_H, network.ENC_W)
faults = {}
faults["rectification_forward"] = per_call(
    lambda: network.rectification_forward(image, weights, base))
faults["rectify_with_network"] = per_call(
    lambda: rectify.rectify_with_network(image, weights, base, 0.5, 1.0, 32, 128))

rng = np.random.default_rng(0)
grid = base.with_offsets(rng.uniform(-0.05, 0.05, (base.k, 2)))
source = rng.standard_normal((64, network.DEC_H, network.DEC_W)).astype(np.float32)
decoded = network.DecodedAttention(rng.uniform(-0.5, 0.5, (network.DEC_H * network.DEC_W, grid.k)))
for out_h, out_w in [(16, 64), (32, 128), (64, 256)]:
    for name, att in [("none", None), ("decoded", decoded)]:
        faults[f"rectify_map-{out_h}x{out_w}-{name}"] = per_call(
            lambda: rectify.rectify_map(source, grid, att, 0.5, 1.0, out_h, out_w))

fileio.save_image(image, work / "in.pgm")
scores = rng.uniform(-0.5, 0.5, (image.shape[1] * image.shape[2], grid.k))
(work / "points.json").write_text(json.dumps({
    "rows": grid.rows, "cols": grid.cols, "base": grid.base.tolist(),
    "offsets": grid.offsets.tolist(), "lambda": 0.5, "beta": 1.0, "attention": scores.tolist()}))
argv = ["rectify", "--image", str(work / "in.pgm"), "--points", str(work / "points.json"),
        "--out", str(work / "out.pgm"), "--overlay"]
assert cli.main(argv) == 0
# the parse's Python objects settle into reused arenas only after about a dozen calls
faults["cli-rectify-points-overlay"] = per_call(lambda: cli.main(argv), 4, warm=10)
json.dump(faults, sys.stdout)
"""

KINDS = [f"rectify_map-{size}-{scores}" for size in ("16x64", "32x128", "64x256")
         for scores in ("none", "decoded")] + ["rectification_forward", "rectify_with_network"]


@pytest.fixture(scope="module")
def faults(tmp_path_factory):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(tpspp.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep))
    work = tmp_path_factory.mktemp("faults")
    out = subprocess.run([sys.executable, "-c", CHILD, str(work)], env=env, capture_output=True,
                         text=True, cwd=work, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.parametrize("kind", KINDS)
def test_warm_library_request_takes_few_page_faults(faults, kind):
    assert faults[kind] <= LIBRARY_BOUND, faults


def test_warm_cli_points_request_takes_bounded_page_faults(faults):
    assert faults["cli-rectify-points-overlay"] <= CLI_BOUND, faults
