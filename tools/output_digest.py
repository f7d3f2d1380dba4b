"""Print one `name sha256` line per output array of a fixed set of rectifications.

Two trees that print the same lines compute byte-identical outputs, so
comparing them takes one diff:

    python3 tools/output_digest.py > new.txt
    (cd ../parent && python3 tools/output_digest.py) > old.txt
    diff old.txt new.txt

`output_digest.txt` beside this file holds the lines the tree prints
(numpy 2.4 with its bundled OpenBLAS 0.3.31 on x86-64, at 1 or 2 threads);
`tests/test_tools.py` compares against it. A change that alters an output
on purpose regenerates it:

    python3 tools/output_digest.py > tools/output_digest.txt

The set covers the paper's full path and the network-free one:
- `rectify_with_network` with `init_weights(3)` and a seeded nonzero
  `aipe.offset2`, on stripe images at out-sizes 32x128, 16x64, 32x32, 8x128;
- `rectify_map` on a 64-channel float32 map at 16x64, 32x128, 64x256 and
  65x257, whose warp ends one chunk of locations into a partial block, with
  null and decoded scores, under both borders;
- `rectify_map` on a 4-channel float64 map and on a 4-channel uint8 map at
  65x257, with null and decoded scores, under both borders: the warped
  outputs alone, of the sources the warp samples in float64 (a float32 map
  is sampled in float32);
- `rectify_map` where the sampling grid's blocks of locations end mid-lattice:
  17x63 and 65x257 with 4x16 control points, 33x100 with 2x2 and 8x16, each
  with null, decoded and per-location scores, and with 4x16, null and decoded
  scores, 480x640, whose kernel is over the plan cache budget, and 256x256 and
  128x512, whose kernels fit the budget alone but not beside their lattice's
  inverse: all three are built block by block;
- `fileio.import_grid_json` on a seeded points file with a 4096x64 attention
  matrix, written by `export_grid_json`: the parsed offsets, scores, lambda
  and beta.
Each digest covers the array's dtype and shape as well as its bytes.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from tpspp import fileio, network, rectify, synth, tps  # noqa: E402
from tpspp.warp import AttentionMatrix  # noqa: E402

LAM, BETA = 0.5, 1.0


def digest(a):
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str} {a.shape} ".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def network_outputs():
    tensors = dict(network.init_weights(3).items())
    rng = np.random.default_rng(3)
    for name in ("aipe.offset2.weight", "aipe.offset2.bias"):
        tensors[name] = rng.uniform(-0.05, 0.05, tensors[name].shape).astype(np.float32)
    weights = network.WeightStore(tensors)
    grid = tps.make_grid(4, 16)
    for i, (out_h, out_w) in enumerate([(32, 128), (16, 64), (32, 32), (8, 128)]):
        image = synth.make_stripe_image(i, amplitude=2.0 + i)
        warped, sampling, regressed, attention = rectify.rectify_with_network(
            image, weights, grid, LAM, BETA, out_h, out_w)
        name = f"network.{out_h}x{out_w}"
        yield f"{name}.warped", warped
        yield f"{name}.coords", sampling.coords
        yield f"{name}.offsets", regressed.offsets
        yield f"{name}.scores", attention.scores


def map_outputs():
    rng = np.random.default_rng(7)
    source = rng.standard_normal((64, 16, 64)).astype(np.float32)
    grid = tps.make_grid(4, 16)
    grid = grid.with_offsets(rng.uniform(-0.1, 0.1, grid.base.shape))
    decoded = network.DecodedAttention(rng.uniform(-0.9, 0.9, (network.DEC_H * network.DEC_W, grid.k)))
    for out_h, out_w in [(16, 64), (32, 128), (64, 256), (65, 257)]:
        for scores, attention in [("null", None), ("decoded", decoded)]:
            for border in ("zeros", "clamp"):
                warped, sampling = rectify.rectify_map(source, grid, attention, LAM, BETA,
                                                       out_h, out_w, border=border)
                name = f"map.{out_h}x{out_w}.{scores}.{border}"
                yield f"{name}.warped", warped
                yield f"{name}.coords", sampling.coords


def block_edge_outputs():
    rng = np.random.default_rng(11)
    source = rng.standard_normal((4, 16, 64)).astype(np.float32)
    for (rows, cols), out_h, out_w in [((4, 16), 17, 63), ((4, 16), 65, 257), ((2, 2), 33, 100),
                                       ((8, 16), 33, 100), ((4, 16), 480, 640),
                                       ((4, 16), 256, 256), ((4, 16), 128, 512)]:
        grid = tps.make_grid(rows, cols)
        grid = grid.with_offsets(rng.uniform(-0.1, 0.1, grid.base.shape))
        scores = {"null": None,
                  "decoded": network.DecodedAttention(rng.uniform(-0.9, 0.9, (1024, grid.k)))}
        if out_h * out_w < 1 << 16:  # per-location scores are themselves M x K
            scores["located"] = AttentionMatrix(rng.uniform(-0.9, 0.9, (out_h * out_w, grid.k)))
        for kind, attention in scores.items():
            warped, sampling = rectify.rectify_map(source, grid, attention, LAM, BETA, out_h, out_w)
            name = f"edge.{rows}x{cols}.{out_h}x{out_w}.{kind}"
            yield f"{name}.warped", warped
            yield f"{name}.coords", sampling.coords


def dtype_outputs():
    rng = np.random.default_rng(17)
    sources = {"float64": rng.standard_normal((4, 16, 64)),
               "uint8": rng.integers(0, 256, (4, 16, 64), dtype=np.uint8)}
    grid = tps.make_grid(4, 16)
    grid = grid.with_offsets(rng.uniform(-0.1, 0.1, grid.base.shape))
    decoded = network.DecodedAttention(rng.uniform(-0.9, 0.9, (1024, grid.k)))
    for dtype, source in sources.items():
        for scores, attention in [("null", None), ("decoded", decoded)]:
            for border in ("zeros", "clamp"):
                warped, _ = rectify.rectify_map(source, grid, attention, LAM, BETA, 65, 257,
                                                border=border)
                yield f"dtype.{dtype}.65x257.{scores}.{border}.warped", warped


def points_outputs():
    rng = np.random.default_rng(13)
    grid = tps.make_grid(4, 16)
    grid = grid.with_offsets(rng.uniform(-0.1, 0.1, grid.base.shape))
    attention = AttentionMatrix(rng.uniform(-0.9, 0.9, (4096, grid.k)))
    lam, beta = rng.uniform(0.0, 1.0), rng.uniform(0.5, 2.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "points.json"
        fileio.export_grid_json(grid, attention, path, lam=lam, beta=beta)
        parsed, scores, lam, beta = fileio.import_grid_json(path)
    yield "points.offsets", parsed.offsets
    yield "points.scores", scores.scores
    yield "points.lambda", np.float64(lam)
    yield "points.beta", np.float64(beta)


def main():
    for outputs in (network_outputs(), map_outputs(), dtype_outputs(), block_edge_outputs(),
                    points_outputs()):
        for name, array in outputs:
            print(name, digest(array))


if __name__ == "__main__":
    main()
