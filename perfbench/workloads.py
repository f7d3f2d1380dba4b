"""Workloads of the rectifier benchmark: inputs, set-up, requests and checks.

Every input is drawn from the workload seed, so one seed always gives the
same requests. A request is one call into the public API of tpspp.
`check` compares a request's output with the scalar reference paths
(`warp.map_point`, `oracles.bilinear_sample_scalar`, `oracles.ClassicTps`)
at a few seeded sample locations and returns the problems it found; an
empty list means the output is correct.

Requests come in rotation cycles of `cycle` requests. The runner always
completes whole cycles, so the mix of request kinds, and every count the
trace derives from shapes, is the same in every run.
"""

import importlib
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "tpspp" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no tpspp sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

# The package __init__ rebinds `tpspp.warp` to the warp *function*, so the
# submodules are fetched from the import system, never as package attributes.
cli = importlib.import_module("tpspp.cli")
fileio = importlib.import_module("tpspp.fileio")
network = importlib.import_module("tpspp.network")
oracles = importlib.import_module("tpspp.oracles")
rectify = importlib.import_module("tpspp.rectify")
synth = importlib.import_module("tpspp.synth")
tps = importlib.import_module("tpspp.tps")
warp = importlib.import_module("tpspp.warp")

GRID_ROWS, GRID_COLS = 4, 16
K = GRID_ROWS * GRID_COLS
LAM, BETA = 0.5, 1.0
IMAGE_H, IMAGE_W = network.INPUT_H, network.INPUT_W  # 32 x 128

# Seed streams: the requests, the files written before set-up, the warm-ups.
REQUESTS, FILES, WARMUP = 0, 1, 2

N_SAMPLED = 8          # lattice locations checked per request
COORD_TOL = 1e-8       # normalized units; LU vs numpy.linalg differ by ~1e-12
PIXEL_TOL = 1e-5       # float32 output against the float64 scalar oracle
GREY_TOL = 1           # PGM grey levels; rounding at .5 may flip either way


def _rng(seed, stream, i):
    return np.random.default_rng((seed, stream, i))


def _sampled(rng, m):
    """Both lattice corners plus N_SAMPLED seeded locations, as flat indices."""
    return np.unique(np.concatenate([[0, m - 1], rng.choice(m, N_SAMPLED, replace=False)]))


def _lattice(out_h, out_w):
    """Row-major (M, 2) output lattice spanning [-1, 1]^2, corners included."""
    gx, gy = np.meshgrid(np.linspace(-1.0, 1.0, out_w), np.linspace(-1.0, 1.0, out_h))
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def _attention_row(scores, n, out_h, out_w):
    """Scores of output location n; a decoded 16x64 matrix is read nearest-neighbour."""
    if scores is None:
        return np.zeros(K)
    if scores.shape[0] == out_h * out_w:
        return scores[n]
    i, j = divmod(int(n), out_w)
    dec_h, dec_w = network.DEC_H, network.DEC_W
    return scores[(i * dec_h // out_h) * dec_w + j * dec_w // out_w]


def _to_pixels(coord, h, w):
    return (coord[0] + 1.0) / 2.0 * (w - 1), (coord[1] + 1.0) / 2.0 * (h - 1)


def curved_offsets(rng, grid):
    """Offsets of a text line bent by a seeded sinusoid, plus a little jitter."""
    offsets = rng.uniform(-0.01, 0.01, grid.base.shape)
    x = grid.base[:, 0]
    offsets[:, 1] += rng.uniform(0.05, 0.3) * np.sin(np.pi * rng.uniform(0.5, 1.5) * x
                                                     + rng.uniform(0.0, 2.0 * np.pi))
    return offsets


def distance_scores(rng, grid, out_h, out_w):
    """Attention that falls off with the distance between location and control point.

    Independent uniform scores would modulate each kernel term at random and
    send almost every sample off the source; real attention is smooth.
    """
    d2 = ((_lattice(out_h, out_w)[:, None, :] - grid.base[None, :, :]) ** 2).sum(axis=2)
    width = rng.uniform(0.2, 0.5)
    gain = rng.uniform(0.5, 1.0, grid.k)
    return 0.9 * np.exp(-d2 / (2.0 * width * width)) * gain - rng.uniform(0.0, 0.3)


def reference_coords(grid, scores, lam, beta, out_h, out_w, indices):
    """Source coordinates of the sampled locations along the scalar path.

    The transform comes from the oracle's own classic TPS solve, not from
    `tps.solve_transform`, so the check also covers the production solve.
    """
    classic = oracles.ClassicTps(grid.base, grid.regressed)
    transform = tps.TpsTransform(classic.coef.T, grid.base, lam, beta)
    points = _lattice(out_h, out_w)[indices]
    mapped = np.array([warp.map_point(p, transform, _attention_row(scores, n, out_h, out_w))
                       for p, n in zip(points, indices)])
    return classic, points, mapped


def check_sampling(grid, scores, lam, beta, sampling, indices):
    """Problems in a sampling grid, against the scalar path and classic TPS."""
    out_h, out_w = sampling.height, sampling.width
    classic, points, want = reference_coords(grid, scores, lam, beta, out_h, out_w, indices)
    got = sampling.coords[indices]
    problems = [f"sampling at location {n}: {tuple(g)} != map_point {tuple(w)}"
                for n, g, w in zip(indices, got, want)
                if not np.allclose(g, w, rtol=0.0, atol=COORD_TOL)]
    if scores is None and beta == 1.0:
        classic_want = classic.map_many(points)
        problems += [f"sampling at location {n}: {tuple(g)} != ClassicTps {tuple(w)}"
                     for n, g, w in zip(indices, got, classic_want)
                     if not np.allclose(g, w, rtol=0.0, atol=COORD_TOL)]
    return problems


def check_pixels(source, out, coords, indices, channels):
    """Problems in warped pixels, against the scalar bilinear oracle."""
    _, h, w = source.shape
    out_w = out.shape[2]
    problems = []
    for n in indices:
        x, y = _to_pixels(coords[n], h, w)
        i, j = divmod(int(n), out_w)
        for c in channels:
            want = oracles.bilinear_sample_scalar(source[c], x, y)
            if not math.isclose(out[c, i, j], want, rel_tol=PIXEL_TOL, abs_tol=PIXEL_TOL):
                problems.append(f"pixel ({c},{i},{j}) = {out[c, i, j]} != oracle {want}")
    return problems


def check_shape(out, shape):
    if out.shape != shape:
        return [f"output shape {out.shape} != {shape}"]
    if not np.all(np.isfinite(out)):
        return ["output holds non-finite values"]
    return []


class NetImage:
    """`rectify_with_network` on seeded stripe images: the paper's full path."""

    name = "net_image"
    cycle = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.weights_path = Path(workdir) / "weights.tpsw"
        self.grid = tps.make_grid(GRID_ROWS, GRID_COLS)
        self.weights = None

    def prepare(self):
        fileio.save_weights(network.init_weights(self.seed), self.weights_path)

    def setup(self):
        self.weights = fileio.load_weights(self.weights_path)
        self.run(self.request(0, WARMUP))

    def request(self, i, stream=REQUESTS):
        rng = _rng(self.seed, stream, i)
        image = synth.make_stripe_image((self.seed, stream, i), amplitude=rng.uniform(1.0, 8.0))
        return SimpleNamespace(image=image, indices=_sampled(rng, IMAGE_H * IMAGE_W))

    def run(self, req):
        return rectify.rectify_with_network(req.image, self.weights, self.grid, LAM, BETA,
                                            IMAGE_H, IMAGE_W)

    def check(self, req, out):
        warped, sampling, regressed, attention = out
        problems = check_shape(warped, (1, IMAGE_H, IMAGE_W))
        # init_weights zeroes aipe.offset2, so the untrained network regresses nothing
        if np.any(regressed.offsets != 0.0) or np.any(regressed.base != self.grid.base):
            problems.append("regressed control points differ from the base lattice")
        problems += check_sampling(self.grid, attention.scores, LAM, BETA, sampling, req.indices)
        problems += check_pixels(req.image, warped, sampling.coords, req.indices, [0])
        return problems


class PointsFeatures:
    """`rectify_map` on 64-channel feature maps; the network is bypassed.

    The output lattice rotates through three sizes and attention alternates
    between null and a decoded 16x64 score matrix, a cycle of six requests.
    """

    name = "points_features"
    lattices = ((16, 64), (32, 128), (64, 256))
    cycle = 6
    channels = 64
    checked_channels = 4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.grid = tps.make_grid(GRID_ROWS, GRID_COLS)

    def prepare(self):
        pass

    def setup(self):
        for j in range(len(self.lattices)):
            self.run(self.request(2 * j + 1, WARMUP))

    def request(self, i, stream=REQUESTS):
        rng = _rng(self.seed, stream, i)
        out_h, out_w = self.lattices[(i // 2) % len(self.lattices)]
        source = rng.standard_normal((self.channels, network.DEC_H, network.DEC_W))
        scores = distance_scores(rng, self.grid, network.DEC_H, network.DEC_W) if i % 2 else None
        return SimpleNamespace(
            source=source.astype(np.float32),
            grid=self.grid.with_offsets(curved_offsets(rng, self.grid)),
            attention=None if scores is None else warp.AttentionMatrix(scores),
            scores=scores, out_h=out_h, out_w=out_w,
            indices=_sampled(rng, out_h * out_w),
            channels=rng.choice(self.channels, self.checked_channels, replace=False))

    def run(self, req):
        return rectify.rectify_map(req.source, req.grid, req.attention, LAM, BETA,
                                   req.out_h, req.out_w)

    def check(self, req, out):
        warped, sampling = out
        problems = check_shape(warped, (self.channels, req.out_h, req.out_w))
        problems += check_sampling(req.grid, req.scores, LAM, BETA, sampling, req.indices)
        problems += check_pixels(req.source, warped, sampling.coords, req.indices, req.channels)
        return problems


def write_pgm(path, grey):
    h, w = grey.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(grey.astype(np.uint8).tobytes())


def read_pgm(path):
    """Grey levels of a binary PGM written as `P5\\n<w> <h>\\n255\\n<bytes>`."""
    magic, size, maxval, payload = Path(path).read_bytes().split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path} is not an 8-bit binary PGM")
    w, h = map(int, size.split())
    return np.frombuffer(payload[:w * h], dtype=np.uint8).reshape(h, w)


def write_points_json(path, grid, scores, lam, beta):
    """Points JSON in the documented layout, written one attention row at a time."""
    with open(path, "w") as fh:
        fh.write(f'{{"rows": {grid.rows}, "cols": {grid.cols}, '
                 f'"base": {json.dumps(grid.base.tolist())}, '
                 f'"offsets": {json.dumps(grid.offsets.tolist())}, '
                 f'"lambda": {lam!r}, "beta": {beta!r}, "attention": [')
        for r, row in enumerate(scores):
            fh.write(("," if r else "") + json.dumps(row.tolist()))
        fh.write("]}")


class CliPoints:
    """In-process `tpspp rectify --points ... --overlay` over pre-written files.

    Requests rotate through `n_files` image/points pairs. Each points file
    holds a full 4096x64 attention matrix for the 32x128 output lattice.
    """

    name = "cli_points"
    n_files = 4
    cycle = n_files
    grid_step = 4  # rectify.deformation_grid_image marks every 4th lattice location

    def __init__(self, seed, workdir):
        self.seed = seed
        workdir = Path(workdir)
        self.images = [workdir / f"in{f}.pgm" for f in range(self.n_files)]
        self.points = [workdir / f"points{f}.json" for f in range(self.n_files)]
        self.outs = [workdir / f"out{f}.pgm" for f in range(self.n_files)]
        self.inputs = []  # (source, grid, scores) per file, as the program will read them

    def prepare(self):
        base = tps.make_grid(GRID_ROWS, GRID_COLS)
        for f in range(self.n_files):
            rng = _rng(self.seed, FILES, f)
            amplitude = rng.uniform(1.0, 8.0)
            image = synth.make_stripe_image((self.seed, FILES, f), amplitude=amplitude)
            grey = np.rint(image[0].astype(np.float64) * 255.0)
            write_pgm(self.images[f], grey)
            grid = base.with_offsets(synth.counter_offsets(base, amplitude).offsets
                                     + rng.uniform(-0.01, 0.01, (K, 2)))
            scores = distance_scores(rng, base, IMAGE_H, IMAGE_W)
            write_points_json(self.points[f], grid, scores, LAM, BETA)
            source = (grey / 255.0).astype(np.float32)[None, :, :]
            self.inputs.append((source, grid, scores))

    def setup(self):
        self.run(self.request(0, WARMUP))

    def request(self, i, stream=REQUESTS):
        f = i % self.n_files
        rng = _rng(self.seed, stream, i)
        argv = ["rectify", "--image", str(self.images[f]), "--points", str(self.points[f]),
                "--out", str(self.outs[f]), "--overlay"]
        lattice = np.arange(0, IMAGE_H, self.grid_step)[:, None] * IMAGE_W \
            + np.arange(0, IMAGE_W, self.grid_step)[None, :]
        return SimpleNamespace(file=f, argv=argv, indices=_sampled(rng, IMAGE_H * IMAGE_W),
                               grid_indices=rng.choice(lattice.ravel(), N_SAMPLED, replace=False))

    def run(self, req):
        return cli.main(req.argv)

    def check(self, req, code):
        if code != 0:
            return [f"exit code {code}"]
        source, grid, scores = self.inputs[req.file]
        out = self.outs[req.file]
        images = {suffix: read_pgm(out.with_name(out.stem + suffix + ".pgm"))
                  for suffix in ("", "_points", "_grid")}
        problems = [f"{suffix or 'output'} image is {img.shape}"
                    for suffix, img in images.items() if img.shape != (IMAGE_H, IMAGE_W)]
        if problems:
            return problems
        indices = np.concatenate([req.indices, req.grid_indices])
        _, _, coords = reference_coords(grid, scores, LAM, BETA, IMAGE_H, IMAGE_W, indices)
        pixels = [(n, _to_pixels(coord, IMAGE_H, IMAGE_W)) for n, coord in zip(indices, coords)]
        for n, (x, y) in pixels[:len(req.indices)]:
            want = np.rint(np.clip(oracles.bilinear_sample_scalar(source[0], x, y), 0.0, 1.0) * 255)
            i, j = divmod(int(n), IMAGE_W)
            if abs(int(images[""][i, j]) - want) > GREY_TOL:
                problems.append(f"output pixel ({i},{j}) = {images[''][i, j]} != oracle {want}")
        for n, (x, y) in pixels[len(req.indices):]:
            px, py = int(round(x)), int(round(y))
            if 0 <= px < IMAGE_W and 0 <= py < IMAGE_H and images["_grid"][py, px] != 255:
                problems.append(f"grid overlay lacks the dot of location {n} at ({py},{px})")
        return problems


WORKLOADS = {w.name: w for w in (NetImage, PointsFeatures, CliPoints)}
