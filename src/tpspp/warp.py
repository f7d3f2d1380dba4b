"""Attention-enhanced transform evaluation, grid generation, warping.

Every kernel term of the TPS basis is multiplied by (lam * a_k + beta)
where a_k is the attention score between the output location and control
point k. With lam = 0 (or an all-zero score row and beta = 1) this is
exactly the classic TPS evaluation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGridError, ShapeError, ValidationError
from .tensor import frozen_real_array, read_only, real_array
from .tps import check_extents, kernel_between, lattice_kernel, output_lattice

# Work: M * K kernel logs where the plan cache keeps no kernel, 114M/s on a 2.1 GHz Xeon: 0.8 s.
# Bytes: 43 B per location, rectify_map's tracemalloc peak at K = 4 to 64, plus the output's.
MAX_KERNEL_ENTRIES = 89_478_485
LOCATION_BYTES = 48
MAX_LATTICE_BYTES = 4 << 30

# warp gathers at most this many entries per neighbor at once, and build_sampling_grid
# scales about as many float64 kernel entries per block: 256 KiB of float32 or 512 KiB of
# float64, which stays in L2, e.g. 1024 output locations of a 64-channel map or of 64
# control points
WARP_BLOCK_ENTRIES = 1 << 16

# warp computes the bilinear setup of this many output locations at once, eleven float64 or
# int64 arrays of 128 KiB (and the four weights rounded to float32 for a float32 source), and
# frees it before the next chunk
WARP_CHUNK_LOCATIONS = 1 << 14


@dataclass(frozen=True)
class AttentionMatrix:
    """Per-(output location, control point) scores, strictly in (-1, 1)."""

    scores: np.ndarray  # (M, K), row-major over the output lattice

    def __post_init__(self):
        s = frozen_real_array(self.scores, "attention scores", np.float64)
        if s.ndim != 2:
            raise ShapeError(f"attention scores must be a matrix, got rank {s.ndim}")
        inside = np.abs(s) < 1.0
        if not inside.all():
            i, j = np.argwhere(~inside)[0]
            raise ValidationError(f"attention score out of (-1,1) at row {i}, col {j}: {s[i, j]}")
        object.__setattr__(self, "scores", s)

    @property
    def m_locations(self):
        return self.scores.shape[0]

    @property
    def k_points(self):
        return self.scores.shape[1]


@dataclass(frozen=True)
class SamplingGrid:
    """Per output location, the normalized source coordinate to sample.

    Extents check_extents rejects raise ValidationError, else are kept as the ints it returns;
    coords not (height*width, 2) raise ShapeError, a non-finite coordinate DegenerateGridError.
    """

    height: int
    width: int
    coords: np.ndarray  # (height*width, 2), may leave [-1,1]^2

    def __post_init__(self):
        height, width = check_extents(self.height, self.width)
        c = frozen_real_array(self.coords, "sampling coordinates", np.float64)
        if c.shape != (height * width, 2):
            raise ShapeError(f"coords shape {c.shape} != ({height * width}, 2)")
        if not np.all(np.isfinite(c)):
            raise DegenerateGridError("a sampling coordinate is not finite")
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "coords", c)


def basis_vector(p, transform, attention_row):
    """[1, x, y, U(|p-c_k|) * (lam * a_k + beta) for each center k]."""
    p = real_array(p, "point").astype(np.float64, copy=False)
    a = real_array(attention_row, "attention row").astype(np.float64, copy=False)
    if p.shape != (2,) or a.shape != (transform.k,):
        raise ShapeError(f"need an (x, y) point and K={transform.k} scores, got shapes {p.shape} "
                         f"and {a.shape}")
    u = kernel_between(p[None, :], transform.centers)[0]
    return np.concatenate([[1.0, p[0], p[1]], u * (transform.lam * a + transform.beta)])


def map_point(p, transform, attention_row):
    """The source coordinate of output point p; a non-finite one raises DegenerateGridError."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        q = transform.t_matrix @ basis_vector(p, transform, attention_row)
    if not np.all(np.isfinite(q)):
        raise DegenerateGridError("the point maps to a non-finite source coordinate")
    return q


def check_lattice(out_h, out_w, k, out_bytes=0):
    """Output extents as ints. Reject extents check_extents rejects, M * K over MAX_KERNEL_ENTRIES,
    and M * (LOCATION_BYTES + out_bytes, the warp output's C * itemsize) over MAX_LATTICE_BYTES,
    before allocating any."""
    out_h, out_w = check_extents(out_h, out_w)
    m = out_h * out_w
    if m * k > MAX_KERNEL_ENTRIES or m * (LOCATION_BYTES + out_bytes) > MAX_LATTICE_BYTES:
        raise ValidationError(f"output {out_h}x{out_w} needs {m * k} kernel entries at K={k} and "
                              f"{m * (LOCATION_BYTES + out_bytes)} B, over the bounds of "
                              f"{MAX_KERNEL_ENTRIES} entries or {MAX_LATTICE_BYTES} B")
    return out_h, out_w


def build_sampling_grid(transform, attention, out_h, out_w, *, rows=None):
    """Map the output lattice through the transform, one block of locations at a time.

    attention=None stands for all-zero scores: every kernel term is then scaled by
    beta alone. Location m reads score row rows[m] of an (M,) integer array, or
    row m when rows is None. A non-finite source coordinate raises
    DegenerateGridError from SamplingGrid.
    """
    out_h, out_w = check_lattice(out_h, out_w, transform.k)
    m, k = out_h * out_w, transform.k
    if attention is not None:
        if rows is None and attention.m_locations != m:
            raise ShapeError(f"attention has {attention.m_locations} rows, lattice has {m}")
        rows = None if rows is None else np.asarray(rows)
        if rows is not None and not (rows.shape == (m,) and rows.dtype.kind in "iu" and
                                     0 <= rows.min() and rows.max() < attention.m_locations):
            raise ShapeError(f"rows must give one of {attention.m_locations} rows per location")
        if attention.k_points != k:
            raise ShapeError(f"attention has {attention.k_points} cols, transform has K={k}")
    lattice = output_lattice(out_h, out_w)
    centers, t = transform.centers, transform.t_matrix
    # kernel rows come from the plan cache when it keeps the kernel, else are built per block
    kernel = lattice_kernel(centers, out_h, out_w)
    lam, beta = transform.lam, transform.beta
    # every block has the same row count, the last one overlapping its predecessor: a
    # shorter block takes another BLAS path and moves the coordinates' last bits
    step = min(m, max(1024, WARP_BLOCK_ENTRIES // k))
    scaled = np.empty((step, k))
    coords = np.empty((m, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # SamplingGrid rejects non-finite coords
        # lam * a + beta on the scores' own rows, gathered per block ("clip": rows are in range)
        gathered = None if attention is None or rows is None else attention.scores * lam + beta
        for start in range(0, m, step):
            start = min(start, m - step)
            block = slice(start, start + step)
            u = kernel_between(lattice[block], centers) if kernel is None else kernel[block]
            if attention is None:
                np.multiply(u, beta, out=scaled)
            elif rows is None:
                np.multiply(attention.scores[block], lam, out=scaled)
                scaled += beta
                scaled *= u
            else:
                np.take(gathered, rows[block], axis=0, out=scaled, mode="clip")
                scaled *= u
            coords[block] = scaled @ t[:, 3:].T + lattice[block] @ t[:, 1:3].T + t[:, 0]
    return SamplingGrid(out_h, out_w, read_only(coords))


def check_source(source):
    """`source` as the (C,H,W) array warp samples, converted by real_array (an object array
    of Python numbers becomes float64; what it rejects, ragged nesting included, raises
    ValidationError): C, H, W >= 1, else ShapeError, and finite values, in half its type's
    range if it is 64-bit or float32 and in half of float64's if it is a long double, else
    ValidationError."""
    source = real_array(source, "source")
    if source.ndim != 3 or min(source.shape) < 1:
        raise ShapeError(f"warp expects a (C,H,W) source with C, H, W >= 1, got {source.shape}")
    # the four weights may sum to a few ulp over 1, so a source sampled in its own type's
    # precision (float32, float64) or beyond float64's (int64, uint64, a long double) keeps
    # half its range free: a weighted sum of its largest values would overflow it
    if source.dtype.kind == "f":  # a long double is sampled in float64: bounded by its range
        info = np.finfo(np.float64 if source.itemsize > 8 else source.dtype)
    else:
        info = np.iinfo(source.dtype)
    half = source.itemsize >= 8 or source.dtype == np.float32
    least, most = (float(v) * (0.5 if half else 1.0) for v in (info.min, info.max))
    inside = (source >= least) & (source <= most)  # False for NaN
    if not inside.all():
        ch, y, x = np.argwhere(~inside)[0]
        raise ValidationError(f"source is not finite, or outside [{least:.4g}, {most:.4g}], at "
                              f"channel {ch}, row {y}, col {x}")
    return source


def warp(source, grid, border="zeros"):
    """Bilinear sampling of a (C,H,W) map, framed by one pixel, at the grid's source coords.

    border="zeros": the frame is zeros, so out-of-range neighbors contribute 0;
    border="clamp": the frame repeats the edge; coordinates are clipped to the valid box first.
    The source must pass check_source. It is sampled in float32 if it is float32, else in
    float64: the framed map is a channels-last (pixels, C) table of that working dtype, and
    each location's four weights, computed in float64, are rounded to it once, so a float32
    output is within about 6 * 2^-24 * max|source| of the exact bilinear value; an integer
    output is rounded to nearest, as the cast back to its type would truncate.
    Output locations are walked in chunks of WARP_CHUNK_LOCATIONS, whose per-location setup
    (corner index, four weights) is computed once and freed before the next chunk; each
    chunk is gathered in blocks of WARP_BLOCK_ENTRIES // C locations into two reused
    (block, C) buffers, so the working set stays cache-sized and memory bounded whatever
    the output size. The result is a strided (C, H, W) view of a channels-last (H*W, C) array.
    """
    source = check_source(source)
    if border not in ("zeros", "clamp"):
        raise ValidationError(f"unknown border policy {border!r}")
    c, h, w = source.shape
    # with zeros, a coordinate a pixel or more outside reads nothing but zeros, so clipping
    # it to one pixel outside changes no output and keeps huge ones clear of the int64 cast
    lo = 0.0 if border == "clamp" else -1.0
    work = np.float32 if source.dtype == np.float32 else np.float64
    framed = np.pad(source.astype(work, copy=False).transpose(1, 2, 0), ((1, 1), (1, 1), (0, 0)),
                    mode="edge" if border == "clamp" else "constant").reshape(-1, c)
    m = grid.coords.shape[0]
    out = np.empty((m, c), dtype=source.dtype)
    step = min(max(1, WARP_BLOCK_ENTRIES // c), WARP_CHUNK_LOCATIONS, m)
    gathered, acc = np.empty((step, c), work), np.empty((step, c), work)
    for start in range(0, m, WARP_CHUNK_LOCATIONS):
        chunk = slice(start, start + WARP_CHUNK_LOCATIONS)
        _warp_chunk(framed, grid.coords[chunk], out[chunk], h, w, lo, gathered, acc)
    return out.T.reshape(c, grid.height, grid.width)


def _warp_chunk(framed, coords, out, h, w, lo, gathered, acc):
    """Sample the framed (pixels, C) table at `coords` into the rows of `out`."""
    with np.errstate(over="ignore"):
        xs = (coords[:, 0] + 1.0) / 2.0 * (w - 1)
        ys = (coords[:, 1] + 1.0) / 2.0 * (h - 1)
    np.clip(xs, lo, w - 1 - lo, out=xs)
    np.clip(ys, lo, h - 1 - lo, out=ys)
    # capped so a coordinate on pixel w (or h) reads its far neighbor, weight 1, from the frame
    x0 = np.minimum(np.floor(xs), w - 1)
    y0 = np.minimum(np.floor(ys), h - 1)
    fx = xs - x0
    fy = ys - y0
    corner = ((y0 + 1.0) * (w + 2) + (x0 + 1.0)).astype(np.int64)  # flat index of (y0, x0)
    # the table from a neighbor's offset on holds that neighbor at the corner's index, which
    # is in range by construction, so mode="clip" never clips: it only skips numpy's buffering
    neighbors = [(framed[offset:], wgt.astype(framed.dtype, copy=False)) for offset, wgt in (
        (0, (1.0 - fx) * (1.0 - fy)), (1, fx * (1.0 - fy)),
        (w + 2, (1.0 - fx) * fy), (w + 3, fx * fy))]
    for start in range(0, len(coords), len(acc)):
        n = min(len(acc), len(coords) - start)
        rows = slice(start, start + n)
        acc[:n] = 0.0
        for table, wgt in neighbors:
            np.take(table, corner[rows], axis=0, out=gathered[:n], mode="clip")
            gathered[:n] *= wgt[rows, None]
            acc[:n] += gathered[:n]
        if out.dtype.kind in "iu":
            np.rint(acc[:n], out=acc[:n])
        out[rows] = acc[:n]
