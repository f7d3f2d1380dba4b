"""Attention-enhanced transform evaluation, grid generation, warping.

Every kernel term of the TPS basis is multiplied by (lam * a_k + beta)
where a_k is the attention score between the output location and control
point k. With lam = 0 (or an all-zero score row and beta = 1) this is
exactly the classic TPS evaluation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGridError, ShapeError, ValidationError
from .tps import kernel_between, lattice_kernel, output_lattice

# A rectification keeps at most six float64 M x K arrays' worth alive (tracemalloc, K = 4
# to 64, cold or warm plan cache): 2.2 with K = 64 (a cold kernel and its squared distances),
# 5.5 with K = 4, the smallest solvable lattice, whose per-location arrays weigh a quarter
# each. M x K is capped to hold six under 4 GiB: 89_478_485 entries, e.g. a 1280x960 output
# with the default 64 control points. The plan cache itself retains at most
# tps.PLAN_CACHE_BYTES.
SAMPLING_PEAK_BYTES = 4 << 30
MXK_ARRAYS_AT_PEAK = 6
MAX_KERNEL_ENTRIES = SAMPLING_PEAK_BYTES // (8 * MXK_ARRAYS_AT_PEAK)


@dataclass(frozen=True)
class AttentionMatrix:
    """Per-(output location, control point) scores, strictly in (-1, 1)."""

    scores: np.ndarray  # (M, K), row-major over the output lattice

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        if s.ndim != 2:
            raise ShapeError(f"attention scores must be a matrix, got rank {s.ndim}")
        bad = np.argwhere(~(np.abs(s) < 1.0))
        if bad.size:
            i, j = bad[0]
            raise ValidationError(f"attention score out of (-1,1) at row {i}, col {j}: {s[i, j]}")
        s.flags.writeable = False
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

    A non-finite coordinate raises DegenerateGridError.
    """

    height: int
    width: int
    coords: np.ndarray  # (height*width, 2), may leave [-1,1]^2

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.float64)
        if c.shape != (self.height * self.width, 2):
            raise ShapeError(f"coords shape {c.shape} != ({self.height * self.width}, 2)")
        if not np.all(np.isfinite(c)):
            raise DegenerateGridError("a sampling coordinate is not finite")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)


def basis_vector(p, transform, attention_row):
    """[1, x, y, U(|p-c_k|) * (lam * a_k + beta) for each center k]."""
    p = np.asarray(p, dtype=np.float64)
    a = np.asarray(attention_row, dtype=np.float64)
    if a.shape != (transform.k,):
        raise ShapeError(f"attention row length {a.shape} != K={transform.k}")
    u = kernel_between(p[None, :], transform.centers)[0]
    return np.concatenate([[1.0, p[0], p[1]], u * (transform.lam * a + transform.beta)])


def map_point(p, transform, attention_row):
    return transform.t_matrix @ basis_vector(p, transform, attention_row)


def check_lattice(out_h, out_w, k):
    """Reject output extents below 1 and an M x K kernel above MAX_KERNEL_ENTRIES.

    Called before anything of the output lattice's size is allocated.
    """
    if out_h < 1 or out_w < 1:
        raise ValidationError(f"output extents must be >= 1, got {out_h}x{out_w}")
    if out_h * out_w * k > MAX_KERNEL_ENTRIES:
        raise ValidationError(
            f"output {out_h}x{out_w} with K={k} needs {out_h * out_w * k} kernel entries, "
            f"above the budget of {MAX_KERNEL_ENTRIES}")


def build_sampling_grid(transform, attention, out_h, out_w, *, rows=None):
    """Map the whole output lattice through the transform at once.

    attention=None stands for all-zero scores: every kernel term is then scaled by
    beta alone. Location m reads score row rows[m] of an (M,) integer array, or
    row m when rows is None. A non-finite source coordinate raises
    DegenerateGridError from SamplingGrid.
    """
    check_lattice(out_h, out_w, transform.k)
    m = out_h * out_w
    if attention is not None:
        if rows is None and attention.m_locations != m:
            raise ShapeError(f"attention has {attention.m_locations} rows, lattice has {m}")
        rows = None if rows is None else np.asarray(rows)
        if rows is not None and not (rows.shape == (m,) and rows.dtype.kind in "iu" and
                                     0 <= rows.min() and rows.max() < attention.m_locations):
            raise ShapeError(f"rows must give one of {attention.m_locations} rows per location")
        if attention.k_points != transform.k:
            raise ShapeError(
                f"attention has {attention.k_points} cols, transform has K={transform.k}")
    u = lattice_kernel(transform.centers, out_h, out_w)  # (M, K), read-only
    t = transform.t_matrix
    lam, beta = transform.lam, transform.beta
    with np.errstate(over="ignore", invalid="ignore"):  # SamplingGrid rejects non-finite coords
        if attention is None:
            scaled = u * beta
        else:  # lam * a + beta on the scores' own rows, gathered into the one M x K array
            scaled = attention.scores * lam
            scaled += beta
            if rows is not None:
                scaled = np.take(scaled, rows, axis=0)
            scaled *= u
        coords = scaled @ t[:, 3:].T + output_lattice(out_h, out_w) @ t[:, 1:3].T + t[:, 0]
    return SamplingGrid(out_h, out_w, coords)


def warp(source, grid, border="zeros"):
    """Bilinear sampling of a (C,H,W) map, framed by one pixel, at the grid's source coords.

    border="zeros": the frame is zeros, so out-of-range neighbors contribute 0;
    border="clamp": the frame repeats the edge; coordinates are clipped to the valid box first.
    """
    source = np.asarray(source)
    if source.ndim != 3 or source.shape[1] < 1 or source.shape[2] < 1:
        raise ShapeError(f"warp expects a (C,H,W) source with H, W >= 1, got {source.shape}")
    if border not in ("zeros", "clamp"):
        raise ValidationError(f"unknown border policy {border!r}")
    c, h, w = source.shape
    # with zeros, a coordinate a pixel or more outside reads nothing but zeros, so clipping
    # it to one pixel outside changes no output and keeps huge ones clear of the int64 cast
    lo = 0.0 if border == "clamp" else -1.0
    with np.errstate(over="ignore"):
        xs = (grid.coords[:, 0] + 1.0) / 2.0 * (w - 1)
        ys = (grid.coords[:, 1] + 1.0) / 2.0 * (h - 1)
    np.clip(xs, lo, w - 1 - lo, out=xs)
    np.clip(ys, lo, h - 1 - lo, out=ys)

    # capped so a coordinate on pixel w (or h) reads its far neighbor, weight 1, from the frame
    x0 = np.minimum(np.floor(xs), w - 1)
    y0 = np.minimum(np.floor(ys), h - 1)
    fx = xs - x0
    fy = ys - y0

    framed = np.pad(source.astype(np.float64), ((0, 0), (1, 1), (1, 1)),
                    mode="edge" if border == "clamp" else "constant").reshape(c, -1)
    corner = ((y0 + 1.0) * (w + 2) + (x0 + 1.0)).astype(np.int64)  # flat index of (y0, x0)
    out = np.zeros((c, xs.shape[0]), dtype=np.float64)
    for offset, wgt in ((0, (1.0 - fx) * (1.0 - fy)), (1, fx * (1.0 - fy)),
                        (w + 2, (1.0 - fx) * fy), (w + 3, fx * fy)):
        neighbor = np.take(framed, corner + offset, axis=1)
        neighbor *= wgt
        out += neighbor
    return out.reshape(c, grid.height, grid.width).astype(source.dtype)
