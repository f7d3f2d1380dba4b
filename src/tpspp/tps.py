"""Classic thin-plate spline machinery.

Control points live in normalized [-1, 1]^2 coordinates, x rightward and
y downward. The interpolation system is assembled from the BASE grid
points; the right-hand side holds the REGRESSED points, so zero offsets
solve to the identity map. RBF centers for later evaluation are the
base points.

What only the lattice decides is built once and cached: the inverse of the
interpolation system per base lattice (`system_inverse`), and the kernel of
an output lattice per base lattice and extents (`lattice_kernel`). A
request then only multiplies its regressed points and attention into them.
"""

import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import (DegenerateGridError, DomainError, InvalidGridError, SingularMatrixError,
                     ValidationError)

DEFAULT_ROWS = 4
DEFAULT_COLS = 16
DEFAULT_LAMBDA = 0.5
DEFAULT_BETA = 1.0

# The cache keeps at most this many bytes, least recently used out first. lattice_kernel
# keeps an M x K kernel only where it fits beside its lattice's (K+3) x K inverse, so one
# request never evicts its own plan: a 64x256 output with K = 64 (8 MiB) is kept, a 256x256
# one (32 MiB) is not. An inverse fits at MAX_CONTROL_POINTS (8.4 MB).
PLAN_CACHE_BYTES = 32 << 20

# The system solve is an O(K^3) LU with a Python loop over its K+3 columns: about 3 s at
# K = 1024 and 30 s at K = 2048 on a 2.1 GHz Xeon, so a larger K is rejected before its
# (K+3)^2 system is allocated (3.77 GiB at K = 22500, a 150x150 grid)
MAX_CONTROL_POINTS = 1024


def _frozen(arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ControlPointGrid:
    """K = rows*cols lattice points plus per-point regression offsets."""

    rows: int
    cols: int
    base: np.ndarray     # (K, 2) lattice, row-major over (row, col)
    offsets: np.ndarray  # (K, 2)

    @property
    def k(self):
        return self.rows * self.cols

    @property
    def regressed(self):
        return self.base + self.offsets

    def with_offsets(self, offsets):
        offsets = np.asarray(offsets, dtype=np.float64)
        if offsets.shape != self.base.shape:
            raise InvalidGridError(f"offsets shape {offsets.shape} != {self.base.shape}")
        if not np.all(np.isfinite(offsets)):
            raise ValidationError("offsets contain non-finite values")
        return ControlPointGrid(self.rows, self.cols, self.base, _frozen(offsets))


@dataclass(frozen=True)
class TpsTransform:
    """Solved 2 x (K+3) transform plus its evaluation parameters."""

    t_matrix: np.ndarray  # rows = (x, y), columns = [1, x, y, w_1..w_K]
    centers: np.ndarray   # (K, 2) base points
    lam: float = DEFAULT_LAMBDA
    beta: float = DEFAULT_BETA

    @property
    def k(self):
        return self.centers.shape[0]


def output_lattice(rows, cols):
    """Row-major (rows*cols, 2) lattice on [-1,1]^2; a degenerate axis sits at 0."""
    xs = np.linspace(-1.0, 1.0, cols) if cols > 1 else np.zeros(1)
    ys = np.linspace(-1.0, 1.0, rows) if rows > 1 else np.zeros(1)
    gx, gy = np.meshgrid(xs, ys)  # row-major: k = i*cols + j
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def make_grid(rows, cols):
    """Control-point grid on the uniform rows x cols lattice, zero offsets."""
    try:
        rows, cols = operator.index(rows), operator.index(cols)
    except TypeError:
        raise InvalidGridError(f"grid extents must be integers, got {rows!r}x{cols!r}") from None
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise InvalidGridError(f"grid {rows}x{cols} has fewer than 2 points")
    base = _frozen(output_lattice(rows, cols))
    return ControlPointGrid(rows, cols, base, _frozen(np.zeros_like(base)))


def kernel_u(r):
    """Thin-plate radial kernel U(r) = r^2 * ln(r^2), U(0) = 0."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0):
        raise DomainError("kernel_u requires r >= 0")
    r2 = r * r
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(r2 > 0, r2 * np.log(np.where(r2 > 0, r2, 1.0)), 0.0)
    return float(out) if out.ndim == 0 else out


def kernel_between(points, centers):
    """(N, K) matrix of U(|p_n - c_k|) = r2 * ln(r2), built in place from r2 = dx^2 + dy^2."""
    r2 = np.subtract.outer(points[:, 0], centers[:, 0])
    r2 *= r2
    dy2 = np.subtract.outer(points[:, 1], centers[:, 1])
    dy2 *= dy2
    r2 += dy2
    np.log(r2, out=dy2, where=r2 > 0)  # where r2 = 0, dy2 is 0 too, so U(0) = 0
    r2 *= dy2
    return r2


def build_kernel_matrix(grid):
    """Read-only symmetric K x K matrix of kernel_u over pairwise base distances."""
    return _frozen(kernel_between(grid.base, grid.base))


def interpolation_system(grid):
    """The (K+3)x(K+3) interpolation matrix and its (K+3, 2) right-hand side.

    Rows 0..K-1 enforce interpolation of the regressed points; the last
    three rows are the side conditions sum(w) = sum(w*x) = sum(w*y) = 0.
    More than MAX_CONTROL_POINTS points raise InvalidGridError before anything is allocated.
    """
    k = grid.k
    if k > MAX_CONTROL_POINTS:
        raise InvalidGridError(f"grid {grid.rows}x{grid.cols} has {k} points, above the "
                               f"bound of {MAX_CONTROL_POINTS}")
    p = np.hstack([np.ones((k, 1)), grid.base])  # (K, 3): [1, x, y]
    m = np.zeros((k + 3, k + 3))
    m[:k, :3] = p
    m[:k, 3:] = build_kernel_matrix(grid)
    m[k:, 3:] = p.T
    rhs = np.zeros((k + 3, 2))
    rhs[:k] = grid.regressed
    return m, rhs


class _PlanCache:
    """Read-only arrays by key, at most `budget` bytes retained, least recently used out first.

    A build that raises stores nothing.
    """

    def __init__(self, budget):
        self.budget = budget
        self.nbytes = 0
        self._arrays = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, build):
        with self._lock:
            if key in self._arrays:
                self._arrays.move_to_end(key)
                return self._arrays[key]
        arr = _frozen(build())
        with self._lock:
            if key not in self._arrays:
                self._arrays[key] = arr
                self.nbytes += arr.nbytes
                while self.nbytes > self.budget:
                    self.nbytes -= self._arrays.popitem(last=False)[1].nbytes
        return arr


_PLANS = _PlanCache(PLAN_CACHE_BYTES)


def system_inverse(grid):
    """Read-only (K+3) x K inverse of the grid's interpolation system, cached by its base lattice.

    The system's right-hand side is zero below row K, so the transform of any regressed
    points is this inverse times them. A singular system raises DegenerateGridError.
    """
    def build():
        m, _ = interpolation_system(grid)
        try:
            return tensor.solve_linear(m, np.eye(grid.k + 3)[:, :grid.k])
        except SingularMatrixError as exc:
            raise DegenerateGridError(f"control points yield a singular system: {exc}") from exc

    base = np.ascontiguousarray(grid.base, dtype=np.float64)
    return _PLANS.get(("inverse", base.tobytes()), build)


def lattice_kernel(centers, out_h, out_w):
    """Read-only (M, K) kernel U(|p_m - c_k|) of the out_h x out_w output lattice, cached;
    None, with nothing built, where it would not fit the plan cache beside its (K+3, K) inverse."""
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    k = centers.shape[0]
    if 8 * (out_h * out_w + k + 3) * k > _PLANS.budget:
        return None
    return _PLANS.get(("kernel", centers.tobytes(), out_h, out_w),
                      lambda: kernel_between(output_lattice(out_h, out_w), centers))


def solve_transform(grid, lam=DEFAULT_LAMBDA, beta=DEFAULT_BETA):
    """Solve the interpolation system of a regressed grid for the transform.

    Non-finite lam or beta raise ValidationError; a singular system or a
    non-finite solution raises DegenerateGridError.
    """
    lam, beta = float(lam), float(beta)
    if not (np.isfinite(lam) and np.isfinite(beta)):
        raise ValidationError(f"lambda and beta must be finite, got {lam} and {beta}")
    inv = system_inverse(grid)
    regressed = grid.regressed
    # a power of two scales exactly and keeps huge uniform points (e.g. +1e308 offsets, a
    # finite translation) from overflowing inside the product
    _, e = np.frexp(np.abs(regressed).max())
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite solution raises below
        w = np.ldexp(inv @ np.ldexp(regressed, -e), e)  # (K+3, 2), columns = (x, y)
    if not np.all(np.isfinite(w)):
        raise DegenerateGridError("control points yield a non-finite transform")
    return TpsTransform(_frozen(w.T), grid.base, lam, beta)
