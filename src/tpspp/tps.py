"""Classic thin-plate spline machinery.

Control points live in normalized [-1, 1]^2 coordinates, x rightward and
y downward. The interpolation system is assembled from the BASE grid
points; the right-hand side holds the REGRESSED points, so zero offsets
solve to the identity map. RBF centers for later evaluation are the
base points.

What only the extents decide is built once and cached: every lattice (`output_lattice`),
the inverse of the interpolation system (`system_inverse`), and the kernel of an output
lattice per base lattice and extents (`lattice_kernel`). A request then only multiplies
its regressed points and attention into them.
"""

import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .errors import DegenerateGridError, InvalidGridError, SingularMatrixError, ValidationError

DEFAULT_LAMBDA = 0.5
DEFAULT_BETA = 1.0

# The plan cache keeps at most this many bytes, least recently used out first. Keep rule: a
# request keeps four plans, its grid's base lattice (16 K B) and (K+3) x K inverse, its output
# lattice (16 M B) and M x K kernel, and never evicts its own: output_lattice keeps a lattice
# only beside a base lattice and an inverse at MAX_CONTROL_POINTS (8.4 MB), lattice_kernel a
# kernel only where all four fit, 8 (M + K + 5) K + 16 M B (8.7 MB at 64x256 with K = 64).
PLAN_CACHE_BYTES = 32 << 20

# The system solve is an O(K^3) LU with a Python loop over its K+3 columns: about 3 s at
# K = 1024 and 30 s at K = 2048 on a 2.1 GHz Xeon, so a larger K is rejected before its
# (K+3)^2 system is allocated (3.77 GiB at K = 22500, a 150x150 grid)
MAX_CONTROL_POINTS = 1024


@dataclass(frozen=True)
class ControlPointGrid:
    """K = rows*cols points of the lattice check_grid admits, plus their (K, 2) offsets.

    The base is derived from the extents, never supplied. Bad extents or offsets not (K, 2)
    raise InvalidGridError; offsets that are not finite real numbers raise ValidationError.
    """

    rows: int
    cols: int
    offsets: np.ndarray  # (K, 2)
    base: np.ndarray = field(init=False)  # (K, 2) lattice, row-major over (row, col)

    def __post_init__(self):
        rows, cols = check_grid(self.rows, self.cols)
        offsets = tensor.frozen_real_array(self.offsets, "offsets", np.float64)
        if offsets.shape != (rows * cols, 2):
            raise InvalidGridError(f"offsets shape {offsets.shape} != ({rows * cols}, 2)")
        if not np.all(np.isfinite(offsets)):
            raise ValidationError("offsets contain non-finite values")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "base", output_lattice(rows, cols))

    @property
    def k(self):
        return self.rows * self.cols

    @property
    def regressed(self):
        return self.base + self.offsets

    def with_offsets(self, offsets):
        return ControlPointGrid(self.rows, self.cols, offsets)


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
    """Read-only row-major (rows*cols, 2) lattice on [-1,1]^2, a degenerate axis at 0; cached
    where the keep rule at PLAN_CACHE_BYTES admits it, else built for this call alone."""
    def build():
        xs = np.linspace(-1.0, 1.0, cols) if cols > 1 else np.zeros(1)
        ys = np.linspace(-1.0, 1.0, rows) if rows > 1 else np.zeros(1)
        gx, gy = np.meshgrid(xs, ys)  # row-major: k = i*cols + j
        return np.stack([gx.ravel(), gy.ravel()], axis=1)

    if 16 * rows * cols + 8 * (MAX_CONTROL_POINTS + 5) * MAX_CONTROL_POINTS > _PLANS.budget:
        return tensor.read_only(build())
    return _PLANS.get(("lattice", rows, cols), build)


def check_grid(rows, cols):
    """Grid extents as ints; InvalidGridError unless integers giving 2..MAX_CONTROL_POINTS points."""
    try:
        rows, cols = operator.index(rows), operator.index(cols)
    except TypeError:
        raise InvalidGridError(f"grid extents must be integers, got {rows!r}x{cols!r}") from None
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise InvalidGridError(f"grid {rows}x{cols} has fewer than 2 points")
    if rows * cols > MAX_CONTROL_POINTS:
        raise InvalidGridError(f"grid {rows}x{cols} has {rows * cols} points, above the "
                               f"bound of {MAX_CONTROL_POINTS}")
    return rows, cols


def make_grid(rows, cols):
    """Control-point grid on the uniform rows x cols lattice, zero offsets."""
    rows, cols = check_grid(rows, cols)  # before the offsets are allocated
    return ControlPointGrid(rows, cols, tensor.read_only(np.zeros((rows * cols, 2))))


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
    """Read-only symmetric K x K matrix of U over pairwise base distances."""
    return tensor.read_only(kernel_between(grid.base, grid.base))


def interpolation_system(grid):
    """The (K+3)x(K+3) interpolation matrix and its (K+3, 2) right-hand side.

    Rows 0..K-1 enforce interpolation of the regressed points; the last
    three rows are the side conditions sum(w) = sum(w*x) = sum(w*y) = 0.
    """
    k = grid.k
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
        arr = tensor.read_only(build())
        with self._lock:
            if key not in self._arrays:
                self._arrays[key] = arr
                self.nbytes += arr.nbytes
                while self.nbytes > self.budget:
                    self.nbytes -= self._arrays.popitem(last=False)[1].nbytes
        return arr


_PLANS = _PlanCache(PLAN_CACHE_BYTES)


def system_inverse(grid):
    """Read-only (K+3) x K inverse of the grid's interpolation system, cached by its extents.

    The system's right-hand side is zero below row K, so the transform of any regressed
    points is this inverse times them. A singular system raises DegenerateGridError.
    """
    def build():
        m, _ = interpolation_system(grid)
        try:
            return tensor.solve_linear(m, np.eye(grid.k + 3)[:, :grid.k])
        except SingularMatrixError as exc:
            raise DegenerateGridError(f"control points yield a singular system: {exc}") from exc

    return _PLANS.get(("inverse", grid.rows, grid.cols), build)


def lattice_kernel(centers, out_h, out_w):
    """Read-only (M, K) kernel U(|p_m - c_k|) of the out_h x out_w output lattice, cached;
    None, with nothing built, where the keep rule at PLAN_CACHE_BYTES does not admit it."""
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    m, k = out_h * out_w, centers.shape[0]
    if 8 * (m + k + 5) * k + 16 * m > _PLANS.budget:
        return None
    return _PLANS.get(("kernel", centers.tobytes(), out_h, out_w),
                      lambda: kernel_between(output_lattice(out_h, out_w), centers))


def solve_transform(grid, lam=DEFAULT_LAMBDA, beta=DEFAULT_BETA):
    """Solve the interpolation system of a regressed grid for the transform.

    A lam or beta that is not one finite real number raises ValidationError; a singular
    system or a non-finite solution raises DegenerateGridError.
    """
    lam, beta = tensor.real_scalar(lam, "lambda"), tensor.real_scalar(beta, "beta")
    inv = system_inverse(grid)
    regressed = grid.regressed
    # a power of two scales exactly and keeps huge uniform points (e.g. +1e308 offsets, a
    # finite translation) from overflowing inside the product
    _, e = np.frexp(np.abs(regressed).max())
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite solution raises below
        w = np.ldexp(inv @ np.ldexp(regressed, -e), e)  # (K+3, 2), columns = (x, y)
    if not np.all(np.isfinite(w)):
        raise DegenerateGridError("control points yield a non-finite transform")
    return TpsTransform(tensor.read_only(np.ascontiguousarray(w.T)), grid.base, lam, beta)
