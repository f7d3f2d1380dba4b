"""Dense numeric primitives used by every other module.

Feature maps are stored channels-first (C, H, W) as float32 arrays;
matrices are (rows, cols). Accumulation happens in float64 and results
are cast back to the input dtype, so float32 storage never limits the
arithmetic below its documented tolerances.
"""

import operator

import numpy as np

from .errors import DegenerateGridError, ShapeError, ValidationError

PIVOT_EPS = 1e-12


def real_array(value, field):
    """`value` as integer or real floating array, uncopied, or as float64 from Python ints and
    floats (e.g. one wider than int64); ValidationError naming `field` for bool, complex, str,
    bytes or other entries, ragged nesting, and an integer past float64's range."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind == "O" and all(type(v) in (int, float) for v in arr.flat):
            arr = arr.astype(np.float64)
    except (ValueError, OverflowError) as exc:  # ragged nesting; an integer past 1.8e308
        raise ValidationError(f"{field} is not an array of real numbers: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{field} must hold real numbers, got {arr.dtype} entries")
    return arr


def read_only(arr):
    """`arr`, frozen in place: for an array the library made, which the types that keep a
    read-only array then hold uncopied."""
    arr.flags.writeable = False
    return arr


def frozen_real_array(value, field, dtype):
    """real_array(value) as a read-only C-contiguous `dtype` array that no caller can write to.
    A conversion, or an array that is read-only already, is kept; a writeable ndarray that
    needs no conversion is copied, so freezing never reaches the caller's own array."""
    arr = np.ascontiguousarray(real_array(value, field), dtype=dtype)
    if arr.flags.writeable and isinstance(value, np.ndarray) and np.may_share_memory(arr, value):
        arr = arr.copy()
    return read_only(arr)


def real_scalar(value, field):
    """`value` as a float, by real_array's rule; ValidationError unless it is 0-d and finite."""
    arr = real_array(value, field)
    if arr.ndim != 0 or not np.isfinite(arr):
        raise ValidationError(f"{field} must be one finite real number, got {arr!r}")
    return float(arr)


def matmul(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got ranks {a.ndim} and {b.ndim}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} x {b.shape}")
    out = a.astype(np.float64) @ b.astype(np.float64)
    return out.astype(np.result_type(a, b))


def solve_linear(m, rhs):
    """Solve m @ x = rhs for an (n, r) rhs by LU with partial pivoting (float64 internally).

    A pivot with magnitude below PIVOT_EPS raises DegenerateGridError: the system is singular.
    """
    a = np.array(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"coefficient matrix must be square, got {a.shape}")
    n = a.shape[0]
    b = np.array(rhs, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != n:
        raise ShapeError(f"rhs must be a ({n}, r) matrix, got shape {b.shape}")

    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) < PIVOT_EPS:
            raise DegenerateGridError(f"singular system: pivot {a[p, k]:.3e} below {PIVOT_EPS} "
                                      f"at column {k}")
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        if k + 1 < n:
            factors = a[k + 1:, k] / a[k, k]
            a[k + 1:, k:] -= np.outer(factors, a[k, k:])
            b[k + 1:] -= np.outer(factors, b[k])

    x = np.empty_like(b)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def conv2d(x, kernel, bias, stride=1, pad=0):
    """2D cross-correlation with zero padding, channels-first, as one float64 GEMM."""
    x = np.asarray(x)
    kernel = np.asarray(kernel)
    bias = np.asarray(bias)
    if x.ndim != 3 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects (C,H,W) input and (O,C,kh,kw) kernel, got {x.shape}, {kernel.shape}")
    o, c, kh, kw = kernel.shape
    if c != x.shape[0]:
        raise ShapeError(f"kernel channels {c} != input channels {x.shape[0]}")
    if bias.shape != (o,):
        raise ShapeError(f"bias shape {bias.shape} != ({o},)")
    try:
        stride = operator.index(stride)
        pad = operator.index(pad)
    except TypeError:
        raise ShapeError(f"stride and pad must be integers, got {stride!r}, {pad!r}") from None
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ShapeError(f"pad must be >= 0, got {pad}")
    h, w = x.shape[1], x.shape[2]
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{w + 2 * pad}")

    # pad and cast in one copy (none without padding), then fill the (C*kh*kw, oh*ow)
    # im2col matrix with kh*kw strided slice copies; the GEMM is the only other pass
    xp = x
    if pad:
        xp = np.zeros((c, h + 2 * pad, w + 2 * pad))
        xp[:, pad:pad + h, pad:pad + w] = x
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    cols = np.empty((c, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i:i + stride * (oh - 1) + 1:stride, j:j + stride * (ow - 1) + 1:stride]
    out = kernel.reshape(o, -1).astype(np.float64) @ cols.reshape(c * kh * kw, oh * ow)
    out += bias.astype(np.float64)[:, None]
    return out.reshape(o, oh, ow).astype(x.dtype)


def upsample_x2(x):
    """Nearest-neighbor 2x upsampling of a (C,H,W) map."""
    x = np.asarray(x)
    if x.ndim != 3:
        raise ShapeError(f"upsample_x2 expects (C,H,W), got {x.shape}")
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)


def reduce_mean(x, axis):
    x = np.asarray(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for rank {x.ndim}")
    return x.mean(axis=axis, dtype=np.float64).astype(x.dtype)


def softmax(x, axis):
    x = np.asarray(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for rank {x.ndim}")
    z = x.astype(np.float64)
    z = z - z.max(axis=axis, keepdims=True)  # overflow guard
    e = np.exp(z)
    out = (e / e.sum(axis=axis, keepdims=True)).astype(x.dtype)
    # exp underflows to 0 for very spread inputs; keep entries in (0, 1]
    return np.clip(out, np.finfo(out.dtype).smallest_subnormal, 1.0)


def _open_interval_clip(y, lo, hi):
    # saturation rounds to the closed endpoints in floating point; keep
    # the documented open-interval range
    one = np.ones((), dtype=y.dtype)
    return np.clip(y, np.nextafter(lo * one, hi * one), np.nextafter(hi * one, lo * one))


def tanh(x):
    x = np.asarray(x)
    y = np.tanh(x.astype(np.float64)).astype(x.dtype)
    return _open_interval_clip(y, -1.0, 1.0)


def sigmoid(x):
    x = np.asarray(x)
    # tanh form avoids overflow of exp for large negative inputs
    y = (0.5 * (1.0 + np.tanh(0.5 * x.astype(np.float64)))).astype(x.dtype)
    return _open_interval_clip(y, 0.0, 1.0)


def relu(x):
    x = np.asarray(x)
    return np.maximum(x, 0)
