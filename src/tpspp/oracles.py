"""Independent reference implementations used only for checking.

Everything here is written against the mathematical definitions with
plain loops or numpy.linalg, deliberately sharing no code with the
production paths it verifies.
"""

import math

import numpy as np


def gauss_solve_full_pivot(m, rhs):
    """Gaussian elimination with full pivoting; checks solve_linear."""
    a = np.array(m, dtype=np.float64)
    b = np.array(rhs, dtype=np.float64)
    if b.ndim == 1:
        b = b[:, None]
    n = a.shape[0]
    col_perm = list(range(n))
    for k in range(n):
        sub = np.abs(a[k:, k:])
        ri, ci = np.unravel_index(np.argmax(sub), sub.shape)
        ri += k
        ci += k
        a[[k, ri]] = a[[ri, k]]
        b[[k, ri]] = b[[ri, k]]
        a[:, [k, ci]] = a[:, [ci, k]]
        col_perm[k], col_perm[ci] = col_perm[ci], col_perm[k]
        if a[k, k] == 0.0:
            raise ZeroDivisionError("singular system in oracle")
        for i in range(k + 1, n):
            f = a[i, k] / a[k, k]
            a[i, k:] -= f * a[k, k:]
            b[i] -= f * b[k]
    y = np.zeros_like(b)
    for k in range(n - 1, -1, -1):
        y[k] = (b[k] - a[k, k + 1:] @ y[k + 1:]) / a[k, k]
    x = np.zeros_like(y)
    for k in range(n):
        x[col_perm[k]] = y[k]
    return x


def conv2d_loops(x, kernel, bias, stride=1, pad=0):
    """Direct nested-loop convolution (cross-correlation)."""
    c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((o, oh, ow))
    for oc in range(o):
        for oy in range(oh):
            for ox in range(ow):
                acc = float(bias[oc])
                for ic in range(c):
                    for ky in range(kh):
                        for kx in range(kw):
                            iy = oy * stride + ky - pad
                            ix = ox * stride + kx - pad
                            if 0 <= iy < h and 0 <= ix < w:
                                acc += float(x[ic, iy, ix]) * float(kernel[oc, ic, ky, kx])
                out[oc, oy, ox] = acc
    return out


def kernel_u(r):
    """Thin-plate radial kernel U(r) = r^2 * ln(r^2), U(0) = 0; checks tps.kernel_between."""
    r2 = np.square(np.asarray(r, dtype=np.float64))
    return np.where(r2 > 0, r2 * np.log(np.where(r2 > 0, r2, 1.0)), 0.0)


class ClassicTps:
    """Classic thin-plate spline interpolator, set up from scratch.

    Solves the standard system with numpy.linalg.solve and evaluates
    f(p) = a0 + a1*x + a2*y + sum_k w_k U(|p - c_k|) per coordinate,
    with U(r) = r^2 log(r^2).
    """

    def __init__(self, sources, targets):
        sources = np.asarray(sources, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        n = sources.shape[0]
        a = np.zeros((n + 3, n + 3))
        for i in range(n):
            a[i, 0] = 1.0
            a[i, 1] = sources[i, 0]
            a[i, 2] = sources[i, 1]
            for j in range(n):
                a[i, 3 + j] = self._u(sources[i], sources[j])
        for j in range(n):
            a[n, 3 + j] = 1.0
            a[n + 1, 3 + j] = sources[j, 0]
            a[n + 2, 3 + j] = sources[j, 1]
        rhs = np.zeros((n + 3, 2))
        rhs[:n] = targets
        self.coef = np.linalg.solve(a, rhs)
        self.sources = sources

    @staticmethod
    def _u(p, q):
        r2 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
        return 0.0 if r2 == 0.0 else r2 * math.log(r2)

    def map_many(self, points, factors=1.0):
        """Vectorized f at an (N, 2) batch of points, each kernel term U(|p_n - c_k|) * factors."""
        points = np.asarray(points, dtype=np.float64)
        d = points[:, None, :] - self.sources[None, :, :]
        u = kernel_u(np.sqrt((d * d).sum(axis=2))) * factors
        affine = self.coef[0] + points @ self.coef[1:3]
        return affine + u @ self.coef[3:]


def bilinear_sample_scalar(source, x, y, border="zeros"):
    """Four-neighbor interpolation of one (H, W) channel at (x, y) pixels."""
    h, w = source.shape
    if border == "clamp":
        x = min(max(x, 0.0), w - 1.0)
        y = min(max(y, 0.0), h - 1.0)
    x0 = math.floor(x)
    y0 = math.floor(y)
    fx = x - x0
    fy = y - y0
    acc = 0.0
    for dy, wy in ((0, 1.0 - fy), (1, fy)):
        for dx, wx in ((0, 1.0 - fx), (1, fx)):
            xi = x0 + dx
            yi = y0 + dy
            if 0 <= xi < w and 0 <= yi < h:
                acc += wx * wy * float(source[yi, xi])
    return acc
