import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from tpspp import network, tps
from tpspp.warp import AttentionMatrix


@pytest.fixture
def zero_weights():
    """A WeightStore holding every tensor of the manifest, all zeros."""
    return network.WeightStore({name: np.zeros(shape, dtype=np.float32)
                                for name, shape in network.WEIGHT_MANIFEST.items()})


@pytest.fixture
def zero_attention():
    """Builds an all-zero (m, k) AttentionMatrix."""
    return lambda m, k: AttentionMatrix(np.zeros((m, k)))


def _conv2d_tensordot(x, kernel, bias, stride=1, pad=0):
    x = np.asarray(x)
    c, kh, kw = np.shape(kernel)[1:]
    xp = np.pad(x.astype(np.float64), ((0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    out = np.tensordot(np.asarray(kernel).astype(np.float64), win, axes=([1, 2, 3], [0, 3, 4]))
    out += np.asarray(bias).astype(np.float64)[:, None, None]
    # the window matrix as tensordot forms it is C-contiguous unless its reshape needed
    # no copy and left a strided view of xp, which BLAS then reads through another kernel
    contiguous = win.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, -1).flags.c_contiguous
    return out.astype(x.dtype), contiguous


@pytest.fixture(scope="session")
def conv2d_tensordot():
    """The window-view tensordot reference for conv2d: (output, whether its GEMM operand was C-contiguous)."""
    return _conv2d_tensordot


def _sampling_coords_one_gemm(transform, attention, out_h, out_w, rows=None):
    lattice = tps.output_lattice(out_h, out_w)
    u = tps.kernel_between(lattice, transform.centers)
    t = transform.t_matrix
    with np.errstate(over="ignore", invalid="ignore"):
        if attention is None:
            scaled = u * transform.beta
        else:
            scaled = attention.scores * transform.lam
            scaled += transform.beta
            if rows is not None:
                scaled = np.take(scaled, rows, axis=0)
            scaled *= u
        return scaled @ t[:, 3:].T + lattice @ t[:, 1:3].T + t[:, 0]


@pytest.fixture(scope="session")
def sampling_coords_one_gemm():
    """The whole-lattice reference for build_sampling_grid: one M x K array, one GEMM."""
    return _sampling_coords_one_gemm
