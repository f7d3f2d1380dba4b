import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpspp import network, tensor
from tpspp.errors import DegenerateGridError, ShapeError
from tpspp.oracles import conv2d_loops


class TestMatmul:
    def test_identity(self):
        m = np.arange(9, dtype=np.float64).reshape(3, 3)
        assert np.array_equal(tensor.matmul(np.eye(3), m), m)

    def test_hand_arithmetic(self):
        out = tensor.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0], [1.0]]))
        assert np.array_equal(out, [[2.0], [4.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tensor.matmul(np.zeros((2, 3)), np.zeros((4, 2)))


class TestSolveLinear:
    def test_identity(self):
        rhs = np.arange(8, dtype=np.float64).reshape(4, 2)
        assert np.array_equal(tensor.solve_linear(np.eye(4), rhs), rhs)

    def test_diagonal(self):
        x = tensor.solve_linear(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
        assert np.array_equal(x, [[1.0], [2.0]])

    def test_residual_bound(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((30, 30)) + 15.0 * np.eye(30)
        rhs = rng.standard_normal((30, 2))
        x = tensor.solve_linear(m, rhs)
        assert np.abs(m @ x - rhs).max() <= 1e-6 * (1.0 + np.abs(rhs).max())

    def test_singular(self):
        with pytest.raises(DegenerateGridError, match="singular"):
            tensor.solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros((2, 1)))

    def test_not_square(self):
        with pytest.raises(ShapeError):
            tensor.solve_linear(np.zeros((2, 3)), np.zeros((2, 1)))

    def test_vector_rhs_rejected(self):
        with pytest.raises(ShapeError):
            tensor.solve_linear(np.eye(2), np.ones(2))


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 5)).astype(np.float32)
        k = np.zeros((2, 2, 1, 1), dtype=np.float32)
        k[0, 0] = 1.0
        k[1, 1] = 1.0
        out = tensor.conv2d(x, k, np.zeros(2, dtype=np.float32))
        assert np.abs(out - x).max() <= 1e-6

    def test_zero_kernel_constant_bias(self):
        x = np.random.default_rng(4).standard_normal((1, 5, 5)).astype(np.float32)
        out = tensor.conv2d(x, np.zeros((3, 1, 3, 3), np.float32),
                            np.array([1.5, -0.5, 2.0], np.float32), pad=1)
        for o, b in enumerate([1.5, -0.5, 2.0]):
            assert np.all(out[o] == np.float32(b))

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            tensor.conv2d(np.zeros((1, 2, 2), np.float32),
                          np.zeros((1, 1, 5, 5), np.float32), np.zeros(1, np.float32))

    @pytest.mark.parametrize("kwargs", [{"pad": -1}, {"pad": 1.5}, {"stride": 0}, {"stride": 1.5}])
    def test_stride_and_pad_must_be_valid_integers(self, kwargs):
        with pytest.raises(ShapeError):
            tensor.conv2d(np.zeros((1, 4, 4), np.float32),
                          np.zeros((1, 1, 3, 3), np.float32), np.zeros(1, np.float32), **kwargs)


# (stride, pad) of every distinct convolution in network.py; shapes come from WEIGHT_MANIFEST
NETWORK_CONVS = {
    "backbone.conv1": (1, 1), "backbone.conv2": (2, 1), "backbone.conv3": (1, 1),
    "msfa.align1": (1, 0), "msfa.align2": (1, 0), "msfa.align3": (1, 0),
    "msfa.layer1": (1, 0), "msfa.layer2": (2, 1), "msfa.layer5": (1, 1),
    "msfa.cbam.spatial": (1, 3),
}


@pytest.mark.parametrize("name", sorted(NETWORK_CONVS))
def test_conv_loop_oracle_at_network_widths(name):
    # layer3 shares layer2's (64, 64, 3, 3) stride 2, and layer6/7 share layer5's
    stride, pad = NETWORK_CONVS[name]
    o, c, kh, kw = network.WEIGHT_MANIFEST[f"{name}.weight"]
    rng = np.random.default_rng(sum(name.encode()))
    x = rng.uniform(0.0, 1.0, (c, 3, 5)).astype(np.float32)
    k = rng.uniform(-0.05, 0.05, (o, c, kh, kw)).astype(np.float32)  # init_weights' range
    b = rng.uniform(-0.05, 0.05, o).astype(np.float32)
    got = tensor.conv2d(x, k, b, stride=stride, pad=pad)
    want = conv2d_loops(x, k, b, stride=stride, pad=pad)
    assert got.dtype == np.float32 and got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-6


@st.composite
def conv_cases(draw):
    c, o = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    stride, pad = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    if draw(st.booleans()):  # the kernel exactly fills the padded input: a 1x1 output
        kh, kw = h + 2 * pad, w + 2 * pad
    else:
        kh, kw = draw(st.integers(1, h + 2 * pad)), draw(st.integers(1, w + 2 * pad))
    seed = draw(st.integers(0, 2**32 - 1))
    return c, o, h, w, kh, kw, stride, pad, seed


@settings(max_examples=150, deadline=None)
@given(conv_cases())
def test_conv_loop_oracle_property(case):
    c, o, h, w, kh, kw, stride, pad, seed = case
    rng = np.random.default_rng(seed)
    # small enough that float32 rounding of a sum of up to 432 terms stays below 1e-6
    x = rng.uniform(-1.0, 1.0, (c, h, w)).astype(np.float32)
    k = rng.uniform(-0.1, 0.1, (o, c, kh, kw)).astype(np.float32)
    b = rng.uniform(-0.1, 0.1, o).astype(np.float32)
    got = tensor.conv2d(x, k, b, stride=stride, pad=pad)
    want = conv2d_loops(x, k, b, stride=stride, pad=pad)
    assert got.shape == want.shape == (o, (h + 2 * pad - kh) // stride + 1,
                                       (w + 2 * pad - kw) // stride + 1)
    assert np.abs(got - want).max() <= 1e-6


class TestUpsample:
    def test_single_pixel(self):
        assert np.array_equal(tensor.upsample_x2(np.array([[[1.0]]])), np.ones((1, 2, 2)))

    def test_constant(self):
        x = np.full((3, 2, 5), 0.25, np.float32)
        out = tensor.upsample_x2(x)
        assert out.shape == (3, 4, 10)
        assert np.all(out == np.float32(0.25))

    def test_replication_pattern(self):
        out = tensor.upsample_x2(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        want = [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
        assert np.array_equal(out[0], want)


class TestReduceMean:
    def test_identical_rows(self):
        x = np.tile([1.0, 2.0, 3.0], (4, 1))
        assert np.array_equal(tensor.reduce_mean(x, 0), [1.0, 2.0, 3.0])

    def test_row_means(self):
        assert np.array_equal(tensor.reduce_mean(np.array([[1.0, 3.0], [5.0, 7.0]]), 0), [3.0, 5.0])

    def test_loop_oracle_each_axis(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4, 5))
        for axis in range(3):
            got = tensor.reduce_mean(x, axis)
            want = np.apply_along_axis(lambda v: sum(v) / len(v), axis, x)
            assert np.abs(got - want).max() <= 1e-6

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            tensor.reduce_mean(np.zeros((2, 2)), 5)


class TestActivations:
    def test_softmax_symmetry(self):
        assert np.abs(tensor.softmax(np.zeros(3), 0) - 1.0 / 3.0).max() <= 1e-9

    def test_softmax_known_values(self):
        got = tensor.softmax(np.array([1.0, 2.0, 3.0]), 0)
        assert np.abs(got - [0.09003, 0.24473, 0.66524]).max() <= 1e-5

    def test_softmax_large_inputs_stable(self):
        out = tensor.softmax(np.array([1e4, 1e4 + 1.0]), 0)
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) <= 1e-6

    def test_tanh_zero(self):
        assert tensor.tanh(np.array([0.0]))[0] == 0.0

    def test_sigmoid_range(self):
        out = tensor.sigmoid(np.array([-100.0, 0.0, 100.0]))
        assert np.all(out > 0.0) and np.all(out < 1.0)
        assert out[1] == 0.5

    def test_relu(self):
        assert np.array_equal(tensor.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=16))
def test_softmax_sums_to_one(values):
    s = tensor.softmax(np.array(values), 0)
    assert abs(float(s.sum()) - 1.0) <= 1e-6
    assert np.all(s > 0) and np.all(s <= 1.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
def test_activations_finite(values):
    x = np.array(values)
    for fn in (tensor.tanh, tensor.sigmoid, tensor.relu):
        assert np.all(np.isfinite(fn(x)))


@st.composite
def tensordot_cases(draw):
    c, o = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    kh, kw = draw(st.sampled_from((1, 2, 3, 7))), draw(st.sampled_from((1, 2, 3, 7)))
    stride, pad = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    h = draw(st.integers(max(1, kh - 2 * pad), kh - 2 * pad + 8))
    w = draw(st.integers(max(1, kw - 2 * pad), kw - 2 * pad + 8))
    x_dtype = draw(st.sampled_from((np.float32, np.float64, np.int32)))
    k_dtype = draw(st.sampled_from((np.float32, np.float64)))
    seed = draw(st.integers(0, 2**32 - 1))
    return c, o, h, w, kh, kw, stride, pad, x_dtype, k_dtype, seed


@settings(max_examples=200, deadline=None)
@given(case=tensordot_cases())
def test_conv_equals_tensordot_reference_bytes(case, conv2d_tensordot):
    c, o, h, w, kh, kw, stride, pad, x_dtype, k_dtype, seed = case
    rng = np.random.default_rng(seed)
    if x_dtype is np.int32:
        x = rng.integers(-1000, 1000, (c, h, w)).astype(np.int32)
    else:
        x = (rng.standard_normal((c, h, w)) * 2.0 ** rng.integers(-20, 21, (c, h, w))).astype(x_dtype)
    k = rng.standard_normal((o, c, kh, kw)).astype(k_dtype)
    b = rng.standard_normal(o).astype(k_dtype)
    got = tensor.conv2d(x, k, b, stride=stride, pad=pad)
    want, contiguous = conv2d_tensordot(x, k, b, stride=stride, pad=pad)
    assert got.dtype == want.dtype == x.dtype and got.shape == want.shape
    if contiguous:  # every network convolution, and all but a few edge shapes
        assert got.tobytes() == want.tobytes()
    else:
        # the float64 sums may round differently, then move by one unit of x.dtype
        unit = np.finfo(x.dtype).eps * np.abs(want.astype(np.float64)) if x.dtype.kind == "f" else 1.0
        scale = np.abs(k).astype(np.float64).sum() * np.abs(x).max() + np.abs(b).max()
        assert np.all(np.abs(got.astype(np.float64) - want) <= unit + 1e-13 * scale)
