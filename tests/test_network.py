import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpspp import network, rectify, selftest, synth
from tpspp.errors import ShapeError, ValidationError
from tpspp.tps import make_grid, output_lattice, solve_transform
from tpspp.warp import map_point

# recorded from the first verified run (seed-0 weights, seed-3 stripe image)
GOLDEN_F3 = "7ff61efa01deef3c991a363910265fe165955d695d979cf948808bedd4c455e4"
GOLDEN_FE = "d96f5a0a4bd28aaf4f22971955cde8e4f8465632dd70422d72f9bc3a1ac676d9"
GOLDEN_FD = "bcc11991ba5dbe215276127f817d958af07f1514a4c57e7ea3373285637fe083"
GOLDEN_CBAM = "ce205f0e48a77decb322c4d75b6846d507f0f49ae987260bcdb73ac126a09d58"
GOLDEN_DGAB = "68be7dc4ad81b54f8f6e1ddf959454dd3fc5dfc7bdfb83ba863b2a5740837db1"


def sha(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float32).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def weights():
    return network.init_weights(0)


@pytest.fixture(scope="module")
def image():
    return synth.make_stripe_image(3)


@pytest.fixture(scope="module")
def pair(weights, image):
    return network.msfa_forward(network.toy_backbone(image, weights), weights)


class TestToyBackbone:
    def test_shapes(self, weights, image):
        b = network.toy_backbone(image, weights)
        assert b.f1.shape == (32, 32, 128)
        assert b.f2.shape == (64, 16, 64)
        assert b.f3.shape == (96, 16, 64)

    def test_zero_weights_constant_bias(self):
        tensors = {n: np.zeros(s, np.float32) for n, s in network.WEIGHT_MANIFEST.items()}
        tensors["backbone.conv1.bias"] = np.full(32, 0.25, np.float32)
        w = network.WeightStore(tensors)
        b = network.toy_backbone(np.zeros((1, 32, 128), np.float32), w)
        assert np.all(b.f1 == np.float32(0.25))
        assert np.all(b.f2 == 0.0)

    def test_wrong_input_shape(self, weights):
        with pytest.raises(ShapeError):
            network.toy_backbone(np.zeros((1, 16, 64), np.float32), weights)

    def test_golden_checksum(self, weights, image):
        b = network.toy_backbone(image, weights)
        assert sha(b.f3) == GOLDEN_F3


class TestMsfa:
    def test_output_extents(self, pair):
        assert pair.f_e.shape == (64, 4, 16)
        assert pair.f_d.shape == (64, 16, 64)

    def test_zero_weights_zero_outputs(self, zero_weights):
        w = zero_weights
        img = synth.make_stripe_image(0)
        pair = network.msfa_forward(network.toy_backbone(img, w), w)
        assert np.all(pair.f_e == 0.0)
        assert np.all(pair.f_d == 0.0)

    def test_missing_weight(self, image):
        tensors = dict(network.init_weights(0).items())
        del tensors["msfa.layer3.weight"]
        w = network.WeightStore(tensors)
        with pytest.raises(ShapeError, match="not found"):
            network.msfa_forward(network.toy_backbone(image, w), w)

    def test_golden_checksums(self, pair):
        assert sha(pair.f_e) == GOLDEN_FE
        assert sha(pair.f_d) == GOLDEN_FD


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 64), st.integers(1, 16), st.integers(2, 64), st.integers(0, 2**32 - 1))
def test_avgpool_equals_two_axis_mean_bytes(c, h2, w2, seed):
    # float32 values whose exponents spread over 2^-60..2^60, so that the order of the
    # float64 adds can show after the cast back; sizes up to msfa's 64x32x128. At an
    # output width of 1 numpy merges the two reduced axes into one run of 4 and sums it
    # in sequence, so mean's order differs there; msfa never pools to width 1
    rng = np.random.default_rng(seed)
    shape = (c, 2 * h2, 2 * w2)
    x = (rng.standard_normal(shape) * 2.0 ** rng.integers(-60, 61, shape)).astype(np.float32)
    want = x.reshape(c, h2, 2, w2, 2).mean(axis=(2, 4), dtype=np.float64).astype(x.dtype)
    got = network._avgpool2x2(x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestCbam:
    def test_half_gates(self, zero_weights):
        w = zero_weights
        rng = np.random.default_rng(0)
        x = rng.uniform(0.1, 1.0, size=(64, 4, 16)).astype(np.float32)
        out = network.cbam_forward(x, w)
        assert np.abs(out - 0.25 * x).max() <= 1e-6

    def test_shape_preserved(self, weights):
        x = np.random.default_rng(1).standard_normal((64, 4, 16)).astype(np.float32)
        assert network.cbam_forward(x, weights).shape == (64, 4, 16)

    def test_golden_checksum(self, weights):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, size=(64, 4, 16)).astype(np.float32)
        assert sha(network.cbam_forward(x, weights)) == GOLDEN_CBAM


class TestDgab:
    def test_output_shape(self, weights, pair):
        assert network.dgab_forward(pair, weights).shape == (64, 16, 64)

    def test_zero_weights_scales_by_channel_count(self, pair, zero_weights):
        # gates sigmoid(0)=0.5 and uniform softmax 1/64 on both branches:
        # merged map is the constant 2 * 0.5 / 64 = 1/64
        w = zero_weights
        out = network.dgab_forward(pair, w)
        assert np.abs(out - np.asarray(pair.f_d) / 64.0).max() <= 1e-6

    def test_golden_checksum(self, weights, pair):
        assert sha(network.dgab_forward(pair, weights)) == GOLDEN_DGAB


class TestAipe:
    def test_zero_offset_head_identity(self, pair):
        w = network.init_weights(0)  # offset head is zero-initialized
        grid, _ = network.aipe_forward(pair, w)
        assert np.all(grid.offsets == 0.0)
        t = solve_transform(grid)
        p = np.array([0.2, -0.4])
        assert np.abs(map_point(p, t, np.zeros(64)) - p).max() <= 1e-6

    def test_attention_bounds_and_shape(self, weights, pair):
        _, att = network.aipe_forward(pair, weights)
        assert att.scores.shape == (1024, 64)
        assert np.abs(att.scores).max() < 1.0

    def test_attention_bound_random_inputs(self, weights):
        rng = np.random.default_rng(2)
        for _ in range(3):
            pair = network.EncodedDecodedPair(
                rng.standard_normal((64, 4, 16)).astype(np.float32) * 100,
                rng.standard_normal((64, 16, 64)).astype(np.float32) * 100)
            _, att = network.aipe_forward(pair, weights)
            assert np.abs(att.scores).max() < 1.0


class TestContracts:
    def test_full_chain_shapes(self, weights, image):
        # the feature and attention shapes are the network-shapes suite's
        _, grid, _ = network.rectification_forward(image, weights)
        assert (grid.rows, grid.cols) == (4, 16) and grid.base is output_lattice(4, 16)
        assert grid.offsets.shape == (64, 2)

    @pytest.mark.parametrize("bad", [np.array(["0.1"]), np.array([0.1j]), np.array([True])],
                             ids=["str", "complex", "bool"])
    def test_non_real_weights_rejected(self, bad):
        with pytest.raises(ValidationError):
            network.WeightStore({"aipe.offset2.bias": bad})

    @pytest.mark.parametrize("names", [[7], ["\ud800"], [1, "b"]],
                             ids=["int-name", "surrogate-name", "mixed-keys"])
    def test_name_not_a_utf8_string_rejected(self, names):
        # the names a TPSW file can hold: a mixed store used to build, then fail to sort
        with pytest.raises(ValidationError, match="not a UTF-8 string"):
            network.WeightStore({name: np.ones(2) for name in names})

    def test_manifest_covers_store(self, weights):
        for name, shape in network.WEIGHT_MANIFEST.items():
            assert weights[name].shape == shape


@pytest.mark.parametrize("out_h, out_w", [(8, 128)])
def test_network_scores_read_as_decoded(out_h, out_w):
    # the network-rectification suite covers 16x64, 32x128 and 32x32; 8x128 also has as many
    # locations as the decoded 16x64 lattice, with its rows halved and its columns doubled
    assert selftest._network_rectification_error([(out_h, out_w)]) <= 1e-12


class TestRectifyWithNetwork:
    @pytest.mark.parametrize("bad", [np.full((1, 32, 128), "0.5"), np.full((1, 32, 128), 0.5j)],
                             ids=["str", "complex"])
    def test_non_real_image_rejected(self, weights, bad):
        with pytest.raises(ValidationError):
            rectify.rectify_with_network(bad, weights, make_grid(4, 16), 0.5, 1.0, 32, 128)

    @pytest.mark.parametrize("rows, cols, out_h, out_w, error", [
        (3, 16, 32, 128, ShapeError),                 # K = 48, the offset head regresses 64
        (2, 32, 32, 128, ShapeError),                 # K = 64 on other extents than the 4x16
        (8, 8, 32, 128, ShapeError),                  # encoded positions the network regresses
        (4, 16, 100000, 100000, ValidationError)])    # 10^10 locations, over the lattice bounds
    def test_rejected_before_the_forward(self, weights, image, rows, cols, out_h, out_w, error):
        grid = make_grid(rows, cols)
        tracemalloc.start()
        try:
            with pytest.raises(error):
                rectify.rectify_with_network(image, weights, grid, 0.5, 1.0, out_h, out_w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a forward alone peaks near 8 MiB

    def test_integer_image_convolved_as_float32(self):
        # conv2d keeps its input's dtype, so an integer image must not reach it as it is
        tensors = dict(network.init_weights(3).items())
        tensors["aipe.offset2.weight"] = np.random.default_rng(3).uniform(
            -0.05, 0.05, (2, network.D)).astype(np.float32)
        weights, grid = network.WeightStore(tensors), make_grid(4, 16)
        pixels = synth.make_stripe_image(3) > 0.5
        got, want = (rectify.rectify_with_network(pixels.astype(dtype), weights, grid, 0.5, 1.0,
                                                  32, 128) for dtype in (np.uint8, np.float32))
        assert got[0].dtype == np.uint8  # the warp of the image keeps the image's dtype
        assert np.any(want[2].offsets != 0.0)
        np.testing.assert_array_equal(got[2].offsets, want[2].offsets)
        np.testing.assert_array_equal(got[3].scores, want[3].scores)

    # pytest turns a RuntimeWarning into an error: the forward's overflow must not be reported
    def test_overflowing_weights_finite(self, image):
        tensors = {name: arr * np.float32(1e6) for name, arr in network.init_weights(0).items()}
        warped, *_ = rectify.rectify_with_network(image, network.WeightStore(tensors),
                                                  make_grid(4, 16), 0.5, 1.0, 32, 128)
        assert np.all(np.isfinite(warped))  # float32 casts overflow; the scores saturate

    @pytest.mark.parametrize("bad", [np.inf, 1e39])  # 1e39: a float64 past float32's range
    def test_inf_weight_rejected(self, image, bad):
        tensors = dict(network.init_weights(0).items())
        tensors["backbone.conv1.weight"] = tensors["backbone.conv1.weight"].astype(np.float64)
        tensors["backbone.conv1.weight"][0, 0, 1, 1] = bad
        with pytest.raises(ValidationError):  # non-finite offsets, from with_offsets
            rectify.rectify_with_network(image, network.WeightStore(tensors), make_grid(4, 16),
                                         0.5, 1.0, 32, 128)
