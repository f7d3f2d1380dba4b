import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpspp import rectify, tensor, tps
from tpspp.network import DecodedAttention
from tpspp.errors import DegenerateGridError, ShapeError, ValidationError
from tpspp.oracles import bilinear_sample_scalar
from tpspp.rectify import (annotate_points, attention_for_lattice, deformation_grid_image,
                            rectify_map)
from tpspp.warp import (LOCATION_BYTES, MAX_KERNEL_ENTRIES, MAX_LATTICE_BYTES, WARP_BLOCK_ENTRIES,
                        WARP_CHUNK_LOCATIONS, AttentionMatrix, SamplingGrid, basis_vector,
                        build_sampling_grid, check_lattice, map_point, output_lattice, warp)


def random_transform(seed, rows=4, cols=16, lam=0.5, beta=1.0):
    rng = np.random.default_rng(seed)
    g = tps.make_grid(rows, cols).with_offsets(rng.uniform(-0.1, 0.1, size=(rows * cols, 2)))
    return g, tps.solve_transform(g, lam=lam, beta=beta)


class Admitted(Exception):
    """Raised by stand-ins for what rectify_map calls once a lattice passes check_lattice."""


class TestAttentionMatrix:
    def test_bounds_enforced(self):
        with pytest.raises(ValidationError):
            AttentionMatrix(np.array([[0.0, 1.0]]))

    def test_error_names_position(self):
        with pytest.raises(ValidationError, match="row 1, col 2"):
            AttentionMatrix(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.5]]))

    def test_error_names_first_bad_entry_in_row_major_order(self):
        s = np.zeros((3, 4))
        s[2, 0] = -1.0
        s[1, 3] = np.nan
        with pytest.raises(ValidationError, match="row 1, col 3"):
            AttentionMatrix(s)

    @pytest.mark.parametrize("scores", [np.full((2, 4), "0.1"), np.full((2, 4), 0.1 + 0.1j),
                                        np.zeros((2, 4), bool)], ids=["str", "complex", "bool"])
    def test_non_real_scores_rejected(self, scores):
        with pytest.raises(ValidationError):
            AttentionMatrix(scores)

    def test_zeros(self, zero_attention):
        a = zero_attention(6, 4)
        assert a.m_locations == 6 and a.k_points == 4


class TestBasisVector:
    def test_lambda_zero_is_classic(self):
        _, t = random_transform(0, lam=0.0)
        rng = np.random.default_rng(1)
        p = rng.uniform(-1, 1, size=2)
        att = rng.uniform(-0.9, 0.9, size=64)
        assert np.array_equal(basis_vector(p, t, att), basis_vector(p, t, np.zeros(64)))

    def test_center_coincidence_kills_kernel_term(self):
        g, t = random_transform(2)
        b = basis_vector(g.base[5], t, np.full(64, 0.7))
        assert b[3 + 5] == 0.0

    def test_unit_distance_all_centers(self):
        g = tps.make_grid(1, 2)  # centers (-1,0) and (1,0); origin is 1 away from both
        custom = tps.TpsTransform(np.zeros((2, 5)), g.base, lam=0.5, beta=1.0)
        b = basis_vector(np.array([0.0, 0.0]), custom, np.array([0.3, -0.3]))
        assert np.array_equal(b, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_row_length_checked(self):
        _, t = random_transform(3)
        with pytest.raises(ShapeError):
            basis_vector(np.zeros(2), t, np.zeros(10))


class TestMapPoint:
    @pytest.mark.parametrize("p, row", [(np.array(["0.1", "0.2"]), np.zeros(64)),
                                        (np.array([0.1 + 1j, 0.2]), np.zeros(64)),
                                        (np.zeros(2), np.full(64, "0.1"))],
                             ids=["str-point", "complex-point", "str-row"])
    def test_non_real_input_rejected(self, p, row):
        _, t = random_transform(3)
        with pytest.raises(ValidationError):
            map_point(p, t, row)

    @pytest.mark.parametrize("p", [[np.nan, 0.0], [1e200, 0.0]])
    def test_non_finite_result_degenerate(self, p):
        _, t = random_transform(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is checked, not reported
            with pytest.raises(DegenerateGridError):
                map_point(p, t, np.zeros(64))

    def test_point_shape_checked(self):
        _, t = random_transform(3)
        with pytest.raises(ShapeError):
            map_point(np.zeros(3), t, np.zeros(64))


class TestBuildSamplingGrid:
    def test_identity_lattice(self, zero_attention):
        t = tps.solve_transform(tps.make_grid(4, 16))
        grid = build_sampling_grid(t, zero_attention(16, 64), 4, 4)
        assert np.abs(grid.coords - output_lattice(4, 4)).max() <= 1e-9

    def test_default_configuration_extents(self, zero_attention):
        _, t = random_transform(8)
        att = zero_attention(16 * 64, 64)
        grid = build_sampling_grid(t, att, 16, 64)
        assert grid.coords.shape == (1024, 2)
        assert att.k_points == 64

    def test_row_count_mismatch(self, zero_attention):
        _, t = random_transform(11)
        for att in (zero_attention(10, 64), zero_attention(16, 10)):
            with pytest.raises(ShapeError):
                build_sampling_grid(t, att, 4, 4)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0, -1.0])
    @pytest.mark.parametrize("beta", [1.0, 0.7])
    def test_null_attention_is_zero_scores(self, lam, beta, zero_attention):
        _, t = random_transform(16, lam=lam, beta=beta)
        zeros = build_sampling_grid(t, zero_attention(6 * 8, 64), 6, 8)
        null = build_sampling_grid(t, None, 6, 8)
        assert null.coords.tobytes() == zeros.coords.tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coordinate_degenerate(self, bad):
        _, t = random_transform(17)
        t_matrix = t.t_matrix.copy()
        t_matrix[1, 5] = bad
        broken = tps.TpsTransform(t_matrix, t.centers, t.lam, t.beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateGridError):
                build_sampling_grid(broken, None, 6, 8)

    @pytest.mark.parametrize("out_h, out_w", [(0, 5), (5, 0), (-1, 4)])
    def test_empty_extents_rejected(self, out_h, out_w):
        _, t = random_transform(18)
        with pytest.raises(ValidationError):
            build_sampling_grid(t, None, out_h, out_w)

    def test_budget_rejected_before_allocation(self):
        g, t = random_transform(19)
        side = 1 << 20  # 2^40 lattice locations: 512 TiB per float64 M x K array
        assert side * side * t.k > MAX_KERNEL_ENTRIES
        # scores on the decoded 16x64 lattice, which rectify_map would resample to M x K
        att = AttentionMatrix(np.random.default_rng(19).uniform(-0.9, 0.9, (1024, t.k)))
        tracemalloc.start()
        try:
            for call in (lambda: build_sampling_grid(t, None, side, side),
                         lambda: rectify_map(np.zeros((1, 4, 4)), g, att, 0.5, 1.0, side, side)):
                with pytest.raises(ValidationError):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_budget_admits_vga_at_source_extents(self):
        check_lattice(480, 640, 64)  # --out-size defaults to the source extents
        with pytest.raises(ValidationError):
            check_lattice(100000, 100000, 64)

    @pytest.mark.parametrize("out_h, out_w", [
        (np.int32(65536), np.int32(65536)),  # the int32 product wraps to 0
        (4.5, 16), (16, 4.0), ("4", 16), (None, 16), (16, [4])])
    def test_non_integer_extents_rejected(self, out_h, out_w):
        g, t = random_transform(19)
        with pytest.raises(ValidationError):
            check_lattice(out_h, out_w, t.k)
        with pytest.raises(ValidationError):
            rectify_map(np.zeros((1, 4, 4)), g, None, 0.5, 1.0, out_h, out_w)

    def test_numpy_integer_extents_admitted(self):
        g, _ = random_transform(19)
        want, _ = rectify_map(np.ones((1, 4, 4)), g, None, 0.5, 1.0, 6, 8)
        got, _ = rectify_map(np.ones((1, 4, 4)), g, None, 0.5, 1.0, np.int32(6), np.uint8(8))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("out_h, out_w", [(True, 4), (np.uint8(200), np.uint8(200))],
                             ids=["bool-is-1", "uint8-product-wraps"])
    def test_extents_kept_as_the_ints_check_lattice_returns(self, out_h, out_w):
        g, _ = random_transform(19)
        want, _ = rectify_map(np.ones((1, 4, 4)), g, None, 0.5, 1.0, int(out_h), int(out_w))
        got, sampling = rectify_map(np.ones((1, 4, 4)), g, None, 0.5, 1.0, out_h, out_w)
        assert got.tobytes() == want.tobytes()
        assert (type(sampling.height), type(sampling.width)) == (int, int)
        assert type(SamplingGrid(True, 2, np.zeros((2, 2))).height) is int

    def test_byte_bound_edge(self):
        # a 64-channel float32 output at K = 4: the bytes bind long before the kernel work
        most = MAX_LATTICE_BYTES // (LOCATION_BYTES + 256)
        assert (most + 1) * 4 <= MAX_KERNEL_ENTRIES
        check_lattice(most, 1, 4, 256)
        with pytest.raises(ValidationError):
            check_lattice(most + 1, 1, 4, 256)

    @staticmethod
    def stop_at_lattice(monkeypatch):
        """Make rectify_map raise Admitted where it would start on the lattice."""
        def admitted(*args, **kwargs):
            raise Admitted
        monkeypatch.setattr(rectify, "attention_for_lattice", admitted)
        monkeypatch.setattr(rectify, "build_sampling_grid", admitted)

    def test_output_bytes_rejected_before_allocation(self, monkeypatch):
        # 22.4M locations of 64 float32 channels: a 5.33 GiB output, under the work bound at K = 4
        self.stop_at_lattice(monkeypatch)
        g = tps.make_grid(2, 2)
        source = np.zeros((64, 4, 4), np.float32)
        assert 4729 * 4730 * g.k <= MAX_KERNEL_ENTRIES
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError):
                rectify_map(source, g, None, 0.5, 1.0, 4729, 4730)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows, cols, out_h, out_w", [(2, 2, 4729, 4730), (4, 16, 1280, 960)])
    def test_one_channel_lattices_admitted(self, monkeypatch, dtype, rows, cols, out_h, out_w):
        # the largest lattices under the work bound at K = 4 and K = 64 pass the byte bound too
        self.stop_at_lattice(monkeypatch)
        with pytest.raises(Admitted):
            rectify_map(np.zeros((1, 4, 4), dtype), tps.make_grid(rows, cols), None, 0.5, 1.0,
                        out_h, out_w)

    @staticmethod
    def peaks_and_bounds(monkeypatch, rows, cols, out_h, out_w):
        """tracemalloc peaks of a cold-cache then a warm-cache rectify_map of a 1-channel
        float64 map with decoded scores, each with its bound, in bytes per output location.

        The bound is LOCATION_BYTES plus the output's 8 B; plus, on a cold build of a kernel
        the plan cache keeps, that kernel and its squared distances, 16K B; plus, over M, an
        allowance that does not grow with M: the scores' scaled copy, a block of scaled
        kernel rows (8 * WARP_BLOCK_ENTRIES) and a chunk-sized array (8 * WARP_CHUNK_LOCATIONS).
        Below WARP_CHUNK_LOCATIONS locations the warp's chunk setup is M long: at 32x256 with
        K = 4 the warm peak reaches 86% of its bound.
        """
        monkeypatch.setattr(tps, "_PLANS", tps._PlanCache(tps.PLAN_CACHE_BYTES))
        g = tps.make_grid(rows, cols)
        att = AttentionMatrix(np.random.default_rng(20).uniform(-0.9, 0.9, (1024, g.k)))
        m = out_h * out_w
        fixed = att.scores.nbytes + 8 * (WARP_BLOCK_ENTRIES + WARP_CHUNK_LOCATIONS)
        results = []
        for run in ("cold", "warm"):
            tracemalloc.start()
            try:
                rectify_map(np.zeros((1, 4, 4)), g, att, 0.5, 1.0, out_h, out_w)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            kept = any(key[0] == "kernel" for key in tps._PLANS._arrays)
            kernel = 16 * g.k if run == "cold" and kept else 0
            results.append((peak / m, LOCATION_BYTES + 8 + kernel + fixed / m))
        return results

    def test_peak_memory_within_budget_model(self, monkeypatch):
        # kernels the plan cache keeps: 32x256 with K = 64, 480x640 with K = 4
        for rows, cols, out_h, out_w in [(4, 16, 32, 256), (2, 2, 480, 640)]:
            for peak, bound in self.peaks_and_bounds(monkeypatch, rows, cols, out_h, out_w):
                assert peak <= bound

    def test_uncached_kernel_built_per_block(self, monkeypatch):
        # kernels over the plan budget, 157 MB at 480x640 with K = 64 and 39 MB at 960x1280
        # with K = 4: their rows are built one block at a time and never kept
        for rows, cols, out_h, out_w in [(4, 16, 480, 640), (2, 2, 960, 1280)]:
            for peak, bound in self.peaks_and_bounds(monkeypatch, rows, cols, out_h, out_w):
                assert peak <= bound
            assert list(tps._PLANS._arrays) == [("lattice", rows, cols), ("inverse", rows, cols),
                                                ("lattice", out_h, out_w)]

    def test_kernel_kept_only_beside_its_inverse(self, monkeypatch):
        # a 256x256 kernel with K = 64 is exactly the plan budget: keeping it would evict the
        # inverse and the lattices, and the next request's inverse would evict the kernel
        monkeypatch.setattr(tps, "_PLANS", tps._PlanCache(tps.PLAN_CACHE_BYTES))
        g = tps.make_grid(4, 16)
        rectify_map(np.zeros((1, 4, 4)), g, None, 0.5, 1.0, 256, 256)
        solves = []
        real = tensor.solve_linear
        monkeypatch.setattr(tensor, "solve_linear", lambda *args: solves.append(1) or real(*args))
        rectify_map(np.zeros((1, 4, 4)), g, None, 0.5, 1.0, 256, 256)
        assert solves == []
        assert list(tps._PLANS._arrays) == [("lattice", 4, 16), ("inverse", 4, 16),
                                            ("lattice", 256, 256)]

    def test_alternating_lattices_at_the_kernel_boundary_solve_once(self, monkeypatch):
        # at K = 64 a kernel is kept up to 63,483 locations (247x257 is), where it fits beside
        # its inverse and both lattices; 236x269 (63,484) would fit without the base lattice,
        # 255x256 and 256x255 without either lattice, and keeping any of them would evict the
        # inverse on every other request
        monkeypatch.setattr(tps, "_PLANS", tps._PlanCache(tps.PLAN_CACHE_BYTES))
        solves = []
        real = tensor.solve_linear
        monkeypatch.setattr(tensor, "solve_linear", lambda *args: solves.append(1) or real(*args))
        g = tps.make_grid(4, 16)
        rng = np.random.default_rng(21)
        for out_h, out_w in [(236, 269), (247, 257), (255, 256), (256, 255)] * 2:
            regressed = g.with_offsets(rng.uniform(-0.1, 0.1, (64, 2)))
            rectify_map(np.zeros((1, 4, 4)), regressed, None, 0.5, 1.0, out_h, out_w)
        assert solves == [1]

    def test_peak_memory_at_four_control_points(self, monkeypatch):
        # K = 4, the smallest solvable lattice, at 8192 locations: fewer than a warp chunk, so
        # the warp's setup arrays are M long and set the warm peak
        for peak, bound in self.peaks_and_bounds(monkeypatch, 2, 2, 32, 256):
            assert peak <= bound


class TestAttentionForLattice:
    def test_no_gather(self, zero_attention):
        assert attention_for_lattice(None, 32, 128) is None
        assert attention_for_lattice(zero_attention(32 * 128, 64), 32, 128) is None
        # a points file's 1024 rows on a 32x32 lattice are one row per location
        assert attention_for_lattice(zero_attention(1024, 64), 32, 32) is None

    @pytest.mark.parametrize("out_h, out_w",
                             [(16, 64), (32, 128), (8, 128), (32, 32), (1, 1), (5, 70)])
    def test_decoded_rows_nearest_neighbor(self, out_h, out_w):
        att = DecodedAttention(np.zeros((1024, 64)))
        rows = attention_for_lattice(att, out_h, out_w)
        # the decoded pixel whose box holds the left/top edge of each output pixel's box
        i, j = np.divmod(np.arange(out_h * out_w), out_w)
        assert np.array_equal(rows, (i * 16 // out_h) * 64 + j * 64 // out_w)

    @pytest.mark.parametrize("m", [10, 1023, 2048])
    def test_other_row_counts_rejected(self, m, zero_attention):
        for att in (zero_attention(m, 64), DecodedAttention(np.zeros((m, 64)))):
            with pytest.raises(ValidationError):
                attention_for_lattice(att, 32, 128)

    @pytest.mark.parametrize("lam, beta", [(0.5, 1.0), (2.0, 0.7), (-0.3, 0.0)])
    def test_gather_matches_resampled_scores(self, lam, beta):
        _, t = random_transform(21, lam=lam, beta=beta)
        scores = np.random.default_rng(21).uniform(-0.95, 0.95, (1024, 64))
        rows = attention_for_lattice(DecodedAttention(scores), 24, 96)
        got = build_sampling_grid(t, AttentionMatrix(scores), 24, 96, rows=rows)
        want = build_sampling_grid(t, AttentionMatrix(scores[rows]), 24, 96)
        assert got.coords.tobytes() == want.coords.tobytes()

    @pytest.mark.parametrize("rows", [np.zeros(47, np.int64), np.zeros((6, 8), np.int64),
                                      np.full(48, -1), np.full(48, 10), np.zeros(48),
                                      np.zeros(48, bool), [0] * 47])
    def test_bad_rows_rejected(self, rows, zero_attention):
        _, t = random_transform(22)
        with pytest.raises(ShapeError):
            build_sampling_grid(t, zero_attention(10, 64), 6, 8, rows=rows)


class TestOverlays:
    # 1e308: finite, but its pixel position overflows to inf; 0.2: just outside
    @pytest.mark.parametrize("bad", [1e308, 0.2])
    def test_points_outside_or_non_finite_skipped(self, bad):
        g = tps.make_grid(2, 2).with_offsets([[0.0, 0.0], [bad, 0.0], [0.0, bad], [0.0, 0.0]])
        img = annotate_points(np.zeros((1, 9, 9), np.float32), g)
        want = np.zeros((9, 9), np.float32)
        want[:2, :2] = want[7:, 7:] = 1.0  # corner markers of points 0 and 3 only
        assert np.array_equal(img[0], want)

    @pytest.mark.parametrize("bad", [1e308, -1e308, 5.0, -1.5])
    def test_grid_locations_outside_skipped(self, bad):
        coords = np.zeros((13, 2))  # of a 1x13 lattice, locations 0, 4, 8 and 12 are marked
        coords[::4] = [[-1.0, -1.0], [bad, 0.0], [0.0, bad], [1.0, 1.0]]
        img = deformation_grid_image(SamplingGrid(1, 13, coords), 5, 7)
        assert np.array_equal(np.argwhere(img[0] == 1.0), [[0, 0], [4, 6]])


class TestWarp:
    def test_identity_passthrough(self):
        rng = np.random.default_rng(12)
        src = rng.uniform(0, 1, size=(3, 6, 9)).astype(np.float32)
        grid = SamplingGrid(6, 9, output_lattice(6, 9))
        assert np.abs(warp(src, grid) - src).max() <= 1e-6

    def test_horizontal_midpoint(self):
        src = np.array([[[0.0, 1.0]]], dtype=np.float32)
        grid = SamplingGrid(1, 1, np.array([[0.0, 0.0]]))
        assert abs(float(warp(src, grid)[0, 0, 0]) - 0.5) <= 1e-6

    def test_border_zeros_outside(self):
        src = np.ones((1, 4, 4), dtype=np.float32)
        grid = SamplingGrid(1, 1, np.array([[5.0, 5.0]]))
        assert warp(src, grid, border="zeros")[0, 0, 0] == 0.0

    def test_border_clamp_outside(self):
        src = np.full((1, 4, 4), 0.75, dtype=np.float32)
        grid = SamplingGrid(1, 1, np.array([[5.0, 5.0]]))
        assert abs(float(warp(src, grid, border="clamp")[0, 0, 0]) - 0.75) <= 1e-6

    @pytest.mark.parametrize("border", ["zeros", "clamp"])
    def test_huge_finite_coordinates(self, border):
        src = np.random.default_rng(14).uniform(0, 1, size=(2, 4, 5)).astype(np.float32)
        far = np.array([[1e308, -1e308], [-1e300, 3e19], [1e19, 0.5], [-7.0, 1e308]])
        near = np.array([[1.5, -1.5], [-1.5, 1.5], [1.5, 0.5], [-1.5, 1.5]])  # same sides
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or int64-cast warnings
            got = warp(src, SamplingGrid(1, 4, far), border=border)
        assert got.tobytes() == warp(src, SamplingGrid(1, 4, near), border=border).tobytes()

    @pytest.mark.parametrize("height, width, coords", [
        (1, 2, np.full((2, 2), "0.1")), (1, 2, np.full((2, 2), 0.1 + 0.1j)),
        (4.5, 4, np.zeros((18, 2)))], ids=["str", "complex", "fractional-extent"])
    def test_non_real_input_rejected(self, height, width, coords):
        with pytest.raises(ValidationError):
            SamplingGrid(height, width, coords)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coordinates_unconstructible(self, bad):
        with pytest.raises(DegenerateGridError):
            SamplingGrid(1, 2, np.array([[0.0, 0.0], [0.5, bad]]))

    @pytest.mark.parametrize("shape", [(4, 4), (1, 0, 4), (1, 4, 0), (0, 4, 4)])
    def test_source_shape_checked(self, shape):
        with pytest.raises(ShapeError):
            warp(np.zeros(shape, np.float32), SamplingGrid(1, 1, np.zeros((1, 2))))

    def test_ragged_source_rejected(self):
        ragged = [[[0.0, 0.0], [0.0]]]
        with pytest.raises(ValidationError, match="source is not an array of real numbers"):
            warp(ragged, SamplingGrid(1, 1, np.zeros((1, 2))))
        with pytest.raises(ValidationError, match="source is not an array of real numbers"):
            rectify_map(ragged, tps.make_grid(2, 2), None, 0.5, 1.0, 3, 4)

    @pytest.mark.parametrize("src", [np.ones((1, 2, 2), bool), np.ones((1, 2, 2), complex),
                                     np.full((1, 2, 2), "1")])
    def test_source_dtype_checked(self, src):
        with pytest.raises(ValidationError, match="source must hold real numbers"):
            warp(src, SamplingGrid(1, 1, np.zeros((1, 2))))

    def test_object_source_of_python_floats_sampled_as_float64(self):
        # real_array converts an object array of Python numbers, as for every library input
        src = np.random.default_rng(15).uniform(0, 1, size=(2, 5, 7))
        boxed = src.astype(object)
        assert boxed.dtype == object and type(boxed[1, 4, 6]) is float
        grid = SamplingGrid(3, 4, np.random.default_rng(16).uniform(-1.2, 1.2, (12, 2)))
        assert warp(boxed, grid).tobytes() == warp(src, grid).tobytes()
        g = tps.make_grid(2, 2).with_offsets(np.full((4, 2), 0.05))
        got, _ = rectify_map(boxed, g, None, 0.5, 1.0, 3, 4)
        assert got.dtype == np.float64
        assert got.tobytes() == rectify_map(src, g, None, 0.5, 1.0, 3, 4)[0].tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_source_rejected(self, bad):
        src = np.zeros((2, 3, 4), np.float32)
        src[1, 2, 3] = bad
        with pytest.raises(ValidationError, match="channel 1, row 2, col 3"):
            warp(src, SamplingGrid(1, 1, np.zeros((1, 2))))
        with pytest.raises(ValidationError):
            rectify_map(src, tps.make_grid(2, 2), None, 0.5, 1.0, 3, 4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64, np.uint64])
    def test_float32_and_64_bit_sources_keep_half_their_range(self, dtype):
        # the four weights may sum to a few ulp over 1: at the type's largest value the
        # weighted sum overflows the float32 or float64 it is summed in, or the cast back to
        # the 64-bit integer type
        info = np.finfo(dtype) if np.dtype(dtype).kind == "f" else np.iinfo(dtype)
        coords = np.random.default_rng(0).uniform(-1, 1, (1000, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="channel 0, row 1, col 2"):
                src = np.zeros((1, 3, 3), dtype)
                src[0, 1, 2] = info.max
                warp(src, SamplingGrid(1, 1000, coords))
            half = np.full((1, 3, 3), info.max // 2 if dtype != np.float64 else info.max / 2, dtype)
            for border in ("zeros", "clamp"):
                assert np.all(np.isfinite(warp(half, SamplingGrid(1, 1000, coords), border)))

    def test_long_double_source_keeps_half_of_float64s_range(self):
        # a long double is sampled in float64: past float64's range it would warp to inf
        grid = SamplingGrid(1, 1, np.zeros((1, 2)))
        for value in (np.longdouble("1e4000"), np.longdouble(np.finfo(np.float64).max)):
            src = np.full((1, 4, 4), value)
            with pytest.raises(ValidationError, match="outside"):
                warp(src, grid)
            with pytest.raises(ValidationError, match="outside"):
                rectify_map(src, tps.make_grid(2, 2), None, 0.5, 1.0, 3, 4)
        half = np.full((1, 4, 4), np.longdouble(np.finfo(np.float64).max / 2))
        assert np.all(np.isfinite(warp(half, grid)))

    @pytest.mark.parametrize("border", ["zeros", "clamp"])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.int64])
    def test_integer_map_rounded_to_nearest(self, border, dtype):
        # the cast back to an integer type truncates: the weighted sum is rounded before it
        info = np.iinfo(dtype)
        rng = np.random.default_rng(23)
        src = np.full((2, 8, 8), 7, dtype)
        src[1] = rng.integers(max(info.min, -1000), min(info.max, 1000), (8, 8), endpoint=True)
        coords = rng.uniform(-1.1, 1.1, (4096, 2))
        out = warp(src, SamplingGrid(64, 64, coords), border=border).reshape(2, -1)
        assert out.dtype == dtype
        inside = np.all(np.abs(coords) <= 1.0, axis=1) | (border == "clamp")  # no zeros read
        assert np.all(out[0, inside] == 7)
        px, py = (coords[:, 0] + 1.0) / 2.0 * 7, (coords[:, 1] + 1.0) / 2.0 * 7
        ref = np.array([bilinear_sample_scalar(src[1], x, y, border) for x, y in zip(px, py)])
        clear = np.abs(ref - np.floor(ref) - 0.5) > 1e-9  # off a half-integer, rint is one value
        assert np.array_equal(out[1, clear], np.rint(ref[clear]))

    @pytest.mark.parametrize("border", ["zeros", "clamp"])
    def test_float32_map_within_float32_precision(self, border):
        # a float32 map is sampled in float32: its four weights are rounded once, then four
        # products and three sums each round within 2^-24 of max|source|
        rng = np.random.default_rng(19)
        src = rng.standard_normal((64, 16, 64)).astype(np.float32)
        h, w = 65, 257  # 16705 locations: a chunk of 2^14, then a partial block of a second
        coords = rng.uniform(-1.1, 1.1, (h * w, 2))
        out = warp(src, SamplingGrid(h, w, coords), border=border).reshape(64, h * w)
        assert out.dtype == np.float32
        edges = np.arange(WARP_BLOCK_ENTRIES // 64, h * w, WARP_BLOCK_ENTRIES // 64)
        assert WARP_CHUNK_LOCATIONS in edges
        picked = np.unique(np.concatenate([edges - 1, edges, [h * w - 1],
                                           rng.choice(h * w, 200, replace=False)]))
        bound = 6 * 2.0**-24 * float(np.abs(src).max())
        for m in picked:
            px, py = (coords[m, 0] + 1.0) / 2.0 * 63, (coords[m, 1] + 1.0) / 2.0 * 15
            ref = [bilinear_sample_scalar(src[ch], px, py, border) for ch in range(64)]
            assert np.max(np.abs(out[:, m] - ref)) <= bound, m

    @pytest.mark.parametrize("c", [1, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_negative_zero_source_warps_to_positive_zero(self, dtype, c):
        # each location's four-term sum starts from +0.0, which a sum of -0.0 terms keeps
        src = np.full((c, 5, 7), -0.0, dtype)
        rng = np.random.default_rng(24)
        coords = np.concatenate([output_lattice(5, 7), rng.uniform(-1.2, 1.2, (265, 2))])
        for border in ("zeros", "clamp"):
            out = warp(src, SamplingGrid(1, 300, coords), border=border)
            assert out.dtype == dtype and not np.signbit(out).any()

    def test_unknown_border(self):
        src = np.zeros((1, 2, 2), dtype=np.float32)
        grid = SamplingGrid(1, 1, np.zeros((1, 2)))
        with pytest.raises(ValidationError):
            warp(src, grid, border="wrap")

    @pytest.mark.parametrize("border", ["zeros", "clamp"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
    def test_block_boundaries_invisible(self, border, dtype):
        rng = np.random.default_rng(15)
        src = rng.uniform(0, 255, (64, 9, 13)).astype(dtype)
        step = WARP_BLOCK_ENTRIES // 64
        coords = rng.uniform(-1.3, 1.3, (3 * step + step // 2, 2))  # 3.5 blocks, some outside
        got = warp(src, SamplingGrid(1, len(coords), coords), border=border)
        alone = [warp(src, SamplingGrid(1, 1, p[None]), border=border) for p in coords]
        assert got.dtype == src.dtype
        assert got.tobytes() == np.concatenate(alone, axis=2).tobytes()

    @pytest.mark.parametrize("border", ["zeros", "clamp"])
    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    def test_chunk_boundaries_invisible(self, border, dtype):
        rng = np.random.default_rng(17)
        src = rng.uniform(0, 255, (64, 9, 13)).astype(dtype)
        coords = rng.uniform(-1.3, 1.3, (2 * WARP_CHUNK_LOCATIONS + 1500, 2))
        got = warp(src, SamplingGrid(1, len(coords), coords), border=border)
        cuts = [0, 1, 777, WARP_CHUNK_LOCATIONS + 5, 2 * WARP_CHUNK_LOCATIONS - 3, len(coords)]
        parts = [warp(src, SamplingGrid(1, b - a, coords[a:b]), border=border)
                 for a, b in zip(cuts, cuts[1:])]
        assert got.tobytes() == np.concatenate(parts, axis=2).tobytes()

    def test_memory_bounded_by_block(self):
        # beside its output, the warp holds the framed float32 table, two blocks of
        # WARP_BLOCK_ENTRIES and one chunk's setup: about 2.5 MB here, whatever the number of
        # locations
        rng = np.random.default_rng(16)
        src = rng.standard_normal((64, 16, 64)).astype(np.float32)
        extra = []
        for h, w in ((64, 256), (128, 256), (256, 256)):
            grid = SamplingGrid(h, w, rng.uniform(-1.1, 1.1, (h * w, 2)))
            tracemalloc.start()
            try:
                out = warp(src, grid)
                extra.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
            finally:
                tracemalloc.stop()
        assert max(extra) < 4 << 20
        assert max(extra) - min(extra) < 1 << 16


def _axis_coordinate(n):
    """Any normalized coordinate in +-3, or one on pixel -1, 0, n-1 or n of an n-pixel axis."""
    edges = st.sampled_from([-1, 0, n - 1, n]).map(
        lambda p: 2.0 * p / (n - 1) - 1.0 if n > 1 else 0.0)
    return st.floats(-3.0, 3.0) | edges


@st.composite
def warp_cases(draw):
    c, h, w = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    coords = draw(st.lists(st.tuples(_axis_coordinate(w), _axis_coordinate(h)),
                           min_size=1, max_size=12))
    src = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0, 1, (c, h, w))
    return src.astype(np.float32), np.array(coords), draw(st.sampled_from(["zeros", "clamp"]))


# a coordinate on pixel h (or w) reads past the last row of the framed source unless the
# warp caps the floored index at size - 1
@settings(max_examples=150, deadline=2000)
@given(case=warp_cases())
def test_warp_matches_scalar_oracle(case):
    src, coords, border = case
    _, h, w = src.shape
    out = warp(src, SamplingGrid(1, len(coords), coords), border=border)
    for m, (x, y) in enumerate(coords):
        px, py = (x + 1.0) / 2.0 * (w - 1), (y + 1.0) / 2.0 * (h - 1)
        for ch in range(src.shape[0]):
            ref = bilinear_sample_scalar(src[ch], px, py, border)
            assert abs(float(out[ch, 0, m]) - ref) <= 1e-6


@st.composite
def sampling_cases(draw):
    """A solved transform on a 2x2, 3x5, 4x16 or 8x8 grid, a small output lattice and
    null or random attention."""
    rows, cols = draw(st.sampled_from([(2, 2), (3, 5), (4, 16), (8, 8)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = tps.make_grid(rows, cols)
    g = g.with_offsets(rng.uniform(-0.2, 0.2, g.base.shape))
    t = tps.solve_transform(g, lam=draw(st.floats(-2.0, 2.0)), beta=draw(st.floats(0.5, 1.5)))
    out_h, out_w = draw(st.integers(1, 9)), draw(st.integers(1, 12))
    scores = rng.uniform(-0.99, 0.99, (out_h * out_w, g.k)) if draw(st.booleans()) else None
    return t, scores, out_h, out_w


@settings(max_examples=100, deadline=2000)
@given(case=sampling_cases())
def test_sampling_grid_matches_map_point(case):
    t, scores, out_h, out_w = case
    att = None if scores is None else AttentionMatrix(scores)
    got = build_sampling_grid(t, att, out_h, out_w).coords
    zero = np.zeros(t.k)
    want = np.array([map_point(p, t, zero if scores is None else scores[m])
                     for m, p in enumerate(output_lattice(out_h, out_w))])
    assert np.abs(got - want).max() <= 1e-9


GRIDS = [(2, 2), (2, 3), (3, 5), (4, 16), (5, 7), (8, 8), (8, 16)]  # K = 4 to 128


# blocks hold max(1024, WARP_BLOCK_ENTRIES // K) locations, the last overlapping its
# predecessor; the examples end mid-block at K = 64, 128 and 4
@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(GRIDS), out_h=st.integers(1, 150), out_w=st.integers(1, 150),
       kind=st.sampled_from(["null", "decoded", "per-location"]), cached=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(shape=(4, 16), out_h=17, out_w=63, kind="decoded", cached=True, seed=0)
@example(shape=(8, 16), out_h=33, out_w=100, kind="per-location", cached=False, seed=1)
@example(shape=(2, 2), out_h=129, out_w=131, kind="null", cached=True, seed=2)
def test_blocked_sampling_grid_matches_one_gemm(sampling_coords_one_gemm, shape, out_h, out_w,
                                                kind, cached, seed):
    rng = np.random.default_rng(seed)
    g = tps.make_grid(*shape)
    g = g.with_offsets(rng.uniform(-0.2, 0.2, g.base.shape))
    m = out_h * out_w
    att = rows = None
    if kind == "decoded":
        att = DecodedAttention(rng.uniform(-0.99, 0.99, (1024, g.k)))
        rows = attention_for_lattice(att, out_h, out_w)
    elif kind == "per-location":
        att = AttentionMatrix(rng.uniform(-0.99, 0.99, (m, g.k)))
    with mock.patch.object(tps, "_PLANS", tps._PlanCache(tps.PLAN_CACHE_BYTES if cached else 0)):
        t = tps.solve_transform(g, lam=rng.uniform(-2.0, 2.0), beta=rng.uniform(-2.0, 2.0))
        got = build_sampling_grid(t, att, out_h, out_w, rows=rows).coords
        assert [key[0] for key in tps._PLANS._arrays] == (["inverse", "lattice", "kernel"]
                                                          if cached else [])
    assert got.tobytes() == sampling_coords_one_gemm(t, att, out_h, out_w, rows).tobytes()
