import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpspp import tps
from tpspp.errors import DegenerateGridError, ShapeError, ValidationError
from tpspp.oracles import ClassicTps, bilinear_sample_scalar
from tpspp.rectify import annotate_points, deformation_grid_image, rectify_map
from tpspp.warp import (MAX_KERNEL_ENTRIES, MXK_ARRAYS_AT_PEAK, AttentionMatrix, SamplingGrid,
                        basis_vector, build_sampling_grid, check_lattice, map_point,
                        output_lattice, warp)


def random_transform(seed, rows=4, cols=16, lam=0.5, beta=1.0):
    rng = np.random.default_rng(seed)
    g = tps.make_grid(rows, cols).with_offsets(rng.uniform(-0.1, 0.1, size=(rows * cols, 2)))
    return g, tps.solve_transform(g, lam=lam, beta=beta)


class TestAttentionMatrix:
    def test_bounds_enforced(self):
        with pytest.raises(ValidationError):
            AttentionMatrix(np.array([[0.0, 1.0]]))

    def test_error_names_position(self):
        with pytest.raises(ValidationError, match="row 1, col 2"):
            AttentionMatrix(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.5]]))

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
    def test_identity_any_attention(self):
        t = tps.solve_transform(tps.make_grid(4, 16))
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = rng.uniform(-1, 1, size=2)
            att = rng.uniform(-0.95, 0.95, size=64)
            assert np.abs(map_point(p, t, att) - p).max() <= 1e-6

    def test_translation_any_attention(self):
        g = tps.make_grid(4, 16).with_offsets(np.tile([0.1, -0.05], (64, 1)))
        t = tps.solve_transform(g)
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = rng.uniform(-1, 1, size=2)
            att = rng.uniform(-0.95, 0.95, size=64)
            assert np.abs(map_point(p, t, att) - (p + [0.1, -0.05])).max() <= 1e-6

    def test_lambda_zero_matches_classic_oracle(self):
        g, t = random_transform(6, lam=0.0)
        oracle = ClassicTps(g.base, g.regressed)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, size=(50, 2))
        for p in pts:
            att = rng.uniform(-0.9, 0.9, size=64)
            assert np.abs(map_point(p, t, att) - oracle(p)).max() <= 1e-9


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

    def test_matches_per_point_mapping(self):
        _, t = random_transform(9)
        rng = np.random.default_rng(10)
        att = AttentionMatrix(rng.uniform(-0.9, 0.9, size=(6 * 8, 64)))
        grid = build_sampling_grid(t, att, 6, 8)
        lattice = output_lattice(6, 8)
        for m in range(48):
            ref = map_point(lattice[m], t, att.scores[m])
            assert np.abs(grid.coords[m] - ref).max() <= 1e-9

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

    def test_peak_memory_within_budget_model(self, monkeypatch):
        # the budget assumes MXK_ARRAYS_AT_PEAK float64 M x K arrays alive at once while the
        # lattice plan is built; from the cached plan, the scores and the scaled kernel are
        # two more beside it. The half array of slack covers the lattice and the coordinates.
        monkeypatch.setattr(tps, "_PLANS", tps._PlanCache(tps.PLAN_CACHE_BYTES))
        g = tps.make_grid(4, 16)
        att = AttentionMatrix(np.random.default_rng(20).uniform(-0.9, 0.9, (1024, 64)))
        out_h, out_w = 32, 256
        peaks = []
        for _ in ("cold", "warm"):
            tracemalloc.start()
            try:
                rectify_map(np.zeros((1, 4, 4)), g, att, 0.5, 1.0, out_h, out_w)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        mk = 8 * out_h * out_w * 64
        assert peaks[0] <= (MXK_ARRAYS_AT_PEAK + 0.5) * mk
        assert peaks[1] <= 2.5 * mk


class TestOverlays:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e308, 0.2])  # 0.2: just outside
    def test_points_outside_or_non_finite_skipped(self, bad):
        g = tps.make_grid(2, 2)
        g = g.with_offsets(np.array([[0.0, 0.0], [bad, 0.0], [0.0, bad], [0.0, 0.0]]))
        img = annotate_points(np.zeros((1, 9, 9), np.float32), g)
        want = np.zeros((9, 9), np.float32)
        want[:2, :2] = want[7:, 7:] = 1.0  # corner markers of points 0 and 3 only
        assert np.array_equal(img[0], want)

    @pytest.mark.parametrize("bad", [1e308, -1e308, 5.0, -1.5])
    def test_grid_locations_outside_skipped(self, bad):
        coords = np.array([[-1.0, -1.0], [bad, 0.0], [0.0, bad], [1.0, 1.0]])
        img = deformation_grid_image(SamplingGrid(1, 4, coords), 5, 7, step=1)
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

    def test_scalar_oracle(self):
        rng = np.random.default_rng(13)
        src = rng.uniform(0, 1, size=(1, 5, 7)).astype(np.float32)
        for _ in range(100):
            coords = rng.uniform(-1, 1, size=(8, 2))
            grid = SamplingGrid(2, 4, coords)
            out = warp(src, grid)
            for m in range(8):
                x = (coords[m, 0] + 1) / 2 * 6
                y = (coords[m, 1] + 1) / 2 * 4
                ref = bilinear_sample_scalar(src[0], x, y)
                assert abs(float(out[0, m // 4, m % 4]) - ref) <= 1e-6

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coordinates_unconstructible(self, bad):
        with pytest.raises(DegenerateGridError):
            SamplingGrid(1, 2, np.array([[0.0, 0.0], [0.5, bad]]))

    @pytest.mark.parametrize("shape", [(4, 4), (1, 0, 4), (1, 4, 0)])
    def test_source_shape_checked(self, shape):
        with pytest.raises(ShapeError):
            warp(np.zeros(shape, np.float32), SamplingGrid(1, 1, np.zeros((1, 2))))

    def test_unknown_border(self):
        src = np.zeros((1, 2, 2), dtype=np.float32)
        grid = SamplingGrid(1, 1, np.zeros((1, 2)))
        with pytest.raises(ValidationError):
            warp(src, grid, border="wrap")


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


class TestProperties:
    def test_lambda_zero_equivalence_many(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rows = int(rng.choice([2, 3, 4]))
            cols = int(rng.choice([4, 8, 16]))
            g = tps.make_grid(rows, cols)
            g = g.with_offsets(rng.uniform(-0.1, 0.1, size=(g.k, 2)))
            t = tps.solve_transform(g, lam=0.0)
            oracle = ClassicTps(g.base, g.regressed)
            pts = rng.uniform(-1, 1, size=(20, 2))
            att = rng.uniform(-0.9, 0.9, size=(20, g.k))
            got = np.array([map_point(p, t, att[j]) for j, p in enumerate(pts)])
            assert np.abs(got - oracle.map_many(pts)).max() <= 1e-9

    def test_continuity_under_offset_perturbation(self):
        rng = np.random.default_rng(15)
        eps = 1e-4
        g = tps.make_grid(4, 16).with_offsets(rng.uniform(-0.1, 0.1, size=(64, 2)))
        t0 = tps.solve_transform(g)
        off = np.array(g.offsets)
        off[20, 1] += eps
        t1 = tps.solve_transform(g.with_offsets(off))
        zero = np.zeros(64)
        for p in rng.uniform(-1, 1, size=(30, 2)):
            delta = np.abs(map_point(p, t1, zero) - map_point(p, t0, zero)).max()
            assert delta <= 10.0 * eps * g.k
