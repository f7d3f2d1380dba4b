import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpspp import oracles, tensor, tps
from tpspp.errors import DegenerateGridError, ShapeError, ValidationError
from tpspp.rectify import rectify_map
from tpspp.warp import map_point


# a lambda or beta that is not one real number: each raises ValidationError
NON_REAL_LAMBDA_BETA = [("x", 1.0), (None, 1.0), (1j, 1.0), (0.5, "x"), (0.5, None), (0.5, 1j)]


class TestMakeGrid:
    def test_corners_2x2(self):
        g = tps.make_grid(2, 2)
        assert set(map(tuple, g.base)) == {(-1, -1), (1, -1), (-1, 1), (1, 1)}

    def test_degenerate_row(self):
        g = tps.make_grid(1, 3)
        assert np.array_equal(g.base[:, 0], [-1.0, 0.0, 1.0])
        assert np.all(g.base[:, 1] == 0.0)

    def test_default_scheme_point_count(self):
        g = tps.make_grid(4, 16)
        assert g.k == 64
        assert g.base.shape == (64, 2)

    def test_row_major_ordering(self):
        g = tps.make_grid(2, 3)
        # k = i*cols + j, x varies fastest
        assert np.allclose(g.base[0], [-1, -1])
        assert np.allclose(g.base[1], [0, -1])
        assert np.allclose(g.base[3], [-1, 1])

    def test_offsets_start_zero(self):
        assert np.all(tps.make_grid(3, 3).offsets == 0.0)

    def test_too_small(self):
        with pytest.raises(ValidationError):
            tps.make_grid(1, 1)

    @pytest.mark.parametrize("rows, cols", [(4.5, 16), ("4", 16), (None, 16), (4, 16.0)])
    def test_non_integer_extents_rejected(self, rows, cols):
        with pytest.raises(ValidationError):
            tps.make_grid(rows, cols)

    def test_control_points_bounded_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="1000000 points"):
                tps.make_grid(1000, 1000)  # a 32 MB lattice and offsets
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_offsets_rejected(self, bad):
        offsets = np.zeros((4, 2))
        offsets[2, 1] = bad
        with pytest.raises(ValidationError):
            tps.make_grid(2, 2).with_offsets(offsets)

    @pytest.mark.parametrize("offsets", [np.full((4, 2), "0.1"), np.full((4, 2), 0.1 + 0.1j),
                                         np.zeros((4, 2), bool)], ids=["str", "complex", "bool"])
    def test_non_real_offsets_rejected(self, offsets):
        with pytest.raises(ValidationError):
            tps.make_grid(2, 2).with_offsets(offsets)

    @pytest.mark.parametrize("rows, cols", [(1, 2), (1, 7), (3, 1), (2, 3), (4, 16)])
    def test_base_is_output_lattice(self, rows, cols):
        assert np.array_equal(tps.make_grid(rows, cols).base, tps.output_lattice(rows, cols))


class TestKernelU:
    """Closed-form values of U(r) = r^2 ln r^2 through kernel_between."""

    @staticmethod
    def u(r):
        return tps.kernel_between(np.array([[r, 0.0]]), np.zeros((1, 2)))[0, 0]

    def test_zero(self):
        assert self.u(0.0) == 0.0

    def test_one(self):
        assert self.u(1.0) == 0.0

    def test_sqrt_e(self):
        assert abs(self.u(math.sqrt(math.e)) - math.e) <= 1e-12

    def test_array_input(self):
        out = tps.kernel_between(np.array([[0.0, 0.0], [0.0, -1.0], [2.0, 0.0]]), np.zeros((1, 2)))
        assert out[0, 0] == 0.0 and out[1, 0] == 0.0
        assert abs(out[2, 0] - 4.0 * math.log(4.0)) <= 1e-12


@st.composite
def kernel_cases(draw):
    """Points and centers at one scale in [1e-3, 1e3]; some points sit on a center, some
    within a millionth of the scale of one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    centers = rng.uniform(-scale, scale, (draw(st.integers(1, 12)), 2))
    points = rng.uniform(-scale, scale, (draw(st.integers(1, 12)), 2))
    near = rng.integers(0, len(centers), len(points))
    on_center = rng.random(len(points)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    points[on_center] = centers[near[on_center]]
    close = rng.random(len(points)) < 0.3
    points[close] = centers[near[close]] + rng.uniform(-1e-6, 1e-6, (close.sum(), 2)) * scale
    return points, centers


@settings(max_examples=200, deadline=2000)
@given(case=kernel_cases())
def test_kernel_between_matches_kernel_u(case):
    points, centers = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tps.kernel_between(points, centers)
    d = points[:, None, :] - centers[None, :, :]
    r2 = (d * d).sum(axis=2)
    want = oracles.kernel_u(np.sqrt(r2))
    # U crosses 0 at r = 1, so the bound follows the terms of r2 * ln(r2), not |U|
    bound = 1e-14 * r2 * (1.0 + np.abs(np.log(np.where(r2 > 0, r2, 1.0))))
    assert got.shape == (len(points), len(centers))
    assert np.all(np.abs(got - want) <= bound)
    assert np.all(got[r2 == 0] == 0.0)


class TestKernelMatrix:
    def test_zero_diagonal(self):
        s = tps.build_kernel_matrix(tps.make_grid(3, 5))
        assert np.all(np.diag(s) == 0.0)

    def test_unit_distance_entries(self):
        g = tps.make_grid(1, 2)  # points at (-1,0), (1,0), distance 2
        s = tps.build_kernel_matrix(g)
        assert abs(s[0, 1] - 4.0 * math.log(4.0)) <= 1e-12

    def test_diagonal_pair_2x2(self):
        s = tps.build_kernel_matrix(tps.make_grid(2, 2))
        # opposite corners at distance 2*sqrt(2): U = 8 ln 8
        assert abs(s[0, 3] - 8.0 * math.log(8.0)) <= 1e-10

    def test_exact_symmetry(self):
        s = tps.build_kernel_matrix(tps.make_grid(4, 16))
        assert np.array_equal(s, s.T)


class TestSolveTransform:
    def test_control_points_bounded_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="22500 points"):
                tps.solve_transform(tps.make_grid(150, 150))  # K = 22500: a 3.77 GiB system
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ValidationError):
            tps.interpolation_system(tps.make_grid(1, tps.MAX_CONTROL_POINTS + 1))
        m, _ = tps.interpolation_system(tps.make_grid(32, 32))  # the bound itself is admitted
        assert tps.MAX_CONTROL_POINTS == 1024 and m.shape == (1027, 1027)

    def test_built_grid_bounded_before_allocation(self):
        offsets = np.zeros((22500, 2))  # of a grid make_grid would not build
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="22500 points"):
                tps.ControlPointGrid(150, 150, offsets)  # before the offsets are converted
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("rows, cols, offsets", [(4, 16, (3, 2)), (2, 2, (3, 2)),
                                                     (2, 2, (4, 3)), (2, 2, (8,))])
    def test_built_grid_of_wrong_shape_rejected(self, rows, cols, offsets):
        with pytest.raises(ShapeError, match="shape"):
            tps.ControlPointGrid(rows, cols, np.zeros(offsets))
        with pytest.raises(ShapeError, match="shape"):
            tps.make_grid(rows, cols).with_offsets(np.zeros(offsets))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float32])
    def test_built_grid_of_any_real_dtype_solves(self, dtype):
        # the base is the float64 lattice whatever the offsets' dtype, so zeros are the identity
        t = tps.solve_transform(tps.ControlPointGrid(2, 2, np.zeros((4, 2), dtype)))
        np.testing.assert_allclose(t.t_matrix[:, :3], [[0, 1, 0], [0, 0, 1]], atol=1e-12)
        assert np.abs(t.t_matrix[:, 3:]).max() <= 1e-12

    def test_base_is_derived_and_shared(self):
        g = tps.ControlPointGrid(np.int64(4), 16, np.zeros((64, 2)))
        assert type(g.rows) is int and not g.base.flags.writeable
        assert g.with_offsets(np.ones((64, 2))).base is g.base
        np.testing.assert_array_equal(g.base, tps.output_lattice(4, 16))
        with pytest.raises(TypeError):
            tps.ControlPointGrid(4, 16, g.base, np.zeros((64, 2)))  # a base is never supplied

    def test_identity(self):
        t = tps.solve_transform(tps.make_grid(4, 16))
        assert np.abs(t.t_matrix[:, 0]).max() <= 1e-9
        assert np.abs(t.t_matrix[:, 1:3] - np.eye(2)).max() <= 1e-9
        assert np.abs(t.t_matrix[:, 3:]).max() <= 1e-9

    def test_pure_translation(self):
        g = tps.make_grid(4, 16)
        g = g.with_offsets(np.tile([0.1, 0.2], (64, 1)))
        t = tps.solve_transform(g)
        assert np.abs(t.t_matrix[:, 0] - [0.1, 0.2]).max() <= 1e-7
        assert np.abs(t.t_matrix[:, 1:3] - np.eye(2)).max() <= 1e-7
        assert np.abs(t.t_matrix[:, 3:]).max() <= 1e-7

    def test_interpolation_residual(self):
        rng = np.random.default_rng(8)
        g = tps.make_grid(4, 16).with_offsets(rng.uniform(-0.1, 0.1, size=(64, 2)))
        t = tps.solve_transform(g)
        zero = np.zeros(64)
        for k in range(64):
            assert np.abs(map_point(g.base[k], t, zero) - g.regressed[k]).max() <= 1e-6

    def test_side_conditions(self):
        rng = np.random.default_rng(9)
        g = tps.make_grid(4, 16).with_offsets(rng.uniform(-0.1, 0.1, size=(64, 2)))
        t = tps.solve_transform(g)
        w = t.t_matrix[:, 3:]
        for cond in (np.ones(64), g.base[:, 0], g.base[:, 1]):
            assert np.abs(w @ cond).max() <= 1e-6

    def test_affine_exactness(self):
        rng = np.random.default_rng(10)
        g0 = tps.make_grid(4, 16)
        m = np.array([[1.1, 0.05], [-0.02, 0.9]])
        tv = np.array([0.07, -0.12])
        g = g0.with_offsets(g0.base @ m.T + tv - g0.base)
        t = tps.solve_transform(g)
        assert np.abs(t.t_matrix[:, 3:]).max() <= 1e-6
        for p in rng.uniform(-1, 1, size=(10, 2)):
            assert np.abs(map_point(p, t, np.zeros(64)) - (m @ p + tv)).max() <= 1e-6

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateGridError):
            tps.solve_transform(tps.make_grid(1, 4))

    def test_deterministic(self):
        g = tps.make_grid(4, 16).with_offsets(
            np.random.default_rng(11).uniform(-0.1, 0.1, size=(64, 2)))
        t1 = tps.solve_transform(g)
        t2 = tps.solve_transform(g)
        assert np.array_equal(t1.t_matrix, t2.t_matrix)

    def test_finite_entries(self):
        g = tps.make_grid(2, 2).with_offsets(np.full((4, 2), 0.3))
        assert np.all(np.isfinite(tps.solve_transform(g).t_matrix))

    def test_defaults(self):
        t = tps.solve_transform(tps.make_grid(4, 16))
        assert t.lam == 0.5 and t.beta == 1.0

    @pytest.mark.parametrize("lam, beta", [(float("nan"), 1.0), (0.5, float("inf")),
                                           (0.5, float("-inf")), (float("-inf"), float("nan")),
                                           *NON_REAL_LAMBDA_BETA])
    def test_non_finite_lambda_beta_rejected(self, lam, beta):
        with pytest.raises(ValidationError):
            tps.solve_transform(tps.make_grid(4, 16), lam=lam, beta=beta)

    @pytest.mark.parametrize("lam, beta", NON_REAL_LAMBDA_BETA)
    def test_non_real_lambda_beta_rejected_by_rectify_map(self, lam, beta):
        with pytest.raises(ValidationError):
            rectify_map(np.ones((1, 4, 4)), tps.make_grid(2, 2), None, lam, beta, 6, 8)

    def test_overflowing_solution_degenerate_without_warnings(self):
        signs = np.random.default_rng(0).choice([-1.0, 1.0], (64, 2))
        grid = tps.make_grid(4, 16).with_offsets(1e308 * signs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the solver's overflow is checked, not reported
            with pytest.raises(DegenerateGridError):
                tps.solve_transform(grid)

    @pytest.mark.parametrize("rows, cols", [(2, 2), (3, 5), (4, 16), (8, 8)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_uniform_huge_offsets_finite(self, rows, cols, sign):
        # a translation by 1e308 is finite; its product with the system inverse must not overflow
        grid = tps.make_grid(rows, cols)
        grid = grid.with_offsets(np.full(grid.base.shape, sign * 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = tps.solve_transform(grid)
        assert np.all(np.isfinite(t.t_matrix))
        assert np.allclose(t.t_matrix[:, 0], sign * 1e308, rtol=1e-9, atol=0.0)


@st.composite
def regressed_grids(draw):
    """A 2x2, 3x5, 4x16 or 8x8 grid with seeded offsets."""
    rows, cols = draw(st.sampled_from([(2, 2), (3, 5), (4, 16), (8, 8)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = tps.make_grid(rows, cols)
    amplitude = draw(st.sampled_from([0.0, 0.1, 1.0]))
    return grid.with_offsets(rng.uniform(-amplitude, amplitude, grid.base.shape))


@settings(max_examples=100, deadline=2000)
@given(grid=regressed_grids())
def test_plan_solve_matches_lu_solve(grid):
    want = tensor.solve_linear(*tps.interpolation_system(grid))
    assert np.abs(tps.solve_transform(grid).t_matrix.T - want).max() <= 1e-10


class TestLatticePlan:
    @pytest.fixture
    def plans(self, monkeypatch):
        cache = tps._PlanCache(tps.PLAN_CACHE_BYTES)
        monkeypatch.setattr(tps, "_PLANS", cache)
        return cache

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        real = tensor.solve_linear
        monkeypatch.setattr(tensor, "solve_linear", lambda *args: calls.append(1) or real(*args))
        return calls

    @staticmethod
    def retained(cache):
        return sum(arr.nbytes for arr in cache._arrays.values())

    def test_repeated_lattice_reuses_read_only_plan(self, plans, solves):
        g = tps.make_grid(4, 16)
        inv, u = tps.system_inverse(g), tps.lattice_kernel(g.base, 16, 64)
        assert inv.shape == (67, 64) and u.shape == (1024, 64)
        assert not inv.flags.writeable and not u.flags.writeable
        rng = np.random.default_rng(0)
        for _ in range(3):
            regressed = g.with_offsets(rng.uniform(-0.1, 0.1, (64, 2)))
            assert tps.system_inverse(regressed) is inv
            tps.solve_transform(regressed)
            assert tps.lattice_kernel(regressed.base.copy(), 16, 64) is u
        assert len(solves) == 1
        lattice = tps.output_lattice(16, 64)
        assert {(key[0],) + key[-2:] for key in plans._arrays} == {
            ("lattice", 4, 16), ("inverse", 4, 16), ("lattice", 16, 64), ("kernel", 16, 64)}
        assert plans.nbytes == self.retained(plans) == (g.base.nbytes + inv.nbytes
                                                        + lattice.nbytes + u.nbytes)

    def test_warm_request_builds_no_lattice(self, plans):
        g = tps.make_grid(4, 16)
        assert g.base is tps.output_lattice(4, 16) is tps.make_grid(4, 16).base
        lattice = tps.output_lattice(16, 64)
        assert lattice is tps.output_lattice(16, 64) and not lattice.flags.writeable
        rectify_map(np.zeros((1, 4, 4)), g, None, 0.5, 1.0, 16, 64)
        assert tps.output_lattice(16, 64) is lattice

    @pytest.mark.parametrize("rows, cols", [(-1, 3), (0, 3), (3, 0), (2.5, 3), ("2", 3),
                                            (None, 3)])
    def test_bad_extents_rejected_before_the_cache(self, plans, rows, cols):
        with pytest.raises(ValidationError):
            tps.output_lattice(rows, cols)
        assert not plans._arrays and plans.nbytes == 0

    def test_lattice_over_keep_rule_leaves_cache_unchanged(self, monkeypatch):
        # a budget that keeps a 63-point lattice beside the largest base lattice and inverse,
        # and no 64-point one
        k = tps.MAX_CONTROL_POINTS
        cache = tps._PlanCache(8 * (k + 5) * k + 16 * 63)
        monkeypatch.setattr(tps, "_PLANS", cache)
        kept = tps.output_lattice(7, 9)
        keys, nbytes = list(cache._arrays), cache.nbytes
        assert keys == [("lattice", 7, 9)] and nbytes == kept.nbytes
        lattice = tps.output_lattice(8, 8)
        assert not lattice.flags.writeable and lattice is not tps.output_lattice(8, 8)
        np.testing.assert_array_equal(lattice, tps.make_grid(8, 8).base)
        assert list(cache._arrays) == keys and cache.nbytes == nbytes

    def test_retained_bytes_within_budget(self, monkeypatch):
        budget = 3 * 8 * 64 * 64  # three 8x8 lattices with K = 64
        cache = tps._PlanCache(budget)
        monkeypatch.setattr(tps, "_PLANS", cache)
        g = tps.make_grid(4, 16)
        for out_h, out_w in [(8, 8), (4, 16), (16, 4), (8, 8), (2, 32), (4, 16), (1, 64)]:
            u = tps.lattice_kernel(g.base, out_h, out_w)
            assert tps.lattice_kernel(g.base, out_h, out_w) is u  # the newest plan stays
            assert cache.nbytes == self.retained(cache) <= budget
        # least recently used out first: (1, 64), (4, 16) and (2, 32) remain
        assert [key[2:] for key in cache._arrays] == [(2, 32), (4, 16), (1, 64)]

    def test_over_budget_kernel_not_built(self, monkeypatch):
        # an 8x8 kernel beside its 67x64 inverse and two 64-point lattices; too small to keep
        # any lattice
        cache = tps._PlanCache(8 * (64 + 69) * 64 + 16 * 64)
        monkeypatch.setattr(tps, "_PLANS", cache)
        g = tps.make_grid(4, 16)
        small = tps.lattice_kernel(g.base, 8, 8)
        builds = []
        monkeypatch.setattr(tps, "kernel_between", lambda *args: builds.append(1))
        assert tps.lattice_kernel(g.base, 8, 9) is None
        assert tps.lattice_kernel(g.base, 16, 16) is None
        assert builds == []
        assert tps.lattice_kernel(g.base, 8, 8) is small
        assert list(cache._arrays) == [("kernel", g.base.tobytes(), 8, 8)]
        assert cache.nbytes == small.nbytes

    def test_inverse_at_max_control_points_fits(self):
        k = tps.MAX_CONTROL_POINTS
        assert 8 * (k + 3) * k <= tps.PLAN_CACHE_BYTES

    def test_singular_lattice_raises_every_call(self, plans, solves):
        for n in range(1, 4):
            with pytest.raises(DegenerateGridError):
                tps.solve_transform(tps.make_grid(1, 4))
            assert len(solves) == n  # a failure is not cached
        assert list(plans._arrays) == [("lattice", 1, 4)] and plans.nbytes == 4 * 2 * 8

    def test_concurrent_lookups_keep_the_count(self, monkeypatch):
        # room for the largest base lattice and inverse, which no lookup here keeps, and one
        # 4096-location kernel with K = 64 beside its lattices: the kernels and lattices of
        # four of the eight extents fit at once, and a kernel's build looks its lattice up
        k = tps.MAX_CONTROL_POINTS
        cache = tps._PlanCache(8 * (k + 5) * k + 8 * (4096 + 69) * 64 + 16 * 4096)
        monkeypatch.setattr(tps, "_PLANS", cache)
        g = tps.make_grid(4, 16)
        lattices = [(64, 64), (32, 128), (128, 32), (16, 256), (256, 16), (8, 512), (512, 8),
                    (4, 1024)]
        errors = []

        def lookups(offset):
            try:
                for i in range(40):
                    out_h, out_w = lattices[(i + offset) % len(lattices)]
                    assert tps.output_lattice(out_h, out_w).shape == (out_h * out_w, 2)
                    assert tps.lattice_kernel(g.base, out_h, out_w).shape == (out_h * out_w, 64)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lookups, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.nbytes == self.retained(cache) <= cache.budget
