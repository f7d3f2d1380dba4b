import math
import warnings

import numpy as np
import pytest

from tpspp import tps
from tpspp.errors import DegenerateGridError, DomainError, InvalidGridError, ValidationError
from tpspp.warp import map_point


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
        with pytest.raises(InvalidGridError):
            tps.make_grid(1, 1)

    @pytest.mark.parametrize("rows, cols", [(1, 2), (1, 7), (3, 1), (2, 3), (4, 16)])
    def test_base_is_output_lattice(self, rows, cols):
        assert np.array_equal(tps.make_grid(rows, cols).base, tps.output_lattice(rows, cols))


class TestKernelU:
    def test_zero(self):
        assert tps.kernel_u(0.0) == 0.0

    def test_one(self):
        assert tps.kernel_u(1.0) == 0.0

    def test_sqrt_e(self):
        assert abs(tps.kernel_u(math.sqrt(math.e)) - math.e) <= 1e-12

    def test_negative(self):
        with pytest.raises(DomainError):
            tps.kernel_u(-0.1)

    def test_array_input(self):
        out = tps.kernel_u(np.array([0.0, 1.0, 2.0]))
        assert out[0] == 0.0 and out[1] == 0.0
        assert abs(out[2] - 4.0 * math.log(4.0)) <= 1e-12


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
                                           (0.5, float("-inf")), (float("-inf"), float("nan"))])
    def test_non_finite_lambda_beta_rejected(self, lam, beta):
        with pytest.raises(ValidationError):
            tps.solve_transform(tps.make_grid(4, 16), lam=lam, beta=beta)

    def test_overflowing_solution_degenerate_without_warnings(self):
        signs = np.random.default_rng(0).choice([-1.0, 1.0], (64, 2))
        grid = tps.make_grid(4, 16).with_offsets(1e308 * signs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the solver's overflow is checked, not reported
            with pytest.raises(DegenerateGridError):
                tps.solve_transform(grid)
