"""Acceptance criteria, one test per criterion, each printing a verdict line."""

import time

import numpy as np
import pytest

from tpspp import fileio, network, oracles, synth, tensor
from tpspp.errors import TpsError
from tpspp.rectify import rectify_map
from tpspp.selftest import run_all
from tpspp.tps import interpolation_system, make_grid, solve_transform
from tpspp.warp import SamplingGrid, map_point, output_lattice, warp


def verdict(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_lambda_zero_reduction():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(200):
        rows = int(rng.choice([2, 3, 4]))
        cols = int(rng.choice([4, 8, 16]))
        g = make_grid(rows, cols)
        g = g.with_offsets(rng.uniform(-0.1, 0.1, size=(g.k, 2)))
        t = solve_transform(g, lam=0.0, beta=1.0)
        oracle = oracles.ClassicTps(g.base, g.regressed)
        pts = rng.uniform(-1, 1, size=(100, 2))
        att = rng.uniform(-0.95, 0.95, size=(100, g.k))
        got = np.array([map_point(p, t, att[j]) for j, p in enumerate(pts)])
        worst = max(worst, float(np.abs(got - oracle.map_many(pts)).max()))
    elapsed = time.perf_counter() - start
    verdict("criterion 1 (lambda=0 reduction)", worst <= 1e-9 and elapsed < 5.0,
            f"max diff {worst:.2e} over 200x100 points in {elapsed:.2f}s")


def test_criterion_2_interpolation_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    zero = np.zeros(64)
    for _ in range(100):
        g = make_grid(4, 16).with_offsets(rng.uniform(-0.1, 0.1, size=(64, 2)))
        t = solve_transform(g)
        for k in range(64):
            err = np.abs(map_point(g.base[k], t, zero) - g.regressed[k]).max()
            worst = max(worst, float(err))
    elapsed = time.perf_counter() - start
    verdict("criterion 2 (interpolation exactness)", worst <= 1e-6 and elapsed < 5.0,
            f"max base-point residual {worst:.2e} in {elapsed:.2f}s")


def test_criterion_3_affine_exactness():
    rng = np.random.default_rng(102)
    worst_w = worst_p = 0.0
    zero = np.zeros(64)
    for _ in range(50):
        g0 = make_grid(4, 16)
        m = np.eye(2) + rng.uniform(-0.25, 0.25, size=(2, 2))
        tv = rng.uniform(-0.3, 0.3, size=2)
        g = g0.with_offsets(g0.base @ m.T + tv - g0.base)
        t = solve_transform(g)
        worst_w = max(worst_w, float(np.abs(t.t_matrix[:, 3:]).max()))
        for p in rng.uniform(-1, 1, size=(20, 2)):
            worst_p = max(worst_p, float(np.abs(map_point(p, t, zero) - (m @ p + tv)).max()))
    verdict("criterion 3 (affine exactness)", worst_w <= 1e-6 and worst_p <= 1e-6,
            f"max kernel weight {worst_w:.2e}, max map error {worst_p:.2e}")


def test_criterion_4_solver_oracle():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        m = rng.standard_normal((10, 10)) + 10.0 * np.eye(10)
        rhs = rng.standard_normal((10, 2))
        worst = max(worst, float(np.abs(
            tensor.solve_linear(m, rhs) - oracles.gauss_solve_full_pivot(m, rhs)).max()))
    ok = worst <= 1e-8
    worst_res = 0.0
    for seed in range(10):
        g = make_grid(4, 16).with_offsets(
            np.random.default_rng(200 + seed).uniform(-0.1, 0.1, size=(64, 2)))
        m, rhs = interpolation_system(g)
        x = tensor.solve_linear(m, rhs)
        res = float(np.abs(m @ x - rhs).max())
        ok &= res <= 1e-6 * (1.0 + float(np.abs(rhs).max()))
        worst_res = max(worst_res, res)
    verdict("criterion 4 (solver oracle)", ok,
            f"max oracle diff {worst:.2e}; max K=64 residual {worst_res:.2e}")


def test_criterion_5_shape_contract():
    w = network.init_weights(0)
    img = synth.make_stripe_image(3)
    pair, grid, att = network.rectification_forward(img, w)
    ok = (pair.f_e.shape == (64, 4, 16) and pair.f_d.shape == (64, 16, 64)
          and grid.k == 64 and att.scores.shape == (1024, 64)
          and float(np.abs(att.scores).max()) < 1.0)
    verdict("criterion 5 (shape contract)", ok,
            f"f_e {pair.f_e.shape}, f_d {pair.f_d.shape}, K={grid.k}, "
            f"A {att.scores.shape}, |A|max {float(np.abs(att.scores).max()):.3g}")


def test_criterion_6_parameter_count():
    n = network.rectifier_parameter_count()
    verdict("criterion 6 (parameter bracket)", 2e5 <= n <= 1e6,
            f"{n} parameters in [2e5, 1e6]")


def test_criterion_7_synthetic_rectification():
    start = time.perf_counter()
    img = synth.make_stripe_image(7)
    grid = synth.counter_offsets(make_grid(4, 16))
    out, _ = rectify_map(img, grid, None, 0.5, 1.0, 32, 128, border="clamp")
    before = synth.straightness(img)
    after = synth.straightness(out)
    img2 = synth.make_stripe_image(7)
    out2, _ = rectify_map(img2, grid, None, 0.5, 1.0, 32, 128, border="clamp")
    elapsed = time.perf_counter() - start
    ok = after <= 0.5 * before and np.array_equal(out, out2) and elapsed < 1.0
    verdict("criterion 7 (synthetic rectification)", ok,
            f"deviation {before:.2f} -> {after:.2f} px, deterministic, {elapsed:.2f}s")


def test_criterion_8_warp_correctness():
    rng = np.random.default_rng(104)
    src = rng.uniform(0, 1, size=(1, 5, 7)).astype(np.float32)
    ident = SamplingGrid(5, 7, output_lattice(5, 7))
    ok = float(np.abs(warp(src, ident) - src).max()) <= 1e-6
    worst = 0.0
    for _ in range(100):
        coords = rng.uniform(-1.2, 1.2, size=(12, 2))
        grid = SamplingGrid(3, 4, coords)
        border = "zeros" if rng.integers(2) else "clamp"
        got = warp(src, grid, border=border)
        for m in range(12):
            x = (coords[m, 0] + 1) / 2 * 6
            y = (coords[m, 1] + 1) / 2 * 4
            ref = oracles.bilinear_sample_scalar(src[0], x, y, border=border)
            worst = max(worst, abs(float(got[0, m // 4, m % 4]) - ref))
    verdict("criterion 8 (warp correctness)", ok and worst <= 1e-6,
            f"identity passthrough; 100 random warps, max diff {worst:.2e}")


def test_criterion_9_persistence(tmp_path):
    rng = np.random.default_rng(105)
    w = network.init_weights(1)
    p1, p2 = tmp_path / "a.tpsw", tmp_path / "b.tpsw"
    fileio.save_weights(w, p1)
    fileio.save_weights(fileio.load_weights(p1), p2)
    ok = p1.read_bytes() == p2.read_bytes()
    img = synth.make_stripe_image(2)
    ip1, ip2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    fileio.save_image(img, ip1)
    fileio.save_image(fileio.load_image(ip1), ip2)
    ok &= ip1.read_bytes() == ip2.read_bytes()
    blob = p1.read_bytes()
    crashes = 0
    bad = tmp_path / "bad.tpsw"
    for i in range(1000):
        data = bytearray(blob)
        if i % 2:
            data = data[:int(rng.integers(0, len(blob)))]
        else:
            data[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
        bad.write_bytes(bytes(data))
        try:
            fileio.load_weights(bad)
        except TpsError:
            pass
        except Exception:
            crashes += 1
    verdict("criterion 9 (persistence)", ok and crashes == 0,
            f"roundtrips bit-identical; {crashes} untyped crashes in 1000 fuzz cases")


def test_criterion_10_selftest_runtime(capsys):
    start = time.perf_counter()
    all_ok = run_all(out=lambda line: None)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print()
    verdict("criterion 10 (selftest under 60s)", all_ok and elapsed < 60.0,
            f"all suites pass in {elapsed:.1f}s")


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
