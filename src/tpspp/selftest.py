"""Built-in invariant suites, runnable via the CLI `selftest` command.

Each suite re-checks one documented contract against an independent
oracle or closed-form expectation. All randomness is seeded, so a pass
or failure is reproducible.
"""

import time

import numpy as np

from . import fileio, network, oracles, synth, tensor
from .errors import TpsError
from .rectify import rectify_map
from .tps import (build_kernel_matrix, interpolation_system, kernel_between, make_grid,
                  output_lattice, solve_transform)
from .warp import SamplingGrid, map_point, warp


class SelfTestFailure(AssertionError):
    pass


def _check(cond, msg):
    if not cond:
        raise SelfTestFailure(msg)


def suite_matmul_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 3))
        got = tensor.matmul(a, b)
        want = np.zeros((7, 3))
        for i in range(7):
            for j in range(3):
                for k in range(5):
                    want[i, j] += a[i, k] * b[k, j]
        _check(np.abs(got - want).max() <= 1e-6, "matmul disagrees with triple loop")
    return "20 random 7x5 * 5x3 vs triple-loop"


def suite_solver_oracle():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        m = rng.standard_normal((10, 10)) + 10.0 * np.eye(10)
        rhs = rng.standard_normal((10, 2))
        x = tensor.solve_linear(m, rhs)
        ref = oracles.gauss_solve_full_pivot(m, rhs)
        worst = max(worst, float(np.abs(x - ref).max()))
    _check(worst <= 1e-8, f"LU vs full-pivot oracle max diff {worst:.3e}")
    # residual bound on full-size interpolation systems
    for seed in range(5):
        g = make_grid(4, 16).with_offsets(
            np.random.default_rng(seed).uniform(-0.1, 0.1, size=(64, 2)))
        m, rhs = interpolation_system(g)
        x = tensor.solve_linear(m, rhs)
        res = np.abs(m @ x - rhs).max()
        bound = 1e-6 * (1.0 + np.abs(rhs).max())
        _check(res <= bound, f"solve residual {res:.3e} above bound {bound:.3e}")
    return f"100 10x10 systems, worst diff {worst:.2e}; residuals on 5 67x67 systems"


def suite_conv_oracle():
    rng = np.random.default_rng(13)
    for _ in range(100):
        c = int(rng.integers(1, 4))
        o = int(rng.integers(1, 4))
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        kh = int(rng.integers(1, min(h, 3) + 1))
        kw = int(rng.integers(1, min(w, 3) + 1))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        x = rng.standard_normal((c, h, w)).astype(np.float32)
        k = rng.standard_normal((o, c, kh, kw)).astype(np.float32)
        b = rng.standard_normal(o).astype(np.float32)
        got = tensor.conv2d(x, k, b, stride=stride, pad=pad)
        want = oracles.conv2d_loops(x, k, b, stride=stride, pad=pad)
        _check(got.shape == want.shape, f"conv shape {got.shape} vs {want.shape}")
        _check(np.abs(got - want).max() <= 1e-6, "conv disagrees with loop oracle")
    return "100 random instances (dims <= 8) vs nested-loop oracle"


def suite_softmax():
    rng = np.random.default_rng(14)
    for _ in range(50):
        x = rng.standard_normal((5, 7)) * 50.0
        s = tensor.softmax(x, axis=1)
        _check(np.abs(s.sum(axis=1) - 1.0).max() <= 1e-6, "softmax rows do not sum to 1")
        _check(np.all(s > 0) and np.all(s <= 1.0), "softmax outside (0,1]")
        _check(np.all(np.isfinite(s)), "softmax non-finite")
    return "50 random matrices: rows sum to 1, entries in (0,1]"


def suite_interpolation():
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(100):
        g = make_grid(4, 16).with_offsets(rng.uniform(-0.1, 0.1, size=(64, 2)))
        t = solve_transform(g)
        zero = np.zeros(64)
        for k in range(64):
            err = np.abs(map_point(g.base[k], t, zero) - g.regressed[k]).max()
            worst = max(worst, float(err))
    _check(worst <= 1e-6, f"interpolation residual {worst:.3e} > 1e-6")
    return f"100 random 4x16 grids, worst base-point residual {worst:.2e}"


def suite_affine_exactness():
    rng = np.random.default_rng(16)
    for _ in range(50):
        g0 = make_grid(4, 16)
        m = np.eye(2) + rng.uniform(-0.2, 0.2, size=(2, 2))
        tvec = rng.uniform(-0.3, 0.3, size=2)
        targets = g0.base @ m.T + tvec
        g = g0.with_offsets(targets - g0.base)
        t = solve_transform(g)
        _check(np.abs(t.t_matrix[:, 3:]).max() <= 1e-6, "kernel weights not ~0 for affine motion")
        pts = rng.uniform(-1, 1, size=(20, 2))
        zero = np.zeros(64)
        for p in pts:
            got = map_point(p, t, zero)
            _check(np.abs(got - (m @ p + tvec)).max() <= 1e-6, "affine map not reproduced")
    return "50 random affine motions reproduced, kernel weights <= 1e-6"


def suite_lambda_zero():
    rng = np.random.default_rng(17)
    worst = 0.0
    for i in range(200):
        rows = int(rng.choice([2, 3, 4]))
        cols = int(rng.choice([4, 8, 16]))
        g = make_grid(rows, cols)
        g = g.with_offsets(rng.uniform(-0.1, 0.1, size=(g.k, 2)))
        t = solve_transform(g, lam=0.0, beta=1.0)
        oracle = oracles.ClassicTps(g.base, g.regressed)
        pts = rng.uniform(-1, 1, size=(100, 2))
        att = rng.uniform(-0.95, 0.95, size=(100, g.k))
        got = np.array([map_point(p, t, att[j]) for j, p in enumerate(pts)])
        ref = oracle.map_many(pts)
        if i == 0:  # spot-check the batch evaluation against its scalar form
            _check(np.abs(ref[0] - oracle(pts[0])).max() <= 1e-12, "oracle batch != scalar")
        worst = max(worst, float(np.abs(got - ref).max()))
    _check(worst <= 1e-9, f"lambda=0 mapping differs from classic TPS by {worst:.3e}")
    return f"200 triples x 100 points, worst diff {worst:.2e}"


def suite_attention_inertness():
    rng = np.random.default_rng(18)
    g = make_grid(4, 16).with_offsets(np.full((64, 2), [0.05, -0.03]))
    t = solve_transform(g)
    pts = rng.uniform(-1, 1, size=(50, 2))
    worst = 0.0
    for p in pts:
        base_val = map_point(p, t, np.zeros(64))
        for _ in range(5):
            v = map_point(p, t, rng.uniform(-0.95, 0.95, size=64))
            worst = max(worst, float(np.abs(v - base_val).max()))
    _check(worst <= 1e-7, f"attention leaks through zero kernel weights: {worst:.3e}")
    return f"translation transform, worst attention-induced deviation {worst:.2e}"


def suite_continuity():
    rng = np.random.default_rng(19)
    eps = 1e-4
    g = make_grid(4, 16).with_offsets(rng.uniform(-0.1, 0.1, size=(64, 2)))
    t0 = solve_transform(g)
    pts = rng.uniform(-1, 1, size=(20, 2))
    zero = np.zeros(64)
    bound = 10.0 * eps * g.k
    for idx in (0, 17, 63):
        off = np.array(g.offsets)
        off[idx, 0] += eps
        t1 = solve_transform(g.with_offsets(off))
        for p in pts:
            delta = np.abs(map_point(p, t1, zero) - map_point(p, t0, zero)).max()
            _check(delta <= bound, f"perturbation response {delta:.3e} exceeds {bound:.3e}")
    return f"offset perturbation {eps:g} moves points < {bound:g}"


def suite_warp():
    rng = np.random.default_rng(20)
    src = rng.uniform(0, 1, size=(1, 5, 7)).astype(np.float32)
    ident = SamplingGrid(5, 7, output_lattice(5, 7))
    _check(np.abs(warp(src, ident) - src).max() <= 1e-6, "identity warp not a passthrough")
    worst = 0.0
    for _ in range(100):
        coords = rng.uniform(-1, 1, size=(12, 2))
        grid = SamplingGrid(3, 4, coords)
        border = "zeros" if rng.integers(2) else "clamp"
        got = warp(src, grid, border=border)
        for i in range(3):
            for j in range(4):
                x = (coords[i * 4 + j, 0] + 1) / 2 * 6
                y = (coords[i * 4 + j, 1] + 1) / 2 * 4
                ref = oracles.bilinear_sample_scalar(src[0], x, y, border=border)
                worst = max(worst, abs(float(got[0, i, j]) - ref))
    _check(worst <= 1e-6, f"warp vs scalar bilinear oracle: {worst:.3e}")
    return f"identity passthrough + 100 random warps, worst diff {worst:.2e}"


def suite_network_shapes():
    w = network.init_weights(0)
    img = synth.make_stripe_image(3)
    pair, grid, att = network.rectification_forward(img, w)
    _check(pair.f_e.shape == (64, 4, 16), f"f_e shape {pair.f_e.shape}")
    _check(pair.f_d.shape == (64, 16, 64), f"f_d shape {pair.f_d.shape}")
    _check(grid.k == 64, f"K = {grid.k}")
    _check(att.scores.shape == (1024, 64), f"attention shape {att.scores.shape}")
    _check(np.abs(att.scores).max() < 1.0, "attention scores not strictly inside (-1,1)")
    pair2, grid2, att2 = network.rectification_forward(img, w)
    _check(np.array_equal(pair.f_d, pair2.f_d) and np.array_equal(att.scores, att2.scores),
           "forward pass not bit-deterministic")
    return "32x128 -> f_e 64x4x16, f_d 64x16x64, A 1024x64 in (-1,1), deterministic"


def suite_parameter_count():
    n = network.rectifier_parameter_count()
    _check(2e5 <= n <= 1e6, f"parameter count {n} outside [2e5, 1e6]")
    return f"rectifier parameters = {n}"


def suite_persistence():
    import os
    import tempfile
    rng = np.random.default_rng(21)
    with tempfile.TemporaryDirectory() as tmp:
        tensors = {f"t{i:02d}": rng.standard_normal(
            tuple(rng.integers(1, 5, size=rng.integers(1, 5)))).astype(np.float32)
            for i in range(20)}
        w = network.WeightStore(tensors)
        p1 = os.path.join(tmp, "a.tpsw")
        p2 = os.path.join(tmp, "b.tpsw")
        fileio.save_weights(w, p1)
        fileio.save_weights(fileio.load_weights(p1), p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            _check(f1.read() == f2.read(), "TPSW roundtrip not bit-identical")
        img = synth.make_stripe_image(1)
        ip1 = os.path.join(tmp, "a.pgm")
        ip2 = os.path.join(tmp, "b.pgm")
        fileio.save_image(img, ip1)
        fileio.save_image(fileio.load_image(ip1), ip2)
        with open(ip1, "rb") as f1, open(ip2, "rb") as f2:
            _check(f1.read() == f2.read(), "PGM roundtrip not bit-identical")
        # malformed inputs must fail with typed errors, never crash
        with open(p1, "rb") as fh:
            blob = fh.read()
        bad = os.path.join(tmp, "bad.tpsw")
        for i in range(1000):
            data = bytearray(blob)
            if i % 2:
                data = data[:int(rng.integers(0, len(blob)))]
            else:
                data[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
            with open(bad, "wb") as fh:
                fh.write(bytes(data))
            try:
                fileio.load_weights(bad)
            except TpsError:
                pass
    return "TPSW + PGM roundtrips bit-identical; 1000 corruptions handled"


def suite_synthetic_rectification():
    img = synth.make_stripe_image(7)
    grid = synth.counter_offsets(make_grid(4, 16))
    out, _ = rectify_map(img, grid, None, 0.5, 1.0, 32, 128, border="clamp")
    before = synth.straightness(img)
    after = synth.straightness(out)
    _check(after <= 0.5 * before,
           f"straightness {after:.3f} not halved from {before:.3f}")
    return f"stripe deviation {before:.2f} -> {after:.2f} px"


def suite_kernel_values():
    u = kernel_between(np.array([[0.0, 0.0], [1.0, 0.0], [np.sqrt(np.e), 0.0]]), np.zeros((1, 2)))
    _check(u[0, 0] == u[1, 0] == 0.0, "U(0) or U(1) != 0")
    _check(abs(u[2, 0] - np.e) <= 1e-12, "U(sqrt(e)) != e")
    s = build_kernel_matrix(make_grid(4, 16))
    _check(np.array_equal(s, s.T) and np.all(np.diag(s) == 0), "kernel matrix asymmetric")
    return "closed-form values and exact symmetry"


SUITES = [
    ("matmul-oracle", suite_matmul_oracle),
    ("solver-oracle", suite_solver_oracle),
    ("conv-oracle", suite_conv_oracle),
    ("softmax", suite_softmax),
    ("kernel-values", suite_kernel_values),
    ("interpolation", suite_interpolation),
    ("affine-exactness", suite_affine_exactness),
    ("lambda-zero-reduction", suite_lambda_zero),
    ("attention-inertness", suite_attention_inertness),
    ("continuity", suite_continuity),
    ("warp", suite_warp),
    ("network-shapes", suite_network_shapes),
    ("parameter-count", suite_parameter_count),
    ("persistence", suite_persistence),
    ("synthetic-rectification", suite_synthetic_rectification),
]


def run_all(out=print):
    """Run every suite; return True iff all pass."""
    all_ok = True
    for name, fn in SUITES:
        start = time.perf_counter()
        try:
            detail = fn()
            ok = True
        except SelfTestFailure as exc:
            detail = str(exc)
            ok = False
        except Exception as exc:  # a crash is a failure, not an abort
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        all_ok &= ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name:<24} {time.perf_counter() - start:6.2f}s  {detail}")
    return all_ok
