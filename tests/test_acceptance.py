"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criteria 1-9 each run the selftest suite that holds their check, within a time budget where
one is set; criterion 10 runs every suite.
"""

import time

import pytest

from tpspp import selftest


def verdict(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def criterion(number, suite, budget=None):
    """Run one suite; a failure or crash prints its FAIL line and propagates with its traceback."""
    name = f"criterion {number} ({suite})"
    start = time.perf_counter()
    try:
        detail = dict(selftest.SUITES)[suite]()
    except Exception as exc:
        print(f"[FAIL] {name}: {type(exc).__name__}: {exc}")
        raise
    seconds = time.perf_counter() - start
    within = budget is None or seconds < budget
    verdict(name, within, f"{detail} in {seconds:.2f}s" + ("" if within else f", over {budget:g}s"))


# one line per criterion: its selftest suite and, where one is set, its time budget in s
def test_criterion_1_lambda_zero_reduction(): criterion(1, "lambda-zero-reduction", 5.0)
def test_criterion_2_interpolation_exactness(): criterion(2, "interpolation", 5.0)
def test_criterion_3_affine_exactness(): criterion(3, "affine-exactness")
def test_criterion_4_solver_oracle(): criterion(4, "solver-oracle")
def test_criterion_5_shape_contract(): criterion(5, "network-shapes")
def test_criterion_6_parameter_count(): criterion(6, "parameter-count")
def test_criterion_7_synthetic_rectification(): criterion(7, "synthetic-rectification", 1.0)
def test_criterion_8_warp_correctness(): criterion(8, "warp")
def test_criterion_9_persistence(): criterion(9, "persistence")


def test_criterion_10_selftest_runtime(capsys):
    start = time.perf_counter()
    all_ok = selftest.run_all()
    elapsed = time.perf_counter() - start
    count = len(capsys.readouterr().out.splitlines())  # one line per suite, kept off the report
    with capsys.disabled():
        print()
        verdict("criterion 10 (selftest under 60s)", all_ok and elapsed < 60.0,
                f"{count} suites, {'all' if all_ok else 'not all'} passing, in {elapsed:.1f}s")


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
