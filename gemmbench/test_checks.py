"""Self-test of the benchmark's own correctness checks.

Each check must pass on a right answer and fail on a deliberately
broken one.  Needs only NumPy; run either way::

    python3 gemmbench/test_checks.py
    python3 -m pytest gemmbench/test_checks.py
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace

import numpy as np

from checks import (
    CheckFailed,
    check_output,
    check_schedule,
    check_settled_once,
    check_sim_time,
    expected,
)

M, N, K, TILE = 48, 40, 256, 16


def operands(seed=0, beta=0.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((M, K), dtype=np.float32)
    b = rng.standard_normal((K, N), dtype=np.float32)
    c = rng.standard_normal((M, N), dtype=np.float32)
    return a, b, c, expected(a, b, c, 1.5, beta)


def fails(fn, *args) -> bool:
    try:
        fn(*args)
    except CheckFailed:
        return True
    return False


def fp32_blocked(a, b, c, alpha, beta, kstep=32):
    """An fp32-accumulating engine that walks K in blocks."""
    acc = np.zeros((a.shape[0], b.shape[1]), np.float32)
    for k0 in range(0, a.shape[1], kstep):
        acc += a[:, k0 : k0 + kstep] @ b[k0 : k0 + kstep]
    return (np.float32(alpha) * acc + np.float32(beta) * c).astype(np.float32)


def test_right_answers_pass():
    for beta in (0.0, 0.5):
        a, b, c, exp = operands(beta=beta)
        check_output(exp.ref.copy(), exp, "fp64 result")
        check_output(fp32_blocked(a, b, c, 1.5, beta), exp, "fp32 blocked K walk")
        check_output(fp32_blocked(a, b, c, 1.5, beta, kstep=1), exp, "fp32 serial K walk")


def test_transposed_operands_pass():
    a, b, c, exp = operands()
    exp_t = expected(
        np.ascontiguousarray(a.T), np.ascontiguousarray(b.T), c, 1.5, 0.0,
        trans_a=True, trans_b=True,
    )
    check_output(fp32_blocked(a, b, c, 1.5, 0.0), exp_t, "transposed")


def test_perturbed_output_fails():
    _, _, _, exp = operands()
    out = exp.ref.copy()
    out[3, 5] += 1e-2 * (1.0 + abs(out[3, 5]))
    assert fails(check_output, out, exp, "one element perturbed")


def test_wrong_tile_walk_fails():
    a, b, c, exp = operands()
    good = fp32_blocked(a, b, c, 1.5, 0.0)
    skipped = good.copy()
    skipped[TILE : 2 * TILE, :TILE] = 0.0  # a tile never computed
    assert fails(check_output, skipped, exp, "tile skipped")
    twice = good.copy()
    twice[:TILE, TILE : 2 * TILE] *= 2.0  # a tile accumulated twice
    assert fails(check_output, twice, exp, "tile computed twice")
    short = good.copy()  # one tile missing its last K step of 8
    partial = 1.5 * (a[:TILE, -8:] @ b[-8:, :TILE])
    short[:TILE, :TILE] -= partial
    assert fails(check_output, short, exp, "tile fed a short K slice")


def test_nan_and_shape_fail():
    _, _, _, exp = operands()
    out = exp.ref.copy()
    out[0, 0] = np.nan
    assert fails(check_output, out, exp, "NaN")
    assert fails(check_output, exp.ref[:, :-1], exp, "shape")


def test_settlement():
    check_settled_once([1, 2, 3], [3, 1, 2], "exactly once")
    assert fails(check_settled_once, [1, 2, 3], [1, 2], "unsettled request")
    assert fails(check_settled_once, [1, 2, 3], [1, 2, 3, 2], "settled twice")
    assert fails(check_settled_once, [1, 2], [1, 2, 9], "unknown request")


def test_sim_time():
    check_sim_time(12.5, "positive")
    for bad in (0.0, -1.0, math.inf, math.nan):
        assert fails(check_sim_time, bad, f"{bad}")


def test_schedule_report():
    check_schedule(SimpleNamespace(ok=True, errors=()), "valid")
    assert fails(check_schedule, SimpleNamespace(ok=False, errors=("dup",)), "invalid")


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {name}: {exc!r}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    sys.exit(1 if failed else 0)
