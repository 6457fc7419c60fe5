"""Correctness checks, independent of the program under test.

Every numeric output is compared with a float64 ``np.matmul`` of the
same operands, ``alpha * op(A) @ op(B) + beta * C``, under the fp32
error bound

    |out - ref| <= (K + 3) * u32 * (|alpha| * |a_i| |b_j| + |beta| * |C_ij|)

elementwise, where ``a_i`` is row i of ``op(A)``, ``b_j`` column j of
``op(B)``, ``|.|`` their 2-norms and ``u32 = 2**-24``.  A length-K dot
product accumulated in fp32 and rounded to fp32 storage is off by at
most ``(K + 1) * u32 * sum_k |a_ik| |b_kj|``, which Cauchy-Schwarz
bounds by ``|a_i| |b_j|``; one more ``u32`` covers storing the
reference itself in fp32.  So any engine that accumulates in fp32 or
wider, in any order, passes.  A wrong tile walk (a tile skipped,
computed twice, or fed the wrong K slice) misses by at least one
partial product, of the order of ``|a_i| |b_j| / sqrt(K)`` for random
operands, and fails for every K below ``u32**(-2/3)``, about 65 000.

Keeping the reference in fp32 and the bound as two norm vectors holds
the checker's memory to one fp32 copy of each output, so the peak RSS
the benchmark reports stays the program's.

A failed check raises :class:`CheckFailed`; the run then reports
``"correct": false`` and exits non-zero.  This module imports only
NumPy, so its self-test runs without the program.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

U32 = 2.0 ** -24


class CheckFailed(AssertionError):
    """An output, schedule, simulated time or settlement was wrong."""


@dataclass(frozen=True)
class Expected:
    """The reference for one GEMM output and what its bound needs."""

    ref: np.ndarray  # fp64 result, stored rounded to fp32
    a_norms: np.ndarray  # 2-norm of each row of op(A)
    b_norms: np.ndarray  # 2-norm of each column of op(B)
    k: int
    alpha: float
    beta: float
    c: Optional[np.ndarray]  # the C operand, referenced, when beta != 0

    def tolerance(self) -> np.ndarray:
        """The elementwise fp32 error bound (see the module docstring)."""
        mag = abs(self.alpha) * np.outer(self.a_norms, self.b_norms)
        if self.beta:
            mag += abs(self.beta) * np.abs(self.c.astype(np.float64))
        return (self.k + 3) * U32 * mag


def expected(a, b, c, alpha: float, beta: float, trans_a=False, trans_b=False) -> Expected:
    """The fp64 reference result of one GEMM and its error bound."""
    a64 = np.asarray(a, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    if trans_a:
        a64 = a64.T
    if trans_b:
        b64 = b64.T
    ref = alpha * np.matmul(a64, b64)
    if beta:
        ref += beta * np.asarray(c, dtype=np.float64)
    return Expected(
        ref=ref.astype(np.float32),
        a_norms=np.linalg.norm(a64, axis=1),
        b_norms=np.linalg.norm(b64, axis=0),
        k=a64.shape[1],
        alpha=alpha,
        beta=beta,
        c=c if beta else None,
    )


def check_output(out, exp: Expected, where: str) -> None:
    """Fail unless ``out`` matches the reference within its bound everywhere."""
    out = np.asarray(out)
    if out.shape != exp.ref.shape:
        raise CheckFailed(f"{where}: output shape {out.shape} != {exp.ref.shape}")
    err = np.abs(out.astype(np.float64) - exp.ref)
    tol = exp.tolerance()
    bad = ~(err <= tol)  # NaN in the output counts as a violation
    if bad.any():
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise CheckFailed(
            f"{where}: {int(bad.sum())} element(s) outside the fp32 bound; first "
            f"at {tuple(int(x) for x in i)}: |{out[i]} - {exp.ref[i]}| > {tol[i]:.3g}"
        )


def check_schedule(report, where: str) -> None:
    """Fail unless a ``validate_schedule`` report lists no error."""
    if not report.ok:
        raise CheckFailed(f"{where}: invalid schedule: {'; '.join(report.errors)}")


def check_sim_time(time_us: float, where: str) -> None:
    """Fail unless a simulated time is finite and positive."""
    if not (math.isfinite(time_us) and time_us > 0.0):
        raise CheckFailed(f"{where}: simulated time {time_us!r} is not finite and > 0")


def check_settled_once(submitted_ids, settled_ids, where: str) -> None:
    """Fail unless every submitted request settled exactly once.

    ``settled_ids`` lists the request id of every settlement the
    program recorded; an id missing from it, seen twice, or never
    submitted fails the check.
    """
    counts = Counter(settled_ids)
    submitted = set(submitted_ids)
    missing = sorted(submitted - set(counts))
    twice = sorted(rid for rid, n in counts.items() if n > 1)
    unknown = sorted(set(counts) - submitted)
    if missing or twice or unknown:
        raise CheckFailed(
            f"{where}: settlement mismatch: {len(missing)} unsettled "
            f"{missing[:5]}, {len(twice)} settled twice {twice[:5]}, "
            f"{len(unknown)} unknown {unknown[:5]}"
        )
