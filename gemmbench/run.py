"""Run the benchmark: one workload, all of them, or a steadiness study.

Usage, from the root of a checkout::

    python3 gemmbench/run.py --blas-threads 1                  # all workloads, one process each
    python3 gemmbench/run.py --blas-threads 1 --workload cnn_warm --seed 1 --seconds 30 --trace 0
    python3 gemmbench/run.py --blas-threads 1 --workload cnn_warm --trace 1   # per-layer run
    python3 gemmbench/run.py --blas-threads 1 --steadiness 10  # median and IQR per metric

Workload names, metric names, units and bounds come from
``BENCHMARK.json`` at the root of the checkout.  The program is
imported from ``src/`` of the same checkout.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it give the
host fingerprint and every metric by name with its unit.  A failed
correctness check makes the run exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
SPANS_DIR = HERE / "out"


def load_spec() -> dict:
    """The benchmark declaration at the root of the checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(spec: dict, argv):
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*names, "all"], default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="length of the timed phase",
    )
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--blas-threads", type=int, default=None,
        help="pin the BLAS thread count (set before NumPy loads)",
    )
    p.add_argument(
        "--steadiness", type=int, default=0, metavar="N",
        help="run each selected workload N times, seeds seed..seed+N-1, "
        "and print each end-to-end metric's median and IQR",
    )
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.blas_threads is not None and not 1 <= args.blas_threads <= 64:
        p.error("--blas-threads must be between 1 and 64")
    return args


def pin_blas(threads: int) -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def require_program() -> Path:
    """The checkout's ``src/``; exits non-zero when the program is not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"gemmbench: no program under {src}; run from a full checkout")
    return src


def import_program():
    """Put the checkout's ``src/`` and this directory on the path."""
    src = require_program()
    sys.path[:0] = [str(src), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"gemmbench: imported repro from {repro.__file__}, not {src}")


# -- host fingerprint -----------------------------------------------------


def blas_threads():
    """The loaded OpenBLAS's thread count, or None when unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "commit": git_commit(ROOT),
    }


# -- one run --------------------------------------------------------------


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(spec: dict, name: str, args) -> tuple[bool, object, dict]:
    """Run one workload; returns (correct, outcome, metrics).

    A failed check counts as one more failed operation, so that
    ``failed`` agrees with ``correct: false``.
    """
    from checks import CheckFailed
    from workloads import WORKLOADS, Outcome, Run

    run = Run(root=ROOT, seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    outcome = Outcome()
    try:
        WORKLOADS[name](run, outcome)
    except CheckFailed as exc:
        print(f"{name}: CHECK FAILED: {exc}", file=sys.stderr, flush=True)
        outcome.failed += 1
        outcome.attempted = max(outcome.attempted, outcome.failed)
        return False, outcome, {}
    if args.trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = set(outcome.layers) - set(declared)
        values = {n: float(outcome.layers.get(n, 0.0)) for n in declared}
        if outcome.spans is not None:
            outcome.spans.write(SPANS_DIR / f"spans-{name}-seed{args.seed}.json")
    else:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        outcome.e2e["peak_rss_mb"] = peak_rss_mb()
        unknown = set(outcome.e2e) ^ set(declared)
        values = {n: float(outcome.e2e.get(n, float("nan"))) for n in declared}
    if unknown:
        raise RuntimeError(f"{name}: metrics out of step with BENCHMARK.json: {sorted(unknown)}")
    metrics = {n: {"value": v, "unit": declared[n]} for n, v in values.items()}
    print(f"{name}: attempted {outcome.attempted}, failed {outcome.failed}", flush=True)
    for n, m in metrics.items():
        print(f"  {n:40s} {m['value']:14.6g} {m['unit']}", flush=True)
    return True, outcome, metrics


def child_run(name: str, seed: int, trace: int, args, echo: bool) -> tuple[int, dict | None]:
    """Run one workload in a child process; returns (exit code, its result).

    Each workload gets a fresh interpreter, so its peak RSS and its heap
    are its own.  With ``echo`` the child's output lines before the
    result are passed through.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.blas_threads is not None:
        cmd += ["--blas-threads", str(args.blas_threads)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
        print(proc.stderr, end="", file=sys.stderr, flush=True)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None and not echo:
        print(proc.stdout[-2000:], proc.stderr[-4000:], sep="\n", file=sys.stderr)
    return proc.returncode, result


def single(spec: dict, args) -> int:
    """Run the selected workload here, or each of ``all`` in its own process."""
    if args.workload != "all":
        import_program()
        print("host " + json.dumps(fingerprint()), flush=True)
        ok, outcome, metrics = run_workload(spec, args.workload, args)
        attempted, failed = outcome.attempted, outcome.failed
    else:
        require_program()
        ok, attempted, failed, metrics = True, 0, 0, {}
        for name in (w["name"] for w in spec["workloads"]):
            code, result = child_run(name, args.seed, args.trace, args, echo=True)
            if result is None:
                print(f"gemmbench: {name} exited {code} without a result", file=sys.stderr)
                return code or 1
            ok &= code == 0 and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}/{n}": v for n, v in result["metrics"].items()})
    print(
        json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}),
        flush=True,
    )
    return 0 if ok else 1


# -- steadiness -----------------------------------------------------------


def steadiness(spec: dict, args) -> int:
    """Run each workload N times in child processes; print median and IQR.

    A metric is steady when its IQR is within a third of its bound, and
    every run must fail the same share of its operations.
    """
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for name in names:
        runs = []
        for seed in range(args.seed, args.seed + args.steadiness):
            code, result = child_run(name, seed, 0, args, echo=False)
            if code != 0 or result is None:
                print(f"{name} seed {seed}: exit {code}", flush=True)
                return 1
            runs.append(result)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{name}: {len(runs)} runs, attempted "
              f"{[r['attempted'] for r in runs]}, failed share {sorted(shares)}", flush=True)
        steady &= len(shares) == 1
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread <= bound / 3
            steady &= ok
            print(f"  {metric:28s} median {med:12.6g}  IQR {q1:.6g}..{q3:.6g}  "
                  f"spread {spread:6.3f}  bound {bound}  {'ok' if ok else 'WIDE'}  "
                  f"values {' '.join(f'{v:.4g}' for v in values)}", flush=True)
    print("steady" if steady else "NOT steady", flush=True)
    return 0 if steady else 1


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(spec, argv)
    if args.blas_threads is not None:
        pin_blas(args.blas_threads)
    if args.steadiness:
        return steadiness(spec, args)
    return single(spec, args)


if __name__ == "__main__":
    sys.exit(main())
