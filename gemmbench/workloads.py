"""The benchmark's three pinned workloads, driven through the public API.

Each workload builds its inputs from the seed (untimed), sets the
program up ``SETUP_REPEATS`` times (the median is ``setup_s``), runs a
timed phase of ``seconds`` and checks every output outside the timed
region.  With tracing on, ``fig11_cold`` and ``cnn_warm`` time each
operation twice, without and with spans, so the ratio of the two is
the tracing overhead, and the per-layer figures come from the traced
pass; ``serve_open`` records nothing inside its timed path and takes
its per-layer figures from its one phase.

* ``fig11_cold`` -- planning-bound: distinct Figure-11 random batches,
  each planned cold, priced against MAGMA vbatch and executed once.
* ``cnn_warm`` -- execution-bound: the 21 CNN fan cases, planned into a
  ``PlanCache`` at set-up and executed repeatedly through it.
* ``serve_open`` -- a live ``GemmServer`` under an open-loop stream of
  fp32 requests at a fixed rate below its knee.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from itertools import count, product
from pathlib import Path

import numpy as np

from repro import (
    CoordinatedFramework,
    Gemm,
    GemmBatch,
    Heuristic,
    PlanCache,
    batch_tiles,
    get_device,
    select_tiling,
    simulate_magma_vbatch,
)
from repro.core.schedule import enumerate_tiles
from repro.core.validation import validate_schedule
from repro.kernels import ExecutionPolicy, get_engine
from repro.serve import GemmServer, ServeConfig
from repro.serve.loadgen import DEFAULT_SHAPE_POOL
from repro.workloads.io import load_workload
from repro.workloads.synthetic import random_cases

from checks import (
    CheckFailed,
    check_output,
    check_schedule,
    check_settled_once,
    check_sim_time,
    expected,
)
from spans import Spans, geomean, pct, shape_p50_geomean

DEVICE = "v100"
SETUP_REPEATS = 5
#: Batches drawn from the Figure-11 generator at a time.
FIG11_CHUNK = 500
#: Seed of fig11_cold's warm-up batch, fixed so set-up does not vary with --seed.
FIG11_WARMUP_SEED = 0
CNN_CASES = Path("data") / "cnn_fan_gemms.json"
#: Offered load of serve_open (requests/s), about an eighth of the knee
#: measured for the default ServeConfig; README.md says why it sits that low.
SERVE_RATE_RPS = 25.0
#: Distinct operand sets per pool shape in serve_open.
SERVE_VARIANTS = 3
RESULT_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    spans: Spans | None = None


@dataclass
class Run:
    """The command-line settings one workload runs under."""

    root: Path
    seed: int
    seconds: float
    trace: bool


def gemm_flop(gemms) -> int:
    """Useful FLOP of a list of GEMMs, 2*m*n*k each."""
    return sum(2 * g.m * g.n * g.k for g in gemms)


def gemm_bytes(gemms) -> int:
    """Computed fp32 bytes moved: A and B read, C read and written."""
    return sum(4 * (g.m * g.k + g.k * g.n + 2 * g.m * g.n) for g in gemms)


def make_operands(rng, batch):
    """Seeded fp32 (A, B, C) triples shaped for each GEMM's transposes."""
    ops = []
    for g in batch:
        a_shape = (g.k, g.m) if g.trans_a else (g.m, g.k)
        b_shape = (g.n, g.k) if g.trans_b else (g.k, g.n)
        ops.append(
            (
                rng.standard_normal(a_shape, dtype=np.float32),
                rng.standard_normal(b_shape, dtype=np.float32),
                rng.standard_normal((g.m, g.n), dtype=np.float32),
            )
        )
    return ops


def references(batch, ops):
    """Per-GEMM :class:`checks.Expected` references."""
    return [
        expected(a, b, c, g.alpha, g.beta, g.trans_a, g.trans_b)
        for g, (a, b, c) in zip(batch, ops)
    ]


def floor_seconds(batch, ops) -> float:
    """Time of the unchunked fp64 ``np.matmul`` of each GEMM's operands.

    The floor the execution engines are judged against on this host;
    operand widening and transposition are done before the clock starts.
    """
    total = 0.0
    for g, (a, b, _) in zip(batch, ops):
        a64 = np.asarray(a.T if g.trans_a else a, dtype=np.float64)
        b64 = np.asarray(b.T if g.trans_b else b, dtype=np.float64)
        t0 = time.perf_counter()
        np.matmul(a64, b64)
        total += time.perf_counter() - t0
    return total


def check_outputs(outputs, refs, where: str) -> None:
    """Fail unless every output of a batch is within its bound."""
    if len(outputs) != len(refs):
        raise CheckFailed(f"{where}: {len(outputs)} outputs for {len(refs)} GEMMs")
    for i, (out, exp) in enumerate(zip(outputs, refs)):
        check_output(out, exp, f"{where} gemm {i}")


def new_framework() -> CoordinatedFramework:
    """The framework every workload plans with: V100, default options."""
    return CoordinatedFramework(device=get_device(DEVICE))


def check_priced(report, batch, ours: float, magma: float, where: str) -> None:
    """Fail unless the plan validates and both simulated times are sane."""
    check_schedule(validate_schedule(report.schedule, batch), where)
    check_sim_time(ours, f"{where} coordinated")
    check_sim_time(magma, f"{where} magma")


def price(fw, report, batch, spans: Spans, op_id: int, where: str) -> float:
    """Price a plan against MAGMA vbatch, check it; return the speedup."""
    with spans.span("gpu.simulator.simulate", op_id):
        ours = fw.simulate_plan(report).time_us
    with spans.span("baselines.magma_vbatch.simulate", op_id):
        magma = simulate_magma_vbatch(batch, fw.device).time_us
    check_priced(report, batch, ours, magma, where)
    return magma / ours


def probe_planning_layers(fw, report, batch, spans: Spans, op_id: int) -> None:
    """Time the tiling and batching engines on a planned batch.

    These calls repeat work ``plan`` already did, outside the timed
    operation, so their cost lands in no end-to-end figure.  Batching
    covers tile enumeration plus both heuristics the default ``best``
    plan tries.
    """
    opts = report.options
    with spans.span("core.tiling.select", op_id):
        decision = select_tiling(
            batch,
            tlp_threshold=opts.tlp_threshold,
            backend=fw.backend,
            precision=opts.precision,
        )
    with spans.span("core.batching.batch", op_id):
        tiles = enumerate_tiles(batch, decision)
        for heuristic in (Heuristic.THRESHOLD, Heuristic.BINARY):
            batch_tiles(
                tiles,
                threads_per_block=decision.threads,
                heuristic=heuristic.value,
                theta=opts.theta,
                tlp_threshold=opts.tlp_threshold,
            )


def timing_summary(out: Outcome, latencies_s, shapes, flop: int, trace: bool) -> None:
    """The timing metrics of a timed phase's untraced operations.

    ``shapes[i]`` names the shape (batch or request shape) of operation
    ``i``.  The gated latency is each shape's median latency, averaged
    geometrically over the shapes; the plain ``latency_ms.p50`` and
    ``latency_ms.p95`` over all operations are per-layer figures,
    printed by traced runs but not gated: README.md says why.
    """
    ms = [x * 1e3 for x in latencies_s]
    if trace:
        out.layers["latency_ms.p50"] = pct(ms, 50)
        out.layers["latency_ms.p95"] = pct(ms, 95)
        return
    out.e2e["gflops"] = flop / sum(latencies_s) / 1e9
    out.e2e["latency_ms.shape_p50_geomean"] = shape_p50_geomean(ms, shapes)


def kernel_layers(out: Outcome, spans: Spans, per_op, exec_flop, floor_flop, floor_s) -> None:
    """Kernel-layer figures from the traced pass.

    ``per_op`` lists ``(flop, bytes)`` per operation; ``exec_flop`` is
    the FLOP behind every ``kernels.execute`` span, ``floor_flop`` the
    FLOP the fp64 ``np.matmul`` floor computed in ``floor_s``.
    """
    exec_ms = spans.durations_ms("kernels.execute")
    out.layers["kernels.execute_ms.p50"] = pct(exec_ms, 50)
    out.layers["kernels.cold_execute_ms.p50"] = pct(
        spans.durations_ms("kernels.cold_execute"), 50
    )
    out.layers["kernels.flop"] = statistics.fmean(f for f, _ in per_op)
    out.layers["kernels.bytes_computed"] = statistics.fmean(b for _, b in per_op)
    gflops = exec_flop / sum(exec_ms) / 1e6
    floor = floor_flop / floor_s / 1e9
    out.layers["kernels.gflops"] = gflops
    out.layers["kernels.floor_gflops"] = floor
    out.layers["kernels.floor_ratio"] = gflops / floor


def planning_layers(out: Outcome, spans: Spans, blocks) -> None:
    """Planning-layer figures from the traced pass."""
    for metric, span in (
        ("core.framework.plan_ms.p50", "core.framework.plan"),
        ("core.tiling.select_ms.p50", "core.tiling.select"),
        ("core.batching.batch_ms.p50", "core.batching.batch"),
        ("gpu.simulator.simulate_ms.p50", "gpu.simulator.simulate"),
        ("baselines.magma_vbatch.simulate_ms.p50", "baselines.magma_vbatch.simulate"),
    ):
        out.layers[metric] = pct(spans.durations_ms(span), 50)
    out.layers["core.schedule.blocks"] = statistics.fmean(blocks) if blocks else 0.0


# -- fig11_cold ---------------------------------------------------------


def fig11_batches(seed: int):
    """Yield the seed's distinct Figure-11 random batches, one at a time.

    Batches are drawn from the generator in seeded chunks, as the run
    needs them; a batch whose shapes repeat an earlier one is skipped,
    so no plan could ever be reused.
    """
    seen = set()
    for chunk in count():
        chunk_seed = int(np.random.SeedSequence([seed, chunk]).generate_state(1)[0])
        for batch in random_cases(n_cases=FIG11_CHUNK, seed=chunk_seed):
            sig = tuple(g.shape for g in batch)
            if sig not in seen:
                seen.add(sig)
                yield batch


def fig11_op(fw, engine, batch, ops, spans: Spans, op_id: int):
    """One cold batch: plan, price against MAGMA, execute once."""
    with spans.span("core.framework.plan", op_id):
        report = fw.plan(batch)
    with spans.span("gpu.simulator.simulate", op_id):
        sim = fw.simulate_plan(report)
    with spans.span("baselines.magma_vbatch.simulate", op_id):
        magma = simulate_magma_vbatch(batch, fw.device)
    with spans.span("kernels.cold_execute", op_id):
        outputs = engine(report.schedule, batch, ops)
    return report, sim.time_us, magma.time_us, outputs


def paired(trace: bool, index: int, plain: Spans, traced: Spans):
    """The recorders one operation runs under, in the order it runs them.

    Untraced runs time each operation once.  Traced runs time it twice,
    without and with spans, alternating which goes first, so warm-up
    effects cancel out of ``trace.overhead_ratio``.
    """
    if not trace:
        return (plain,)
    return (plain, traced) if index % 2 == 0 else (traced, plain)


def run_fig11_cold(run: Run, out: Outcome) -> Outcome:
    batches = fig11_batches(run.seed)
    warm_batch = random_cases(n_cases=1, seed=FIG11_WARMUP_SEED)[0]
    warm_ops = make_operands(np.random.default_rng(FIG11_WARMUP_SEED), warm_batch)
    warm_refs = references(warm_batch, warm_ops)
    off, spans = Spans(False), Spans(True)

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fw = new_framework()
        engine = get_engine(ExecutionPolicy().engine)
        _, _, _, outputs = fig11_op(fw, engine, warm_batch, warm_ops, off, -1)
        setups.append(time.perf_counter() - t0)
        check_outputs(outputs, warm_refs, "fig11_cold warm-up")
    out.e2e["setup_s"] = statistics.median(setups)

    times = {off: [], spans: []}
    speedups, flop, per_op, blocks, floor_s = [], 0, [], [], 0.0
    done = []  # the batch of each untraced time; every batch is a shape of its own
    i = 0
    while sum(times[off]) + sum(times[spans]) < run.seconds:
        batch = next(batches)
        ops = make_operands(np.random.default_rng((run.seed, i)), batch)
        where = f"fig11_cold seed {run.seed} batch {i}"
        for rec in paired(run.trace, i, off, spans):
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                with rec.span("fig11_cold.batch", i):
                    report, ours, magma, outputs = fig11_op(fw, engine, batch, ops, rec, i)
            except Exception as exc:  # counted, reported, and the run goes on
                out.failed += 1
                print(f"{where}: {type(exc).__name__}: {exc}", flush=True)
                continue
            times[rec].append(time.perf_counter() - t0)
            check_priced(report, batch, ours, magma, where)
            check_outputs(outputs, references(batch, ops), where)
            del outputs
            if rec is off:
                done.append(i)
                speedups.append(magma / ours)
                flop += gemm_flop(batch)
            else:
                per_op.append((gemm_flop(batch), gemm_bytes(batch)))
                blocks.append(report.schedule.num_blocks)
                probe_planning_layers(fw, report, batch, spans, i)
                with spans.span("kernels.execute", i):
                    engine(report.schedule, batch, ops)
                floor_s += floor_seconds(batch, ops)
        i += 1

    timing_summary(out, times[off], done, flop, run.trace)
    if not run.trace:
        out.e2e["modeled_speedup_vs_magma"] = geomean(speedups)
        return out
    out.layers["trace.overhead_ratio"] = sum(times[spans]) / sum(times[off])
    planning_layers(out, spans, blocks)
    total = sum(f for f, _ in per_op)
    kernel_layers(out, spans, per_op, total, total, floor_s)
    out.spans = spans
    return out


# -- cnn_warm -----------------------------------------------------------


def run_cnn_warm(run: Run, out: Outcome) -> Outcome:
    cases = load_workload(run.root / CNN_CASES)
    names = sorted(cases)
    batches = [cases[name] for name in names]
    rng = np.random.default_rng(run.seed)
    ops = [make_operands(rng, b) for b in batches]
    refs = [references(b, o) for b, o in zip(batches, ops)]
    off, spans = Spans(False), Spans(True)
    setup_spans = spans if run.trace else off

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fw = new_framework()
        cache = PlanCache(fw)
        cache.warm(batches)
        warm_outputs = []
        for i, (b, o) in enumerate(zip(batches, ops)):
            with setup_spans.span("kernels.cold_execute", i):
                warm_outputs.append(cache.execute(b, o))
        setups.append(time.perf_counter() - t0)
        for i, outputs in enumerate(warm_outputs):
            check_outputs(outputs, refs[i], f"cnn_warm warm-up {names[i]}")
        del warm_outputs
    out.e2e["setup_s"] = statistics.median(setups)

    speedups, blocks = [], []
    for i, b in enumerate(batches):
        report = cache.plan(b)
        speedups.append(price(fw, report, b, setup_spans, i, f"cnn_warm {names[i]}"))
        blocks.append(report.schedule.num_blocks)
        if run.trace:
            with spans.span("core.framework.plan", i):
                fresh = fw.plan(b)
            probe_planning_layers(fw, fresh, b, spans, i)
    out.e2e["modeled_speedup_vs_magma"] = geomean(speedups)

    stats0 = cache.stats_snapshot()
    times = {off: [], spans: []}
    flop, traced_flop, n = 0, 0, 0
    done = []  # the case of each untraced time
    while sum(times[off]) + sum(times[spans]) < run.seconds:
        for i, (b, o) in enumerate(zip(batches, ops)):
            where = f"cnn_warm seed {run.seed} {names[i]}"
            for rec in paired(run.trace, n, off, spans):
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    with rec.span("kernels.execute", i):
                        outputs = cache.execute(b, o)
                except Exception as exc:  # counted, reported, and the run goes on
                    out.failed += 1
                    print(f"{where}: {type(exc).__name__}: {exc}", flush=True)
                    continue
                times[rec].append(time.perf_counter() - t0)
                if rec is spans:
                    traced_flop += gemm_flop(b)
                    t0 = time.perf_counter()
                    _, hit = cache.plan_with_info(b)
                    spans.add("core.plancache.hit", i, t0, time.perf_counter())
                    if not hit:
                        raise CheckFailed(f"{where}: cached plan was evicted")
                else:
                    done.append(i)
                    flop += gemm_flop(b)
                check_outputs(outputs, refs[i], where)
            n += 1
    stats1 = cache.stats_snapshot()

    timing_summary(out, times[off], done, flop, run.trace)
    if not run.trace:
        return out
    out.layers["trace.overhead_ratio"] = sum(times[spans]) / sum(times[off])
    hits = stats1.hits - stats0.hits
    misses = stats1.misses - stats0.misses
    out.layers["core.plancache.hit_rate"] = hits / (hits + misses)
    out.layers["core.plancache.misses"] = misses
    out.layers["core.plancache.hit_us.p50"] = pct(spans.durations_ms("core.plancache.hit"), 50) * 1e3
    planning_layers(out, spans, blocks)
    per_op = [(gemm_flop(b), gemm_bytes(b)) for b in batches]
    floor_flop = gemm_flop(g for b in batches for g in b)
    floor_s = sum(floor_seconds(b, o) for b, o in zip(batches, ops))
    kernel_layers(out, spans, per_op, traced_flop, floor_flop, floor_s)
    out.spans = spans
    return out


# -- serve_open ---------------------------------------------------------


@dataclass
class ServeInputs:
    """An open-loop arrival schedule and its operand pool."""

    due_s: np.ndarray  # send times, seconds from the start of the phase
    shape_ids: np.ndarray
    variant_ids: np.ndarray
    pool: dict  # (shape_id, variant) -> (A, B, Expected)


def serve_inputs(seed: int, seconds: float) -> ServeInputs:
    """``rate * seconds`` requests at uniformly random times in the window.

    N arrivals placed independently and uniformly over the window are a
    Poisson process conditioned on its count, so the offered load is
    exact while arrivals stay Poisson.  Shapes cycle through seeded
    permutations of the pool so every run offers the same mix.
    """
    rng = np.random.default_rng(seed)
    n = max(1, round(SERVE_RATE_RPS * seconds))
    due = np.sort(rng.uniform(0.0, seconds, n))
    n_shapes = len(DEFAULT_SHAPE_POOL)
    perms = [rng.permutation(n_shapes) for _ in range(-(-n // n_shapes))]
    shape_ids = np.concatenate(perms)[:n]
    variant_ids = rng.integers(SERVE_VARIANTS, size=n)
    pool = {}
    for s, (m, nn, k) in enumerate(DEFAULT_SHAPE_POOL):
        for v in range(SERVE_VARIANTS):
            a = rng.standard_normal((m, k), dtype=np.float32)
            b = rng.standard_normal((k, nn), dtype=np.float32)
            pool[s, v] = (a, b, expected(a, b, None, 1.0, 0.0))
    return ServeInputs(due, shape_ids, variant_ids, pool)


def serve_setup(inputs: ServeInputs) -> GemmServer:
    """Start a default server and warm it on every single and ordered pair.

    The plan cache is warmed with each mix, then each mix is sent once
    (a pair as two back-to-back submissions, which the batch window
    joins), so the timed phase finds plans and lowerings ready for
    every batch but the rare chance triple.
    """
    server = GemmServer(new_framework(), ServeConfig()).start()
    mixes = [(s,) for s in range(len(DEFAULT_SHAPE_POOL))]
    mixes += list(product(range(len(DEFAULT_SHAPE_POOL)), repeat=2))
    server.cache.warm(GemmBatch(Gemm(*DEFAULT_SHAPE_POOL[s]) for s in mix) for mix in mixes)
    for mix in mixes:
        sent = [(s, inputs.pool[s, 0]) for s in mix]
        tickets = [
            server.submit(Gemm(*DEFAULT_SHAPE_POOL[s]), operands=(a, b)) for s, (a, b, _) in sent
        ]
        for ticket, (s, (_, _, exp)) in zip(tickets, sent):
            result = ticket.result(timeout=RESULT_TIMEOUT_S)
            if not result.ok:
                raise CheckFailed(f"serve_open warm-up request failed: {result}")
            check_output(result.value, exp, f"serve_open warm-up shape {s}")
    return server


def serve_phase(server: GemmServer, inputs: ServeInputs, out: Outcome, spans: Spans):
    """Send the schedule open-loop, then settle and check every request.

    Each request's latency is timed from when it was due to be sent:
    the generator's lateness (submit start minus due time) plus the
    server's own arrival-to-settle time (``Completed.latency_us``).
    """
    n = len(inputs.due_s)
    shapes = [Gemm(*s) for s in DEFAULT_SHAPE_POOL]
    before = server.measurements()
    health0 = server.health()
    stats0 = server.cache.stats_snapshot()
    tickets, begin, end = [None] * n, [0.0] * n, [0.0] * n
    start = time.perf_counter() + 0.005
    for i in range(n):
        due = start + inputs.due_s[i]
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        s, v = int(inputs.shape_ids[i]), int(inputs.variant_ids[i])
        a, b, _ = inputs.pool[s, v]
        begin[i] = time.perf_counter()
        tickets[i] = server.submit(shapes[s], operands=(a, b))
        end[i] = time.perf_counter()
    results = []
    for i, ticket in enumerate(tickets):
        try:
            results.append(ticket.result(timeout=RESULT_TIMEOUT_S))
        except TimeoutError as exc:
            raise CheckFailed(f"serve_open request {i} never settled") from exc
    stats1 = server.cache.stats_snapshot()
    health1 = server.health()
    after = server.measurements()
    submitted = [t.request_id for t in tickets]
    settled = [r.request_id for r in after["results"][len(before["results"]):]]
    check_settled_once(submitted, settled, "serve_open")

    lat_ms, lat_shapes, finish, flop = [], [], [], 0
    queue_ms, service_ms, settle_ms = [], [], []
    for i, r in enumerate(results):
        out.attempted += 1
        late_s = begin[i] - (start + inputs.due_s[i])
        if not r.ok:
            out.failed += 1
            print(f"serve_open request {i}: {r}", flush=True)
            continue
        s, v = int(inputs.shape_ids[i]), int(inputs.variant_ids[i])
        check_output(r.value, inputs.pool[s, v][2], f"serve_open request {i}")
        latency = late_s * 1e3 + r.latency_us / 1e3
        lat_ms.append(latency)
        lat_shapes.append(s)
        finish.append(inputs.due_s[i] + latency / 1e3)
        m, nn, k = DEFAULT_SHAPE_POOL[s]
        flop += 2 * m * nn * k
        queue_ms.append(r.queue_us / 1e3)
        service_ms.append(r.service_us / 1e3)
        settle_ms.append(latency - (r.queue_us + r.service_us) / 1e3)
    del results
    wall = max(finish) if finish else float("nan")
    formed = after["formed_batches"][len(before["formed_batches"]):]
    occupancy = after["occupancies"][len(before["occupancies"]):]
    if spans.enabled:
        hits = stats1.hits - stats0.hits
        misses = stats1.misses - stats0.misses
        out.layers.update(
            {
                "serve.submit_us.p50": pct([(e - b) * 1e6 for b, e in zip(begin, end)], 50),
                "serve.queue_ms.p50": pct(queue_ms, 50),
                "serve.queue_ms.p95": pct(queue_ms, 95),
                "serve.service_ms.p50": pct(service_ms, 50),
                "serve.service_ms.p95": pct(service_ms, 95),
                "serve.settle_ms.p50": pct(settle_ms, 50),
                "serve.batch_size.mean": statistics.fmean(occupancy),
                "serve.batches": len(occupancy),
                "core.plancache.hit_rate": hits / (hits + misses),
                "core.plancache.misses": misses,
                "reliability.retries": health1["retries"] - health0["retries"],
                "reliability.fallbacks": health1["fallbacks"] - health0["fallbacks"],
                "loadgen.late_ms.max": max(
                    (b - (start + d)) * 1e3 for b, d in zip(begin, inputs.due_s)
                ),
                "kernels.flop": flop / max(1, len(lat_ms)),
                "kernels.bytes_computed": statistics.fmean(
                    gemm_bytes([Gemm(*DEFAULT_SHAPE_POOL[int(s)])]) for s in inputs.shape_ids
                ),
            }
        )
        for i in range(n):
            spans.add("serve.submit", i, begin[i], end[i])
    return lat_ms, lat_shapes, flop, wall, formed


def serve_pricing(server: GemmServer, formed, out: Outcome, spans: Spans) -> float:
    """Geomean modeled speedup over the batches the server formed.

    Each distinct formed batch is looked up in the server's cache,
    validated and priced once; the geomean weights it by how often it
    was formed.
    """
    fw = server.framework
    priced, blocks = {}, []
    for batch in formed:
        sig = tuple(g.shape for g in batch)
        if sig not in priced:
            report = server.cache.plan(batch)
            op_id = len(priced)
            priced[sig] = price(fw, report, batch, spans, op_id, f"serve_open batch {sig}")
            blocks.append(report.schedule.num_blocks)
    if spans.enabled:
        planning_layers(out, spans, blocks)
    return geomean([priced[tuple(g.shape for g in b)] for b in formed])


def run_serve_open(run: Run, out: Outcome) -> Outcome:
    inputs = serve_inputs(run.seed, run.seconds)
    setups, server = [], None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.close()
        t0 = time.perf_counter()
        server = serve_setup(inputs)
        setups.append(time.perf_counter() - t0)
    out.e2e["setup_s"] = statistics.median(setups)
    spans = Spans(run.trace)
    try:
        lat, lat_shapes, flop, wall, formed = serve_phase(server, inputs, out, spans)
        speedup = serve_pricing(server, formed, out, spans)
    finally:
        server.close()
    if not run.trace:
        out.e2e["gflops"] = flop / wall / 1e9
        out.e2e["latency_ms.shape_p50_geomean"] = shape_p50_geomean(lat, lat_shapes)
        out.e2e["modeled_speedup_vs_magma"] = speedup
        return out
    # Every serve_open figure comes from result objects and from spans
    # added after the open-loop phase, so nothing is recorded inside the
    # timed path and the traced phase is the untraced one.
    out.layers["trace.overhead_ratio"] = 1.0
    out.layers["latency_ms.p50"] = pct(lat, 50)
    out.layers["latency_ms.p95"] = pct(lat, 95)
    pool = [Gemm(*DEFAULT_SHAPE_POOL[s]) for s, _ in inputs.pool]
    pool_ops = [(a, b, None) for a, b, _ in inputs.pool.values()]
    out.layers["kernels.floor_gflops"] = (
        gemm_flop(pool) / floor_seconds(pool, pool_ops) / 1e9
    )
    out.spans = spans
    return out


WORKLOADS = {
    "fig11_cold": run_fig11_cold,
    "cnn_warm": run_cnn_warm,
    "serve_open": run_serve_open,
}
