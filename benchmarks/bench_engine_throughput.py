"""Meta-benchmark — the simulator's own performance.

Unlike the experiment benches (one pedantic round each), these are true
microbenchmarks: pytest-benchmark repeats them and reports statistics.
They guard the reproduction's usability — a 30-minute trace replay is
only practical because the event engine and the replay stack sustain
hundreds of thousands of events per second.

Every test records its headline numbers into
``BENCH_engine_throughput.json`` at the repository root, so the perf
trajectory is machine-readable from this PR onward (CI uploads the file
as an artifact).  The packed-vs-object test is the acceptance gate for
the columnar fast path: load + proportional filter + replay dispatch of
a ≥100k-bunch synthetic trace must run ≥5× faster through
:class:`~repro.trace.packed.PackedTrace` than through the legacy object
pipeline.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.proportional_filter import filter_trace
from repro.replay.engine import ReplayEngine
from repro.replay.session import replay_trace
from repro.sim.engine import Simulator
from repro.storage.array import build_hdd_raid5
from repro.storage.base import Completion, StorageDevice
from repro.trace.blktrace import dumps, dumps_packed, loads, loads_packed
from repro.trace.packed import PACKED_PACKAGE_DTYPE, PackedTrace

from .common import peak_trace, telemetry_breakdown

_RESULTS = {}
_BREAKDOWN = {}
_ROOT = Path(__file__).resolve().parent.parent
_JSON_PATH = _ROOT / "BENCH_engine_throughput.json"
_JSONL_PATH = _ROOT / "BENCH_telemetry.jsonl"


@pytest.fixture(scope="module", autouse=True)
def _emit_json():
    """Write the collected numbers once the module's benches finish."""
    yield
    if _RESULTS:
        # Schema 8: adds raid5_write_kernel_vs_event.convergence_matrix
        # (the 64-cell mixed-write matrix whose RMW fixpoint once hit its
        # pass cap; gated on zero fallback cells).
        # Schema 7 added the raid5_write_kernel_vs_event section (the
        # two-phase RMW barrier solver: mixed-write RAID-5 replay on the
        # kernel and the grid-fused matrix, both gated against the event
        # engine).  Schema 6 added fleet_tracing_disabled_overhead
        # (distributed tracing OFF must be the seed fleet path);
        # schema 5 added policy_search_vs_serial (fused policy search —
        # one captured grid replay re-scored under every energy policy —
        # vs the naive per-(cell × policy) replay loop); schema 4 added
        # grid_vs_serial_kernel and reworked sweep_shared_memory around
        # the kernel-aware "auto" mode.
        payload = {"schema": 8, "results": _RESULTS}
        if _BREAKDOWN:
            payload["breakdown"] = _BREAKDOWN
        _JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"\nwrote {_JSON_PATH}")


def test_event_engine_throughput(benchmark):
    """Raw calendar throughput: schedule+fire chained events."""
    N = 20_000

    def run():
        sim = Simulator()
        state = {"n": 0}

        def tick():
            state["n"] += 1
            if state["n"] < N:
                sim.schedule_after(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return state["n"]

    fired = benchmark(run)
    assert fired == N
    _RESULTS["event_engine"] = {
        "events": N,
        "mean_seconds": benchmark.stats["mean"],
        "events_per_second": N / benchmark.stats["mean"],
    }
    # Usability floor: at least 100k chained events/second.
    assert benchmark.stats["mean"] < N / 100_000


def test_replay_stack_throughput(benchmark):
    """Full pipeline: filter + RAID-5 + power accounting + monitors."""
    trace = peak_trace("hdd", 4096, 50, 50, duration=3.0)

    def run():
        return replay_trace(trace, build_hdd_raid5(6), 1.0).completed

    completed = benchmark(run)
    assert completed == trace.package_count
    _RESULTS["replay_stack"] = {
        "packages": trace.package_count,
        "mean_seconds": benchmark.stats["mean"],
        "trace_duration_seconds": trace.duration,
    }
    # The replay must run faster than the workload's simulated time
    # (else long traces would be impractical).
    assert benchmark.stats["mean"] < trace.duration


def test_codec_throughput(benchmark):
    """Binary round-trip of a multi-thousand-package trace."""
    trace = peak_trace("hdd", 4096, 100, 50, duration=5.0)

    def run():
        return len(loads(dumps(trace)))

    n = benchmark(run)
    assert n == len(trace)
    _RESULTS["codec_roundtrip"] = {
        "bunches": len(trace),
        "packages": trace.package_count,
        "mean_seconds": benchmark.stats["mean"],
    }


# ---------------------------------------------------------------------------
# Packed fast path vs. seed object path


class _SinkDevice(StorageDevice):
    """Completes every request instantly with no service model.

    Isolates the trace-pipeline cost (decode, filter, scheduling,
    dispatch) that the columnar fast path optimises; the storage service
    model itself is identical in both paths and is measured by
    ``test_replay_stack_throughput``.  Overrides ``submit_slice`` the
    way a batch-capable backend would: no per-package object flow.
    """

    def __init__(self) -> None:
        super().__init__("sink")
        self.count = 0
        self._completion = None

    @property
    def capacity_sectors(self) -> int:
        return 1 << 62

    def _complete(self, on_complete) -> None:
        if self._completion is None:
            now = self.sim.now if self.sim is not None else 0.0
            from repro.trace.record import IOPackage

            self._completion = Completion(
                IOPackage(0, 512, 0), now, now, now
            )
        on_complete(self._completion)

    def submit(self, package, on_complete) -> None:
        self.count += 1
        self._complete(on_complete)

    def submit_slice(self, packed, start, stop, on_complete) -> None:
        self.count += stop - start
        for _ in range(stop - start):
            self._complete(on_complete)

    def energy_between(self, t0: float, t1: float) -> float:
        return 0.0


def _synth_trace_bytes(n_bunches: int, seed: int = 7) -> bytes:
    """A large synthetic trace, built columnar and serialised to bytes."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 16, n_bunches)
    offsets = np.zeros(n_bunches + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    packages = np.empty(total, dtype=PACKED_PACKAGE_DTYPE)
    packages["sector"] = rng.integers(0, 1 << 30, total)
    packages["nbytes"] = rng.integers(1, 256, total) * 512
    packages["op"] = rng.integers(0, 2, total)
    timestamps = np.cumsum(rng.random(n_bunches)) * 1e-3
    packed = PackedTrace(timestamps, offsets, packages, label="synth")
    return dumps_packed(packed)


def _object_pipeline(data: bytes) -> int:
    """The seed path: object decode → list filter → per-bunch replay."""
    trace = loads(data)
    filtered = filter_trace(trace, 0.5)
    sim = Simulator()
    device = _SinkDevice()
    device.attach(sim)
    engine = ReplayEngine(sim, filtered, device)
    engine.run_to_completion()
    return engine.completed


def _packed_pipeline(data: bytes) -> int:
    """The fast path: columnar decode → vectorised filter → batched replay."""
    packed = loads_packed(data)
    filtered = filter_trace(packed, 0.5)
    sim = Simulator()
    device = _SinkDevice()
    device.attach(sim)
    engine = ReplayEngine(sim, filtered, device)
    engine.run_to_completion()
    return engine.completed


def test_packed_vs_object_pipeline():
    """Acceptance gate: the packed path is ≥5× the seed object path."""
    N_BUNCHES = 100_000
    ROUNDS = 3
    data = _synth_trace_bytes(N_BUNCHES)

    expected = _packed_pipeline(data)
    assert _object_pipeline(data) == expected  # identical replayed work

    object_best = min(
        _timed(_object_pipeline, data) for _ in range(ROUNDS)
    )
    packed_best = min(
        _timed(_packed_pipeline, data) for _ in range(ROUNDS)
    )
    speedup = object_best / packed_best

    packed = loads_packed(data)
    print(
        f"\npacked vs object (load+filter+replay, {N_BUNCHES} bunches, "
        f"{packed.package_count} packages): "
        f"object {object_best:.3f}s, packed {packed_best:.3f}s, "
        f"{speedup:.1f}x"
    )
    _RESULTS["packed_vs_object"] = {
        "bunches": N_BUNCHES,
        "packages": packed.package_count,
        "replayed_packages": expected,
        "object_seconds": object_best,
        "packed_seconds": packed_best,
        "speedup": speedup,
    }
    assert speedup >= 5.0, f"packed path only {speedup:.1f}x faster"


def _kernel_trace(n_bunches: int, seed: int = 11) -> PackedTrace:
    """A large all-read packed trace that qualifies for the kernel.

    All-READ ops keep an HDD RAID-5 array on the kernel-capable clean
    path; sectors stay well inside the array's addressable range.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 9, n_bunches)
    offsets = np.zeros(n_bunches + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    packages = np.empty(total, dtype=PACKED_PACKAGE_DTYPE)
    packages["sector"] = rng.integers(0, 1 << 28, total)
    packages["nbytes"] = rng.integers(1, 64, total) * 512
    packages["op"] = 0
    timestamps = np.cumsum(rng.random(n_bunches)) * 2e-3
    return PackedTrace(timestamps, offsets, packages, label="kernel-bench")


def test_kernel_vs_event():
    """Acceptance gate: the analytical kernel is ≥20× the event engine
    on the packed benchmark trace, with bit-identical results."""
    N_BUNCHES = 100_000
    trace = _kernel_trace(N_BUNCHES)

    def run(engine):
        return replay_trace(trace, build_hdd_raid5(6), 1.0, engine=engine)

    def canon(result):
        d = result.to_dict()
        md = d.get("metadata", {})
        md.pop("engine", None)
        md.pop("engine_fallback", None)
        return json.dumps(d, sort_keys=True)

    event_result = run("event")
    kernel_result = run("kernel")
    assert event_result.metadata["engine"] == "event"
    assert kernel_result.metadata["engine"] == "kernel"
    identical = canon(kernel_result) == canon(event_result)
    assert identical, "kernel result diverges from the event engine"

    ROUNDS = 3
    event_best = min(_timed(run, "event") for _ in range(2))
    kernel_best = min(_timed(run, "kernel") for _ in range(ROUNDS))
    speedup = event_best / kernel_best

    print(
        f"\nkernel vs event (HDD RAID-5, {N_BUNCHES} bunches, "
        f"{trace.package_count} packages, all-read): "
        f"event {event_best:.3f}s, kernel {kernel_best:.3f}s, "
        f"{speedup:.1f}x"
    )
    _RESULTS["kernel_vs_event"] = {
        "bunches": N_BUNCHES,
        "packages": trace.package_count,
        "device": "hdd-raid5x6",
        "event_engine": event_result.metadata["engine"],
        "kernel_engine": kernel_result.metadata["engine"],
        "event_seconds": event_best,
        "kernel_seconds": kernel_best,
        "speedup": speedup,
        "bit_identical": identical,
    }
    assert speedup >= 20.0, f"kernel only {speedup:.1f}x faster"


def test_sweep_shared_memory():
    """Acceptance gate: the kernel-aware sweep beats the old pool path.

    ``parallel="auto"`` now probes kernel eligibility and keeps this
    small kernel-fast sweep in-process — the fix for the schema-3
    regression where the default mode reported parallel < serial.  The
    gated ``speedup`` compares auto against the old always-fork
    behaviour (``parallel=True``, zero-copy pool), and must never drop
    below 1.0: auto may only ever match or beat forking.  All three
    modes must return identical rows.
    """
    from .sweep import sweep_fig8

    DURATION = 8.0
    ROUNDS = 2

    def run(mode):
        # 100% reads keeps the HDD RAID-5 points kernel-eligible, so
        # "auto" resolves in-process on any host (parity writes would
        # push every point back onto the event engine and the pool).
        return sweep_fig8(parallel=mode, duration=DURATION, read_pct=100)

    run(False)  # warm the trace cache
    auto_seconds = min(_timed(run, "auto") for _ in range(ROUNDS))
    serial_seconds = min(_timed(run, False) for _ in range(ROUNDS))
    t0 = time.perf_counter()
    pooled = run(True)
    pool_seconds = time.perf_counter() - t0

    auto = run("auto")
    serial = run(False)
    equal = auto == serial == pooled
    assert equal, "sweep modes diverge"

    speedup = pool_seconds / auto_seconds
    print(
        f"\nkernel-aware sweep ({len(auto)} points): "
        f"auto {auto_seconds:.2f}s, serial {serial_seconds:.2f}s, "
        f"forced pool {pool_seconds:.2f}s ({speedup:.1f}x vs pool)"
    )
    _RESULTS["sweep_shared_memory"] = {
        "points": len(auto),
        "mode": "in_process_kernel",
        "engines": sorted({row["engine"] for row in auto}),
        "auto_seconds": auto_seconds,
        "serial_seconds": serial_seconds,
        "forced_pool_seconds": pool_seconds,
        "speedup": speedup,
        "identical_to_serial": equal,
    }
    assert speedup >= 1.0, (
        f"auto sweep {speedup:.2f}x vs the forced pool — the kernel-aware "
        f"mode must never lose to fork+pickle fan-out"
    )


def test_telemetry_overhead_packed_pipeline():
    """Telemetry-ON packed replay stays within 10% of telemetry-OFF.

    The instrumented pipeline samples its histograms/spans (every Nth
    completion) precisely so that turning observability on does not
    change what it observes; this test enforces that budget and emits
    the full instrumented snapshot as ``BENCH_telemetry.jsonl`` (the CI
    artifact) plus a condensed breakdown into the bench JSON.
    """
    from repro.telemetry import enabled_telemetry
    from repro.telemetry.exporters import write_jsonl

    N_BUNCHES = 50_000
    ROUNDS = 3
    data = _synth_trace_bytes(N_BUNCHES)

    expected = _packed_pipeline(data)  # warm allocators / import paths
    disabled_best = min(_timed(_packed_pipeline, data) for _ in range(ROUNDS))
    with enabled_telemetry() as reg:
        assert _packed_pipeline(data) == expected  # same replayed work
        enabled_best = min(
            _timed(_packed_pipeline, data) for _ in range(ROUNDS)
        )
        snapshot = reg.snapshot(include_timers=True)
    overhead = enabled_best / disabled_best - 1.0

    print(
        f"\ntelemetry overhead (packed, {N_BUNCHES} bunches): "
        f"off {disabled_best:.3f}s, on {enabled_best:.3f}s, "
        f"{overhead * 100:+.1f}%"
    )
    _RESULTS["telemetry_overhead"] = {
        "bunches": N_BUNCHES,
        "replayed_packages": expected,
        "disabled_seconds": disabled_best,
        "enabled_seconds": enabled_best,
        "overhead_fraction": overhead,
    }
    _BREAKDOWN.update(telemetry_breakdown(snapshot))
    write_jsonl(snapshot, _JSONL_PATH)
    print(f"wrote {_JSONL_PATH}")
    assert overhead < 0.10, f"telemetry overhead {overhead * 100:.1f}% >= 10%"


def test_streaming_disabled_overhead():
    """Acceptance gate: streaming OFF costs < 1% on the replay stack.

    Two pins.  Structural: a session without ``stream_interval`` keeps
    the seed completion path — no interval recorder, no wrapped hook,
    no ``interval_frames`` in the result metadata.  Statistical: the
    default call and the explicitly-disabled call are the *same* code
    path, so their interleaved min-of-rounds timings must agree within
    1% — any gap means the streaming feature leaked work into the
    disabled path.
    """
    from repro.replay.session import ReplaySession

    trace = peak_trace("hdd", 4096, 50, 50, duration=2.0)

    session = ReplaySession(build_hdd_raid5(6))
    assert session.stream_interval == 0.0 and session.on_frame is None

    def default_path():
        return replay_trace(trace, build_hdd_raid5(6), 1.0)

    def disabled_path():
        return replay_trace(
            trace, build_hdd_raid5(6), 1.0, stream_interval=None
        )

    result = default_path()  # warm-up; also the structural check below
    assert "interval_frames" not in result.metadata
    assert disabled_path().completed == result.completed

    ROUNDS = 5
    default_times, disabled_times = [], []
    for _ in range(ROUNDS):  # interleave so drift hits both sides alike
        default_times.append(_timed(default_path))
        disabled_times.append(_timed(disabled_path))
    default_best = min(default_times)
    disabled_best = min(disabled_times)
    overhead = disabled_best / default_best - 1.0

    print(
        f"\nstreaming-disabled overhead (replay stack, "
        f"{trace.package_count} packages): default {default_best:.3f}s, "
        f"disabled {disabled_best:.3f}s, {overhead * 100:+.2f}%"
    )
    _RESULTS["streaming_disabled_overhead"] = {
        "packages": trace.package_count,
        "default_seconds": default_best,
        "disabled_seconds": disabled_best,
        "overhead_fraction": overhead,
    }
    assert overhead < 0.01, (
        f"streaming-disabled path {overhead * 100:.2f}% slower than the "
        f"default path — the disabled path must be the seed path"
    )


def test_fleet_tracing_disabled_overhead():
    """Acceptance gate: distributed tracing OFF costs < 1% on the fleet.

    Two pins, mirroring the streaming gate above.  Structural: a
    scheduler built without ``tracing`` (and without ``TRACER_DTRACE``
    in the environment) opens no spans, flushes nothing to the spans
    ledger, and ships results whose payloads carry no ``dtrace``
    section.  Statistical: the default scheduler and one with tracing
    explicitly disabled are the *same* code path, so their best-round
    fleet throughput must agree within 1% — any gap means the tracing
    hooks leaked work into the disabled path.

    Measurement design, hardened against shared-runner noise:

    * The timed fleet runs on an *inline* worker (a ``FleetWorker``
      whose ``submit`` executes synchronously and returns a resolved
      future), so the whole job pipeline — admission, dedup, placement,
      dispatch, replay, result handling — runs on the event-loop
      thread.  Executor-thread handoffs are pure OS-scheduler jitter
      and carry none of the tracing hooks this gate polices.
    * Rounds accumulate adaptively: both sides run the same bytecode,
      so their best-case round times converge to the same floor; the
      gate keeps interleaving ABBA rounds (up to ``MAX_PASSES``) until
      the cumulative min-of-rounds ratio lands inside the 1% budget.
      A real leak would raise the disabled side's *floor*, which no
      amount of extra sampling can bring back under the budget.
    """
    import asyncio
    from concurrent.futures import Future

    from repro.fleet import EvaluationContext, FleetScheduler, JobSpec
    from repro.fleet.workers import FleetWorker
    from repro.host.ledger import RunLedger
    from repro.workload.matrix import collect_trace
    from repro.config import WorkloadMode

    assert not os.environ.get("TRACER_DTRACE"), (
        "unset TRACER_DTRACE before running the tracing-overhead gate"
    )

    mode = WorkloadMode(request_size=4096, random_ratio=0.5, read_ratio=0.0)
    trace = collect_trace(lambda: build_hdd_raid5(6), mode, 3.0, seed=23)
    context = EvaluationContext({"bench": trace})
    N_JOBS = 8          # jobs per timed batch
    ROUNDS_PER_PASS = 4  # timed batches per side per pass
    MAX_PASSES = 10

    class InlineWorker(FleetWorker):
        """Executes on the caller's thread; submit returns a done future."""

        def __init__(self, name):
            self.name = name
            self.alive = True
            self.jobs_done = 0

        def submit(self, job, on_frame=None, stream_interval=None):
            fut = Future()
            try:
                payload = context.execute(
                    job.spec, on_frame=on_frame,
                    stream_interval=stream_interval,
                    trace_context=job.trace_context,
                )
                self.jobs_done += 1
                fut.set_result(payload)
            except BaseException as exc:  # pragma: no cover - defensive
                fut.set_exception(exc)
            return fut

    seeds = iter(range(1_000_000))  # unique seeds: no dedup hits, ever

    async def batch(sched):
        jobs = [
            await sched.submit(
                JobSpec(trace="bench", load=0.5, seed=next(seeds)), "bench"
            )
            for _ in range(N_JOBS)
        ]
        return await asyncio.gather(*(j.future for j in jobs))

    # Structural pin: the default path writes no spans anywhere.
    async def structural():
        with RunLedger() as probe:
            sched = FleetScheduler(
                [InlineWorker("inline-0")], context=context,
                ledger=probe, tracing=None,
            )
            await sched.start()
            results = await batch(sched)
            await sched.drain()
            await sched.stop()
            assert probe.spans_count() == 0
            assert all("dtrace" not in r.payload for r in results)
            assert all(
                "dtrace" not in (r.payload.get("metadata") or {})
                for r in results
            )

    asyncio.run(structural())

    async def measure():
        default = FleetScheduler(
            [InlineWorker("inline-d")], context=context, tracing=None
        )
        disabled = FleetScheduler(
            [InlineWorker("inline-x")], context=context, tracing=False
        )
        await default.start()
        await disabled.start()
        default_times, disabled_times = [], []
        overhead = None
        for a_pass in range(MAX_PASSES):
            if a_pass == 0:  # warm both schedulers untimed
                await batch(default)
                await batch(disabled)
            for i in range(ROUNDS_PER_PASS):
                # ABBA order: alternate which side runs first so
                # monotonic machine drift cancels instead of always
                # taxing the same side.
                pairs = (
                    [(default, default_times), (disabled, disabled_times)]
                    if i % 2 == 0 else
                    [(disabled, disabled_times), (default, default_times)]
                )
                for sched, sink in pairs:
                    start = time.perf_counter()
                    await batch(sched)
                    sink.append(time.perf_counter() - start)
            overhead = min(disabled_times) / min(default_times) - 1.0
            if overhead < 0.01:
                break
        for sched in (default, disabled):
            await sched.drain()
            await sched.stop()
        return default_times, disabled_times, overhead

    default_times, disabled_times, overhead = asyncio.run(measure())
    default_best = min(default_times)
    disabled_best = min(disabled_times)

    print(
        f"\ntracing-disabled overhead (fleet, {N_JOBS} jobs x "
        f"{trace.package_count} packages, {len(default_times)} rounds/side):"
        f" default {default_best:.3f}s, "
        f"disabled {disabled_best:.3f}s, {overhead * 100:+.2f}%"
    )
    _RESULTS["fleet_tracing_disabled_overhead"] = {
        "jobs": N_JOBS,
        "packages": trace.package_count,
        "rounds_per_side": len(default_times),
        "default_seconds": default_best,
        "disabled_seconds": disabled_best,
        "overhead_fraction": overhead,
    }
    assert overhead < 0.01, (
        f"tracing-disabled fleet path {overhead * 100:.2f}% slower than "
        f"the default path after {len(default_times)} rounds/side — "
        f"tracing OFF must be the seed path"
    )


def _grid_trace(n_bunches: int, read_pct: int, seed: int) -> PackedTrace:
    """A small mixed-read-ratio packed trace for the grid matrix.

    Small on purpose: grid fusion amortises the per-point session,
    qualification, and plan-building overhead that dominates short
    kernel replays — exactly the regime of a dense parameter scan.
    """
    rng = np.random.default_rng(seed)
    sizes = np.full(n_bunches, 3, dtype=np.int64)
    offsets = np.zeros(n_bunches + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    packages = np.empty(total, dtype=PACKED_PACKAGE_DTYPE)
    packages["sector"] = rng.integers(0, 1 << 22, total)
    packages["nbytes"] = 65536
    packages["op"] = (rng.random(total) * 100 >= read_pct).astype(np.int64)
    timestamps = np.cumsum(rng.exponential(0.004, n_bunches))
    return PackedTrace(
        timestamps, offsets, packages, label=f"grid-read{read_pct}"
    )


def _rmw_trace(
    n_bunches: int, write_pct: int, gap: float, seed: int = 13
) -> PackedTrace:
    """A large mixed-write packed trace exercising the RMW kernel path.

    Sub-stripe writes on RAID-5 plan as read-modify-write flights (pre
    reads of old data + old parity, then a barriered post write pair),
    so every write exercises the two-phase fixpoint solver; interleaved
    reads keep the member queues mixed.  The bunch gap is tuned to
    moderate utilisation — short busy runs are the regime where the
    offset-sweep segment evaluators shine and where the event engine
    pays for walking every idle-period timer.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 9, n_bunches)
    offsets = np.zeros(n_bunches + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    packages = np.empty(total, dtype=PACKED_PACKAGE_DTYPE)
    packages["sector"] = rng.integers(0, 1 << 28, total)
    packages["nbytes"] = rng.integers(1, 64, total) * 512
    packages["op"] = (rng.random(total) * 100 < write_pct).astype(np.int64)
    timestamps = np.cumsum(rng.random(n_bunches)) * gap
    return PackedTrace(
        timestamps, offsets, packages, label=f"rmw-write{write_pct}"
    )


def test_raid5_write_kernel_vs_event():
    """Acceptance gate: mixed-write RAID-5 replay through the two-phase
    RMW kernel is ≥15× the event engine on a single point and the
    grid-fused write-heavy matrix is ≥8× per-point event replay — both
    bit-identical — and every cell of the realistic-size convergence
    matrix fuses (zero event fallbacks).

    Before the vectorized write planner, any WRITE in the op vector
    disqualified RAID-5 from the kernel entirely: single points ran the
    event engine and ``run_grid`` fell back per point.  Both gates
    therefore measure against the event engine — the path these
    workloads actually took.
    """
    from dataclasses import replace
    from functools import partial

    from repro.config import ReplayConfig
    from repro.workload.parallel import run_grid

    def canon(result):
        d = result.to_dict()
        md = d.get("metadata", {})
        md.pop("engine", None)
        md.pop("engine_fallback", None)
        return json.dumps(d, sort_keys=True)

    # -- Single point: one large mixed-write trace --------------------
    N_BUNCHES = 60_000
    trace = _rmw_trace(N_BUNCHES, write_pct=40, gap=5e-3)

    def run(engine):
        return replay_trace(trace, build_hdd_raid5(6), 1.0, engine=engine)

    event_result = run("event")
    kernel_result = run("kernel")
    assert event_result.metadata["engine"] == "event"
    assert kernel_result.metadata["engine"] == "kernel"
    assert "engine_fallback" not in kernel_result.metadata
    point_identical = canon(kernel_result) == canon(event_result)
    assert point_identical, "RMW kernel diverges from the event engine"

    event_best = min(_timed(run, "event") for _ in range(2))
    kernel_best = min(_timed(run, "kernel") for _ in range(3))
    point_speedup = event_best / kernel_best

    print(
        f"\nraid5 write kernel vs event (HDD RAID-5, {N_BUNCHES} "
        f"bunches, {trace.package_count} packages, 40% writes): "
        f"event {event_best:.3f}s, kernel {kernel_best:.3f}s, "
        f"{point_speedup:.1f}x"
    )

    # -- Grid-fused: a write-heavy matrix vs per-point event replay ---
    config = ReplayConfig(sampling_cycle=1000.0)
    traces = {
        "write70": _grid_trace(200, 30, seed=21),
        "write100": _grid_trace(200, 0, seed=22),
    }
    devices = {"hdd-raid5": partial(build_hdd_raid5, 6)}
    loads = (0.4, 0.7, 1.0)
    scales = tuple(round(0.5 + 1.5 * i / 47, 4) for i in range(48))

    # Warm the fused path (imports, allocators) outside the timed region.
    run_grid(
        traces, devices, loads=loads, time_scales=scales[:2],
        config=config, parallel=False,
    )

    t0 = time.perf_counter()
    outcome = run_grid(
        traces, devices, loads=loads, time_scales=scales,
        config=config, parallel=False,
    )
    grid_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    serial = [
        replay_trace(
            traces[tname], factory(), load,
            config=replace(config, time_scale=ts), engine="event",
        )
        for factory in devices.values()
        for tname in traces
        for load in loads
        for ts in scales
    ]
    serial_seconds = time.perf_counter() - t0

    assert outcome.fused_cells == len(outcome.cells)
    grid_identical = all(
        canon(cell.result) == canon(point)
        for cell, point in zip(outcome.cells, serial)
    )
    assert grid_identical, "fused RMW grid cell diverges from event replay"

    grid_speedup = serial_seconds / grid_seconds
    print(
        f"raid5 write grid vs event ({outcome.shape} = "
        f"{len(outcome.cells)} cells): event {serial_seconds:.2f}s, "
        f"grid {grid_seconds:.2f}s, {grid_speedup:.1f}x"
    )

    # -- Convergence matrix: realistic size, every cell must fuse -----
    # 5k bunches at 60% reads over hdd-raid5x6, loads {0.5, 1.0} x 32
    # time scales.  Four of these cells need 37-70 RMW fixpoint passes;
    # under the old 32-pass cap each fell back to an event replay.
    matrix_scales = tuple(round(0.5 + 1.5 * i / 31, 4) for i in range(32))
    matrix_trace = {"read60": _grid_trace(5000, 60, seed=12)}
    t0 = time.perf_counter()
    matrix = run_grid(
        matrix_trace, {"hdd-raid5x6": partial(build_hdd_raid5, 6)},
        loads=(0.5, 1.0), time_scales=matrix_scales, parallel=False,
    )
    matrix_seconds = time.perf_counter() - t0
    matrix_fallback = sum(cell.engine != "kernel" for cell in matrix.cells)
    print(
        f"raid5 write convergence matrix ({len(matrix.cells)} cells): "
        f"grid {matrix_seconds:.2f}s, {matrix_fallback} fallback cells"
    )
    _RESULTS["raid5_write_kernel_vs_event"] = {
        "single_point": {
            "bunches": N_BUNCHES,
            "packages": trace.package_count,
            "device": "hdd-raid5x6",
            "write_pct": 40,
            "event_seconds": event_best,
            "kernel_seconds": kernel_best,
            "speedup": point_speedup,
            "bit_identical": point_identical,
        },
        "grid_fused": {
            "cells": len(outcome.cells),
            "shape": list(outcome.shape),
            "fused_cells": outcome.fused_cells,
            "event_seconds": serial_seconds,
            "grid_seconds": grid_seconds,
            "speedup": grid_speedup,
            "bit_identical": grid_identical,
        },
        "convergence_matrix": {
            "cells": len(matrix.cells),
            "bunches": 5000,
            "read_pct": 60,
            "device": "hdd-raid5x6",
            "fallback_cells": matrix_fallback,
            "grid_seconds": matrix_seconds,
        },
        "bit_identical": point_identical and grid_identical,
    }
    assert point_speedup >= 15.0, (
        f"RMW kernel only {point_speedup:.1f}x vs the event engine"
    )
    assert grid_speedup >= 8.0, (
        f"RMW grid only {grid_speedup:.1f}x vs per-point event replay"
    )
    assert matrix_fallback == 0, matrix.fallback_reasons


def test_grid_vs_serial_kernel():
    """Acceptance gate: the grid-fused path is ≥10× per-point kernel
    replay on a full Fig. 6–9-style matrix, bit-identical per cell.

    The matrix spans device × read-ratio × load × time-scale — 1152
    cells, the paper's whole comparison space — and must complete in
    single-digit seconds.  RAID-0 enclosures keep the mixed-read-ratio
    traces kernel-eligible (RAID-5 parity writes would fall back by
    design, which the differential tests cover instead).
    """
    from dataclasses import replace
    from functools import partial

    from repro.config import ReplayConfig
    from repro.storage.array import RaidLevel, build_ssd_raid5
    from repro.workload.parallel import run_grid

    config = ReplayConfig(sampling_cycle=1000.0)
    traces = {
        "read100": _grid_trace(200, 100, seed=11),
        "read70": _grid_trace(200, 70, seed=12),
    }
    devices = {
        "hdd-raid0": partial(build_hdd_raid5, 6, level=RaidLevel.RAID0),
        "ssd-raid0": partial(build_ssd_raid5, 4, level=RaidLevel.RAID0),
    }
    loads = (0.4, 0.7, 1.0)
    scales = tuple(round(0.5 + 1.5 * i / 95, 4) for i in range(96))

    # Warm both paths (imports, allocators) outside the timed region.
    run_grid(
        traces, devices, loads=loads, time_scales=scales[:2],
        config=config, parallel=False,
    )
    replay_trace(
        traces["read100"], devices["hdd-raid0"](), 1.0,
        config=config, engine="kernel",
    )

    t0 = time.perf_counter()
    outcome = run_grid(
        traces, devices, loads=loads, time_scales=scales,
        config=config, parallel=False,
    )
    grid_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    serial = [
        replay_trace(
            traces[tname], factory(), load,
            config=replace(config, time_scale=ts), engine="kernel",
        )
        for factory in devices.values()
        for tname in traces
        for load in loads
        for ts in scales
    ]
    serial_seconds = time.perf_counter() - t0

    assert outcome.fused_cells == len(outcome.cells)
    identical = all(
        json.dumps(cell.result.to_dict(), sort_keys=True)
        == json.dumps(point.to_dict(), sort_keys=True)
        for cell, point in zip(outcome.cells, serial)
    )
    assert identical, "grid cell diverges from per-point kernel replay"

    speedup = serial_seconds / grid_seconds
    print(
        f"\ngrid vs serial kernel ({outcome.shape} = "
        f"{len(outcome.cells)} cells): serial {serial_seconds:.2f}s, "
        f"grid {grid_seconds:.2f}s, {speedup:.1f}x"
    )
    _RESULTS["grid_vs_serial_kernel"] = {
        "cells": len(outcome.cells),
        "shape": list(outcome.shape),
        "devices": outcome.devices,
        "traces": outcome.traces,
        "loads": list(loads),
        "time_scales": len(scales),
        "fused_cells": outcome.fused_cells,
        "engines": outcome.engines,
        "serial_seconds": serial_seconds,
        "grid_seconds": grid_seconds,
        "speedup": speedup,
        "bit_identical": identical,
    }
    assert speedup >= 10.0, f"grid only {speedup:.1f}x vs per-point kernel"
    assert grid_seconds < 10.0, f"grid matrix took {grid_seconds:.1f}s"


def test_policy_search_vs_serial():
    """Acceptance gate: the fused policy search is ≥3× the naive
    per-(cell × policy) replay loop, bit-identical on every metric.

    (Gated ≥8× through schema 6; the offset-sweep busy-run evaluators
    made the per-point kernel baseline ~2× faster, so the same fused
    wall clock now measures ~4× against the improved loop.)

    The naive alternative to :func:`run_policy_search` replays the
    trace once per (base cell × policy) and scores that policy from the
    per-point capture — (P+1) full replays per cell.  The search
    replays the whole grid *once* through the fused kernel and
    re-scores the frozen captures under every policy, so both sides
    compute the same physics and every
    :class:`~repro.energysaving.policy.PolicyMetrics` must agree to
    the last bit.
    """
    from dataclasses import replace
    from functools import partial

    from repro.config import ReplayConfig
    from repro.energysaving import DRPMPolicy, MAIDPolicy
    from repro.energysaving.policy import BaselinePolicy, evaluate_policy
    from repro.replay.capture import CaptureSink
    from repro.storage.array import RaidLevel
    from repro.workload.parallel import run_policy_search

    def policies():
        return [MAIDPolicy(idle_timeout=1.0), DRPMPolicy(step_timeout=0.5)]

    config = ReplayConfig(sampling_cycle=1000.0)
    # Larger traces than the grid bench: policy scoring is common to
    # both sides, so the gate isolates the replay savings — the bigger
    # the per-point replay, the closer the measured ratio gets to the
    # true (P+1)-replays-per-cell waste the search eliminates.
    traces = {
        "read100": _grid_trace(3000, 100, seed=11),
        "read70": _grid_trace(3000, 70, seed=12),
    }
    devices = {"hdd-raid0": partial(build_hdd_raid5, 6, level=RaidLevel.RAID0)}
    loads = (0.4, 0.7, 1.0)
    scales = tuple(round(0.5 + 1.5 * i / 15, 4) for i in range(16))

    def fused():
        return run_policy_search(
            traces, devices, policies(),
            loads=loads, time_scales=scales,
            config=config, parallel=False,
        )

    def serial():
        """One fresh replay per (cell × policy), the pre-search loop."""
        rows = {}
        probe = devices["hdd-raid0"]()
        base_policy = BaselinePolicy()
        base_policy.configure(probe)
        pols = policies()
        for policy in pols:
            policy.configure(probe)
        for tname in traces:
            for load in loads:
                for ts in scales:
                    cell_key = f"hdd-raid0/{tname}@{load:g}x{ts:g}"
                    per_cell = []
                    for policy in [base_policy] + pols:
                        sink = CaptureSink()
                        replay_trace(
                            traces[tname], devices["hdd-raid0"](), load,
                            config=replace(config, time_scale=ts),
                            engine="kernel", capture=sink,
                        )
                        if policy is base_policy:
                            from dataclasses import replace as _rep

                            base = _rep(
                                policy.evaluate(
                                    sink.capture, sampling_cycle=1000.0
                                ),
                                energy_saving=0.0, response_penalty=0.0,
                            )
                            per_cell.append(base)
                        else:
                            per_cell.append(
                                evaluate_policy(
                                    policy, sink.capture,
                                    sampling_cycle=1000.0, baseline=base,
                                )
                            )
                    for m in per_cell:
                        rows[f"{cell_key}#{m.policy}"] = json.dumps(
                            m.to_dict(), sort_keys=True
                        )
        return rows

    fused()  # warm imports / allocators outside the timed region

    t0 = time.perf_counter()
    outcome = fused()
    fused_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    serial_rows = serial()
    serial_seconds = time.perf_counter() - t0

    from_search = {
        c.key: json.dumps(c.metrics.to_dict(), sort_keys=True)
        for c in outcome.cells
    }
    identical = from_search == serial_rows
    assert identical, "search metrics diverge from the per-point loop"
    assert outcome.fused_cells == outcome.base_cells

    speedup = serial_seconds / fused_seconds
    print(
        f"\npolicy search vs serial ({outcome.base_cells} base cells x "
        f"{len(outcome.policies)} policies = {len(outcome.cells)} scored): "
        f"serial {serial_seconds:.2f}s, fused {fused_seconds:.2f}s, "
        f"{speedup:.1f}x"
    )
    _RESULTS["policy_search_vs_serial"] = {
        "base_cells": outcome.base_cells,
        "policies": list(outcome.policies),
        "scored_cells": len(outcome.cells),
        "fused_cells": outcome.fused_cells,
        "serial_seconds": serial_seconds,
        "fused_seconds": fused_seconds,
        "speedup": speedup,
        "bit_identical": identical,
    }
    assert speedup >= 3.0, f"search only {speedup:.1f}x vs per-point loop"


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0
