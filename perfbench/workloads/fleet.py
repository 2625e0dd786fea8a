"""``fleet-tenants``: a ``FleetScheduler`` over two thread workers with a
scratch in-memory ``RunLedger`` result cache, driven by four closed-loop
tenants with quotas, one outstanding job each.

The ledger lives in memory: a file-backed one puts the host disk's fsync
latency into every cache hit, and with it the scheduler thread's wait to
win the interpreter lock back from the workers, which doubled the median
job latency whenever another process loaded the CPU.

Jobs are small replay jobs (2k-bunch mixed-write and read traces) with a
few grid and search jobs, drawn with repetition so that about two thirds
are dedup hits (:class:`~perfbench.inputs.JobStream`).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.fleet import (
    EvaluationContext,
    FleetScheduler,
    JobSpec,
    TenantSpec,
    canonical_result_bytes,
    local_worker_pool,
)
from repro.host.ledger import RunLedger

from ..harness import Metric, Tally, Tracer, median, percentile, timing
from ..inputs import (
    FLEET_FRESH_EVERY,
    FLEET_HEAVY_EVERY,
    FLEET_REPLAY_POINTS,
    FLEET_TRACE_SEED,
    JobStream,
    fleet_traces,
)

WHY = (
    "Per-job replay work is small, so scheduler, dispatch, dedup and "
    "ledger cost are a large share of job latency."
)

WORKERS = 2
TENANTS = (
    TenantSpec("alpha", quota=2, priority=1.0),
    TenantSpec("beta", quota=1),
    TenantSpec("gamma", quota=1),
    TenantSpec("delta", quota=2, priority=0.5),
)
BUNCHES = 2000

GATE = {
    "work_per_s": "fleet_jobs_per_s",
    "op_p50_s": "fleet_job_p50_s",
    "op_tail_s": "fleet_job_p99_s",
}


class TimedContext(EvaluationContext):
    """Times every ``EvaluationContext.execute`` call."""

    def __init__(self, traces, tracer: Tracer) -> None:
        super().__init__(traces)
        self.tracer = tracer

    def execute(self, spec, *args, **kwargs):
        with self.tracer.span("fleet.context_execute"):
            return super().execute(spec, *args, **kwargs)


class TimedLedger(RunLedger):
    """Times the result-cache reads and writes and the job-row appends."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(":memory:")
        self.tracer = tracer

    def cache_get(self, cache_key):
        with self.tracer.span("host.ledger.cache_get"):
            return super().cache_get(cache_key)

    def cache_put(self, *args, **kwargs):
        with self.tracer.span("host.ledger.cache_put"):
            return super().cache_put(*args, **kwargs)

    def append(self, record):
        with self.tracer.span("host.ledger.record"):
            return super().append(record)


@dataclass
class JobRecord:
    job_id: str
    spec: JobSpec
    seconds: float
    result_bytes: bytes
    cache_hit: bool


@dataclass
class Phase:
    """One closed-loop drive of a fresh scheduler."""

    jobs: List[JobRecord] = field(default_factory=list)
    wall: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)


@dataclass
class State:
    seed: int
    traces: dict
    context: EvaluationContext
    ledger: RunLedger
    phases: List[Phase] = field(default_factory=list)

    def close(self) -> None:
        self.ledger.close()

    def sizes(self) -> dict:
        return {
            "workers": WORKERS,
            "tenants": [
                {"name": t.name, "quota": t.quota, "priority": t.priority}
                for t in TENANTS
            ],
            "trace_seed": FLEET_TRACE_SEED,
            "trace_bunches": BUNCHES,
            "trace_packages": {k: v.package_count for k, v in self.traces.items()},
            "fresh_every": FLEET_FRESH_EVERY,
            "heavy_every": FLEET_HEAVY_EVERY,
            "replay_points": len(FLEET_REPLAY_POINTS),
        }


def setup(seed: int) -> State:
    traces = fleet_traces(BUNCHES)
    context = EvaluationContext(traces)
    state = State(seed, traces, context, RunLedger(":memory:"))
    # Warm every job kind outside the scheduler, so no dedup key is used.
    for kind in ("replay", "grid", "search"):
        context.execute(JobSpec(
            kind=kind, trace="read-a", device="hdd-raid0", load=0.33,
            loads=(0.33,), time_scales=(0.77,), policies=("maid",),
        ))
    context.executions = 0
    return state


async def _drive(context, ledger, seed: int, seconds: float, tally: Tally,
                 watch=None) -> Phase:
    workers = local_worker_pool(WORKERS, context, mode="thread")
    sched = FleetScheduler(workers, context=context, ledger=ledger, tracing=False)
    for tenant in TENANTS:
        sched.register_tenant(tenant)
    if watch is not None:
        sched.watch(watch)
    await sched.start()
    stream = JobStream(seed)
    phase = Phase()

    async def client(tenant: str, deadline: float) -> None:
        while time.perf_counter() < deadline:
            spec = stream.next()
            tally.attempt()
            t0 = time.perf_counter()
            try:
                job = await sched.submit(spec, tenant)
                result = await job.future
            except Exception as exc:  # a failed job is counted, not fatal
                tally.fail(f"job-{tally.attempted}", f"raised {exc!r}")
                continue
            phase.jobs.append(JobRecord(
                job.job_id, spec, time.perf_counter() - t0,
                result.result_bytes, result.cache_hit,
            ))

    try:
        t0 = time.perf_counter()
        await asyncio.gather(*(client(t.name, t0 + seconds) for t in TENANTS))
        phase.wall = time.perf_counter() - t0
        phase.counters = {
            "completed": sched.completed, "failed": sched.failed,
            "executions": sched.executions_started,
            "cache_hits": sched.cache_hits, "inflight_hits": sched.inflight_hits,
        }
    finally:
        await sched.stop()
    return phase


def _report(phase: Phase) -> Dict[str, Metric]:
    n = len(phase.jobs)
    out = {"fleet_jobs_per_s": Metric(n / phase.wall, "jobs/s", n)}
    out.update(timing(
        "fleet_job_p50_s", [j.seconds for j in phase.jobs],
        tail=("fleet_job_p99_s", 99.0),
    ))
    c = phase.counters
    out["fleet.dedup_hit_share"] = Metric(
        (c["cache_hits"] + c["inflight_hits"]) / max(1, c["completed"]), "share",
        c["completed"],
    )
    out["fleet.executions"] = Metric(c["executions"], "count", 1)
    engines: Dict[str, int] = {}
    for job in phase.jobs:
        if job.spec.kind == "replay" and not job.cache_hit:
            engine = json.loads(job.result_bytes)["metadata"]["engine"]
            engines[engine] = engines.get(engine, 0) + 1
    out["fleet.fallback_jobs"] = Metric(
        sum(n for e, n in engines.items() if e != "kernel"), "count",
        sum(engines.values()), f"executed replay jobs by engine {engines}",
    )
    return out


def measure(state: State, seconds: float, tally: Tally) -> Dict[str, Metric]:
    phase = asyncio.run(_drive(state.context, state.ledger, state.seed, seconds, tally))
    state.phases.append(phase)
    return _report(phase)


def trace(state: State, seconds: float, tally: Tally, tracer: Tracer) -> Dict[str, Metric]:
    """An untraced phase, then a traced one of the same length: lifecycle
    events through ``FleetScheduler.watch``, plus timed subclasses of
    the evaluation context and the ledger."""
    half = seconds / 2
    untraced = asyncio.run(_drive(state.context, state.ledger, state.seed, half, tally))
    events: Dict[str, Dict[str, float]] = {}

    def watch(body: dict) -> None:
        job_id = body.get("job_id")
        if job_id is not None:
            events.setdefault(job_id, {})[body["event"]] = time.perf_counter()

    context = TimedContext(state.traces, tracer)
    ledger = TimedLedger(tracer)
    try:
        traced = asyncio.run(_drive(context, ledger, state.seed, half, tally, watch))
    finally:
        ledger.close()
    state.phases += [untraced, traced]

    waits = [e["dispatched"] - e["queued"] for e in events.values()
             if "queued" in e and "dispatched" in e]
    execs = [e["completed"] - e["dispatched"] for e in events.values()
             if "dispatched" in e and "completed" in e]
    per_job = traced.wall / len(traced.jobs)
    untraced_per_job = untraced.wall / len(untraced.jobs)

    def med(name: str) -> Metric:
        values = tracer.durations(name)
        return Metric(median(values), "s", len(values), "per call")

    out = {
        "fleet.queue_wait_p50_s": Metric(median(waits), "s", len(waits)),
        "fleet.queue_wait_p99_s": Metric(percentile(waits, 99.0), "s", len(waits)),
        "fleet.execute_p50_s": Metric(median(execs), "s", len(execs)),
        "fleet.execute_p99_s": Metric(percentile(execs, 99.0), "s", len(execs)),
        "fleet.context_execute_s": med("fleet.context_execute"),
        "fleet.worker_busy_share": Metric(
            sum(execs) / (WORKERS * traced.wall), "share", len(execs)
        ),
        "host.ledger.cache_get_s": med("host.ledger.cache_get"),
        "host.ledger.cache_put_s": med("host.ledger.cache_put"),
        "host.ledger.record_s": med("host.ledger.record"),
        "bench.trace_overhead_s": Metric(
            per_job - untraced_per_job, "s", len(traced.jobs),
            f"wall per job, traced vs untraced phase ({len(untraced.jobs)} jobs)",
        ),
        "bench.trace_overhead_share": Metric(
            per_job / untraced_per_job - 1.0, "share", len(traced.jobs),
        ),
    }
    out.update(_report(traced))
    return out


def check(state: State, tally: Tally) -> None:
    """Every job's bytes against ``canonical_result_bytes`` of a serial
    ``EvaluationContext.execute`` of its spec."""
    reference = EvaluationContext(state.traces)
    expected: Dict[str, bytes] = {}
    for p, phase in enumerate(state.phases):
        for job in phase.jobs:
            key = json.dumps(job.spec.to_dict(), sort_keys=True)
            if key not in expected:
                expected[key] = canonical_result_bytes(reference.execute(job.spec))
            if job.result_bytes != expected[key]:
                tally.fail(f"{p}/{job.job_id}", "result differs from a serial execution")
