"""``point-replay``: one closed-loop client replaying single points.

Every op decodes trace bytes (``loads_packed``) and runs
``replay_trace`` on a fresh ``hdd-raid5x6`` array.  Kernel ops replay a
clean array with a 5k-bunch, 40%-write trace; event ops replay a
1k-bunch trace of the same shape with a mid-run ``DiskFailFault``,
which keeps them on the event engine by design.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.config import ReplayConfig
from repro.core.loadcontrol import LoadController
from repro.core.timescale import TimeScaler
from repro.faults.schedule import DiskFailFault, FaultSchedule
from repro.replay.session import ReplaySession, replay_trace
from repro.sim.engine import Simulator
from repro.sim.kernel import try_kernel_replay
from repro.storage.array import build_hdd_raid5
from repro.storage.raid import expand_flights
from repro.trace.blktrace import dumps_packed, loads_packed

from ..harness import Metric, Tally, Tracer, median, timing
from ..inputs import POINT_LOADS, rmw_trace, rng_for
from .common import attempt, canonical, repeat_until

WHY = (
    "The single-replay pipeline is the blocking path: decode, filter, RAID "
    "expansion, RMW fixpoint, power integration and the event calendar."
)

KERNEL_TRACES = 2
KERNEL_BUNCHES = 5000
EVENT_BUNCHES = 1000
WRITE_PCT = 40
GAP = 5e-3

#: Gate metric → report metric.
GATE = {
    "work_per_s": "point_pkgs_per_s",
    "op_p50_s": "point_kernel_p50_s",
    "op_tail_s": "point_kernel_p90_s",
}


def _device():
    return build_hdd_raid5(6)


@dataclass
class OpRecord:
    op_id: str
    kind: str  # "kernel" | "event"
    trace: int
    load: float
    seconds: float
    packages: int
    canon: str
    metadata: dict


@dataclass
class State:
    seed: int
    kernel_blobs: List[bytes]
    event_blob: bytes
    faults: FaultSchedule
    records: List[OpRecord] = field(default_factory=list)

    def cycle(self, index: int) -> list:
        """One cycle: every kernel trace at every load, then one event
        op whose load rotates from cycle to cycle."""
        ops = [
            ("kernel", k, load)
            for k in range(KERNEL_TRACES) for load in POINT_LOADS
        ]
        ops.append(("event", 0, POINT_LOADS[index % len(POINT_LOADS)]))
        return ops

    def decode(self, kind: str, k: int):
        if kind == "kernel":
            return loads_packed(self.kernel_blobs[k], label=f"mixed-{k}")
        return loads_packed(self.event_blob, label="degraded")

    def replay(self, kind: str, k: int, load: float):
        trace = self.decode(kind, k)
        faults = self.faults if kind == "event" else None
        return replay_trace(trace, _device(), load, faults=faults)

    def sizes(self) -> dict:
        return {
            "kernel_traces": KERNEL_TRACES,
            "kernel_bunches": KERNEL_BUNCHES,
            "kernel_packages": [
                loads_packed(b).package_count for b in self.kernel_blobs
            ],
            "event_bunches": EVENT_BUNCHES,
            "write_pct": WRITE_PCT,
            "loads": list(POINT_LOADS),
        }


def setup(seed: int) -> State:
    kernel_blobs = [
        dumps_packed(
            rmw_trace(rng_for(seed, 10, k), KERNEL_BUNCHES, WRITE_PCT, GAP, f"mixed-{k}")
        )
        for k in range(KERNEL_TRACES)
    ]
    event_blob = dumps_packed(
        rmw_trace(rng_for(seed, 11), EVENT_BUNCHES, WRITE_PCT, GAP, "degraded")
    )
    span = float(loads_packed(event_blob).timestamps[-1])
    faults = FaultSchedule(
        seed=seed,
        disk_failures=(DiskFailFault(at=span / 2, member=seed % 6),),
    )
    state = State(seed, kernel_blobs, event_blob, faults)
    # Warm imports and allocators on both engines.
    state.replay("kernel", 0, POINT_LOADS[0])
    state.replay("event", 0, POINT_LOADS[0])
    return state


def _loop(state: State, seconds: float, tally: Tally, op) -> None:
    """Run whole cycles of ops (see :meth:`State.cycle`)."""
    seq = itertools.count()
    index = itertools.count()

    def cycle() -> None:
        for kind, k, load in state.cycle(next(index)):
            op_id = f"{kind}-{next(seq)}"
            record = attempt(tally, op_id, lambda: op(op_id, kind, k, load))
            if record is not None:
                state.records.append(record)

    repeat_until(seconds, cycle)


def _record(op_id, kind, k, load, seconds, result) -> OpRecord:
    return OpRecord(
        op_id, kind, k, load, seconds, result.completed,
        canonical(result), dict(result.metadata),
    )


def _report(state: State) -> Dict[str, Metric]:
    kernel = [r for r in state.records if r.kind == "kernel"]
    event = [r for r in state.records if r.kind == "event"]

    def rate(recs):
        return Metric(
            sum(r.packages for r in recs) / sum(r.seconds for r in recs),
            "pkgs/s", len(recs),
        )

    out = {
        "point_pkgs_per_s": rate(kernel + event),
        "point_kernel_pkgs_per_s": rate(kernel),
    }
    out.update(timing(
        "point_kernel_p50_s", [r.seconds for r in kernel],
        tail=("point_kernel_p90_s", 90.0),
    ))
    out["point_event_pkgs_per_s"] = rate(event)
    out.update(timing("point_event_p50_s", [r.seconds for r in event]))
    engines: Dict[str, int] = {}
    for r in kernel:
        engine = r.metadata.get("engine", "?")
        engines[engine] = engines.get(engine, 0) + 1
    out["point_kernel_engine_share"] = Metric(
        engines.get("kernel", 0) / len(kernel), "share", len(kernel),
        f"engines {engines}",
    )
    return out


def measure(state: State, seconds: float, tally: Tally) -> Dict[str, Metric]:
    def op(op_id, kind, k, load):
        t0 = time.perf_counter()
        result = state.replay(kind, k, load)
        return _record(op_id, kind, k, load, time.perf_counter() - t0, result)

    _loop(state, seconds, tally, op)
    return _report(state)


def trace(state: State, seconds: float, tally: Tally, tracer: Tracer) -> Dict[str, Metric]:
    """Decompose each op into timed calls on each layer's public API."""
    cfg = ReplayConfig()
    counts = {"packages": 0, "rmw_flights": 0, "subios": 0,
              "kernel_attempts": 0, "kernel_declines": 0,
              "event_ops": 0, "event_declines": 0, "untraced_s": 0.0}
    declines: Dict[str, int] = {}
    event_declines: Dict[str, int] = {}
    events: List[int] = []
    windows: List[int] = []
    overhead: List[float] = []

    def kernel_op(op_id, k, load):
        with tracer.span("op", kind="kernel") as op_span:
            with tracer.span("trace.decode") as s_decode:
                trace = state.decode("kernel", k)
            with tracer.span("replay.session") as s_session:
                result = replay_trace(trace, _device(), load)
            with tracer.span("core.filter"):
                filtered = LoadController(group_size=cfg.group_size).apply(trace, load)
                if cfg.time_scale != 1.0:
                    filtered = TimeScaler(cfg.time_scale).apply(filtered)
            device = _device()
            pk = filtered.packages
            with tracer.span("storage.expand"):
                exp = expand_flights(device.geometry, pk["sector"], pk["nbytes"], pk["op"])
            counts["packages"] += len(pk)
            counts["rmw_flights"] += int((exp.pre_counts > 0).sum())
            counts["subios"] += exp.total
            counts["kernel_attempts"] += 1
            with tracer.span("sim.kernel.replay"):
                outcome, reason = try_kernel_replay(
                    Simulator(), filtered, device, sampling_cycle=cfg.sampling_cycle
                )
            if outcome is None:
                counts["kernel_declines"] += 1
                declines[reason] = declines.get(reason, 0) + 1
            else:
                with tracer.span("power.window"):
                    energies = [
                        device.energy_between(s.start, s.end)
                        for s in result.power_samples
                    ]
                windows.append(len(energies))
                if energies != [s.energy_joules for s in result.power_samples]:
                    tally.fail(op_id, "window energies differ from the replay's power samples")
        untraced = (s_decode["end"] - s_decode["start"]) + (s_session["end"] - s_session["start"])
        return op_span, untraced, result

    def event_op(op_id, load):
        with tracer.span("op", kind="event") as op_span:
            with tracer.span("event.decode") as s_decode:
                trace = state.decode("event", 0)
            sim = Simulator()
            with tracer.span("sim.engine.replay") as s_run:
                result = ReplaySession(_device(), faults=state.faults).run(trace, load, sim=sim)
            events.append(sim.events_processed)
        counts["event_ops"] += 1
        reason = result.metadata.get("engine_fallback")
        if reason:
            counts["event_declines"] += 1
            event_declines[reason] = event_declines.get(reason, 0) + 1
        untraced = (s_decode["end"] - s_decode["start"]) + (s_run["end"] - s_run["start"])
        return op_span, untraced, result

    def op(op_id, kind, k, load):
        if kind == "kernel":
            op_span, untraced, result = kernel_op(op_id, k, load)
        else:
            op_span, untraced, result = event_op(op_id, load)
        wall = op_span["end"] - op_span["start"]
        overhead.append(wall - untraced)
        counts["untraced_s"] += untraced
        return _record(op_id, kind, k, load, untraced, result)

    _loop(state, seconds, tally, op)

    def med(name):
        values = tracer.durations(name)
        return Metric(median(values), "s", len(values))

    engine_s = tracer.durations("sim.engine.replay")
    n_k = counts["kernel_attempts"]
    out = {
        "trace.decode_s": med("trace.decode"),
        "core.filter_s": med("core.filter"),
        "storage.expand_s": med("storage.expand"),
        "storage.flights_per_pkg": Metric(
            counts["rmw_flights"] / counts["packages"], "count", n_k,
            "read-modify-write flights per package",
        ),
        "storage.subios_per_pkg": Metric(
            counts["subios"] / counts["packages"], "count", n_k,
        ),
        "sim.kernel.replay_s": med("sim.kernel.replay"),
        "sim.kernel.decline_share": Metric(
            counts["kernel_declines"] / n_k, "share", n_k,
            f"reasons {declines}",
        ),
        "sim.kernel.event_op_decline_share": Metric(
            counts["event_declines"] / counts["event_ops"], "share",
            counts["event_ops"], f"reasons {event_declines}",
        ),
        "sim.engine.replay_s": med("sim.engine.replay"),
        "sim.engine.events": Metric(median(events), "count", len(events)),
        "sim.engine.events_per_s": Metric(sum(events) / sum(engine_s), "1/s", len(events)),
        "power.window_s": med("power.window"),
        "power.windows": Metric(median(windows), "count", len(windows)),
        "replay.session_s": med("replay.session"),
        "bench.trace_overhead_s": Metric(median(overhead), "s", len(overhead)),
        "bench.trace_overhead_share": Metric(
            sum(overhead) / counts["untraced_s"], "share", len(overhead),
        ),
    }
    out.update(_report(state))
    return out


def check(state: State, tally: Tally) -> None:
    """Kernel ops against an event-engine replay of the same op; event
    ops against a fresh replay of the same op, degraded as designed."""
    oracle: Dict[tuple, str] = {}
    for r in state.records:
        key = (r.kind, r.trace, r.load)
        if key not in oracle:
            trace = state.decode(r.kind, r.trace)
            if r.kind == "kernel":
                ref = replay_trace(trace, _device(), r.load, engine="event")
            else:
                ref = replay_trace(trace, _device(), r.load, faults=state.faults)
            oracle[key] = canonical(ref)
        if r.canon != oracle[key]:
            tally.fail(r.op_id, f"result differs from the {r.kind} oracle")
        if r.kind == "event" and not (
            r.metadata.get("engine") == "event"
            and r.metadata.get("engine_fallback") == "fault injection active"
            and r.metadata.get("degraded_requests", 0) > 0
        ):
            tally.fail(r.op_id, f"event op did not run degraded: {r.metadata}")
