"""``grid-raid5-mixed``: one in-process ``run_grid`` call per op over the
ROADMAP's convergence matrix (5k-bunch 60%-read trace at seed 12 on
``hdd-raid5x6``, loads {0.5, 1.0} × 32 time scales from 0.5 to 2.0).

The matrix is pinned and does not depend on the run seed, so the cells
whose RMW fixpoint does not converge stay in it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from repro.config import ReplayConfig
from repro.replay.session import replay_trace
from repro.sim.grid import GridCell, evaluate_grid_cells
from repro.storage.array import build_hdd_raid5
from repro.workload.parallel import run_grid

from ..harness import Metric, Tally, Tracer, median, timing
from ..inputs import GRID_LOADS, GRID_TIME_SCALES, GRID_TRACE_SEED, grid_trace
from .common import attempt, canonical, digest, repeat_until

WHY = (
    "The batched (P, n) RMW fixpoint does the work; its non-converging "
    "cells each pay an event replay, so convergence work shows here."
)

DEVICE = "hdd-raid5x6"
TRACE = "grid-read60"
BUNCHES = 5000
READ_PCT = 60

GATE = {
    "work_per_s": "grid_cells_per_s",
    "op_p50_s": "grid_call_p50_s",
    "op_tail_s": "grid_call_p90_s",
}


@dataclass
class State:
    seed: int
    trace: object
    time_scales: tuple
    devices: dict = field(default_factory=lambda: {DEVICE: partial(build_hdd_raid5, 6)})
    #: The first call's outcome, kept whole for the check; later calls
    #: keep only a digest and their fallback count.
    first: Optional[object] = None
    digests: List[str] = field(default_factory=list)
    fallback: List[int] = field(default_factory=list)
    cells: int = 0
    seconds: List[float] = field(default_factory=list)

    def keep(self, seconds: float, outcome) -> None:
        self.seconds.append(seconds)
        self.cells += len(outcome.cells)
        self.fallback.append(sum(c.engine != "kernel" for c in outcome.cells))
        self.digests.append(digest(outcome.to_dict(deterministic=True)))
        if self.first is None:
            self.first = outcome

    def run(self, loads=GRID_LOADS, time_scales=None):
        return run_grid(
            {TRACE: self.trace}, self.devices, loads=loads,
            time_scales=self.time_scales if time_scales is None else time_scales,
            parallel=False,
        )

    def sizes(self) -> dict:
        return {
            "bunches": BUNCHES, "read_pct": READ_PCT,
            "trace_seed": GRID_TRACE_SEED,
            "packages": self.trace.package_count,
            "loads": list(GRID_LOADS), "time_scales": list(self.time_scales),
            "cells": len(GRID_LOADS) * len(self.time_scales),
        }


def setup(seed: int) -> State:
    state = State(
        seed, grid_trace(BUNCHES, READ_PCT, GRID_TRACE_SEED, TRACE), GRID_TIME_SCALES,
    )
    state.run(loads=(1.0,), time_scales=(2.0,))  # warm the fused path
    return state


def _report(state: State) -> Dict[str, Metric]:
    calls = len(state.seconds)
    reasons = state.first.fallback_reasons if state.first is not None else {}
    out = {"grid_cells_per_s": Metric(state.cells / sum(state.seconds), "cells/s", calls)}
    out.update(timing("grid_call_p50_s", state.seconds, tail=("grid_call_p90_s", 90.0)))
    out["workload.parallel.fallback_cells"] = Metric(
        median(state.fallback), "count", calls,
        f"{len(set(reasons.values()))} reason(s): {sorted(set(reasons.values()))}",
    )
    return out


def measure(state: State, seconds: float, tally: Tally) -> Dict[str, Metric]:
    def op():
        t0 = time.perf_counter()
        outcome = state.run()
        state.keep(time.perf_counter() - t0, outcome)

    repeat_until(seconds, lambda: attempt(tally, f"raised-{tally.attempted}", op))
    return _report(state)


def trace(state: State, seconds: float, tally: Tally, tracer: Tracer) -> Dict[str, Metric]:
    face = [GridCell(load, ts) for load in GRID_LOADS for ts in state.time_scales]
    fused: List[int] = []
    declined: List[int] = []
    reasons: Dict[str, int] = {}
    overhead: List[float] = []

    def op():
        with tracer.span("op") as op_span:
            with tracer.span("workload.parallel.run_grid") as s_grid:
                outcome = state.run()
            for factory in state.devices.values():
                with tracer.span("sim.grid.evaluate"):
                    evals = evaluate_grid_cells(
                        state.trace, factory(), face, config=ReplayConfig()
                    )
                fused.append(sum(ev.result is not None for ev in evals))
                declined.append(sum(ev.result is None for ev in evals))
                for ev in evals:
                    if ev.result is None:
                        reasons[ev.unfused] = reasons.get(ev.unfused, 0) + 1
        untraced = s_grid["end"] - s_grid["start"]
        state.keep(untraced, outcome)
        overhead.append(op_span["end"] - op_span["start"] - untraced)

    repeat_until(seconds, lambda: attempt(tally, f"raised-{tally.attempted}", op))
    run_grid_s = tracer.durations("workload.parallel.run_grid")
    evaluate_s = tracer.durations("sim.grid.evaluate")
    out = {
        "workload.parallel.run_grid_s": Metric(median(run_grid_s), "s", len(run_grid_s)),
        "sim.grid.evaluate_s": Metric(median(evaluate_s), "s", len(evaluate_s)),
        "sim.grid.fused_cells": Metric(median(fused), "count", len(fused)),
        "sim.grid.declined_cells": Metric(
            median(declined), "count", len(declined), f"reasons {reasons}"
        ),
        "bench.trace_overhead_s": Metric(median(overhead), "s", len(overhead)),
        "bench.trace_overhead_share": Metric(
            sum(overhead) / sum(run_grid_s), "share", len(overhead)
        ),
    }
    out.update(_report(state))
    return out


def check(state: State, tally: Tally) -> None:
    """Every cell of the first call against its per-point replay (kernel
    where the grid used the kernel, event otherwise); every later call
    must serialise to the same bytes as the first."""
    if state.first is None:
        return
    mismatched = [
        cell.key for cell in state.first.cells
        if canonical(cell.result) != canonical(replay_trace(
            state.trace, state.devices[cell.device](), cell.load,
            config=ReplayConfig(time_scale=cell.time_scale),
            engine="kernel" if cell.engine == "kernel" else "event",
        ))
    ]
    for i, value in enumerate(state.digests):
        if mismatched:
            tally.fail(f"call-{i}", f"cells differ from per-point replay: {mismatched}")
        elif value != state.digests[0]:
            tally.fail(f"call-{i}", "outcome differs from the first call")
