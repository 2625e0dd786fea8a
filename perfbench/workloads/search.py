"""``search-read``: ``run_policy_search`` with MAID, DRPM, PDC and eRAID
over two read-path faces — a 5k-bunch read-only trace on ``hdd-raid5x6``
and a 5k-bunch 90%-read trace on ``hdd-raid0`` — each across loads
{0.5, 1.0} × 8 time scales.  One op searches both faces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import ReplayConfig
from repro.fleet import device_factory
from repro.search import build_policies, evaluate_search, verify_search
from repro.sim.grid import GridCell, evaluate_grid_cells
from repro.workload.parallel import run_grid, run_policy_search

from ..harness import Metric, Tally, Tracer, median, timing
from ..inputs import (
    SEARCH_LOADS,
    SEARCH_POLICIES,
    SEARCH_TIME_SCALES,
    derived_seed,
    grid_trace,
)
from .common import attempt, digest, repeat_until

WHY = (
    "Read-only policy search: no RMW flights, so the work is the grid's "
    "Lindley batch plus the energy-policy post-pass."
)

BUNCHES = 5000
#: (device name, fleet device kind, trace label, read percent)
FACES = (
    ("hdd-raid5x6", "hdd-raid5", "read100", 100),
    ("hdd-raid0", "hdd-raid0", "read90", 90),
)

GATE = {
    "work_per_s": "search_scored_cells_per_s",
    "op_p50_s": "search_call_p50_s",
    "op_tail_s": "search_call_p90_s",
}


@dataclass
class State:
    seed: int
    traces: Dict[str, object]
    #: The first op's outcomes, kept whole for the check; later ops keep
    #: only a digest, so memory does not grow with the op count.
    first: Optional[list] = None
    digests: List[str] = field(default_factory=list)
    scored: int = 0
    seconds: List[float] = field(default_factory=list)

    def keep(self, seconds: float, outcomes: list) -> None:
        self.seconds.append(seconds)
        self.scored += sum(len(o.cells) for o in outcomes)
        self.digests.append(digest([o.to_dict(deterministic=True) for o in outcomes]))
        if self.first is None:
            self.first = outcomes

    def face(self, device: str, kind: str, label: str):
        return {label: self.traces[label]}, {device: device_factory(kind, 6)}

    def search(self, loads=SEARCH_LOADS, time_scales=SEARCH_TIME_SCALES) -> list:
        outcomes = []
        for device, kind, label, _ in FACES:
            traces, devices = self.face(device, kind, label)
            outcomes.append(run_policy_search(
                traces, devices, build_policies(SEARCH_POLICIES),
                loads=loads, time_scales=time_scales, parallel=False,
            ))
        return outcomes

    def sizes(self) -> dict:
        return {
            "faces": [
                {"device": d, "trace": t, "read_pct": r, "bunches": BUNCHES,
                 "packages": self.traces[t].package_count}
                for d, _, t, r in FACES
            ],
            "loads": list(SEARCH_LOADS),
            "time_scales": list(SEARCH_TIME_SCALES),
            "policies": list(SEARCH_POLICIES),
        }


def setup(seed: int) -> State:
    traces = {
        label: grid_trace(BUNCHES, read_pct, derived_seed(seed, 30, read_pct), label)
        for _, _, label, read_pct in FACES
    }
    state = State(seed, traces)
    state.search(loads=(1.0,), time_scales=(1.0,))  # warm every path
    return state


def _report(state: State) -> Dict[str, Metric]:
    out = {
        "search_scored_cells_per_s": Metric(
            state.scored / sum(state.seconds), "cells/s", len(state.seconds),
        )
    }
    out.update(timing("search_call_p50_s", state.seconds, tail=("search_call_p90_s", 90.0)))
    return out


def measure(state: State, seconds: float, tally: Tally) -> Dict[str, Metric]:
    def op():
        t0 = time.perf_counter()
        outcomes = state.search()
        state.keep(time.perf_counter() - t0, outcomes)

    repeat_until(seconds, lambda: attempt(tally, f"raised-{tally.attempted}", op))
    return _report(state)


def trace(state: State, seconds: float, tally: Tally, tracer: Tracer) -> Dict[str, Metric]:
    """Each face as the calls ``run_policy_search`` is made of
    (``run_grid`` with captures, then ``evaluate_search``), plus the
    fused grid evaluation and each policy's ``evaluate`` on its own."""
    cfg = ReplayConfig()
    cells = [GridCell(load, ts) for load in SEARCH_LOADS for ts in SEARCH_TIME_SCALES]
    per_op: Dict[str, List[float]] = {}
    overhead: List[float] = []

    def add(name: str, seconds: float) -> None:
        per_op.setdefault(name, [0.0])[-1] += seconds

    def op():
        for values in per_op.values():
            values.append(0.0)
        outcomes = []
        untraced = 0.0
        with tracer.span("op") as op_span:
            for device, kind, label, _ in FACES:
                traces, devices = state.face(device, kind, label)
                policies = build_policies(SEARCH_POLICIES)
                with tracer.span("workload.parallel.run_grid") as s:
                    grid = run_grid(
                        traces, devices, loads=SEARCH_LOADS,
                        time_scales=SEARCH_TIME_SCALES, parallel=False,
                        capture=True,
                    )
                untraced += s["end"] - s["start"]
                add("workload.parallel.run_grid_s", s["end"] - s["start"])
                with tracer.span("search.score") as s:
                    outcomes.append(evaluate_search(grid, policies, devices))
                untraced += s["end"] - s["start"]
                add("search.score_s", s["end"] - s["start"])
                with tracer.span("sim.grid.evaluate") as s:
                    evals = evaluate_grid_cells(
                        traces[label], devices[device](), cells,
                        config=cfg, capture=True,
                    )
                add("sim.grid.evaluate_s", s["end"] - s["start"])
                add("sim.grid.fused_cells", sum(ev.result is not None for ev in evals))
                add("sim.grid.declined_cells", sum(ev.result is None for ev in evals))
                add("workload.parallel.fallback_cells", sum(c.engine != "kernel" for c in grid.cells))
                probe = devices[device]()
                for policy in policies:
                    policy.configure(probe)
                    name = f"energysaving.{policy.name}.evaluate"
                    for gcell in grid.cells:
                        with tracer.span(name) as s:
                            policy.evaluate(
                                gcell.capture, sampling_cycle=cfg.sampling_cycle
                            )
                        add(f"{name}_s", s["end"] - s["start"])
        state.keep(untraced, outcomes)
        overhead.append(op_span["end"] - op_span["start"] - untraced)

    repeat_until(seconds, lambda: attempt(tally, f"raised-{tally.attempted}", op))
    out = {
        name: Metric(median(values), "s" if name.endswith("_s") else "count",
                     len(values), "per op, both faces")
        for name, values in sorted(per_op.items())
    }
    out["bench.trace_overhead_s"] = Metric(median(overhead), "s", len(overhead))
    out["bench.trace_overhead_share"] = Metric(
        sum(overhead) / sum(state.seconds), "share", len(overhead)
    )
    out.update(_report(state))
    return out


def check(state: State, tally: Tally) -> None:
    """The first op's faces through ``verify_search`` (every base cell
    replayed per point and re-scored); every later op must serialise to
    the same bytes as the first."""
    if state.first is None:
        return
    mismatches = []
    for (device, kind, label, _), outcome in zip(FACES, state.first):
        traces, devices = state.face(device, kind, label)
        mismatches += verify_search(
            outcome, traces, devices, build_policies(SEARCH_POLICIES)
        )
    for i, value in enumerate(state.digests):
        if mismatches:
            tally.fail(f"call-{i}", f"{len(mismatches)} cells differ: {mismatches[:3]}")
        elif value != state.digests[0]:
            tally.fail(f"call-{i}", "outcome differs from the first call")
