"""Output checks count mismatches and raised operations as failures."""

from dataclasses import replace

from perfbench.harness import Tally
from perfbench.inputs import grid_trace, rmw_trace, rng_for
from perfbench.workloads import grid, point
from perfbench.workloads.common import attempt, canonical, repeat_until
from repro.faults.schedule import DiskFailFault, FaultSchedule
from repro.trace.blktrace import dumps_packed


def _small_point_state():
    blob = dumps_packed(rmw_trace(rng_for(1, 10, 0), 150, 40, 5e-3, "mixed-0"))
    event = dumps_packed(rmw_trace(rng_for(1, 11), 150, 40, 5e-3, "degraded"))
    faults = FaultSchedule(disk_failures=(DiskFailFault(at=0.1, member=1),))
    return point.State(1, [blob], event, faults)


def test_point_check_counts_an_output_mismatch():
    state = _small_point_state()
    for i, (kind, load) in enumerate([("kernel", 1.0), ("kernel", 0.5), ("event", 1.0)]):
        result = state.replay(kind, 0, load)
        state.records.append(point._record(f"{kind}-{i}", kind, 0, load, 0.1, result))
    tally = Tally()
    tally.attempt(3)
    point.check(state, tally)
    assert tally.failed == 0
    state.records[1].canon = state.records[1].canon.replace('"completed": ', '"completed": 1')
    point.check(state, tally)
    assert tally.failed == 1 and "kernel-1" in tally.reasons
    assert tally.failed_share == 1 / 3


def test_grid_check_counts_a_cell_that_differs_from_per_point_replay():
    state = grid.State(1, grid_trace(120, 60, 12, grid.TRACE), (1.0, 1.5))
    state.keep(1.0, state.run(loads=(1.0,)))
    tally = Tally()
    tally.attempt()
    grid.check(state, tally)
    assert tally.failed == 0
    cell = state.first.cells[0]
    cell.result = replace(cell.result, energy_joules=cell.result.energy_joules + 1.0)
    grid.check(state, tally)
    assert tally.failed == 1


def test_canonical_ignores_engine_provenance_only():
    state = _small_point_state()
    result = state.replay("kernel", 0, 1.0)
    other = replace(result, metadata={**result.metadata, "engine": "event"})
    assert canonical(result) == canonical(other)
    assert canonical(result) != canonical(replace(result, completed=result.completed + 1))


def test_a_raising_operation_is_counted_as_failed():
    def boom():
        raise RuntimeError("boom")

    tally = Tally()
    assert attempt(tally, "op-0", boom) is None
    assert attempt(tally, "op-1", lambda: 7) == 7
    assert tally.attempted == 2 and tally.failed == 1
    assert "boom" in tally.reasons["op-0"]


def test_repeat_until_runs_at_least_once_and_stops():
    calls = []
    repeat_until(0.0, lambda: calls.append(1))
    assert calls == [1]
