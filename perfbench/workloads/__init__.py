"""The four workloads, by name.

Each module exposes ``WHY`` (why the workload was chosen), ``GATE``
(gated end-to-end metric → the workload's own report metric),
``setup(seed)`` returning the state (with ``sizes()``),
``measure(state, seconds, tally)`` and ``trace(state, seconds, tally,
tracer)`` returning the report metrics, and ``check(state, tally)``,
which runs outside the timed region.
"""

from . import fleet, grid, point, search

WORKLOADS = {
    "point-replay": point,
    "grid-raid5-mixed": grid,
    "search-read": search,
    "fleet-tenants": fleet,
}
