"""Seeded input generators.

Every generator is a pure function of its arguments: the same seed
gives byte-identical traces and the same job stream.  The program only
ever sees what these return.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.fleet import JobSpec
from repro.trace.packed import PACKED_PACKAGE_DTYPE, PackedTrace

#: Load proportions every point-replay op cycles over.
POINT_LOADS = (0.25, 0.5, 0.75, 1.0)

#: The ROADMAP's convergence matrix for the mixed-write grid.  It is
#: pinned, run seed included: on it, four cells do not converge in the
#: RMW fixpoint and fall back to the event engine, and the benchmark must
#: keep that visible.
GRID_TRACE_SEED = 12
GRID_LOADS = (0.5, 1.0)
GRID_TIME_SCALES = tuple(round(0.5 + 1.5 * i / 31, 4) for i in range(32))

SEARCH_LOADS = (0.5, 1.0)
SEARCH_TIME_SCALES = tuple(round(0.5 + 1.5 * i / 7, 4) for i in range(8))
SEARCH_POLICIES = ("maid", "drpm", "pdc", "eraid")


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, stream) pair."""
    return np.random.default_rng([seed, *stream])


def rmw_trace(
    rng: np.random.Generator, n_bunches: int, write_pct: int, gap: float,
    label: str,
) -> PackedTrace:
    """Mixed-write trace whose sub-stripe writes plan as RAID-5
    read-modify-write flights: 1-8 packages per bunch, 0.5-31.5 KiB
    requests over a 128 GiB span, uniform gaps with mean ``gap / 2``."""
    sizes = rng.integers(1, 9, n_bunches)
    offsets = np.zeros(n_bunches + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    packages = np.empty(total, dtype=PACKED_PACKAGE_DTYPE)
    packages["sector"] = rng.integers(0, 1 << 28, total)
    packages["nbytes"] = rng.integers(1, 64, total) * 512
    packages["op"] = (rng.random(total) * 100 < write_pct).astype(np.int64)
    timestamps = np.cumsum(rng.random(n_bunches)) * gap
    return PackedTrace(timestamps, offsets, packages, label=label)


def grid_trace(n_bunches: int, read_pct: int, seed: int, label: str = "") -> PackedTrace:
    """Three 64 KiB packages per bunch over a 2 GiB span, exponential
    gaps with mean 4 ms, ``read_pct`` percent reads."""
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
        timestamps, offsets, packages, label=label or f"grid-read{read_pct}"
    )


def derived_seed(seed: int, *stream: int) -> int:
    return int(rng_for(seed, *stream).integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# Fleet job stream

#: (trace label, device kind) pairs fleet jobs draw from: mixed-write
#: traces on RAID-5 (RMW kernel path), read traces on RAID-0 and RAID-5.
FLEET_TARGETS = (
    ("mixed-a", "hdd-raid5"),
    ("mixed-b", "hdd-raid5"),
    ("read-a", "hdd-raid0"),
    ("read-b", "hdd-raid5"),
)

#: The fleet's traces are pinned like the grid's matrix: the job stream
#: varies with the run seed, the traces do not.  Which (load, time-scale)
#: points of a mixed-write trace miss the RMW fixpoint depends on the
#: trace, and each such replay costs ~0.5 s of event engine, so traces
#: drawn per seed would make job throughput a function of the seed.
FLEET_TRACE_SEED = 12

#: Every third job is a fresh spec; the rest repeat an earlier spec and
#: are dedup hits.
FLEET_FRESH_EVERY = 3
#: Among fresh specs, one in this many is a grid job and one a search job
#: (coprime with the four targets, so both rotate over every target).
FLEET_HEAVY_EVERY = 13
#: Replay points per target.  Fresh replays of a target go through all of
#: them in a seeded order before any repeats with the next ``JobSpec.seed``
#: (which keeps the spec, and its dedup key, new), so every run covers
#: the same points in the same proportions.
FLEET_REPLAY_POINTS = tuple(
    (load, scale) for load in (0.25, 0.5, 0.75, 1.0) for scale in (0.5, 0.75, 1.0, 1.5)
)
FLEET_GRID_SCALES = (0.8, 1.0, 1.25, 1.6)


def fleet_traces(n_bunches: int = 2000) -> dict:
    seed = FLEET_TRACE_SEED
    return {
        "mixed-a": rmw_trace(rng_for(seed, 40, 0), n_bunches, 40, 5e-3, "mixed-a"),
        "mixed-b": rmw_trace(rng_for(seed, 40, 1), n_bunches, 40, 5e-3, "mixed-b"),
        "read-a": grid_trace(n_bunches, 100, derived_seed(seed, 40, 2), "read-a"),
        "read-b": grid_trace(n_bunches, 90, derived_seed(seed, 40, 3), "read-b"),
    }


class _Deck:
    """Deals every value once per round in a seeded order; ``round`` counts
    completed rounds."""

    def __init__(self, values, rng: np.random.Generator) -> None:
        self._values, self._rng, self._order = tuple(values), rng, []
        self.round = -1

    def draw(self):
        if not self._order:
            self._order = list(self._rng.permutation(len(self._values)))
            self.round += 1
        return self._values[self._order.pop()]


class JobStream:
    """Deterministic job sequence: the i-th spec depends only on the seed.

    Every :data:`FLEET_FRESH_EVERY`-th job is a spec never submitted
    before; the others repeat a uniformly chosen earlier spec, which is a
    cache hit or attaches to an in-flight leader.  Fresh specs rotate
    over the (trace, device) targets, and each target deals its replay
    points and grid scales from seeded decks.
    """

    def __init__(self, seed: int) -> None:
        self._rng = rng_for(seed, 41)
        self._points = [
            _Deck(FLEET_REPLAY_POINTS, rng_for(seed, 42, t)) for t in range(len(FLEET_TARGETS))
        ]
        self._scales = [
            _Deck(FLEET_GRID_SCALES, rng_for(seed, 43, t)) for t in range(len(FLEET_TARGETS))
        ]
        self._history: List[JobSpec] = []
        self._fresh_count = 0

    def _fresh(self) -> JobSpec:
        f = self._fresh_count
        self._fresh_count += 1
        target = f % len(FLEET_TARGETS)
        trace, device = FLEET_TARGETS[target]
        slot = f % FLEET_HEAVY_EVERY
        if slot in (FLEET_HEAVY_EVERY // 2, FLEET_HEAVY_EVERY - 1):
            deck = self._scales[target]
            scale = deck.draw()
            if slot == FLEET_HEAVY_EVERY // 2:
                return JobSpec(kind="grid", trace=trace, device=device,
                               loads=(0.5, 1.0), time_scales=(scale, 2.0),
                               seed=deck.round)
            return JobSpec(kind="search", trace=trace, device=device,
                           loads=(1.0,), time_scales=(scale,),
                           policies=("maid", "drpm"), seed=deck.round)
        deck = self._points[target]
        load, scale = deck.draw()
        return JobSpec(kind="replay", trace=trace, device=device,
                       load=load, time_scale=scale, seed=deck.round)

    def next(self) -> JobSpec:
        if len(self._history) % FLEET_FRESH_EVERY == 0:
            spec = self._fresh()
        else:
            spec = self._history[int(self._rng.integers(len(self._history)))]
        self._history.append(spec)
        return spec
