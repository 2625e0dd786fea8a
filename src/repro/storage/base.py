"""Storage device abstractions.

A :class:`StorageDevice` accepts :class:`~repro.trace.record.IOPackage`
requests on the simulation clock and invokes a completion callback when
each finishes.  :class:`QueuedDevice` supplies the FIFO single-server
queueing discipline every concrete device uses (the paper disables the
array controller's cache, so requests hit the media in order).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .queueing import QueueDiscipline

from ..errors import StorageIOError
from ..power.model import PowerTimeline, _scalar_windows
from ..sim.engine import Simulator
from ..trace.record import IOPackage

CompletionCallback = Callable[["Completion"], None]


@dataclass(frozen=True)
class VectorService:
    """A vectorized service plan for a run of back-to-back requests.

    Produced by a device's ``service_times(sectors, nbytes, ops,
    restart)``: per-request service seconds and mean Watts computed with
    arithmetic ordered exactly as the scalar ``_service`` loop, each
    sequence starting from the device's current cursor state.  Computing
    the plan is pure; calling ``apply_state`` commits the cursor/counter
    mutations (head position, streaming cursors, seek / random-write
    counters) the scalar loop would have made serving the last
    sequence, leaving the device in the identical end state.
    Consumed by the analytical replay kernel (:mod:`repro.sim.kernel`).
    """

    seconds: "object"  # np.ndarray, float64
    watts: "object"  # np.ndarray, float64
    apply_state: Callable[[], None]


def sequence_starts(n: int, restart: Optional[np.ndarray] = None) -> np.ndarray:
    """Boolean mask of where sequences start: position 0 plus every
    position the optional ``restart`` mask marks."""
    first = np.zeros(n, dtype=bool) if restart is None else restart.copy()
    first[0] = True
    return first


def lag(values: np.ndarray, fill, restart: Optional[np.ndarray] = None) -> np.ndarray:
    """Each position's predecessor in its sequence.

    ``values`` shifted one place right, with ``fill`` at position 0 and
    at every position ``restart`` marks.  ``restart`` is an optional
    boolean mask over independent sequences concatenated end to end
    (one per grid cell, say): a marked position starts a new sequence,
    so its predecessor is the initial state ``fill``, never the previous
    sequence's last value.  ``values`` must be non-empty.
    """
    out = np.empty_like(values)
    out[1:] = values[:-1]
    out[0] = fill
    if restart is not None:
        out[restart] = fill
    return out


@dataclass(frozen=True)
class Completion:
    """Result of one finished request."""

    package: IOPackage
    submit_time: float
    start_time: float
    finish_time: float

    @property
    def response_time(self) -> float:
        """Queueing delay plus service time."""
        return self.finish_time - self.submit_time

    @property
    def service_time(self) -> float:
        return self.finish_time - self.start_time

    @property
    def wait_time(self) -> float:
        return self.start_time - self.submit_time


class StorageDevice(ABC):
    """Base class: anything that serves block requests on the sim clock."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sim: Optional[Simulator] = None

    def attach(self, sim: Simulator) -> None:
        """Bind the device to a simulation before any submit()."""
        self.sim = sim

    def _require_sim(self) -> Simulator:
        if self.sim is None:
            raise StorageIOError(f"{self.name}: attach() a simulator before I/O")
        return self.sim

    @property
    @abstractmethod
    def capacity_sectors(self) -> int:
        """Addressable size in 512-byte sectors."""

    @abstractmethod
    def submit(self, package: IOPackage, on_complete: CompletionCallback) -> None:
        """Accept a request; ``on_complete`` fires when it finishes."""

    def submit_slice(
        self, packed, start: int, stop: int, on_complete: CompletionCallback
    ) -> None:
        """Batch submission hook for the packed replay fast path.

        Accepts rows ``start:stop`` of a
        :class:`~repro.trace.packed.PackedTrace` package table (one
        replay bunch).  The contract is identical to ``stop - start``
        individual :meth:`submit` calls in row order: ``on_complete``
        must eventually fire exactly once per package.  The default
        implementation materialises each row and loops over
        :meth:`submit`; devices with a cheaper bulk path (or test sinks
        that only count) may override it.
        """
        submit = self.submit
        fast_pkg = IOPackage._from_validated
        for sector, nbytes, op in packed.packages[start:stop].tolist():
            submit(fast_pkg(sector, nbytes, op), on_complete)

    @abstractmethod
    def energy_between(self, t0: float, t1: float) -> float:
        """Joules drawn by this device during [t0, t1]."""

    def energy_windows(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Joules drawn during each window ``[t0[i], t1[i]]``."""
        return _scalar_windows(self, t0, t1)

    def check_bounds(self, package: IOPackage) -> None:
        """Reject requests outside the addressable range."""
        if package.end_sector > self.capacity_sectors:
            raise StorageIOError(
                f"{self.name}: request {package} ends at sector "
                f"{package.end_sector}, beyond capacity {self.capacity_sectors}"
            )


class QueuedDevice(StorageDevice):
    """FIFO single-server device with a power timeline.

    Subclasses implement :meth:`_service`, returning the service time and
    the mean power drawn while serving; the base class handles queueing,
    completion scheduling, and energy accounting.
    """

    def __init__(
        self,
        name: str,
        idle_watts: float,
        discipline: Optional["QueueDiscipline"] = None,
    ) -> None:
        super().__init__(name)
        from .queueing import FIFOQueue  # local import: queueing imports trace types

        self.timeline = PowerTimeline(idle_watts)
        self._queue = discipline if discipline is not None else FIFOQueue()
        self._busy = False
        self._head_hint = 0
        self.completed_count = 0
        self.queued_high_water = 0
        # Construction-time telemetry gate: when enabled, completions
        # flow through an instrumented ``_finish`` (sampled latency
        # histograms per device); when disabled the class method runs
        # unchanged and no per-request check exists.
        from ..telemetry import get_registry

        reg = get_registry()
        if reg.enabled:
            self._tele_completions = reg.counter(
                "device.completions", device=name
            )
            self._tele_wait = reg.histogram("device.wait_seconds", device=name)
            self._tele_service = reg.histogram(
                "device.service_seconds", device=name
            )
            self._finish = self._finish_instrumented  # type: ignore[method-assign]

    @abstractmethod
    def _service(self, package: IOPackage, start_time: float) -> Tuple[float, float]:
        """Return ``(service_seconds, mean_watts_during_service)``.

        Called exactly once per request, at the instant service begins —
        so the device may use (and update) positional state like head
        location.
        """

    def submit(self, package: IOPackage, on_complete: CompletionCallback) -> None:
        sim = self._require_sim()
        self.check_bounds(package)
        if self._busy:
            self._queue.push((package, sim.now, on_complete))
            self.queued_high_water = max(self.queued_high_water, len(self._queue))
        else:
            self._begin(package, sim.now, on_complete)

    def _begin(
        self, package: IOPackage, submit_time: float, on_complete: CompletionCallback
    ) -> None:
        sim = self._require_sim()
        self._busy = True
        start = sim.now
        service_time, watts = self._service(package, start)
        finish = start + service_time
        self.timeline.add_segment(start, finish, watts)
        sim.schedule(
            finish, self._finish, package, submit_time, start, on_complete
        )

    def _finish(
        self,
        package: IOPackage,
        submit_time: float,
        start: float,
        on_complete: CompletionCallback,
    ) -> Completion:
        sim = self._require_sim()
        self._busy = False
        self.completed_count += 1
        completion = Completion(
            package=package,
            submit_time=submit_time,
            start_time=start,
            finish_time=sim.now,
        )
        # Start the next queued request before delivering the completion,
        # so a callback that submits new I/O sees a consistent queue.
        self._head_hint = package.end_sector
        nxt = self._queue.pop(self._head_hint)
        if nxt is not None:
            nxt_pkg, nxt_submit, nxt_cb = nxt
            self._begin(nxt_pkg, nxt_submit, nxt_cb)
        on_complete(completion)
        return completion

    def _finish_instrumented(
        self,
        package: IOPackage,
        submit_time: float,
        start: float,
        on_complete: CompletionCallback,
    ) -> Completion:
        """Telemetry variant installed as an instance attribute.

        Delegates to the class ``_finish`` (so queue hand-off semantics
        stay in one place) and then accounts the completion, sampling
        the per-device latency histograms every 16th request.
        """
        completion = type(self)._finish(
            self, package, submit_time, start, on_complete
        )
        self._tele_completions.inc()
        if self.completed_count % 16 == 0:
            self._tele_wait.observe(completion.wait_time)
            self._tele_service.observe(completion.service_time)
        return completion

    @property
    def queue_depth(self) -> int:
        """Requests waiting (not counting the one in service)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        return self._busy

    def energy_between(self, t0: float, t1: float) -> float:
        return self.timeline.energy_between(t0, t1)

    def energy_windows(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        return self.timeline.energy_windows(t0, t1)

    def utilisation(self, t0: float, t1: float) -> float:
        """Fraction of [t0, t1] spent serving requests."""
        if t1 <= t0:
            return 0.0
        return self.timeline.busy_time(t0, t1) / (t1 - t0)
