"""The disk array: controller, host link, member disks, enclosure power.

A :class:`DiskArray` accepts logical block requests (IOPackages addressed
in the array's logical sector space), plans them through
:class:`~repro.storage.raid.RaidGeometry`, and drives the member devices
on the simulation clock.

Modelled controller effects:

* **dispatch overhead** — fixed per-request firmware time;
* **host-link serialisation** — the 4 Gb/s FC link moves each request's
  payload at ~400 MB/s; payloads queue on the link, which is what caps
  the array's sequential throughput below the sum of member media rates.
  (Payload time is billed at dispatch for both directions — equivalent
  for steady-state throughput, simpler than duplex modelling.)
* **non-disk power** — constant enclosure draw (controller, fans,
  backplane); Section VI-A measures this as the power of the array with
  zero disks installed.

The controller cache is *disabled*, as in the paper's experiments, so
every request reaches the media.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import StorageConfigError
from ..power.model import EnergyMeter
from ..sim.engine import Simulator
from ..trace.record import IOPackage
from .base import Completion, CompletionCallback, StorageDevice, QueuedDevice
from .hdd import HardDiskDrive
from .raid import IOPlan, RaidGeometry, RaidLevel, SubIO
from .specs import (
    EnclosureSpec,
    HDD_ENCLOSURE,
    HDDSpec,
    MEMORIGHT_SLC_32GB,
    SEAGATE_7200_12,
    SSD_ENCLOSURE,
    SSDSpec,
)
from .ssd import SolidStateDrive


@dataclass
class _InFlight:
    """Book-keeping for one logical request crossing the array."""

    package: IOPackage
    submit_time: float
    on_complete: CompletionCallback
    plan: IOPlan
    start_time: float = 0.0
    pending: int = 0


class DiskArray(StorageDevice):
    """A RAID enclosure of simulated member devices.

    Parameters
    ----------
    disks:
        Member devices.  May be empty — an empty enclosure idles (that is
        exactly the Fig. 7 zero-disk measurement) but rejects I/O.
    level:
        RAID level; validated against the disk count on construction
        when disks are present.
    strip_bytes:
        Strip size (the paper: 128 KB).
    enclosure:
        Non-disk chassis spec.
    """

    def __init__(
        self,
        disks: Sequence[QueuedDevice],
        level: RaidLevel = RaidLevel.RAID5,
        strip_bytes: int = 128 * 1024,
        enclosure: EnclosureSpec = HDD_ENCLOSURE,
        name: str = "array0",
    ) -> None:
        super().__init__(name)
        self.disks = list(disks)
        if len(self.disks) > enclosure.max_disks:
            raise StorageConfigError(
                f"{name}: {len(self.disks)} disks exceed enclosure capacity "
                f"{enclosure.max_disks}"
            )
        self.level = level
        self.enclosure = enclosure
        self.geometry: Optional[RaidGeometry] = None
        if self.disks:
            disk_sectors = min(d.capacity_sectors for d in self.disks)
            self.geometry = RaidGeometry(
                level, len(self.disks), strip_bytes, disk_sectors
            )
        self.meter = EnergyMeter(
            [d.timeline for d in self.disks],
            overhead_watts=enclosure.non_disk_watts,
        )
        self._link_busy_until = 0.0
        self.completed_count = 0
        self.subio_count = 0
        self.failed_disk: Optional[int] = None
        self.rebuilding = False
        self.degraded_requests = 0
        self.reconstruct_reads = 0
        # Construction-time telemetry gate: stripe planning is shadowed
        # by an instrumented variant when enabled; disabled arrays run
        # the class methods unchanged.
        from ..telemetry import get_registry

        reg = get_registry()
        if reg.enabled:
            self._tele_spans = reg.spans
            self._tele_plans = reg.counter("raid.plans", array=name)
            self._tele_rmw = reg.counter("raid.rmw_plans", array=name)
            self._tele_degraded = reg.counter("raid.degraded_plans", array=name)
            self._tele_reconstruct = reg.counter(
                "raid.reconstruct_reads", array=name
            )
            self._tele_subios = reg.counter("raid.subios_planned", array=name)
            self._tele_plan_wall = reg.timer("raid.plan_seconds", array=name)
            self._plan = self._plan_instrumented  # type: ignore[method-assign]

    # -- Device interface --------------------------------------------------

    def attach(self, sim: Simulator) -> None:
        super().attach(sim)
        for disk in self.disks:
            disk.attach(sim)

    @property
    def capacity_sectors(self) -> int:
        if self.geometry is None:
            return 0
        return self.geometry.capacity_sectors

    @property
    def idle_watts(self) -> float:
        """Array power with no I/O (enclosure + spinning disks)."""
        now = self.sim.now if self.sim is not None else 0.0
        return self.enclosure.non_disk_watts + sum(
            d.timeline.baseline_watts_at(now) for d in self.disks
        )

    def energy_between(self, t0: float, t1: float) -> float:
        return self.meter.energy_between(t0, t1)

    def energy_windows(self, t0, t1):
        return self.meter.energy_windows(t0, t1)

    def mean_power(self, t0: float, t1: float) -> float:
        return self.meter.mean_power(t0, t1)

    # -- I/O path ------------------------------------------------------------

    def _plan(self, package: IOPackage) -> IOPlan:
        """Plan one logical request (degraded-aware); counters updated."""
        assert self.geometry is not None
        if self.failed_disk is not None:
            plan = self.geometry.plan_degraded(package, self.failed_disk)
            self.degraded_requests += 1
            self.reconstruct_reads += plan.reconstruct_reads
            return plan
        return self.geometry.plan(package)

    def _plan_instrumented(self, package: IOPackage) -> IOPlan:
        """Telemetry variant: stripe-planning counters plus a sampled
        wall timer (every 64th plan) for the profiling breakdown."""
        self._tele_plans.inc()
        degraded = self.failed_disk is not None
        if self._tele_plans.value % 64 == 0:
            with self._tele_plan_wall.time():
                plan = DiskArray._plan(self, package)
        else:
            plan = DiskArray._plan(self, package)
        if plan.pre:
            self._tele_rmw.inc()
        if degraded:
            self._tele_degraded.inc()
            self._tele_reconstruct.inc(plan.reconstruct_reads)
            now = self.sim.now if self.sim is not None else 0.0
            self._tele_spans.record(
                "raid.degraded", now, now,
                array=self.name, reconstruct_reads=plan.reconstruct_reads,
            )
        self._tele_subios.inc(plan.total_ops)
        return plan

    def submit(self, package: IOPackage, on_complete: CompletionCallback) -> None:
        sim = self._require_sim()
        if self.geometry is None:
            raise StorageConfigError(f"{self.name}: no disks installed")
        self.check_bounds(package)
        plan = self._plan(package)
        flight = _InFlight(
            package=package,
            submit_time=sim.now,
            on_complete=on_complete,
            plan=plan,
        )
        # Controller dispatch + link serialisation of the payload.
        dispatch = max(sim.now, self._link_busy_until)
        dispatch += self.enclosure.controller_overhead
        payload_time = package.nbytes / self.enclosure.link_rate
        self._link_busy_until = dispatch + payload_time
        flight.start_time = dispatch
        sim.schedule(dispatch, self._dispatch, flight, priority=1)

    def _dispatch(self, flight: _InFlight) -> None:
        if flight.plan.pre:
            self._issue_phase(flight, flight.plan.pre, self._pre_done)
        else:
            self._issue_phase(flight, flight.plan.post, self._post_done)

    def _issue_phase(
        self,
        flight: _InFlight,
        subs: Sequence[SubIO],
        phase_done: Callable[[_InFlight], None],
    ) -> None:
        flight.pending = len(subs)
        self.subio_count += len(subs)

        def _one_done(_completion: Completion) -> None:
            flight.pending -= 1
            if flight.pending == 0:
                phase_done(flight)

        for sub in subs:
            self.disks[sub.disk].submit(sub.to_package(), _one_done)

    def _pre_done(self, flight: _InFlight) -> None:
        # Old data and parity are in; XOR is controller-side and fast
        # relative to media times — issue the write phase immediately.
        self._issue_phase(flight, flight.plan.post, self._post_done)

    def _post_done(self, flight: _InFlight) -> None:
        sim = self._require_sim()
        self.completed_count += 1
        flight.on_complete(
            Completion(
                package=flight.package,
                submit_time=flight.submit_time,
                start_time=flight.start_time,
                finish_time=sim.now,
            )
        )

    # -- Failure injection and rebuild (RAID-5) -----------------------------

    def fail_disk(self, disk_index: int) -> None:
        """Mark one member failed: subsequent I/O runs degraded.

        Only single-failure RAID-5 degradation is modelled; a second
        failure is data loss and raises.
        """
        if self.geometry is None or self.geometry.level is not RaidLevel.RAID5:
            raise StorageConfigError(f"{self.name}: failure model is raid5-only")
        if not 0 <= disk_index < len(self.disks):
            raise StorageConfigError(f"{self.name}: no disk {disk_index}")
        if self.failed_disk is not None:
            raise StorageConfigError(
                f"{self.name}: disk {self.failed_disk} already failed; a "
                "second failure loses data on raid5"
            )
        self.failed_disk = disk_index

    def rebuild(
        self,
        on_complete: Optional[Callable[[float], None]] = None,
        rows_per_step: int = 8,
        inter_step_delay: float = 0.0,
    ) -> None:
        """Reconstruct the failed member onto a fresh replacement.

        Walks all stripe rows: each step reads ``rows_per_step`` rows
        from every survivor and writes the reconstructed strips to the
        replacement (the original disk object, reused as the blank
        replacement).  Rebuild I/O shares the member queues with — and
        therefore slows — foreground traffic, exactly like a real
        controller.  ``on_complete(sim_now)`` fires when the array is
        clean again.
        """
        sim = self._require_sim()
        if self.failed_disk is None:
            raise StorageConfigError(f"{self.name}: no failed disk to rebuild")
        if self.rebuilding:
            raise StorageConfigError(f"{self.name}: rebuild already running")
        if rows_per_step < 1:
            raise StorageConfigError("rows_per_step must be >= 1")
        assert self.geometry is not None
        self.rebuilding = True
        failed = self.failed_disk
        total_rows = self.geometry.rebuild_rows()
        state = {"row": 0}

        def _step() -> None:
            if state["row"] >= total_rows:
                self.failed_disk = None
                self.rebuilding = False
                if on_complete is not None:
                    on_complete(sim.now)
                return
            batch = range(
                state["row"], min(state["row"] + rows_per_step, total_rows)
            )
            state["row"] += rows_per_step
            pending = {"n": 0}

            def _after_batch(_completion: Completion) -> None:
                pending["n"] -= 1
                if pending["n"] == 0:
                    sim.schedule_after(inter_step_delay, _step, priority=15)

            plans = [
                self.geometry.plan_rebuild_row(row, failed) for row in batch
            ]
            # Read phase of every row in the batch, then write phase.
            reads = [sub for plan in plans for sub in plan.pre]
            writes = [sub for plan in plans for sub in plan.post]
            pending["n"] = len(reads)

            def _after_read(_completion: Completion) -> None:
                pending["n"] -= 1
                if pending["n"] == 0:
                    pending["n"] = len(writes)
                    for sub in writes:
                        self.subio_count += 1
                        self.disks[sub.disk].submit(
                            sub.to_package(), _after_batch
                        )

            for sub in reads:
                self.subio_count += 1
                self.disks[sub.disk].submit(sub.to_package(), _after_read)

        sim.schedule_after(0.0, _step, priority=15)


def build_hdd_raid5(
    n_disks: int = 6,
    spec: HDDSpec = SEAGATE_7200_12,
    strip_bytes: int = 128 * 1024,
    enclosure: EnclosureSpec = HDD_ENCLOSURE,
    name: str = "hdd-raid5",
    level: RaidLevel = RaidLevel.RAID5,
) -> DiskArray:
    """The paper's HDD array: 6 × Seagate 7200.12 in RAID-5, 128 KB strips."""
    disks = [HardDiskDrive(f"{name}-d{i}", spec) for i in range(n_disks)]
    return DiskArray(disks, level, strip_bytes, enclosure, name=name)


def build_ssd_raid5(
    n_disks: int = 4,
    spec: SSDSpec = MEMORIGHT_SLC_32GB,
    strip_bytes: int = 128 * 1024,
    enclosure: EnclosureSpec = SSD_ENCLOSURE,
    name: str = "ssd-raid5",
    level: RaidLevel = RaidLevel.RAID5,
) -> DiskArray:
    """The paper's SSD array: 4 × Memoright SLC 32 GB in RAID-5 (§VI-G)."""
    disks = [SolidStateDrive(f"{name}-d{i}", spec) for i in range(n_disks)]
    return DiskArray(disks, level, strip_bytes, enclosure, name=name)
