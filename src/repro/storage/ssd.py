"""Flash solid-state-drive model.

No moving parts: service time is a fixed access latency plus bytes over
the channel rate, with one twist — *random small writes* pay an FTL
read-modify-write overhead when they start mid-page or end mid-page
relative to the flash page size.  The penalty is small next to an HDD
seek (hundreds of microseconds vs. ~13 ms) but is what makes high random
ratios reduce SSD energy efficiency, the trend §VI-G reports.

Power is two-level per the spec: read power during reads, write power
during writes, idle otherwise.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..trace.record import IOPackage, WRITE
from ..units import SECTOR_BYTES
from .base import QueuedDevice, VectorService, lag, sequence_starts
from .specs import SSDSpec, MEMORIGHT_SLC_32GB


class SolidStateDrive(QueuedDevice):
    """One simulated SSD."""

    def __init__(
        self,
        name: str = "ssd0",
        spec: SSDSpec = MEMORIGHT_SLC_32GB,
        discipline=None,
    ) -> None:
        super().__init__(name, idle_watts=spec.idle_watts, discipline=discipline)
        self.spec = spec
        # Per-stream cursors: the FTL appends writes into an open block
        # independent of where reads land, so read/write sequentiality
        # is tracked per op type (unlike a disk head).
        self._last_read_end: Optional[int] = None
        self._last_write_end: Optional[int] = None
        self.random_write_count = 0

    @property
    def capacity_sectors(self) -> int:
        return self.spec.capacity_sectors

    def _service(self, package: IOPackage, start_time: float) -> Tuple[float, float]:
        spec = self.spec
        if package.is_read:
            latency = spec.read_latency
            rate = spec.read_rate
            watts = spec.read_watts
            overhead = 0.0
            self._last_read_end = package.end_sector
        else:
            sequential = (
                self._last_write_end is not None
                and package.sector == self._last_write_end
            )
            latency = spec.write_latency
            rate = spec.write_rate
            watts = spec.write_watts
            overhead = 0.0
            # Non-sequential writes stall the (2008-era, block-mapped)
            # FTL: the drive must merge into an erase block.  Sequential
            # streams append into the open block and stay fast.
            if not sequential:
                overhead = spec.random_write_overhead
                self.random_write_count += 1
            self._last_write_end = package.end_sector

        transfer = package.nbytes / rate
        total = spec.command_overhead + latency + overhead + transfer

        # Non-transfer phases draw close to active power on an SSD (the
        # controller is the consumer); bill the whole service at op power.
        return total, watts

    def service_times(self, sectors, nbytes, ops, restart=None) -> VectorService:
        """Vectorized mirror of :meth:`_service` for the analytical kernel.

        Same contract as :meth:`HardDiskDrive.service_times
        <repro.storage.hdd.HardDiskDrive.service_times>`: pure compute
        with scalar-ordered arithmetic (bit-identical results), one
        independent sequence per ``restart`` mark, and an
        ``apply_state`` callback committing the FTL streaming cursors
        and ``random_write_count`` the last sequence leaves behind.
        """
        spec = self.spec
        sectors = np.asarray(sectors, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        ops = np.asarray(ops, dtype=np.int64)
        n = sectors.shape[0]
        if n == 0:
            empty = np.empty(0, dtype=np.float64)
            return VectorService(empty, empty, lambda: None)
        end_sectors = sectors + -(-nbytes // SECTOR_BYTES)
        is_write = ops == WRITE

        latency = np.where(is_write, spec.write_latency, spec.read_latency)
        rate = np.where(is_write, spec.write_rate, spec.read_rate)
        watts = np.where(is_write, spec.write_watts, spec.read_watts)
        first = sequence_starts(n, restart)

        # Write sequentiality is judged against the *previous write* of
        # the same sequence (reads interleave freely through the FTL),
        # so shift within the write subsequence only; each sequence's
        # first write compares against the drive's cursor.
        w_idx = np.flatnonzero(is_write)
        rand = np.zeros(n, dtype=bool)
        if w_idx.size:
            seq = np.cumsum(first)[w_idx]
            w_first = lag(seq, 0, None) != seq
            w_prev = lag(
                end_sectors[w_idx],
                self._last_write_end if self._last_write_end is not None else -1,
                w_first,
            )
            w_seq = sectors[w_idx] == w_prev
            if self._last_write_end is None:
                w_seq[w_first] = False
            rand[w_idx[~w_seq]] = True
        overhead = np.where(rand, spec.random_write_overhead, 0.0)

        transfer = nbytes / rate
        total = spec.command_overhead + latency + overhead + transfer
        mean_watts = watts + np.zeros(n, dtype=np.float64)

        tail = int(np.flatnonzero(first)[-1])
        r_idx = tail + np.flatnonzero(~is_write[tail:])
        w_last = tail + np.flatnonzero(is_write[tail:])
        last_read_end = int(end_sectors[r_idx[-1]]) if r_idx.size else None
        last_write_end = int(end_sectors[w_last[-1]]) if w_last.size else None
        rand_writes = int(np.count_nonzero(rand[tail:]))

        def apply_state() -> None:
            if last_read_end is not None:
                self._last_read_end = last_read_end
            if last_write_end is not None:
                self._last_write_end = last_write_end
            self.random_write_count += rand_writes

        return VectorService(total, mean_watts, apply_state)
