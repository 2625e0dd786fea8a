"""Vectorized service plans: many serving sequences in one call.

``service_times(sectors, nbytes, ops, restart)`` plans independent
sequences concatenated end to end, each from the device's current
state — the grid's RMW fixpoint plans one candidate serving order per
cell this way.  Every sequence must come out bit-identical to planning
it alone (and to the scalar ``_service`` loop), and ``apply_state``
must leave the device exactly where the last sequence's own plan
would.
"""

import dataclasses

import numpy as np
import pytest

from repro.storage.hdd import HardDiskDrive
from repro.storage.specs import SEAGATE_7200_12
from repro.storage.ssd import SolidStateDrive
from repro.trace.record import READ, WRITE, IOPackage
from repro.units import SECTOR_BYTES

_CAP_SECTORS = 32_768


def _hdd(write_cache):
    spec = dataclasses.replace(
        SEAGATE_7200_12,
        capacity_bytes=_CAP_SECTORS * SECTOR_BYTES,
        write_cache=write_cache,
    )
    return lambda: HardDiskDrive("p-hdd", spec)


def _ssd():
    return SolidStateDrive("p-ssd")


def _sequence(rng, m, write_share):
    """One serving sequence mixing sequential runs (after the previous
    request, or after the previous *write* — the SSD's stream), random
    jumps, and read/write switches."""
    sectors, nbytes, ops = [], [], []
    last_end = last_write_end = None
    for _ in range(m):
        nb = int(rng.choice([512, 4096, 65536]))
        op = WRITE if rng.random() < write_share else READ
        pick = rng.random()
        if pick < 0.3 and last_end is not None:
            sector = last_end
        elif pick < 0.5 and op == WRITE and last_write_end is not None:
            sector = last_write_end
        else:
            sector = int(rng.integers(0, _CAP_SECTORS - 256))
        end = sector + -(-nb // SECTOR_BYTES)
        last_end = end
        if op == WRITE:
            last_write_end = end
        sectors.append(sector)
        nbytes.append(nb)
        ops.append(op)
    return (
        np.array(sectors, dtype=np.int64),
        np.array(nbytes, dtype=np.int64),
        np.array(ops, dtype=np.int64),
    )


def _stack(seqs):
    sectors = np.concatenate([s[0] for s in seqs])
    nbytes = np.concatenate([s[1] for s in seqs])
    ops = np.concatenate([s[2] for s in seqs])
    restart = np.zeros(sectors.size, dtype=bool)
    restart[np.cumsum([0] + [s[0].size for s in seqs[:-1]])] = True
    return sectors, nbytes, ops, restart


def _scalar(make, prime, seq):
    dev = make()
    prime(dev)
    out = [
        dev._service(IOPackage(int(s), int(b), int(o)), 0.0)
        for s, b, o in zip(*seq)
    ]
    return np.array([t for t, _ in out]), np.array([w for _, w in out])


def _state(dev):
    if isinstance(dev, HardDiskDrive):
        return (dev._head_sector, dev._last_end_sector, dev._last_op,
                dev.seek_count)
    return dev._last_read_end, dev._last_write_end, dev.random_write_count


def _fresh(dev):
    return None


def _primed(dev):
    """Leave a streaming context behind: cursors at a mid-disk write."""
    dev.service_times(
        np.array([4096, 9000], dtype=np.int64),
        np.array([4096, 4096], dtype=np.int64),
        np.array([READ, WRITE], dtype=np.int64),
    ).apply_state()


FACTORIES = {
    "hdd-write-cache": _hdd(True),
    "hdd-no-write-cache": _hdd(False),
    "ssd": _ssd,
}


@pytest.mark.parametrize("factory", sorted(FACTORIES))
@pytest.mark.parametrize("prime", [_fresh, _primed], ids=["fresh", "primed"])
@pytest.mark.parametrize("seed", [2, 13, 71])
def test_sequences_match_one_call_each(factory, prime, seed):
    make = FACTORIES[factory]
    rng = np.random.default_rng(seed)
    seqs = [
        _sequence(rng, int(rng.integers(1, 30)), write_share)
        for write_share in (0.0, 0.3, 0.7, 1.0, 0.5, 0.5)
    ]
    sectors, nbytes, ops, restart = _stack(seqs)

    dev = make()
    prime(dev)
    plan = dev.service_times(sectors, nbytes, ops, restart)
    at = 0
    for seq in seqs:
        one = dev.service_times(*seq)
        m = seq[0].size
        assert np.array_equal(plan.seconds[at:at + m], one.seconds)
        assert np.array_equal(plan.watts[at:at + m], one.watts)
        seconds, watts = _scalar(make, prime, seq)
        assert np.array_equal(one.seconds, seconds)
        assert np.array_equal(one.watts, watts)
        at += m

    # Planning is pure; applying commits what the last sequence leaves.
    plan.apply_state()
    alone = make()
    prime(alone)
    alone.service_times(*seqs[-1]).apply_state()
    assert _state(dev) == _state(alone)


def test_hdd_restart_resets_streaming_and_turnaround():
    """A sequence that continues the previous one's last sector, with
    the opposite op, still starts from the drive's own cursor: no
    streaming credit, and a turnaround only against the drive's last
    op."""
    make = _hdd(True)
    dev = make()
    first = (np.array([100]), np.array([4096]), np.array([WRITE]))
    second = (np.array([108]), np.array([4096]), np.array([READ]))
    sectors, nbytes, ops, restart = _stack([first, second])
    plan = dev.service_times(sectors, nbytes, ops, restart)
    assert plan.seconds[1] == dev.service_times(*second).seconds[0]
    chained = dev.service_times(sectors, nbytes, ops)
    assert chained.seconds[1] != plan.seconds[1]


def test_ssd_first_write_of_each_sequence_uses_device_cursor():
    """The previous-write chain runs through interleaved reads inside a
    sequence but never across a restart."""
    dev = _ssd()
    _primed(dev)  # write cursor ends at sector 9008
    seq_a = (
        np.array([9008, 50, 9016], dtype=np.int64),
        np.array([4096, 4096, 4096], dtype=np.int64),
        np.array([WRITE, READ, WRITE], dtype=np.int64),
    )
    seq_b = (
        np.array([70, 9024], dtype=np.int64),
        np.array([4096, 4096], dtype=np.int64),
        np.array([READ, WRITE], dtype=np.int64),
    )
    plan = dev.service_times(*_stack([seq_a, seq_b]))
    spec = dev.spec
    # Sequential against the device cursor, then against the previous
    # write across a read: no FTL stall in sequence A.
    write_a = plan.seconds[[0, 2]]
    assert np.all(
        write_a == spec.command_overhead + spec.write_latency + 0.0
        + 4096 / spec.write_rate
    )
    # Sequence B's write continues A's stream but restarts from the
    # device cursor (9008), so it pays the random-write overhead.
    assert plan.seconds[4] == dev.service_times(*seq_b).seconds[1]
    assert plan.seconds[4] > write_a[0]
