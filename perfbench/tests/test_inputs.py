from perfbench.inputs import (
    FLEET_FRESH_EVERY,
    JobStream,
    fleet_traces,
    grid_trace,
    rmw_trace,
    rng_for,
)
from repro.trace.blktrace import dumps_packed


def _bytes(trace):
    return dumps_packed(trace)


def test_rmw_trace_is_a_function_of_its_seed():
    a = rmw_trace(rng_for(7, 10, 0), 300, 40, 5e-3, "t")
    b = rmw_trace(rng_for(7, 10, 0), 300, 40, 5e-3, "t")
    c = rmw_trace(rng_for(8, 10, 0), 300, 40, 5e-3, "t")
    assert _bytes(a) == _bytes(b)
    assert _bytes(a) != _bytes(c)
    writes = a.packages["op"].mean()
    assert 0.3 < writes < 0.5


def test_grid_trace_is_a_function_of_its_seed():
    assert _bytes(grid_trace(200, 60, 12)) == _bytes(grid_trace(200, 60, 12))
    assert _bytes(grid_trace(200, 60, 12)) != _bytes(grid_trace(200, 60, 13))
    assert not grid_trace(200, 100, 3).packages["op"].any()


def test_fleet_traces_are_deterministic():
    one, two = fleet_traces(100), fleet_traces(100)
    assert {k: _bytes(v) for k, v in one.items()} == {k: _bytes(v) for k, v in two.items()}


def test_job_stream_is_deterministic_and_repeats_about_two_thirds():
    first = [JobStream(4).next() for _ in range(1)]
    a, b = JobStream(4), JobStream(4)
    seq_a = [a.next() for _ in range(3000)]
    seq_b = [b.next() for _ in range(3000)]
    assert seq_a == seq_b and seq_a[0] == first[0]
    seen, repeats = set(), 0
    for spec in seq_a:
        key = (spec.trace, spec.config_fingerprint())
        repeats += key in seen
        seen.add(key)
    assert repeats == len(seq_a) - len(seq_a) // FLEET_FRESH_EVERY
    assert {s.kind for s in seq_a} == {"replay", "grid", "search"}
    assert JobStream(5).next() != seq_a[0] or JobStream(6).next() != seq_a[0]
