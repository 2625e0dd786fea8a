"""Interval-frame streaming: determinism, schema, and gating.

The core contract under test: identically seeded replays produce
byte-identical frame series on the object and packed paths, with the
telemetry registry enabled or disabled — and a session without a
streaming interval leaves no streaming trace in its result at all.
"""

import json

import pytest

from repro.errors import ReplayError
from repro.replay.session import ReplaySession, replay_trace
from repro.sim.engine import Simulator
from repro.telemetry import enabled_telemetry
from repro.telemetry.stream import (
    TELEMETRY_INTERVAL_ENV,
    IntervalFrame,
    IntervalRecorder,
    default_interval,
    frames_to_jsonl,
    resolve_interval,
    write_frames_jsonl,
)
from repro.trace.packed import pack

INTERVAL = 0.25

FRAME_KEYS = {
    "index", "start", "end", "completed", "total_bytes", "response_sum",
    "iops", "mbps", "mean_response", "energy_joules", "watts",
    "queue_depth", "latency", "faults", "degraded_requests",
    "reconstruct_reads",
}


class TestIntervalResolution:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_INTERVAL_ENV, raising=False)
        assert default_interval() == 0.0
        assert resolve_interval(None) == 0.0

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_INTERVAL_ENV, "0.5")
        assert default_interval() == 0.5
        assert resolve_interval(None) == 0.5

    def test_explicit_interval_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_INTERVAL_ENV, "0.5")
        assert resolve_interval(2.0) == 2.0

    @pytest.mark.parametrize("raw", ["", "nope", "-1", "0"])
    def test_garbage_env_is_off(self, monkeypatch, raw):
        monkeypatch.setenv(TELEMETRY_INTERVAL_ENV, raw)
        assert default_interval() == 0.0

    def test_nonpositive_interval_rejected_by_recorder(self):
        with pytest.raises(ReplayError, match="interval"):
            IntervalRecorder(0.0)


class TestFrameSchema:
    def frame(self, **overrides):
        base = dict(
            index=0, start=0.0, end=0.5, completed=10, total_bytes=40960,
            response_sum=0.05, energy_joules=50.0, queue_depth=3,
        )
        base.update(overrides)
        return IntervalFrame(**base)

    def test_derived_metrics(self):
        f = self.frame()
        assert f.duration == pytest.approx(0.5)
        assert f.iops == pytest.approx(20.0)
        assert f.mbps == pytest.approx((40960 / 1e6) / 0.5)
        assert f.mean_response == pytest.approx(0.005)
        assert f.watts == pytest.approx(100.0)

    def test_empty_frame_metrics_are_zero(self):
        f = self.frame(completed=0, total_bytes=0, response_sum=0.0,
                       end=0.0, energy_joules=0.0)
        assert f.iops == 0.0 and f.mbps == 0.0
        assert f.mean_response == 0.0 and f.watts == 0.0

    def test_to_dict_key_set_is_fixed(self):
        d = self.frame().to_dict()
        assert set(d) == FRAME_KEYS
        assert set(d["latency"]) == {"buckets", "counts"}

    def test_jsonl_roundtrip(self, tmp_path):
        frames = [self.frame(), self.frame(index=1, start=0.5, end=1.0)]
        text = frames_to_jsonl(frames)
        lines = text.splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["index"] == 1
        path = write_frames_jsonl(frames, tmp_path / "frames.jsonl")
        assert path.read_text() == text
        # Dict input renders identically to object input.
        assert frames_to_jsonl([f.to_dict() for f in frames]) == text

    def test_empty_series_is_empty_text(self):
        assert frames_to_jsonl([]) == ""


class TestSessionStreaming:
    def run(self, trace, interval=INTERVAL, seed=11):
        from repro.config import ReplayConfig

        from repro.storage.array import build_hdd_raid5

        return replay_trace(
            trace,
            build_hdd_raid5(6),
            load_proportion=0.5,
            config=ReplayConfig(seed=seed),
            stream_interval=interval,
        )

    def test_frames_partition_the_run(self, small_trace):
        result = self.run(small_trace)
        frames = result.interval_frames
        assert frames, "streaming session produced no frames"
        # Contiguous, ordered windows.
        for i, frame in enumerate(frames):
            assert frame["index"] == i
            assert frame["end"] > frame["start"]
        for prev, cur in zip(frames, frames[1:]):
            assert cur["start"] == prev["end"]
        # Conservation: per-frame deltas sum to the run totals.
        assert sum(f["completed"] for f in frames) == result.completed
        assert sum(f["total_bytes"] for f in frames) == result.total_bytes
        total_latency = sum(sum(f["latency"]["counts"]) for f in frames)
        assert total_latency == result.completed

    def test_energy_integrates_to_run_total(self, small_trace):
        result = self.run(small_trace)
        frames = result.interval_frames
        assert sum(f["energy_joules"] for f in frames) == pytest.approx(
            result.energy_joules, rel=1e-9
        )

    def test_on_frame_sees_every_frame_live(self, small_trace):
        from repro.config import ReplayConfig
        from repro.storage.array import build_hdd_raid5

        live = []
        result = replay_trace(
            small_trace,
            build_hdd_raid5(6),
            load_proportion=0.5,
            config=ReplayConfig(seed=11),
            stream_interval=INTERVAL,
            on_frame=lambda f: live.append(f.to_dict()),
        )
        assert live == result.interval_frames

    def test_on_frame_keeps_the_kernel_and_sees_event_frames(
        self, small_trace, monkeypatch
    ):
        # A per-frame callback no longer forces the event engine: the
        # kernel hands its synthesized frames over in order, and they
        # equal the frames the event engine delivers live.
        from repro.storage.array import build_hdd_raid5
        from repro.telemetry import get_registry

        # The kernel declines while instrumentation is on.
        monkeypatch.setattr(get_registry(), "enabled", False)

        def replay(engine):
            live = []
            result = replay_trace(
                pack(small_trace), build_hdd_raid5(6), load_proportion=0.5,
                stream_interval=INTERVAL, engine=engine,
                on_frame=lambda f: live.append(f.to_dict()),
            )
            return result, live

        kernel, kernel_live = replay("auto")
        event, event_live = replay("event")
        assert kernel.metadata["engine"] == "kernel"
        assert event.metadata["engine"] == "event"
        assert kernel_live
        assert kernel_live == event_live == kernel.interval_frames

    def test_object_vs_packed_byte_identical(self, small_trace):
        j_obj = frames_to_jsonl(self.run(small_trace).interval_frames)
        j_packed = frames_to_jsonl(self.run(pack(small_trace)).interval_frames)
        assert j_obj == j_packed

    def test_registry_state_does_not_change_frames(self, small_trace):
        j_off = frames_to_jsonl(self.run(small_trace).interval_frames)
        with enabled_telemetry():
            j_on = frames_to_jsonl(self.run(small_trace).interval_frames)
        assert j_off == j_on

    def test_disabled_session_leaves_no_streaming_trace(self, small_trace):
        result = self.run(small_trace, interval=None)
        assert "interval_frames" not in result.metadata
        assert result.interval_frames == []

    def test_session_reads_interval_from_env(self, small_trace, monkeypatch):
        monkeypatch.setenv(TELEMETRY_INTERVAL_ENV, str(INTERVAL))
        result = self.run(small_trace, interval=None)
        assert result.interval_frames

    def test_faulted_run_frames_carry_fault_deltas(self, small_trace):
        from repro.faults.schedule import DiskFailFault, FaultSchedule
        from tests.replay.test_faulted_session import small_array

        result = replay_trace(
            small_trace,
            small_array(),
            faults=FaultSchedule(
                disk_failures=(DiskFailFault(at=0.5, member=1),)
            ),
            stream_interval=INTERVAL,
        )
        frames = result.interval_frames
        assert sum(f["faults"].get("disk_failures", 0) for f in frames) == 1
        assert sum(f["degraded_requests"] for f in frames) == (
            result.metadata["degraded_requests"]
        )
        assert sum(f["reconstruct_reads"] for f in frames) == (
            result.metadata["reconstruct_reads"]
        )


class TestRecorderUnit:
    def test_double_start_and_unstarted_stop_rejected(self):
        recorder = IntervalRecorder(1.0)
        sim = Simulator()
        recorder.start(sim)
        with pytest.raises(ReplayError):
            recorder.start(sim)
        recorder.stop()
        with pytest.raises(ReplayError):
            recorder.stop()

    def test_stop_flushes_pending_counts(self):
        class FakeCompletion:
            class package:
                nbytes = 4096

            response_time = 0.002

        recorder = IntervalRecorder(10.0)
        sim = Simulator()
        recorder.start(sim)
        recorder.observe(FakeCompletion())
        recorder.stop()
        assert len(recorder.frames) == 1
        assert recorder.frames[0].completed == 1
