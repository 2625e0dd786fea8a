"""Helpers every workload shares: the canonical result form the output
checks compare, the closed-loop runner and operation counting."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict

#: Metadata keys that name the engine or carry wall-clock telemetry;
#: they may differ between two replays that computed the same thing.
_PROVENANCE_KEYS = ("engine", "engine_fallback", "telemetry", "interval_frames")


def canonical(result) -> str:
    """A replay result's summary plus its perf and power series, minus
    engine provenance, as sorted-key JSON (floats round-trip exactly)."""
    payload = result.to_dict()
    metadata = dict(payload.get("metadata") or {})
    for key in _PROVENANCE_KEYS:
        metadata.pop(key, None)
    payload["metadata"] = metadata
    payload["perf_samples"] = [asdict(s) for s in result.perf_samples]
    payload["power_samples"] = [asdict(s) for s in result.power_samples]
    return json.dumps(payload, sort_keys=True)


def repeat_until(seconds: float, step) -> None:
    """Call ``step`` as a closed loop, at least once, and stop before a
    call that would end past ``seconds`` were it as long as the last."""
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if 2 * now - t0 > deadline:
            return


def attempt(tally, op_id: str, op):
    """Run one operation and count it; one that raises is counted as
    failed under ``op_id`` and returns None instead of ending the run."""
    tally.attempt()
    try:
        return op()
    except Exception as exc:  # a failed op is counted, not fatal
        tally.fail(op_id, f"raised {exc!r}")
        return None


def digest(payload) -> str:
    """SHA-256 of a JSON-safe payload in sorted-key form."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
