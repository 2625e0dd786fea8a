"""Statistics, failure tallies, spans and run records shared by every workload.

Nothing here imports the program under test, so the unit tests in
``perfbench/tests`` exercise it without ``src`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Metric names: a letter or digit first, then letters, digits, ``_``,
#: ``.`` and ``-``; at most 64 characters.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


# ---------------------------------------------------------------------------
# Statistics


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile with linear interpolation between ranks
    (NumPy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def samples_beyond(n: int, p: float) -> float:
    """How many of ``n`` samples lie beyond the ``p``-th percentile."""
    return n * (100.0 - p) / 100.0


def supported_tail(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it,
    or None when even the median has fewer."""
    best = None
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND - 1e-9:
            best = p
    return best


# ---------------------------------------------------------------------------
# Metrics and failures


@dataclass
class Metric:
    """One reported number: value, unit and the samples behind it."""

    value: float
    unit: str
    n: int
    note: str = ""


def timing(
    name_p50: str, values: Sequence[float], tail: Optional[Tuple[str, float]] = None,
) -> Dict[str, Metric]:
    """Median (and optionally one fixed tail percentile) of ``values``.

    The note on each tail says which percentile the ten-samples-beyond
    rule supports for this sample count, so a tail read from too few
    samples is visible in the report.
    """
    n = len(values)
    out = {name_p50: Metric(median(values), "s", n)}
    if tail is not None:
        name, p = tail
        rule = supported_tail(n)
        note = (
            f"{samples_beyond(n, p):g} samples beyond p{p:g}; "
            f"highest supported: {'none' if rule is None else f'p{rule:g}'}"
        )
        out[name] = Metric(percentile(values, p), "s", n, note)
    return out


class Tally:
    """Operations attempted and failed.

    An operation fails when it raises or when its output check fails;
    each operation counts as failed at most once, however many of its
    checks fail.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self._failed: Dict[str, str] = {}
        self._lock = threading.Lock()

    def attempt(self, n: int = 1) -> None:
        with self._lock:
            self.attempted += n

    def fail(self, op_id: str, reason: str) -> None:
        with self._lock:
            self._failed.setdefault(op_id, reason)

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def reasons(self) -> Dict[str, str]:
        return dict(self._failed)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ---------------------------------------------------------------------------
# Spans


class Tracer:
    """In-memory spans recorded around the calls the benchmark makes.

    Each span has a name, wall start and end, and the span open on the
    same thread when it began (its parent).  Spans are written out once,
    when the run ends.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        span = {
            "name": name, "start": time.perf_counter(), "end": math.nan,
            "parent": stack[-1] if stack else None, **attrs,
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span["id"])
        try:
            yield span
        finally:
            stack.pop()
            span["end"] = time.perf_counter()

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Provenance and run records


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest(src: Path) -> str:
    """First 16 hex digits of a SHA-256 over the program's Python
    sources, path and content."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path, seed: int, sizes: dict) -> dict:
    import numpy

    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "sizes": sizes,
    }


def append_record(path: Path, record: dict) -> None:
    """Append one run record as a JSON line; earlier lines are kept."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def format_report(workload: str, metrics: Dict[str, Metric]) -> List[str]:
    """One line per metric: name, value, unit, sample count, note."""
    width = max(len(name) for name in metrics)
    lines = []
    for name, m in metrics.items():
        line = f"  {name:<{width}}  {m.value:>14.6g} {m.unit:<7} n={m.n}"
        if m.note:
            line += f"  ({m.note})"
        lines.append(line)
    return [f"[{workload}]"] + lines
