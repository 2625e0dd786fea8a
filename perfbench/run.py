"""Run one benchmark workload, check its outputs and print its report.

Usage, from the repository root::

    python3 perfbench/run.py --workload point-replay [--seed 1] [--seconds 15] [--trace 0|1]

The report lists every metric by name with its unit and sample count;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the ``end_to_end`` metrics
of ``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  Each run appends a record with its provenance to
``perfbench/out/history.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
DEFAULT_SEED = 1
#: Set-ups per run; ``setup_s`` is their median and the last one is measured.
SETUPS = 5

WORKLOAD_NAMES = ("point-replay", "grid-raid5-mixed", "search-read", "fleet-tenants")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _close(state) -> None:
    close = getattr(state, "close", None)
    if close is not None:
        close()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no program sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import (
        Metric, Tally, Tracer, append_record, format_report, git_sha, median,
        provenance, valid_name,
    )

    # The program reads TRACER_* switches (telemetry, tracing, flight
    # recorder) from the environment; the benchmark measures its defaults.
    # The ledger records this SHA instead of asking git mid-run.
    for key in [k for k in os.environ if k.startswith("TRACER_")]:
        del os.environ[key]
    os.environ["TRACER_GIT_SHA"] = git_sha(ROOT)
    t_import = time.perf_counter()
    from perfbench.workloads import WORKLOADS

    import_s = time.perf_counter() - t_import
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    module = WORKLOADS[args.workload]

    setups, state = [], None
    for _ in range(SETUPS):
        if state is not None:
            _close(state)
        t0 = time.perf_counter()
        state = module.setup(args.seed)
        setups.append(time.perf_counter() - t0)

    tally = Tally()
    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    if tracer is not None:
        report = module.trace(state, args.seconds, tally, tracer)
    else:
        report = module.measure(state, args.seconds, tally)
    measured_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t0 = time.perf_counter()
    try:
        module.check(state, tally)
    finally:
        _close(state)
    check_s = time.perf_counter() - t0

    report = {
        "setup_s": Metric(median(setups), "s", SETUPS),
        "peak_rss_mb": Metric(rss_mb, "MB", 1, "ru_maxrss after the timed region"),
        "failed_share": Metric(tally.failed_share, "share", tally.attempted),
        **report,
    }
    bad = [name for name in report if not valid_name(name)]
    if bad:
        raise ValueError(f"invalid metric names: {bad}")
    if tracer is not None:
        listed = spec["per_layer"]
        # Layers this workload does not touch read 0.
        values = {
            m["name"]: report[m["name"]].value if m["name"] in report else 0.0
            for m in listed
        }
    else:
        listed = spec["end_to_end"]
        values = {
            "setup_s": report["setup_s"].value,
            "peak_rss_mb": report["peak_rss_mb"].value,
            **{gate: report[name].value for gate, name in module.GATE.items()},
        }
    units = {m["name"]: m["unit"] for m in listed}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {module.WHY}")
    for line in format_report(args.workload, report):
        print(line)
    print("  gate: " + ", ".join(
        f"{gate} = {name}" for gate, name in module.GATE.items()
    ))
    for op_id, reason in sorted(tally.reasons.items())[:10]:
        print(f"  FAILED {op_id}: {reason}")

    record = {
        "time": time.time(),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(ROOT, args.seed, state.sizes()),
        "import_s": import_s,
        "setups_s": setups,
        "measured_s": measured_s,
        "check_s": check_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
        "report": {
            k: {"value": m.value, "unit": m.unit, "n": m.n, "note": m.note}
            for k, m in report.items()
        },
        "metrics": values,
    }
    append_record(OUT / "history.jsonl", record)
    if tracer is not None:
        tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
