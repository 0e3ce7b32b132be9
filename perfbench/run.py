#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload read|churn|serve|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Prints a human-readable report, then as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
from a separate traced run.  ``--workload all`` runs the three workloads
one after another, each in its own process.  Workloads and metrics are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read", "churn", "serve")


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: str = ROOT, **sizes):
    """Run one workload in this process; returns its ``RunRecord``."""
    from common import work_dir

    work = work_dir(root)
    if workload == "serve":
        import served

        return served.run(root, work, seed, seconds, trace, **sizes)
    import inproc

    return inproc.run(workload, seed, seconds, trace, work=work, **sizes)


def _absent(workload: str, name: str) -> bool:
    """Per-layer metrics of layers a workload never reaches read 0."""
    if workload == "serve":
        return name == "core.plan.invalidations_per_write"
    return name.startswith("service.")


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the host's ``/proc/stat`` (0s if absent)."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def result_line(record, spec: dict, trace: bool) -> tuple[dict, list[str]]:
    """The final JSON object, and the names of metrics that are missing or
    not finite."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    attempted = max(record.attempted, 1)
    if not trace:
        record.metrics["ok_rate"] = (attempted - record.failed) / attempted
    metrics, missing = {}, []
    for entry in wanted:
        value = record.metrics.get(entry["name"])
        if value is None and trace and _absent(record.workload, entry["name"]):
            value = 0.0
        if value is None or not math.isfinite(value):
            missing.append(entry["name"])
            continue
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = record.failed == 0 and not missing
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": record.failed,
        "metrics": metrics,
    }, missing


def report(record, result: dict, trace: bool) -> None:
    print(f"workload={record.workload} trace={int(trace)}")
    for note in record.notes:
        print(f"  {note}")
    print(f"  attempted={record.attempted} failed={record.failed} "
          f"error_rate={record.failed / max(record.attempted, 1):.6f} ratio")
    for message in record.messages:
        print(f"  FAILURE: {message}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<42} {entry['value']:>16.4f} {entry['unit']}")


def run_all(args) -> int:
    """Every workload, each in its own process; the last line combines
    their results with metric names prefixed by the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            return out.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the serve workload stops its server.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program source (src/repro) is not in this "
              "checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = load_spec(ROOT)
    trace = bool(args.trace)
    steal0, total0 = cpu_ticks()
    record = run_workload(args.workload, args.seed, args.seconds, trace)
    steal1, total1 = cpu_ticks()
    # Time the hypervisor gave to other guests: a run with a high share
    # measured a slower machine, not a slower program.
    record.note(f"host cpu steal during the run: "
                f"{100 * (steal1 - steal0) / max(total1 - total0, 1):.1f}%")
    result, missing = result_line(record, spec, trace)
    report(record, result, trace)
    for name in missing:
        print(f"  MISSING METRIC: {name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
