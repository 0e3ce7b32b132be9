#!/usr/bin/env python3
"""Self-test of the benchmark (about 20 seconds):

    python3 perfbench/selftest.py

Runs every workload with tiny sizes and a short run, untraced and traced,
and checks that each metric named in ``BENCHMARK.json`` is emitted with
its unit and that the run is correct.  Then feeds the validators
deliberately corrupted outputs (a dead key in a sample, a duplicate key,
a batch of the wrong size, a wrong ``get``, a forced ``ERR`` reply from a
live server) and checks that each is counted as a failure.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks
import inproc
import served
from common import RunRecord, work_dir
from run import load_spec, result_line, run_workload

TINY = {"read": {"n": 3_000, "builds": 1}, "churn": {"n": 3_000, "builds": 1},
        "serve": {"n": 2_000, "spawns": 1}}


def check_emission(spec: dict) -> list[str]:
    problems = []
    for workload, sizes in TINY.items():
        for trace in (False, True):
            record = run_workload(workload, 5, 0.4, trace, **sizes)
            result, missing = result_line(record, spec, trace)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            tag = f"{workload} trace={int(trace)}"
            if missing:
                problems.append(f"{tag}: missing {missing}")
            for entry in wanted:
                got = result["metrics"].get(entry["name"])
                if got is not None and got["unit"] != entry["unit"]:
                    problems.append(f"{tag}: {entry['name']} unit {got['unit']}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: not correct: {record.messages}")
            print(f"ok  {tag}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops")
    return problems


def check_validators() -> list[str]:
    problems = []

    def expect(found, what):
        if not found:
            problems.append(f"validator missed {what}")
        else:
            print(f"ok  validator counts {what}")

    live = {1: 5, 2: 7}
    expect(checks.check_sample([1, 3], live), "a dead key in a sample")
    expect(checks.check_sample([2, 2], live), "a duplicate key in a sample")
    expect(checks.check_sample([1, 2], live) is None, "(no false alarm)")
    mu, var = checks.size_moments([10] * 1000, 1, 0)
    expect(checks.check_batch_size([5] * 64, mu, var), "a wrong batch size")

    # A dead key injected into real HALT output reaches record.failed.
    from repro.core.halt import HALT

    rng = random.Random(2)
    items = [(k, rng.randint(1, 1000)) for k in range(200)]
    halt = HALT(items)
    real_query = halt.query
    halt.query = lambda a, b: real_query(a, b) + [10**9]
    record = RunRecord("read")
    runner = inproc.Runner("read", halt, dict(items), [(1, 0)],
                           iter([("q", 0)] * 5), record)
    runner.run(inproc.Meter(), limit=5)
    expect(record.failed == 5, "a corrupted HALT sample in the runner")

    # Served records: a forced ERR from a live server, a wrong get, a
    # sample holding a key that was never live.
    work = work_dir(ROOT)
    snapshot = os.path.join(work, "selftest-base.json")
    initial = served.make_snapshot(snapshot, 9, 200)
    server = served.Server(ROOT, work, "selftest", snapshot, 200)
    try:
        err = server.request(b"del 999999\n").strip()
    finally:
        server.stop()
    t = 1000
    records = [
        (0, "del", 999999, None, t, t + 1, [err], True),
        (0, "get", 0, None, t + 2, t + 3, [str(initial[0] + 1)], True),
        (1, "query", None, None, t + 4, t + 5, ["1 123456"], True),
        (1, "query", None, None, t + 6, t + 7, ["1 3"], True),
    ]
    record = RunRecord("serve")
    checks.check_served(records, initial, record)
    expect(err.startswith("ERR") and record.failed == 3,
           "a forced ERR, a wrong get and a dead served key")
    return problems


def main() -> int:
    spec = load_spec(ROOT)
    problems = check_emission(spec) + check_validators()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
