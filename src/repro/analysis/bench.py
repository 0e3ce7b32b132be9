"""Persisted benchmark trajectory: machine-readable E1/E3 records.

Every benchmark run (the full pytest experiments and the CLI's two-minute
smoke) appends a run record to ``BENCH_E1.json`` / ``BENCH_E3.json`` so the
repo carries its own performance history: a future PR diffs its numbers
against any earlier run instead of re-measuring a lost baseline.

File shape::

    {
      "experiment": "E1",
      "unit": "ns_per_op",
      "runs": [
        {"label": "...", "commit": "...",
         "results": [{"structure": "HALT", "n": 100000, "mu": 1.0,
                      "ns_per_op": 89107, "op": "query(1,0)",
                      "fastpath": false}, ...]},
        ...
      ]
    }

The first run in each file is the pre-fastpath baseline this trajectory
started from.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import subprocess
import time
from typing import Callable

BENCH_FILES = {
    "E1": "BENCH_E1.json",
    "E3": "BENCH_E3.json",
    "E12": "BENCH_E12.json",
    "E14": "BENCH_E14.json",
    "CODEC": "BENCH_CODEC.json",
}


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def bench_dir(explicit: str | None = None) -> str:
    """Where the BENCH_*.json files live: ``benchmarks/`` when present."""
    if explicit:
        return explicit
    candidate = os.path.join(os.getcwd(), "benchmarks")
    return candidate if os.path.isdir(candidate) else os.getcwd()


#: Unit of each experiment's result records (throughput vs latency).
BENCH_UNITS = {
    "E12": "ops_per_sec",
    "E14": "ns_latency",
    "CODEC": "ns_round_trip",
}


def load_runs(experiment: str, directory: str | None = None) -> dict:
    """The experiment's full record document (empty skeleton if absent)."""
    path = os.path.join(bench_dir(directory), BENCH_FILES[experiment])
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    return {
        "experiment": experiment,
        "unit": BENCH_UNITS.get(experiment, "ns_per_op"),
        "runs": [],
    }


def append_run(
    experiment: str,
    label: str,
    results: list[dict],
    directory: str | None = None,
) -> str:
    """Append one run record and rewrite the JSON file; returns its path."""
    doc = load_runs(experiment, directory)
    # Machine context travels with every run: a trajectory mixing laptops
    # and CI runners is only interpretable if each record says where it ran.
    doc["runs"].append({
        "label": label,
        "commit": _git_commit(),
        "cpus": os.cpu_count(),
        "host": socket.gethostname(),
        "results": results,
    })
    path = os.path.join(bench_dir(directory), BENCH_FILES[experiment])
    # Atomic rewrite: an interrupted dump must not corrupt the trajectory.
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    os.replace(tmp_path, path)
    return path


def baseline(experiment: str, directory: str | None = None) -> dict | None:
    """The first recorded run (the trajectory's origin), if any."""
    runs = load_runs(experiment, directory).get("runs", [])
    return runs[0] if runs else None


#: The E12 ``parallel_shards`` gate: worker-runtime shards must sustain at
#: least this multiple of the inline runtime's ops/sec on the same mixed
#: 90/10 stream — on a machine with >= 2 CPUs, where the per-shard fan-out
#: actually buys parallelism.  A single-CPU machine has no parallelism to
#: buy (the workers time-slice one core and pay framing on top), so there
#: the gate degrades to a sanity floor: the worker runtime must not cost
#: more than 4x inline.  The full >= 1.5x gate runs wherever CI runs.
PARALLEL_GATE_MULTICORE = 1.5
PARALLEL_GATE_SINGLE_CORE = 0.25


def parallel_shards_gate(cores: int) -> float:
    """The applicable ``parallel_shards`` speedup threshold (see above)."""
    return PARALLEL_GATE_MULTICORE if cores >= 2 else PARALLEL_GATE_SINGLE_CORE


def best_ns(fn: Callable[[], object], repeat: int, inner: int = 1) -> float:
    """Best-of wall time per call in nanoseconds (noise-robust)."""
    best: float | None = None
    for _ in range(repeat):
        start = time.perf_counter_ns()
        for _ in range(inner):
            fn()
        elapsed = (time.perf_counter_ns() - start) / inner
        if best is None or elapsed < best:
            best = elapsed
    return best if best is not None else 0.0


def run_smoke(
    directory: str | None = None,
    n: int = 100_000,
    record: bool = True,
) -> dict:
    """The two-minute bench smoke behind ``python -m repro bench --smoke``.

    Measures E1 query throughput (fast and exact engines, plus a reduced-n
    naive control) and E3 update cost, prints a table, appends the runs to
    the trajectory files, and returns a summary dict with the speedup
    against each trajectory's first (baseline) run.
    """
    import random

    from ..core.halt import HALT
    from ..core.naive import NaiveDPSS
    from ..randvar.bitsource import RandomBitSource
    from .harness import print_table

    rng = random.Random(1234)
    items = [(i, rng.randint(1, (1 << 24) - 1)) for i in range(n)]

    fast = HALT(items, source=RandomBitSource(7), fast=True)
    exact = HALT(items, source=RandomBitSource(7), fast=False)
    mu = float(fast.expected_sample_size(1, 0))

    for _ in range(30):
        fast.query(1, 0)
    fast_ns = best_ns(lambda: fast.query(1, 0), repeat=40, inner=10)
    exact_ns = best_ns(lambda: exact.query(1, 0), repeat=15, inner=3)

    # Observability overhead: the same single-query loop with the
    # process-wide instrumentation switch off — what every ``OBS.enabled``
    # guard + live counter on the query path costs; the E1 overhead gate
    # pins it under 3%.  The true cost is a fraction of a percent, so the
    # estimator must survive host noise larger than the gate: two long
    # back-to-back windows put all drift on the ratio, so instead take
    # the *median of per-pair ratios over many short alternating bursts*
    # (adjacent bursts see the same machine, so drift cancels pairwise),
    # alternating which state runs first in each pair (cache/frequency
    # ordering effects cancel too).  ~2s total; measured trial-to-trial
    # spread on a noisy 1-CPU VM is ~1%, against the 3% gate.
    from ..obs.metrics import set_enabled

    def _query_burst() -> float:
        return best_ns(lambda: fast.query(1, 0), repeat=3, inner=40)

    def _query_burst_off() -> float:
        previous_obs = set_enabled(False)
        try:
            return _query_burst()
        finally:
            set_enabled(previous_obs)

    obs_ratios = []
    obs_off_samples = []
    for pair in range(100):
        if pair % 2 == 0:
            on_burst = _query_burst()
            off_burst = _query_burst_off()
        else:
            off_burst = _query_burst_off()
            on_burst = _query_burst()
        obs_ratios.append(on_burst / off_burst)
        obs_off_samples.append(off_burst)
    obs_overhead = statistics.median(obs_ratios)
    obs_off_ns = min(obs_off_samples)

    # The columnar batch gate: count=64 draws through the batched
    # executor versus the same 64 draws as looped single queries.
    batch_count = 64
    for _ in range(5):
        fast.query_many(1, 0, batch_count)
    batch_ns = best_ns(
        lambda: fast.query_many(1, 0, batch_count), repeat=25, inner=3
    ) / batch_count

    # The kernel-layer gate: count=256 draws through the batched columnar
    # executor versus the same 256 draws as looped single queries, measured
    # in the same run so host drift cancels out of the ratio.
    kernel_count = 256
    for _ in range(3):
        fast.query_many(1, 0, kernel_count)
    kernel_batch_ns = best_ns(
        lambda: fast.query_many(1, 0, kernel_count), repeat=12, inner=2
    ) / kernel_count
    looped_ns = best_ns(
        lambda: [fast.query(1, 0) for _ in range(kernel_count)],
        repeat=6,
    ) / kernel_count

    n_naive = min(n, 1 << 14)
    naive = NaiveDPSS(items[:n_naive], source=RandomBitSource(8))
    naive_ns = best_ns(lambda: naive.query(1, 0), repeat=3)

    e1_results = [
        {"structure": "HALT", "n": n, "mu": round(mu, 3),
         "ns_per_op": round(fast_ns), "op": "query(1,0)", "fastpath": True},
        {"structure": "HALT", "n": n, "mu": round(mu, 3),
         "ns_per_op": round(batch_ns),
         "op": f"query_many(1,0,{batch_count})/draw", "fastpath": True},
        {"structure": "HALT", "n": n, "mu": round(mu, 3),
         "ns_per_op": round(exact_ns), "op": "query(1,0)", "fastpath": False},
        {"structure": "NaiveDPSS", "n": n_naive, "mu": None,
         "ns_per_op": round(naive_ns), "op": "query(1,0)", "fastpath": True},
        {"structure": "HALT", "n": n, "mu": round(mu, 3),
         "ns_per_op": round(obs_off_ns), "op": "query(1,0) obs-off",
         "fastpath": True},
        {"structure": "HALT", "n": n, "mu": round(mu, 3),
         "ns_per_op": round(looped_ns), "op": "query(1,0) looped",
         "fastpath": True},
        {"structure": "HALT", "n": n, "mu": round(mu, 3),
         "ns_per_op": round(kernel_batch_ns),
         "op": f"query_many(1,0,{kernel_count})/draw", "fastpath": True},
    ]

    counter = iter(range(1 << 62))

    def one_update():
        key = ("smoke", next(counter))
        fast.insert(key, 12345)
        fast.delete(key)

    update_ns = best_ns(one_update, repeat=200, inner=5) / 2
    e3_results = [
        {"structure": "HALT", "n": n, "mu": None,
         "ns_per_op": round(update_ns), "op": "insert+delete/2",
         "fastpath": True},
    ]

    summary = {
        "e1": e1_results,
        "e3": e3_results,
        "speedup_vs_exact": exact_ns / fast_ns if fast_ns else None,
        "query_many_speedup": fast_ns / batch_ns if batch_ns else None,
        "query_many_speedup_256": (
            looped_ns / kernel_batch_ns if kernel_batch_ns else None
        ),
        "obs_overhead": obs_overhead,
    }
    base = baseline("E1", directory)
    if base:
        base_halt = [
            r
            for r in base["results"]
            if r["structure"] == "HALT" and r["n"] == n
        ]
        if base_halt:
            summary["speedup_vs_baseline"] = base_halt[0]["ns_per_op"] / fast_ns

    print_table(
        "bench smoke: E1 query (ns/op)",
        ["structure", "n", "op", "ns/op"],
        [[r["structure"] + ("" if r["fastpath"] else " (exact)"),
          r["n"], r["op"], r["ns_per_op"]] for r in e1_results],
    )
    print_table(
        "bench smoke: E3 update (ns/op)",
        ["structure", "n", "ns/op"],
        [[r["structure"], r["n"], r["ns_per_op"]] for r in e3_results],
    )
    if "speedup_vs_baseline" in summary:
        print(f"E1 fastpath speedup vs recorded baseline: "
              f"{summary['speedup_vs_baseline']:.2f}x")
    print(f"E1 fastpath speedup vs exact engine (same build): "
          f"{summary['speedup_vs_exact']:.2f}x")
    print(f"E1 query_many columnar batch vs looped single queries: "
          f"{summary['query_many_speedup']:.2f}x")
    print(f"E1 query_many count=256 vs looped singles: "
          f"{summary['query_many_speedup_256']:.2f}x")
    print(f"E1 observability overhead (instrumented / obs-off query): "
          f"{summary['obs_overhead']:.3f}x")

    if record:
        append_run("E1", "bench --smoke", e1_results, directory)
        append_run("E3", "bench --smoke", e3_results, directory)
    return summary


def _measure_serve_fronts(
    items: list[tuple],
    num_shards: int,
    ops: int,
    clients: int,
    hot_keys: int = 256,
    hot_fraction: float = 0.6,
) -> tuple[float, float]:
    """ns/op of the two serve fronts over the same ``put`` stream, both on
    real localhost TCP so the transport cost is symmetric.

    The stream is hot-key skewed (``hot_fraction`` of the writes target
    ``hot_keys`` distinct keys, the rest are uniform) — the shape serving
    traffic has and the shape write pipelining is built for: the serial
    write-through loop pays one ``apply_many`` walk per accepted op, hot or
    not, while the pipelined front's drains net per-key churn out and run
    the bucket cascade once per touched bucket.

    Serial: the blocking ``serve_loop`` behind one TCP connection, the
    client pipelining its requests from a sender thread while the main
    thread consumes replies (the serial front's best case — no round-trip
    stalls).  Pipelined: the asyncio front with ``clients`` concurrent
    connections, each pipelining its share of the same stream, pending
    writes draining at the burst watermark or on loop idle.
    """
    import asyncio
    import random
    import socket
    import threading

    from ..service import SamplingService, ServiceConfig
    from ..service.async_serve import AsyncLineServer
    from ..service.serve_loop import serve_loop

    # One whole burst per drain: the watermark is the knob a deployment
    # sizes to its burst length, so the bench sizes it to the bench burst.
    def build() -> SamplingService:
        svc = SamplingService(
            ServiceConfig(
                num_shards=num_shards, backend="halt", seed=83, batch_ops=ops
            )
        )
        svc.submit([("insert", key, weight) for key, weight in items])
        svc.flush()
        return svc

    rng = random.Random(99)
    n = len(items)
    hot = [rng.randrange(n) for _ in range(hot_keys)]
    base = [
        (
            hot[rng.randrange(hot_keys)]
            if rng.random() < hot_fraction
            else rng.randrange(n),
            rng.randint(1, (1 << 24) - 1),
        )
        for _ in range(ops)
    ]
    mask = (1 << 24) - 1
    round_no = [0]

    def script_lines() -> list[str]:
        # Salted per round: every timing round must move real weight.
        round_no[0] += 1
        salt = round_no[0]
        return [f"put {key} {((w + salt) & mask) or 1}" for key, w in base]

    serial = build()

    def serial_round() -> None:
        payload = ("\n".join(script_lines()) + "\nquit\n").encode()
        listener = socket.create_server(("127.0.0.1", 0))
        _, port = listener.getsockname()[:2]

        def serve_one() -> None:
            conn, _ = listener.accept()
            with conn, conn.makefile("r") as rf, conn.makefile("w") as wf:
                serve_loop(serial, rf, wf)

        server = threading.Thread(target=serve_one)
        server.start()
        client = socket.create_connection(("127.0.0.1", port))
        sender = threading.Thread(target=client.sendall, args=(payload,))
        sender.start()
        replies = 0
        while replies < ops + 1:
            chunk = client.recv(1 << 16)
            if not chunk:
                break
            replies += chunk.count(b"\n")
        sender.join()
        client.close()
        server.join()
        listener.close()
        if replies != ops + 1:
            raise RuntimeError(
                f"serve bench (serial): {replies} replies for {ops} requests"
            )

    serial_ns = best_ns(serial_round, repeat=3) / ops

    pipelined = build()

    async def pipelined_round_async() -> None:
        server = await AsyncLineServer(
            pipelined, port=0, watermark=ops
        ).start()
        host, port = server.address
        lines = script_lines()  # one generation per round, like the serial side
        shares = [share for share in
                  (lines[i::clients] for i in range(clients)) if share]

        async def client(share: list[str]) -> None:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(("\n".join(share) + "\nquit\n").encode())
            await writer.drain()
            data = await reader.read(-1)  # server closes after quit
            writer.close()
            replies = data.count(b"\n")
            if replies != len(share) + 1:
                raise RuntimeError(
                    f"serve bench: {replies} replies for {len(share)} requests"
                )

        try:
            await asyncio.gather(*(client(share) for share in shares))
        finally:
            await server.aclose()

    def pipelined_round() -> None:
        asyncio.run(pipelined_round_async())

    pipelined_ns = best_ns(pipelined_round, repeat=3) / ops
    return serial_ns, pipelined_ns


def run_service_smoke(
    directory: str | None = None,
    n: int = 100_000,
    mixed_ops: int = 20_000,
    update_batch: int = 4_096,
    num_shards: int = 4,
    serve_clients: int = 8,
    record: bool = True,
) -> dict:
    """The E12 serving-layer smoke: batched service vs single-call loop.

    Three measurements over the same item population (n items, 24-bit
    weights) and the same op streams:

    - **update path** (gate: >= 3x): ``update_batch`` weight updates applied
      as one service ``submit`` + ``flush`` (mutation log -> per-shard
      ``apply_many``, one hierarchy walk per touched bucket) versus the same
      updates as single ``update_weight`` calls on an unsharded HALT.
    - **mixed 90/10 read/write serving mix** (recorded for trend): the same
      interleaved stream served by the service in windows (reads through
      ``query_many``, writes through the log) versus one-call-at-a-time
      against the unsharded HALT.
    - **serve fronts** (gate: >= 2x): the same ``put`` stream through the
      serial stdin/stdout serve loop (write-through) versus the asyncio
      front with ``serve_clients`` concurrent pipelined-writer connections
      (writes coalescing across connections into batched drains).
    """
    import random

    from ..core.halt import HALT
    from ..randvar.bitsource import RandomBitSource
    from ..service import SamplingService, ServiceConfig
    from .harness import print_table

    rng = random.Random(4321)
    items = [(i, rng.randint(1, (1 << 24) - 1)) for i in range(n)]

    single = HALT(items, source=RandomBitSource(71), fast=True)
    service = SamplingService(
        ServiceConfig(num_shards=num_shards, backend="halt", seed=71)
    )
    service.submit([("insert", key, weight) for key, weight in items])
    service.flush()

    # -- update path: batched apply_many vs single-call loop ----------------
    # Weights are perturbed per timing round: every round must move real
    # weight (the batched path nets out no-op updates, and measuring a
    # round of pure no-ops would overstate the batching win).
    updates = [
        ("update", rng.randrange(n), rng.randint(1, (1 << 24) - 1))
        for _ in range(update_batch)
    ]
    mask = (1 << 24) - 1

    def perturbed(round_counter: list[int]) -> list[tuple]:
        round_counter[0] += 1
        salt = round_counter[0]
        return [
            ("update", key, ((weight + salt) & mask) or 1)
            for _, key, weight in updates
        ]

    single_round = [0]
    batched_round = [0]

    def updates_single() -> None:
        for _, key, weight in perturbed(single_round):
            single.update_weight(key, weight)

    def updates_batched() -> None:
        service.submit(perturbed(batched_round))
        service.flush()

    single_update_ns = best_ns(updates_single, repeat=5) / update_batch
    batched_update_ns = best_ns(updates_batched, repeat=5) / update_batch
    update_speedup = single_update_ns / batched_update_ns

    # -- mixed 90/10 serving stream -----------------------------------------
    stream = []
    for _ in range(mixed_ops):
        if rng.random() < 0.9:
            stream.append(None)  # read: query(1, 0)
        else:
            stream.append(
                ("update", rng.randrange(n), rng.randint(1, (1 << 24) - 1))
            )

    mixed_single_round = [0]

    def mixed_single() -> None:
        mixed_single_round[0] += 1
        salt = mixed_single_round[0]
        for op in stream:
            if op is None:
                single.query(1, 0)
            else:
                single.update_weight(op[1], ((op[2] + salt) & mask) or 1)

    def timed_mixed(svc) -> float:
        """ns/op of the windowed mixed stream through one service front —
        the shared driver of the mixed row (inline service vs unsharded
        single-call loop) and the parallel_shards row (worker runtime vs
        inline runtime, same front, same stream)."""
        counter = [0]

        def one_round(window: int = 512) -> None:
            counter[0] += 1
            salt = counter[0]
            for start in range(0, len(stream), window):
                reads = 0
                writes = []
                for op in stream[start:start + window]:
                    if op is None:
                        reads += 1
                    else:
                        writes.append(
                            ("update", op[1], ((op[2] + salt) & mask) or 1)
                        )
                if writes:
                    svc.submit(writes)
                if reads:
                    svc.query_many([(1, 0)] * reads)
            svc.flush()

        return best_ns(one_round, repeat=3) / mixed_ops

    mixed_single_ns = best_ns(mixed_single, repeat=3) / mixed_ops
    mixed_service_ns = timed_mixed(service)

    # -- shard runtimes: worker processes vs inline, same mixed stream ------
    # The parallel_shards row answers the ROADMAP's sharding-tax question:
    # the same windowed 90/10 stream through the same sharded front, with
    # the only difference being where the shards live.  Worker shards run
    # each drain and each batched read fan-out on their own CPUs, so on a
    # multi-core machine the row's speedup tracks the core count; on a
    # single-core machine there is no parallelism to buy and the ratio
    # records the (small) framing overhead instead.  The inline side is
    # the mixed measurement just taken on the same front.
    worker_service = SamplingService(
        ServiceConfig(
            num_shards=num_shards, backend="halt", seed=71, workers=True
        )
    )
    try:
        worker_service.submit(
            [("insert", key, weight) for key, weight in items]
        )
        worker_service.flush()
        worker_mixed_ns = timed_mixed(worker_service)
    finally:
        worker_service.close()
    inline_mixed_ns = mixed_service_ns
    parallel_speedup = inline_mixed_ns / worker_mixed_ns
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1

    # -- serve fronts: serial loop vs pipelined concurrent writers ----------
    serial_serve_ns, pipelined_serve_ns = _measure_serve_fronts(
        items, num_shards, ops=update_batch, clients=serve_clients
    )
    serve_speedup = serial_serve_ns / pipelined_serve_ns

    def ops_per_sec(ns: float) -> int:
        return round(1e9 / ns) if ns else 0

    results = [
        {
            "workload": "updates", "n": n, "ops": update_batch,
            "shards": num_shards,
            "single_ops_per_sec": ops_per_sec(single_update_ns),
            "service_ops_per_sec": ops_per_sec(batched_update_ns),
            "speedup": round(update_speedup, 2),
        },
        {
            "workload": "mixed_90r_10w", "n": n, "ops": mixed_ops,
            "shards": num_shards,
            "single_ops_per_sec": ops_per_sec(mixed_single_ns),
            "service_ops_per_sec": ops_per_sec(mixed_service_ns),
            "speedup": round(mixed_single_ns / mixed_service_ns, 2)
            if mixed_service_ns else None,
        },
        {
            "workload": "parallel_shards", "n": n, "ops": mixed_ops,
            "shards": num_shards, "cores": cores,
            "single_ops_per_sec": ops_per_sec(inline_mixed_ns),
            "service_ops_per_sec": ops_per_sec(worker_mixed_ns),
            "speedup": round(parallel_speedup, 2),
        },
        {
            "workload": "serve_pipelined", "n": n, "ops": update_batch,
            "shards": num_shards, "clients": serve_clients,
            "single_ops_per_sec": ops_per_sec(serial_serve_ns),
            "service_ops_per_sec": ops_per_sec(pipelined_serve_ns),
            "speedup": round(serve_speedup, 2),
        },
    ]
    print_table(
        "bench smoke: E12 service throughput (ops/sec)",
        ["workload", "n", "single-call", "service (batched)", "speedup"],
        [
            [r["workload"], r["n"], r["single_ops_per_sec"],
             r["service_ops_per_sec"], f"{r['speedup']:.2f}x"]
            for r in results
        ],
    )
    summary = {
        "e12": results,
        "update_speedup": update_speedup,
        "mixed_speedup": results[1]["speedup"],
        "parallel_speedup": parallel_speedup,
        "parallel_cores": cores,
        "serve_speedup": serve_speedup,
    }
    if record:
        append_run("E12", "bench --smoke", results, directory)
    return summary


def run_failover_bench(
    directory: str | None = None,
    n: int = 20_000,
    ops: int = 2_000,
    num_shards: int = 2,
    record: bool = True,
) -> dict:
    """The E12 ``failover`` row: query latency through a mid-stream kill.

    A workers+standby service is preloaded with ``n`` items and then serves
    a mixed 80/20 query/put stream while a scripted
    :class:`~repro.service.faults.FaultPlan` SIGKILLs shard 0's head right
    after a query fan-out frame was sent — the worst spot: the reply is
    already owed.  The supervisor promotes the warm standby (O(tail): the
    applied-batch log is empty right after the preload flush) and retries
    the orphaned query, so the stream keeps flowing with zero errors.  The
    row records the client-observed per-query p50/p99 — the kill and the
    promotion ride inside those quantiles — plus the supervisor's failover
    counters; ``cmd_bench`` gates the quantiles against the absolute E14
    latency budgets (25 ms p50 / 250 ms p99).
    """
    import random
    from time import perf_counter_ns

    from ..service import SamplingService, ServiceConfig
    from ..service.faults import Fault, FaultPlan
    from .harness import print_table

    rng = random.Random(9173)
    plan = FaultPlan(
        [Fault("query_sent", shard=0, nth=max(1, ops // 4), member="head")]
    )
    service = SamplingService(
        ServiceConfig(
            num_shards=num_shards, backend="halt", seed=71,
            workers=True, standby=True,
        ),
        fault_plan=plan,
    )
    latencies: list[int] = []
    errors = 0
    try:
        service.submit(
            [("insert", i, rng.randint(1, (1 << 24) - 1)) for i in range(n)]
        )
        service.flush()
        key = n
        for _ in range(ops):
            if rng.random() < 0.2:
                service.submit_one(
                    ("insert", key, rng.randint(1, (1 << 24) - 1))
                )
                key += 1
            else:
                start = perf_counter_ns()
                try:
                    service.query(1, 0)
                except Exception:
                    errors += 1
                latencies.append(perf_counter_ns() - start)
        service.flush()
        failovers = dict(service.backend.failovers or {})
    finally:
        service.close()

    ranked = sorted(latencies)

    def pct(q: float) -> int:
        return ranked[min(len(ranked) - 1, int(q * (len(ranked) - 1)))]

    row = {
        "workload": "failover", "n": n, "ops": ops, "shards": num_shards,
        "queries": len(ranked), "errors": errors,
        "kill": "SIGKILL head shard=0 at query_sent",
        "fired": plan.exhausted,
        "p50_ns": pct(0.50), "p99_ns": pct(0.99),
        "respawns": failovers.get("respawns", 0),
        "promotions": failovers.get("promotions", 0),
        "retries": failovers.get("retries", 0),
    }
    print_table(
        "bench smoke: E12 failover (standby promotion under a head kill)",
        ["workload", "queries", "errors", "p50 (us)", "p99 (us)",
         "promotions", "retries"],
        [[row["workload"], row["queries"], row["errors"],
          row["p50_ns"] // 1000, row["p99_ns"] // 1000,
          row["promotions"], row["retries"]]],
    )
    if record:
        append_run("E12", "bench --smoke", [row], directory)
    return {
        "failover": row,
        "failover_p50_ns": row["p50_ns"],
        "failover_p99_ns": row["p99_ns"],
        "failover_errors": errors,
        "failover_fired": plan.exhausted,
        "failover_promotions": row["promotions"],
    }


def run_codec_microbench(
    directory: str | None = None,
    batch_ops: int = 10_000,
    record: bool = True,
) -> dict:
    """The shard-RPC frame-codec microbench: binary framing vs pickle.

    Measures the cost of moving one ``apply`` batch of ``batch_ops`` ops
    across the framing boundary — the work the RPC layer does per frame
    once the front has a columnar batch in hand:

    - **binary framing** (gated: >= 3x vs pickle): encode a prepared
      :class:`~repro.service.frames.OpColumns` batch to wire bytes and
      decode it back columnar — exactly what ``WorkerBackend`` ships and
      what the worker receives.  The columns move as raw ``array('q')``
      buffers via ``memoryview``, so this is a handful of length-checked
      buffer joins/slices instead of a per-op object walk.
    - **pickle round trip**: ``pickle.dumps``/``loads`` of the same batch
      as the tuple message the old wire carried — the cost being replaced.
    - **end to end** (recorded, not gated): tuple extraction + framing +
      columnar decode + tuple materialization.  This brackets the codec
      from the tuple side; the shipped path does the extraction once per
      drained batch on the front and materializes once inside the worker's
      ``apply_many``, so the framing row is the per-frame hot cost.

    Rows record both round-trip times, the frame sizes, and the speedups;
    an ``apply_str`` row repeats the measurement with string keys
    (recorded for trend, not gated).
    """
    import pickle
    import random

    from ..service import frames
    from .harness import print_table

    rng = random.Random(2718)
    batches = {
        "apply_int": [
            ("update", rng.randrange(1 << 40), rng.randint(1, (1 << 24) - 1))
            for _ in range(batch_ops)
        ],
        "apply_str": [
            ("update", "user:%d" % rng.randrange(1 << 32),
             rng.randint(1, (1 << 24) - 1))
            for _ in range(batch_ops)
        ],
    }

    results = []
    for workload, ops in batches.items():
        message = ("apply", ops)
        cols = frames.OpColumns.from_ops(ops)
        wire = frames.encode_payload(("apply", cols))
        blob = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        assert frames.decode_payload(wire) == message
        assert pickle.loads(blob) == message

        binary_ns = best_ns(
            lambda: frames.decode_payload(
                frames.encode_payload(("apply", cols)), columnar=True
            ),
            repeat=30, inner=3,
        )
        pickle_ns = best_ns(
            lambda: pickle.loads(
                pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            ),
            repeat=30, inner=3,
        )
        end_to_end_ns = best_ns(
            lambda: frames.decode_payload(
                frames.encode_payload(
                    ("apply", frames.OpColumns.from_ops(ops))
                ),
                columnar=True,
            )[1].to_ops(),
            repeat=10, inner=3,
        )
        results.append({
            "workload": workload, "ops": batch_ops,
            "binary_rt_ns": round(binary_ns),
            "pickle_rt_ns": round(pickle_ns),
            "end_to_end_rt_ns": round(end_to_end_ns),
            "binary_bytes": len(wire),
            "pickle_bytes": len(blob),
            "speedup": round(pickle_ns / binary_ns, 2),
            "end_to_end_speedup": round(pickle_ns / end_to_end_ns, 2),
            "gated": workload == "apply_int",
        })

    # Worker query-reply encode (recorded, not gated): the columnar
    # DrawColumns producer path (flatten once at the shard, then emit)
    # vs the eager re-flattening encoder vs pickle, over a reply shaped
    # like a busy shard's — frames must be byte-identical by construction.
    qdraws = [
        [rng.randrange(1 << 40) for _ in range(rng.randrange(8))]
        for _ in range(2048)
    ]
    qmessage = ("ok", (qdraws, 123456))
    qwire = frames.encode_payload(qmessage)
    assert frames.encode_payload(
        ("ok", (frames.DrawColumns.from_draws(qdraws), 123456))
    ) == qwire
    assert frames.decode_payload(qwire) == qmessage
    qblob = pickle.dumps(qmessage, pickle.HIGHEST_PROTOCOL)
    q_binary_ns = best_ns(
        lambda: frames.decode_payload(frames.encode_payload(
            ("ok", (frames.DrawColumns.from_draws(qdraws), 123456))
        )),
        repeat=30, inner=3,
    )
    q_eager_ns = best_ns(
        lambda: frames.decode_payload(frames.encode_payload(qmessage)),
        repeat=30, inner=3,
    )
    q_pickle_ns = best_ns(
        lambda: pickle.loads(
            pickle.dumps(qmessage, pickle.HIGHEST_PROTOCOL)
        ),
        repeat=30, inner=3,
    )
    results.append({
        "workload": "query_ok_int", "ops": len(qdraws),
        "binary_rt_ns": round(q_binary_ns),
        "pickle_rt_ns": round(q_pickle_ns),
        "end_to_end_rt_ns": round(q_eager_ns),
        "binary_bytes": len(qwire),
        "pickle_bytes": len(qblob),
        "speedup": round(q_pickle_ns / q_binary_ns, 2),
        "end_to_end_speedup": round(q_pickle_ns / q_eager_ns, 2),
        "gated": False,
    })

    print_table(
        "bench smoke: shard-RPC frame codec (round-trip ns, "
        f"{batch_ops}-op apply batch)",
        ["workload", "binary (us)", "pickle (us)", "end-to-end (us)",
         "bin bytes", "pkl bytes", "speedup"],
        [[r["workload"], r["binary_rt_ns"] // 1000,
          r["pickle_rt_ns"] // 1000, r["end_to_end_rt_ns"] // 1000,
          r["binary_bytes"], r["pickle_bytes"], f"{r['speedup']:.2f}x"]
         for r in results],
    )
    if record:
        append_run("CODEC", "bench --smoke", results, directory)
    gated = results[0]
    return {
        "codec": results,
        "codec_speedup": gated["speedup"],
        "codec_binary_ns": gated["binary_rt_ns"],
        "codec_pickle_ns": gated["pickle_rt_ns"],
    }


def run_slow_shard_bench(
    directory: str | None = None,
    n: int = 5_000,
    puts: int = 300,
    num_shards: int = 3,
    delay_s: float = 0.02,
    record: bool = True,
) -> dict:
    """The E12 ``slow_shard`` rows: front responsiveness with one shard
    artificially delayed.

    Three measured cells, each a fresh workers-runtime service behind the
    asyncio front.  One connection hammers ``query`` — every query's
    fan-out waits on the delayed shard — while a second connection times
    ``puts`` put acks.  Put acks never RPC (validation against pending
    log + draining overlay + applied mirror; the watermark is set so no
    drain fires mid-measurement), so their latency measures only whether
    the event loop stays responsive while a shard reply is owed:

    - ``baseline``: no delay, event-loop dispatch.
    - ``sync_dispatch``: shard 0 sleeps ``delay_s`` before every query
      (the worker's ``delay`` debug verb) and the server runs the
      historical blocking dispatch — each hammered query holds the whole
      loop for ``delay_s``, so every put ack queues behind it and put p99
      blows up to the delay.  Recorded first as the pre-PR baseline.
    - ``async_dispatch``: same delayed shard, event-loop dispatch — the
      fan-out parks only its own coroutine and put acks stay flat.

    ``cmd_bench`` gates the async cell: put p99 within 2x of the no-delay
    baseline (with a small absolute floor absorbing scheduler noise),
    while the sync cell documents the stall being engineered away.
    """
    import asyncio
    import contextlib
    import random
    from time import perf_counter_ns

    from ..service import SamplingService, ServiceConfig
    from ..service.async_serve import AsyncLineServer
    from .harness import print_table

    def build() -> SamplingService:
        rng = random.Random(515)
        service = SamplingService(
            ServiceConfig(
                num_shards=num_shards, backend="halt", seed=71, workers=True
            )
        )
        service.submit(
            [("insert", i, rng.randint(1, (1 << 24) - 1)) for i in range(n)]
        )
        service.flush()
        return service

    async def cell(async_dispatch: bool, delay: float) -> list[int]:
        service = build()
        # Watermark far above the put count: the measured puts buffer in
        # the pending log and never trigger a drain, so each ack is pure
        # front-side work racing the hammered query fan-outs for the loop.
        server = await AsyncLineServer(
            service, port=0, watermark=1 << 30,
            async_dispatch=async_dispatch,
        ).start()
        host, port = server.address
        if delay:
            service.backend.set_delay(0, delay)
        stop = asyncio.Event()

        async def hammer() -> None:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                while not stop.is_set():
                    writer.write(b"query 1 0\n")
                    await writer.drain()
                    if not await reader.readline():
                        return
                # Quit so the server closes this connection itself — no
                # connection task left for aclose() to cancel.
                writer.write(b"quit\n")
                await writer.drain()
                await reader.read(-1)
            finally:
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()

        latencies: list[int] = []
        try:
            hammer_task = asyncio.ensure_future(hammer())
            # Let the hammer reach steady state before timing starts.
            await asyncio.sleep(4 * delay if delay else 0.05)
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for index in range(puts):
                    line = b"put slow:%d 5\n" % index
                    start = perf_counter_ns()
                    writer.write(line)
                    await writer.drain()
                    reply = await reader.readline()
                    latencies.append(perf_counter_ns() - start)
                    if not reply.startswith(b"OK"):
                        raise RuntimeError(f"slow_shard put ack: {reply!r}")
                writer.write(b"quit\n")
                await writer.drain()
                await reader.read(-1)
            finally:
                # Stop the hammer and *await* it (no cancel): its last
                # query must finish its fan-out before aclose() runs the
                # final synchronous drain on the same member sockets.
                stop.set()
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
            await hammer_task
        finally:
            await server.aclose()
            service.close()
        return latencies

    cells = {}
    for label, async_dispatch, delay in (
        ("baseline", True, 0.0),
        ("sync_dispatch", False, delay_s),
        ("async_dispatch", True, delay_s),
    ):
        ranked = sorted(asyncio.run(cell(async_dispatch, delay)))

        def pct(q: float) -> int:
            return ranked[min(len(ranked) - 1, int(q * (len(ranked) - 1)))]

        cells[label] = {"p50_ns": pct(0.50), "p99_ns": pct(0.99)}

    base_p99 = cells["baseline"]["p99_ns"]
    results = [
        {
            "workload": "slow_shard", "cell": label, "n": n, "puts": puts,
            "shards": num_shards,
            "delay_ms": round(delay_s * 1e3, 3) if label != "baseline" else 0,
            "p50_ns": cells[label]["p50_ns"],
            "p99_ns": cells[label]["p99_ns"],
            "p99_vs_baseline": round(cells[label]["p99_ns"] / base_p99, 2)
            if base_p99 else None,
        }
        for label in ("baseline", "sync_dispatch", "async_dispatch")
    ]
    print_table(
        "bench smoke: E12 slow shard (put-ack latency, one shard delayed "
        f"{delay_s * 1e3:.0f} ms/query)",
        ["cell", "p50 (us)", "p99 (us)", "p99 vs baseline"],
        [[r["cell"], r["p50_ns"] // 1000, r["p99_ns"] // 1000,
          f"{r['p99_vs_baseline']:.2f}x"] for r in results],
    )
    if record:
        append_run("E12", "bench --smoke", results, directory)
    return {
        "slow_shard": results,
        "slow_shard_base_p99_ns": base_p99,
        "slow_shard_sync_p99_ns": cells["sync_dispatch"]["p99_ns"],
        "slow_shard_async_p99_ns": cells["async_dispatch"]["p99_ns"],
    }
