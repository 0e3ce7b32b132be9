"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``demo``        — a terse end-to-end tour (HALT build, queries, updates)
- ``sample``      — one PSS query over weights given on the command line
- ``sort``        — sort integers through the Theorem 1.2 reduction
- ``variates``    — print empirical-vs-exact tables for the Section 3
  generators
- ``selftest``    — quick internal consistency pass (no pytest needed)
- ``serve``       — the sharded sampling service (``repro.service``) with
  snapshot restore/save: a stdin/stdout line protocol by default, or with
  ``--async`` an asyncio TCP front with pipelined writes and off-loop
  snapshot I/O; ``--workers`` forks one OS process per shard and
  ``--wal`` adds write-ahead-logged point-in-time recovery
  (``docs/SERVING.md`` is the protocol reference)
- ``bench``       — benchmark entrypoints; ``--smoke`` runs the E1/E3
  measurement plus the E12 service-throughput measurement, appends them to
  the persisted BENCH_*.json trajectories, and exits non-zero on a
  regression (fastpath < 1.5x exact, query_many_columnar < 2x looped
  single queries, batched service updates < 3x the single-call loop,
  async pipelined writers < 2x the serial serve loop, worker shard
  runtime < 1.5x inline on the mixed stream when >= 2 CPUs exist,
  observability overhead > 3% on the instrumented query path, binary
  frame codec < 3x the pickle round trip, slow-shard put-ack p99 > 2x
  the no-delay baseline under async dispatch); ``--load`` runs the E14
  load generator (mixed verb streams against both serve fronts,
  per-verb client-observed latency budgets); ``--rpc`` runs just the
  shard-RPC measurements (frame codec + slow shard) with their gates
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter

from .core.halt import HALT
from .randvar.bitsource import RandomBitSource
from .randvar.distributions import truncated_geometric_pmf
from .randvar.geometric import truncated_geometric
from .sorting.reduction import SortStats, dpss_sort, gap_skip_factory
from .wordram.rational import Rat, parse_rational as _parse_rational


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def cmd_demo(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    halt = HALT(
        [(i, rng.randint(0, 1 << 20)) for i in range(args.n)],
        source=RandomBitSource(args.seed),
    )
    print(f"HALT over {len(halt)} items, total weight {halt.total_weight}")
    for alpha, beta in [(Rat(1), Rat(0)), (Rat(1, 16), Rat(0)), (Rat(0), Rat(1 << 22))]:
        mu = float(halt.expected_sample_size(alpha, beta))
        sample = halt.query(alpha, beta)
        print(f"  query (alpha={alpha}, beta={beta}): mu={mu:.2f}, |T|={len(sample)}")
    halt.insert("whale", (1 << 30) - 1)
    print(f"inserted a dominant item; query(1,0) -> {halt.query(1, 0)}")
    halt.check_invariants()
    print("invariants OK")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    weights = [int(w) for w in args.weights]
    halt = HALT(
        [(i, w) for i, w in enumerate(weights)],
        source=RandomBitSource(args.seed),
    )
    alpha = _parse_rational(args.alpha)
    beta = _parse_rational(args.beta)
    probs = halt.inclusion_probabilities(alpha, beta)
    print("item  weight  p_x")
    for i, w in enumerate(weights):
        print(f"{i:4d}  {w:6d}  {float(probs[i]):.4f}")
    for r in range(args.rounds):
        print(f"sample {r}: {sorted(halt.query(alpha, beta))}")
    return 0


def cmd_sort(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    values = rng.sample(range(1 << 40), args.n)
    stats = SortStats()
    out = dpss_sort(values, gap_skip_factory, source=RandomBitSource(args.seed), stats=stats)
    ok = out == sorted(values)
    print(f"sorted {args.n} integers via the DPSS reduction: {'OK' if ok else 'FAILED'}")
    print(f"  queries/iteration {stats.queries_per_iteration:.3f} (Lemma 5.1: <= 2)")
    print(f"  mean sample size  {stats.mean_sample_size:.3f} (Lemma 5.2: = 1)")
    print(f"  swaps/iteration   {stats.swaps_per_iteration:.3f} (Claim 2: O(1))")
    return 0 if ok else 1


def cmd_variates(args: argparse.Namespace) -> int:
    src = RandomBitSource(args.seed)
    p, n = Rat(1, 30), 10
    counts = Counter(truncated_geometric(p, n, src) for _ in range(args.rounds))
    pmf = truncated_geometric_pmf(p, n)
    print(f"T-Geo(1/30, 10) over {args.rounds} draws:")
    print("  i  empirical  exact")
    for i in range(1, n + 1):
        print(f"  {i:2d}  {counts[i] / args.rounds:.4f}    {float(pmf[i - 1]):.4f}")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    rng = random.Random(7)
    halt = HALT(
        [(i, rng.randint(0, 1 << 16)) for i in range(200)],
        source=RandomBitSource(7),
    )
    for t in range(300):
        halt.insert(f"x{t}", rng.randint(0, 1 << 16))
        if t % 2:
            halt.delete(f"x{t}")
    halt.check_invariants()
    mu = float(halt.expected_sample_size(1, 0))
    sizes = [len(halt.query(1, 0)) for _ in range(300)]
    mean = sum(sizes) / len(sizes)
    ok = abs(mean - mu) < 0.5
    print(f"selftest: mu={mu:.3f}, empirical mean |T|={mean:.3f} -> "
          f"{'OK' if ok else 'FAILED'}")
    values = rng.sample(range(10**6), 100)
    ok2 = dpss_sort(values, gap_skip_factory, source=RandomBitSource(9)) == sorted(values)
    print(f"selftest: reduction sort -> {'OK' if ok2 else 'FAILED'}")
    return 0 if ok and ok2 else 1


def _rpc_bench_gates(args: argparse.Namespace) -> bool:
    """Run the shard-RPC measurements — the frame-codec microbench and the
    E12 slow-shard rows — and enforce their gates; True on regression."""
    from .analysis.bench import run_codec_microbench, run_slow_shard_bench

    failed = False
    # Frame-codec gate: the binary framing round trip (encode a columnar
    # apply batch to wire bytes, decode it back columnar — the per-frame
    # hot cost on both ends) must beat the pickle round trip of the same
    # 10^4-op batch by >= 3x.
    codec = run_codec_microbench(directory=args.out, record=not args.no_record)
    if codec["codec_speedup"] < 3.0:
        print(f"REGRESSION: binary frame codec only "
              f"{codec['codec_speedup']:.2f}x over the pickle round trip "
              f"on the 10^4-op apply batch (gate >= 3x)")
        failed = True
    # Slow-shard gate: with one shard delayed per query, put acks on an
    # untouched connection must stay within 2x of the no-delay baseline
    # under event-loop dispatch.  A 2 ms absolute floor absorbs scheduler
    # jitter on loaded hosts: the stall being gated away (the sync cell)
    # sits at the full shard delay, an order of magnitude above the floor.
    slow = run_slow_shard_bench(directory=args.out, record=not args.no_record)
    base_p99 = slow["slow_shard_base_p99_ns"]
    async_p99 = slow["slow_shard_async_p99_ns"]
    allowed = 2.0 * max(base_p99, 2_000_000)
    if async_p99 > allowed:
        print(f"REGRESSION: slow-shard put-ack p99 {async_p99}ns under "
              f"async dispatch exceeds 2x the no-delay baseline "
              f"{base_p99}ns (allowed {round(allowed)}ns; sync dispatch "
              f"measured {slow['slow_shard_sync_p99_ns']}ns)")
        failed = True
    return failed


def cmd_bench(args: argparse.Namespace) -> int:
    from .analysis.bench import run_service_smoke, run_smoke

    if args.load:
        # The E14 load generator: mixed verb streams against both serve
        # fronts, per-verb client-observed latency histograms, gated by
        # loose absolute budgets (see analysis.loadgen).
        from .analysis.loadgen import run_load

        load_summary = run_load(
            ops=args.load_ops,
            clients=args.load_clients,
            directory=args.out,
            record=not args.no_record,
            metrics_out=args.metrics_out,
        )
        for failure in load_summary["budget_failures"]:
            print(f"REGRESSION: load budget violated: {failure}")
        if not args.smoke:
            failed = bool(load_summary["budget_failures"])
            if args.rpc:
                failed = _rpc_bench_gates(args) or failed
            return 1 if failed else 0
    elif args.rpc and not args.smoke:
        # Just the shard-RPC measurements: what CI runs to record the
        # codec + slow-shard rows into its artifact directory.
        return 1 if _rpc_bench_gates(args) else 0
    elif not args.smoke:
        print("pick --smoke, --load and/or --rpc; run the pytest "
              "benchmarks/ suite for the full experiments", file=sys.stderr)
        return 2
    summary = run_smoke(
        directory=args.out, n=args.n, record=not args.no_record
    )
    # Non-zero exit on regression — the smoke doubles as a CI tripwire:
    # against the exact engine of the same build (machine-independent), and
    # against the persisted pre-fastpath baseline when one exists for this n.
    failed = bool(args.load and load_summary["budget_failures"])
    # Observability overhead gate: the instrumented single-query path must
    # stay within 3% of the same build with the OBS switch off.
    obs_overhead = summary.get("obs_overhead") or 0.0
    if obs_overhead > 1.03:
        print(f"REGRESSION: observability overhead {obs_overhead:.3f}x "
              f"over the obs-off query path (gate <= 1.03x)")
        failed = True
    speedup = summary.get("speedup_vs_exact") or 0.0
    if speedup < 1.5:
        print(f"REGRESSION: fastpath only {speedup:.2f}x over exact engine")
        failed = True
    vs_base = summary.get("speedup_vs_baseline")
    if vs_base is not None and vs_base < 1.5:
        print(f"REGRESSION: fastpath only {vs_base:.2f}x over the recorded "
              f"baseline trajectory")
        failed = True
    # query_many_columnar gate: the batched columnar executor must sustain
    # >= 2x the looped single-query path at the same n (the pre-refactor
    # baseline in BENCH_E1.json records this ratio at 1.0x).
    batch_speedup = summary.get("query_many_speedup") or 0.0
    if batch_speedup < 2.0:
        print(f"REGRESSION: query_many_columnar only {batch_speedup:.2f}x "
              f"over looped single queries")
        failed = True
    # Kernel-layer gate: count=256 draws must sustain >= 3x looped singles.
    kernel_speedup = summary.get("query_many_speedup_256") or 0.0
    if kernel_speedup < 3.0:
        print(f"REGRESSION: query_many count=256 only {kernel_speedup:.2f}x "
              f"over looped singles (gate >= 3.0x)")
        failed = True
    # E12 serving-layer gate: batched updates through the service must
    # sustain >= 3x the single-call update loop (machine-independent ratio).
    service_summary = run_service_smoke(
        directory=args.out, n=args.n, record=not args.no_record
    )
    update_speedup = service_summary.get("update_speedup") or 0.0
    if update_speedup < 3.0:
        print(f"REGRESSION: batched service updates only "
              f"{update_speedup:.2f}x over the single-call update loop")
        failed = True
    # Async-front gate: concurrent pipelined writers through the asyncio
    # front must sustain >= 2x the serial serve loop's ops/sec.
    serve_speedup = service_summary.get("serve_speedup") or 0.0
    if serve_speedup < 2.0:
        print(f"REGRESSION: async pipelined serve front only "
              f"{serve_speedup:.2f}x over the serial serve loop")
        failed = True
    # Shard-runtime gate: the worker backend must sustain >= 1.5x the
    # inline backend on the mixed 90/10 stream wherever >= 2 CPUs exist
    # (a single-CPU machine has no parallelism to buy; there the gate is
    # a framing-overhead sanity floor — see analysis.bench).
    from .analysis.bench import parallel_shards_gate

    parallel_speedup = service_summary.get("parallel_speedup") or 0.0
    cores = service_summary.get("parallel_cores") or 1
    gate = parallel_shards_gate(cores)
    if parallel_speedup < gate:
        print(f"REGRESSION: worker-runtime shards only "
              f"{parallel_speedup:.2f}x over inline shards "
              f"(gate >= {gate}x at {cores} CPUs)")
        failed = True
    elif cores < 2:
        print(f"note: parallel_shards measured {parallel_speedup:.2f}x on a "
              f"single-CPU machine; the >= 1.5x gate applies at >= 2 CPUs")
    # E12 failover gate: SIGKILL a shard head mid-stream with a warm
    # standby attached — the stream must keep flowing (zero ERR, the
    # orphaned query retried after O(tail) promotion) and client-observed
    # query latency through the kill must stay inside the absolute E14
    # budgets (the kill and the promotion ride inside the quantiles).
    from .analysis.bench import run_failover_bench
    from .analysis.loadgen import BUDGET_P50_NS, BUDGET_P99_NS

    failover = run_failover_bench(
        directory=args.out, record=not args.no_record
    )
    if not failover["failover_fired"]:
        print("REGRESSION: failover bench fault never fired (no kill "
              "exercised)")
        failed = True
    if failover["failover_errors"] or failover["failover_promotions"] < 1:
        print(f"REGRESSION: failover bench: "
              f"{failover['failover_errors']} ERR replies, "
              f"{failover['failover_promotions']} promotions "
              f"(want 0 ERR and >= 1 promotion)")
        failed = True
    if failover["failover_p50_ns"] > BUDGET_P50_NS:
        print(f"REGRESSION: failover p50 {failover['failover_p50_ns']}ns "
              f"over budget {BUDGET_P50_NS}ns")
        failed = True
    if failover["failover_p99_ns"] > BUDGET_P99_NS:
        print(f"REGRESSION: failover p99 {failover['failover_p99_ns']}ns "
              f"over budget {BUDGET_P99_NS}ns")
        failed = True
    # Shard-RPC gates: frame codec >= 3x pickle, slow-shard put-ack p99
    # flat under async dispatch (see _rpc_bench_gates).
    if _rpc_bench_gates(args):
        failed = True
    return 1 if failed else 0


def cmd_serve(args: argparse.Namespace) -> int:
    import os

    from .obs.logs import setup as setup_logging
    from .service import SamplingService, ServiceConfig
    from .service.serve_loop import serve_loop

    # Structured stderr logging for both fronts: worker death, FlushError
    # drops, snapshot/WAL events (stdout stays protocol-only).
    setup_logging(args.log_level)

    if not args.async_front:
        for flag, value in (("--host", args.host), ("--port", args.port),
                            ("--watermark", args.watermark)):
            if value is not None:
                print(f"error: {flag} only applies to the async front; "
                      f"add --async", file=sys.stderr)
                return 2
    if args.standby and not args.workers:
        print("error: --standby requires --workers (in-process shards have "
              "no processes to replicate)", file=sys.stderr)
        return 2

    config = ServiceConfig(
        num_shards=args.shards,
        backend=args.backend,
        seed=args.seed,
        batch_ops=args.batch_ops,
        workers=args.workers,
        standby=args.standby,
    )

    if args.async_front:
        from .service.async_serve import restore_service, run_server

        def make_service():
            if args.wal:
                # Point-in-time recovery: snapshot + WAL-tail replay, then
                # keep logging to the same sidecar.
                return SamplingService.recover(
                    args.snapshot, args.wal, config=config
                )
            if args.snapshot and os.path.exists(args.snapshot):
                # Coroutine: the file read runs off the event loop.
                return restore_service(args.snapshot, workers=args.workers,
                                       standby=args.standby)
            return SamplingService(config)

        return run_server(
            make_service,
            args.host if args.host is not None else "127.0.0.1",
            args.port if args.port is not None else 7421,
            snapshot_path=args.snapshot,
            watermark=args.watermark,
        )

    # Banners go to stderr: stdout carries only protocol reply lines, so a
    # programmatic client can pipe in from the very first command.
    if args.wal:
        service = SamplingService.recover(args.snapshot, args.wal, config=config)
        print(f"recovered {len(service)} items "
              f"({service.config.num_shards} shards, "
              f"backend={service.config.backend}, "
              f"runtime={service.backend.name}, "
              f"log offset {service.log.offset}, "
              f"pending {service.log.pending_count}) "
              f"from {args.snapshot or '(no snapshot)'} + {args.wal}",
              file=sys.stderr)
    elif args.snapshot and os.path.exists(args.snapshot):
        service = SamplingService.restore(args.snapshot, workers=args.workers,
                                          standby=args.standby)
        print(f"restored {len(service)} items "
              f"({service.config.num_shards} shards, "
              f"backend={service.config.backend}, "
              f"runtime={service.backend.name}, "
              f"log offset {service.log.offset}) from {args.snapshot}",
              file=sys.stderr)
    else:
        service = SamplingService(config)
        print(f"new store: {args.shards} shards, backend={args.backend}, "
              f"runtime={service.backend.name}",
              file=sys.stderr)
    try:
        code = serve_loop(service, sys.stdin, sys.stdout)
        if args.snapshot:
            service.snapshot(args.snapshot)
            print(f"saved snapshot to {args.snapshot}", file=sys.stderr)
    finally:
        service.close()
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal Dynamic Parameterized Subset Sampling (PODS 2024) "
        "reproduction toolkit",
    )
    parser.add_argument("--seed", type=int, default=1, help="random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="end-to-end HALT tour")
    p.add_argument("--n", type=int, default=1000)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("sample", help="one PSS query over given weights")
    p.add_argument("weights", nargs="+", help="item weights (ints)")
    p.add_argument("--alpha", default="1", help="alpha as int or num/den")
    p.add_argument("--beta", default="0", help="beta as int or num/den")
    p.add_argument("--rounds", type=int, default=3)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("sort", help="integer sorting via the reduction")
    p.add_argument("--n", type=int, default=500)
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser("variates", help="Section 3 generator tables")
    p.add_argument("--rounds", type=int, default=20000)
    p.set_defaults(func=cmd_variates)

    p = sub.add_parser("selftest", help="quick consistency pass")
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser(
        "serve",
        help="sharded sampling service over a stdin/stdout line protocol",
    )
    p.add_argument("--shards", type=int, default=4, help="number of shards")
    p.add_argument("--backend", default="halt",
                   choices=["halt", "naive", "bucket"])
    p.add_argument("--batch-ops", type=int, default=512,
                   help="mutation-log auto-flush threshold")
    p.add_argument("--workers", action="store_true",
                   help="shard runtime: one forked OS worker process per "
                        "shard (default: in-process inline shards)")
    p.add_argument("--standby", action="store_true",
                   help="keep one warm standby process per shard (requires "
                        "--workers): it follows every write, serves reads "
                        "pre-failover, and is promoted O(tail) when the "
                        "primary dies")
    p.add_argument("--snapshot", default=None,
                   help="snapshot file: restored at start if present, "
                        "written on exit")
    p.add_argument("--wal", default=None,
                   help="write-ahead-log sidecar: acked ops are appended "
                        "between snapshots, and at start the store is "
                        "recovered as snapshot + WAL-tail replay "
                        "(point-in-time recovery without O(n) writes)")
    p.add_argument("--async", dest="async_front", action="store_true",
                   help="asyncio TCP front: concurrent connections, "
                        "pipelined writes, snapshot I/O off the event loop")
    # Async-only flags default to None so cmd_serve can reject them when
    # given without --async instead of silently ignoring them.
    p.add_argument("--host", default=None,
                   help="bind address for the async front "
                        "(default 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="bind port for the async front "
                        "(default 7421; 0 = ephemeral)")
    p.add_argument("--watermark", type=_positive_int, default=None,
                   help="async front: pending-op count forcing a drain "
                        "(default: --batch-ops)")
    p.add_argument("--log-level", default="warning",
                   choices=["debug", "info", "warning", "error"],
                   help="structured stderr logging threshold for serving "
                        "events: worker death, dropped flush batches, "
                        "snapshot/WAL activity (default warning)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("bench", help="benchmark smoke + persisted trajectory")
    p.add_argument("--smoke", action="store_true",
                   help="run the ~3-minute E1/E3/E12 smoke measurement and "
                        "enforce the perf gates (fastpath >= 1.5x exact, "
                        "columnar query_many >= 2x looped singles, batched "
                        "service updates >= 3x, async pipelined serving "
                        ">= 2x, worker shard runtime >= 1.5x inline at "
                        ">= 2 CPUs, observability overhead <= 3%, binary "
                        "frame codec >= 3x pickle, slow-shard put-ack p99 "
                        "<= 2x the no-delay baseline under async dispatch); "
                        "non-zero exit on regression")
    p.add_argument("--rpc", action="store_true",
                   help="run only the shard-RPC measurements: the "
                        "frame-codec microbench (BENCH_CODEC.json) and the "
                        "E12 slow-shard rows, with their gates; included "
                        "in --smoke, standalone for recording artifacts")
    p.add_argument("--load", action="store_true",
                   help="run the E14 load generator: a mixed verb stream "
                        "against both serve fronts over localhost TCP, "
                        "per-verb client-observed latency recorded to "
                        "BENCH_E14.json and gated by absolute p50/p99 "
                        "budgets; combinable with --smoke")
    p.add_argument("--load-ops", type=_positive_int, default=4_000,
                   help="load generator: ops per front (default 4000)")
    p.add_argument("--load-clients", type=_positive_int, default=8,
                   help="load generator: concurrent connections against "
                        "the async front (default 8)")
    p.add_argument("--metrics-out", default=None,
                   help="load generator: save the servers' scraped "
                        "Prometheus expositions to this file")
    p.add_argument("--n", type=int, default=100_000,
                   help="instance size for the E1 smoke (default 10^5)")
    p.add_argument("--out", default=None,
                   help="directory holding BENCH_E*.json (default: "
                        "./benchmarks when present)")
    p.add_argument("--no-record", action="store_true",
                   help="measure and print without appending to the files")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
