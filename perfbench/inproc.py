"""The in-process workloads, ``read`` and ``churn``: a ``HALT`` of 10^5
items driven through its public methods from this process.

``read`` is static: a stream of single ``query`` and ``query_many(64)``
calls over a pool of 8 (alpha, beta) pairs, so every plan stays cached
and the time goes to the executors.  Before its first query, a write
probe on the freshly built structure (a quarter of the measured time)
measures the update path alone (no plan watches the structure yet).

Every timing of an untraced run is scaled to a nominal host speed (see
``hostspeed``).

``churn`` is half writes (insert a fresh key, delete a live key, or
``update_weight`` a live key), so every query meets a new total weight and
needs a new plan.

Both streams come in shuffled blocks with an exact op mix, so two seeds
differ in order, keys and weights but not in composition.
"""

from __future__ import annotations

import gc
import itertools
import random
import resource

from common import (
    KeySet, RunRecord, beyond_p99, draw_weight, median, now_ns, percentile,
)
from checks import check_batch_size, check_sample, fraction, size_moments
from hostspeed import SLICE_NS, HostSpeed

N = 100_000
#: HALT builds per run; ``setup_s`` is their median.
BUILDS = 3
#: Host-speed probes taken before and after each build.
SETUP_PROBES = 5
READ_COUNT = 64
CHURN_COUNT = 16
#: Untimed read ops first: by then the plans' lazily built bucket plans
#: and bound tables have (nearly) stopped growing.
READ_WARM_OPS = 400
CHURN_WARM_OPS = 600
#: Share of the read workload's measured time given to the write probe
#: before its query phase (the read workload's write metrics).
WRITE_SHARE = 0.25
#: Write ops in a traced run's write probe.
WRITE_PROBE = 100_000
#: Churn: the next ``query_many`` after every this many ops is size-checked.
CHECKPOINT_EVERY = 600
#: Traced runs: ops in the fixed prefix that exact counts come from.
PREFIX_OPS = {"read": 160, "churn": 3_000}
#: Traced runs alternate traced and untraced chunks of this length (at
#: most a quarter of the run).
CHUNK_NS = 1_000_000_000


def pair_pool(total: int) -> list[tuple]:
    """8 (alpha, beta) pairs: mu ~ 1, 10 and 100 with alpha-only,
    beta-only and mixed totals (3 + 3 + 2 pairs by mu).

    The small beta offsets keep the 8 parameterized totals
    ``alpha * total + beta`` distinct for every ``total``, so the read
    workload always holds 8 plans (a total divisible by 10 would otherwise
    merge ``(1/10, 0)`` and ``(0, total / 10)`` into one plan)."""
    from repro.wordram.rational import Rat

    pairs = [
        (1, 0), (Rat(1, 10), 0), (Rat(1, 100), 0),
        (0, total + 1), (0, total // 10 + 1), (0, total // 100 + 1),
        (Rat(1, 2), total // 2 + 3), (Rat(1, 20), total // 20 + 7),
    ]
    totals = {fraction(a) * total + b for a, b in pairs}
    if len(totals) != len(pairs):
        raise AssertionError("pair pool totals are not distinct")
    return pairs


def read_ops(rng: random.Random, npairs: int):
    """70% single queries, 30% batches; each block has every pair 7 times
    as a single query and 3 times as a batch."""
    template = ([("q", i) for i in range(npairs) for _ in range(7)]
                + [("m", i) for i in range(npairs) for _ in range(3)])
    while True:
        block = list(template)
        rng.shuffle(block)
        yield from block


def churn_ops(rng: random.Random, mirror: dict, live: KeySet, next_key: int):
    """50% writes (a third each insert / delete / update), 35% single
    ``query(1, 0)``, 15% ``query_many(1, 0, 16)``.  ``mirror`` and ``live``
    are updated as each op is handed out."""
    template = ["ins"] * 10 + ["del"] * 10 + ["upd"] * 10 + ["q"] * 21 + ["m"] * 9
    fresh = itertools.count(next_key)
    while True:
        block = list(template)
        rng.shuffle(block)
        for kind in block:
            if kind == "ins":
                key = next(fresh)
                weight = draw_weight(rng)
                mirror[key] = weight
                live.add(key)
                yield ("ins", key, weight)
            elif kind == "del":
                key = live.choice(rng)
                live.remove(key)
                del mirror[key]
                yield ("del", key)
            elif kind == "upd":
                key = live.choice(rng)
                weight = draw_weight(rng)
                mirror[key] = weight
                yield ("upd", key, weight)
            else:
                yield (kind, 0)


class Meter:
    """Latencies and counts of one stretch of ops."""

    def __init__(self) -> None:
        self.single: list[int] = []
        self.writes: list[int] = []
        self.batch_ns = 0
        self.draws = 0
        self.batches = 0
        self.op_ns = 0
        self.ops = 0
        # Exact counts, filled only when counting bits.
        self.bits_single = 0
        self.bits_query = 0
        self.items = 0

    def absorb(self, other: "Meter", factor: float) -> None:
        """Add ``other``'s latencies and counts, its times scaled by
        ``factor`` (see ``hostspeed``)."""
        self.single += [dt * factor for dt in other.single]
        self.writes += [dt * factor for dt in other.writes]
        self.batch_ns += other.batch_ns * factor
        self.draws += other.draws
        self.batches += other.batches
        self.op_ns += other.op_ns * factor
        self.ops += other.ops


def _plain(name, fn, *args):
    return fn(*args)


class Runner:
    """Runs a stream of ops against one ``HALT`` and checks each result."""

    def __init__(self, workload: str, halt, mirror: dict, pairs, ops,
                 record: RunRecord) -> None:
        self.workload = workload
        self.halt = halt
        self.mirror = mirror
        self.pairs = pairs
        self.ops = ops
        self.record = record
        self.static = workload == "read"
        self.count = READ_COUNT if self.static else CHURN_COUNT
        self._moments: dict[int, tuple[float, float]] = {}
        self.done = 0
        self._check_due = False

    def moments(self, pair_index: int) -> tuple[float, float]:
        got = self._moments.get(pair_index) if self.static else None
        if got is None:
            alpha, beta = self.pairs[pair_index]
            got = size_moments(self.mirror.values(), alpha, beta)
            if self.static:
                self._moments[pair_index] = got
        return got

    def run(self, meter: Meter, *, deadline_ns: int = 0, limit: int = 0,
            tracer=None, count_bits: bool = False) -> None:
        """Run ops until ``deadline_ns`` or ``limit`` ops, whichever set."""
        call = tracer.call if tracer is not None else _plain
        halt = self.halt
        source = halt.source
        record = self.record
        mirror = self.mirror
        count = self.count
        writes = {"ins": halt.insert, "del": halt.delete,
                  "upd": halt.update_weight}
        done = 0
        while (limit and done < limit) or (deadline_ns and now_ns() < deadline_ns):
            op = next(self.ops)
            kind = op[0]
            done += 1
            self.done += 1
            record.attempted += 1
            if not self.static and self.done % CHECKPOINT_EVERY == 0:
                self._check_due = True
            bits0 = source.consumed if count_bits else 0
            try:
                if kind == "q":
                    alpha, beta = self.pairs[op[1]]
                    t0 = now_ns()
                    result = call("core.halt.query", halt.query, alpha, beta)
                    dt = now_ns() - t0
                    meter.single.append(dt)
                    problem = check_sample(result, mirror)
                    if count_bits:
                        bits = source.consumed - bits0
                        meter.bits_single += bits
                        meter.bits_query += bits
                        meter.items += len(result)
                elif kind == "m":
                    alpha, beta = self.pairs[op[1]]
                    t0 = now_ns()
                    result = call("core.halt.query_many", halt.query_many,
                                  alpha, beta, count)
                    dt = now_ns() - t0
                    meter.batch_ns += dt
                    meter.draws += count
                    meter.batches += 1
                    problem = None
                    for sample in result:
                        problem = check_sample(sample, mirror)
                        if problem:
                            break
                    if len(result) != count:
                        problem = f"query_many returned {len(result)} samples"
                    if problem is None and (self.static or self._check_due):
                        self._check_due = False
                        mu, var = self.moments(op[1])
                        problem = check_batch_size(
                            [len(s) for s in result], mu, var
                        )
                    if count_bits:
                        meter.bits_query += source.consumed - bits0
                        meter.items += sum(len(s) for s in result)
                else:
                    fn = writes[kind]
                    t0 = now_ns()
                    call("core.halt.write", fn, *op[1:])
                    dt = now_ns() - t0
                    meter.writes.append(dt)
                    problem = None
            except Exception as exc:  # a failed op is counted, not fatal
                record.fail(f"{kind}: {type(exc).__name__}: {exc}")
                continue
            meter.op_ns += dt
            meter.ops += 1
            if problem:
                record.fail(f"{kind}: {problem}")

    def run_sliced(self, speed: HostSpeed, deadline_ns: int) -> Meter:
        """``run`` until ``deadline_ns`` in slices of ``SLICE_NS`` with a
        host-speed probe after each; returns one ``Meter`` with every
        slice's times scaled by its factor."""
        parts = []
        before = speed.mark()
        while now_ns() < deadline_ns:
            meter = Meter()
            self.run(meter, deadline_ns=min(now_ns() + SLICE_NS, deadline_ns))
            after = speed.mark()
            parts.append((meter, before, after))
            before = after
        total = Meter()
        for meter, before, after in parts:
            total.absorb(meter, speed.slice_factor(before, after))
        return total

    def check_invariants(self, when: str) -> None:
        self.record.attempted += 1
        try:
            self.halt.check_invariants()
            if len(self.halt) != len(self.mirror):
                raise AssertionError("size differs from the expected key set")
        except AssertionError as exc:
            self.record.fail(f"check_invariants after {when}: {exc}")


def write_probe_ops(rng: random.Random, mirror: dict, next_key: int):
    """The read workload's write probe: insert a fresh key, then delete a
    random live key, repeated, so n stays put.  (No ``update_weight``: it
    is a delete plus an insert, and its second latency mode would leave
    the p50 straddling the gap between the two.)"""
    live = KeySet(mirror)
    for key in itertools.count(next_key):
        weight = draw_weight(rng)
        mirror[key] = weight
        live.add(key)
        yield ("ins", key, weight)
        victim = live.choice(rng)
        live.remove(victim)
        del mirror[victim]
        yield ("del", victim)


# -- per-layer wrappers -------------------------------------------------------

def layer_targets(tracer) -> None:
    """Register the in-process layers' public functions with ``tracer``."""
    from repro.core import halt as halt_module
    from repro.core.plan import QueryPlan
    from repro.fastpath import kernels
    from repro.fastpath.geom import GeomPlan

    tracer.target(halt_module, "fast_query_pss", "fastpath.engine")
    tracer.target(halt_module, "batched_query_pss", "fastpath.columnar")
    tracer.target(QueryPlan, "cached", "core.plan")
    for method in ("bucket_plan", "level_cuts", "final_cuts",
                   "level_snapshot", "final_snapshot", "insig_table",
                   "insig_alias", "chain_alias", "instance_alias"):
        tracer.target(QueryPlan, method, "core.plan")
    tracer.target(GeomPlan, "__init__", "fastpath.geom")
    for name in kernels.names():
        tracer.target(kernels.get(name), "pow_bounds", _pow_bounds_span)
    backend = kernels.active()
    for entry in ("miss_gate_hits", "alias_draws", "gate_rows", "chain_case2"):
        tracer.target(backend, entry, "fastpath.kernels")


def _pow_bounds_span(bplan, n_i, g, scale) -> str:
    """Bound-table lookups that miss the plan's cache build a table."""
    if (g, n_i) in bplan.kernel_cache:
        return "fastpath.kernels.pow_bounds"
    return "fastpath.kernels.pow_bounds.build"


def _registry_counts() -> dict[str, int]:
    from repro.fastpath import kernels
    from repro.obs import REGISTRY

    return {
        "plan_misses": REGISTRY.counter("repro_plan_cache_misses_total").value,
        "invalidations":
            REGISTRY.counter("repro_plan_invalidations_total").value,
        "kernel_elems": kernels.batch_elems(),
    }


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


# -- the run ------------------------------------------------------------------

def _build(items, seed):
    from repro.core.halt import HALT
    from repro.randvar.bitsource import RandomBitSource

    return HALT(items, source=RandomBitSource(seed))


def run(workload: str, seed: int, seconds: float, trace: bool,
        n: int = N, builds: int = BUILDS, work: str | None = None) -> RunRecord:
    from repro.fastpath import kernels
    from tracer import Tracer

    record = RunRecord(workload)
    record.note(f"kernel_backend={kernels.kernel_name()}")
    rng = random.Random(seed)
    items = [(key, draw_weight(rng)) for key in range(n)]
    mirror = dict(items)

    speed = HostSpeed()
    setup, raw_setup = [], []
    halt = None
    for _ in range(1 if trace else builds):
        halt = None
        gc.collect()
        lo = speed.mark(SETUP_PROBES) - SETUP_PROBES + 1
        t0 = now_ns()
        halt = _build(items, seed)
        dt = (now_ns() - t0) / 1e9
        hi = speed.mark(SETUP_PROBES) + 1
        raw_setup.append(dt)
        setup.append(dt * speed.factor(lo, hi))
    del items
    gc.collect()

    tracer = None
    if trace:
        tracer = Tracer()
        layer_targets(tracer)
    runner = Runner(workload, halt, mirror, [(1, 0)], None, record)
    stream_rng = random.Random(seed * 1_000_003 + 17)
    probe = probe_writes = None
    if workload == "read":
        # The write probe runs first, on the freshly built structure: no
        # plan watches it yet, so it times the update path alone, from a
        # state that depends only on the seed.
        runner.ops = write_probe_ops(random.Random(seed + 99), mirror, n)
        if trace:
            probe = _Segment(tracer)
            probe.run(runner, limit=WRITE_PROBE)
        else:
            span = int(WRITE_SHARE * seconds * 1e9)
            probe_writes = runner.run_sliced(speed, now_ns() + span).writes
            seconds *= 1 - WRITE_SHARE
        runner.check_invariants("the write probe")
        runner.pairs = pair_pool(halt.total_weight)
        runner.ops = read_ops(stream_rng, len(runner.pairs))
        warm_ops = READ_WARM_OPS
    else:
        runner.ops = churn_ops(stream_rng, mirror, KeySet(mirror), n)
        warm_ops = CHURN_WARM_OPS
    runner.run(Meter(), limit=warm_ops)

    if trace:
        _traced_phases(runner, record, tracer, probe, seconds)
        if work:
            tracer.write(f"{work}/spans-{workload}-{seed}.jsonl")
    else:
        main = runner.run_sliced(speed, now_ns() + int(seconds * 1e9))
        runner.check_invariants(f"the {workload} phase")
        writes = probe_writes if probe_writes is not None else main.writes
        _end_to_end(record, main, writes, setup)
        record.note(f"host speed index {speed.index():.3f} over "
                    f"{len(speed.samples)} probes; raw (unscaled) setup builds "
                    + " ".join(f"{s:.3f}s" for s in raw_setup))
    return record


def _end_to_end(record: RunRecord, main: Meter, writes: list[float],
                setup: list[float]) -> None:
    m = record.metrics
    m["setup_s"] = median(setup)
    m["ops_per_s"] = main.ops / (main.op_ns / 1e9)
    m["query_p50_us"] = percentile(main.single, 0.50) / 1e3
    m["query_p99_us"] = percentile(main.single, 0.99) / 1e3
    m["batch_draws_per_s"] = main.draws / (main.batch_ns / 1e9)
    m["write_p50_us"] = percentile(writes, 0.50) / 1e3
    m["write_p99_us"] = percentile(writes, 0.99) / 1e3
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record.note(f"setup builds={len(setup)} "
                + " ".join(f"{s:.3f}s" for s in setup))
    record.note(f"samples: single_queries={len(main.single)} "
                f"(beyond p99: {beyond_p99(len(main.single))}), "
                f"batches={main.batches}, draws={main.draws}, "
                f"writes={len(writes)} (beyond p99: {beyond_p99(len(writes))})")


class _Segment:
    """A stretch of ops run traced (when there is a tracer), with the
    registry counters and span totals it accrued."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.meter = Meter()
        self.counts = {"plan_misses": 0, "invalidations": 0, "kernel_elems": 0}
        self.stats: dict[str, list[int]] = {}

    def run(self, runner: Runner, **kwargs) -> None:
        from tracer import stats_delta

        tracer = self.tracer
        if tracer is None:
            runner.run(self.meter, **kwargs)
            return
        tracer.install()
        c0, s0 = _registry_counts(), tracer.snapshot()
        try:
            runner.run(self.meter, tracer=tracer, **kwargs)
        finally:
            tracer.uninstall()
        for key, value in _delta(_registry_counts(), c0).items():
            self.counts[key] += value
        for name, st in stats_delta(tracer.snapshot(), s0).items():
            acc = self.stats.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += st[i]

    def total(self, name: str) -> list[int]:
        return self.stats.get(name, [0, 0, 0])


def _traced_phases(runner: Runner, record: RunRecord, tracer,
                   probe: _Segment | None, seconds: float) -> None:
    # Fixed prefix: exact, seed-stable counts.
    prefix = _Segment(tracer)
    prefix.run(runner, limit=PREFIX_OPS[runner.workload], count_bits=True)

    # Alternating traced / untraced chunks: per-layer times and overhead.
    chunks = _Segment(tracer)
    untraced = Meter()
    gc_from = len(tracer.gc_events)
    chunk = min(CHUNK_NS, int(seconds * 1e9 / 4))
    end = now_ns() + int(seconds * 1e9)
    on = True
    while now_ns() < end:
        stop = min(end, now_ns() + chunk)
        if on:
            chunks.run(runner, deadline_ns=stop)
        else:
            runner.run(untraced, deadline_ns=stop)
        on = not on
    gc_events = tracer.gc_events[gc_from:]
    runner.check_invariants(f"the {runner.workload} phase")

    # Writes: the read workload's probe, or churn's own stream.
    writer = probe or prefix
    traced, pm = chunks.meter, prefix.meter
    m = record.metrics
    pq = len(pm.single) + pm.batches
    m["core.halt.write_us"] = _mean_us((probe or chunks).total("core.halt.write"))
    m["core.plan.builds_per_query"] = prefix.counts["plan_misses"] / max(pq, 1)
    plan_self = chunks.total("core.plan")[2]
    misses = chunks.counts["plan_misses"]
    m["core.plan.build_us"] = plan_self / misses / 1e3 if misses else 0.0
    tq = len(traced.single) + traced.batches
    m["core.plan.us_per_query"] = plan_self / max(tq, 1) / 1e3
    m["core.plan.invalidations_per_write"] = (
        writer.counts["invalidations"] / max(len(writer.meter.writes), 1)
    )
    m["fastpath.engine.query_us"] = _mean_us(chunks.total("fastpath.engine"))
    m["fastpath.columnar.us_per_draw"] = (
        chunks.total("fastpath.columnar")[1] / max(traced.draws, 1) / 1e3
    )
    m["fastpath.kernels.us_per_draw"] = (
        chunks.total("fastpath.kernels")[2] / max(traced.draws, 1) / 1e3
    )
    m["fastpath.kernels.pow_bounds_per_batch"] = (
        prefix.total("fastpath.kernels.pow_bounds.build")[0] / max(pm.batches, 1)
    )
    m["fastpath.kernels.pow_bounds_us"] = (
        (chunks.total("fastpath.kernels.pow_bounds")[1]
         + chunks.total("fastpath.kernels.pow_bounds.build")[1])
        / max(traced.batches, 1) / 1e3
    )
    m["fastpath.kernels.elems_per_draw"] = (
        prefix.counts["kernel_elems"] / max(pm.draws, 1)
    )
    m["fastpath.geom.plans_per_query"] = prefix.total("fastpath.geom")[0] / max(pq, 1)
    m["randvar.bitsource.bits_per_query"] = pm.bits_single / max(len(pm.single), 1)
    m["randvar.bitsource.bits_per_item"] = pm.bits_query / max(pm.items, 1)
    kops = traced.ops / 1000
    m["runtime.gc.collections_per_kop"] = len(gc_events) / max(kops, 1e-9)
    m["runtime.gc.pause_ms_per_kop"] = (
        sum(p for _, p in gc_events) / 1e6 / max(kops, 1e-9)
    )
    traced_rate = traced.ops / (traced.op_ns / 1e9)
    untraced_rate = untraced.ops / (untraced.op_ns / 1e9)
    m["trace.traced_ops_per_s"] = traced_rate
    m["trace.untraced_ops_per_s"] = untraced_rate
    m["trace.overhead"] = untraced_rate / traced_rate
    layer_self = sum(st[2] for st in chunks.stats.values())
    m["reconcile.layer_self_us_per_op"] = layer_self / traced.ops / 1e3
    m["reconcile.client_mean_us"] = traced.op_ns / traced.ops / 1e3
    m["reconcile.coverage"] = layer_self / traced.op_ns
    shares = sorted(((st[2], name) for name, st in chunks.stats.items()),
                    reverse=True)
    record.note(
        "reconcile: self time per op along the call path: "
        + ", ".join(f"{name}={s / traced.ops / 1e3:.1f}us" for s, name in shares)
        + f"; sum={layer_self / traced.ops / 1e3:.1f}us vs client mean "
        f"{traced.op_ns / traced.ops / 1e3:.1f}us (untraced "
        f"{untraced.op_ns / max(untraced.ops, 1) / 1e3:.1f}us)"
    )
    record.note(f"trace: traced ops={traced.ops} untraced ops={untraced.ops} "
                f"prefix ops={pm.ops} spans kept={len(tracer.spans)}")


def _mean_us(stat) -> float:
    return stat[1] / stat[0] / 1e3 if stat[0] else 0.0
