"""The ``serve`` workload: ``python -m repro serve --async --workers
--shards 2 --wal ...`` restored from a 50,000-item snapshot, under a
closed loop of 2 TCP connections from this single-threaded process.

Each connection owns a disjoint key slice and keeps strict request/reply
lockstep.  The mix is 40% ``query 1 0``, 5% ``query 1 0 8``, 25% ``get``,
15% ``put`` and 15% ``del``, in shuffled blocks with that exact mix.  The
WAL flushes to the OS per batch without fsync (the program's behaviour).
Every request is recorded with its send and reply times and checked after
the run (see ``checks.check_served``).  The untraced run's timings are
scaled to a nominal host speed (see ``hostspeed``).
"""

from __future__ import annotations

import json
import os
import random
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import time

from common import (
    KeySet, RunRecord, beyond_p99, draw_weight, median, now_ns, percentile,
)
from checks import check_served, T_RECV, T_SEND, VERB
from hostspeed import SLICE_NS, HostSpeed

SNAP_N = 50_000
SHARDS = 2
CONNS = 2
#: Server starts per run; ``setup_s`` is their median, the last one serves.
SPAWNS = 5
#: Host-speed probes taken before and after each server start.
SETUP_PROBES = 5
#: Untimed requests per connection before the timed phase.
WARM_OPS = 150
QUERY_K = 8
START_TIMEOUT_S = 60
STOP_TIMEOUT_S = 20

HERE = os.path.dirname(os.path.abspath(__file__))


def make_snapshot(path: str, seed: int, n: int = SNAP_N) -> dict:
    """Write the ``n``-item snapshot through the service API; returns the
    key -> weight map it holds."""
    from repro.service import SamplingService, ServiceConfig

    rng = random.Random(seed)
    weights = {key: draw_weight(rng) for key in range(n)}
    service = SamplingService(ServiceConfig(num_shards=SHARDS, seed=seed))
    try:
        service.submit([("insert", k, w) for k, w in weights.items()])
        service.flush()
        service.snapshot(path)
    finally:
        service.close()
    return weights


def conn_ops(rng: random.Random, owned: list):
    """One connection's request stream over the keys it owns:
    (verb, key, weight, request bytes, reply lines)."""
    present = KeySet(owned)
    absent = KeySet()
    template = (["query"] * 16 + ["queryk"] * 2 + ["get"] * 10
                + ["put"] * 6 + ["del"] * 6)
    while True:
        block = list(template)
        rng.shuffle(block)
        for verb in block:
            if verb == "query":
                yield ("query", None, None, b"query 1 0\n", 1)
            elif verb == "queryk":
                yield ("queryk", None, None, b"query 1 0 %d\n" % QUERY_K, QUERY_K)
            elif verb == "get":
                key = present.choice(rng)
                yield ("get", key, None, b"get %d\n" % key, 1)
            elif verb == "put":
                if len(absent) and rng.random() < 0.5:
                    key = absent.choice(rng)
                else:
                    key = owned[rng.randrange(len(owned))]
                if key in absent:
                    absent.remove(key)
                    present.add(key)
                weight = draw_weight(rng)
                yield ("put", key, weight, b"put %d %d\n" % (key, weight), 1)
            else:
                key = present.choice(rng)
                present.remove(key)
                absent.add(key)
                yield ("del", key, None, b"del %d\n" % key, 1)


def _group_running(pgid: int) -> bool:
    """Does process group ``pgid`` still hold a process that is not a
    zombie?  (Killed workers are reparented, so they are not ours to reap.)"""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _default_sigint() -> None:
    """Undo an inherited ignored SIGINT (background shells ignore it), so
    the server's clean SIGINT shutdown works wherever this runs."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """One server process; ``setup_s`` runs from spawn until it answers
    its first request."""

    def __init__(self, root: str, work: str, tag: str, snapshot: str,
                 n: int, trace_prefix: str | None = None) -> None:
        snap = os.path.join(work, f"snap-{tag}.json")
        wal = os.path.join(work, f"wal-{tag}.log")
        shutil.copyfile(snapshot, snap)
        if os.path.exists(wal):
            os.remove(wal)
        args = ["serve", "--async", "--workers", "--shards", str(SHARDS),
                "--wal", wal, "--snapshot", snap, "--port", "0"]
        if trace_prefix:
            cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                   trace_prefix] + args
        else:
            cmd = [sys.executable, "-m", "repro"] + args
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        t0 = now_ns()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True, preexec_fn=_default_sigint,
        )
        try:
            self.port = self._await_banner()
            reply = self.request(b"len\n")
            self.setup_s = (now_ns() - t0) / 1e9
            if reply.strip() != str(n):
                raise RuntimeError(f"restored server reports len {reply!r}")
        except BaseException:
            self.kill()
            raise

    def _await_banner(self) -> int:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stderr, selectors.EVENT_READ)
        deadline = now_ns() + START_TIMEOUT_S * 10**9
        try:
            while now_ns() < deadline:
                if not sel.select(timeout=1.0):
                    continue
                line = self.proc.stderr.readline().decode(errors="replace")
                if not line:
                    raise RuntimeError("server exited before serving")
                if line.startswith("async serving on "):
                    return int(line.split()[3].rsplit(":", 1)[1])
            raise RuntimeError("server did not start in time")
        finally:
            sel.close()

    def connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def request(self, line: bytes) -> str:
        """One single-line request on a fresh connection."""
        with self.connect() as sock, sock.makefile("rb") as replies:
            sock.sendall(line + b"quit\n")
            return replies.readline().decode()

    def scrape(self) -> str:
        """The ``metrics`` exposition."""
        with self.connect() as sock, sock.makefile("rb") as replies:
            sock.sendall(b"metrics\nquit\n")
            text = replies.read().decode()
        return "\n".join(l for l in text.splitlines() if l != "OK bye")

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of the front and its shard workers."""
        stats = self.request(b"stats\n")
        pids = [self.proc.pid]
        for token in stats.replace(",", " ").split():
            if token.startswith("workers="):
                pids += [int(p.split(":")[0]) for p in token[8:].split("/")]
        total_kb = 0
        for pid in pids:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown: workers closed, snapshot
        saved), then ``kill`` whatever is left after ``STOP_TIMEOUT_S``."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"perfbench: server {self.proc.pid} ignored SIGINT for "
                      f"{STOP_TIMEOUT_S}s; killing it", file=sys.stderr)
        self.kill()

    def kill(self) -> None:
        """SIGKILL whatever is left of the server's process group (the
        front and its forked workers), reap the front, and wait briefly
        for the group to empty."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        self.proc.communicate()
        deadline = now_ns() + 2 * 10**9
        while _group_running(self.proc.pid) and now_ns() < deadline:
            time.sleep(0.01)


class Conn:
    """One load connection: its request stream and the reply in progress."""

    def __init__(self, index: int, sock: socket.socket, ops) -> None:
        self.index = index
        self.sock = sock
        self.ops = ops
        self.buf = b""
        self.cur = None
        self.sent = 0

    def send_next(self) -> None:
        self.cur = next(self.ops)
        self.t_send = now_ns()
        self.sock.sendall(self.cur[3])
        self.sent += 1

    def complete(self) -> bool:
        count = self.buf.count(b"\n")
        return count >= self.cur[4] or (count and self.buf.startswith(b"ERR"))

    def finish(self, t_recv: int, timed: bool) -> tuple:
        """The finished request as a ``checks`` record."""
        verb, key, weight = self.cur[:3]
        lines = self.buf.decode().split("\n")[:-1]
        if lines[0].startswith("ERR"):
            lines = lines[:1]
        self.buf = b""
        return (self.index, verb, key, weight, self.t_send, t_recv, lines, timed)


def drive(conns: list[Conn], records: list, *, timed: bool,
          deadline_ns: int = 0, per_conn: int = 0) -> None:
    """Closed loop: every connection keeps one request in flight until
    ``deadline_ns`` passes or it has sent ``per_conn`` requests."""
    sel = selectors.DefaultSelector()
    for conn in conns:
        conn.sent = 0
        conn.send_next()
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    active = len(conns)
    try:
        while active:
            events = sel.select(timeout=60)
            if not events:
                raise RuntimeError("server stopped replying")
            for key, _ in events:
                conn = key.data
                data = conn.sock.recv(1 << 18)
                if not data:
                    raise ConnectionError("server closed a connection")
                conn.buf += data
                if not conn.complete():
                    continue
                t = now_ns()
                records.append(conn.finish(t, timed))
                if (per_conn and conn.sent < per_conn) or (deadline_ns and t < deadline_ns):
                    conn.send_next()
                else:
                    sel.unregister(conn.sock)
                    active -= 1
    finally:
        sel.close()


class Session:
    """The load connections to one server, with one shared record."""

    def __init__(self, server: Server, seed: int, n: int) -> None:
        self.records: list = []
        self.conns = [
            Conn(c, server.connect(),
                 conn_ops(random.Random(seed * 1_000_003 + 31 + c),
                          list(range(c, n, CONNS))))
            for c in range(CONNS)
        ]

    def warm(self) -> None:
        drive(self.conns, self.records, timed=False, per_conn=WARM_OPS)

    def timed(self, seconds: float, speed: HostSpeed | None = None) -> list[tuple]:
        """The closed loop for ``seconds``.  Returns per slice ``(first
        record, end record, wall ns, factor)``: with ``speed``, slices of
        ``SLICE_NS``, each letting its requests finish before the server
        idles while this process probes the host's speed; without, one
        slice with factor 1."""
        end = now_ns() + int(seconds * 1e9)
        if speed is None:
            first, t0 = len(self.records), now_ns()
            drive(self.conns, self.records, timed=True, deadline_ns=end)
            return [(first, len(self.records), now_ns() - t0, 1.0)]
        parts = []
        before = speed.mark()
        while now_ns() < end:
            first, t0 = len(self.records), now_ns()
            drive(self.conns, self.records, timed=True,
                  deadline_ns=min(end, t0 + SLICE_NS))
            parts.append((first, len(self.records), now_ns() - t0, before,
                          speed.mark()))
            before = parts[-1][-1]
        return [(first, stop, wall, speed.slice_factor(a, b))
                for first, stop, wall, a, b in parts]

    def close(self) -> None:
        for conn in self.conns:
            conn.sock.close()


def _client_stats(records, slices) -> dict:
    """Round trips by verb and throughput over the slices of
    ``Session.timed``, every round trip and slice time scaled by its
    slice's factor."""
    rt = {"query": [], "queryk": [], "get": [], "put": [], "del": []}
    scaled_ns = wall_ns = 0.0
    for first, stop, wall, factor in slices:
        for rec in records[first:stop]:
            rt[rec[VERB]].append((rec[T_RECV] - rec[T_SEND]) * factor)
        scaled_ns += wall * factor
        wall_ns += wall
    ops = sum(len(v) for v in rt.values())
    return {"rt": rt, "ops": ops, "ops_per_s": ops / (scaled_ns / 1e9),
            "raw_ops_per_s": ops / (wall_ns / 1e9)}


def run(root: str, work: str, seed: int, seconds: float, trace: bool,
        spawns: int = SPAWNS, n: int = SNAP_N) -> RunRecord:
    record = RunRecord("serve")
    snapshot = os.path.join(work, "serve-base.json")
    initial = make_snapshot(snapshot, seed, n)
    if trace:
        _traced(record, root, work, seed, seconds, snapshot, initial)
        return record

    speed = HostSpeed()
    setup, raw_setup = [], []
    server = None
    try:
        for i in range(spawns):
            if server is not None:
                server.kill()  # a set-up-only server has nothing to save
            lo = speed.mark(SETUP_PROBES) - SETUP_PROBES + 1
            server = Server(root, work, f"s{i}", snapshot, n)
            hi = speed.mark(SETUP_PROBES) + 1
            raw_setup.append(server.setup_s)
            setup.append(server.setup_s * speed.factor(lo, hi))
        session = Session(server, seed, n)
        _note_kernel(record, server)
        session.warm()
        slices = session.timed(seconds, speed)
        rss = server.peak_rss_mb()
        session.close()
    finally:
        if server is not None:
            server.stop()
    _check(record, session.records, initial)
    cs = _client_stats(session.records, slices)
    rt = cs["rt"]
    writes = rt["put"] + rt["del"]
    m = record.metrics
    m["setup_s"] = median(setup)
    m["ops_per_s"] = cs["ops_per_s"]
    m["query_p50_us"] = percentile(rt["query"], 0.50) / 1e3
    m["query_p99_us"] = percentile(rt["query"], 0.99) / 1e3
    m["batch_draws_per_s"] = QUERY_K * len(rt["queryk"]) / (sum(rt["queryk"]) / 1e9)
    m["write_p50_us"] = percentile(writes, 0.50) / 1e3
    m["write_p99_us"] = percentile(writes, 0.99) / 1e3
    m["peak_rss_mb"] = rss
    record.note("setup spawns=" + " ".join(f"{s:.3f}s" for s in setup))
    record.note(f"host speed index {speed.index():.3f} over "
                f"{len(speed.samples)} probes; raw (unscaled) ops_per_s "
                f"{cs['raw_ops_per_s']:.1f}, setup spawns "
                + " ".join(f"{s:.3f}s" for s in raw_setup))
    record.note(f"samples: single_queries={len(rt['query'])} "
                f"(beyond p99: {beyond_p99(len(rt['query']))}), "
                f"batches={len(rt['queryk'])}, gets={len(rt['get'])}, "
                f"writes={len(writes)} (beyond p99: {beyond_p99(len(writes))})")
    return record


def _note_kernel(record: RunRecord, server: Server) -> None:
    for token in server.request(b"stats\n").replace(",", " ").split():
        if token.startswith("kernel="):
            record.note(f"kernel_backend={token[7:]}")


def _check(record: RunRecord, records: list, initial: dict) -> None:
    record.attempted += len(records)
    check_served(records, initial, record)


# -- traced run ---------------------------------------------------------------

def parse_exposition(text: str) -> dict:
    """``{(name, labels): value}`` from Prometheus text exposition."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, _, labels = series.partition("{")
        out[(name, labels.rstrip("}"))] = float(value)
    return out


def _sum(expo: dict, name: str, where: str = "") -> float:
    return sum(v for (n, labels), v in expo.items()
               if n == name and where in labels)


def _bucket_counts(expo: dict, name: str, where: str) -> dict[float, float]:
    """Per-bucket (not cumulative) counts of histogram ``name``, summed
    over every series matching ``where``.  Each series lists only the
    buckets it has observations in, so cumulative counts are turned into
    per-bucket ones series by series before they are added up."""
    series: dict[str, list] = {}
    for (n, labels), v in expo.items():
        if n != name + "_bucket" or where not in labels:
            continue
        base, _, le = labels.rpartition('le="')
        le = le.rstrip('"')
        bound = float("inf") if le == "+Inf" else float(le)
        series.setdefault(base, []).append((bound, v))
    out: dict[float, float] = {}
    for points in series.values():
        previous = 0.0
        for bound, cumulative in sorted(points):
            out[bound] = out.get(bound, 0.0) + cumulative - previous
            previous = cumulative
    return out


def _hist_quantile(after: dict, before: dict, name: str, q: float,
                   where: str = "") -> float:
    """Upper bucket bound holding the rank-``q`` observation made between
    two scrapes, merged over every series of ``name`` matching ``where``."""
    now = _bucket_counts(after, name, where)
    then = _bucket_counts(before, name, where)
    counts = {bound: c - then.get(bound, 0.0) for bound, c in now.items()}
    total = sum(counts.values())
    seen = 0.0
    for bound in sorted(counts):
        seen += counts[bound]
        if total and seen >= q * total:
            return bound
    return 0.0


def _mean(expo: dict, name: str, where: str = "") -> float:
    count = _sum(expo, name + "_count", where)
    return _sum(expo, name + "_sum", where) / count if count else 0.0


def _traced(record: RunRecord, root: str, work: str, seed: int,
            seconds: float, snapshot: str, initial: dict) -> None:
    from tracer import stats_from_spans

    # Untraced server first: the overhead baseline.
    n = len(initial)
    server = Server(root, work, "plain", snapshot, n)
    try:
        session = Session(server, seed, n)
        _note_kernel(record, server)
        session.warm()
        plain_slices = session.timed(seconds / 2)
        session.close()
    finally:
        server.stop()
    _check(record, session.records, initial)
    plain = _client_stats(session.records, plain_slices)

    prefix = os.path.join(work, f"trace-serve-{seed}")
    for name in os.listdir(work):
        if name.startswith(f"trace-serve-{seed}-"):
            os.remove(os.path.join(work, name))
    server = Server(root, work, "traced", snapshot, n, trace_prefix=prefix)
    try:
        session = Session(server, seed, n)
        session.warm()
        before = parse_exposition(server.scrape())
        t0 = now_ns()
        slices = session.timed(seconds / 2)
        t1 = now_ns()
        after = parse_exposition(server.scrape())
        session.close()
    finally:
        server.stop()
    _check(record, session.records, initial)
    cs = _client_stats(session.records, slices)
    expo = {k: v - before.get(k, 0.0) for k, v in after.items()}

    front = stats_from_spans(prefix + "-front.jsonl", t0, t1)
    if not os.path.exists(prefix + "-front.json"):
        record.fail("the traced server exited without writing its spans")
        return
    with open(prefix + "-front.json") as fh:
        front_gc = [g for g in json.load(fh)["gc"] if t0 <= g[0] <= t1]
    worker = {}
    calls = []
    for name in sorted(os.listdir(work)):
        path = os.path.join(work, name)
        if name.startswith(f"trace-serve-{seed}-worker-") and name.endswith(".jsonl"):
            for span, st in stats_from_spans(path, t0, t1).items():
                acc = worker.setdefault(span, [0, 0, 0])
                for i in range(3):
                    acc[i] += st[i]
        elif name.startswith(f"trace-serve-{seed}-worker-") and name.endswith(".json"):
            with open(path) as fh:
                calls += [c for c in json.load(fh)["calls"] if t0 <= c[0] <= t1]

    ops = cs["ops"]
    rt = cs["rt"]
    writes = len(rt["put"]) + len(rt["del"])
    client_mean = sum(sum(v) for v in rt.values()) / ops
    m = record.metrics
    verbs = ("query", "get", "put", "del")
    for verb in ("query", "put", "get"):
        m[f"service.protocol.{verb}_handle_us"] = _hist_quantile(
            after, before, "repro_verb_latency_ns", 0.5, f'verb="{verb}"') / 1e3
    handled = sum(_sum(expo, "repro_verb_latency_ns_sum", f'verb="{v}"') for v in verbs)
    count = sum(_sum(expo, "repro_verb_latency_ns_count", f'verb="{v}"') for v in verbs)
    m["service.async_serve.transport_share"] = 1 - (handled / count) / client_mean
    m["service.service.query_us"] = _mean(expo, "repro_service_query_ns") / 1e3
    m["service.service.flush_us"] = _mean(expo, "repro_service_flush_ns") / 1e3
    flushes = _sum(expo, "repro_service_stats", 'stat="flushes"')
    m["service.service.ops_per_flush"] = (
        _sum(expo, "repro_service_stats", 'stat="ops_applied"') / flushes
        if flushes else 0.0
    )
    m["service.backend.rpc_us"] = _mean(expo, "repro_shard_rpc_ns") / 1e3
    m["service.backend.rpc_p99_us"] = _hist_quantile(
        after, before, "repro_shard_rpc_ns", 0.99) / 1e3
    rpcs = _sum(expo, "repro_shard_rpc_ns_count")
    m["service.backend.rpcs_per_op"] = rpcs / ops
    m["service.backend.bytes_per_op"] = _sum(expo, "repro_shard_rpc_bytes_total") / ops
    m["service.frames.pickle_share"] = (
        _sum(expo, "repro_shard_rpc_ns_count", 'codec="pickle"') / rpcs if rpcs else 0.0
    )
    frames = front.get("service.frames", [0, 0, 0])
    m["service.frames.codec_us"] = frames[1] / frames[0] / 1e3 if frames[0] else 0.0
    m["service.wal.append_us"] = _mean(expo, "repro_wal_append_ns") / 1e3
    m["service.wal.records_per_write"] = _sum(expo, "repro_wal_records_total") / max(writes, 1)
    kops = ops / 1000
    m["runtime.gc.collections_per_kop"] = len(front_gc) / kops
    m["runtime.gc.pause_ms_per_kop"] = sum(g[1] for g in front_gc) / 1e6 / kops

    # Shard-side layers, from the workers' spans and per-query counters.
    batch_calls = [c for c in calls if c[2] > 1]
    shard_queries = len(calls)

    def span(name):
        return worker.get(name, [0, 0, 0])

    m["core.halt.write_us"] = _span_mean_us(span("core.halt.write"))
    m["core.plan.builds_per_query"] = sum(c[3] for c in calls) / max(shard_queries, 1)
    misses = sum(c[3] for c in calls)
    m["core.plan.build_us"] = span("core.plan")[2] / misses / 1e3 if misses else 0.0
    m["core.plan.us_per_query"] = span("core.plan")[2] / max(shard_queries, 1) / 1e3
    m["core.plan.invalidations_per_write"] = 0.0
    m["fastpath.engine.query_us"] = _span_mean_us(span("fastpath.engine"))
    shard_draws = sum(c[2] for c in batch_calls)
    m["fastpath.columnar.us_per_draw"] = span("fastpath.columnar")[1] / max(shard_draws, 1) / 1e3
    m["fastpath.kernels.us_per_draw"] = span("fastpath.kernels")[2] / max(shard_draws, 1) / 1e3
    m["fastpath.kernels.pow_bounds_per_batch"] = (
        span("fastpath.kernels.pow_bounds.build")[0] / max(len(batch_calls), 1)
    )
    m["fastpath.kernels.pow_bounds_us"] = (
        (span("fastpath.kernels.pow_bounds")[1]
         + span("fastpath.kernels.pow_bounds.build")[1])
        / max(len(batch_calls), 1) / 1e3
    )
    m["fastpath.kernels.elems_per_draw"] = sum(c[4] for c in batch_calls) / max(shard_draws, 1)
    m["fastpath.geom.plans_per_query"] = span("fastpath.geom")[0] / max(shard_queries, 1)
    singles = [c for c in calls if c[2] == 1]
    m["randvar.bitsource.bits_per_query"] = sum(c[5] for c in singles) / max(len(singles), 1)
    m["randvar.bitsource.bits_per_item"] = (
        sum(c[5] for c in calls) / max(sum(c[6] for c in calls), 1)
    )

    m["trace.traced_ops_per_s"] = cs["ops_per_s"]
    m["trace.untraced_ops_per_s"] = plain["ops_per_s"]
    m["trace.overhead"] = plain["ops_per_s"] / cs["ops_per_s"]
    layer_self = sum(st[2] for st in front.values())
    # Two connections are in flight at once, so per-op server time is
    # compared with the per-op client round trip of one connection.
    m["reconcile.layer_self_us_per_op"] = layer_self / ops / 1e3
    m["reconcile.client_mean_us"] = client_mean / 1e3
    m["reconcile.coverage"] = layer_self / ops / client_mean
    shares = sorted(((st[2], name) for name, st in front.items()), reverse=True)
    record.note(
        "reconcile: front self time per op along the request path: "
        + ", ".join(f"{name}={s / ops / 1e3:.1f}us" for s, name in shares)
        + f"; sum={layer_self / ops / 1e3:.1f}us vs client round trip "
        f"{client_mean / 1e3:.1f}us (untraced "
        f"{sum(sum(v) for v in plain['rt'].values()) / plain['ops'] / 1e3:.1f}us)"
        f"; shard-side per query: "
        + ", ".join(f"{name}={st[2] / max(shard_queries, 1) / 1e3:.1f}us"
                    for name, st in sorted(worker.items()))
    )
    record.note(f"trace: traced ops={ops} untraced ops={plain['ops']} "
                f"shard query calls={shard_queries}")


def _span_mean_us(stat) -> float:
    return stat[1] / stat[0] / 1e3 if stat[0] else 0.0
