"""The serve line protocol, independent of any transport.

One :class:`LineProtocol` instance holds the whole request surface of
``python -m repro serve``: parsing a request line, dispatching it against a
:class:`~repro.service.service.SamplingService`, and formatting the reply
lines.  The synchronous stdin/stdout loop (:func:`~repro.service.serve_loop.
serve_loop`) and the asyncio TCP front (:class:`~repro.service.async_serve.
AsyncLineServer`) both drive this class, so the two fronts answer any
request byte-for-byte identically — the protocol test suite runs every
script through both and compares the reply streams.

Grammar (one command per line; replies are single lines prefixed with
``OK``, ``ERR``, or the payload itself)::

    put KEY WEIGHT          insert-or-update (upsert)
    insert KEY WEIGHT       strict insert (KEY must be new)
    update KEY WEIGHT       strict weight update (KEY must exist)
    del KEY                 delete
    flush                   drain the mutation log into the shards
    get KEY                 -> weight of KEY
    query ALPHA BETA [K]    -> K (default 1) samples, one line each
    len                     -> item count
    weight                  -> total weight
    stats                   -> service counters
    metrics                 -> Prometheus text exposition of the registry
    trace-dump [N]          -> last N (default 64) op-lifecycle trace events
    save PATH               write a snapshot (atomic, compacting)
    help                    command list
    quit                    exit / close the connection

Keys are integers when they parse as such, strings otherwise; ``ALPHA`` and
``BETA`` accept ``num/den`` rationals.

**Write validation is eager, application may be deferred.**  Every write is
fully validated on its own request line — membership against the applied
shard state *plus* the net effect of any pending ops (``MutationLog.
pending_state``), and the weight against the backend's ``w_max_bits`` bound
— so an ``OK offset=N`` acknowledgement can never be retracted by a later
batch drain.  *When* the op reaches the shards is the front's write policy:

- ``pipelined=False`` (the sync loop): write-through — every accepted op is
  applied before its ``OK`` is written, one ``apply_many`` per op;
- ``pipelined=True`` (the asyncio front): ops accumulate in the shared
  mutation log across concurrent connections and drain as one batched
  ``apply_many`` per shard at a flush point (any read, an explicit
  ``flush``, a ``save``) or when the pending count crosses ``watermark``.

Either way reads are read-your-writes (they settle the log first), so the
data-bearing replies — weights, lengths, offsets, samples, errors — are
identical under both policies.  Only the *diagnostic counters* surfaced by
``flush`` (its ``applied=N``) and ``stats`` depend on the policy, since
they report exactly how the batching behaved.

``save`` is split into two phases so a front can take the disk write off
its serving thread: :meth:`LineProtocol.handle` captures the snapshot
document synchronously (a point-in-time capture at the current log offset)
and returns it as a :class:`PendingSave`; the front performs the file write
— inline, or in an executor — and calls :meth:`LineProtocol.finish_save`
to compact the live store and format the reply line.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import OBS, time_ns
from ..wordram.rational import parse_rational
from . import snapshot as snapshot_format

HELP = (
    "commands: put K W | insert K W | update K W | del K | flush | get K | "
    "query A B [COUNT] | len | weight | stats | metrics | trace-dump [N] | "
    "save PATH | help | quit"
)


def parse_key(text: str):
    """Keys are ints when they parse as such, strings otherwise."""
    try:
        return int(text)
    except ValueError:
        return text


@dataclass(slots=True)
class PendingSave:
    """A snapshot captured by ``save``, awaiting its file write.

    ``doc`` is the full point-in-time snapshot document (pending writes
    settled), ``path`` the requested destination, and ``offset`` the log
    offset at capture time — :meth:`LineProtocol.finish_save` compacts the
    live store from ``doc`` only if no writes landed since, so a snapshot
    written concurrently with new traffic stays a valid point-in-time
    capture without clobbering the newer state.
    """

    doc: dict
    path: str
    offset: int


@dataclass(slots=True)
class Reply:
    """The outcome of one request line.

    ``lines`` are the reply lines to write (a ``query A B K`` yields K of
    them); ``close`` asks the front to end this stream/connection after
    writing them; ``save`` is a snapshot document whose file write the
    front must perform (see :class:`PendingSave`) before emitting the final
    reply line from :meth:`LineProtocol.finish_save`.
    """

    lines: list[str]
    close: bool = False
    save: PendingSave | None = None


class LineProtocol:
    """Parse/dispatch/format for the serve line protocol (transport-free).

    ``pipelined`` selects the write policy (see the module docstring);
    ``watermark`` is the pipelined drain threshold, defaulting to the
    service's ``config.batch_ops``.
    """

    def __init__(
        self,
        service,
        *,
        pipelined: bool = False,
        watermark: int | None = None,
    ) -> None:
        self.service = service
        self.pipelined = pipelined
        if watermark is None:
            watermark = service.config.batch_ops
        if watermark < 1:
            raise ValueError(f"watermark must be >= 1, got {watermark}")
        self.watermark = watermark
        # Per-verb latency/error series, pre-created for the whole verb
        # vocabulary so the exposition schema is stable from the first
        # scrape and label cardinality is bounded: anything not in
        # ``_DISPATCH`` is counted under ``verb="_unknown"``.
        registry = service.registry
        self._verb_hist = {}
        self._verb_errs = {}
        for verb in (*_DISPATCH, "_unknown"):
            self._verb_hist[verb] = registry.histogram(
                "repro_verb_latency_ns",
                "Serve-verb dispatch wall time (parse to reply formatted)",
                verb=verb,
            )
            self._verb_errs[verb] = registry.counter(
                "repro_verb_errors_total",
                "Serve-verb requests answered with an ERR reply",
                verb=verb,
            )

    # -- request entry point -------------------------------------------------

    def handle(self, line: str) -> Reply:
        """Process one request line into a :class:`Reply`.

        Command errors (bad syntax, unknown keys, invalid parameters) are
        reported as ``ERR`` reply lines and never raise — one malformed
        request must not take down a front holding live state.
        """
        words = line.split()
        if not words:
            return Reply([])
        command, *args = words
        command = command.lower()
        handler = _DISPATCH.get(command)
        if handler is None:
            if OBS.enabled:
                self._verb_errs["_unknown"].value += 1
                self._verb_hist["_unknown"].observe(0)
            return Reply([f"ERR unknown command {command!r} (try: help)"])
        start = time_ns() if OBS.enabled else 0
        try:
            reply = handler(self, args)
        except (
            KeyError, ValueError, IndexError, TypeError, ZeroDivisionError
        ) as exc:
            if start:
                self._verb_errs[command].value += 1
            reply = Reply([f"ERR {exc}"])
        if start:
            self._verb_hist[command].observe(time_ns() - start)
        return reply

    async def handle_async(self, line: str) -> Reply:
        """Async entry point for the event-loop front: RPC-bearing verbs
        route their flushes and query fan-outs through the backend's
        async dispatcher (under the service :attr:`~repro.service.service.
        SamplingService.op_lock`), so a slow shard parks only the requests
        that touch it.  Verbs that never issue shard RPC — and anything
        unknown — delegate to the synchronous :meth:`handle`.  Replies are
        byte-identical to the synchronous path's.
        """
        words = line.split()
        if not words:
            return Reply([])
        command = words[0].lower()
        handler = _ASYNC_DISPATCH.get(command)
        if handler is None:
            return self.handle(line)
        args = words[1:]
        start = time_ns() if OBS.enabled else 0
        try:
            reply = await handler(self, args)
        except (
            KeyError, ValueError, IndexError, TypeError, ZeroDivisionError
        ) as exc:
            if start:
                self._verb_errs[command].value += 1
            reply = Reply([f"ERR {exc}"])
        if start:
            self._verb_hist[command].observe(time_ns() - start)
        return reply

    # -- write path ----------------------------------------------------------

    def _effective_present(self, key, shard_id: int) -> bool:
        """Membership as of *this* request line: the applied shard state
        overlaid with the net effect of any pending (unapplied) ops — so
        eager validation never needs to force a drain (and, with the
        worker runtime, never needs an RPC: the backend answers from its
        applied-state mirror).  Between the pending log and the applied
        mirror sits the draining overlay: ops already drained by an async
        flush whose fan-out is still in flight (see
        :meth:`SamplingService.draining_state`)."""
        state = self.service.log.pending_state(key)
        if state is not None:
            return state[0] == "present"
        state = self.service.draining_state(key)
        if state is not None:
            return state[0] == "present"
        return self.service.backend.contains(shard_id, key)

    def _check_weight(self, weight: int, shard_id: int) -> None:
        """Run the shard structure's own weight validation at accept time.

        An acknowledged write must never be rejected by a later drain, so
        the exact check the shard will apply at drain time (HALT/Bucket's
        ``w_max_bits`` bound; naive has none) runs here first — delegated
        through the shard backend, not mirrored, so the two can never
        drift.
        """
        self.service.backend.check_weight(shard_id, weight)

    def _after_write(self) -> None:
        if not self.pipelined:
            self.service.flush()
        elif self.service.log.pending_count >= self.watermark:
            self.service.flush()

    def _accept_write(self, command: str, args: list[str]) -> int:
        """Validate and buffer one put/insert/update; returns the log
        offset.  No drain here — the caller applies the drain policy."""
        key, weight = parse_key(args[0]), int(args[1])
        shard_id = self.service.router.shard_of(key)
        present = self._effective_present(key, shard_id)
        if command == "put":
            kind = "update" if present else "insert"
        elif command == "insert":
            if present:
                raise KeyError(f"duplicate item key: {key!r}")
            kind = "insert"
        else:  # update
            if not present:
                raise KeyError(f"no such item: {key!r}")
            kind = "update"
        self._check_weight(weight, shard_id)
        # auto_flush=False: _after_write is the sole drain policy here, so
        # a watermark above the service's batch_ops is honoured.
        return self.service.submit_one(
            (kind, key, weight), shard_id, auto_flush=False
        )

    def _cmd_write(self, command: str, args: list[str]) -> Reply:
        offset = self._accept_write(command, args)
        self._after_write()
        self.service.trace.record_sampled("ack", offset, verb=command)
        return Reply([f"OK offset={offset}"])

    def _cmd_put(self, args: list[str]) -> Reply:
        return self._cmd_write("put", args)

    def _cmd_insert(self, args: list[str]) -> Reply:
        return self._cmd_write("insert", args)

    def _cmd_update(self, args: list[str]) -> Reply:
        return self._cmd_write("update", args)

    def _accept_del(self, args: list[str]) -> int:
        key = parse_key(args[0])
        shard_id = self.service.router.shard_of(key)
        if not self._effective_present(key, shard_id):
            raise KeyError(f"no such item: {key!r}")
        return self.service.submit_one(
            ("delete", key), shard_id, auto_flush=False
        )

    def _cmd_del(self, args: list[str]) -> Reply:
        offset = self._accept_del(args)
        self._after_write()
        self.service.trace.record_sampled("ack", offset, verb="del")
        return Reply([f"OK offset={offset}"])

    def _cmd_flush(self, args: list[str]) -> Reply:
        return Reply([f"OK applied={self.service.flush()}"])

    # -- read path (every read is a flush point: read-your-writes) -----------

    def _cmd_get(self, args: list[str]) -> Reply:
        key = parse_key(args[0])
        self.service.flush()
        shard_id = self.service.router.shard_of(key)
        backend = self.service.backend
        if not backend.contains(shard_id, key):
            raise KeyError(f"no such item: {key!r}")
        return Reply([str(backend.weight(shard_id, key))])

    def _cmd_query(self, args: list[str]) -> Reply:
        alpha, beta = parse_rational(args[0]), parse_rational(args[1])
        count = int(args[2]) if len(args) > 2 else 1
        if count < 1:
            # Every request must produce at least one reply line — a
            # zero-sample query would silently hang a client blocking on
            # the response.
            raise ValueError(f"count must be >= 1, got {count}")
        samples = self.service.query_many([(alpha, beta)] * count)
        return Reply([
            " ".join(str(key) for key in sorted(sample, key=repr)) or "(empty)"
            for sample in samples
        ])

    def _cmd_len(self, args: list[str]) -> Reply:
        self.service.flush()
        return Reply([str(len(self.service))])

    def _cmd_weight(self, args: list[str]) -> Reply:
        self.service.flush()
        return Reply([str(self.service.total_weight)])

    def _cmd_stats(self, args: list[str]) -> Reply:
        """Read-only service counters: the facade's request stats, the
        shard runtime (``backend=inline|workers``, with per-worker
        ``pid:up|down`` liveness for the worker runtime — plus
        ``standby=``/``heads=`` and the supervisor's
        ``respawns``/``promotions``/``retries`` counters when standbys or
        supervision are in play), the per-shard applied item counts, the
        per-(alpha, beta) plan cache's size and hit count, and the
        pending mutation-log depth.  Unlike the data-bearing reads this
        does not flush — it reports the store exactly as it stands,
        pending writes included as ``pending``.  After the report is
        formatted the supervisor's heal hook runs, so a scrape that
        observes a dead member also repairs it."""
        service = self.service
        pairs = ", ".join(
            f"{name}={value}" for name, value in service.stats.items()
        )
        backend = service.backend
        shard_n = "/".join(str(n) for n in backend.shard_sizes())
        workers = backend.worker_info()
        runtime = f"backend={backend.name}"
        if workers is not None:
            runtime += f", workers={workers}"
            standbys = backend.standby_info()
            if standbys is not None:
                runtime += (
                    f", standby={standbys}, heads={backend.heads_info()}"
                )
            if backend.failovers is not None:
                runtime += ", " + ", ".join(
                    f"{name}={value}"
                    for name, value in backend.failovers.items()
                )
        reply = Reply([
            f"{pairs}, {runtime}, shard_n={shard_n}, "
            f"plan_cache_size={len(service._plan_cache)}, "
            f"pending={service.log.pending_count}, "
            f"offset={service.log.offset}"
        ])
        # Heal after formatting: the probe above reported the death, the
        # respawn shows up (new pid, up) from the next scrape onward.
        service.heal()
        return reply

    def _cmd_metrics(self, args: list[str]) -> Reply:
        """The service's metrics registry as Prometheus text exposition.

        Depth-style gauges (pending log depth, per-shard item counts, plan
        cache size, the ``stats`` counters, worker liveness, WAL tail
        depth) are set here at scrape time — point-in-time state costs the
        hot paths nothing.  Like ``stats`` this does not flush: it reports
        the store exactly as it stands.
        """
        service = self.service
        registry = service.registry
        backend = service.backend
        registry.gauge(
            "repro_pending_ops",
            "Mutation-log ops accepted but not yet drained",
        ).set(service.log.pending_count)
        registry.gauge(
            "repro_log_offset", "Mutation-log offset (ops ever accepted)",
        ).set(service.log.offset)
        registry.gauge(
            "repro_plan_cache_size",
            "Entries in the per-(alpha, beta) query plan cache",
        ).set(len(service._plan_cache))
        for name, value in service.stats.items():
            registry.gauge(
                "repro_service_stats",
                "SamplingService.stats counters, one series per key",
                stat=name,
            ).set(value)
        for shard_id, items in enumerate(backend.shard_sizes()):
            registry.gauge(
                "repro_shard_items", "Applied item count per shard",
                shard=str(shard_id),
            ).set(items)
        workers = backend.worker_info()
        if workers is not None:
            for shard_id, part in enumerate(workers.split("/")):
                registry.gauge(
                    "repro_worker_up",
                    "Worker-shard process liveness (1 = up, 0 = down)",
                    shard=str(shard_id),
                ).set(1 if part.endswith(":up") else 0)
        standbys = backend.standby_info()
        if standbys is not None:
            for shard_id, part in enumerate(standbys.split("/")):
                registry.gauge(
                    "repro_standby_up",
                    "Standby-member process liveness (1 = up, 0 = down)",
                    shard=str(shard_id),
                ).set(1 if part.endswith(":up") else 0)
        if service.wal is not None:
            registry.gauge(
                "repro_wal_tail_records",
                "WAL data records a recovery would replay",
            ).set(service.wal.tail_records)
        reply = Reply(registry.render())
        service.heal()  # scrape-observes, then repairs (see ``stats``)
        return reply

    def _cmd_trace_dump(self, args: list[str]) -> Reply:
        """The last N (default 64) op-lifecycle trace events, oldest
        first — the debug view behind ``submit -> wal -> drain -> apply ->
        ack``; op ids are mutation-log offsets."""
        last = int(args[0]) if args else 64
        if last < 1:
            raise ValueError(f"count must be >= 1, got {last}")
        return Reply(self.service.trace.format(last))

    # -- snapshots -----------------------------------------------------------

    def _cmd_save(self, args: list[str]) -> Reply:
        path = args[0]  # before the O(n) dump: `save` with no path is cheap
        doc = self.service.dump()
        return Reply(
            [], save=PendingSave(doc, path, self.service.log.offset)
        )

    def finish_save(self, save: PendingSave, error: OSError | None = None) -> str:
        """Format the reply line after a save's file write was attempted.

        On success the live store is compacted from the written document —
        unless writes landed while the file was being written off-thread,
        in which case the store keeps its newer state and the file stays a
        valid point-in-time capture at ``save.offset``.
        """
        if error is not None:
            return f"ERR {error}"
        if self.service.log.offset == save.offset:
            self.service.compact(save.doc)
        # The file at save.offset is durable either way: an attached WAL
        # drops the records it covers (later records are kept).
        self.service.snapshot_saved(save.offset)
        return f"OK saved={save.path}"

    def complete_save(self, save: PendingSave) -> str:
        """Synchronous save completion (the sync front): write inline,
        then :meth:`finish_save`."""
        try:
            snapshot_format.save(save.doc, save.path)
        except OSError as exc:
            return self.finish_save(save, exc)
        return self.finish_save(save)

    # -- session control -----------------------------------------------------

    def _cmd_help(self, args: list[str]) -> Reply:
        return Reply([HELP])

    def _cmd_quit(self, args: list[str]) -> Reply:
        return Reply(["OK bye"], close=True)

    # -- async verb handlers -------------------------------------------------
    # The event-loop twins of the RPC-bearing verbs.  Rules of the road:
    # validation and buffering are synchronous (they never RPC — pending
    # log + draining overlay + applied mirror), every flush or query
    # fan-out goes through the service's async path under ``op_lock``,
    # and whatever the sync handler replies, the async handler replies
    # byte-for-byte.

    async def _after_write_async(self) -> None:
        service = self.service
        if not self.pipelined or service.log.pending_count >= self.watermark:
            async with service.op_lock:
                await service.flush_async()

    async def _async_write(self, command: str, args: list[str]) -> Reply:
        offset = self._accept_write(command, args)
        await self._after_write_async()
        self.service.trace.record_sampled("ack", offset, verb=command)
        return Reply([f"OK offset={offset}"])

    async def _async_put(self, args: list[str]) -> Reply:
        return await self._async_write("put", args)

    async def _async_insert(self, args: list[str]) -> Reply:
        return await self._async_write("insert", args)

    async def _async_update(self, args: list[str]) -> Reply:
        return await self._async_write("update", args)

    async def _async_del(self, args: list[str]) -> Reply:
        offset = self._accept_del(args)
        await self._after_write_async()
        self.service.trace.record_sampled("ack", offset, verb="del")
        return Reply([f"OK offset={offset}"])

    async def _async_flush(self, args: list[str]) -> Reply:
        async with self.service.op_lock:
            return Reply([f"OK applied={await self.service.flush_async()}"])

    async def _async_query(self, args: list[str]) -> Reply:
        alpha, beta = parse_rational(args[0]), parse_rational(args[1])
        count = int(args[2]) if len(args) > 2 else 1
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        async with self.service.op_lock:
            samples = await self.service.query_many_async(
                [(alpha, beta)] * count
            )
        return Reply([
            " ".join(str(key) for key in sorted(sample, key=repr)) or "(empty)"
            for sample in samples
        ])

    async def _flushpoint_async(self, handler, args: list[str]) -> Reply:
        """Settle the pending log through the async dispatcher, then run
        the synchronous handler: its own ``flush()`` finds nothing left to
        drain, so the remaining work is mirror reads (free) or a cold
        control fan-out (``save``'s dump — briefly blocking by design)."""
        async with self.service.op_lock:
            await self.service.flush_async()
            return handler(args)

    async def _async_get(self, args: list[str]) -> Reply:
        return await self._flushpoint_async(self._cmd_get, args)

    async def _async_len(self, args: list[str]) -> Reply:
        return await self._flushpoint_async(self._cmd_len, args)

    async def _async_weight(self, args: list[str]) -> Reply:
        return await self._flushpoint_async(self._cmd_weight, args)

    async def _async_save(self, args: list[str]) -> Reply:
        return await self._flushpoint_async(self._cmd_save, args)

    async def _locked_async(self, handler, args: list[str]) -> Reply:
        """stats/metrics heal after reporting, and healing speaks blocking
        RPC under a brief loop-I/O suspension — which must never overlap
        an in-flight fan-out.  Hence: report (and heal) under the lock."""
        async with self.service.op_lock:
            return handler(args)

    async def _async_stats(self, args: list[str]) -> Reply:
        return await self._locked_async(self._cmd_stats, args)

    async def _async_metrics(self, args: list[str]) -> Reply:
        return await self._locked_async(self._cmd_metrics, args)


_DISPATCH = {
    "put": LineProtocol._cmd_put,
    "insert": LineProtocol._cmd_insert,
    "update": LineProtocol._cmd_update,
    "del": LineProtocol._cmd_del,
    "flush": LineProtocol._cmd_flush,
    "get": LineProtocol._cmd_get,
    "query": LineProtocol._cmd_query,
    "len": LineProtocol._cmd_len,
    "weight": LineProtocol._cmd_weight,
    "stats": LineProtocol._cmd_stats,
    "metrics": LineProtocol._cmd_metrics,
    "trace-dump": LineProtocol._cmd_trace_dump,
    "save": LineProtocol._cmd_save,
    "help": LineProtocol._cmd_help,
    "quit": LineProtocol._cmd_quit,
}

#: The RPC-bearing subset of the vocabulary, mapped to event-loop
#: handlers; everything else falls through ``handle_async`` to the
#: synchronous dispatch above.
_ASYNC_DISPATCH = {
    "put": LineProtocol._async_put,
    "insert": LineProtocol._async_insert,
    "update": LineProtocol._async_update,
    "del": LineProtocol._async_del,
    "flush": LineProtocol._async_flush,
    "get": LineProtocol._async_get,
    "query": LineProtocol._async_query,
    "len": LineProtocol._async_len,
    "weight": LineProtocol._async_weight,
    "stats": LineProtocol._async_stats,
    "metrics": LineProtocol._async_metrics,
    "save": LineProtocol._async_save,
}
