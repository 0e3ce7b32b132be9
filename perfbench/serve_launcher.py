"""Traced server launcher for the ``serve`` workload's traced run.

    python3 perfbench/serve_launcher.py OUT_PREFIX serve --async --workers ...

Installs span wrappers on the serving layers' public functions, then runs
``repro.cli.main(["serve", ...])`` unchanged.  When the server exits it
writes ``OUT_PREFIX-front.jsonl`` (spans) and ``OUT_PREFIX-front.json``
(garbage-collector pauses).  Each forked shard worker drops the front's
wrappers, traces the in-process layers it runs (``core``, ``fastpath``)
and, when the front closes it, writes ``OUT_PREFIX-worker-PID.jsonl`` and
``OUT_PREFIX-worker-PID.json`` (per-query counter deltas).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def front_targets(tracer) -> None:
    from repro.service import backend, frames, protocol, service, wal

    tracer.target(protocol.LineProtocol, "handle_async", "service.protocol")
    tracer.target(service.SamplingService, "flush_async", "service.service")
    tracer.target(service.SamplingService, "query_many_async", "service.service")
    tracer.target(backend.WorkerBackend, "apply_batches_async", "service.backend")
    tracer.target(backend.WorkerBackend, "query_fanout_async", "service.backend")
    tracer.target(frames, "encode_payload", "service.frames")
    tracer.target(frames, "decode_payload", "service.frames")
    tracer.target(wal.WriteAheadLog, "append_ops", "service.wal")
    tracer.target(wal.WriteAheadLog, "append_applied", "service.wal")


def _worker_entry(original, prefix: str):
    """A replacement for the backend's worker loop that traces the shard."""

    def entry(conn, config, source):
        from repro.core.halt import HALT

        import inproc
        from tracer import Tracer, _now

        # A shard traces every query call, so keep more spans than the front.
        tracer = Tracer(keep=1_000_000)
        inproc.layer_targets(tracer)
        tracer.target(HALT, "apply_many", "core.halt.write")
        tracer.target(HALT, "query_many_with_total", "core.halt.query_many")
        tracer.install()
        traced_query = HALT.query_many_with_total
        calls: list[list] = []

        def counted(self, total, count, stats=None):
            before = inproc._registry_counts()
            bits = self.source.consumed
            t0 = _now()
            draws = traced_query(self, total, count, stats)
            t1 = _now()
            after = inproc._registry_counts()
            calls.append([
                t0, t1, count,
                after["plan_misses"] - before["plan_misses"],
                after["kernel_elems"] - before["kernel_elems"],
                self.source.consumed - bits,
                sum(len(d) for d in draws),
            ])
            return draws

        HALT.query_many_with_total = counted

        # The worker loop ends the process with os._exit; write first.
        exit_now = os._exit

        def write_and_exit(code):
            base = f"{prefix}-worker-{os.getpid()}"
            tracer.write(base + ".jsonl")
            with open(base + ".json", "w") as fh:
                json.dump({"calls": calls, "gc": tracer.gc_events}, fh)
            exit_now(code)

        os._exit = write_and_exit
        original(conn, config, source)

    return entry


def main(argv: list[str]) -> int:
    prefix, serve_argv = argv[0], argv[1:]
    from repro.cli import main as cli_main
    from repro.service import backend

    from tracer import Tracer

    tracer = Tracer()
    front_targets(tracer)
    backend._worker_main = _worker_entry(backend._worker_main, prefix)
    os.register_at_fork(after_in_child=tracer.uninstall)
    tracer.install()
    try:
        return cli_main(serve_argv)
    finally:
        tracer.uninstall()
        tracer.write(prefix + "-front.jsonl")
        with open(prefix + "-front.json", "w") as fh:
            json.dump({"gc": tracer.gc_events}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
