"""Snapshot persistence: the store's state as one atomic JSON document.

The snapshot captures everything needed to rebuild the sharded store
*bit-identically*: the service configuration (backend, shard count, seed,
fast flag, weight bound), the mutation-log offset at capture time, and for
every shard its item list **in structure order** plus (for HALT shards) the
rebuild-time size parameter ``n0``.

Bit-identity is the contract, not just equal weights: a DPSS query's output
is a deterministic function of (structure layout, bit stream), and the
layout depends on the hierarchy constants (``n0``) and the order entries
occupy their buckets.  A restore therefore rebuilds each shard as *empty
structure at the recorded n0* + *one batched ``apply_many`` insert in the
recorded order*, which is a deterministic function of the document alone.
``SamplingService.snapshot`` compacts the live store through the same
function (write doc -> rebuild self from doc), so after a snapshot the live
process and any future restore of that file are the same machine: feed both
the same bits and they emit the same samples.

Writes use the atomic tmp-file + ``os.replace`` rewrite (the same pattern
as the benchmark trajectory files): an interrupted save leaves the previous
snapshot intact, never a half-written one.
"""

from __future__ import annotations

import json
import os
from typing import Hashable

FORMAT = "repro-dpss-snapshot"
VERSION = 1


def check_snapshot_key(key: Hashable) -> None:
    """Snapshots are JSON: only keys JSON round-trips exactly may appear."""
    if isinstance(key, (int, str)) or key is None:
        return
    raise TypeError(
        f"snapshot keys must be int, str, or None (JSON-exact); "
        f"got {type(key).__name__}: {key!r}"
    )


def dump_service(service) -> dict:
    """The service's full state as a plain-data snapshot document.

    Shard records come from the service's shard backend (live structures
    inline, one ``dump`` RPC fan-out with the worker runtime); the key
    check runs here in the front either way, so an unserializable key
    fails identically regardless of where the shards live.
    """
    shards = service.backend.dump_shards()
    for record in shards:
        for key, _ in record["items"]:
            check_snapshot_key(key)
    config = service.config
    return {
        "format": FORMAT,
        "version": VERSION,
        "backend": config.backend,
        "num_shards": config.num_shards,
        "seed": config.seed,
        "fast": config.fast,
        "w_max_bits": config.w_max_bits,
        "batch_ops": config.batch_ops,
        "log_offset": service.log.offset,
        "shards": shards,
    }


def save(doc: dict, path: str) -> str:
    """Atomic rewrite of the snapshot file; returns the path."""
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    os.replace(tmp_path, path)
    return path


def load(path: str) -> dict:
    """Read and validate a snapshot document."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT:
        raise ValueError(f"{path} is not a {FORMAT} file")
    if doc.get("version") != VERSION:
        raise ValueError(
            f"unsupported snapshot version {doc.get('version')!r} "
            f"(this build reads version {VERSION})"
        )
    if len(doc.get("shards", [])) != doc.get("num_shards"):
        raise ValueError(
            f"corrupt snapshot: {len(doc.get('shards', []))} shard records "
            f"for num_shards={doc.get('num_shards')}"
        )
    return doc
