"""Shared pieces of the benchmark: the weight law, seeded key sets, the
percentile rule, and the run record every workload fills in."""

from __future__ import annotations

import math
import os
import random
import statistics
import time

#: Item weights are log-uniform over [1, 2^WEIGHT_BITS): about one bucket
#: per octave, so a structure spans ~40 buckets and several hierarchy levels.
WEIGHT_BITS = 40

now_ns = time.perf_counter_ns


def draw_weight(rng: random.Random) -> int:
    """One log-uniform weight in ``[1, 2^WEIGHT_BITS)``."""
    return int(2.0 ** (rng.random() * WEIGHT_BITS))


def work_dir(root: str) -> str:
    """The work directory for snapshots, WALs and span dumps (inside the
    checkout, listed in ``.gitignore``)."""
    path = os.path.join(root, ".perfbench_work")
    os.makedirs(path, exist_ok=True)
    return path


class KeySet:
    """A set with O(1) add, remove and seeded uniform choice."""

    def __init__(self, keys=()) -> None:
        self.items: list = list(keys)
        self.pos: dict = {key: i for i, key in enumerate(self.items)}

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, key) -> bool:
        return key in self.pos

    def add(self, key) -> None:
        if key not in self.pos:
            self.pos[key] = len(self.items)
            self.items.append(key)

    def remove(self, key) -> None:
        i = self.pos.pop(key)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i

    def choice(self, rng: random.Random):
        return self.items[rng.randrange(len(self.items))]


def percentile(values: list, q: float) -> float:
    """Nearest-rank quantile of ``values`` (sorted here)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def beyond_p99(count: int) -> int:
    """Samples strictly above the nearest-rank p99 of ``count`` samples."""
    return count - max(1, math.ceil(0.99 * count)) if count else 0


def median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


class RunRecord:
    """What one run measured: counts, failures, metrics and notes.

    ``fail`` records a failed or wrong operation; the first few messages
    are kept for the report.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < 10:
            self.messages.append(message)

    def note(self, text: str) -> None:
        self.notes.append(text)
