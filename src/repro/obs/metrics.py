"""Zero-dependency metrics core: counters, gauges, latency histograms.

The serving stack's introspection layer.  One :class:`MetricsRegistry`
holds named instrument *families*; a family plus a fixed label set is one
*series* (``repro_verb_latency_ns{verb="query"}``).  Three instrument
kinds:

- :class:`Counter` — a monotonically increasing count (``_total`` names).
- :class:`Gauge` — a point-in-time value, typically set at scrape time
  (pending log depth, per-shard item counts) so the hot path pays nothing.
- :class:`Histogram` — a **log-bucketed latency histogram**.  Buckets are
  HdrHistogram-style: values below ``2^SUB_BITS`` get exact unit buckets,
  larger values share ``2^SUB_BITS`` linear sub-buckets per power-of-two
  octave, so the relative bucket width is at most ``2^-SUB_BITS`` (12.5%
  at the default ``SUB_BITS = 3``).  Quantile extraction
  (:meth:`Histogram.quantile`, p50/p99/p999) is *exact to the bucket*: it
  returns the inclusive upper bound of the bucket holding the rank-``q``
  observation, and :meth:`Histogram.quantile_bounds` returns the whole
  ``[lo, hi]`` bucket so callers (and the oracle tests) can pin the true
  sorted-list quantile inside it.  ``observe`` is integer bit arithmetic
  plus one dict update — no ``math``, no allocation on the hot path.

Cost discipline: every instrumented call site in the hot paths guards on
``OBS.enabled`` (one attribute load + branch), so the *uninstrumented*
baseline is recoverable in-process — the E1 overhead gate measures the
same build with observability on and off and pins the difference under
3%.  For sites too hot even for a timestamp pair, :class:`Sampler` is a
counter-based decimator: ``hit()`` is one increment and compare, returning
``True`` every N-th event, so a path pays ~one ``perf_counter_ns`` per N
events instead of two per event.

Exposition is the Prometheus text format (:meth:`MetricsRegistry.render`):
``# HELP``/``# TYPE`` headers, cumulative ``le`` buckets with ``+Inf``,
``_sum``/``_count`` series — scrapable by any Prometheus-compatible
collector with zero dependencies on this side.

**Law neutrality.**  Nothing in this module touches a
:class:`~repro.randvar.bitsource.BitSource` or any sampling decision:
toggling ``OBS.enabled`` (or deleting every instrument) cannot change a
single drawn bit.  ``tests/obs`` pins sample streams bit-identical with
observability on and off.
"""

from __future__ import annotations

import math
import re
import time
from typing import Callable

_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


class _ObsState:
    """The process-wide observability switch (see module docstring)."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = True


#: Hot-path guard: instrumented sites check ``OBS.enabled`` before paying
#: for a timestamp or an increment.  Shared by every registry.
OBS = _ObsState()


def set_enabled(enabled: bool) -> bool:
    """Flip the process-wide instrumentation switch; returns the old value
    (so measurement harnesses can restore it)."""
    previous = OBS.enabled
    OBS.enabled = bool(enabled)
    return previous


class Counter:
    """A monotonically increasing count.  ``inc`` is one add; hot sites
    may touch :attr:`value` directly after an ``OBS.enabled`` check."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount


class Histogram:
    """Log-bucketed histogram over non-negative integers (see module
    docstring for the bucket layout and the quantile contract)."""

    kind = "histogram"
    __slots__ = ("counts", "count", "total")

    #: Linear sub-buckets per octave = ``2^SUB_BITS``; relative bucket
    #: width is at most ``2^-SUB_BITS`` = 12.5%.
    SUB_BITS = 3
    _SUB = 1 << SUB_BITS

    def __init__(self) -> None:
        #: Sparse ``bucket index -> observation count``.
        self.counts: dict[int, int] = {}
        self.count = 0
        self.total = 0

    def observe(self, value: int) -> None:
        """Record one observation (negative values clamp to 0)."""
        if value < 0:
            value = 0
        index = self._index(value)
        counts = self.counts
        counts[index] = counts.get(index, 0) + 1
        self.count += 1
        self.total += value

    @classmethod
    def _index(cls, value: int) -> int:
        if value < cls._SUB:
            return value
        octave = value.bit_length() - 1
        # Top SUB_BITS+1 bits: the leading 1 plus SUB_BITS sub-bucket bits,
        # in [2^SUB_BITS, 2^(SUB_BITS+1)).
        top = value >> (octave - cls.SUB_BITS)
        return ((octave - cls.SUB_BITS) << cls.SUB_BITS) + top

    @classmethod
    def bucket_bounds(cls, index: int) -> tuple[int, int]:
        """Inclusive ``[lo, hi]`` value range of bucket ``index``."""
        if index < cls._SUB:
            return index, index
        shift = (index >> cls.SUB_BITS) - 1
        top = (index & (cls._SUB - 1)) + cls._SUB
        lo = top << shift
        hi = lo + (1 << shift) - 1
        return lo, hi

    def quantile_bounds(self, q: float) -> tuple[int, int]:
        """The ``[lo, hi]`` bucket holding the rank-``q`` observation.

        Rank is the nearest-rank definition over the recorded population:
        the ``ceil(q * count)``-th smallest observation (at least the 1st).
        The true sorted-list quantile lies inside the returned bucket —
        the oracle tests pin exactly that.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0, 0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                return self.bucket_bounds(index)
        return self.bucket_bounds(max(self.counts))  # pragma: no cover

    def quantile(self, q: float) -> int:
        """The inclusive upper bound of the rank-``q`` bucket — a value
        the true quantile is guaranteed not to exceed, within 12.5%."""
        return self.quantile_bounds(q)[1]

    def summary(self) -> dict:
        """``{count, sum, p50, p99, p999}`` — the load-gen record shape."""
        return {
            "count": self.count,
            "sum": self.total,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }


class Sampler:
    """Counter-based decimation for hot paths: ``hit()`` is one increment
    and compare, true every ``every``-th call — the guarded site pays for
    ~one timestamp per N events.  ``every=1`` samples everything."""

    __slots__ = ("every", "_tick")

    def __init__(self, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = every
        self._tick = 0

    def hit(self) -> bool:
        self._tick += 1
        if self._tick >= self.every:
            self._tick = 0
            return True
        return False


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named instrument families, each holding one series per label set."""

    def __init__(self) -> None:
        #: name -> (kind, help text, {sorted label tuple -> instrument}).
        self._families: dict[str, tuple[str, str, dict]] = {}

    def _series(self, kind: str, name: str, help_text: str, labels: dict):
        if not _NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        key = tuple(sorted(labels.items()))
        # Validate labels before touching the family map, so a rejected
        # series never leaves an empty family behind in the schema.
        for label, _ in key:
            if not _NAME.match(label):
                raise ValueError(f"invalid label name {label!r}")
        family = self._families.get(name)
        if family is None:
            family = (kind, help_text, {})
            self._families[name] = family
        elif family[0] != kind:
            raise ValueError(
                f"metric {name!r} is a {family[0]}, not a {kind}"
            )
        series = family[2].get(key)
        if series is None:
            series = _KINDS[kind]()
            family[2][key] = series
        return series

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        """Get-or-create the counter series ``name{labels}``."""
        return self._series("counter", name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        return self._series("gauge", name, help_text, labels)

    def histogram(self, name: str, help_text: str = "", **labels) -> Histogram:
        return self._series("histogram", name, help_text, labels)

    def names(self) -> list[str]:
        """All family names, sorted (the schema the parity tests pin)."""
        return sorted(self._families)

    def zero(self) -> None:
        """Reset every series value in place (identities survive, so
        module-level bound counters keep working) — test isolation."""
        for _, _, series_map in self._families.values():
            for series in series_map.values():
                if isinstance(series, Histogram):
                    series.counts = {}
                    series.count = 0
                    series.total = 0
                else:
                    series.value = 0

    # -- Prometheus text exposition ------------------------------------------

    @staticmethod
    def _label_str(key: tuple, extra: tuple = ()) -> str:
        items = key + extra
        if not items:
            return ""
        inner = ",".join(
            '{}="{}"'.format(
                label,
                str(value).replace("\\", r"\\").replace('"', r"\"")
                .replace("\n", r"\n"),
            )
            for label, value in items
        )
        return "{" + inner + "}"

    def render(self) -> list[str]:
        """The registry as Prometheus text-exposition lines."""
        lines: list[str] = []
        for name in sorted(self._families):
            kind, help_text, series_map = self._families[name]
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for key in sorted(series_map):
                series = series_map[key]
                if kind == "histogram":
                    cumulative = 0
                    for index in sorted(series.counts):
                        cumulative += series.counts[index]
                        _, hi = Histogram.bucket_bounds(index)
                        lines.append(
                            f"{name}_bucket"
                            f"{self._label_str(key, (('le', hi),))}"
                            f" {cumulative}"
                        )
                    lines.append(
                        f"{name}_bucket"
                        f"{self._label_str(key, (('le', '+Inf'),))}"
                        f" {series.count}"
                    )
                    lines.append(
                        f"{name}_sum{self._label_str(key)} {series.total}"
                    )
                    lines.append(
                        f"{name}_count{self._label_str(key)} {series.count}"
                    )
                else:
                    lines.append(
                        f"{name}{self._label_str(key)} {series.value}"
                    )
        return lines


#: The process-default registry: core-layer instruments (the ``QueryPlan``
#: cache counters) bind here at import, and services scrape it unless
#: constructed with a private registry.
REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    return REGISTRY


def time_ns() -> int:
    """The clock every instrument site shares (monotonic, nanoseconds)."""
    return time.perf_counter_ns()


def timed(
    histogram: Histogram, fn: Callable, *args, **kwargs
):  # pragma: no cover - convenience wrapper, sites inline the pattern
    """Run ``fn`` recording its wall time into ``histogram`` (only when
    observability is enabled)."""
    if not OBS.enabled:
        return fn(*args, **kwargs)
    start = time.perf_counter_ns()
    try:
        return fn(*args, **kwargs)
    finally:
        histogram.observe(time.perf_counter_ns() - start)
