"""Output checks.  They run outside the timed region, and every failure
they find counts against ``error_rate``.

- A sample has no duplicate keys and holds only live keys.
- The mean size of a ``query_many`` batch lies within 6 sigma of the exact
  expected sample size, sigma^2 = sum p(1 - p) over the items.
- On ``serve``: no ``ERR`` reply, every ``get`` returns the connection's
  last written weight, and every sampled key was live at some point while
  its request was in flight.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction


def check_sample(sample, live) -> str | None:
    """``None`` if ``sample`` has no duplicates and only keys in ``live``."""
    if len(set(sample)) != len(sample):
        return f"duplicate key in sample {sorted(sample)[:8]}"
    for key in sample:
        if key not in live:
            return f"dead key {key!r} in sample"
    return None


def fraction(value) -> Fraction:
    """An int or ``Rat`` as an exact ``Fraction``."""
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(value.num, value.den)


def size_moments(weights, alpha, beta) -> tuple[float, float]:
    """Exact ``(mu, sigma^2)`` of the PSS sample size over ``weights`` for
    parameters ``(alpha, beta)``: with ``W = alpha * sum(w) + beta`` each
    item is in the sample with ``p = min(w / W, 1)``."""
    weights = list(weights)
    total = fraction(alpha) * sum(weights) + fraction(beta)
    below = [w for w in weights if w < total]
    certain = len(weights) - len(below)
    s1 = sum(below)
    s2 = sum(w * w for w in below)
    mu = Fraction(s1) / total + certain
    var = Fraction(s1) / total - Fraction(s2) / (total * total)
    return float(mu), float(var)


def check_batch_size(sizes: list[int], mu: float, var: float) -> str | None:
    """``None`` if the mean of ``sizes`` is within 6 sigma of ``mu``."""
    count = len(sizes)
    mean = sum(sizes) / count
    sigma = math.sqrt(var / count)
    if abs(mean - mu) > 6 * sigma + 1e-9:
        return (f"batch mean size {mean:.3f} over {count} draws is "
                f"{abs(mean - mu) / max(sigma, 1e-12):.1f} sigma from "
                f"expected {mu:.3f}")
    return None


# -- serve -------------------------------------------------------------------

#: One served request: (conn, verb, key, weight, t_send_ns, t_recv_ns,
#: reply lines, timed).  ``verb`` is put, del, get, query or queryk.
CONN, VERB, KEY, WEIGHT, T_SEND, T_RECV, LINES, TIMED = range(8)


def _liveness(records):
    """Per key: (t_recv list, events (t_send, t_recv, live_after))."""
    events: dict = {}
    for rec in records:
        if rec[VERB] in ("put", "del") and not rec[LINES][0].startswith("ERR"):
            events.setdefault(rec[KEY], []).append(
                (rec[T_SEND], rec[T_RECV], rec[VERB] == "put")
            )
    index = {}
    for key, evs in events.items():
        evs.sort(key=lambda e: e[1])
        index[key] = ([e[1] for e in evs], evs)
    return index


def _possibly_live(key, start, stop, initial, index) -> bool:
    """Was ``key`` live at some instant of ``[start, stop]``?  A write takes
    effect somewhere between its send and its reply."""
    entry = index.get(key)
    if entry is None:
        return key in initial
    recvs, evs = entry
    i = bisect.bisect_right(recvs, start)
    state = evs[i - 1][2] if i else key in initial
    if state:
        return True
    for t_send, t_recv, live_after in evs[i:]:
        if t_send > stop:
            break
        if live_after:
            return True
    return False


def check_served(records, initial: dict, record) -> None:
    """Validate every served request; failures go to ``record.fail``.

    ``initial`` maps each key of the restored snapshot to its weight.
    Requests of one connection are in send order; connections own
    disjoint key slices, so a ``get`` must return its connection's last
    write to that key.
    """
    index = _liveness(records)
    expected: dict = {}
    for rec in records:
        lines = rec[LINES]
        verb = rec[VERB]
        if lines[0].startswith("ERR"):
            record.fail(f"{verb} {rec[KEY]!r}: {lines[0]}")
            continue
        if verb == "put":
            expected[rec[KEY]] = rec[WEIGHT]
        elif verb == "del":
            expected[rec[KEY]] = None
        elif verb == "get":
            want = expected.get(rec[KEY], initial.get(rec[KEY]))
            if lines[0] != str(want):
                record.fail(f"get {rec[KEY]}: {lines[0]!r}, expected {want}")
        else:
            for line in lines:
                keys = [] if line == "(empty)" else [int(t) for t in line.split()]
                bad = None
                if len(set(keys)) != len(keys):
                    bad = f"duplicate key in served sample {line!r}"
                else:
                    for key in keys:
                        if not _possibly_live(key, rec[T_SEND], rec[T_RECV],
                                              initial, index):
                            bad = f"served sample holds dead key {key}"
                            break
                if bad:
                    record.fail(bad)
                    break
