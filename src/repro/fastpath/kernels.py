"""Batch kernels for the columnar executors' hot loops.

The inner loops of :mod:`repro.fastpath.columnar` that touch every batch
element — the per-draw miss-gate words of Algorithm 2, the alias-row
batch draws, the dense ``p' = 1`` gate matrices and the grouped
Algorithm 5 case-2 chains — live here, once, as plain-Python loops over
block word reads.

Each kernel defines the *phase layout* of its batch: which logical words
are read in which order, and where the exact scalar resolutions
(:func:`~repro.fastpath.gate.bernoulli_given_u`,
:func:`~repro.fastpath.gate._resolve_lazy`,
:func:`~repro.fastpath.geom.fast_truncated_geometric`) interleave.
Relative to a per-draw walk the layouts are *round-major*: a round reads
one word per still-active draw in one grouped fetch (:func:`read_words`
— ``bits(a + b)`` is exactly ``bits(a)`` then ``bits(b)``, so block
fetches are stream-equivalent to repeated fetches), then classifies and
resolves in draw order.  Every bit still feeds exactly one primitive of
exactly one draw, so per-draw output laws and cross-draw independence
are untouched (the enumeration suites in
``tests/fastpath/test_columnar_law.py`` pin this).

Every kernel call counts its batch elements into
``repro_kernel_batch_elems_total`` on the process-default metrics
registry (the ``stats`` verb's ``kernel_batch_elems`` reads deltas of
it).  The executors call the kernels as attributes of this module, so a
tracer that rebinds a module attribute sees every call.
"""

from __future__ import annotations

import math
import sys

from ..obs.metrics import OBS as _OBS, REGISTRY as _REGISTRY
from ..randvar.approx import pow_approx_fn
from . import gate
from .gate import _resolve_lazy, bernoulli_given_u
from .geom import fast_truncated_geometric

__all__ = [
    "alias_draws",
    "batch_elems",
    "chain_case2",
    "gate_rows",
    "miss_gate_hits",
    "pow_bounds",
    "read_words",
]

#: The kernel implementation's name, as reported to benchmark records.
NAME = "python"

_ELEMS = _REGISTRY.counter(
    "repro_kernel_batch_elems_total",
    "Batch elements processed by the columnar kernels (draw slots per "
    "kernel call)",
)


def batch_elems() -> int:
    """Total batch elements processed by the kernels in this process."""
    return _ELEMS.value


# The benchmark's tracer (perfbench/inproc.py) enumerates kernel
# implementations through these; there is exactly one, this module.


def kernel_name() -> str:
    return NAME


def names() -> list[str]:
    return [NAME]


def active():
    return sys.modules[__name__]


def get(name: str):
    if name != NAME:
        raise KeyError(name)
    return sys.modules[__name__]


# -- shared primitives -------------------------------------------------------


def read_words(bits, n: int, width: int) -> list[int]:
    """The next ``n`` stream words of ``width`` bits each, as Python ints.

    Fetches are grouped so each ``bits`` call stays within one 64-bit
    buffered slice (``bits(k)`` is cheapest for ``k <= 64``); the result
    is identical to ``[bits(width) for _ in range(n)]`` because ``bits``
    is a plain MSB-first stream reader.  Every kernel reads through this,
    so the stream schedule is defined once, here.
    """
    if n <= 0:
        return []
    per = 64 // width if width < 64 else 1
    if per <= 1 or n == 1:
        return [bits(width) for _ in range(n)]
    out: list[int] = []
    append = out.append
    mask = (1 << width) - 1
    full, rest = divmod(n, per)
    span = per * width
    shifts = range(span - width, -1, -width)
    for _ in range(full):
        w = bits(span)
        for s in shifts:
            append((w >> s) & mask)
    if rest:
        w = bits(rest * width)
        for s in range(rest * width - width, -1, -width):
            append((w >> s) & mask)
    return out


def pow_bounds(bplan, n_i: int, g: int, scale: float) -> tuple[list, list]:
    """Per-exponent ``(lo, hi)`` decision bounds for ``Ber((1-p)^e)``,
    ``e`` in ``[1, n_i - 1]``, indexed by ``e`` (index 0 carries the
    always-accept sentinel ``(+inf, -inf)`` for the exponent-0 case).

    The same certified formula as the inline gates (grep ``1e-11 - a *
    1e-15``), computed once per ``(gate width, n_i)`` with scalar
    ``math.exp`` and cached on ``bplan.kernel_cache``.
    """
    cache = bplan.kernel_cache
    key = (g, n_i)
    got = cache.get(key)
    if got is None:
        ls = bplan.ls
        los = [float("inf")]
        his = [float("-inf")]
        for e in range(1, n_i):
            a = e * ls
            t = math.exp(a) * scale
            slack = t * (1e-11 - a * 1e-15) + 8.0
            los.append(t - slack)
            his.append(t + slack)
        got = (los, his)
        cache[key] = got
    return got


# -- K1: Algorithm 2 miss gates ----------------------------------------------


def miss_gate_hits(source, count: int, lo: float) -> list[tuple[int, int]]:
    """One miss-gate word per draw, read as one grouped phase; returns the
    ``(draw, word)`` pairs that did not decide "miss" outright (``u >=
    lo``), ascending, for the caller's exact per-draw resolution."""
    if _OBS.enabled:
        _ELEMS.value += count
    words = read_words(source.bits, count, gate.GATE_BITS)
    return [(j, u) for j, u in enumerate(words) if u >= lo]


# -- K2: alias-row batch draws -----------------------------------------------


def alias_draws(row, source, draw_indices, pairs) -> None:
    """One alias-row product-law draw per index in ``draw_indices``,
    appended to ``pairs`` as ``(draw, entry)``.

    Round layout: every still-pending draw's fused slot+gate word is read
    in one grouped fetch per rejection round (slot bits high, exactly the
    fused fetch the inline sampler used); accepted draws classify against
    the row's cached gate bounds and emit in draw order, with ambiguous
    slots resolved exactly in that same order.
    """
    if _OBS.enabled:
        _ELEMS.value += len(draw_indices)
    values = row.values
    size = len(values)
    if size == 1:
        picked = values[0]
        if picked:
            for j in draw_indices:
                for entry in picked:
                    pairs.append((j, entry))
        return
    g = gate.GATE_BITS
    los, his = row.gate_bounds(g, gate._SCALE)
    thresholds = row.thresholds
    aliases = row.aliases
    both = (size - 1).bit_length() + g
    g_mask = (1 << g) - 1
    bits = source.bits
    append = pairs.append
    pending = list(draw_indices)
    while pending:
        words = read_words(bits, len(pending), both)
        nxt = []
        for i, j in enumerate(pending):
            w = words[i]
            slot = w >> g
            if slot >= size:
                nxt.append(j)
                continue
            u = w & g_mask
            # Certain slots carry (+inf, -inf) bounds, so u < los[slot]
            # accepts them without consulting the (absent) threshold.
            if u < los[slot]:
                picked = values[slot]
            elif u > his[slot]:
                picked = values[aliases[slot]]
            else:
                thr = thresholds[slot]
                if bernoulli_given_u(u, thr.num, thr.den, source):
                    picked = values[slot]
                else:
                    picked = values[aliases[slot]]
            for entry in picked:
                append((j, entry))
        pending = nxt


# -- K3a: p' = 1 chains (dense accept-gate matrix) ---------------------------


def gate_rows(source, nrows, los, his, nums, den) -> list[list[int]]:
    """One gate word per (row, uncertain entry), row-major in one grouped
    fetch; returns each row's accepted entry indices ascending.  Ambiguous
    words resolve exactly in (row, entry) order after the read phase."""
    m = len(los)
    if _OBS.enabled:
        _ELEMS.value += nrows * m
    words = read_words(source.bits, nrows * m, gate.GATE_BITS)
    out = []
    p = 0
    for _ in range(nrows):
        acc = []
        for idx in range(m):
            u = words[p]
            p += 1
            if u < los[idx] or (
                u <= his[idx]
                and bernoulli_given_u(u, nums[idx], den, source)
            ):
                acc.append(idx)
        out.append(acc)
    return out


# -- K3b: p' < 1/4 case-2 chains (prologue + advance rounds) -----------------


def chain_case2(
    bplan, entries, weights, shift, n_i, source, draws, pairs, stats
) -> None:
    """The grouped Algorithm 5 chain for a ``p' < 1/4`` bucket whose
    ``p'·n_i < 1`` (the production-dominant shape: every advance is the
    likely-miss one-word gate).

    Phase P reads each pending draw's fused index+gate prologue word per
    rejection round and classifies against the cached power-gate bounds;
    phase A then advances all surviving chains round by round — one
    weight word per live draw, then one miss-gate word per draw with
    positions remaining, exact tails and truncated-geometric relocations
    resolved in draw order.
    """
    if _OBS.enabled:
        _ELEMS.value += len(draws)
    live = _case2_entry(bplan, n_i, source, draws)
    if stats is not None:
        stats["tgeo_draws"] = stats.get("tgeo_draws", 0) + len(live)
    _advance_rounds(
        bplan, entries, weights, shift, n_i, source, live, pairs, stats
    )


def _case2_entry(bplan, n_i, source, draws) -> list[tuple]:
    """Theorem 1.3 case 2.2 entry for every draw: uniform index accepted
    with ``Ber((1-p')^(k-1))``, fused fetch, round layout.  Returns the
    surviving ``(draw, k)`` chains."""
    if n_i == 1:
        return [(j, 1) for j in draws]
    g = gate.GATE_BITS
    plos, phis = pow_bounds(bplan, n_i, g, gate._SCALE)
    both = (n_i - 1).bit_length() + g
    g_mask = (1 << g) - 1
    bits = source.bits
    s_num = bplan.s_num
    s_den = bplan.s_den
    live = []
    pending = draws
    while pending:
        words = read_words(bits, len(pending), both)
        nxt = []
        for i, j in enumerate(pending):
            w = words[i]
            v = w >> g
            if v >= n_i:
                nxt.append(j)
                continue
            if v:
                u = w & g_mask
                if u >= plos[v]:
                    if u > phis[v] or _resolve_lazy(
                        u, g, pow_approx_fn(s_num, s_den, v), source
                    ) != 1:
                        continue  # not promising: the draw emits nothing
            live.append((j, v + 1))
        pending = nxt
    return live


def _advance_rounds(
    bplan, entries, weights, shift, n_i, source, live, pairs, stats
) -> None:
    g = gate.GATE_BITS
    plos, phis = pow_bounds(bplan, n_i, g, gate._SCALE)
    bits = source.bits
    append = pairs.append
    s_num = bplan.s_num
    s_den = bplan.s_den
    while live:
        wwords = read_words(bits, len(live), shift)
        cont = []
        for i, jk in enumerate(live):
            k = jk[1]
            if wwords[i] < weights[k - 1]:
                append((jk[0], entries[k - 1]))
            if k < n_i:
                cont.append(jk)
        if stats is not None:
            stats["bgeo_draws"] = stats.get("bgeo_draws", 0) + len(live)
        if not cont:
            return
        gwords = read_words(bits, len(cont), g)
        live = []
        for i, (j, k) in enumerate(cont):
            rem = n_i - k
            u = gwords[i]
            if u < plos[rem]:
                continue  # past the end: the chain leaves the bucket
            if u <= phis[rem] and _resolve_lazy(
                u, g, pow_approx_fn(s_num, s_den, rem), source
            ) == 1:
                continue
            live.append(
                (j, k + fast_truncated_geometric(bplan, rem, source))
            )
