"""Gated geometric skip draws with per-probability cached plans.

The Algorithm 5 skip chains draw ``B-Geo(p, n+1)`` repeatedly with the same
``p`` (a bucket's dominating probability) and varying ``n``.  The exact
generator re-derives the block size ``m = 2^k`` and re-enters the lazy
power approximator on every draw; a :class:`GeomPlan` hoists everything
that depends only on ``p`` — clamp flags, the block split, ``log(1-p)``,
the float of ``(1-p)^m`` — and the draw loops inline the float gate so one
draw is a few float operations plus word-batched gate words.  Output laws
are exactly those of :func:`repro.randvar.geometric.bounded_geometric` and
:func:`repro.randvar.geometric.truncated_geometric`.
"""

from __future__ import annotations

import math

from ..randvar.approx import pow_approx_fn
from ..randvar.bitsource import BitSource
from ..wordram.bits import floor_log2_rational
from . import gate
from .gate import _resolve_lazy, gated_bernoulli

__all__ = ["GeomPlan", "fast_bounded_geometric", "fast_truncated_geometric"]


class GeomPlan:
    """Cached constants for gated geometric draws with success prob ``p``.

    ``num``/``den`` need not be reduced; ``p`` is clamped to ``min(p, 1)``
    exactly as the exact generators clamp.
    """

    __slots__ = (
        "num",
        "den",
        "one",
        "seq",
        "q",
        "s_num",
        "s_den",
        "k",
        "m",
        "ls",
        "pow_m",
        "rel_m",
        "miss_cache",
        "kernel_cache",
    )

    def __init__(self, num: int, den: int) -> None:
        if num <= 0 or den <= 0:
            raise ValueError(f"GeomPlan needs positive num/den, got {num}/{den}")
        self.num = num
        self.den = den
        self.one = num >= den
        self.miss_cache: dict[int, tuple[float, float]] = {}
        # Power-gate bound tables (see fastpath.kernels.pow_bounds),
        # keyed by (gate width, n_i).
        self.kernel_cache: dict = {}
        if self.one:
            self.seq = False
            return
        self.q = num / den
        self.s_num = den - num
        self.s_den = den
        self.ls = math.log1p(-self.q)  # log(1-p), used by every power gate
        self.seq = 4 * num >= den
        if self.seq:
            return
        # Block decomposition: m = 2^k with 1/2 < p*m <= 1 (Fact 3).
        self.k = floor_log2_rational(den, num)
        self.m = 1 << self.k
        # Float of (1-p)^m and its slack factor (see gate.py's accounting):
        # exp keeps the relative error near machine epsilon regardless of m.
        a = self.m * self.ls
        self.pow_m = math.exp(a)
        self.rel_m = 1e-11 - a * 1e-15  # a <= 0


def fast_bounded_geometric(plan: GeomPlan, n: int, source: BitSource) -> int:
    """Exact ``B-Geo(p, n) = min(Geo(p), n)`` using the plan's constants."""
    if plan.one:
        return 1
    if plan.seq:
        # p >= 1/4: expected <= 4 gated flips.
        num, den, q = plan.num, plan.den, plan.q
        for i in range(1, n):
            if gated_bernoulli(num, den, source, q):
                return i
        return n
    m = plan.m
    scale = gate._SCALE
    g = gate.GATE_BITS
    # Fully-failed blocks: flip Ber((1-p)^m) with the cached float gate.
    blocks = 0
    while True:
        if blocks * m >= n:
            return n  # even the smallest completion would exceed the bound
        u = source.bits(g)
        t = plan.pow_m * scale
        slack = t * plan.rel_m + 8.0
        if u > t + slack:
            break  # U >= (1-p)^m: this block contains the first success
        if u >= t - slack and (
            _resolve_lazy(
                u, g, pow_approx_fn(plan.s_num, plan.s_den, m), source
            )
            == 0
        ):
            break
        blocks += 1
    # Offset within the block: pmf ~ (1-p)^r on {0..m-1} via rejection.
    ls = plan.ls
    while True:
        r = source.bits(plan.k)
        if r == 0:
            break
        u = source.bits(g)
        a = r * ls
        t = math.exp(a) * scale
        slack = t * (1e-11 - a * 1e-15) + 8.0
        if u < t - slack:
            break  # U < (1-p)^r: offset accepted
        if u <= t + slack and (
            _resolve_lazy(
                u, g, pow_approx_fn(plan.s_num, plan.s_den, r), source
            )
            == 1
        ):
            break
    return min(blocks * m + r + 1, n)


def fast_skip_or_miss(plan: GeomPlan, n: int, source: BitSource) -> int:
    """``k = B-Geo(p, n+1)`` folded to ``0 if k > n else k`` — same joint law.

    ``k > n`` iff the first ``n`` trials all fail (probability ``(1-p)^n``),
    and conditioned on ``k <= n`` the value is ``T-Geo(p, n)``.  Gating the
    miss event directly makes the overwhelmingly common "no dominated
    success" outcome of Algorithm 2 cost one gate word instead of a full
    block-decomposition draw.
    """
    if plan.one:
        return 1
    cached = plan.miss_cache.get(n)
    if cached is None:
        a = n * plan.ls
        cached = (math.exp(a), 1e-11 - a * 1e-15)
        plan.miss_cache[n] = cached
    x, rel = cached
    g = gate.GATE_BITS
    u = source.bits(g)
    t = x * gate._SCALE
    slack = t * rel + 8.0
    if u < t - slack:
        return 0
    if u <= t + slack and (
        _resolve_lazy(u, g, pow_approx_fn(plan.s_num, plan.s_den, n), source)
        == 1
    ):
        return 0
    return fast_truncated_geometric(plan, n, source)


def fast_truncated_geometric(plan: GeomPlan, n: int, source: BitSource) -> int:
    """Exact ``T-Geo(p, n)`` (Theorem 1.3 cases) using the plan's constants."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if plan.one or n == 1:
        return 1
    num, den = plan.num, plan.den
    if n == 2:
        # T-Geo(p, 2) = 1 + Ber((1-p)/(2-p)).
        return 1 + gated_bernoulli(den - num, 2 * den - num, source)
    if n * num >= den:
        # Case 2.1: rejection from B-Geo(p, n+1).
        while True:
            i = fast_bounded_geometric(plan, n + 1, source)
            if i <= n:
                return i
    # Case 2.2 (corrected): uniform index, accept with Ber((1-p)^(i-1)).
    s_num, s_den, ls = plan.s_num, plan.s_den, plan.ls
    scale = gate._SCALE
    g = gate.GATE_BITS
    while True:
        i = 1 + source.random_below(n)
        if i == 1:
            return i
        u = source.bits(g)
        a = (i - 1) * ls
        t = math.exp(a) * scale
        slack = t * (1e-11 - a * 1e-15) + 8.0
        if u < t - slack:
            return i
        if u <= t + slack and (
            _resolve_lazy(u, g, pow_approx_fn(s_num, s_den, i - 1), source)
            == 1
        ):
            return i
