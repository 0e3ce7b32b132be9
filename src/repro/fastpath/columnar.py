"""Batched columnar query executors: one structure pass per batch.

``query_many`` traffic is batch-shaped (the serving layer fires many draws
at one ``(alpha, beta)``), but a per-draw walk re-pays the whole traversal
overhead — plan lookups, snapshot fetches, function dispatch — ``count``
times.  The executors here run *site-major* instead: the version/W-stable
skeleton of the query (cut indices, certain entries, significant children,
lookup rows, rejection constants, per-entry gate thresholds) is fetched
once per batch from the shared :class:`~repro.core.plan.QueryPlan`, and
each site loops over the draws with everything hoisted into locals,
drawing its geometric skips and Bernoulli gates straight over the flat
columnar bucket arrays.

Exactness: for each draw ``j``, the *decisions* taken are those of the
single-draw engine (:mod:`repro.fastpath.engine`) — the same exact-law
primitives with the same parameters — so each draw's output law is
exactly the independent product law, and draws are mutually independent
(every bit of the source feeds exactly one primitive of exactly one
draw).  The bit-stream *layout* differs from ``count`` single-draw calls:
draws interleave site by site, the hot inner loops run as the batch
kernels of :mod:`repro.fastpath.kernels` (round-major grouped word
reads), and skip-chain advances gate the "past the end" event directly
(:func:`~repro.fastpath.geom.fast_skip_or_miss`'s folding, whose joint
law equals the bounded-geometric advance it replaces).  The exhaustive
bit-tree enumerations in ``tests/fastpath/test_columnar_law.py`` pin the
law claims on both engines.

Data flow between hierarchy levels is columnar too: instead of allocating
``count`` intermediate lists per instance, each level returns a flat list
of ``(draw_index, entry)`` pairs that the parent level's Algorithm 5
chains consume pair by pair.
"""

from __future__ import annotations

import math

from ..randvar.approx import pow_approx_fn
from ..randvar.bitsource import BitSource
from . import gate, kernels
from .gate import (
    _resolve_lazy,
    bernoulli_given_u,
)
from .geom import fast_bounded_geometric, fast_truncated_geometric

__all__ = ["batched_query_pss", "batched_bucket_walk"]


def _bump(stats: dict | None, key: str, amount: int = 1) -> None:
    if stats is not None:
        stats[key] = stats.get(key, 0) + amount


def batched_query_pss(
    root,
    plan,
    source: BitSource,
    count: int,
    stats: dict | None = None,
) -> list[list]:
    """``count`` independent HALT draws in one hierarchy pass.

    Returns one *payload* list per draw (same per-draw order as the
    single-draw engine's output).  ``plan.zero`` must be handled by the
    caller (the zero-total query has no randomness to batch).
    """
    outs: list[list] = [[] for _ in range(count)]
    for j, entry in _batched_level(root, plan, source, count, stats):
        outs[j].append(entry.payload)
    return outs


def _batched_level(inst, plan, source, count, stats) -> list:
    """Algorithm 1 at levels 1-2, site-major; returns (draw, entry) pairs."""
    bg = inst.bg
    i_hi = plan.level_cuts(inst)[0]
    pairs: list = []
    _batched_insignificant(inst, i_hi, plan, source, count, pairs, stats)
    _, certain, children = plan.level_snapshot(inst)
    if certain:
        for j in range(count):
            for entry in certain:
                pairs.append((j, entry))
    level1 = inst.level == 1
    for child in children:
        if stats is not None:
            _bump(stats, f"significant_groups_l{inst.level}", count)
        # A small child instance's whole query outcome is a tabulated
        # product law (every final-level instance qualifies, by the
        # m = O(log log n0) bound): one alias draw per query draw stands
        # in for its full structural walk.
        row = plan.instance_alias(child)
        if row is not None:
            child_pairs = []
            kernels.alias_draws(row, source, range(count), child_pairs)
        elif level1:
            child_pairs = _batched_level(child, plan, source, count, stats)
        else:
            child_pairs = _batched_final(child, plan, source, count, stats)
        # Group the sampled synthetic entries by the bucket they represent:
        # each bucket's Algorithm 5 chain constants are hoisted once and
        # every selecting draw's chain runs in one tight loop.  (A draw
        # selects a bucket at most once — synthetic entries are 1:1 with
        # buckets — and chains across draws/buckets are independent, so
        # regrouping cannot change any law.)
        groups: dict = {}
        for j, sampled in child_pairs:
            bucket = sampled.payload
            draws = groups.get(bucket)
            if draws is None:
                groups[bucket] = [j]
            else:
                draws.append(j)
        for bucket, draws in groups.items():
            _extract_bucket(bg, bucket, plan, source, draws, pairs, stats)
    return pairs


def _batched_final(inst, plan, source, count, stats) -> list:
    """The Section 4.4 final-level query, site-major."""
    bg = inst.bg
    i1 = plan.final_cuts(inst)[0]
    pairs: list = []
    _batched_insignificant(inst, i1, plan, source, count, pairs, stats)
    _, certain, row, accept = plan.final_snapshot(inst)
    if certain:
        for j in range(count):
            for entry in certain:
                pairs.append((j, entry))
    if row is None:
        return pairs
    if stats is not None:
        _bump(stats, "lookup_queries", count)
    #: selected[jj] = draws that selected (and rejection-accepted) slot jj;
    #: each slot's bucket then runs its chains grouped, constants hoisted.
    selected: list[list[int]] = [[] for _ in range(len(accept))]
    # Inline the alias-row sampler when the row exposes its columns
    # (AliasRow does); CellArrayRow falls back to row.sample.
    tf = getattr(row, "_tf", None)
    sample = row.sample
    g = gate.GATE_BITS
    scale = gate._SCALE
    bits = source.bits
    if tf is not None:
        values = row.values
        thresholds = row.thresholds
        aliases = row.aliases
        los, his = row.gate_bounds(g, scale)
        size = len(values)
        kbits = (size - 1).bit_length()
        both = kbits + g
        g_mask = (1 << g) - 1
    for j in range(count):
        if tf is None:
            mask = sample(source)
        else:
            # AliasRow.sample, inlined: exact uniform slot by rejection,
            # then the gated threshold Bernoulli — slot and gate word
            # fetched as one slice (slot bits high, so the stream layout
            # matches separate fetches; a rejected slot discards its gate
            # word, which is unused and biases nothing).
            if size == 1:
                slot = 0
                u = None
            else:
                while True:
                    w = bits(both)
                    slot = w >> g
                    if slot < size:
                        break
                u = w & g_mask
            if tf[slot] is None:
                mask = values[slot]
            else:
                if u is None:
                    u = bits(g)
                if u < los[slot]:
                    mask = values[slot]
                elif u > his[slot]:
                    mask = values[aliases[slot]]
                else:
                    thr = thresholds[slot]
                    if bernoulli_given_u(u, thr.num, thr.den, source):
                        mask = values[slot]
                    else:
                        mask = values[aliases[slot]]
        if not mask:
            continue
        jj = 1
        while mask:
            if mask & 1:
                gate_args = accept[jj]
                if gate_args is None:
                    raise AssertionError(
                        f"lookup selected empty bucket {i1 + jj} "
                        f"(adapter drift)"
                    )
                r_num, r_den, q = gate_args[1], gate_args[2], gate_args[3]
                # gated_bernoulli(r_num, r_den, source, q), inlined (the
                # ratio never clamps below; r_num == r_den accepts with no
                # bits, exactly as the gate's early return does).
                if r_num >= r_den:
                    selected[jj].append(j)
                else:
                    u = bits(g)
                    t = q * scale
                    slack = t * gate.REL_DIV + 8.0
                    if u < t - slack or (
                        u <= t + slack
                        and bernoulli_given_u(u, r_num, r_den, source)
                    ):
                        selected[jj].append(j)
            mask >>= 1
            jj += 1
    for jj, draws in enumerate(selected):
        if draws:
            _extract_bucket(
                bg, accept[jj][0], plan, source, draws, pairs, stats
            )
    return pairs


def _batched_insignificant(
    inst, i_hi, plan, source, count, pairs, stats
) -> None:
    """Algorithm 2 over the whole batch: one gate word per draw decides the
    overwhelmingly common "no dominated success" miss (fast_skip_or_miss,
    inlined with its constants hoisted out of the draw loop and two draws'
    gate words fetched per 64-bit ``bits`` slice)."""
    bg = inst.bg
    if i_hi < 0 or bg.size == 0:
        return
    dom_plan = (
        plan.level_cuts(inst)[3] if inst.level < 3 else plan.final_cuts(inst)[2]
    )
    cap = bg.capacity
    if stats is not None:
        _bump(stats, "bgeo_draws", count)
    if dom_plan.one:
        table = plan.insig_table(inst)
        for j in range(count):
            _insig_scan(table, 1, source, j, pairs, stats)
        return
    cached = dom_plan.miss_cache.get(cap)
    if cached is None:
        a = cap * dom_plan.ls
        cached = (math.exp(a), 1e-11 - a * 1e-15)
        dom_plan.miss_cache[cap] = cached
    x, rel = cached
    if count > 1 and x ** count > 0.5:
        # Sparse site (expected hits per batch below ~0.7): thin across
        # the *batch* dimension — the very trick Algorithm 2 applies
        # across entries.  Per-draw hits are iid Ber(1 - (1-p)^cap), so
        # one gate word decides "no hit in any remaining draw" and a
        # truncated geometric locates the next hitting draw.  Same
        # per-draw law; the guard keeps the locate's rejection cost O(1).
        _batched_insig_sparse(inst, dom_plan, cap, plan, source, count,
                              pairs, stats)
        return
    if count > 1 and x < 0.85:
        # Dense enough that the scan cascade fires every few draws: worth
        # pre-tabulating.
        row = plan.insig_alias(inst)
        if row is not None:
            # Small dense site: Algorithm 2's output here is the product
            # law over the few insignificant entries, pre-tabulated as an
            # exact alias row whose values are the sampled entry tuples —
            # one alias draw per query draw replaces the whole gate/scan
            # cascade, with exactly the same output law.
            kernels.alias_draws(row, source, range(count), pairs)
            return
    t = x * gate._SCALE
    slack = t * rel + 8.0
    lo = t - slack
    # Kernel phase split: every draw's miss-gate word is read first (one
    # grouped fetch per 64-bit slice), then the rare non-miss draws resolve
    # in draw order with fresh bits — every bit still feeds exactly one
    # primitive of one draw, so laws and independence are untouched.
    for j, u in kernels.miss_gate_hits(source, count, lo):
        _insig_resolve(inst, u, dom_plan, cap, plan, source, j, pairs, stats)


def _batched_insig_sparse(
    inst, dom_plan, cap, plan, source, count, pairs, stats
) -> None:
    """Algorithm 2 for a sparse site, thinned across the batch.

    The draws that do *not* miss form a Bernoulli process over the draw
    indices with rate ``q = 1 - (1-p)^cap``; its gaps are sampled exactly —
    "no hit among the remaining ``rem`` draws" is one ``Ber((1-p)^(rem *
    cap))`` gate word, and the first hitting draw a ``T-Geo(q, rem)``
    (uniform index accepted with ``Ber((1-p)^(cap*(i-1)))``).  Each hit
    then continues with the conditioned within-draw law, ``k ~ T-Geo(p,
    cap)``, exactly as the per-draw gate path does."""
    g = gate.GATE_BITS
    scale = gate._SCALE
    bits = source.bits
    ls = dom_plan.ls
    s_num = dom_plan.s_num
    s_den = dom_plan.s_den
    base = 0
    rem = count
    while rem > 0:
        e = rem * cap
        a = e * ls
        t = math.exp(a) * scale
        slack = t * (1e-11 - a * 1e-15) + 8.0
        u = bits(g)
        if u < t - slack:
            return  # no hit in any remaining draw
        if u <= t + slack and _resolve_lazy(
            u, g, pow_approx_fn(s_num, s_den, e), source
        ) == 1:
            return
        # First hitting draw offset i in [1, rem] ~ T-Geo(q, rem).
        if rem == 1:
            i = 1
        else:
            kb = (rem - 1).bit_length()
            while True:
                while True:
                    v = bits(kb)
                    if v < rem:
                        break
                i = 1 + v
                if i == 1:
                    break
                a = cap * (i - 1) * ls
                t = math.exp(a) * scale
                slack = t * (1e-11 - a * 1e-15) + 8.0
                u = bits(g)
                if u < t - slack or (
                    u <= t + slack and _resolve_lazy(
                        u, g, pow_approx_fn(s_num, s_den, cap * (i - 1)),
                        source,
                    ) == 1
                ):
                    break
        k = fast_truncated_geometric(dom_plan, cap, source)
        _insig_scan(plan.insig_table(inst), k, source, base + i - 1, pairs,
                    stats)
        base += i
        rem -= i


def _insig_resolve(
    inst, u, dom_plan, cap, plan, source, j, pairs, stats
) -> None:
    """Finish one draw's Algorithm 2 after its miss gate did not decide
    "miss" outright: resolve the (narrow) uncertainty band exactly, then
    locate the first dominated success and scan."""
    x, rel = dom_plan.miss_cache[cap]
    t = x * gate._SCALE
    if u <= t + (t * rel + 8.0) and _resolve_lazy(
        u, gate.GATE_BITS,
        pow_approx_fn(dom_plan.s_num, dom_plan.s_den, cap), source
    ) == 1:
        return  # the exact tail still says miss
    num = dom_plan.num
    den = dom_plan.den
    if cap > 2 and cap * num < den:
        # T-Geo(p, cap), case 2.2 of fast_truncated_geometric, inlined:
        # uniform index accepted with Ber((1-p)^(k-1)).
        g = gate.GATE_BITS
        scale = gate._SCALE
        bits = source.bits
        ls = dom_plan.ls
        kb = (cap - 1).bit_length()
        while True:
            while True:
                v = bits(kb)
                if v < cap:
                    break
            k = 1 + v
            if k == 1:
                break
            a = (k - 1) * ls
            t = math.exp(a) * scale
            slack = t * (1e-11 - a * 1e-15) + 8.0
            u2 = bits(g)
            if u2 < t - slack or (
                u2 <= t + slack and _resolve_lazy(
                    u2, g,
                    pow_approx_fn(dom_plan.s_num, dom_plan.s_den, k - 1),
                    source,
                ) == 1
            ):
                break
    else:
        k = fast_truncated_geometric(dom_plan, cap, source)
    _insig_scan(plan.insig_table(inst), k, source, j, pairs, stats)


def _insig_scan(table, k, source, j, pairs, stats) -> None:
    """The (rare) Algorithm 2 hit branch for one draw, over the plan's
    precomputed scan table: the k-th dominated coin's entry takes its
    ratio gate, every later insignificant entry its direct ``Ber(w/W)``
    gate — one stored threshold compare per entry, falling back to the
    exact tail only inside the float band."""
    if stats is not None:
        _bump(stats, "insignificant_scans")
    entries, alo, ahi, anum, aden, rlo, rhi, rnum, rden = table
    pos = k - 1
    n = len(entries)
    if pos >= n:
        return  # the k-th coin landed beyond the live insignificant entries
    g = gate.GATE_BITS
    bits = source.bits
    u = bits(g)
    if u < rlo[pos] or (
        u <= rhi[pos] and bernoulli_given_u(u, rnum[pos], rden, source)
    ):
        pairs.append((j, entries[pos]))
    pos += 1
    while pos < n:
        u = bits(g)
        if u < alo[pos] or (
            u <= ahi[pos] and bernoulli_given_u(u, anum[pos], aden, source)
        ):
            pairs.append((j, entries[pos]))
        pos += 1


def _extract_bucket(bg, bucket, plan, source, draws, pairs, stats) -> None:
    """Algorithm 5 skip chains over one candidate bucket for every draw
    that selected it, constants hoisted once.

    Same per-draw output law as :func:`repro.fastpath.engine.
    fast_extract_chain`, with the batch-only restructurings:

    - ``p' = 1`` (clamped): every B-Geo step is deterministically 1, so the
      chain is a plain scan with one gated accept per entry (thresholds
      computed once per bucket per batch);
    - ``p' >= 1/4``: ``B-Geo(p', n+1)`` is a run of sequential gated
      flips, run inline and bounded by the *remaining* positions (flips
      past the end cannot affect the output);
    - ``p' < 1/4``: the entry draw follows the engine's case split, and
      each advance picks, by the remaining length ``rem``, between the
      inline block-decomposition B-Geo (likely to land: ``p'·rem >= 1``)
      and a one-word "past the end" gate (likely to miss:
      :func:`~repro.fastpath.geom.fast_skip_or_miss`'s folding, whose
      joint law equals the bounded-geometric advance either way).
    """
    entries = bucket.entries
    weights = bucket.weights
    n_i = len(entries)
    if n_i == 0:
        return
    if stats is not None:
        _bump(stats, "candidate_buckets", len(draws))
    if n_i <= plan.CHAIN_ALIAS_MAX:
        row = plan.chain_alias(bg, bucket)
        if row is not None:
            # Small bucket: the whole chain is one draw from the
            # pre-tabulated product law (see QueryPlan.chain_alias).
            kernels.alias_draws(row, source, draws, pairs)
            return
    bplan = plan.bucket_plan(bucket.index)
    wn, wd = plan.wn, plan.wd
    g = gate.GATE_BITS
    scale = gate._SCALE
    bits = source.bits
    if bplan.one:
        # p' clamped to 1: visit every entry, accept with min(w/W, 1)
        # (the B-Geo steps are all 1 and draw no bits).  Certain entries
        # (w >= W) accept bit-free; the uncertain ones form a dense
        # draws x entries gate matrix the kernel reads and classifies.
        if stats is not None:
            _bump(stats, "bgeo_draws", (n_i + 1) * len(draws))
        cert: list[int] = []
        unc_pos: list[int] = []
        los: list[float] = []
        his: list[float] = []
        nums: list[int] = []
        for pos, w in enumerate(weights):
            anum = w * wd
            if anum >= wn:
                cert.append(pos)
            else:
                t = (anum / wn) * scale
                slack = t * gate.REL_DIV + 8.0
                unc_pos.append(pos)
                los.append(t - slack)
                his.append(t + slack)
                nums.append(anum)
        if not unc_pos:
            for j in draws:
                for pos in cert:
                    pairs.append((j, entries[pos]))
            return
        rows = kernels.gate_rows(source, len(draws), los, his, nums, wn)
        if cert:
            for j, acc in zip(draws, rows):
                merged = cert + [unc_pos[idx] for idx in acc]
                merged.sort()
                for pos in merged:
                    pairs.append((j, entries[pos]))
        else:
            for j, acc in zip(draws, rows):
                for idx in acc:
                    pairs.append((j, entries[unc_pos[idx]]))
        return
    num = bplan.num
    den = bplan.den
    shift = bucket.index + 1
    n_plus_1 = n_i + 1
    case2 = num * n_i < den
    if case2 and n_i > 1:
        kb = (n_i - 1).bit_length()
    if bplan.seq:
        # p' >= 1/4: geometric steps are short runs of gated flips; flip
        # through the positions directly (bounded by what remains) and
        # take the dyadic accept at each success.
        t = bplan.q * scale
        slack = t * gate.REL_DIV + 8.0
        flo = t - slack
        fhi = t + slack
        for j in draws:
            if case2:
                # Case 2 entry: uniform index gated by Ber((1-p)^(k-1)).
                if n_i == 1:
                    k = 1
                else:
                    while True:
                        v = bits(kb)
                        if v < n_i:
                            break
                    k = 1 + v
                if k > 1 and _pow_gate(bplan, k - 1, source) == 0:
                    continue
                if stats is not None:
                    _bump(stats, "tgeo_draws")
                if bits(shift) < weights[k - 1]:
                    pairs.append((j, entries[k - 1]))
            else:
                if stats is not None:
                    _bump(stats, "bgeo_draws")
                k = 0
            while k < n_i:
                k += 1
                u = bits(g)
                if u < flo or (
                    u <= fhi and bernoulli_given_u(u, num, den, source)
                ):
                    if bits(shift) < weights[k - 1]:
                        pairs.append((j, entries[k - 1]))
        return
    if case2:
        # p' < 1/4 with p'·n_i < 1: fused case-2 entry, and every advance
        # is the likely-miss one-word gate (num·rem < den for all rem) —
        # the whole grouped chain is the kernel's round-major phases.
        kernels.chain_case2(
            bplan, entries, weights, shift, n_i, source, draws, pairs, stats
        )
        return
    # p' < 1/4 case 1 (p'·n_i >= 1): hoist the block-decomposition
    # constants (Fact 3 split) and the miss-gate cache for the advance
    # hybrid, and walk each draw's chain scalar.
    m = bplan.m
    k_blk = bplan.k
    ls = bplan.ls
    s_num = bplan.s_num
    s_den = bplan.s_den
    bt = bplan.pow_m * scale
    bslack = bt * bplan.rel_m + 8.0
    blo = bt - bslack
    bhi = bt + bslack
    miss_cache = bplan.miss_cache
    for j in draws:
        # Case 1: first potential position via inline block B-Geo.
        blocks = 0
        k = n_plus_1
        while blocks * m < n_plus_1:
            u = bits(g)
            if u > bhi:
                k = 0  # success inside this block: draw the offset
                break
            if u >= blo and _resolve_lazy(
                u, g, pow_approx_fn(s_num, s_den, m), source
            ) == 0:
                k = 0
                break
            blocks += 1
        if k == 0:
            while True:
                r = bits(k_blk)
                if r == 0:
                    break
                u = bits(g)
                a = r * ls
                t = math.exp(a) * scale
                slack = t * (1e-11 - a * 1e-15) + 8.0
                if u < t - slack or (
                    u <= t + slack and _resolve_lazy(
                        u, g, pow_approx_fn(s_num, s_den, r), source
                    ) == 1
                ):
                    break
            k = blocks * m + r + 1
            if k > n_i:
                k = n_plus_1
        if stats is not None:
            _bump(stats, "bgeo_draws")
        if k > n_i:
            continue
        while True:
            if bits(shift) < weights[k - 1]:
                pairs.append((j, entries[k - 1]))
            rem = n_i - k
            if stats is not None:
                _bump(stats, "bgeo_draws")
            if rem <= 0:
                break
            if num * rem < den:
                # Likely miss: one gate word decides "past the end".
                cached = miss_cache.get(rem)
                if cached is None:
                    a = rem * ls
                    cached = (math.exp(a), 1e-11 - a * 1e-15)
                    miss_cache[rem] = cached
                x, rel = cached
                u = bits(g)
                t = x * scale
                slack = t * rel + 8.0
                if u < t - slack:
                    break
                if u <= t + slack and _resolve_lazy(
                    u, g, pow_approx_fn(s_num, s_den, rem), source
                ) == 1:
                    break
                k += fast_truncated_geometric(bplan, rem, source)
            else:
                # Likely to land: inline block B-Geo, exit past the end.
                blocks = 0
                step = n_plus_1
                while blocks * m < n_plus_1:
                    u = bits(g)
                    if u > bhi:
                        step = 0
                        break
                    if u >= blo and _resolve_lazy(
                        u, g, pow_approx_fn(s_num, s_den, m), source
                    ) == 0:
                        step = 0
                        break
                    blocks += 1
                if step == 0:
                    while True:
                        r = bits(k_blk)
                        if r == 0:
                            break
                        u = bits(g)
                        a = r * ls
                        t = math.exp(a) * scale
                        slack = t * (1e-11 - a * 1e-15) + 8.0
                        if u < t - slack or (
                            u <= t + slack and _resolve_lazy(
                                u, g, pow_approx_fn(s_num, s_den, r), source
                            ) == 1
                        ):
                            break
                    step = blocks * m + r + 1
                k += step
                if k > n_i:
                    break


def _pow_gate(bplan, exponent: int, source) -> int:
    """``Ber((1-p')^exponent)`` with the plan's cached ``log(1-p')`` —
    :func:`repro.fastpath.gate.gated_bernoulli_pow`, inlined."""
    u = source.bits(gate.GATE_BITS)
    a = exponent * bplan.ls
    t = math.exp(a) * gate._SCALE
    slack = t * (1e-11 - a * 1e-15) + 8.0
    if u < t - slack:
        return 1
    if u > t + slack:
        return 0
    return _resolve_lazy(
        u, gate.GATE_BITS,
        pow_approx_fn(bplan.s_num, bplan.s_den, exponent), source,
    )


def batched_bucket_walk(
    bg,
    plan,
    source: BitSource,
    count: int,
) -> list[list]:
    """``count`` independent BucketDPSS draws, bucket-major.

    The single-level bucket walk (:meth:`repro.core.bucket_dpss.BucketDPSS.
    query`) visits every non-empty bucket per draw; here each bucket is
    visited once with its :class:`~repro.fastpath.geom.GeomPlan` and
    columnar arrays in locals, and the skip chain runs for all draws.
    Returns one *payload* list per draw.
    """
    outs: list[list] = [[] for _ in range(count)]
    buckets = bg.buckets
    for index in bg.bucket_list:
        bucket = buckets[index]
        payloads = bucket.payloads
        weights = bucket.weights
        n_i = len(payloads)
        if n_i == 0:
            continue
        bplan = plan.bucket_plan(index)
        wn, wd = plan.wn, plan.wd
        n_plus_1 = n_i + 1
        if bplan.one:
            # p' clamped to 1: every B-Geo step is 1 bit-free, so each
            # draw takes one min(w/W, 1) accept per entry — certain
            # accepts (w >= W) and certain rejects (w <= 0) draw no bits,
            # the rest form the kernel's dense gate matrix.
            scale = gate._SCALE
            cert: list[int] = []
            unc_pos: list[int] = []
            los: list[float] = []
            his: list[float] = []
            nums: list[int] = []
            for pos, w in enumerate(weights):
                anum = w * wd
                if anum >= wn:
                    cert.append(pos)
                elif anum > 0:
                    t = (anum / wn) * scale
                    slack = t * gate.REL_DIV + 8.0
                    unc_pos.append(pos)
                    los.append(t - slack)
                    his.append(t + slack)
                    nums.append(anum)
            if not unc_pos:
                for out in outs:
                    for pos in cert:
                        out.append(payloads[pos])
                continue
            rows = kernels.gate_rows(source, count, los, his, nums, wn)
            if cert:
                for out, acc in zip(outs, rows):
                    merged = cert + [unc_pos[idx] for idx in acc]
                    merged.sort()
                    for pos in merged:
                        out.append(payloads[pos])
            else:
                for out, acc in zip(outs, rows):
                    for idx in acc:
                        out.append(payloads[unc_pos[idx]])
        else:
            shift = index + 1
            bits = source.bits
            for out in outs:
                k = fast_bounded_geometric(bplan, n_plus_1, source)
                while k <= n_i:
                    if bits(shift) < weights[k - 1]:
                        out.append(payloads[k - 1])
                    k += fast_bounded_geometric(bplan, n_plus_1, source)
    return outs
