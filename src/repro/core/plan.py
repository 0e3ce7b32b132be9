"""The query plan: one cut/plan cache shared by every query executor.

``QueryPlan`` is the single per-``(structure constants, total weight W)``
planning object of the query core — the merger of the former ``ExactCuts``
(exact engine, ``repro.core.queries``) and ``FastCtx`` (float-gated engine,
``repro.fastpath.engine``).  Everything derivable from the query's
parameterized total alone is computed once and shared by all four
executors (exact and float-gated, single-draw and batched columnar):

- the Algorithm 1 / final-level group-cut indices per hierarchy level
  (exact ``Rat`` arithmetic, one derivation per ``(level, W)``), kept in
  one record that carries both the exact ``p_dom`` rational and the gated
  :class:`~repro.fastpath.geom.GeomPlan` for it — the two engines read the
  *same* cut array, which is what makes "one group-cut cache
  implementation" checkable;
- a ``GeomPlan`` per distinct skip-chain probability
  (``min(2^(i+1)/W, 1)`` per bucket index);
- per-instance *structural snapshots* — the flattened certain-entry list,
  the significant children, the final-level lookup row and its
  rejection-gate constants — kept valid by **dirty-set invalidation**:
  the plan registers itself as a watcher on every ``BGStr`` it caches
  state for, and each mutation pushes an invalidation for exactly the
  touched structure's entries (and, for the per-bucket alias rows, exactly
  the touched buckets).  A lookup therefore trusts the cache outright —
  no version compare per query — and an update-heavy mixed workload only
  pays rebuilds for the instances it actually dirtied: cache hits survive
  unrelated-bucket churn, where the old version-compare scheme's wholesale
  ``OBJECT_CACHE_LIMIT`` clears would have dropped every entry.  The
  caches key their ``BGStr``/``Bucket`` objects *weakly*, so entries for
  buckets and instances destroyed under churn evaporate with their keys
  instead of accumulating.

A plan is valid for fixed hierarchy constants; ``HALT`` keys its plan
cache by ``(W.num, W.den)`` and drops it on rebuild.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left

from ..fastpath import gate
from ..fastpath.geom import GeomPlan
from ..obs.metrics import OBS as _OBS, REGISTRY as _REGISTRY
from ..wordram.rational import Rat

# Plan-cache observability: bound once at import (an attribute increment
# behind one ``OBS.enabled`` branch on the query hot path — the E1
# overhead gate pins the cost under 3%).  Law-neutral: counters never
# touch a bit source.
_PLAN_HITS = _REGISTRY.counter(
    "repro_plan_cache_hits_total",
    "QueryPlan cache hits (a query reused a cached per-(structure, W) plan)",
)
_PLAN_MISSES = _REGISTRY.counter(
    "repro_plan_cache_misses_total",
    "QueryPlan cache misses (a new plan was derived)",
)
_PLAN_INVALIDATIONS = _REGISTRY.counter(
    "repro_plan_invalidations_total",
    "Dirty-set invalidation pushes into plans (mutations of watched "
    "structures)",
)


class QueryPlan:
    """Per-``(structure constants, total weight W)`` query plan.

    ``config`` is a :class:`~repro.core.hierarchy.HierarchyConfig` for HALT
    hierarchies, or ``None`` for flat structures (BucketDPSS) that only
    need bucket plans.
    """

    __slots__ = (
        "total",
        "wn",
        "wd",
        "zero",
        "config",
        "_bucket_plans",
        "_levels",
        "_snaps",
        "_scan_tables",
        "_insig_rows",
        "_chain_rows",
        "_inst_rows",
        "__weakref__",
    )

    def __init__(self, total: Rat, config=None) -> None:
        self.total = total
        self.wn = total.num
        self.wd = total.den
        self.zero = total.num == 0
        self.config = config
        self._bucket_plans: dict[int, GeomPlan] = {}
        #: level -> cut record (level 3 is the shared final-level slot; all
        #: final instances have the same ``p_dom = 2/m^2``).
        self._levels: dict[int, tuple] = {}
        # The object-keyed caches below are maintained by *dirty-set
        # invalidation*: storing an entry registers this plan as a watcher
        # on the owning ``BGStr`` (:meth:`_watch`), and every mutation of
        # that structure pushes :meth:`invalidate` for its entries — only
        # the touched structure/buckets, so unrelated churn never costs a
        # rebuild.  Keys are held weakly: entries for destroyed buckets
        # and instances evaporate instead of accumulating.
        #: ``BGStr -> structural snapshot`` (flattened certain entries,
        #: significant children / final-level row + accept constants).
        self._snaps: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: ``BGStr -> (version, gate width, scan table)`` — see
        #: :meth:`insig_table`; the gate width is re-checked on lookup
        #: (tests shrink it), mutations invalidate like the rest.
        self._scan_tables: weakref.WeakKeyDictionary = (
            weakref.WeakKeyDictionary()
        )
        #: ``BGStr -> (version, insignificant-site alias row | None)``.
        self._insig_rows: weakref.WeakKeyDictionary = (
            weakref.WeakKeyDictionary()
        )
        #: ``Bucket -> (version, Algorithm 5 chain alias row | None)``.
        self._chain_rows: weakref.WeakKeyDictionary = (
            weakref.WeakKeyDictionary()
        )
        #: ``BGStr -> (version, whole-instance alias row | None)``.
        self._inst_rows: weakref.WeakKeyDictionary = (
            weakref.WeakKeyDictionary()
        )

    def _watch(self, bg) -> None:
        """Register this plan for ``bg``'s mutation pushes (idempotent)."""
        watchers = bg._plan_watchers
        for ref in watchers:
            if ref() is self:
                return
        watchers.append(weakref.ref(self))

    def invalidate(self, bg, buckets) -> None:
        """Drop the cache entries a mutation of ``bg`` dirtied: all of the
        structure-level entries (certain-entry flattening, scan tables,
        site/instance alias rows all depend on its entry population) and
        the chain alias rows of exactly the ``buckets`` it touched.
        Called by :meth:`~repro.core.bgstr.BGStr._notify_plans`."""
        if _OBS.enabled:
            _PLAN_INVALIDATIONS.value += 1
        self._snaps.pop(bg, None)
        self._scan_tables.pop(bg, None)
        self._insig_rows.pop(bg, None)
        self._inst_rows.pop(bg, None)
        chain_rows = self._chain_rows
        if chain_rows:
            for bucket in buckets:
                chain_rows.pop(bucket, None)

    @classmethod
    def cached(cls, cache: dict, total: Rat, config=None, limit: int = 32):
        """The shared per-structure plan cache: one plan per distinct
        parameterized total, cleared wholesale past ``limit`` entries."""
        key = (total.num, total.den)
        plan = cache.get(key)
        if plan is None:
            if _OBS.enabled:
                _PLAN_MISSES.value += 1
            if len(cache) >= limit:
                cache.clear()
            plan = cls(total, config)
            cache[key] = plan
        elif _OBS.enabled:
            _PLAN_HITS.value += 1
        return plan

    # -- group cuts (shared by the exact and gated executors) ----------------

    def bucket_plan(self, index: int) -> GeomPlan:
        """Plan for the dominating probability ``min(2^(index+1)/W, 1)``."""
        plan = self._bucket_plans.get(index)
        if plan is None:
            plan = GeomPlan(self.wd << (index + 1), self.wn)
            self._bucket_plans[index] = plan
        return plan

    def level_cuts(self, inst) -> tuple:
        """``(i_hi, start_group, j2, dom_plan, pd_num, pd_den, p_dom)`` for
        a level-1/2 instance: the last insignificant bucket index, the
        first possibly-significant group, the first certain group, and the
        dominating probability as both a gated plan and an exact ``Rat`` —
        every term depends only on ``(level constants, W)``."""
        cuts = self._levels.get(inst.level)
        if cuts is None:
            span = inst.bg.span
            p_dom = inst.p_dom
            j1 = (self.total * p_dom).floor_log2() // span - 1
            j2 = -((-self.total.ceil_log2()) // span)
            dom_plan = GeomPlan(p_dom.num, p_dom.den)
            cuts = (
                (j1 + 1) * span - 1,
                max(0, j1 + 1),
                j2,
                dom_plan,
                p_dom.num,
                p_dom.den,
                p_dom,
            )
            self._levels[inst.level] = cuts
        return cuts

    def final_cuts(self, inst) -> tuple:
        """``(i1, i2, dom_plan, pd_num, pd_den, p_dom)`` for a final-level
        instance (level 3; all final instances share ``p_dom = 2/m^2``)."""
        cuts = self._levels.get(3)
        if cuts is None:
            p_dom = inst.p_dom
            dom_plan = GeomPlan(p_dom.num, p_dom.den)
            cuts = (
                (self.total * p_dom).floor_log2() - 1,
                self.total.ceil_log2(),
                dom_plan,
                p_dom.num,
                p_dom.den,
                p_dom,
            )
            self._levels[3] = cuts
        return cuts

    # -- structural snapshots (revalidated per BGStr.version) ----------------

    def level_snapshot(self, inst) -> tuple:
        """``(version, certain_entries, children)`` for a level-1/2
        instance: the flattened entry list of every certain bucket
        (ascending index order) and the significant child instances in
        group order — fixed between structural updates (the version stamp
        is diagnostic; staleness is impossible, because any mutation of
        the instance's structure pushes :meth:`invalidate`)."""
        bg = inst.bg
        snap = self._snaps.get(bg)
        if snap is None:
            cuts = self.level_cuts(inst)
            start, j2 = cuts[1], cuts[2]
            buckets = bg.buckets
            blist = bg.bucket_list
            certain: list = []
            i_lo = j2 * bg.span
            for index in blist[bisect_left(blist, max(0, i_lo)):]:
                certain.extend(buckets[index].entries)
            children: list = []
            glist = bg.group_list
            for group in glist[bisect_left(glist, start):]:
                if group >= j2:
                    break
                child = inst.children.get(group)
                if child is None:
                    raise AssertionError(
                        f"non-empty group {group} has no child instance"
                    )
                children.append(child)
            snap = (bg.version, certain, children)
            self._watch(bg)
            self._snaps[bg] = snap
        return snap

    def final_snapshot(self, inst) -> tuple:
        """``(version, certain_entries, row, accept)`` for a final-level
        instance: the flattened certain entries, the (memoized) lookup row
        for the current 4S configuration, and per-selected-bucket
        rejection-gate constants ``(bucket, r_num, r_den, float)``."""
        bg = inst.bg
        snap = self._snaps.get(bg)
        if snap is None:
            i1, i2 = self.final_cuts(inst)[:2]
            buckets = bg.buckets
            blist = bg.bucket_list
            certain: list = []
            for index in blist[bisect_left(blist, max(0, i2)):]:
                certain.extend(buckets[index].entries)
            width = i2 - i1 - 1
            row = None
            accept: list = []
            if width > 0:
                lookup = inst.lookup
                if width > lookup.k:
                    raise AssertionError(
                        f"significant window {width} exceeds lookup K={lookup.k}"
                    )
                config = inst.adapter.config_window(i1, width, lookup.k)
                row = lookup.row(config)
                wn = self.wn
                m2 = inst.m * inst.m
                accept = [None] * (lookup.k + 1)
                for j in range(1, lookup.k + 1):
                    bucket = buckets.get(i1 + j)
                    if bucket is None or config[j - 1] == 0:
                        continue
                    c_j = len(bucket.entries)
                    # ratio = min(sw/W, 1) / min(2^(j+1) c_j / m^2, 1)
                    t_num = bucket.synthetic_weight * self.wd
                    if t_num > wn:
                        t_num = wn
                    p_num = (1 << (j + 1)) * c_j
                    if p_num > m2:
                        p_num = m2
                    r_num = t_num * m2
                    r_den = wn * p_num
                    accept[j] = (bucket, r_num, r_den, r_num / r_den)
            snap = (bg.version, certain, row, accept)
            self._watch(bg)
            self._snaps[bg] = snap
        return snap

    def insig_table(self, inst) -> tuple:
        """The batched executor's Algorithm 2 scan table for one instance:
        the entries of every insignificant bucket (index <= ``i_hi``,
        ascending) flattened into parallel arrays with their gate
        thresholds precomputed —

        ``(entries, alo, ahi, anum, aden, rlo, rhi, rnum, rden)``

        where entry ``q`` is accepted directly with ``Ber(w/W)`` via
        ``alo/ahi/anum`` (the ``Ber(anum/aden)`` float band of
        :func:`~repro.fastpath.gate.gated_bernoulli`) and the k-th
        dominated coin's entry with the ratio ``(w/W)/p_dom`` via
        ``rlo/rhi/rnum/rden``.  Scans fire with probability
        ``<= capacity * p_dom`` per draw, so the table is built lazily on
        the first hit, then kept valid by dirty-set invalidation (the
        gate width is re-checked per lookup; tests shrink it).
        """
        bg = inst.bg
        g = gate.GATE_BITS
        rec = self._scan_tables.get(bg)
        if rec is not None and rec[1] == g:
            return rec[2]
        if inst.level < 3:
            cuts = self.level_cuts(inst)
            i_hi, pd_num, pd_den = cuts[0], cuts[4], cuts[5]
        else:
            cuts = self.final_cuts(inst)
            i_hi, pd_num, pd_den = cuts[0], cuts[3], cuts[4]
        scale = gate._SCALE
        wn, wd = self.wn, self.wd
        r_den = wn * pd_num
        entries: list = []
        alo: list[float] = []
        ahi: list[float] = []
        anum: list[int] = []
        rlo: list[float] = []
        rhi: list[float] = []
        rnum: list[int] = []
        buckets = bg.buckets
        for index in bg.bucket_list:
            if index > i_hi:
                break
            bucket = buckets[index]
            entries.extend(bucket.entries)
            for w in bucket.weights:
                a_n = w * wd
                if a_n >= wn:  # defensive: a clamped gate accepts outright
                    alo.append(float("inf"))
                    ahi.append(float("-inf"))
                else:
                    t = (a_n / wn) * scale
                    slack = t * gate.REL_DIV + 8.0
                    alo.append(t - slack)
                    ahi.append(t + slack)
                anum.append(a_n)
                r_n = a_n * pd_den
                if r_n >= r_den:
                    rlo.append(float("inf"))
                    rhi.append(float("-inf"))
                else:
                    t = (r_n / r_den) * scale
                    slack = t * gate.REL_DIV + 8.0
                    rlo.append(t - slack)
                    rhi.append(t + slack)
                rnum.append(r_n)
        table = (entries, alo, ahi, anum, wn, rlo, rhi, rnum, r_den)
        self._watch(bg)
        self._scan_tables[bg] = (bg.version, g, table)
        return table

    #: Entry-count ceiling for :meth:`insig_alias` — past it the outcome
    #: space (2^n) is not worth materializing and the executor keeps the
    #: per-draw gate path.
    INSIG_ALIAS_MAX = 8

    def insig_alias(self, inst):
        """An exact alias row over the *whole* insignificant-site outcome
        for one small instance, or ``None`` when the site is too large.

        Algorithm 2's output over the insignificant entries is the
        independent product law ``prod_x Ber(w_x / W)``; for a site with at
        most :data:`INSIG_ALIAS_MAX` live entries the batched executor
        samples that law directly — one alias draw per query draw — from a
        :class:`~repro.core.lookup.AliasRow` whose values are the sampled
        entry tuples themselves.  Built in exact rational arithmetic, so
        the sampled law is exactly the product law; kept valid by
        dirty-set invalidation.
        """
        bg = inst.bg
        rec = self._insig_rows.get(bg)
        if rec is not None:
            return rec[1]
        if inst.level < 3:
            i_hi = self.level_cuts(inst)[0]
        else:
            i_hi = self.final_cuts(inst)[0]
        entries: list = []
        buckets = bg.buckets
        self._watch(bg)
        for index in bg.bucket_list:
            if index > i_hi:
                break
            entries.extend(buckets[index].entries)
            if len(entries) > self.INSIG_ALIAS_MAX:
                self._insig_rows[bg] = (bg.version, None)
                return None
        row = self._product_alias(entries)
        self._insig_rows[bg] = (bg.version, row)
        return row

    #: Entry-count ceiling for :meth:`chain_alias` (2^n outcomes are
    #: materialized in exact rationals; 7 keeps a rebuild ~128 Rat ops,
    #: amortized across the batch and cached per structure version).
    CHAIN_ALIAS_MAX = 7

    def chain_alias(self, bg, bucket):
        """An exact alias row over one candidate bucket's Algorithm 5
        chain outcome, or ``None`` for buckets past
        :data:`CHAIN_ALIAS_MAX` entries.

        Case 1 (``p'·n_i >= 1``, candidacy certain): the chain's potential
        markers are iid ``Ber(p')`` and each accept ``p_x/p'``, so the
        outcome is exactly the product law ``prod Ber(p_x)``.  Case 2
        (``p'·n_i < 1``): the bucket only *arrives* with probability
        ``p'·n_i``, and the chain's type (ii) gate + T-Geo deliver,
        conditioned on arrival, the product law with every non-empty
        outcome scaled by ``1/(p'·n_i)`` (and the empty outcome absorbing
        the difference) — so that candidacy × chain telescopes back to
        exactly ``prod Ber(p_x)`` unconditionally.  The row tabulates that
        conditional law in exact rationals.  Keyed by the bucket object
        (weakly — a destroyed bucket's row evaporates); mutations touching
        the bucket push an invalidation.
        """
        rec = self._chain_rows.get(bucket)
        if rec is not None:
            return rec[1]
        entries = bucket.entries
        n_i = len(entries)
        if n_i > self.CHAIN_ALIAS_MAX:
            row = None
        else:
            law = self._product_law(entries)
            p_dom = (Rat(1 << (bucket.index + 1)) / self.total).min_with_one()
            arrival = p_dom * n_i
            if arrival < Rat.one():
                # Case 2: condition on candidacy.
                one = Rat.one()
                scaled: list[tuple[tuple, Rat]] = []
                nonempty = Rat.zero()
                for picked, mass in law:
                    if picked:
                        mass = mass / arrival
                        nonempty = nonempty + mass
                        scaled.append((picked, mass))
                scaled.append(((), one - nonempty))
                law = scaled
            from .lookup import AliasRow  # local: avoids an import cycle

            row = AliasRow(law)
        self._watch(bg)
        self._chain_rows[bucket] = (bg.version, row)
        return row

    #: Entry-count ceiling for :meth:`instance_alias`.  Final-level
    #: instances hold at most ``m = O(log log n0)`` entries (6 covers any
    #: feasible n0), so the whole final level is tabulated in practice;
    #: larger instances fall back to the structural walk.
    INSTANCE_ALIAS_MAX = 6

    def instance_alias(self, inst):
        """An exact alias row over one *whole instance's* query outcome,
        or ``None`` when the instance is too large.

        A PSS query at any instance samples each of its entries
        independently with ``min(w_x/W, 1)`` — the exactness invariant the
        engines implement structurally.  For an instance with at most
        :data:`INSTANCE_ALIAS_MAX` live entries (every final-level
        instance, by the ``m = O(log log n0)`` bound) the batched executor
        draws that product law directly from one tabulated row — the same
        move as the paper's 4S lookup rows, keyed by the live instance
        instead of a size configuration.  Kept valid by dirty-set
        invalidation.
        """
        bg = inst.bg
        rec = self._inst_rows.get(bg)
        if rec is not None:
            return rec[1]
        if bg.size > self.INSTANCE_ALIAS_MAX or bg.zero_entries:
            row = None
        else:
            entries: list = []
            buckets = bg.buckets
            for index in bg.bucket_list:
                entries.extend(buckets[index].entries)
            row = self._product_alias(entries)
        self._watch(bg)
        self._inst_rows[bg] = (bg.version, row)
        return row

    def _product_alias(self, entries):
        """Alias row for ``prod_x Ber(min(w_x/W, 1))`` over ``entries``,
        with the sampled entry tuples as the row values (exact Vose build
        in rational arithmetic)."""
        from .lookup import AliasRow  # local: avoids a cycle at import time

        return AliasRow(self._product_law(entries))

    def _product_law(self, entries) -> list:
        """``prod_x Ber(min(w_x/W, 1))`` over ``entries`` as an exact
        ``(entry tuple, mass)`` outcome list (zero-mass outcomes skipped)."""
        law: list[tuple[tuple, Rat]] = [((), Rat.one())]
        for entry in entries:
            p = (Rat(entry.weight) / self.total).min_with_one()
            q = Rat.one() - p
            nxt: list[tuple[tuple, Rat]] = []
            for picked, mass in law:
                if not p.is_zero():
                    nxt.append((picked + (entry,), mass * p))
                if not q.is_zero():
                    nxt.append((picked, mass * q))
            law = nxt
        return law
