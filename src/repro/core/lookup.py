"""The static lookup table for the 4S problem (Section 4.3).

A 4S instance has exactly ``K`` items where item ``j`` (1-based) is sampled
with probability ``p_j = min(1, 2^(j+1) * c_j / m^2)``, ``c_j in [0, m]``.
A configuration is the vector ``(c_1, ..., c_K)``; the table answers a
subset-sampling query for any configuration in O(1) time by returning a
K-bit outcome mask with exactly the product probability
``Pr(r) = prod_j (r_j p_j + (1 - r_j)(1 - p_j))``.

Row representations (DESIGN.md substitution note 3):

- :class:`AliasRow` (default): an exact Vose alias table over the ``2^K``
  outcomes, O(1) sampling, O(2^K) cells — distributionally identical to the
  paper's unary cell array but without the ``(m^2)^K`` blow-up;
- :class:`CellArrayRow`: the paper's literal representation — ``(m^2)^K``
  cells each holding a K-bit string, outcome ``r`` occupying exactly
  ``Pr(r) * (m^2)^K`` cells; practical only for tiny parameters and kept to
  verify equivalence.

Rows are built lazily and memoized by configuration: the full table has
``(m+1)^K`` rows (the paper's O(n0) bits), but only configurations that
actually occur are materialized, which can only reduce space.  Set
``eager=True`` to pre-build everything (used by the sizing tests).
"""

from __future__ import annotations

import itertools

from ..fastpath.gate import REL_DIV, gated_bernoulli
from ..wordram.rational import Rat
from ..randvar.bitsource import BitSource


def configuration_probabilities(config: tuple[int, ...], m: int) -> list[Rat]:
    """``p_j = min(1, 2^(j+1) c_j / m^2)`` for each 1-based position j."""
    m2 = m * m
    return [
        Rat((1 << (j + 1)) * c, m2).min_with_one()
        for j, c in enumerate(config, start=1)
    ]


def _outcome_law(probs: list[Rat]) -> list[tuple[int, Rat]]:
    """Exact law over outcome masks, skipping zero-probability outcomes."""
    law: list[tuple[int, Rat]] = [(0, Rat.one())]
    for j, p in enumerate(probs):
        q = Rat.one() - p
        nxt: list[tuple[int, Rat]] = []
        for mask, mass in law:
            if not p.is_zero():
                nxt.append((mask | (1 << j), mass * p))
            if not q.is_zero():
                nxt.append((mask, mass * q))
        law = nxt
    return law


class AliasRow:
    """Exact O(1) sampling from a finite law via Vose's alias method.

    Built entirely in exact rational arithmetic, so the sampled distribution
    equals the input law exactly (the per-slot threshold Bernoulli is a
    type (i) rational Bernoulli).
    """

    __slots__ = (
        "values",
        "thresholds",
        "aliases",
        "_size",
        "_tf",
        "_gate_cache",
    )

    def __init__(self, law: list[tuple[int, Rat]]) -> None:
        if not law:
            raise ValueError("empty law")
        n = len(law)
        self._size = n
        self.values = [v for v, _ in law]
        scaled = [mass * n for _, mass in law]  # mean 1 per slot
        self.thresholds: list[Rat] = [Rat.one()] * n
        self.aliases = list(range(n))
        small = [i for i, s in enumerate(scaled) if s < Rat.one()]
        large = [i for i, s in enumerate(scaled) if s >= Rat.one()]
        while small and large:
            s = small.pop()
            g = large.pop()
            self.thresholds[s] = scaled[s]
            self.aliases[s] = g
            scaled[g] = scaled[g] - (Rat.one() - scaled[s])
            if scaled[g] < Rat.one():
                small.append(g)
            else:
                large.append(g)
        # Remaining entries keep threshold 1 (rounding-free: exact rationals).
        # Float of each threshold for the gated compare (None when certain).
        self._tf = [
            None if t.is_one() else float(t) for t in self.thresholds
        ]
        # Per-gate-width (lo, hi) float bands, built on demand by
        # gate_bounds(); invalidated when the gate width changes.
        self._gate_cache: tuple | None = None

    def gate_bounds(self, gate_bits: int, scale: float) -> tuple[list, list]:
        """Per-slot ``(lo, hi)`` decision bounds of the threshold gate at
        the given gate width — the slot's Bernoulli accepts outright below
        ``lo[slot]``, rejects outright above ``hi[slot]``, and falls back
        to the exact tail inside the band (batched executors hoist these
        out of their draw loops; certain slots carry ``(+inf, -inf)``)."""
        cache = self._gate_cache
        if cache is not None and cache[0] == gate_bits:
            return cache[1], cache[2]
        los: list[float] = []
        his: list[float] = []
        for tf in self._tf:
            if tf is None:
                los.append(float("inf"))
                his.append(float("-inf"))
            else:
                t = tf * scale
                slack = t * REL_DIV + 8.0
                los.append(t - slack)
                his.append(t + slack)
        self._gate_cache = (gate_bits, los, his)
        return los, his

    def sample(self, source: BitSource) -> int:
        slot = source.random_below(self._size)
        tf = self._tf[slot]
        if tf is None:
            return self.values[slot]
        t = self.thresholds[slot]
        if gated_bernoulli(t.num, t.den, source, tf):
            return self.values[slot]
        return self.values[self.aliases[slot]]

    def cells(self) -> int:
        return len(self.values)


class CellArrayRow:
    """The paper's literal unary row: ``(m^2)^K`` cells of K-bit strings."""

    __slots__ = ("cells_array",)

    def __init__(self, law: list[tuple[int, Rat]], m: int, k: int) -> None:
        denom = (m * m) ** k
        cells: list[int] = []
        for mask, mass in law:
            count = mass.num * denom // mass.den
            if mass.num * denom % mass.den != 0:
                raise ValueError(
                    "outcome probability is not a multiple of (m^2)^-K; "
                    "illegal 4S configuration"
                )
            cells.extend([mask] * count)
        if len(cells) != denom:
            raise AssertionError(
                f"cell count {len(cells)} != (m^2)^K = {denom}; law does not sum to 1"
            )
        self.cells_array = cells

    def sample(self, source: BitSource) -> int:
        return self.cells_array[source.random_below(len(self.cells_array))]

    def cells(self) -> int:
        return len(self.cells_array)


class LookupTable:
    """The 4S lookup table T: one row per configuration, O(1) query."""

    __slots__ = ("m", "k", "_rows", "row_style")

    def __init__(self, m: int, k: int, eager: bool = False, row_style: str = "alias") -> None:
        if m < 1 or k < 1:
            raise ValueError(f"need m >= 1 and K >= 1, got m={m}, K={k}")
        if row_style not in ("alias", "cells"):
            raise ValueError(f"unknown row style {row_style!r}")
        self.m = m
        self.k = k
        self.row_style = row_style
        self._rows: dict[tuple[int, ...], AliasRow | CellArrayRow] = {}
        if eager:
            for config in itertools.product(range(m + 1), repeat=k):
                self._row(config)

    def _row(self, config: tuple[int, ...]) -> AliasRow | CellArrayRow:
        row = self._rows.get(config)
        if row is None:
            law = _outcome_law(configuration_probabilities(config, self.m))
            if self.row_style == "alias":
                row = AliasRow(law)
            else:
                row = CellArrayRow(law, self.m, self.k)
            self._rows[config] = row
        return row

    def row(self, config: tuple[int, ...]) -> "AliasRow | CellArrayRow":
        """The (memoized) sampling row for a configuration.

        Callers that query the same configuration repeatedly (the fast-path
        final-level snapshot) hold the row and call ``row.sample`` directly.
        """
        if len(config) != self.k:
            raise ValueError(f"configuration must have {self.k} entries")
        return self._row(config)

    def sample(self, config: tuple[int, ...], source: BitSource) -> int:
        """A subset-sampling outcome mask for the given configuration.

        Bit ``j-1`` of the mask set means 4S item ``j`` (1-based) selected.
        """
        if len(config) != self.k:
            raise ValueError(f"configuration must have {self.k} entries")
        if not any(config):
            return 0  # all-empty configuration: nothing can be sampled
        for c in config:
            if not 0 <= c <= self.m:
                raise ValueError(f"configuration entry {c} outside [0, {self.m}]")
        return self._row(config).sample(source)

    # -- accounting -------------------------------------------------------------

    @property
    def rows_built(self) -> int:
        return len(self._rows)

    @property
    def max_rows(self) -> int:
        return (self.m + 1) ** self.k

    def total_cells(self) -> int:
        return sum(row.cells() for row in self._rows.values())

    def paper_space_bits(self) -> int:
        """The paper's Lemma 4.14 sizing: ``(m+1)^K * (m^2)^K * K`` bits."""
        return self.max_rows * (self.m * self.m) ** self.k * self.k
