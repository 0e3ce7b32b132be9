"""Dynamic weighted directed graphs backed by per-node HALT structures.

The substrate for both Appendix A case studies.  Each node maintains a HALT
over its in-edges and/or out-edges (weight = edge weight), so a
parameterized subset sampling query over a node's neighbors — the primitive
both applications are built on — runs in O(1 + mu), and an edge update
costs O(1) *even though it changes the sampling probability of every
neighbor simultaneously* (the phenomenon Appendix A highlights).
"""

from __future__ import annotations

from typing import Hashable, Iterator

from ..randvar.bitsource import BitSource, RandomBitSource
from ..wordram.rational import Rat
from ..core.halt import HALT


class DynamicWeightedDigraph:
    """A dynamic digraph with integer edge weights and per-node samplers."""

    def __init__(
        self,
        *,
        track_in: bool = True,
        track_out: bool = True,
        w_max_bits: int = 32,
        source: BitSource | None = None,
    ) -> None:
        if not (track_in or track_out):
            raise ValueError("track at least one direction")
        self.source = source if source is not None else RandomBitSource()
        self.track_in = track_in
        self.track_out = track_out
        self.w_max_bits = w_max_bits
        self._in: dict[Hashable, HALT] = {}
        self._out: dict[Hashable, HALT] = {}
        self._edges: dict[tuple[Hashable, Hashable], int] = {}
        self._nodes: set[Hashable] = set()

    def _halt_for(self, table: dict[Hashable, HALT], node: Hashable) -> HALT:
        halt = table.get(node)
        if halt is None:
            halt = HALT(
                w_max_bits=self.w_max_bits,
                source=self.source,
            )
            table[node] = halt
        return halt

    # -- updates --------------------------------------------------------------------

    def add_node(self, node: Hashable) -> None:
        self._nodes.add(node)

    def add_edge(self, u: Hashable, v: Hashable, weight: int) -> None:
        """Insert edge (u, v); O(1) on each endpoint's sampler."""
        if (u, v) in self._edges:
            raise KeyError(f"edge ({u!r}, {v!r}) already present")
        if weight <= 0:
            raise ValueError("edge weights must be positive integers")
        self._edges[(u, v)] = weight
        self._nodes.add(u)
        self._nodes.add(v)
        if self.track_out:
            self._halt_for(self._out, u).insert(v, weight)
        if self.track_in:
            self._halt_for(self._in, v).insert(u, weight)

    def remove_edge(self, u: Hashable, v: Hashable) -> None:
        """Delete edge (u, v); O(1) on each endpoint's sampler."""
        del self._edges[(u, v)]
        if self.track_out:
            self._out[u].delete(v)
        if self.track_in:
            self._in[v].delete(u)

    def update_edge(self, u: Hashable, v: Hashable, weight: int) -> None:
        self.remove_edge(u, v)
        self.add_edge(u, v, weight)

    # -- structure queries ---------------------------------------------------------------

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return (u, v) in self._edges

    def edge_weight(self, u: Hashable, v: Hashable) -> int:
        return self._edges[(u, v)]

    def nodes(self) -> Iterator[Hashable]:
        return iter(self._nodes)

    def edges(self) -> Iterator[tuple[Hashable, Hashable, int]]:
        return ((u, v, w) for (u, v), w in self._edges.items())

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def in_degree_weight(self, node: Hashable) -> int:
        halt = self._in.get(node)
        return halt.total_weight if halt is not None else 0

    def out_degree_weight(self, node: Hashable) -> int:
        halt = self._out.get(node)
        return halt.total_weight if halt is not None else 0

    def in_neighbors(self, node: Hashable) -> list[Hashable]:
        halt = self._in.get(node)
        return list(halt.keys()) if halt is not None else []

    def out_neighbors(self, node: Hashable) -> list[Hashable]:
        halt = self._out.get(node)
        return list(halt.keys()) if halt is not None else []

    # -- parameterized neighbor sampling (the Appendix A primitive) ----------------------

    def sample_in_neighbors(
        self, node: Hashable, alpha: Rat | int, beta: Rat | int
    ) -> list[Hashable]:
        """Each in-neighbor u independently with ``min(A_uv / (alpha *
        in_weight(v) + beta), 1)`` — O(1 + mu) expected."""
        halt = self._in.get(node)
        return halt.query(alpha, beta) if halt is not None else []

    def sample_out_neighbors(
        self, node: Hashable, alpha: Rat | int, beta: Rat | int
    ) -> list[Hashable]:
        halt = self._out.get(node)
        return halt.query(alpha, beta) if halt is not None else []
