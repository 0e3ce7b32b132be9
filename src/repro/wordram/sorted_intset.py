"""The Fact 2.1 structure: a dynamic sorted set of small integers.

Maintains a set ``I`` of integers drawn from a universe ``{0, ..., U-1}``
with ``U = O(d)`` (in the paper, bucket and group indices — at most the word
length) supporting O(1) worst-case insert, delete, predecessor, successor,
min, max and ordered traversal, in O(n) space.

Implementation follows the paper's Appendix B: a bitmap ``M`` (one O(U/d)-
word integer), a doubly linked sorted list of the present values, and O(1)
access from a value to its list node.  The paper uses a pointer array plus a
"menu" array for value-to-node access; a Python dict provides the same O(1)
expected access and is the idiomatic equivalent — documented in DESIGN.md.

Predecessor/successor queries are answered from the bitmap with shifts and
highest/lowest-set-bit instructions, exactly as in the appendix proof.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .machine import OpCounter


class _Node:
    __slots__ = ("value", "prev", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.prev: Optional[_Node] = None
        self.next: Optional[_Node] = None


class SortedIntSet:
    """Sorted dynamic set over a small integer universe (Fact 2.1)."""

    __slots__ = ("universe", "_bitmap", "_nodes", "_head", "_tail", "_ops")

    def __init__(self, universe: int, ops: OpCounter | None = None) -> None:
        if universe <= 0:
            raise ValueError(f"universe size must be positive, got {universe}")
        self.universe = universe
        self._bitmap = 0
        self._nodes: dict[int, _Node] = {}
        self._head: Optional[_Node] = None
        self._tail: Optional[_Node] = None
        self._ops = ops

    # -- helpers ------------------------------------------------------------

    def _check(self, q: int) -> None:
        if not 0 <= q < self.universe:
            raise ValueError(f"value {q} outside universe [0, {self.universe})")

    def _tick(self, arith: int = 0, mem: int = 0, cmp: int = 0) -> None:
        ops = self._ops
        if ops is not None:
            ops.arith += arith
            ops.mem += mem
            ops.cmp += cmp

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, q: int) -> bool:
        self._tick(arith=2, cmp=1)
        return 0 <= q < self.universe and (self._bitmap >> q) & 1 == 1

    def min(self) -> Optional[int]:
        """Smallest element, or None if empty."""
        self._tick(mem=1)
        return self._head.value if self._head is not None else None

    def max(self) -> Optional[int]:
        """Largest element, or None if empty."""
        self._tick(mem=1)
        return self._tail.value if self._tail is not None else None

    def successor(self, q: int, strict: bool = False) -> Optional[int]:
        """Smallest element ``>= q`` (or ``> q`` when strict)."""
        self._check(q)
        start = q + 1 if strict else q
        if start >= self.universe:
            return None
        # Shift the low bits out, then take the lowest remaining set bit.
        u = self._bitmap >> start
        self._tick(arith=3, cmp=1)
        if u == 0:
            return None
        return start + ((u & -u).bit_length() - 1)

    def predecessor(self, q: int, strict: bool = False) -> Optional[int]:
        """Largest element ``<= q`` (or ``< q`` when strict)."""
        self._check(q)
        end = q - 1 if strict else q
        if end < 0:
            return None
        # Mask the high bits off, then take the highest remaining set bit.
        v = self._bitmap & ((1 << (end + 1)) - 1)
        self._tick(arith=3, cmp=1)
        if v == 0:
            return None
        return v.bit_length() - 1

    # -- updates ---------------------------------------------------------------

    def insert(self, q: int) -> bool:
        """Insert ``q``; returns False if already present."""
        self._check(q)
        if (self._bitmap >> q) & 1:
            self._tick(arith=1, cmp=1)
            return False
        node = _Node(q)
        succ = self.successor(q, strict=True)
        if succ is None:
            # q becomes the new maximum.
            node.prev = self._tail
            if self._tail is not None:
                self._tail.next = node
            self._tail = node
            if self._head is None:
                self._head = node
        else:
            after = self._nodes[succ]
            node.next = after
            node.prev = after.prev
            after.prev = node
            if node.prev is not None:
                node.prev.next = node
            else:
                self._head = node
        self._nodes[q] = node
        self._bitmap |= 1 << q
        self._tick(arith=2, mem=6)
        return True

    def delete(self, q: int) -> bool:
        """Delete ``q``; returns False if absent."""
        self._check(q)
        node = self._nodes.pop(q, None)
        if node is None:
            self._tick(mem=1, cmp=1)
            return False
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self._head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self._tail = node.prev
        self._bitmap &= ~(1 << q)
        self._tick(arith=2, mem=5)
        return True

    # -- traversal ---------------------------------------------------------------

    def iter_ascending(self, start: int | None = None) -> Iterator[int]:
        """Yield elements in ascending order, optionally from ``>= start``."""
        if start is None:
            node = self._head
        else:
            s = self.successor(min(start, self.universe - 1)) if start < self.universe else None
            node = self._nodes[s] if s is not None else None
        while node is not None:
            self._tick(mem=1)
            yield node.value
            node = node.next

    def iter_descending(self, start: int | None = None) -> Iterator[int]:
        """Yield elements in descending order, optionally from ``<= start``."""
        if start is None:
            node = self._tail
        else:
            p = (
                self.predecessor(min(start, self.universe - 1))
                if start >= 0
                else None
            )
            node = self._nodes[p] if p is not None else None
        while node is not None:
            self._tick(mem=1)
            yield node.value
            node = node.prev

    def __iter__(self) -> Iterator[int]:
        return self.iter_ascending()

    def space_words(self) -> int:
        """Approximate space in words: bitmap words + 3 per node."""
        bitmap_words = max(1, (self.universe + 63) // 64)
        return bitmap_words + 3 * len(self._nodes)

    def check_invariants(self) -> None:
        """Validate bitmap/list agreement (test helper)."""
        from_list = list(self.iter_ascending())
        from_bitmap = [i for i in range(self.universe) if (self._bitmap >> i) & 1]
        if from_list != from_bitmap:
            raise AssertionError(
                f"list/bitmap mismatch: {from_list} vs {from_bitmap}"
            )
        if sorted(self._nodes) != from_list:
            raise AssertionError("node index does not match list contents")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SortedIntSet({list(self)!r})"
