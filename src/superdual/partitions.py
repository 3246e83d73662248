"""Integer partitions (ordinary Young diagrams).

A partition is stored as a tuple of weakly decreasing positive integers with
trailing zeros stripped; the empty partition is ().  Entries are accessed in
the 1-based convention used throughout representation theory: `part(i)` is the
i-th row length, zero beyond the height.
"""

from __future__ import annotations


class Partition:
    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(x) for x in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part in {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        self.parts = parts

    # -- basic data ---------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of nonzero rows."""
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """1-based row length; 0 for i beyond the height."""
        if i < 1:
            raise IndexError(i)
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def padded(self, n: int) -> tuple:
        """Row lengths padded with zeros to length n (requires height <= n)."""
        if self.height > n:
            raise ValueError(f"partition {self} too tall for {n} rows")
        return self.parts + (0,) * (n - len(self.parts))

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        return Partition(
            tuple(sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1))
        )

    def cells(self):
        """Iterate (row, col), both 1-based."""
        for i, p in enumerate(self.parts, 1):
            for j in range(1, p + 1):
                yield (i, j)

    # -- dunder -------------------------------------------------------------
    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self == Partition(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"


def partitions_bounded(max_height: int, max_entry: int):
    """All partitions with height <= max_height and entries <= max_entry,
    depth first: each prefix, then its extensions by 1, 2, ... up to its
    last entry.  Callers index into this order."""
    out = []
    stack = [()]
    while stack:
        prefix = stack.pop()
        out.append(Partition(prefix))
        if len(prefix) < max_height:
            bound = prefix[-1] if prefix else max_entry
            stack.extend(prefix + (v,) for v in range(bound, 0, -1))
    return out
