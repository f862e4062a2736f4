"""Virtual nodes: the unit of computation the model is written against.

A :class:`VirtualNodeSet` fixes the global batch size and how it divides
among virtual nodes.  This object *is* the model-facing contract: two runs
with equal virtual node sets have identical convergence, whatever hardware
they run on.  Sizes may be uneven — §5.1 relaxes the equal-size assumption
for heterogeneous training — but the canonical constructor divides evenly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["VirtualNode", "VirtualNodeSet"]


@dataclass(frozen=True)
class VirtualNode:
    """One virtual node: a logical worker with a fixed per-step batch share."""

    index: int
    batch_size: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"virtual node index must be >= 0, got {self.index}")
        if self.batch_size < 1:
            raise ValueError(f"virtual node batch size must be >= 1, got {self.batch_size}")


class VirtualNodeSet:
    """An ordered set of virtual nodes covering one global batch."""

    def __init__(self, sizes: Sequence[int]) -> None:
        if not sizes:
            raise ValueError("a virtual node set needs at least one node")
        self.nodes: Tuple[VirtualNode, ...] = tuple(
            VirtualNode(index=i, batch_size=int(s)) for i, s in enumerate(sizes)
        )
        # Sets key the sharding caches, so equality and hashing read one
        # precomputed tuple instead of rebuilding the size list per lookup.
        self._sizes: Tuple[int, ...] = tuple(n.batch_size for n in self.nodes)
        self._hash = hash(self._sizes)

    @classmethod
    def even(cls, global_batch_size: int, num_virtual_nodes: int) -> "VirtualNodeSet":
        """Divide ``global_batch_size`` evenly across ``num_virtual_nodes``.

        The global batch must divide evenly — the paper's homogeneous setting
        always chooses VN counts that divide the batch (e.g. 8192 across 32).
        """
        if num_virtual_nodes < 1:
            raise ValueError(f"num_virtual_nodes must be >= 1, got {num_virtual_nodes}")
        if global_batch_size % num_virtual_nodes:
            raise ValueError(
                f"global batch {global_batch_size} not divisible by "
                f"{num_virtual_nodes} virtual nodes"
            )
        per = global_batch_size // num_virtual_nodes
        return cls([per] * num_virtual_nodes)

    @classmethod
    def uneven(cls, sizes: Sequence[int]) -> "VirtualNodeSet":
        """Explicit per-node sizes (heterogeneous training, §5.1)."""
        return cls(sizes)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def global_batch_size(self) -> int:
        return sum(n.batch_size for n in self.nodes)

    @property
    def sizes(self) -> List[int]:
        return list(self._sizes)

    @property
    def is_even(self) -> bool:
        return len({n.batch_size for n in self.nodes}) == 1

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __getitem__(self, index: int) -> VirtualNode:
        return self.nodes[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, VirtualNodeSet):
            return NotImplemented
        return self._sizes == other._sizes

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.is_even:
            return (f"VirtualNodeSet({self.num_nodes} nodes x "
                    f"{self.nodes[0].batch_size}, B={self.global_batch_size})")
        return f"VirtualNodeSet(sizes={self.sizes}, B={self.global_batch_size})"
