"""Address assignment: serialize a tree into a flat memory image.

The timing models need real addresses — cache behaviour, coalescing and
DRAM traffic all depend on where nodes live.  ``TreeImage`` lays a
tree's nodes out in breadth-first order (the order real tree builders
emit, giving siblings contiguity, which the paper's child-offset
encoding relies on) at a fixed per-node stride, and maps addresses back
to node objects for the functional side of the simulation.

Addresses are pure arithmetic — ``base + index * stride`` — so the
reverse map is division, not a per-node hash table.
"""

from typing import Dict, Iterable, List, Optional

from repro.errors import LayoutError

NODE_STRIDE = 64  # bytes per node entry: 16 x 32-bit registers (Fig. 7)


class TreeImage:
    """A serialized tree: node list, addresses, and reverse lookup.

    ``base`` offsets the whole tree in the global address space so
    several structures (tree + query buffers + result buffers) can
    coexist in one memory image.
    """

    def __init__(self, nodes: Iterable, base: int = 0,
                 node_stride: int = NODE_STRIDE):
        if base % node_stride != 0:
            raise LayoutError(
                f"base {base} not aligned to node stride {node_stride}"
            )
        self.node_stride = node_stride
        self.base = base
        self.nodes: List = list(nodes)
        if not self.nodes:
            raise LayoutError("cannot lay out an empty tree")
        self._index_of: Dict[int, int] = {}
        for index, node in enumerate(self.nodes):
            node.address = base + index * node_stride
            self._index_of[id(node)] = index

    @property
    def size_bytes(self) -> int:
        return len(self.nodes) * self.node_stride

    @property
    def end(self) -> int:
        return self.base + self.size_bytes

    def address_of(self, node) -> int:
        try:
            index = self._index_of[id(node)]
        except KeyError:
            raise LayoutError(f"node {node!r} is not part of this image")
        return self.base + index * self.node_stride

    def node_at(self, address: int) -> object:
        offset = address - self.base
        if 0 <= offset < self.size_bytes and offset % self.node_stride == 0:
            return self.nodes[offset // self.node_stride]
        raise LayoutError(f"no node at address {address:#x}")

    def contains(self, address: int) -> bool:
        offset = address - self.base
        return 0 <= offset < self.size_bytes and offset % self.node_stride == 0

    def first_child_address(self, node) -> Optional[int]:
        """Address of the node's first child (the paper's child-offset base)."""
        children = getattr(node, "children", None) or []
        children = [c for c in children if c is not None]
        if not children:
            return None
        return self.address_of(children[0])

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return (
            f"TreeImage(nodes={len(self.nodes)}, base={self.base:#x}, "
            f"stride={self.node_stride})"
        )
