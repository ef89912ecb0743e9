"""Bounding Volume Hierarchies: builders, traversal, two-level structures.

The BVH here plays the role of the acceleration structure the RTA
hardware traverses (Algorithm 3 / Fig. 3): binary inner nodes with
AABBs, primitives (triangles, spheres, or point-AABBs for RTNN) at the
leaves.  ``traverse`` implements the while-while loop and returns both
the functional hit and a visit trace that the timing models replay.

Two-level structures (:class:`TwoLevelBVH`) model the TLAS/BLAS split
used by *RTNN, *WKND_PT and LumiBench in Table III, where crossing from
the top level into an instance costs an R-XFORM µop.
"""

import math
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.geometry.aabb import AABB
from repro.geometry.intersect import ray_aabb_intersect
from repro.geometry.ray import Ray
from repro.geometry.vec import Vec3

_SAH_BINS = 12


class BVHNode:
    """Binary BVH node; leaves hold a slice of the primitive list."""

    __slots__ = ("bounds", "left", "right", "first_prim", "prim_count", "address")

    def __init__(self, bounds: AABB):
        self.bounds = bounds
        self.left: Optional["BVHNode"] = None
        self.right: Optional["BVHNode"] = None
        self.first_prim = 0
        self.prim_count = 0
        self.address = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def children(self) -> List["BVHNode"]:
        return [] if self.is_leaf else [self.left, self.right]

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"BVHNode(leaf, prims={self.prim_count})"
        return "BVHNode(inner)"


class VisitEvent(NamedTuple):
    """One step of a traversal: a node visit plus what was tested there."""

    node: BVHNode
    kind: str          # "inner" | "leaf"
    tests: int         # primitive tests performed at a leaf (1 for inner)
    hit: bool          # did the node/any primitive test pass


class TraversalResult(NamedTuple):
    closest_t: float
    closest_prim: Optional[int]
    all_hits: Tuple[int, ...]
    visits: Tuple[VisitEvent, ...]


class BVH:
    """A BVH over primitives that expose ``bounds()`` and ``prim_id``.

    ``intersector(ray, prim)`` must return ``None`` or an object with a
    ``t`` attribute — the triangle/sphere tests from :mod:`repro.geometry`
    plug straight in.
    """

    def __init__(self, primitives: Sequence, max_leaf_size: int = 2,
                 method: str = "median"):
        if not primitives:
            raise ConfigurationError("cannot build a BVH with no primitives")
        if method not in ("median", "sah"):
            raise ConfigurationError(f"unknown BVH build method {method!r}")
        self.primitives = list(primitives)
        self.max_leaf_size = max_leaf_size
        self._prim_bounds = [p.bounds() for p in self.primitives]
        self._prim_order = list(range(len(self.primitives)))
        self.root = self._build(0, len(self.primitives), method)
        self.node_count = self._count_nodes(self.root)
        #: bumped by every mutating operation; derived views (memory
        #: images, lowered jobs) key their validity on it.
        self.mutation_epoch = 0

    # -- construction ---------------------------------------------------------
    def _range_bounds(self, first: int, count: int) -> AABB:
        box = AABB.empty()
        for i in range(first, first + count):
            box = box.union(self._prim_bounds[self._prim_order[i]])
        return box

    def _build(self, first: int, count: int, method: str) -> BVHNode:
        node = BVHNode(self._range_bounds(first, count))
        if count <= self.max_leaf_size:
            node.first_prim, node.prim_count = first, count
            return node
        split = (self._sah_split(first, count, node.bounds)
                 if method == "sah" else self._median_split(first, count))
        if split is None or split in (first, first + count):
            node.first_prim, node.prim_count = first, count
            return node
        node.left = self._build(first, split - first, method)
        node.right = self._build(split, first + count - split, method)
        return node

    def _median_split(self, first: int, count: int) -> int:
        bounds = self._range_bounds(first, count)
        axis = bounds.longest_axis()
        segment = self._prim_order[first:first + count]
        segment.sort(key=lambda i: self._prim_bounds[i].centroid().component(axis))
        self._prim_order[first:first + count] = segment
        return first + count // 2

    def _sah_split(self, first: int, count: int, bounds: AABB) -> Optional[int]:
        """Binned surface-area-heuristic split; falls back to median."""
        axis = bounds.longest_axis()
        lo = bounds.lo.component(axis)
        hi = bounds.hi.component(axis)
        if hi - lo < 1e-12:
            return self._median_split(first, count)
        segment = self._prim_order[first:first + count]
        segment.sort(key=lambda i: self._prim_bounds[i].centroid().component(axis))
        self._prim_order[first:first + count] = segment

        best_cost, best_split = math.inf, None
        leaf_cost = count * bounds.surface_area()
        for k in range(1, _SAH_BINS):
            split = first + (count * k) // _SAH_BINS
            if split in (first, first + count):
                continue
            left = self._range_bounds(first, split - first)
            right = self._range_bounds(split, first + count - split)
            cost = (left.surface_area() * (split - first)
                    + right.surface_area() * (first + count - split))
            if cost < best_cost:
                best_cost, best_split = cost, split
        if best_split is None or best_cost >= leaf_cost:
            return first + count // 2
        return best_split

    def _count_nodes(self, node: BVHNode) -> int:
        if node.is_leaf:
            return 1
        return 1 + self._count_nodes(node.left) + self._count_nodes(node.right)

    # -- online mutation --------------------------------------------------------
    #
    # The mutation paths keep results *exact* while letting quality
    # decay: bounds only ever grow (inserts union the path, deletes and
    # moves leave the old extents in place), so a conservative AABB can
    # cost extra visits but never miss a hit.  ``refit`` restores exact
    # bounds without restructuring; a full rebuild restores quality.

    def _invalidate(self) -> None:
        self.mutation_epoch = getattr(self, "mutation_epoch", 0) + 1

    def insert(self, prim) -> int:
        """Online insert: descend by least bound growth, append at a leaf.

        The leaf's primitive slice grows past ``max_leaf_size`` rather
        than splitting — exactly the decay mode per-frame RT pipelines
        accept between rebuilds.  Returns the number of nodes touched
        (the descent path), which the mutation cost model charges.
        """
        bounds = prim.bounds()
        node, path = self.root, []
        while not node.is_leaf:
            path.append(node)
            grow_left = (node.left.bounds.union(bounds).surface_area()
                         - node.left.bounds.surface_area())
            grow_right = (node.right.bounds.union(bounds).surface_area()
                          - node.right.bounds.surface_area())
            node = node.left if grow_left <= grow_right else node.right
        prim_index = len(self.primitives)
        self.primitives.append(prim)
        self._prim_bounds.append(bounds)
        pos = node.first_prim + node.prim_count
        self._prim_order.insert(pos, prim_index)
        node.prim_count += 1
        for other in self.nodes():
            if other.is_leaf and other is not node and other.first_prim >= pos:
                other.first_prim += 1
        for ancestor in path:
            ancestor.bounds = ancestor.bounds.union(bounds)
        node.bounds = node.bounds.union(bounds)
        self._invalidate()
        return len(path) + 1

    def remove(self, prim_id: int) -> int:
        """Online delete: drop the primitive from its leaf's slice.

        The primitive stays in ``primitives`` as an unreachable
        tombstone (slice indexes stay stable); bounds are left loose.
        Returns the number of nodes touched.
        """
        pos = None
        for k, i in enumerate(self._prim_order):
            if self.primitives[i].prim_id == prim_id:
                pos = k
                break
        if pos is None:
            raise KeyError(f"prim_id {prim_id} not live in BVH")
        leaf = None
        for node in self.nodes():
            if node.is_leaf and node.first_prim <= pos < (node.first_prim
                                                          + node.prim_count):
                leaf = node
                break
        self._prim_order.pop(pos)
        leaf.prim_count -= 1
        for other in self.nodes():
            if other.is_leaf and other is not leaf and other.first_prim > pos:
                other.first_prim -= 1
        self._invalidate()
        return 1

    def update(self, prim_id: int, prim) -> int:
        """Online update: replace a live primitive in place.

        The slot keeps its position in the leaf; path bounds are grown
        to cover the new extent while the old extent stays covered
        (conservative, so results remain exact until the next refit).
        """
        pos = None
        for k, i in enumerate(self._prim_order):
            if self.primitives[i].prim_id == prim_id:
                pos, prim_index = k, i
                break
        if pos is None:
            raise KeyError(f"prim_id {prim_id} not live in BVH")
        self.primitives[prim_index] = prim
        bounds = prim.bounds()
        self._prim_bounds[prim_index] = bounds
        touched = self._grow_path(self.root, pos, bounds)
        self._invalidate()
        return touched

    def _grow_path(self, node: BVHNode, pos: int, bounds: AABB) -> int:
        """Union ``bounds`` into every node on the path to slice ``pos``."""
        node.bounds = node.bounds.union(bounds)
        if node.is_leaf:
            return 1
        # Leaf slices are laid out in-order, so the left subtree covers a
        # contiguous prefix of positions.
        left_end = self._subtree_end(node.left)
        child = node.left if pos < left_end else node.right
        return 1 + self._grow_path(child, pos, bounds)

    @staticmethod
    def _subtree_end(node: BVHNode) -> int:
        while not node.is_leaf:
            node = node.right
        return node.first_prim + node.prim_count

    def refit(self) -> int:
        """Recompute exact bounds bottom-up without restructuring.

        This is the per-frame BVH refit of the RT pipelines: leaf boxes
        are rebuilt from their (live) primitives, inner boxes from their
        children.  Returns the number of nodes touched — the quantity
        the cycle model charges.
        """
        def rec(node: BVHNode) -> int:
            if node.is_leaf:
                node.bounds = self._range_bounds(node.first_prim,
                                                 node.prim_count)
                return 1
            touched = rec(node.left) + rec(node.right)
            node.bounds = node.left.bounds.union(node.right.bounds)
            return touched + 1

        touched = rec(self.root)
        self._invalidate()
        return touched

    def live_prim_ids(self) -> List[int]:
        """The prim_ids still reachable from a leaf slice."""
        return [self.primitives[i].prim_id for i in self._prim_order]

    # -- access ---------------------------------------------------------------
    def leaf_prims(self, node: BVHNode) -> List:
        return [self.primitives[self._prim_order[i]]
                for i in range(node.first_prim, node.first_prim + node.prim_count)]

    def nodes(self) -> List[BVHNode]:
        """All nodes in DFS order (the serialization order real builders emit)."""
        out: List[BVHNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        return out

    def depth(self) -> int:
        def rec(node: BVHNode) -> int:
            if node.is_leaf:
                return 1
            return 1 + max(rec(node.left), rec(node.right))
        return rec(self.root)

    # -- traversal --------------------------------------------------------------
    def traverse(self, ray: Ray, intersector: Callable,
                 mode: str = "closest") -> TraversalResult:
        """While-while stack traversal (Algorithm 3).

        ``mode`` is "closest" (shrink tmax to the nearest hit, as in path
        tracing), "any" (stop at the first hit, as in shadow rays), or
        "all" (collect every hit, as in radius search).
        """
        if mode not in ("closest", "any", "all"):
            raise ConfigurationError(f"unknown traversal mode {mode!r}")
        visits: List[VisitEvent] = []
        all_hits: List[int] = []
        closest_t, closest_prim = ray.tmax, None
        tmax = ray.tmax
        # The ray with [tmin, tmax] clipping applied.  Rebuilding a Ray
        # is deterministic, so one shared object reused until tmax
        # actually shrinks is bit-identical to a fresh clip per test —
        # and keeps the hot loop allocation-free outside "closest" hits.
        clipped = ray
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaf_hit = False
                for prim in self.leaf_prims(node):
                    hit = intersector(clipped, prim)
                    if hit is not None:
                        leaf_hit = True
                        all_hits.append(prim.prim_id)
                        if hit.t < closest_t:
                            closest_t, closest_prim = hit.t, prim.prim_id
                        if mode == "closest" and hit.t < tmax:
                            tmax = hit.t
                            clipped = Ray(ray.origin, ray.direction,
                                          ray.tmin, tmax)
                visits.append(VisitEvent(node, "leaf", node.prim_count, leaf_hit))
                if mode == "any" and leaf_hit:
                    break
            else:
                span = ray_aabb_intersect(clipped, node.bounds)
                visits.append(VisitEvent(node, "inner", 1, span is not None))
                if span is not None:
                    stack.append(node.right)
                    stack.append(node.left)
        if closest_prim is None:
            closest_t = math.inf
        return TraversalResult(closest_t, closest_prim,
                               tuple(all_hits), tuple(visits))


class Instance:
    """A BLAS reference with an object-to-world rigid transform.

    Only translation + uniform scale are modelled; that is all the
    procedural workloads need, and it keeps the R-XFORM functional model
    (world ray -> object ray) trivially invertible.
    """

    __slots__ = ("blas", "translation", "scale", "instance_id")

    def __init__(self, blas: BVH, translation: Vec3 = None,
                 scale: float = 1.0, instance_id: int = -1):
        if scale <= 0:
            raise ConfigurationError("instance scale must be positive")
        self.blas = blas
        self.translation = translation if translation is not None else Vec3()
        self.scale = scale
        self.instance_id = instance_id

    def bounds(self) -> AABB:
        b = self.blas.root.bounds
        return AABB(self._to_world(b.lo), self._to_world(b.hi))

    @property
    def prim_id(self) -> int:
        return self.instance_id

    def _to_world(self, p: Vec3) -> Vec3:
        return p * self.scale + self.translation

    def world_to_object(self, ray: Ray) -> Ray:
        """The functional model of the R-XFORM unit."""
        inv = 1.0 / self.scale
        origin = (ray.origin - self.translation) * inv
        return Ray(origin, ray.direction, ray.tmin * inv, ray.tmax * inv)

    def t_to_world(self, t_object: float) -> float:
        return t_object * self.scale


class TwoLevelHit(NamedTuple):
    t: float
    instance_id: int
    prim_id: int


class TwoLevelResult(NamedTuple):
    hit: Optional[TwoLevelHit]
    tlas_visits: Tuple[VisitEvent, ...]
    blas_visits: Tuple[VisitEvent, ...]
    xforms: int


class TwoLevelBVH:
    """TLAS over instances, each pointing into a BLAS.

    Crossing TLAS->BLAS requires one ray transform, which Table III
    accounts as an R-XFORM µop; the count is reported so the TTA+ timing
    model charges it.
    """

    def __init__(self, instances: Sequence[Instance]):
        if not instances:
            raise ConfigurationError("two-level BVH needs at least one instance")
        self.instances = list(instances)
        self.tlas = BVH(self.instances, max_leaf_size=1)

    def trace(self, ray: Ray, intersector: Callable) -> TwoLevelResult:
        tlas_visits: List[VisitEvent] = []
        blas_visits: List[VisitEvent] = []
        xforms = 0
        best: Optional[TwoLevelHit] = None
        tmax = ray.tmax
        # The original clips once per *node*: a shrink while visiting a
        # leaf's instances must not affect later instances of the same
        # leaf, so the rebuild happens here rather than at the shrink.
        clipped, clip_tmax = ray, tmax
        stack = [self.tlas.root]
        while stack:
            node = stack.pop()
            if tmax != clip_tmax:
                clipped = Ray(ray.origin, ray.direction, ray.tmin, tmax)
                clip_tmax = tmax
            span = ray_aabb_intersect(clipped, node.bounds)
            if node.is_leaf:
                tlas_visits.append(VisitEvent(node, "leaf", 1, span is not None))
                if span is None:
                    continue
                for instance in self.tlas.leaf_prims(node):
                    xforms += 1
                    object_ray = instance.world_to_object(clipped)
                    result = instance.blas.traverse(object_ray, intersector)
                    blas_visits.extend(result.visits)
                    if result.closest_prim is not None:
                        t_world = instance.t_to_world(result.closest_t)
                        if t_world < tmax:
                            tmax = t_world
                            best = TwoLevelHit(t_world, instance.instance_id,
                                               result.closest_prim)
            else:
                tlas_visits.append(VisitEvent(node, "inner", 1, span is not None))
                if span is not None:
                    stack.append(node.right)
                    stack.append(node.left)
        return TwoLevelResult(best, tuple(tlas_visits), tuple(blas_visits), xforms)
