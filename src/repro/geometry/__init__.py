"""Geometric primitives and intersection tests.

These are the *functional* counterparts of the RTA's fixed-function
units: the slab Ray-Box test, the Möller-Trumbore Ray-Triangle test and
the quadratic Ray-Sphere test, plus the Query-Key and Point-to-Point
operations that TTA adds (Algorithms 1 and 2 in the paper).
"""

from repro.geometry.vec import Vec3, cross, dot
from repro.geometry.aabb import AABB
from repro.geometry.ray import Ray
from repro.geometry.triangle import Triangle, ray_triangle_intersect
from repro.geometry.sphere import Sphere, ray_sphere_intersect
from repro.geometry.intersect import (
    point_distance_below,
    ray_aabb_intersect,
)
from repro.geometry.batch import (
    point_distance_below_batch,
    point_distance_squared_batch,
    points_soa,
)

__all__ = [
    "Vec3",
    "dot",
    "cross",
    "AABB",
    "Ray",
    "Triangle",
    "Sphere",
    "ray_aabb_intersect",
    "ray_triangle_intersect",
    "ray_sphere_intersect",
    "point_distance_below",
    "point_distance_below_batch",
    "point_distance_squared_batch",
    "points_soa",
]
