"""Unit tests for geometric primitives and intersection tests."""

import math
import random

import numpy as np
import pytest

from repro.geometry import (
    AABB,
    Ray,
    Sphere,
    Triangle,
    Vec3,
    cross,
    dot,
    point_distance_below,
    point_distance_below_batch,
    points_soa,
    ray_aabb_intersect,
    ray_sphere_intersect,
    ray_triangle_intersect,
)


class TestVec3:
    def test_arithmetic(self):
        a, b = Vec3(1, 2, 3), Vec3(4, 5, 6)
        assert a + b == Vec3(5, 7, 9)
        assert b - a == Vec3(3, 3, 3)
        assert a * 2 == Vec3(2, 4, 6)
        assert 2 * a == Vec3(2, 4, 6)
        assert b / 2 == Vec3(2, 2.5, 3)
        assert -a == Vec3(-1, -2, -3)

    def test_dot_and_cross(self):
        assert dot(Vec3(1, 2, 3), Vec3(4, 5, 6)) == 32
        assert cross(Vec3(1, 0, 0), Vec3(0, 1, 0)) == Vec3(0, 0, 1)
        # Cross product is perpendicular to both inputs.
        a, b = Vec3(1, 2, 3), Vec3(-2, 0.5, 4)
        c = cross(a, b)
        assert dot(c, a) == pytest.approx(0)
        assert dot(c, b) == pytest.approx(0)

    def test_length_and_normalize(self):
        v = Vec3(3, 4, 0)
        assert v.length() == 5
        assert v.length_squared() == 25
        assert v.normalized().length() == pytest.approx(1.0)

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            Vec3().normalized()

    def test_component_access(self):
        v = Vec3(7, 8, 9)
        assert [v.component(i) for i in range(3)] == [7, 8, 9]
        with pytest.raises(IndexError):
            v.component(3)


class TestAABB:
    def test_union_and_containment(self):
        a = AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))
        b = AABB(Vec3(2, 2, 2), Vec3(3, 3, 3))
        u = a.union(b)
        assert u.contains_box(a) and u.contains_box(b)
        assert u.contains_point(Vec3(1.5, 1.5, 1.5))

    def test_empty_box_unions_as_identity(self):
        a = AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))
        assert AABB.empty().is_empty()
        u = AABB.empty().union(a)
        assert u.lo == a.lo and u.hi == a.hi

    def test_surface_area_and_axis(self):
        box = AABB(Vec3(0, 0, 0), Vec3(4, 2, 1))
        assert box.surface_area() == pytest.approx(2 * (8 + 2 + 4))
        assert box.longest_axis() == 0

    def test_centroid(self):
        box = AABB(Vec3(0, 0, 0), Vec3(2, 4, 6))
        assert box.centroid() == Vec3(1, 2, 3)


class TestRayAABB:
    def test_hit_through_center(self):
        ray = Ray(Vec3(-5, 0.5, 0.5), Vec3(1, 0, 0))
        box = AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))
        span = ray_aabb_intersect(ray, box)
        assert span is not None
        assert span[0] == pytest.approx(5)
        assert span[1] == pytest.approx(6)

    def test_miss(self):
        ray = Ray(Vec3(-5, 5, 0.5), Vec3(1, 0, 0))
        box = AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))
        assert ray_aabb_intersect(ray, box) is None

    def test_box_behind_origin_misses(self):
        ray = Ray(Vec3(5, 0.5, 0.5), Vec3(1, 0, 0))
        box = AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))
        assert ray_aabb_intersect(ray, box) is None

    def test_axis_parallel_ray_inside_slab(self):
        # Direction has zero y/z: the reciprocal saturates, interval logic
        # must still accept a ray travelling inside the box.
        ray = Ray(Vec3(-5, 0.5, 0.5), Vec3(1, 0, 0))
        box = AABB(Vec3(-10, 0, 0), Vec3(10, 1, 1))
        assert ray_aabb_intersect(ray, box) is not None

    def test_tmax_clips_hit(self):
        ray = Ray(Vec3(-5, 0.5, 0.5), Vec3(1, 0, 0), tmax=2.0)
        box = AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))
        assert ray_aabb_intersect(ray, box) is None

    def test_origin_inside_box(self):
        ray = Ray(Vec3(0.5, 0.5, 0.5), Vec3(0, 1, 0))
        box = AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))
        span = ray_aabb_intersect(ray, box)
        assert span is not None and span[0] == pytest.approx(0.0)


class TestRayTriangle:
    def tri(self):
        return Triangle(Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0), prim_id=7)

    def test_center_hit_with_barycentrics(self):
        hit = ray_triangle_intersect(
            Ray(Vec3(0.25, 0.25, 5), Vec3(0, 0, -1)), self.tri())
        assert hit is not None
        assert hit.t == pytest.approx(5)
        assert hit.u == pytest.approx(0.25)
        assert hit.v == pytest.approx(0.25)

    def test_miss_outside_edge(self):
        hit = ray_triangle_intersect(
            Ray(Vec3(0.9, 0.9, 5), Vec3(0, 0, -1)), self.tri())
        assert hit is None

    def test_parallel_ray_misses(self):
        hit = ray_triangle_intersect(
            Ray(Vec3(0, 0, 1), Vec3(1, 0, 0)), self.tri())
        assert hit is None

    def test_hit_behind_origin_rejected(self):
        hit = ray_triangle_intersect(
            Ray(Vec3(0.25, 0.25, -5), Vec3(0, 0, -1)), self.tri())
        assert hit is None

    def test_tmax_clip(self):
        hit = ray_triangle_intersect(
            Ray(Vec3(0.25, 0.25, 5), Vec3(0, 0, -1), tmax=4.0), self.tri())
        assert hit is None

    def test_barycentric_point_reconstruction(self):
        tri = Triangle(Vec3(1, 1, 0), Vec3(3, 1, 1), Vec3(1, 4, 2))
        ray = Ray(Vec3(1.5, 2.0, -5), Vec3(0.02, -0.03, 1).normalized())
        hit = ray_triangle_intersect(ray, tri)
        if hit is not None:
            p = ray.point_at(hit.t)
            q = (tri.v0 * (1 - hit.u - hit.v) + tri.v1 * hit.u + tri.v2 * hit.v)
            assert (p - q).length() < 1e-6


class TestRaySphere:
    def test_front_hit(self):
        s = Sphere(Vec3(0, 0, 0), 1.0)
        hit = ray_sphere_intersect(Ray(Vec3(0, 0, 5), Vec3(0, 0, -1)), s)
        assert hit is not None
        assert hit.t == pytest.approx(4.0)

    def test_origin_inside_returns_far_root(self):
        s = Sphere(Vec3(0, 0, 0), 1.0)
        hit = ray_sphere_intersect(Ray(Vec3(0, 0, 0), Vec3(0, 0, -1)), s)
        assert hit is not None
        assert hit.t == pytest.approx(1.0)

    def test_miss(self):
        s = Sphere(Vec3(0, 0, 0), 1.0)
        assert ray_sphere_intersect(Ray(Vec3(0, 5, 5), Vec3(0, 0, -1)), s) is None

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            Sphere(Vec3(), -1.0)

    def test_bounds_enclose_sphere(self):
        s = Sphere(Vec3(1, 2, 3), 0.5)
        b = s.bounds()
        assert b.lo == Vec3(0.5, 1.5, 2.5)
        assert b.hi == Vec3(1.5, 2.5, 3.5)


class TestPointDistance:
    def test_below_threshold(self):
        assert point_distance_below(Vec3(0, 0, 0), Vec3(1, 0, 0), 1.5)

    def test_at_threshold_is_not_below(self):
        assert not point_distance_below(Vec3(0, 0, 0), Vec3(1, 0, 0), 1.0)

    def test_matches_sqrt_distance(self):
        a, b = Vec3(1, 2, 3), Vec3(4, 6, 3)
        d = math.sqrt((b - a).length_squared())
        assert point_distance_below(a, b, d + 1e-9)
        assert not point_distance_below(a, b, d - 1e-9)


# -- batch-kernel parity ------------------------------------------------------
#
# repro.geometry.batch promises results *bit-identical* to the scalar
# Point-to-Point test on every lane; the RTNN golden oracle relies on it.

def _rand_vec(rng, scale=10.0):
    return Vec3(rng.uniform(-scale, scale), rng.uniform(-scale, scale),
                rng.uniform(-scale, scale))


class TestBatchPointParity:
    def test_random_sweep_with_exact_threshold(self):
        rng = random.Random(303)
        query = _rand_vec(rng, 2.0)
        radius = 4.0
        points = [_rand_vec(rng, 6.0) for _ in range(200)]
        # Points at *exactly* the threshold distance: strict < must agree.
        points.append(query + Vec3(radius, 0.0, 0.0))
        points.append(query + Vec3(0.0, -radius, 0.0))
        soa = points_soa(points)
        q = np.array((query.x, query.y, query.z))
        mask = point_distance_below_batch(q, soa, radius)
        for i, p in enumerate(points):
            assert bool(mask[i]) == point_distance_below(query, p, radius)
