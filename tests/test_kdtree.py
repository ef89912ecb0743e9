"""Unit and property tests for the k-d tree and kNN search."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.geometry.vec import Vec3
from repro.trees.kdtree import KDTree


def random_points(n, seed=0, span=50.0, dims=3):
    rng = random.Random(seed)
    return [Vec3(rng.uniform(-span, span), rng.uniform(-span, span),
                 rng.uniform(-span, span) if dims == 3 else 0.0)
            for _ in range(n)]


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            KDTree([])

    def test_bad_params(self):
        pts = random_points(8)
        with pytest.raises(ConfigurationError):
            KDTree(pts, dims=4)
        with pytest.raises(ConfigurationError):
            KDTree(pts, max_leaf_size=0)

    def test_all_points_in_leaves(self):
        pts = random_points(500, seed=1)
        tree = KDTree(pts, max_leaf_size=4)
        ids = []
        for node in tree.nodes():
            if node.is_leaf:
                assert len(node.points) <= 4
                ids.extend(node.point_ids)
        assert sorted(ids) == list(range(500))

    def test_balanced_depth(self):
        tree = KDTree(random_points(4096, seed=2), max_leaf_size=8)
        # Median splits: depth ~ log2(4096/8) + 1 = 10; allow slack.
        assert tree.depth() <= 14

    def test_split_separates_points(self):
        tree = KDTree(random_points(200, seed=3), max_leaf_size=2)

        def check(node):
            if node.is_leaf:
                return
            for leaf_pt in _leaf_points(node.left):
                assert leaf_pt.component(node.axis) <= node.split + 1e-12
            for leaf_pt in _leaf_points(node.right):
                assert leaf_pt.component(node.axis) >= node.split - 1e-12
            check(node.left)
            check(node.right)

        def _leaf_points(node):
            if node.is_leaf:
                return list(node.points)
            return _leaf_points(node.left) + _leaf_points(node.right)

        check(tree.root)


class TestKNN:
    def test_matches_brute_force(self):
        pts = random_points(600, seed=4)
        tree = KDTree(pts)
        for q in random_points(30, seed=5):
            got = tree.knn(q, 5).ids
            expected = tree.brute_force_knn(q, 5)
            got_d = sorted((pts[i] - q).length_squared() for i in got)
            exp_d = sorted((pts[i] - q).length_squared() for i in expected)
            assert got_d == pytest.approx(exp_d)

    def test_k_equals_one_finds_self(self):
        pts = random_points(100, seed=6)
        tree = KDTree(pts)
        result = tree.knn(pts[17], 1)
        assert result.ids == (17,)
        assert result.distances[0] == 0.0

    def test_distances_sorted_ascending(self):
        pts = random_points(300, seed=7)
        tree = KDTree(pts)
        result = tree.knn(Vec3(0, 0, 0), 10)
        assert list(result.distances) == sorted(result.distances)

    def test_pruning_reduces_visits(self):
        pts = random_points(2000, seed=8)
        tree = KDTree(pts)
        result = tree.knn(pts[0], 4)
        n_leaves = sum(1 for n in tree.nodes() if n.is_leaf)
        visited_leaves = sum(1 for v in result.visits if v.kind == "leaf")
        assert visited_leaves < n_leaves / 2, "pruning ineffective"

    def test_bad_k(self):
        tree = KDTree(random_points(10))
        with pytest.raises(ConfigurationError):
            tree.knn(Vec3(), 0)

    def test_k_larger_than_tree_returns_all(self):
        pts = random_points(6, seed=9)
        tree = KDTree(pts)
        result = tree.knn(Vec3(), 10)
        assert sorted(result.ids) == list(range(6))


class TestRunnerIntegration:
    def test_knn_platforms_end_to_end(self):
        from repro.harness.runner import run_knn, scaled_config_for
        from repro.workloads import make_knn_workload

        wl = make_knn_workload(n_points=1024, n_queries=128, k=4, seed=10)
        cfg = scaled_config_for(wl.image.size_bytes)
        base = run_knn(wl, "gpu", config=cfg)
        tta = run_knn(wl, "tta", config=cfg)
        tp = run_knn(wl, "ttaplus", config=cfg)
        assert tta.speedup_over(base) > 1.0
        assert tp.speedup_over(base) > 0.8

    def test_bad_platform(self):
        from repro.harness.runner import run_knn
        from repro.workloads import make_knn_workload
        wl = make_knn_workload(n_points=64, n_queries=8, k=2)
        with pytest.raises(ConfigurationError):
            run_knn(wl, "rta")


@given(st.integers(min_value=2, max_value=300),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_property_knn_equals_brute_force(n, k, seed):
    pts = random_points(n, seed=seed)
    tree = KDTree(pts, max_leaf_size=4)
    q = pts[seed % n]
    k = min(k, n)
    got = tree.knn(q, k).ids
    expected = tree.brute_force_knn(q, k)
    got_d = sorted((pts[i] - q).length_squared() for i in got)
    exp_d = sorted((pts[i] - q).length_squared() for i in expected)
    assert got_d == pytest.approx(exp_d)


def test_brute_force_knn_matches_sorted_vec3_reference():
    """The oracle scores points without building Vec3s; it must equal
    the sorted ``(p - q).length_squared()`` scan it replaced, ties
    included: duplicate points give exact distance ties, broken by id."""
    base = random_points(40, seed=11)
    pts = base + base[:10] + [base[3]] * 3
    tree = KDTree(pts, max_leaf_size=4)
    for pid in (0, 7, 12, 41, 50):
        tree.delete_point(pid)
    tree.insert_point(base[3])
    dead = tree._deleted

    def reference(q, k):
        scored = sorted(((p - q).length_squared(), i)
                        for i, p in enumerate(tree.points) if i not in dead)
        return tuple(i for _d, i in scored[:k])

    for q in (base[3], base[20], Vec3(0.0, 0.0, 0.0)):
        for k in range(1, tree.n_live + 1):
            assert tree.brute_force_knn(q, k) == reference(q, k)
