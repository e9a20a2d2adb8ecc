import csv
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clnce.clusters import (
    ClusterAssignment,
    _kmeans_pp_init,
    _nearest,
    attribute_entropy,
    clusters_from_attributes,
    clusters_from_hierarchy,
    clusters_from_labels,
    clusters_instance_id,
    coarsen_clusters,
    kmeans,
    permute_clusters,
    refine_clusters,
    save_assignment,
)
from clnce.data import Dataset, HierarchyGraph, load_hierarchy
from clnce.errors import DataError, GraphError, NumericError, ParameterError, SizeError
from clnce.info import conditional_entropy, empirical_joint

from oracles import kmeans_pp_init_reference, kmeans_reference


def is_refinement(fine, coarse):
    """Every fine cluster lies inside a single coarse cluster."""
    mapping = {}
    for f, c in zip(fine, coarse):
        if f in mapping and mapping[f] != c:
            return False
        mapping[f] = c
    return True


class TestAttributeEntropy:
    def test_degenerate(self):
        assert attribute_entropy(np.array([0, 0, 0, 0])) == 0.0

    def test_uniform(self):
        assert attribute_entropy(np.array([0, 1, 0, 1])) == pytest.approx(
            np.log(2), abs=1e-12
        )

    def test_quarter(self):
        # -0.25*ln(0.25) - 0.75*ln(0.75)
        col = np.array([1, 0, 0, 0])
        assert attribute_entropy(col) == pytest.approx(0.562335, abs=1e-6)

    def test_empty(self):
        with pytest.raises(SizeError):
            attribute_entropy(np.array([], dtype=int))

    def test_ranking_uniform_beats_skewed(self):
        uniform = np.array([0, 1] * 10)
        skewed = np.array([0] * 18 + [1] * 2)
        assert attribute_entropy(uniform) > attribute_entropy(skewed)


class TestAttributeClusters:
    def test_single_attribute(self):
        ca = clusters_from_attributes(np.array([[0], [0], [1]]), 1)
        assert ca.assignment.tolist() == [0, 0, 1]
        assert ca.num_clusters == 2

    def test_distinct_patterns_refinement_limit(self):
        attrs = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        ca = clusters_from_attributes(attrs, 2)
        assert ca.num_clusters == 4

    def test_entropy_ranking_selects_columns(self):
        # entropies: col0 = ln2 (p=1/2), col1 = 0, col2 = H(1/4)
        attrs = np.array([
            [0, 1, 0],
            [0, 1, 0],
            [1, 1, 0],
            [1, 1, 1],
        ])
        ca = clusters_from_attributes(attrs, 2)
        # selected columns {0, 2}; expected clusters by brute-force patterns
        expected, _ = np.unique(
            [tuple(r) for r in attrs[:, [0, 2]]], axis=0, return_inverse=True
        ), None
        patterns = [tuple(r) for r in attrs[:, [0, 2]]]
        seen = {}
        want = [seen.setdefault(p, len(seen)) for p in patterns]
        assert ca.assignment.tolist() == want
        assert ca.num_clusters == 3

    def test_equal_entropy_keeps_the_lower_column_first(self):
        # columns 1, 2 and 3 tie at H(1/4) = H(3/4), above column 0's 0;
        # k = 2 keeps columns 1 and 2, whose patterns split rows 0-2 apart
        attrs = np.array([
            [0, 1, 1, 0],
            [0, 1, 0, 1],
            [0, 0, 1, 1],
            [0, 0, 0, 1],
            [0, 0, 0, 1],
            [0, 0, 0, 1],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
        ])
        entropies = [attribute_entropy(attrs[:, j]) for j in range(4)]
        assert entropies[1] == entropies[2] == entropies[3] > entropies[0]
        ca = clusters_from_attributes(attrs, 2)
        assert ca.assignment.tolist() == [0, 1, 2, 3, 3, 3, 3, 3]

    def test_k_bounds(self):
        attrs = np.array([[0, 1], [1, 0]])
        with pytest.raises(ParameterError):
            clusters_from_attributes(attrs, 0)
        with pytest.raises(ParameterError):
            clusters_from_attributes(attrs, 3)

    def test_increasing_k_refines(self):
        rng = np.random.default_rng(11)
        attrs = rng.integers(0, 2, size=(40, 6))
        for k in range(1, 6):
            fine = clusters_from_attributes(attrs, k + 1).assignment
            coarse = clusters_from_attributes(attrs, k).assignment
            assert is_refinement(fine, coarse)


def three_level_tree():
    # root -> g0, g1; g0 -> l0, l1; g1 -> l2, l3
    return HierarchyGraph(
        edges=(
            ("root", "g0"), ("root", "g1"),
            ("g0", "l0"), ("g0", "l1"), ("g1", "l2"), ("g1", "l3"),
        ),
        leaf_label_map={"l0": 0, "l1": 1, "l2": 2, "l3": 3},
    )


class TestHierarchyClusters:
    def setup_method(self):
        self.tree = three_level_tree()
        self.d = Dataset(
            features=np.zeros((8, 1)), labels=np.array([0, 1, 2, 3, 0, 1, 2, 3])
        )

    def test_root_level_single_cluster(self):
        ca = clusters_from_hierarchy(self.tree, 1, self.d)
        assert ca.num_clusters == 1

    def test_leaf_level_equals_labels(self):
        ca = clusters_from_hierarchy(self.tree, 3, self.d)
        joint = empirical_joint(ca.assignment, self.d.labels)
        assert conditional_entropy(joint) == pytest.approx(0.0, abs=1e-12)
        assert ca.num_clusters == 4

    def test_mid_level_groups_siblings(self):
        ca = clusters_from_hierarchy(self.tree, 2, self.d)
        assert ca.num_clusters == 2
        a = ca.assignment
        assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]

    def test_decreasing_level_coarsens(self):
        for level in (2, 3):
            fine = clusters_from_hierarchy(self.tree, level, self.d).assignment
            coarse = clusters_from_hierarchy(self.tree, level - 1, self.d).assignment
            mapping = {}
            for f, c in zip(fine, coarse):
                assert mapping.setdefault(f, c) == c

    def test_bad_level(self):
        with pytest.raises(ParameterError):
            clusters_from_hierarchy(self.tree, 0, self.d)

    def test_longest_path_parent_kept(self):
        # L has parents s (depth 2) and d3 (depth 3); its ancestors are read
        # along root -> d2 -> d3 -> L, so at level 2 it leaves s's leaf M
        g = HierarchyGraph(
            edges=(
                ("root", "s"), ("root", "d2"), ("d2", "d3"),
                ("s", "L"), ("d3", "L"), ("s", "M"),
            ),
            leaf_label_map={"L": 0, "M": 1},
        )
        d = Dataset(features=np.zeros((2, 1)), labels=np.array([0, 1]))
        for level in (2, 3):
            assert clusters_from_hierarchy(g, level, d).assignment.tolist() == [0, 1]
        assert clusters_from_hierarchy(g, 4, d).num_clusters == 2
        with pytest.raises(ParameterError, match="max leaf depth 4"):
            clusters_from_hierarchy(g, 5, d)

    def test_tied_parents_keep_the_smallest_id(self):
        # L's parents A and B are both at depth 2: L joins A's leaf N, not B's M
        g = HierarchyGraph(
            edges=(
                ("root", "A"), ("root", "B"), ("A", "L"), ("B", "L"),
                ("B", "M"), ("A", "N"),
            ),
            leaf_label_map={"L": 0, "M": 1, "N": 2},
        )
        d = Dataset(features=np.zeros((3, 1)), labels=np.array([0, 1, 2]))
        assert clusters_from_hierarchy(g, 2, d).assignment.tolist() == [0, 1, 0]

    def test_names_that_differ_only_in_trailing_nuls_stay_apart(self, tmp_path):
        # a numpy str array of the names would read "g\0" as "g"
        path = tmp_path / "h.tsv"
        path.write_text("root\tg\nroot\tg\0\ng\tl0\ng\0\tl1\n#labels\nl0\t0\nl1\t1\n")
        g = load_hierarchy(str(path))
        d = Dataset(features=np.zeros((3, 1)), labels=np.array([1, 0, 1]))
        ca = clusters_from_hierarchy(g, 2, d)
        assert ca.num_clusters == 2
        assert ca.assignment.tolist() == [0, 1, 0]

    def test_bad_graph_refused_before_a_bad_level(self):
        g = HierarchyGraph(edges=(("r1", "L"), ("r2", "M")), leaf_label_map={"L": 0, "M": 1})
        d = Dataset(features=np.zeros((2, 1)), labels=np.array([0, 1]))
        with pytest.raises(GraphError, match="one root"):
            clusters_from_hierarchy(g, 0, d)

    @pytest.mark.parametrize("shape", ["two_roots", "cycle", "cycle_below_root"])
    def test_not_a_tree(self, shape):
        d = Dataset(features=np.zeros((2, 1)), labels=np.array([0, 0]))
        g = {
            "two_roots": HierarchyGraph(
                edges=(("r1", "L"), ("r2", "M")),
                leaf_label_map={"L": 0, "M": 1},
            ),
            # one root, one parent per node, and a cycle beside the root
            "cycle": HierarchyGraph(
                edges=(("root", "L"), ("a", "b"), ("b", "a")),
                leaf_label_map={"L": 0},
            ),
            # a reaches b and b reaches a, both below the root
            "cycle_below_root": HierarchyGraph(
                edges=(("root", "a"), ("a", "b"), ("b", "a")),
                leaf_label_map={},
            ),
        }[shape]
        with pytest.raises(GraphError, match={
            "two_roots": "one root", "cycle": "cycle", "cycle_below_root": "cycle",
        }[shape]):
            clusters_from_hierarchy(g, 1, d)


class TestKMeans:
    def test_k1_is_mean(self):
        pts = np.random.default_rng(0).normal(size=(12, 3))
        res = kmeans(pts, 1, seed=0)
        np.testing.assert_allclose(res.centroids[0], pts.mean(axis=0), atol=1e-12)
        assert res.assignment.assignment.tolist() == [0] * 12

    def test_stops_only_when_the_gain_is_below_tol(self):
        # K = 1 converges at iteration 2, after which each iteration gains
        # exactly 0: at tol 0 that is not below tol, so every iteration runs
        pts = np.random.default_rng(0).normal(size=(12, 3))
        res = kmeans(pts, 1, max_iters=5, tol=0.0, seed=0)
        first, converged = res.inertia_history[:2]
        assert first > converged
        assert res.iterations_run == 5
        assert res.inertia_history == (first,) + (converged,) * 4
        res = kmeans(pts, 1, max_iters=5, tol=1e-8, seed=0)
        assert res.iterations_run == 3
        assert res.inertia_history == (first, converged, converged)

    def test_empty_cluster_reseeded_at_the_farthest_row(self):
        # 17 rows near the origin and 3 far out: a Lloyd step empties one
        # cluster, whose centroid must move to the row farthest from its own
        rng = np.random.default_rng(29422)
        rng.integers(8, 40), rng.integers(3, 6)
        pts = np.vstack([rng.normal(size=(17, 2)) * 0.1, rng.normal(size=(3, 2)) * 5])
        got = kmeans(pts, 3, max_iters=20, seed=29422)
        want = kmeans_reference(pts, 3, max_iters=20, seed=29422)
        assert got.inertia_history[-1] == 31.185639020873253
        assert got.inertia_history == want.inertia_history
        assert got.centroids.tobytes() == want.centroids.tobytes()
        np.testing.assert_array_equal(got.assignment.assignment, want.assignment.assignment)

    def test_duplicated_locations_zero_inertia(self):
        locs = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        pts = np.repeat(locs, 5, axis=0)
        res = kmeans(pts, 3, seed=1)
        assert res.inertia_history[-1] == pytest.approx(0.0, abs=1e-20)
        assert len(set(res.assignment.assignment[::5].tolist())) == 3

    def test_matches_brute_force_two_clusters(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(6, 2))
        best = np.inf
        for mask in itertools.product([0, 1], repeat=6):
            mask = np.array(mask)
            if mask.min() == mask.max():
                continue
            inertia = 0.0
            for j in (0, 1):
                grp = pts[mask == j]
                inertia += ((grp - grp.mean(axis=0)) ** 2).sum()
            best = min(best, inertia)
        res = kmeans(pts, 2, max_iters=200, seed=3)
        assert res.inertia_history[-1] == pytest.approx(best, rel=1e-9)

    def test_inertia_non_increasing(self):
        pts = np.random.default_rng(8).normal(size=(60, 4))
        res = kmeans(pts, 5, seed=2)
        hist = res.inertia_history
        assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_determinism(self):
        pts = np.random.default_rng(8).normal(size=(40, 3))
        r1 = kmeans(pts, 4, seed=7)
        r2 = kmeans(pts, 4, seed=7)
        np.testing.assert_array_equal(r1.centroids, r2.centroids)
        np.testing.assert_array_equal(
            r1.assignment.assignment, r2.assignment.assignment
        )
        assert r1.inertia_history == r2.inertia_history

    def test_recomputed_inertia_matches(self):
        pts = np.random.default_rng(4).normal(size=(30, 2))
        res = kmeans(pts, 3, seed=0)
        a = res.assignment.assignment
        recomputed = sum(
            ((pts[i] - res.centroids[a[i]]) ** 2).sum() for i in range(30)
        )
        assert res.inertia_history[-1] == pytest.approx(recomputed, rel=1e-12)

    def test_nearest_centroid_assignment(self):
        pts = np.random.default_rng(4).normal(size=(30, 2))
        res = kmeans(pts, 3, seed=0)
        d2 = ((pts[:, None, :] - res.centroids[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(res.assignment.assignment, d2.argmin(axis=1))

    def test_errors(self):
        with pytest.raises(ParameterError):
            kmeans(np.zeros((3, 2)), 4, seed=0)
        with pytest.raises(NumericError):
            kmeans(np.array([[np.nan, 0.0]]), 1, seed=0)

    def test_fewer_distinct_rows_than_k_is_refused(self):
        # the repairs cannot fill a third cluster from two distinct rows
        pts = np.repeat([[0.0], [1.0]], 3, axis=0)
        with pytest.raises(ParameterError, match=r"kmeans\(3\): cluster \d has no rows"):
            kmeans(pts, 3, seed=0)

    def test_memory_stays_below_one_copy_of_the_points(self):
        # beyond its input, kmeans holds O(nK) floats, one block of rows and
        # one cluster's rows at a time: never an (n, D) temporary
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20000, 64)) + 8.0 * (np.arange(20000) % 3)[:, None]
        tracemalloc.start()
        try:
            kmeans(pts, 3, max_iters=3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pts.nbytes


@st.composite
def lloyd_inputs(draw):
    """Points that stress the GEMM distance search: integer-grid ties,
    duplicated rows, and large offsets that cancel in ||x||^2 - 2x.c + ||c||^2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 30))
    dim = draw(st.integers(1, 6))
    if draw(st.booleans()):
        base = rng.integers(-2, 3, size=(rows, dim)).astype(float)
    else:
        base = rng.normal(size=(rows, dim))
    pts = np.repeat(base, draw(st.integers(1, 3)), axis=0)
    pts = pts * draw(st.sampled_from([1e-3, 1.0, 7.0]))
    pts = pts + draw(st.sampled_from([0.0, 1e4, -1e8]))
    K = draw(st.integers(1, min(pts.shape[0], 8)))
    return pts, K, draw(st.integers(0, 1000))


def outcome(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the message of the ParameterError it raises."""
    try:
        return fn(*args, **kwargs)
    except ParameterError as exc:
        return str(exc)


def assert_kmeans_matches_oracle(pts, K, **kwargs):
    """kmeans and the broadcast oracle give the same result bit for bit, or
    both refuse with the same ParameterError."""
    got, want = (outcome(fn, pts, K, **kwargs) for fn in (kmeans, kmeans_reference))
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    np.testing.assert_array_equal(got.assignment.assignment, want.assignment.assignment)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.inertia_history == want.inertia_history
    assert got.iterations_run == want.iterations_run


class TestKMeansProperties:
    @settings(max_examples=150)
    @given(lloyd_inputs(), st.sampled_from([1, 3, 30]))
    def test_bit_identical_to_broadcast_oracle(self, inputs, max_iters):
        pts, K, seed = inputs
        assert_kmeans_matches_oracle(pts, K, max_iters=max_iters, seed=seed)

    @settings(max_examples=150)
    @given(lloyd_inputs(), st.data())
    def test_seeding_bit_identical_to_direct_oracle(self, inputs, data):
        pts, _, seed = inputs
        K = data.draw(st.integers(1, pts.shape[0]), label="K")
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        got = _kmeans_pp_init(pts, (pts**2).sum(axis=1), K, rng)[0]
        want = kmeans_pp_init_reference(pts, K, ref_rng)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=150)
    @given(lloyd_inputs(), st.data())
    def test_seeding_nearest_is_the_lloyd_search_on_its_centroids(self, inputs, data):
        # kmeans takes the seeding's (nearest, d2) as its first iteration's
        # (assign, dist) in place of a _nearest call
        pts, _, seed = inputs
        K = data.draw(st.integers(1, pts.shape[0]), label="K")
        pts_sq = (pts**2).sum(axis=1)
        centroids, nearest, d2 = _kmeans_pp_init(pts, pts_sq, K, np.random.default_rng(seed))
        assign, dist = _nearest(pts, pts_sq, centroids)
        assert nearest.tolist() == assign.tolist()
        assert d2.tobytes() == dist.tobytes()

    @settings(max_examples=100)
    @given(lloyd_inputs(), st.sampled_from([1e-162, 3e-160, 1e-155]))
    def test_underflowing_products_stay_exact(self, inputs, scale):
        # squares near the subnormal range round with an absolute error
        # that no relative bound covers
        pts, K, seed = inputs
        assert_kmeans_matches_oracle(pts * scale, K, max_iters=3, seed=seed)

    @settings(max_examples=150)
    @given(lloyd_inputs(), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_nearest_breaks_ties_to_lowest_index(self, inputs, K, seed):
        pts = inputs[0]
        # centroids drawn from the points repeat whenever the points do, so
        # many rows are exactly equidistant from two or more centroids
        rng = np.random.default_rng(seed)
        centroids = pts[rng.integers(pts.shape[0], size=K)]
        assign, dist = _nearest(pts, (pts**2).sum(axis=1), centroids)
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        lowest = [int(np.flatnonzero(row == row.min())[0]) for row in d2]
        assert assign.tolist() == lowest
        assert dist.tobytes() == d2[np.arange(pts.shape[0]), assign].tobytes()

    @settings(max_examples=150)
    @given(lloyd_inputs())
    def test_inertia_never_increases(self, inputs):
        pts, K, seed = inputs
        result = outcome(kmeans, pts, K, max_iters=30, tol=-1.0, seed=seed)
        if isinstance(result, str):  # an empty cluster is refused only when it cannot be filled
            assert np.unique(pts, axis=0).shape[0] < K, result
            return
        hist = result.inertia_history
        n, dim = pts.shape
        eps = np.finfo(np.float64).eps
        # a step can only gain what rounding of the centroid means and of the
        # distance sums adds
        slack = 4 * n * dim * (eps * np.abs(pts).max()) ** 2
        for a, b in zip(hist, hist[1:]):
            assert b <= a + slack + 8 * (n + dim) * eps * a


class TestLabelAndInstanceClusters:
    def test_labels(self):
        ca = clusters_from_labels(np.array([0, 1, 0]))
        assert ca.assignment.tolist() == [0, 1, 0]
        assert ca.num_clusters == 2
        assert ca.provenance == "labels"

    def test_instance_id(self):
        ca = clusters_instance_id(3)
        assert ca.assignment.tolist() == [0, 1, 2]
        assert ca.num_clusters == 3

    def test_degenerate_labels(self):
        ca = clusters_from_labels(np.array([2, 2, 2]))
        assert ca.num_clusters == 1
        assert ca.assignment.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("assignment, num_clusters, provenance, message", [
        ([[0, 1]], 2, "labels", "assignment must be a vector"),
        ([0, 2], 2, "labels", r"cluster id outside \[0, num_clusters\)"),
        ([0, 1], 3, "labels", "labels: cluster 2 has no rows"),
        ([0, 0], 2, "instance_id", "instance_id: cluster 1 has no rows"),
    ], ids=["not_a_vector", "id_out_of_range", "more_clusters_than_samples",
            "instance_id_not_a_bijection"])
    def test_invalid_assignment(self, assignment, num_clusters, provenance, message):
        with pytest.raises(ParameterError, match=message):
            ClusterAssignment(np.array(assignment), num_clusters, provenance)

    @pytest.mark.parametrize("assignment, num_clusters", [([], -1), ([0, 1], 2.0), ([0], True)],
                             ids=["negative", "float", "bool"])
    def test_cluster_count_is_a_non_negative_int(self, assignment, num_clusters):
        # refused before np.bincount sees it, which would raise ValueError or TypeError
        with pytest.raises(ParameterError, match="is not a non-negative int"):
            ClusterAssignment(np.array(assignment, dtype=np.int64), num_clusters, "x")

    def test_caller_array_stays_writeable(self):
        # the ids are copied, so the caller's later writes cannot reach member_layout
        ids = np.array([0, 1, 0], dtype=np.int64)
        ca = ClusterAssignment(ids, 2, "labels")
        sizes, members, _ = ca.member_layout
        ids[0] = 1
        assert ca.assignment.tolist() == [0, 1, 0]
        assert not ca.assignment.flags.writeable
        assert sizes.tolist() == [2, 1] and members.tolist() == [0, 2, 1]

    def test_instance_id_has_one_cluster_per_row(self):
        # no cluster of [0, 1, 1] is empty, but two clusters over three rows
        # cannot pair each row with only itself
        with pytest.raises(ParameterError, match="instance_id assignment must be a bijection"):
            ClusterAssignment(np.array([0, 1, 1]), 2, "instance_id")


@pytest.mark.parametrize("build, error, message", [
    (lambda: clusters_from_labels(np.array([], dtype=np.int64)),
     ParameterError, "labels must be a non-empty vector"),
    (lambda: clusters_from_labels(np.array([0, -1])),
     ParameterError, "labels must be non-negative"),
    (lambda: clusters_instance_id(0), ParameterError, "n must be >= 1"),
    (lambda: attribute_entropy(np.array([0, 2])),
     ParameterError, "attribute entries must be 0 or 1"),
    (lambda: clusters_from_attributes(np.array([0, 1]), 1),
     ParameterError, "attribute matrix must be 2-D"),
    (lambda: clusters_from_hierarchy(three_level_tree(), 1, Dataset(features=np.zeros((2, 1)))),
     DataError, "dataset has no labels"),
    (lambda: clusters_from_hierarchy(
        three_level_tree(), 2, Dataset(features=np.zeros((4, 1)), labels=np.array([0, 7, 5, 1]))),
     DataError, "^label 7 has no leaf in the hierarchy$"),
    (lambda: permute_clusters(np.array([0, 1, 0]), clusters_from_labels(np.array([0, 1])), [], 0),
     ParameterError, "base assignment length mismatch"),
    (lambda: kmeans(np.eye(3), 2, max_iters=0), ParameterError, "max_iters must be >= 1"),
    # the smallest square (n, K) distance table past 2**27 cells; rows whose
    # distances overflow show it is refused before the seeding forms any
    (lambda: kmeans(np.linspace(-1e200, 1e200, 11586)[:, None], 11586),
     SizeError, r"^K=11586 on 11586 rows: a dense \(11586, 11586\) array has more than"),
    (lambda: refine_clusters(np.array([0, 1]), 0, seed=0),
     ParameterError, "splits_per_class must be >= 1"),
], ids=["labels_empty", "labels_negative", "instance_id_zero", "entropy_not_binary",
        "attributes_1d", "hierarchy_unlabeled", "hierarchy_label_without_leaf",
        "permute_length_mismatch", "kmeans_no_iterations", "kmeans_table_too_large",
        "refine_no_splits"])
def test_rejected_input(build, error, message):
    with pytest.raises(error, match=message):
        build()


class TestSynthesize:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.labels = np.repeat(np.arange(5), 12)
        rng.shuffle(self.labels)

    def test_refine_one_is_labels(self):
        ca = refine_clusters(self.labels, 1, seed=0)
        joint = empirical_joint(ca.assignment, self.labels)
        assert conditional_entropy(joint) == pytest.approx(0.0, abs=1e-12)
        assert conditional_entropy(joint.T) == pytest.approx(0.0, abs=1e-12)

    def test_refine_even_split_conditional_entropy(self):
        ca = refine_clusters(self.labels, 4, seed=0)
        joint = empirical_joint(ca.assignment, self.labels)
        assert conditional_entropy(joint) == pytest.approx(
            np.log(4), abs=1e-12
        )

    def test_refine_to_singletons_is_instance_like(self):
        labels = np.repeat(np.arange(5), 3)
        ca = refine_clusters(labels, 3, seed=1)
        assert ca.num_clusters == 15
        assert len(set(ca.assignment.tolist())) == 15

    def test_coarsen_zero_conditional_entropy(self):
        groups = [[0, 1], [2, 3], [4]]
        ca = coarsen_clusters(self.labels, groups)
        joint = empirical_joint(ca.assignment, self.labels)
        assert conditional_entropy(joint) == pytest.approx(0.0, abs=1e-15)
        assert ca.num_clusters == 3

    def test_coarsen_bad_partition(self):
        with pytest.raises(ParameterError):
            coarsen_clusters(self.labels, [[0, 1], [1, 2, 3, 4]])
        with pytest.raises(ParameterError):
            coarsen_clusters(self.labels, [[0, 1]])

    def test_coarsen_empty_group(self):
        with pytest.raises(ParameterError,
                           match=r"synthetic\(coarsen,2\): cluster 1 has no rows"):
            coarsen_clusters(self.labels, [[0, 1, 2, 3, 4], []])

    def test_permute_keeps_fixed_classes(self):
        base = refine_clusters(self.labels, 2, seed=0)
        out = permute_clusters(self.labels, base, fixed_class_set=[0, 1], seed=9)
        fixed = np.isin(self.labels, [0, 1])
        np.testing.assert_array_equal(out.assignment[fixed], base.assignment[fixed])
        assert out.num_clusters == base.num_clusters


class TestAssignmentExport:
    def test_round_trip(self, tmp_path):
        ca = clusters_from_labels(np.array([0, 2, 1, 0]))
        path = str(tmp_path / "clusters.csv")
        ids = ["a\rb", "b", 'c"\r', "d,\n"]
        save_assignment(ca, ids, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "cluster"]
        assert [r[0] for r in rows[1:]] == ids
        np.testing.assert_array_equal([int(r[1]) for r in rows[1:]], ca.assignment)
        with open(path + ".json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        assert sidecar == {"num_clusters": ca.num_clusters, "provenance": ca.provenance}

    @pytest.mark.parametrize("build", [
        lambda: kmeans(np.arange(12.0).reshape(6, 2), np.int64(3), seed=0).assignment,
        lambda: clusters_instance_id(np.int64(4)),
        lambda: refine_clusters(np.array([0, 0, 1, 1]), np.int64(2), 0),
    ], ids=["kmeans", "instance_id", "refine"])
    def test_numpy_count_is_stored_as_int(self, tmp_path, build):
        ca = build()
        assert type(ca.num_clusters) is int
        path = str(tmp_path / "clusters.csv")
        save_assignment(ca, [str(i) for i in range(ca.num_samples)], path)
        with open(path + ".json", encoding="utf-8") as fh:
            assert json.load(fh) == {"num_clusters": ca.num_clusters, "provenance": ca.provenance}
