import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clnce.clusters import (
    ClusterAssignment,
    clusters_from_labels,
    clusters_instance_id,
)
from clnce.errors import NumericError, ParameterError, ShapeError
from clnce.objective import cl_infonce, critic_backward, critic_matrix, sample_pair_batch

from oracles import infonce_loss_reference, sample_pair_batch_reference


def unit_rows(n, d, seed):
    v = np.random.default_rng(seed).normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestSampler:
    def test_instance_id_pairs_are_self_pairs(self):
        clusters = clusters_instance_id(20)
        x, y = sample_pair_batch(clusters, 8, np.random.default_rng(0))
        np.testing.assert_array_equal(x, y)

    def test_single_cluster_uniform(self):
        clusters = ClusterAssignment(np.zeros(50, dtype=int), 1, "labels")
        rng = np.random.default_rng(1)
        x, y = sample_pair_batch(clusters, 1000, rng)
        # x and y drawn independently: some pairs differ
        assert (x != y).any()

    def test_cluster_frequency_matches_sizes(self):
        assign = np.array([0, 0, 0, 1])
        clusters = ClusterAssignment(assign, 2, "labels")
        rng = np.random.default_rng(2)
        x, _ = sample_pair_batch(clusters, 100_000, rng)
        freq0 = (assign[x] == 0).mean()
        assert abs(freq0 - 0.75) < 0.01

    def test_pairs_share_cluster(self):
        labels = np.random.default_rng(3).integers(0, 4, size=30)
        clusters = clusters_from_labels(labels)
        x, y = sample_pair_batch(clusters, 64, np.random.default_rng(4))
        np.testing.assert_array_equal(clusters.assignment[x], clusters.assignment[y])

    def test_batch_too_small(self):
        with pytest.raises(ParameterError):
            sample_pair_batch(clusters_instance_id(5), 1, np.random.default_rng(0))


class TestSamplerProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=40),
        st.integers(2, 64),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_scalar_oracle(self, sizes, n, seed):
        assign = np.repeat(np.arange(len(sizes)), sizes)
        np.random.default_rng(seed).shuffle(assign)
        clusters = ClusterAssignment(assign, len(sizes), "labels")
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_pair_batch(clusters, n, rng)
        want = sample_pair_batch_reference(clusters, n, ref_rng)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        # the generator is left where the scalar loop leaves it
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        np.testing.assert_array_equal(assign[got[0]], assign[got[1]])


class TestCritic:
    def test_self_similarity(self):
        v = unit_rows(3, 4, 0)
        s = critic_matrix(v, v, 0.2)
        np.testing.assert_allclose(np.diag(s), 1 / 0.2, atol=1e-12)

    def test_orthogonal_rows(self):
        px = np.array([[1.0, 0.0]])
        py = np.array([[0.0, 1.0]])
        s = critic_matrix(px, py, 0.5)
        assert s[0, 0] == 0.0

    def test_low_temperature_value(self):
        # cosine 0.5 at temperature 0.07
        px = np.array([[1.0, 0.0]])
        py = np.array([[0.5, math.sqrt(3) / 2]])
        s = critic_matrix(px, py, 0.07)
        assert s[0, 0] == pytest.approx(7.142857, abs=1e-6)

    def test_bounds(self):
        px, py = unit_rows(10, 6, 1), unit_rows(10, 6, 2)
        s = critic_matrix(px, py, 0.1)
        assert (np.abs(s) <= 1 / 0.1 + 1e-12).all()

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan")])
    def test_temperature_positive(self, temperature):
        v = unit_rows(3, 4, 0)
        with pytest.raises(ParameterError, match="temperature must be > 0"):
            critic_matrix(v, v, temperature)

    def test_scores_that_overflow(self):
        # a cosine of 1 over a subnormal temperature is past the largest float
        v = unit_rows(3, 4, 0)
        with pytest.raises(NumericError, match="non-finite scores"):
            critic_matrix(v, v, 5e-309)


def naive_loss(scores):
    """Unstabilized straight evaluation used as an oracle."""
    n = scores.shape[0]
    total = 0.0
    for i in range(n):
        denom = sum(math.exp(scores[i, j]) for j in range(n)) / n
        total += scores[i, i] - math.log(denom)
    return -total / n


class TestLoss:
    def test_constant_scores_zero_loss(self):
        for c in (-3.0, 0.0, 7.5):
            s = np.full((5, 5), c)
            assert cl_infonce(s)[0] == pytest.approx(0.0, abs=1e-12)

    def test_two_sample_closed_form(self):
        s, t = 1.3, -0.4
        scores = np.array([[s, t], [t, s]])
        expected = -(s - math.log((math.exp(s) + math.exp(t)) / 2))
        assert cl_infonce(scores)[0] == pytest.approx(expected, abs=1e-12)

    def test_matches_naive_evaluation(self):
        scores = np.random.default_rng(0).normal(size=(4, 4))
        assert cl_infonce(scores)[0] == pytest.approx(naive_loss(scores), abs=1e-10)

    def test_shift_invariance(self):
        scores = np.random.default_rng(1).normal(size=(6, 6))
        l1 = cl_infonce(scores)[0]
        l2 = cl_infonce(scores + 123.456)[0]
        assert l1 == pytest.approx(l2, abs=1e-10)

    def test_stable_at_small_temperature(self):
        px, py = unit_rows(8, 4, 3), unit_rows(8, 4, 4)
        s = critic_matrix(px, py, 0.01)
        assert np.isfinite(cl_infonce(s)[0])

    def test_objective_bounded_by_log_n(self):
        for seed in range(20):
            scores = np.random.default_rng(seed).normal(size=(8, 8)) * 5
            objective = -cl_infonce(scores)[0]
            assert objective <= math.log(8) + 1e-9

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        px, py = unit_rows(6, 4, 6), unit_rows(6, 4, 7)
        perm = rng.permutation(6)
        l1 = cl_infonce(critic_matrix(px, py, 0.3))[0]
        l2 = cl_infonce(critic_matrix(px[perm], py[perm], 0.3))[0]
        assert l1 == pytest.approx(l2, abs=1e-12)

    def test_non_finite_rejected(self):
        s = np.zeros((3, 3))
        s[1, 2] = np.inf
        with pytest.raises(NumericError):
            cl_infonce(s)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            cl_infonce(np.zeros((3, 4)))


class TestGrad:
    def test_rows_sum_to_zero(self):
        scores = np.random.default_rng(0).normal(size=(5, 5))
        _, g = cl_infonce(scores)
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-15)

    def test_uniform_scores_values(self):
        _, g = cl_infonce(np.zeros((4, 4)))
        assert g[0, 0] == pytest.approx(-0.1875, abs=1e-15)
        assert g[0, 1] == pytest.approx(0.0625, abs=1e-15)

    def test_finite_differences(self):
        scores = np.random.default_rng(2).normal(size=(5, 5))
        _, g = cl_infonce(scores)
        eps = 1e-6
        for i in range(5):
            for j in range(5):
                sp = scores.copy()
                sp[i, j] += eps
                sm = scores.copy()
                sm[i, j] -= eps
                fd = (cl_infonce(sp)[0] - cl_infonce(sm)[0]) / (2 * eps)
                scale = max(abs(fd), abs(g[i, j]), 1e-10)
                assert abs(fd - g[i, j]) / scale < 1e-6

    def test_critic_backward_finite_differences(self):
        t = 0.4
        px, py = unit_rows(4, 3, 8), unit_rows(4, 3, 9)
        _, g = cl_infonce(critic_matrix(px, py, t))
        g_px, g_py = critic_backward(g, px, py, t)
        eps = 1e-6
        for i in range(4):
            for k in range(3):
                pp = px.copy()
                pp[i, k] += eps
                pm = px.copy()
                pm[i, k] -= eps
                fd = (
                    cl_infonce(critic_matrix(pp, py, t))[0]
                    - cl_infonce(critic_matrix(pm, py, t))[0]
                ) / (2 * eps)
                assert fd == pytest.approx(g_px[i, k], abs=1e-7)


class TestSpecializations:
    def test_infonce_at_instance_id(self):
        # two views of the same instances: loss equals standard InfoNCE
        clusters = clusters_instance_id(12)
        rng = np.random.default_rng(0)
        x, y = sample_pair_batch(clusters, 6, rng)
        px = unit_rows(12, 5, 1)[x]
        py = unit_rows(12, 5, 2)[y]
        ours = cl_infonce(critic_matrix(px, py, 0.1))[0]
        reference = infonce_loss_reference(px, py, 0.1)
        assert ours == pytest.approx(reference, abs=1e-12)

    def test_supcon_positives_share_label(self):
        labels = np.random.default_rng(1).integers(0, 3, size=40)
        clusters = clusters_from_labels(labels)
        x, y = sample_pair_batch(clusters, 32, np.random.default_rng(2))
        assert (labels[x] == labels[y]).all()
