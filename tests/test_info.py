import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clnce.errors import DistributionError, ParameterError, SizeError
from clnce.info import (
    _ATOL,
    BoundChainReport,
    DiscreteJointModel,
    InfoPlanePoint,
    conditional_entropy,
    empirical_joint,
    entropy,
    exact_mixture_kl,
    finite_batch_objective,
    info_plane_point,
    mixture_table,
    mutual_information,
    save_info_plane_csv,
    selection_score,
    verify_bound_chain,
)
from oracles import finite_batch_objective_reference


class TestEmpiricalJoint:
    def test_diagonal(self):
        table = empirical_joint(np.array([0, 1]), np.array([0, 1]))
        np.testing.assert_allclose(table, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)

    def test_constant_z(self):
        table = empirical_joint(np.zeros(4, dtype=int), np.array([0, 1, 2, 1]))
        assert table.shape[0] == 1
        assert (table[0] > 0).sum() == 3

    def test_normalization(self):
        rng = np.random.default_rng(0)
        table = empirical_joint(rng.integers(0, 5, 200), rng.integers(0, 3, 200))
        assert abs(table.sum() - 1.0) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(SizeError):
            empirical_joint(np.array([0, 1]), np.array([0]))

    @pytest.mark.parametrize("z, t", [
        ([-1, 0, 1], [0, 0, 1]),    # np.add.at would wrap -1 onto id 1
        ([0, 1, 2], [0, -1, 0]),
        ([0.7, 1.2], [0, 1]),       # a cast would truncate to ids 0 and 1
        ([0, 1], [0.0, np.nan]),
    ])
    def test_rejects_ids_that_are_not_non_negative_integers(self, z, t):
        with pytest.raises(ParameterError):
            empirical_joint(z, t)
        with pytest.raises(ParameterError):
            info_plane_point(z, t)

    def test_table_too_large_for_the_ids(self):
        with pytest.raises(SizeError, match=r"ids up to 1099511627776: a dense "
                                            r"\(2, 1099511627777\) array"):
            empirical_joint([0, 1], [0, 2**40])
        with pytest.raises(SizeError):
            info_plane_point([2**40, 0], [0, 1])

    def test_integral_float_and_bool_ids_count_as_their_integers(self):
        expected = empirical_joint([0, 1, 1], [1, 0, 1])
        assert (empirical_joint([0.0, 1.0, 1.0], [True, False, True]) == expected).all()


class TestEntropyAndMi:
    def test_bijection(self):
        joint = np.eye(4) / 4
        assert mutual_information(joint) == pytest.approx(np.log(4), abs=1e-12)
        assert conditional_entropy(joint) == pytest.approx(0.0, abs=1e-12)

    def test_independent(self):
        joint = np.outer([0.3, 0.7], [0.25, 0.25, 0.5])
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)

    def test_known_mi_value(self):
        joint = np.array([[0.4, 0.1], [0.1, 0.4]])
        # direct summation oracle: sum p log(p / (pa pb))
        assert mutual_information(joint) == pytest.approx(0.192745, abs=1e-6)

    def test_chain_rule(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = rng.integers(0, 6, size=300)
            t = rng.integers(0, 4, size=300)
            joint = empirical_joint(z, t)
            h_z = entropy(joint.sum(axis=1))
            lhs = mutual_information(joint) + conditional_entropy(joint)
            assert h_z == pytest.approx(lhs, abs=1e-12)

    def test_merging_states_never_increases_mi(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            joint = rng.dirichlet(np.ones(12)).reshape(4, 3)
            merged = np.vstack([joint[0] + joint[1], joint[2:]])
            assert mutual_information(merged) <= mutual_information(joint) + 1e-12

    def test_support_outside_the_underflowed_product_of_marginals(self):
        # 1e-170 * 1e-170 underflows to 0, where the joint has mass
        with pytest.raises(DistributionError, match="product of marginals"):
            mutual_information([[1e-170, 0.0], [0.0, 1.0 - 1e-170]])
        m = DiscreteJointModel([1e-170, 1.0 - 1e-170], np.eye(2), np.eye(2))
        with pytest.raises(DistributionError, match="product of marginals"):
            exact_mixture_kl(m)

    def test_bad_distribution(self):
        with pytest.raises(DistributionError):
            entropy(np.array([0.5, 0.6]))
        with pytest.raises(DistributionError):
            entropy(np.array([np.nan, 1.0]))
        with pytest.raises(DistributionError):
            mutual_information(np.array([[0.5, -0.1], [0.3, 0.3]]))


def deterministic_model(nz=3, seed=0):
    """Z is a deterministic function of X and of Y (disjoint supports)."""
    rng = np.random.default_rng(seed)
    pz = rng.dirichlet(np.ones(nz))
    px = np.zeros((nz, nz))
    py = np.zeros((nz, nz))
    for z in range(nz):
        px[z, z] = 1.0
        py[z, z] = 1.0
    return DiscreteJointModel(pz, px, py)


class TestDiscreteJointModel:
    @pytest.mark.parametrize("p_z, p_x, p_y", [
        ([1.0, 0.0], np.eye(2), [[1.5, -0.5], [0.0, 1.0]]),   # negative entry
        ([np.nan, 1.0], np.eye(2), np.eye(2)),                # NaN entry
        ([0.5, 0.5 + 1e-6], np.eye(2), np.eye(2)),            # p_z sums to 1 + 1e-6
        ([0.5, 0.5 - 1e-6], np.eye(2), np.eye(2)),            # p_z sums to 1 - 1e-6
        ([0.5, 0.5], [[0.5, 0.5], [0.5, 0.4]], np.eye(2)),    # a row sums to 0.9
        ([0.5, 0.5], np.eye(2), [[0.5, 0.5]]),                # one row for two z states
    ], ids=["negative", "nan", "pz-high", "pz-low", "row-sum", "row-count"])
    def test_rejects(self, p_z, p_x, p_y):
        with pytest.raises(DistributionError):
            DiscreteJointModel(p_z, p_x, p_y)


@pytest.mark.parametrize("call, error, message", [
    # 25 support pairs and 5 states of y: C(45, 4) count vectors * 30 > 2**22
    (lambda: verify_bound_chain(DiscreteJointModel.random(2, 5, 5, seed=0), n=42),
     SizeError, r"n=42 over 5 states of y: 4469850 cells of count vectors exceed "
                r"the budget of 4194304"),
    (lambda: mutual_information(np.full(4, 0.25)), ParameterError, "joint must be a 2-D table"),
    # The two orientations of a 1-D input: H(columns | rows) is asked for
    # through .T, which leaves a 1-D array 1-D.
    (lambda: conditional_entropy(np.full(4, 0.25).T),
     ParameterError, "joint must be a 2-D table"),
    (lambda: conditional_entropy(np.full(4, 0.25)), ParameterError, "joint must be a 2-D table"),
    (lambda: conditional_entropy(np.full((2, 2, 2), 0.125)),
     ParameterError, "joint must be a 2-D table"),
    (lambda: empirical_joint([], []), SizeError, "empty input"),
], ids=["batch_too_large", "one_dimensional_joint", "conditional_entropy_1d_given_0",
        "conditional_entropy_1d_given_1", "conditional_entropy_3d", "empty_joint"])
def test_out_of_contract_call(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestMixtureKl:
    def test_single_cluster_zero(self):
        m = DiscreteJointModel.random(1, 3, 4, seed=0)
        assert exact_mixture_kl(m) == pytest.approx(0.0, abs=1e-12)
        mix = mixture_table(m)
        np.testing.assert_allclose(
            mix, np.outer(mix.sum(axis=1), mix.sum(axis=0)), atol=1e-12
        )

    def test_deterministic_z_equals_entropy(self):
        for seed in range(5):
            m = deterministic_model(nz=3, seed=seed)
            assert exact_mixture_kl(m) == pytest.approx(
                entropy(m.p_z), abs=1e-12
            )

    def test_matches_independent_summation(self):
        m = DiscreteJointModel.random(2, 2, 2, seed=42)
        # independent high-precision oracle over explicit loops
        mix = np.zeros((2, 2))
        for z in range(2):
            for x in range(2):
                for y in range(2):
                    mix[x, y] += m.p_z[z] * m.p_x_given_z[z, x] * m.p_y_given_z[z, y]
        px = mix.sum(axis=1)
        py = mix.sum(axis=0)
        expected = 0.0
        for x in range(2):
            for y in range(2):
                if mix[x, y] > 0:
                    expected += mix[x, y] * np.log(mix[x, y] / (px[x] * py[y]))
        assert exact_mixture_kl(m) == pytest.approx(expected, abs=1e-12)


@st.composite
def sparse_models(draw, max_n=4):
    """Tabular models whose rows have zero entries, point masses among them,
    over alphabets of up to 5 states, and a batch size n up to ``max_n``."""

    def distribution(size):
        weights = draw(st.lists(st.sampled_from([0, 0, 1, 2, 5]), min_size=size,
                                max_size=size).filter(any))
        return np.array(weights, dtype=float) / sum(weights)

    nz, nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    m = DiscreteJointModel(distribution(nz), np.array([distribution(nx) for _ in range(nz)]),
                           np.array([distribution(ny) for _ in range(nz)]))
    return m, draw(st.integers(1, max_n))


class TestBoundChain:
    def test_single_cluster_all_zero(self):
        m = DiscreteJointModel.random(1, 3, 3, seed=1)
        r = verify_bound_chain(m, n=3)
        assert r.objective_at_fstar == pytest.approx(0.0, abs=1e-12)
        assert r.kl == pytest.approx(0.0, abs=1e-12)
        assert r.all_inequalities_hold

    def test_deterministic_z_collapses_at_top(self):
        m = deterministic_model(nz=3, seed=2)
        r = verify_bound_chain(m, n=3)
        assert r.kl == pytest.approx(r.h_z, abs=1e-12)
        assert r.all_inequalities_hold

    def test_hundred_random_models(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            nz = int(rng.integers(1, 4))
            nx = int(rng.integers(2, 4))
            ny = int(rng.integers(2, 4))
            m = DiscreteJointModel.random(nz, nx, ny, seed=int(rng.integers(2**31)))
            r = verify_bound_chain(m, n=3)
            assert r.all_inequalities_hold, (nz, nx, ny, r)

    # (objective, KL, MI(Z;X), MI(Z;Y), H(Z)) that break one comparison each
    @pytest.mark.parametrize("values", [
        (0.5 + 2 * _ATOL, 0.5, 0.6, 0.7, 1.0),
        (0.1, 0.5, 0.3, 0.7, 1.0),
        (0.1, 0.2, 0.9, 0.8, 0.7),
    ], ids=["objective_above_kl", "kl_between_the_two_mi", "min_mi_above_h_z"])
    def test_flag_is_false_when_a_comparison_fails(self, values):
        assert not BoundChainReport(*values).all_inequalities_hold

    def test_flag_holds_within_atol_of_each_bound(self):
        h_z = 1.0
        min_mi = h_z + 0.5 * _ATOL
        kl = min_mi + 0.5 * _ATOL
        r = BoundChainReport(kl + 0.5 * _ATOL, kl, 2.0, min_mi, h_z)
        assert r.all_inequalities_hold

    @settings(max_examples=15)
    @given(sparse_models())
    def test_objective_monotone_in_n(self, model):
        m, _ = model
        values = [finite_batch_objective(m, n) for n in range(1, 33)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:])), (m, values)

    def test_mi_ordering(self):
        m = DiscreteJointModel.random(3, 4, 4, seed=11)
        r = verify_bound_chain(m, n=2)
        joint_zx = m.p_z[:, None] * m.p_x_given_z
        joint_zy = m.p_z[:, None] * m.p_y_given_z
        assert r.mi_zx == pytest.approx(mutual_information(joint_zx), abs=1e-15)
        assert r.mi_zy == pytest.approx(mutual_information(joint_zy), abs=1e-15)
        assert min(r.mi_zx, r.mi_zy) <= r.h_z + 1e-12


class TestInfoPlane:
    def test_z_equals_t_endpoint(self):
        t = np.random.default_rng(0).integers(0, 4, size=100)
        p = info_plane_point(t, t)
        assert p.mi_zt == pytest.approx(entropy(empirical_joint(t, t).sum(axis=1)))
        assert p.h_z_given_t == pytest.approx(0.0, abs=1e-12)

    def test_selection_score_endpoints(self):
        t = np.random.default_rng(1).integers(0, 3, size=60)
        h_t = entropy(empirical_joint(t, t).sum(axis=1))
        p_labels = info_plane_point(t, t)
        assert selection_score(p_labels) == pytest.approx(h_t, abs=1e-12)
        z_inst = np.arange(60)
        p_inst = info_plane_point(z_inst, t)
        assert selection_score(p_inst) == pytest.approx(
            h_t - (np.log(60) - h_t), abs=1e-9
        )
        assert selection_score(p_inst) < selection_score(p_labels)

    def test_coarsen_score_is_mi(self):
        p = InfoPlanePoint(mi_zt=0.8, h_z_given_t=0.0, h_z=0.8)
        assert selection_score(p) == pytest.approx(0.8)

    def test_invariants_on_empirical_points(self):
        rng = np.random.default_rng(3)
        z = rng.integers(0, 5, size=200)
        t = rng.integers(0, 4, size=200)
        p = info_plane_point(z, t)
        assert p.mi_zt <= p.h_z + 1e-12
        assert p.h_z == pytest.approx(p.mi_zt + p.h_z_given_t, abs=1e-12)

    def test_csv_export(self, tmp_path):
        pts = [
            InfoPlanePoint(0.5, 0.1, 0.6, 0.9, "a"),
            InfoPlanePoint(0.2, 0.4, 0.6, None, "b"),
        ]
        path = str(tmp_path / "plane.csv")
        save_info_plane_csv(pts, path)
        lines = pathlib.Path(path).read_text().splitlines()
        assert lines[0] == "config_label,mi_zt,h_z_given_t,h_z,accuracy"
        assert lines[1].startswith("a,0.5")
        assert lines[2].endswith(",")


@st.composite
def id_vectors(draw):
    """Equal-length cluster ids z and label ids t, and an injective
    relabelling of the values of each."""
    n = draw(st.integers(1, 30))
    kz, kt = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    z = np.array(draw(st.lists(st.integers(0, kz - 1), min_size=n, max_size=n)))
    t = np.array(draw(st.lists(st.integers(0, kt - 1), min_size=n, max_size=n)))
    new_z = np.array(draw(st.permutations(range(12)))[:kz])
    new_t = np.array(draw(st.permutations(range(12)))[:kt])
    return z, t, new_z, new_t


class TestInfoPlaneProperties:
    """The plug-in information plane on drawn id vectors."""

    @settings(max_examples=120)
    @given(id_vectors())
    def test_contracts(self, ids):
        z, t, new_z, new_t = ids
        p = info_plane_point(z, t)
        assert abs(p.mi_zt + p.h_z_given_t - p.h_z) <= 1e-12
        h_t = entropy(empirical_joint(t, t).sum(axis=1))
        assert -1e-12 <= p.mi_zt <= min(p.h_z, h_t) + 1e-12
        # symmetry
        joint = empirical_joint(z, t)
        assert abs(mutual_information(joint) - mutual_information(joint.T)) <= 1e-12
        assert abs(p.mi_zt - info_plane_point(t, z).mi_zt) <= 1e-12
        # relabelling the values of z and of t changes no coordinate
        q = info_plane_point(new_z[z], new_t[t])
        for field in ("mi_zt", "h_z_given_t", "h_z"):
            assert abs(getattr(p, field) - getattr(q, field)) <= 1e-12, field


class TestBoundChainProperties:
    @settings(max_examples=60)
    @given(sparse_models())
    def test_chain_holds_and_objective_is_at_most_log_n(self, model):
        m, n = model
        r = verify_bound_chain(m, n)
        assert r.all_inequalities_hold, r
        # an n-sample InfoNCE-type objective cannot exceed log n (arXiv 1807.03748)
        assert r.objective_at_fstar <= np.log(n) + 1e-9, r

    @settings(max_examples=60)
    @given(sparse_models())
    def test_count_form_equals_the_enumeration(self, model):
        m, n = model
        with np.errstate(all="raise"):  # no 0 * log 0, no division by zero
            value = finite_batch_objective(m, n)
        assert abs(value - finite_batch_objective_reference(m, n)) <= 1e-12, (m, n, value)

    @settings(max_examples=30)
    @given(sparse_models(max_n=32))
    def test_objective_at_most_kl_and_log_n(self, model):
        m, n = model
        value = finite_batch_objective(m, n)
        assert value <= min(exact_mixture_kl(m), np.log(n)) + 1e-9, (m, n, value)

    @settings(max_examples=20)
    @given(sparse_models())
    def test_one_pair_batch_is_zero(self, model):
        assert finite_batch_objective(model[0], 1) == 0.0


def test_batch_budget_is_checked_before_any_count_vector(monkeypatch):
    def unreachable(*args):
        raise AssertionError("count vectors built over the budget")

    m = DiscreteJointModel.random(2, 5, 5, seed=0)
    assert finite_batch_objective(m, 41) <= exact_mixture_kl(m)  # the largest n in budget
    # one state of y gives one count vector for any n, so n itself is held to the budget
    one_y = DiscreteJointModel([1.0], [[0.5, 0.5]], [[1.0, 0.0]])
    assert finite_batch_objective(one_y, 1000) == 0.0
    monkeypatch.setattr(itertools, "combinations", unreachable)
    for model, n in [(m, 42), (m, 10**30), (one_y, 10**30)]:
        with pytest.raises(SizeError):
            finite_batch_objective(model, n)


def positive_sign(h: float) -> bool:
    """True for +0.0 and positive values; False for -0.0 and negatives."""
    return math.copysign(1.0, h) == 1.0


class TestEntropySign:
    """Entropies are +0.0 where they vanish, never -0.0."""

    @settings(max_examples=60)
    @given(sparse_models())
    @example((DiscreteJointModel([1.0], [[1.0]], [[0.0, 1.0]]), 1))  # point masses
    def test_model_tables(self, model):
        m, _ = model
        joint = m.p_z[:, None] * m.p_x_given_z
        for h in (entropy(m.p_z), entropy(m.p_x_given_z[0]), entropy(joint),
                  conditional_entropy(joint.T), conditional_entropy(joint)):
            assert positive_sign(h), (m, h)

    @settings(max_examples=60)
    @given(id_vectors())
    @example((np.array([0, 1, 1]), np.array([0, 1, 1]), np.arange(2), np.arange(2)))  # z = t
    @example((np.zeros(4, dtype=int), np.array([0, 1, 0, 1]), np.arange(1), np.arange(2)))
    def test_info_plane_points(self, ids):
        z, t, _, _ = ids
        p = info_plane_point(z, t)
        assert positive_sign(p.h_z) and positive_sign(p.h_z_given_t), p
