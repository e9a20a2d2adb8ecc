import numpy as np
import pytest

from clnce.data import (
    AugmentConfig,
    Dataset,
    HierarchyGraph,
    augment_rows,
    load_dataset,
    load_hierarchy,
    save_dataset,
    save_hierarchy,
    split_dataset,
)
from clnce.errors import (
    DimensionError,
    DomainError,
    ParameterError,
    SchemaError,
    SizeError,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadDataset:
    def test_three_row_csv(self, tmp_path):
        path = write(
            tmp_path, "d.csv",
            "id,f0,f1,a0,label\nr0,1.0,2.0,0,0\nr1,3.0,4.0,1,1\nr2,5.0,6.0,0,0\n",
        )
        d = load_dataset(path)
        assert d.num_samples == 3
        assert d.feature_dim == 2
        assert d.num_attributes == 1
        assert d.labels.tolist() == [0, 1, 0]
        assert d.ids == ("r0", "r1", "r2")

    def test_attribute_out_of_domain(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,f0,a0\nr0,1.0,2\n")
        with pytest.raises(DomainError):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "d.csv", "")
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,f0,f1\nr0,1.0,2.0\nr1,3.0\n")
        with pytest.raises(DimensionError, match=":3"):
            load_dataset(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,f0\nr0,oops\n")
        with pytest.raises(SchemaError, match=":2"):
            load_dataset(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        d = Dataset(
            features=rng.normal(size=(5, 3)),
            attributes=rng.integers(0, 2, size=(5, 2)),
            labels=rng.integers(0, 4, size=5),
        )
        path = str(tmp_path / "rt.csv")
        save_dataset(d, path)
        d2 = load_dataset(path)
        np.testing.assert_array_equal(d.features, d2.features)
        np.testing.assert_array_equal(d.attributes, d2.attributes)
        np.testing.assert_array_equal(d.labels, d2.labels)
        assert d.ids == d2.ids


class TestHierarchyFile:
    def test_round_trip(self, tmp_path):
        g = HierarchyGraph(
            nodes=("root", "a", "b", "l0", "l1"),
            edges=(("root", "a"), ("root", "b"), ("a", "l0"), ("b", "l1")),
            leaf_label_map={"l0": 0, "l1": 1},
        )
        path = str(tmp_path / "h.tsv")
        save_hierarchy(g, path)
        g2 = load_hierarchy(path)
        assert set(g2.edges) == set(g.edges)
        assert g2.leaf_label_map == g.leaf_label_map

    def test_duplicate_label_rejected(self):
        with pytest.raises(Exception):
            HierarchyGraph(
                nodes=("root", "l0", "l1"),
                edges=(("root", "l0"), ("root", "l1")),
                leaf_label_map={"l0": 0, "l1": 0},
            )


class TestSplit:
    def test_seven_three_ratio(self):
        d = Dataset(features=np.arange(20.0).reshape(10, 2))
        train, ev = split_dataset(d, 0.7, seed=5)
        assert train.num_samples == 7
        assert ev.num_samples == 3
        assert set(train.ids) | set(ev.ids) == set(d.ids)
        assert set(train.ids) & set(ev.ids) == set()

    def test_determinism(self):
        d = Dataset(features=np.random.default_rng(0).normal(size=(10, 2)))
        a1, b1 = split_dataset(d, 0.7, seed=9)
        a2, b2 = split_dataset(d, 0.7, seed=9)
        assert a1.ids == a2.ids and b1.ids == b2.ids

    def test_floor_rule(self):
        d = Dataset(features=np.zeros((5, 1)))
        train, ev = split_dataset(d, 0.5, seed=0)
        assert train.num_samples == 2 and ev.num_samples == 3

    def test_too_small(self):
        with pytest.raises(SizeError):
            split_dataset(Dataset(features=np.zeros((1, 1))), 0.5, seed=0)


class TestAugment:
    @staticmethod
    def two_views(x, cfg, rng):
        return augment_rows(x, cfg, rng), augment_rows(x, cfg, rng)

    def test_identity_case(self):
        x = np.random.default_rng(1).normal(size=(4, 3))
        v1, v2 = self.two_views(x, AugmentConfig(0.0, 0.0), np.random.default_rng(0))
        np.testing.assert_array_equal(v1, x)
        np.testing.assert_array_equal(v2, x)

    def test_full_masking(self):
        x = np.ones((3, 4))
        v1, v2 = self.two_views(x, AugmentConfig(0.0, 1.0), np.random.default_rng(0))
        assert (v1 == 0).all() and (v2 == 0).all()

    def test_noise_std_matches_config(self):
        # Monte-Carlo check of the configured noise scale
        x = np.zeros((100_000, 1))
        v1, _ = self.two_views(x, AugmentConfig(0.1, 0.0), np.random.default_rng(7))
        assert abs(v1.std() - 0.1) < 0.002

    def test_views_differ_with_noise(self):
        x = np.random.default_rng(2).normal(size=(6, 5))
        v1, v2 = self.two_views(x, AugmentConfig(0.5, 0.0), np.random.default_rng(3))
        assert not np.array_equal(v1, v2)

    def test_shape_preserved(self):
        x = np.random.default_rng(2).normal(size=(6, 5))
        v1, v2 = self.two_views(x, AugmentConfig(0.5, 0.3), np.random.default_rng(3))
        assert v1.shape == x.shape and v2.shape == x.shape

    def test_bad_config(self):
        with pytest.raises(ParameterError):
            AugmentConfig(noise_sigma=-1.0)
        with pytest.raises(ParameterError):
            AugmentConfig(mask_prob=1.5)


class TestDatasetInvariants:
    def test_row_count_mismatch(self):
        with pytest.raises(DimensionError):
            Dataset(features=np.zeros((3, 2)), labels=np.array([0, 1]))

    def test_attribute_domain(self):
        with pytest.raises(DomainError):
            Dataset(features=np.zeros((2, 2)), attributes=np.array([[0, 2], [1, 0]]))

    def test_default_ids_are_row_indices(self):
        d = Dataset(features=np.zeros((3, 1)))
        assert d.ids == ("0", "1", "2")
