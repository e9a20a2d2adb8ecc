import csv
import hashlib
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clnce import data
from clnce.data import (
    CACHE_DIR,
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
    ClnceError,
    DimensionError,
    DomainError,
    ParameterError,
    SchemaError,
    SizeError,
)
from oracles import load_dataset_reference


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

    def test_negative_label_reports_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,f0,label\nr0,1.0,0\nr1,2.0,3\nr2,3.0,-1\n")
        with pytest.raises(DomainError, match=r"d\.csv:4: negative label"):
            load_dataset(path)

    def test_carriage_return_id_round_trip(self, tmp_path):
        d = Dataset(features=np.array([[0.0], [1.5]]), ids=("a\rb", 'c"\r'),
                    labels=np.array([0, 1]))
        path = str(tmp_path / "cr.csv")
        save_dataset(d, path)
        assert open(path, "rb").read() == (
            b'id,f0,label\n"a\rb",0.0,0\n"c""\r",1.5,1\n'
        )
        for loader in (load_dataset, load_dataset_reference):
            assert loader(path).ids == d.ids

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


# Cells of the save_dataset grammar: repr floats (with -0.0, subnormals and
# the ends of the float range), ids with any character csv must quote,
# carriage returns included.
FEATURE_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308]),
)
IDS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


@st.composite
def csv_datasets(draw):
    n = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 4))
    num_attrs = draw(st.integers(0, 3))
    return Dataset(
        features=draw(arrays(np.float64, (n, dim), elements=FEATURE_VALUES)),
        ids=tuple(draw(st.lists(IDS | st.sampled_from(['a,"b"', '""', " x ,y"]),
                                min_size=n, max_size=n))),
        attributes=draw(arrays(np.int64, (n, num_attrs), elements=st.integers(0, 1)))
        if num_attrs else None,
        labels=draw(arrays(np.int64, n, elements=st.integers(0, 2**63 - 1)))
        if draw(st.booleans()) else None,
    )


def dataset_rows(d):
    """The cells of ``d`` as save_dataset writes them, header first."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        save_dataset(d, path)
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))


def load_both(rows):
    """(loader result, oracle result) for a CSV of ``rows``; each result is
    a Dataset or the ClnceError raised, with the file path cut from it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in rows:
                if "\r" in row[0]:  # csv.writer leaves it bare; quote it as save_dataset does
                    fh.write('"' + row[0].replace('"', '""') + '"' + "," * (len(row) > 1))
                    row = row[1:]
                writer.writerow(row)
        results = []
        for loader in (load_dataset, load_dataset_reference):
            try:
                results.append(loader(path))
            except ClnceError as exc:
                assert str(exc).startswith(path)
                results.append((type(exc), str(exc)[len(path):].split(": ")[0]))
        return results


def assert_same_dataset(got, want):
    assert got.features.tobytes() == want.features.tobytes()
    assert got.features.shape == want.features.shape
    assert got.ids == want.ids
    for field in ("attributes", "labels"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype == np.int64
            assert a.tobytes() == b.tobytes()


class TestLoadDatasetProperties:
    """``load_dataset`` (one loadtxt call) against the row-loop oracle."""

    @settings(max_examples=200)
    @given(csv_datasets())
    def test_same_dataset_as_oracle(self, d):
        got, want = load_both(dataset_rows(d))
        assert_same_dataset(got, want)
        assert got.features.shape == d.features.shape
        assert got.features.flags.c_contiguous
        assert got.ids == d.ids

    @settings(max_examples=200)
    @given(csv_datasets(), st.data())
    def test_same_error_and_line_as_oracle(self, d, data):
        rows = dataset_rows(d)
        r = data.draw(st.integers(1, len(rows) - 1), label="record")
        kinds = ["ragged", "float"]
        if d.attributes is not None:
            kinds.append("attribute")
        if d.labels is not None:
            kinds.append("label")
        kind = data.draw(st.sampled_from(kinds), label="kind")
        row = rows[r]
        if kind == "ragged":
            rows[r] = data.draw(st.sampled_from([row[:-1], row + ["0"]]), label="row")
        elif kind == "float":
            col = data.draw(st.integers(1, d.feature_dim), label="column")
            row[col] = data.draw(st.sampled_from(["oops", "", "1.0.0", "1e", "- 1", "0x10"]))
        elif kind == "attribute":
            col = 1 + d.feature_dim + data.draw(st.integers(0, d.num_attributes - 1))
            row[col] = data.draw(st.sampled_from(["2", "", "01", " 1", "1.0", "-0", "10", "true"]))
        else:
            row[-1] = data.draw(st.sampled_from(["x", "", "1.5", "0x10", "1e3"]))
        got, want = load_both(rows)
        assert isinstance(want, tuple), "the corruption must be an error for the oracle"
        assert got == want == (want[0], f":{r + 1}")

    @pytest.mark.parametrize("header", ["key,f0,label", "id,label", "id"])
    def test_bad_header_same_as_oracle(self, header):
        got, oracle = load_both([header.split(","), ["r0", "1.0", "0"][:header.count(",") + 1]])
        assert got == oracle == (SchemaError, ":1")


class TestHeaderGrammar:
    """Only id,f0..f{D-1}[,a0..a{A-1}][,label] is a header."""

    @pytest.mark.parametrize("header", [
        "id,f0,fold", "id,f0,alpha", "id,f1", "id,f0,f2", "f0,id", "id,f0,label,a0",
        "id,f0,a1", "id,f0,a0,a0", "id,f0,f0", "id,id,f0", "id,f0,label,label",
        "id,label,f0", "id,f0,Label", "id, f0", "", "id,f0,a0,f1",
    ])
    def test_rejected_at_line_1(self, tmp_path, header):
        width = max(1, header.count(",") + 1)
        path = write(tmp_path, "d.csv", f"{header}\n{','.join(['1'] * width)}\n")
        with pytest.raises(SchemaError, match=":1: .*the header must be"):
            load_dataset(path)

    @pytest.mark.parametrize("header, shape", [
        ("id,f0", (1, 0, False)),
        ("id,f0,f1,f2,label", (3, 0, True)),
        ("id,f0,a0,a1", (1, 2, False)),
        ("id,f0,f1,a0,label", (2, 1, True)),
    ])
    def test_accepted(self, tmp_path, header, shape):
        width = header.count(",") + 1
        path = write(tmp_path, "d.csv", f"{header}\nr0,{','.join(['1'] * (width - 1))}\n")
        d = load_dataset(path)
        assert (d.feature_dim, d.num_attributes, d.labels is not None) == shape

    def test_header_only_has_no_data_rows(self, tmp_path):
        with pytest.raises(SchemaError, match="no data rows"):
            load_dataset(write(tmp_path, "d.csv", "id,f0,label\n"))

    def test_bad_float_outside_the_row_checks(self, tmp_path):
        # float() reads 1_0 as 10; numpy does not, and no record is to blame
        path = write(tmp_path, "d.csv", "id,f0\nr0,1.0\nr1,1_0\n")
        with pytest.raises(SchemaError, match="1_0"):
            load_dataset(path)


def not_parsed():
    """Inside it, a load that would parse the CSV fails the test."""
    return mock.patch.object(data, "_parse_dataset", side_effect=AssertionError("parsed"))


class TestLoadCache:
    """``load_dataset`` keeps each parse in CACHE_DIR under the sha256 of
    the file's bytes; a hit gives the parse's dataset bit for bit."""

    @staticmethod
    def entries(folder):
        cache = os.path.join(folder, CACHE_DIR)
        return sorted(os.listdir(cache)) if os.path.isdir(cache) else []

    @settings(max_examples=100)
    @given(csv_datasets())
    @example(Dataset(features=np.array([[1.0], [2.0]]), ids=("a\x00", "\x00")))
    @example(Dataset(features=np.array([[1.0], [2.0], [3.0]]), ids=('q"\r', "a,b\r\n", "\r"),
                     labels=np.array([0, 2**63 - 1, 5])))
    def test_hit_is_the_parse(self, d):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            save_dataset(d, path)
            miss = load_dataset(path)
            assert len(self.entries(tmp)) == 1
            with not_parsed():
                hit = load_dataset(path)
            oracle = load_dataset_reference(path)
        assert miss.ids == d.ids
        assert_same_dataset(miss, oracle)
        assert_same_dataset(hit, oracle)

    def test_entry_is_named_by_the_sha256_of_the_bytes(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,f0\nr0,1.0\n")
        load_dataset(path)
        digest = hashlib.sha256(b"id,f0\nr0,1.0\n").hexdigest()
        assert self.entries(tmp_path) == [f"d.csv.{digest}.npz"]

    def test_same_size_rewrite_with_old_mtime_is_parsed_again(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,f0\nr0,1.0\n")
        load_dataset(path)
        stamp = os.stat(path)
        write(tmp_path, "d.csv", "id,f0\nr0,2.0\n")
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert os.stat(path).st_size == stamp.st_size
        assert load_dataset(path).features.tolist() == [[2.0]]

    @pytest.mark.parametrize("damage", ["truncate", "garbage", "empty"])
    def test_damaged_entry_is_parsed_and_rewritten(self, tmp_path, damage):
        path = write(tmp_path, "d.csv", "id,f0,a0,label\nr0,1.5,1,3\nr1,-2.0,0,0\n")
        first = load_dataset(path)
        [name] = self.entries(tmp_path)
        entry = tmp_path / CACHE_DIR / name
        blob = entry.read_bytes()
        entry.write_bytes({"truncate": blob[: len(blob) // 2], "garbage": b"garbage" * 9,
                           "empty": b""}[damage])
        assert_same_dataset(load_dataset(path), first)
        with not_parsed():
            assert_same_dataset(load_dataset(path), first)

    def test_entry_of_another_format_is_a_miss(self, tmp_path, monkeypatch):
        path = write(tmp_path, "d.csv", "id,f0\nr0,1.0\n")
        load_dataset(path)
        monkeypatch.setattr(data, "_CACHE_FORMAT", "another loader")
        with pytest.raises(AssertionError, match="parsed"), not_parsed():
            load_dataset(path)

    def test_format_names_the_loader_source(self):
        # an edit to any parse rule changes the tag, so old entries are misses
        with open(data.__file__, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() in data._CACHE_FORMAT

    def test_hashing_needs_no_file_digest(self, tmp_path, monkeypatch):
        # hashlib.file_digest is Python 3.11+; the package supports 3.10
        monkeypatch.delattr(hashlib, "file_digest", raising=False)
        path = write(tmp_path, "d.csv", "id,f0\nr0,1.0\n")
        load_dataset(path)
        with not_parsed():
            assert load_dataset(path).features.tolist() == [[1.0]]

    def test_write_removes_stale_temporary_files(self, tmp_path):
        # left by writes that were killed between mkstemp and os.replace
        load_dataset(write(tmp_path, "d.csv", "id,f0\nr0,1.0\n"))
        cache = tmp_path / CACHE_DIR
        stale, fresh = (cache / f"d.csv.{'0' * 64}.npz{s}.tmp" for s in ("abc_123x", "def_456y"))
        stale.write_bytes(b"partial")
        fresh.write_bytes(b"partial")
        old = os.stat(stale).st_mtime - 2 * data._STALE_TMP_S
        os.utime(stale, (old, old))
        other = cache / f"e.csv.{'0' * 64}.npzabc_123x.tmp"
        other.write_bytes(b"partial")
        os.utime(other, (old, old))
        load_dataset(write(tmp_path, "d.csv", "id,f0\nr0,2.0\n"))
        assert not stale.exists()
        assert fresh.exists() and other.exists()

    def test_unwritable_cache_is_silent(self, tmp_path):
        # a file where the cache directory would go; chmod does not stop root
        (tmp_path / CACHE_DIR).write_text("not a directory")
        path = write(tmp_path, "d.csv", "id,f0,label\nr0,1.0,0\nr1,2.0,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                assert_same_dataset(load_dataset(path), load_dataset_reference(path))
        assert (tmp_path / CACHE_DIR).read_text() == "not a directory"

    def test_failed_parse_leaves_no_entry(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,f0,label\nr0,1.0,0\nr1,2.0,-1\n")
        for _ in range(2):
            with pytest.raises(DomainError, match=r"d\.csv:3: negative label"):
                load_dataset(path)
        assert self.entries(tmp_path) == []

    def test_one_entry_per_file_name(self, tmp_path):
        other = write(tmp_path, "d.csv.2", "id,f0\nr0,0.0\n")
        load_dataset(other)
        for value in ("1.0", "2.0", "3.0"):
            path = write(tmp_path, "d.csv", f"id,f0\nr0,{value}\n")
            load_dataset(path)
        digests = [hashlib.sha256(f"id,f0\nr0,{v}\n".encode()).hexdigest() for v in ("0.0", "3.0")]
        assert self.entries(tmp_path) == sorted([f"d.csv.2.{digests[0]}.npz",
                                                 f"d.csv.{digests[1]}.npz"])
        with not_parsed():
            assert load_dataset(path).features.tolist() == [[3.0]]
            assert load_dataset(other).features.tolist() == [[0.0]]
