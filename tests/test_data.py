import csv
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import warnings
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clnce import data
from clnce.data import (
    CACHE_DIR,
    Dataset,
    HierarchyGraph,
    augment_rows,
    load_dataset,
    load_hierarchy,
    save_dataset,
    save_hierarchy,
    split_dataset,
    write_csv,
)
from clnce.errors import (
    ClnceError,
    DimensionError,
    DomainError,
    GraphError,
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
        assert (tmp_path / "cr.csv").read_bytes() == (
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

    # one field past csv's default field size limit of 131072 characters
    LONG = "x" * 200_000

    @pytest.mark.parametrize("text, error, message", [
        (f"id,f0\n{LONG},1.0\nb,2.0\n", None, None),
        (f"id,f0,{LONG}\nr0,1.0,2.0\n", SchemaError,
         r"d\.csv:1: unexpected column 3 'x{40}'\.\.\. \(200000 characters\)"),
        (f"id,f0\n{LONG},1.0\nb,zz\n", SchemaError, r"d\.csv:3: bad float"),
    ], ids=["long_id_loads", "long_header_field", "bad_row_after_a_long_id"])
    def test_long_field(self, tmp_path, text, error, message):
        path = write(tmp_path, "d.csv", text)
        limit = csv.field_size_limit()
        if error is None:
            assert load_dataset(path).ids == (self.LONG, "b")
        else:
            with pytest.raises(error, match=message) as exc:
                load_dataset(path)
            # the cell is quoted in part, with its length
            assert len(str(exc.value)) < 300
        assert csv.field_size_limit() == limit

    @pytest.mark.parametrize("loader, lines", [
        (load_dataset, ["id,f0,label"] + [f"r{i},{i}.5,{i % 3}" for i in range(3000)]),
        (load_hierarchy, ["root\tn0"] * 4000),
    ], ids=["csv", "tsv"])
    def test_not_utf8_names_the_offset_in_the_file(self, tmp_path, loader, lines):
        # past the first 8 KB chunk that a text stream decodes
        blob = "\n".join(lines).encode("utf-8")
        at = 28_898
        assert len(blob) > at
        path = tmp_path / "bad"
        path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
        with pytest.raises(SchemaError, match=f"byte 0xff in position {at}: invalid start"):
            loader(str(path))


class TestHierarchyFile:
    def test_round_trip(self, tmp_path):
        g = HierarchyGraph(
            edges=(("root", "a"), ("root", "b"), ("a", "l0"), ("b", "l1")),
            leaf_label_map={"l0": 0, "l1": 1},
        )
        path = str(tmp_path / "h.tsv")
        save_hierarchy(g, path)
        g2 = load_hierarchy(path)
        assert set(g2.edges) == set(g.edges)
        assert g2.leaf_label_map == g.leaf_label_map

    def test_save_makes_the_parent_directory(self, tmp_path):
        g = HierarchyGraph(edges=(("root", "l0"),), leaf_label_map={"l0": 0})
        path = str(tmp_path / "new" / "h.tsv")
        save_hierarchy(g, path)
        assert load_hierarchy(path) == g

    def test_no_edges(self, tmp_path):
        path = write(tmp_path, "h.tsv", "#labels\nl0\t0\n")
        with pytest.raises(SchemaError, match=r"h\.tsv: no edges"):
            load_hierarchy(path)

    @pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb"])
    def test_name_that_cannot_round_trip_is_refused(self, name):
        with pytest.raises(GraphError, match="holds a tab or a line break"):
            HierarchyGraph(edges=(("root", name),), leaf_label_map={name: 0})

    @settings(max_examples=100)
    @given(st.data())
    def test_any_graph_round_trips(self, tmp_path_factory, data):
        # a tree over unique names: node i > 0 hangs under one of nodes 0..i-1
        names = data.draw(st.lists(st.text(st.characters(
            blacklist_characters="\t\n\r", blacklist_categories=("Cs",))),
            min_size=2, max_size=8, unique=True), label="names")
        edges = tuple((names[data.draw(st.integers(0, i - 1))], names[i])
                      for i in range(1, len(names)))
        leaves = sorted(set(names) - {p for p, _ in edges})
        g = HierarchyGraph(edges=edges, leaf_label_map={n: i for i, n in enumerate(leaves)})
        path = str(tmp_path_factory.mktemp("h") / "h.tsv")
        save_hierarchy(g, path)
        assert load_hierarchy(path) == g

    def test_leaf_labelled_twice(self, tmp_path):
        path = write(tmp_path, "h.tsv", "root\tleafA\n#labels\nleafA\t0\nleafA\t2\n")
        with pytest.raises(SchemaError, match=r"h\.tsv:4: leaf 'leafA' already has a label"):
            load_hierarchy(path)

    def test_duplicate_label_rejected(self):
        with pytest.raises(Exception):
            HierarchyGraph(
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
        # a fraction whose floor leaves no train row is refused by the split
        with pytest.raises(SizeError, match="train_fraction 0.1 of 3 rows leaves no train row"):
            split_dataset(Dataset(features=np.zeros((3, 1))), 0.1, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, float("nan")])
    def test_fraction_outside_the_open_unit_interval(self, fraction):
        with pytest.raises(ParameterError, match=r"train_fraction must lie in \(0, 1\)"):
            split_dataset(Dataset(features=np.zeros((4, 1))), fraction, seed=0)


class TestAugment:
    @staticmethod
    def two_views(x, noise_sigma, mask_prob, rng):
        return tuple(augment_rows(x, noise_sigma, mask_prob, rng) for _ in range(2))

    def test_identity_case(self):
        x = np.random.default_rng(1).normal(size=(4, 3))
        v1, v2 = self.two_views(x, 0.0, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(v1, x)
        np.testing.assert_array_equal(v2, x)

    def test_full_masking(self):
        x = np.ones((3, 4))
        v1, v2 = self.two_views(x, 0.0, 1.0, np.random.default_rng(0))
        assert (v1 == 0).all() and (v2 == 0).all()

    def test_noise_std_matches_config(self):
        # Monte-Carlo check of the configured noise scale
        x = np.zeros((100_000, 1))
        v1, _ = self.two_views(x, 0.1, 0.0, np.random.default_rng(7))
        assert abs(v1.std() - 0.1) < 0.002

    def test_views_differ_with_noise(self):
        x = np.random.default_rng(2).normal(size=(6, 5))
        v1, v2 = self.two_views(x, 0.5, 0.0, np.random.default_rng(3))
        assert not np.array_equal(v1, v2)

    def test_shape_preserved(self):
        x = np.random.default_rng(2).normal(size=(6, 5))
        v1, v2 = self.two_views(x, 0.5, 0.3, np.random.default_rng(3))
        assert v1.shape == x.shape and v2.shape == x.shape

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.1])
    def test_input_never_written(self, noise_sigma):
        x = np.random.default_rng(4).normal(size=(6, 5))
        before = x.tobytes()
        v = augment_rows(x, noise_sigma, 0.5, np.random.default_rng(5))
        assert x.tobytes() == before
        assert not np.shares_memory(v, x)


class TestDatasetInvariants:
    def test_row_count_mismatch(self):
        with pytest.raises(DimensionError):
            Dataset(features=np.zeros((3, 2)), labels=np.array([0, 1]))

    def test_attribute_domain(self):
        with pytest.raises(DomainError):
            Dataset(features=np.zeros((2, 2)), attributes=np.array([[0, 2], [1, 0]]))

    @pytest.mark.parametrize("fields, error, message", [
        (dict(features=np.zeros(3)), DimensionError, "features must be a 2-D matrix"),
        (dict(features=np.zeros((3, 1)), ids=("a", "b")), DimensionError,
         "2 ids for 3 feature rows"),
        (dict(features=np.zeros((3, 1)), attributes=np.zeros((2, 1))), DimensionError,
         "attribute matrix row count mismatch"),
        (dict(features=np.zeros((3, 1)), labels=np.array([0, -1, 0])), DomainError,
         "labels must be non-negative"),
    ], ids=["features_not_2d", "id_count", "attribute_rows", "negative_label"])
    def test_invalid_fields(self, fields, error, message):
        with pytest.raises(error, match=message):
            Dataset(**fields)

    def test_caller_arrays_stay_writeable(self):
        x = np.zeros((2, 2))
        labels = np.array([0, 1], dtype=np.int64)
        d = Dataset(features=x, labels=labels)
        assert not d.features.flags.writeable and not d.labels.flags.writeable
        assert x.flags.writeable and labels.flags.writeable
        x[0, 0] = 1.0  # a view, not a copy: the dataset sees the write
        assert d.features[0, 0] == 1.0

    def test_default_ids_are_row_indices(self):
        d = Dataset(features=np.zeros((3, 1)))
        assert d.ids == ("0", "1", "2")

    def test_num_classes(self):
        assert Dataset(features=np.zeros((0, 1)), labels=np.zeros(0)).num_classes == 0
        assert Dataset(features=np.zeros((2, 1)), labels=np.array([0, 4])).num_classes == 5


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
        write_csv(path, rows[0], rows[1:])
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
            row[-1] = data.draw(st.sampled_from(["x", "", "1.5", "0x10", "1e3", "-1"]))
        # a blank line before the bad record is skipped, but counted
        blank = data.draw(st.booleans(), label="blank line before it")
        if blank:
            rows.insert(r, [])
        got, want = load_both(rows)
        assert isinstance(want, tuple), "the corruption must be an error for the oracle"
        assert got == want == (want[0], f":{r + 1 + blank}")

    @pytest.mark.parametrize("last", [["s1", "2.0", "2", "0"], ["s1", "2.0", "1", "-1"]])
    def test_blank_line_before_a_bad_record(self, last):
        got, want = load_both([["id", "f0", "a0", "label"], ["s0", "1.0", "0", "1"], [], last])
        assert got == want == (DomainError, ":4")

    @pytest.mark.parametrize("cell", ["1\0", "0\0\0"])
    def test_attribute_cell_ending_in_nul_same_as_oracle(self, cell):
        # a "U2" cell drops its trailing NULs, so only the scan sees them
        got, want = load_both([["id", "f0", "a0"], ["r\0", "1.0", "1"], ["s", "2.0", cell]])
        assert got == want == (DomainError, ":3")

    def test_id_holding_nuls_same_as_oracle(self):
        got, want = load_both([["id", "f0", "a0", "label"], ["r\0", "1.0", "1", "0"],
                               ["\0s\0", "2.0", "0", "1"]])
        assert_same_dataset(got, want)
        assert got.ids == ("r\0", "\0s\0")

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


# an entry file left open, even on a damaged entry, fails the test
@pytest.mark.filterwarnings("error::ResourceWarning",
                            "error::pytest.PytestUnraisableExceptionWarning")
class TestLoadCache:
    """``load_dataset`` keeps each parse in CACHE_DIR, one entry per file
    name, keyed by the sha256 of the file's bytes; a hit gives the parse's
    dataset bit for bit."""

    @staticmethod
    def entries(folder):
        cache = os.path.join(folder, CACHE_DIR)
        return sorted(os.listdir(cache)) if os.path.isdir(cache) else []

    @staticmethod
    def key(folder, name):
        with np.load(os.path.join(folder, CACHE_DIR, f"{name}.npz")) as z:
            return str(z["format"])

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

    def test_entry_is_named_by_the_file_and_keyed_by_the_sha256(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,f0\nr0,1.0\n")
        load_dataset(path)
        digest = hashlib.sha256(b"id,f0\nr0,1.0\n").hexdigest()
        assert self.entries(tmp_path) == ["d.csv.npz"]
        assert self.key(tmp_path, "d.csv") == f"{data._CACHE_FORMAT}, sha256 {digest}"

    @pytest.mark.parametrize("hit", [False, True])
    def test_file_opened_once_per_load(self, tmp_path, monkeypatch, hit):
        good = write(tmp_path, "d.csv", "id,f0,label\nr0,1.0,0\nr1,2.0,1\n")
        bad = write(tmp_path, "e.csv", "id,f0,label\nr0,1.0,0\nr1,2.0,-1\n")
        if hit:
            load_dataset(good)
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        load_dataset(good)
        with pytest.raises(DomainError, match=r"e\.csv:3: negative label"):
            load_dataset(bad)
        assert opened.count(good) == opened.count(bad) == 1

    def test_rewrite_during_the_parse_keys_the_entry_to_the_parsed_bytes(
        self, tmp_path, monkeypatch
    ):
        old, new = "id,f0\nr0,1.0\n", "id,f0\nr0,2.0\n"
        path = write(tmp_path, "d.csv", old)
        parse = data._parse_dataset

        def rewriting_parse(raw, path):
            write(tmp_path, "d.csv", new)
            return parse(raw, path)

        monkeypatch.setattr(data, "_parse_dataset", rewriting_parse)
        assert load_dataset(path).features.tolist() == [[1.0]]
        monkeypatch.undo()
        assert self.key(tmp_path, "d.csv").endswith(hashlib.sha256(old.encode()).hexdigest())
        assert load_dataset(path).features.tolist() == [[2.0]]

    def test_pipe_is_parsed_each_time_and_never_cached(self, tmp_path):
        text = "id,f0,a0,label\nr0,1.5,1,3\nr1,-2.0,0,0\n"
        oracle = load_dataset_reference(write(tmp_path, "ref.csv", text))
        fifo = str(tmp_path / "d.csv")
        os.mkfifo(fifo)

        def load_through_the_pipe(text):
            writer = threading.Thread(target=write, args=(tmp_path, "d.csv", text), daemon=True)
            writer.start()
            try:
                return load_dataset(fifo)
            finally:
                writer.join(timeout=10)
                assert not writer.is_alive()

        with mock.patch.object(data, "_parse_dataset", wraps=data._parse_dataset) as parse:
            for _ in range(2):
                assert_same_dataset(load_through_the_pipe(text), oracle)
        assert parse.call_count == 2
        # the bad record is found in the bytes that were read: the pipe is not
        # opened again, which would wait for a writer that never comes
        with pytest.raises(DomainError, match=r"d\.csv:3: negative label"):
            load_through_the_pipe("id,f0,label\nr0,1.0,0\nr1,2.0,-1\n")
        assert not (tmp_path / CACHE_DIR).exists()

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
        stale, other, fresh = (cache / f"{name}.npz{s}.tmp" for name, s in [
            ("d.csv", "abc_123x"), ("e.csv", "abc_123x"), ("d.csv", "def_456y")])
        for tmp in (stale, other, fresh):
            tmp.write_bytes(b"partial")
        old = os.stat(stale).st_mtime - 2 * data._STALE_TMP_S
        os.utime(stale, (old, old))
        os.utime(other, (old, old))
        load_dataset(write(tmp_path, "d.csv", "id,f0\nr0,2.0\n"))
        assert not stale.exists() and not other.exists()
        assert fresh.exists()

    def test_unwritable_cache_is_silent(self, tmp_path):
        # a file where the cache directory would go; chmod does not stop root
        (tmp_path / CACHE_DIR).write_text("not a directory")
        path = write(tmp_path, "d.csv", "id,f0,label\nr0,1.0,0\nr1,2.0,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                assert_same_dataset(load_dataset(path), load_dataset_reference(path))
        assert (tmp_path / CACHE_DIR).read_text() == "not a directory"

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,f0\nr0,1.0\n")
        with mock.patch.object(os, "replace", side_effect=OSError("replace failed")):
            assert load_dataset(path).features.tolist() == [[1.0]]
        assert self.entries(tmp_path) == []

    def test_no_cache_when_the_loader_source_cannot_be_read(self, tmp_path):
        # imported from a zip, data.py has no file to hash, so no entry has a
        # key: the child parses and writes no cache
        archive = tmp_path / "clnce.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for source in pathlib.Path(data.__file__).parent.glob("*.py"):
                zf.write(source, f"clnce/{source.name}")
        path = write(tmp_path, "d.csv", "id,f0\nr0,1.0\n")
        child = ("import sys; sys.path.insert(0, sys.argv[1]); from clnce import data; "
                 "assert data.__file__.startswith(sys.argv[1]) and data._CACHE_FORMAT is None; "
                 "print(data.load_dataset(sys.argv[2]).features.tolist())")
        proc = subprocess.run([sys.executable, "-c", child, str(archive), path],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[[1.0]]\n")
        assert not (tmp_path / CACHE_DIR).exists()

    def test_failed_parse_leaves_no_entry(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,f0,label\nr0,1.0,0\nr1,2.0,-1\n")
        for _ in range(2):
            with pytest.raises(DomainError, match=r"d\.csv:3: negative label"):
                load_dataset(path)
        assert self.entries(tmp_path) == []

    def test_one_entry_per_file_name(self, tmp_path):
        other = write(tmp_path, "d.csv.2", "id,f0\nr0,0.0\n")
        load_dataset(other)
        # an entry named by the bytes' sha256, as an older loader wrote, is
        # neither read nor removed
        older = tmp_path / CACHE_DIR / f"d.csv.{'0' * 64}.npz"
        older.write_bytes(b"older entry")
        for value in ("1.0", "2.0", "3.0"):
            path = write(tmp_path, "d.csv", f"id,f0\nr0,{value}\n")
            load_dataset(path)
        assert self.entries(tmp_path) == sorted(["d.csv.2.npz", "d.csv.npz", older.name])
        assert older.read_bytes() == b"older entry"
        with not_parsed():
            assert load_dataset(path).features.tolist() == [[3.0]]
            assert load_dataset(other).features.tolist() == [[0.0]]
