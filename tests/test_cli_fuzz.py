"""Fuzzed run configs, cluster specs, hierarchy TSVs, dataset CSVs and
checkpoints through ``clnce.cli.main``. The only outcomes allowed are exit
0, or exit 2 or 3 with one ``error [...]`` line on stderr; a traceback fails
the test.

Each input is a valid one with a few values, lines or cells replaced, so
that runs reach training as well as the parsers."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clnce.cli import main
from clnce.datagen import make_mixture_dataset
from clnce.encoder import OptimizerHyper, OptimizerState, init_model, save_checkpoint
from clnce.pipeline import TrainConfig

FUZZ = settings(max_examples=60)

DATA = make_mixture_dataset(num_classes=3, dim=3, num_samples=24, num_attributes=2, seed=0)

# Small enough that any int here keeps a run short (epochs, K, max_iters...);
# +-10**400 fits neither an int64 nor a float64, so every key refuses it
VALUES = st.one_of(
    st.integers(-2, 4),
    st.sampled_from([0.5, -0.5, 2.5, 1e-8, 1e308, float("nan"), float("inf"), 10**400,
                     -10**400, "2", "x", True, False, None, {}, {"source": "labels"}]),
    st.lists(st.integers(-1, 4), max_size=3),
    st.lists(st.lists(st.one_of(st.integers(-1, 3), st.just("x")), max_size=3), max_size=3),
)
SPECS = [
    {"source": "labels"},
    {"source": "instance_id"},
    {"source": "attributes", "k": 1},
    {"source": "hierarchy", "level": 2},
    {"source": "kmeans", "K": 2, "max_iters": 2},
    {"source": "synthetic", "mode": "refine", "splits_per_class": 2},
    {"source": "synthetic", "mode": "permute", "splits_per_class": 2, "fixed_class_set": [0]},
    {"source": "synthetic", "mode": "coarsen", "merge_groups": [[0, 1], [2]]},
]
SPEC_KEYS = ["source", "mode", "k", "level", "K", "max_iters", "tol", "seed",
             "splits_per_class", "merge_groups", "fixed_class_set", "bogus"]
BASE_TRAIN = {"epochs": 1, "batch_size": 4, "encoder_widths": [4], "projection_widths": [3],
              "eval_epochs": 2}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    names = ("data.csv", "hier.tsv", "run.json", "out", "clusters.csv", "ckpt.bin")
    return {name: str(root / name) for name in names}


def write(path, lines, sep="\n"):
    with open(path, "wb") as fh:
        fh.write(sep.join(lines).encode("utf-8", "surrogateescape"))


def assert_clean_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == []
    else:
        assert rc in (2, 3) and len(lines) == 1 and lines[0].startswith("error ["), (rc, lines)


HIER_LINES = [f"{p}\t{c}" for p, c in DATA.hierarchy.edges] + ["#labels"] + [
    f"{leaf}\t{lab}" for leaf, lab in sorted(DATA.hierarchy.leaf_label_map.items())]
CSV_ROWS = [["id", "f0", "f1", "f2", "a0", "a1", "label"]] + [
    [sid, *map(repr, f.tolist()), *map(str, a.tolist()), str(lab)]
    for sid, f, a, lab in zip(DATA.ids, DATA.features, DATA.attributes, DATA.labels)]


def run_train(paths, train_values, top=None, data_rows=CSV_ROWS, sep="\n"):
    write(paths["data.csv"], [",".join(r) for r in data_rows], sep)
    write(paths["hier.tsv"], HIER_LINES)
    raw = {"data": paths["data.csv"], "hierarchy": paths["hier.tsv"],
           "train": train_values, "train_fraction": 0.7, **(top or {})}
    with open(paths["run.json"], "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    assert_clean_outcome(["train", "--config", paths["run.json"], "--out", paths["out"]])


@FUZZ
@given(values=st.dictionaries(st.sampled_from([*TrainConfig.__dataclass_fields__, "bogus"]),
                              VALUES, max_size=2),
       spec=st.sampled_from(SPECS),
       spec_values=st.dictionaries(st.sampled_from(SPEC_KEYS), VALUES, max_size=2),
       top=st.dictionaries(st.sampled_from(["data", "hierarchy", "train_fraction", "bogus"]),
                           VALUES, max_size=1))
@example(values={"seed": -1}, spec=SPECS[0], spec_values={}, top={})
@example(values={}, spec=SPECS[4], spec_values={"seed": -1}, top={})
@example(values={}, spec=SPECS[5], spec_values={"splits_per_class": "2"}, top={})
@example(values={}, spec=SPECS[7], spec_values={"merge_groups": 5}, top={})
@example(values={}, spec=SPECS[7], spec_values={"merge_groups": [[0, 1], [2, "x"]]},
         top={})
@example(values={}, spec=SPECS[6], spec_values={"fixed_class_set": 5}, top={})
@example(values={"encoder_widths": []}, spec=SPECS[0], spec_values={}, top={})
@example(values={"projection_widths": []}, spec=SPECS[0], spec_values={}, top={})
@example(values={"encoder_widths": [0]}, spec=SPECS[0], spec_values={}, top={})
@example(values={"peak_lr": -1}, spec=SPECS[0], spec_values={}, top={})
@example(values={"eval_epochs": -1}, spec=SPECS[0], spec_values={}, top={})
@example(values={}, spec=SPECS[0], spec_values={"K": 3}, top={})
@example(values={}, spec=SPECS[0], spec_values={}, top={"train_fraction": "abc"})
@example(values={"peak_lr": 10**400}, spec=SPECS[0], spec_values={}, top={})
@example(values={"epochs": 10**400}, spec=SPECS[0], spec_values={}, top={})
@example(values={"batch_size": 10**400}, spec=SPECS[0], spec_values={}, top={})
@example(values={}, spec=SPECS[0], spec_values={}, top={"train_fraction": -10**400})
@example(values={}, spec=SPECS[0], spec_values={}, top={"data": None})
@example(values={}, spec=SPECS[3], spec_values={}, top={"hierarchy": 5})
def test_run_config_values(paths, values, spec, spec_values, top):
    train_values = {**BASE_TRAIN, "cluster_source": {**spec, **spec_values}, **values}
    run_train(paths, train_values, top)


@FUZZ
@given(keep=st.lists(st.integers(0, 5).map(bool), min_size=len(HIER_LINES),
                     max_size=len(HIER_LINES)),
       extra=st.lists(st.tuples(st.integers(0, len(HIER_LINES)), st.sampled_from(
           ["#labels", "", "x", "a\tb\tc", "\t", " root\tg0", "leaf0\tg0", "g1\tleaf0",
            "leaf0\tx", "g0\t1", "leaf1\t-1", "leaf2\t99999999999999999999"])), max_size=2),
       level=st.integers(0, 4))
@example(keep=[], extra=[(0, "root\ta")], level=1)
@example(keep=[True] * len(HIER_LINES), extra=[(0, "\udcff\udcfe")], level=2)
def test_hierarchy_tsv(paths, keep, extra, level):
    lines = [line for line, k in zip(HIER_LINES, keep) if k]
    for at, line in extra:
        lines.insert(at, line)
    write(paths["data.csv"], [",".join(r) for r in CSV_ROWS])
    write(paths["hier.tsv"], lines)
    assert_clean_outcome(["make-clusters", "--data", paths["data.csv"], "--hierarchy",
                          paths["hier.tsv"], "--source", "hierarchy", "--level", str(level),
                          "--out", paths["clusters.csv"]])


CELLS = ["0", "1", "-1", "2.5", "nan", "inf", "1e400", "1e160", "-1e160", "x", "", '"q"',
         "0,1", "\udcff", "1099511627776", None]
# finite features whose squared distances overflow to inf
OVERFLOW_ROWS = [CSV_ROWS[0][:3] + ["label"]] + [
    [str(i), f"{s * 1e160 * (1 + i / 8)!r}", f"{-s * 1e160!r}", str(i % 2)]
    for i, s in enumerate([1, -1, 1, 1, -1, -1, 1, -1])]


@FUZZ
@given(base=st.just(CSV_ROWS),
       edits=st.lists(st.tuples(st.integers(0, len(CSV_ROWS) - 1), st.integers(0, 7),
                                st.sampled_from(CELLS)), max_size=3),
       rows=st.integers(0, len(CSV_ROWS)),
       sep=st.sampled_from(["\n", "\r\n"]))
@example(base=CSV_ROWS, edits=[(0, 0, "\udcff\udcfeid")], rows=len(CSV_ROWS), sep="\n")
@example(base=CSV_ROWS, edits=[], rows=0, sep="\n")
@example(base=CSV_ROWS, edits=[(5, 6, "1099511627776")], rows=len(CSV_ROWS), sep="\n")
@example(base=OVERFLOW_ROWS, edits=[], rows=len(OVERFLOW_ROWS), sep="\n")
def test_dataset_csv(paths, base, edits, rows, sep):
    table = [list(r) for r in base[:rows]]
    for row, col, cell in edits:
        if row < len(table):
            cells = table[row]
            if cell is None:
                del cells[col:col + 1]
            else:
                cells[min(col, len(cells)):col + 1] = [cell]
    spec = {"source": "kmeans", "K": 2, "max_iters": 2}
    run_train(paths, {**BASE_TRAIN, "cluster_source": spec},
              data_rows=table, sep=sep)


@pytest.fixture(scope="module")
def checkpoint(paths):
    """The header (a dict) and the parameter blocks of a valid checkpoint for
    DATA's three features."""
    model = init_model([3, 4], [4, 3], seed=0)
    hyper = OptimizerHyper(peak_lr=0.1, momentum=0.95, weight_decay=1e-4,
                           warmup_steps=10, total_steps=100)
    save_checkpoint(model, OptimizerState.for_model(model, hyper), paths["ckpt.bin"])
    with open(paths["ckpt.bin"], "rb") as fh:
        return json.loads(fh.readline()), fh.read()


DELETE = object()
EDITS = st.one_of(VALUES, st.just(DELETE))


def edited(mapping, edits):
    out = dict(mapping)
    for key, value in edits.items():
        if value is DELETE:
            out.pop(key, None)
        else:
            out[key] = value
    return out


def resized(header, blob):
    """``blob`` repeated or cut to the size the header's widths imply, so that
    edited widths can reach the probe; ``blob`` itself where they imply none."""
    try:
        dims = header["encoder_dims"][:-1] + header["projection_dims"]
        size = 16 * sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    except (KeyError, TypeError):
        return blob
    if not (isinstance(size, int) and 0 < size <= 1 << 20):
        return blob
    return (blob * (size // len(blob) + 1))[:size]


@FUZZ
@given(header=st.dictionaries(st.sampled_from(["encoder_dims", "projection_dims",
                                               "step_count", "hyper", "bogus"]),
                              EDITS, max_size=2),
       hyper=st.dictionaries(st.sampled_from([*OptimizerHyper.__dataclass_fields__, "bogus"]),
                             EDITS, max_size=2),
       head=st.one_of(st.none(), st.sampled_from([b"", b"5", b"[]", b"{", b"\xff\xfe"])),
       fit=st.booleans(),
       cut=st.one_of(st.just(0), st.integers(-24, 24)))
@example(header={"step_count": float("inf")}, hyper={}, head=None, fit=False, cut=0)
@example(header={"step_count": 2.7}, hyper={}, head=None, fit=False, cut=0)
@example(header={"encoder_dims": [3.0, 4]}, hyper={}, head=None, fit=False, cut=0)
@example(header={"encoder_dims": [3, True]}, hyper={}, head=None, fit=False, cut=0)
@example(header={"encoder_dims": [3, 1], "projection_dims": [1, 1]}, hyper={}, head=None,
         fit=True, cut=0)
@example(header={}, hyper={}, head=None, fit=False, cut=-100)
@example(header={}, hyper={}, head=None, fit=False, cut=8)
def test_checkpoint(paths, checkpoint, header, hyper, head, fit, cut):
    base_header, blob = checkpoint
    header = edited(base_header, header)
    if isinstance(header.get("hyper"), dict):
        header["hyper"] = edited(header["hyper"], hyper)
    if fit:
        blob = resized(header, blob)
    blob = blob[:len(blob) + cut] if cut < 0 else blob + bytes(cut)
    if head is None:
        head = json.dumps(header).encode("utf-8")
    with open(paths["ckpt.bin"], "wb") as fh:
        fh.write(head + b"\n" + blob)
    write(paths["data.csv"], [",".join(r) for r in CSV_ROWS])
    assert_clean_outcome(["eval", "--checkpoint", paths["ckpt.bin"], "--train-data",
                          paths["data.csv"], "--eval-data", paths["data.csv"], "--epochs", "2"])
