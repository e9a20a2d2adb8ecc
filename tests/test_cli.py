import json
import os
import pathlib
import re
import runpy
import subprocess
import sys

import numpy as np
import pytest

import clnce
from clnce import objective
from clnce.cli import main
from clnce.data import Dataset, save_dataset, save_hierarchy
from clnce.datagen import make_mixture_dataset
from clnce.encoder import init_model, save_checkpoint


@pytest.fixture()
def workspace(tmp_path):
    d = make_mixture_dataset(
        num_classes=3, dim=6, num_samples=90, num_attributes=4,
        class_sep=3.0, seed=0,
    )
    data_path = str(tmp_path / "data.csv")
    hier_path = str(tmp_path / "hier.tsv")
    save_dataset(d, data_path)
    save_hierarchy(d.hierarchy, hier_path)
    cfg = {
        "data": data_path,
        "hierarchy": hier_path,
        "train": {
            "epochs": 2, "batch_size": 16, "seed": 0,
            "encoder_widths": [8], "projection_widths": [4],
            "eval_epochs": 30,
        },
        "train_fraction": 0.7,
    }
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    return tmp_path, data_path, hier_path, cfg_path


def write_spec(tmp_path, spec):
    path = str(tmp_path / "spec.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    return path


def update_train_config(cfg_path, **values):
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    cfg["train"].update(values)
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)


class TestTrain:
    def test_train_writes_artifacts(self, workspace, capsys):
        tmp_path, _, _, cfg_path = workspace
        out = str(tmp_path / "run1")
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        for name in ("checkpoint.bin", "report.json", "loss.csv", "info_plane.csv"):
            assert os.path.exists(os.path.join(out, name)), name
        captured = capsys.readouterr()
        assert "final loss" in captured.out
        assert "linear accuracy" in captured.out

    def test_repeat_runs_are_byte_identical(self, workspace):
        tmp_path, _, _, cfg_path = workspace
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert main(["train", "--config", cfg_path, "--out", out1]) == 0
        assert main(["train", "--config", cfg_path, "--out", out2]) == 0
        for name in ("checkpoint.bin", "loss.csv", "info_plane.csv", "report.json"):
            b1 = pathlib.Path(out1, name).read_bytes()
            b2 = pathlib.Path(out2, name).read_bytes()
            assert b1 == b2, name

    @pytest.mark.parametrize("source", [{"source": "labels"}, {"source": "kmeans", "K": 10}],
                             ids=["labels", "kmeans"])
    def test_artifacts_do_not_depend_on_blas_threads(self, tmp_path, source):
        # the default widths, so that BLAS has work to split over two threads
        assert main(["make-data", "--preset", "mixture", "--out", str(tmp_path)]) == 0
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"data": str(tmp_path / "mixture.csv"), "train": {
            "epochs": 2, "eval_epochs": 20, "cluster_source": source}}))
        src = str(pathlib.Path(clnce.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "clnce.cli", "train", "--config", str(cfg_path),
                 "--out", str(tmp_path / threads)], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
        for name in ("checkpoint.bin", "report.json", "loss.csv", "info_plane.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_seed_override_changes_run(self, workspace):
        tmp_path, _, _, cfg_path = workspace
        out1 = str(tmp_path / "s0")
        out2 = str(tmp_path / "s7")
        main(["train", "--config", cfg_path, "--out", out1])
        main(["train", "--config", cfg_path, "--out", out2, "--seed", "7"])
        b1 = pathlib.Path(out1, "checkpoint.bin").read_bytes()
        b2 = pathlib.Path(out2, "checkpoint.bin").read_bytes()
        assert b1 != b2

    def test_unknown_config_key_exits_2(self, workspace, capsys):
        tmp_path, data_path, _, _ = workspace
        bad = {"data": data_path, "train": {}, "extra": 1}
        bad_path = str(tmp_path / "bad.json")
        with open(bad_path, "w") as fh:
            json.dump(bad, fh)
        assert main(["train", "--config", bad_path, "--out", str(tmp_path / "x")]) == 2
        assert "error [ParameterError]" in capsys.readouterr().err

    def test_missing_data_file_exits_3(self, workspace, tmp_path):
        cfg = {"data": str(tmp_path / "nope.csv"), "train": {}}
        cfg_path = str(tmp_path / "missing.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("top", [
        {"train": {"epochs": 0}},
        {"train": {"bogus": 1}},
        {"train": {"cluster_source": {"source": "nope"}}},
        {"train": {}, "train_fraction": "x"},
        {"train": {}, "hierarchy": 5},
    ], ids=json.dumps)
    def test_config_parsed_before_data_is_read(self, tmp_path, capsys, top):
        # the data file does not exist, so reading it first would exit 3
        cfg_path = str(tmp_path / "bad.json")
        with open(cfg_path, "w") as fh:
            json.dump({"data": str(tmp_path / "nope.csv"), **top}, fh)
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2
        assert "error [ParameterError]" in capsys.readouterr().err

    def test_null_hierarchy(self, workspace):
        tmp_path, data_path, _, cfg_path = workspace
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        cfg["hierarchy"] = None
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 0


class TestBadInput:
    """Malformed input ends in a categorised error with exit code 2."""

    def run_bad(self, argv, capsys, category):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error [{category}]" in err
        assert "Traceback" not in err
        return err

    def test_truncated_checkpoint(self, workspace, capsys):
        tmp_path, data_path, _, cfg_path = workspace
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        ckpt = os.path.join(out, "checkpoint.bin")
        with open(ckpt, "rb") as fh:
            blob = fh.read()
        with open(ckpt, "wb") as fh:
            fh.write(blob[: len(blob) - 100])
        capsys.readouterr()
        self.run_bad(
            ["eval", "--checkpoint", ckpt, "--train-data", data_path,
             "--eval-data", data_path, "--epochs", "5"],
            capsys, "StateError",
        )

    @pytest.mark.parametrize("command", ["make-clusters", "train"])
    def test_kmeans_distance_overflow(self, workspace, command):
        # finite features whose squared distances overflow to inf; run in a
        # child process, where numpy's warnings reach stderr
        tmp_path, _, _, cfg_path = workspace
        rng = np.random.default_rng(0)
        features = rng.choice([-1.0, 1.0], size=(8, 2)) * 1e160 * (1 + rng.random((8, 2)))
        data_path = str(tmp_path / "huge.csv")
        save_dataset(Dataset(features=features, labels=np.arange(8) % 2), data_path)
        if command == "make-clusters":
            argv = ["make-clusters", "--data", data_path, "--spec",
                    write_spec(tmp_path, {"source": "kmeans", "K": 3}),
                    "--out", str(tmp_path / "c.csv")]
        else:
            with open(cfg_path) as fh:
                cfg = json.load(fh)
            cfg["data"] = data_path
            del cfg["hierarchy"]
            cfg["train"]["cluster_source"] = {"source": "kmeans", "K": 3}
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            argv = ["train", "--config", cfg_path, "--out", str(tmp_path / "x")]
        src = str(pathlib.Path(clnce.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "clnce.cli", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error [NumericError]: squared distances overflow in k-means++ seeding"
        ]

    @pytest.mark.parametrize("command", ["make-clusters", "train"])
    def test_kmeans_on_fewer_distinct_rows_than_k(self, workspace, capsys, monkeypatch,
                                                  command):
        # two distinct rows cannot fill three clusters: the clustering is
        # refused where it is built, before any --out or training step
        tmp_path, _, _, cfg_path = workspace
        data_path = str(tmp_path / "two_rows.csv")
        features = np.repeat([[0.0, 1.0], [2.0, 3.0]], 3, axis=0)
        save_dataset(Dataset(features=features, labels=np.arange(6) % 2), data_path)
        spec = {"source": "kmeans", "K": 3}
        out = str(tmp_path / "out")
        if command == "make-clusters":
            argv = ["make-clusters", "--data", data_path,
                    "--spec", write_spec(tmp_path, spec), "--out", out]
        else:
            with open(cfg_path) as fh:
                cfg = json.load(fh)
            cfg.update(data=data_path, hierarchy=None)
            cfg["train"].update(cluster_source=spec, batch_size=2)
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            argv = ["train", "--config", cfg_path, "--out", out]

        def no_step(*args):
            raise AssertionError("a training step ran")
        monkeypatch.setattr(objective, "sample_pair_batch", no_step)
        err = self.run_bad(argv, capsys, "ParameterError")
        assert re.search(r"kmeans\(3\): cluster \d has no rows", err)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("values, message", [
        pytest.param(*case, id=json.dumps(case[0])) for case in [
            ({"temperature": 1e-308}, "loss diverged at step 0"),
            ({"temperature": 5e-324}, "non-finite scores"),
            ({"temperature": 1e-300}, "non-finite projection output"),
            ({"peak_lr": 1e300}, "non-finite projection output"),
            ({"weight_decay": 1e300, "peak_lr": 1e10}, "non-finite projection output"),
            # one step leaves finite weights whose full-set embedding overflows
            ({"epochs": 1, "batch_size": 4096, "peak_lr": 1e308,
              "cluster_source": {"source": "instance_id"}, "eval_epochs": 0},
             "non-finite encoder output"),
        ]
    ])
    def test_training_overflow(self, workspace, values, message):
        # scores, a loss, weights or an embedding that overflow; run in a
        # child process, where numpy's warnings reach stderr
        tmp_path, _, _, cfg_path = workspace
        update_train_config(cfg_path, **values)
        src = str(pathlib.Path(clnce.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "clnce.cli", "train", "--config", cfg_path,
             "--out", str(tmp_path / "x")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error [NumericError]: {message}"]

    def test_last_step_leaves_non_finite_weights(self, tmp_path, capsys):
        # one step on unlabeled rows: no probe runs a forward after it, so the
        # checkpoint writer is the first to see the weights
        d = make_mixture_dataset(num_classes=4, dim=8, num_samples=400, seed=0)
        data_path = str(tmp_path / "data.csv")
        save_dataset(Dataset(features=d.features), data_path)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"data": data_path, "train": {
            "epochs": 1, "batch_size": 256, "peak_lr": 1e10, "weight_decay": 1e300,
            "encoder_widths": [16], "projection_widths": [8],
            "cluster_source": {"source": "instance_id"}}}))
        out = tmp_path / "run"
        err = self.run_bad(["train", "--config", str(cfg_path), "--out", str(out)],
                           capsys, "NumericError")
        assert "non-finite parameters" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_embedding_too_wide(self, workspace, command):
        # an (n, D) embedding of 2000 or 1400 rows at width 2^17 takes 1.4 GB
        # or more; the child runs under a 1.2 GB address-space limit, so a
        # missing check ends in a MemoryError, not in that allocation
        tmp_path, _, _, cfg_path = workspace
        width = 2**17
        data_path = str(tmp_path / "rows.csv")
        features = np.random.default_rng(0).normal(size=(2000, 1))
        save_dataset(Dataset(features=features, labels=np.arange(2000) % 2), data_path)
        if command == "train":
            with open(cfg_path) as fh:
                cfg = json.load(fh)
            cfg["data"] = data_path
            del cfg["hierarchy"]
            cfg["train"].update(encoder_widths=[width],
                                cluster_source={"source": "kmeans", "K": 5})
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            argv = ["train", "--config", cfg_path, "--out", str(tmp_path / "x")]
            cause, shape = f"encoder_widths [{width}] on 1400 rows", (1400, width)
        else:
            ckpt = str(tmp_path / "wide.bin")
            model = init_model([1, width], [width, 4])
            save_checkpoint(model, np.zeros_like(model.params), ckpt)
            argv = ["eval", "--checkpoint", ckpt, "--train-data", data_path,
                    "--eval-data", data_path]
            cause, shape = f"encoder width {width} on 2000 rows", (width, 2000)
        limit = 1_200_000_000
        child = ("import resource, runpy; "
                 f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
                 "runpy.run_module('clnce.cli', run_name='__main__')")
        src = str(pathlib.Path(clnce.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", child, *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stderr.splitlines() == [
            f"error [SizeError]: {cause}: a dense {shape} array has more than 134217728 cells"
        ]
        assert proc.returncode == 2

    def test_malformed_run_config(self, workspace, capsys):
        tmp_path, _, _, cfg_path = workspace
        with open(cfg_path) as fh:
            text = fh.read()
        with open(cfg_path, "w") as fh:
            fh.write(text[:-5])
        self.run_bad(
            ["train", "--config", cfg_path, "--out", str(tmp_path / "x")],
            capsys, "SchemaError",
        )

    def test_wrong_field_type(self, workspace, capsys):
        tmp_path, _, _, cfg_path = workspace
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        cfg["train"]["epochs"] = "2"
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        self.run_bad(
            ["train", "--config", cfg_path, "--out", str(tmp_path / "x")],
            capsys, "ParameterError",
        )

    @pytest.mark.parametrize("fraction", ["abc", True, None])
    def test_wrong_train_fraction_type(self, workspace, capsys, fraction):
        tmp_path, _, _, cfg_path = workspace
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        cfg["train_fraction"] = fraction
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        self.run_bad(
            ["train", "--config", cfg_path, "--out", str(tmp_path / "x")],
            capsys, "ParameterError",
        )

    @pytest.mark.parametrize("spec, key", [
        ({"source": "attributes"}, "'k'"),
        ({"source": "hierarchy"}, "'level'"),
        ({"source": "kmeans", "max_iters": 5}, "'K'"),
        ({"source": "synthetic"}, "'mode'"),
        ({"source": "synthetic", "mode": "coarsen"}, "'merge_groups'"),
    ])
    def test_missing_cluster_spec_key(self, workspace, capsys, spec, key):
        tmp_path, _, _, cfg_path = workspace
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        cfg["train"]["cluster_source"] = spec
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        err = self.run_bad(
            ["train", "--config", cfg_path, "--out", str(tmp_path / "x")],
            capsys, "ParameterError",
        )
        assert f"needs key {key}" in err
        assert not os.path.exists(str(tmp_path / "x"))

    @pytest.mark.parametrize("values", [
        {"seed": -1},
        {"cluster_source": {"source": "kmeans", "K": 3, "seed": -1}},
        {"cluster_source": {"source": "synthetic", "mode": "refine", "splits_per_class": "2"}},
        {"cluster_source": {"source": "synthetic", "mode": "coarsen", "merge_groups": 5}},
        {"cluster_source": {"source": "synthetic", "mode": "coarsen",
                            "merge_groups": [[0, 1], [2, "x"]]}},
        {"cluster_source": {"source": "synthetic", "mode": "permute", "splits_per_class": 1,
                            "fixed_class_set": 5}},
        {"encoder_widths": []},
        {"projection_widths": []},
        {"encoder_widths": [0]},
        {"peak_lr": -1},
        {"eval_epochs": -1},
        {"cluster_source": {"source": "labels", "K": 3}},
        {"noise_sigma": -1},
        {"mask_prob": 1.5},
        {"epochs": 1, "eval_lr": -0.5},
    ], ids=json.dumps)
    def test_bad_train_value(self, workspace, capsys, values):
        tmp_path, _, _, cfg_path = workspace
        update_train_config(cfg_path, **values)
        err = self.run_bad(
            ["train", "--config", cfg_path, "--out", str(tmp_path / "x")],
            capsys, "ParameterError",
        )
        assert len(err.splitlines()) == 1
        assert not os.path.exists(str(tmp_path / "x"))

    @pytest.mark.parametrize("values, category, message", [
        pytest.param(*case, id=json.dumps(case[0])) for case in [
            ({"temperature": 0}, "ParameterError", "key 'temperature' must be a number > 0"),
            ({"momentum": 1.0}, "ParameterError", "key 'momentum' must be a number in [0, 1)"),
            ({"momentum": 1.5}, "ParameterError", "key 'momentum' must be a number in [0, 1)"),
            ({"weight_decay": -1}, "ParameterError",
             "key 'weight_decay' must be a finite number >= 0"),
            ({"warmup_steps": -1}, "ParameterError", "key 'warmup_steps' must be an int >= 0"),
            ({"warmup_steps": -3}, "ParameterError", "key 'warmup_steps' must be an int >= 0"),
            ({"cluster_source": {"source": "synthetic", "mode": "refine", "splits_per_class": 0}},
             "ParameterError", "key 'splits_per_class' must be an int >= 1"),
            ({"cluster_source": {"source": "kmeans", "K": 3, "max_iters": 0}}, "ParameterError",
             "key 'max_iters' must be an int >= 1"),
            ({"cluster_source": {"source": "kmeans", "K": 0}}, "ParameterError",
             "key 'K' must be an int >= 1"),
            ({"cluster_source": {"source": "attributes", "k": 0}}, "ParameterError",
             "key 'k' must be an int >= 1"),
            ({"cluster_source": {"source": "hierarchy", "level": 0}}, "ParameterError",
             "key 'level' must be an int >= 1"),
            ({"train_fraction": 1.5}, "ParameterError",
             "key 'train_fraction' must be a number in (0, 1)"),
            ({"train_fraction": 0.0}, "ParameterError",
             "key 'train_fraction' must be a number in (0, 1)"),
            ({"cluster_source": {"source": "hierarchy", "level": 9}}, "ParameterError",
             "level 9 exceeds max leaf depth 3"),
            ({"cluster_source": {"source": "synthetic", "mode": "refine",
                                 "splits_per_class": 10**6}},
             "ParameterError", "cannot split into 1000000"),
            # sizes that would allocate TiBs: refused before anything is allocated
            ({"batch_size": 2**40}, "SizeError",
             "batch_size 1099511627776: a dense (1099511627776, 1099511627776) array"),
            ({"encoder_widths": [2**40]}, "SizeError",
             "encoder_widths [1099511627776] and projection_widths [4]: a dense ("),
            ({"train_fraction": 0.01}, "SizeError",
             "train_fraction 0.01 of 90 rows leaves no train row"),
            # scores of up to 1e308 overflow the loss at the first step
            ({"epochs": 1, "temperature": 1e-308}, "NumericError", "loss diverged at step 0"),
        ]
    ])
    def test_value_out_of_range_for_its_use(self, workspace, capsys, values, category,
                                            message):
        # a range of its own is refused with the config; a cluster-spec range
        # that depends on the data, a size and a divergence where the value is
        # used. --out is made only by a run that succeeds
        tmp_path, _, _, cfg_path = workspace
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        if "train_fraction" in values:
            cfg.update(values)
        else:
            cfg["train"].update(values)
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        err = self.run_bad(
            ["train", "--config", cfg_path, "--out", str(tmp_path / "x")], capsys, category,
        )
        assert message in err
        assert len(err.splitlines()) == 1
        assert not os.path.exists(str(tmp_path / "x"))

    @pytest.mark.parametrize("key, value", [pytest.param(*kv, id=kv[0]) for kv in [
        ("peak_lr", 10**400), ("temperature", float("inf")), ("momentum", -10**400),
        ("weight_decay", 10**400), ("noise_sigma", float("nan")), ("mask_prob", 10**400),
        ("tol", float("nan")), ("train_fraction", 10**400), ("eval_lr", float("-inf")),
        ("epochs", 10**400), ("batch_size", 10**400), ("eval_epochs", 10**400),
    ]])
    def test_number_out_of_range(self, workspace, capsys, key, value):
        # numbers a float64 or an int64 cannot hold, or NaN and +-Infinity
        tmp_path, _, _, cfg_path = workspace
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        if key == "train_fraction":
            cfg[key] = value
        elif key == "tol":
            cfg["train"]["cluster_source"] = {"source": "kmeans", "K": 3, key: value}
        else:
            cfg["train"][key] = value
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        err = self.run_bad(
            ["train", "--config", cfg_path, "--out", str(tmp_path / "x")],
            capsys, "ParameterError",
        )
        assert f"key '{key}' must be" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_probe_divergence(self, workspace, command):
        # run in a child process, where numpy's warnings reach stderr
        tmp_path, data_path, _, cfg_path = workspace
        out = str(tmp_path / "run")
        if command == "eval":
            assert main(["train", "--config", cfg_path, "--out", out]) == 0
            argv = ["eval", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                    "--train-data", data_path, "--eval-data", data_path,
                    "--lr", "1e308", "--epochs", "5"]
        else:
            update_train_config(cfg_path, eval_lr=1e308, eval_epochs=5)
            argv = ["train", "--config", cfg_path, "--out", out]
        src = str(pathlib.Path(clnce.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "clnce.cli", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error [NumericError]: linear probe diverged to non-finite weights at lr 1e+308"
        ]

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_huge_label(self, workspace, capsys, command):
        # label 2**40 would lay out dense tables of 2**40 + 1 columns or rows
        tmp_path, data_path, _, cfg_path = workspace
        out = str(tmp_path / "run")
        if command == "eval":
            assert main(["train", "--config", cfg_path, "--out", out]) == 0
        d = make_mixture_dataset(num_classes=3, dim=6, num_samples=40, seed=1)
        labels = d.labels.copy()
        labels[0] = 2**40
        save_dataset(Dataset(features=d.features, labels=labels), data_path)
        if command == "eval":
            argv = ["eval", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                    "--train-data", data_path, "--eval-data", data_path]
            shape = "(1099511627777, 40)"
        else:
            update_train_config(cfg_path, encoder_widths=[4], projection_widths=[3])
            argv = ["train", "--config", cfg_path, "--out", out]
            shape = ", 1099511627777)"
        err = self.run_bad(argv, capsys, "SizeError")
        assert "ids up to 1099511627776: a dense (" in err
        assert shape in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("key, value", [("data", None), ("data", 5), ("hierarchy", 5)])
    def test_bad_run_config_path(self, workspace, capsys, key, value):
        tmp_path, _, _, cfg_path = workspace
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        cfg[key] = value
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        err = self.run_bad(
            ["train", "--config", cfg_path, "--out", str(tmp_path / "x")],
            capsys, "ParameterError",
        )
        assert f"key '{key}' must be a path" in err

    @pytest.mark.parametrize("command", ["make-data", "verify-bounds", "train", "make-clusters"])
    def test_negative_seed_flag(self, workspace, capsys, command):
        tmp_path, data_path, _, cfg_path = workspace
        out = str(tmp_path / "x")
        argv = {
            "make-data": ["make-data", "--out", out],
            "verify-bounds": ["verify-bounds", "--models", "1"],
            "train": ["train", "--config", cfg_path, "--out", out],
            "make-clusters": ["make-clusters", "--data", data_path, "--spec",
                              write_spec(tmp_path, {"source": "kmeans", "K": 2, "seed": -1}),
                              "--out", out],
        }[command]
        seed_flag = [] if command == "make-clusters" else ["--seed", "-1"]
        err = self.run_bad(argv + seed_flag, capsys, "ParameterError")
        assert "'seed' must be an int >= 0, got -1" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["make-clusters", "train"])
    def test_hierarchy_without_leaf_labels(self, workspace, capsys, command):
        tmp_path, data_path, hier_path, cfg_path = workspace
        with open(hier_path, "w") as fh:
            fh.write("root\ta\n")
        if command == "make-clusters":
            argv = ["make-clusters", "--data", data_path, "--hierarchy", hier_path,
                    "--spec", write_spec(tmp_path, {"source": "hierarchy", "level": 1}),
                    "--out", str(tmp_path / "c.csv")]
        else:
            update_train_config(cfg_path, cluster_source={"source": "hierarchy", "level": 1})
            argv = ["train", "--config", cfg_path, "--out", str(tmp_path / "x")]
        err = self.run_bad(argv, capsys, "SchemaError")
        assert f"{hier_path}: no leaf" in err

    @pytest.mark.parametrize("which", ["data", "hierarchy"])
    def test_file_not_utf8(self, workspace, capsys, which):
        tmp_path, data_path, hier_path, cfg_path = workspace
        path = data_path if which == "data" else hier_path
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(b"\xff\xfe" + blob)
        err = self.run_bad(
            ["train", "--config", cfg_path, "--out", str(tmp_path / "x")],
            capsys, "SchemaError",
        )
        assert f"{path}: not UTF-8" in err

    @pytest.mark.parametrize("command", ["train", "eval", "make-clusters", "infoplane"])
    def test_deeply_nested_json(self, workspace, capsys, command):
        tmp_path, data_path, _, cfg_path = workspace
        deep = tmp_path / "deep"
        deep.write_bytes(b"[" * 200_000 + b"\n")  # past the JSON decoder's recursion limit
        deep, out = str(deep), str(tmp_path / "x")
        argv, category, message = {
            "train": (["train", "--config", deep, "--out", out],
                      "SchemaError", "not valid JSON"),
            "eval": (["eval", "--checkpoint", deep, "--train-data", data_path,
                      "--eval-data", data_path], "StateError", "unreadable checkpoint header"),
            "make-clusters": (["make-clusters", "--data", data_path, "--spec", deep,
                               "--out", out], "SchemaError", "not valid JSON"),
            "infoplane": (["infoplane", "--config", cfg_path, "--configs", deep, "--out", out],
                          "SchemaError", "not valid JSON"),
        }[command]
        err = self.run_bad(argv, capsys, category)
        assert f"{deep}: {message} (maximum recursion depth exceeded" in err

    def test_missing_key_in_infoplane_spec(self, workspace, capsys):
        tmp_path, _, _, cfg_path = workspace
        specs_path = str(tmp_path / "specs.json")
        with open(specs_path, "w") as fh:
            json.dump([{"source": "labels"}, {"source": "attributes"}], fh)
        self.run_bad(
            ["infoplane", "--config", cfg_path, "--configs", specs_path,
             "--out", str(tmp_path / "sweep")],
            capsys, "ParameterError",
        )

    def test_infoplane_parses_every_spec_before_training(self, workspace, capsys):
        # the first spec fails only once its training starts (4 attributes)
        tmp_path, _, _, cfg_path = workspace
        specs_path = str(tmp_path / "specs.json")
        with open(specs_path, "w") as fh:
            json.dump([{"source": "attributes", "k": 99}, {"source": "nope"}], fh)
        err = self.run_bad(
            ["infoplane", "--config", cfg_path, "--configs", specs_path,
             "--out", str(tmp_path / "sweep")],
            capsys, "ParameterError",
        )
        assert "'nope'" in err

    def test_infoplane_failure_leaves_no_out(self, workspace, capsys):
        # the second spec fails once its training starts (4 attributes)
        tmp_path, _, _, cfg_path = workspace
        specs_path = str(tmp_path / "specs.json")
        with open(specs_path, "w") as fh:
            json.dump([{"source": "labels"}, {"source": "attributes", "k": 100}], fh)
        out = str(tmp_path / "sweep")
        err = self.run_bad(
            ["infoplane", "--config", cfg_path, "--configs", specs_path, "--out", out],
            capsys, "ParameterError",
        )
        assert "k=100 exceeds 4 attributes" in err
        assert not os.path.exists(out)

    def test_failed_run_keeps_an_existing_out(self, workspace, capsys):
        tmp_path, _, _, cfg_path = workspace
        out = tmp_path / "x"
        out.mkdir()
        (out / "kept.txt").write_text("kept")
        update_train_config(cfg_path, epochs=1, temperature=1e-308)
        self.run_bad(["train", "--config", cfg_path, "--out", str(out)], capsys, "NumericError")
        assert [p.name for p in out.iterdir()] == ["kept.txt"]

    def test_nan_checkpoint_weight(self, workspace, capsys):
        tmp_path, data_path, _, cfg_path = workspace
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        ckpt = os.path.join(out, "checkpoint.bin")
        with open(ckpt, "rb") as fh:
            blob = bytearray(fh.read())
        start = blob.index(b"\n") + 1
        blob[start:start + 8] = b"\x00\x00\x00\x00\x00\x00\xf8\x7f"  # a NaN in layer 0
        with open(ckpt, "wb") as fh:
            fh.write(blob)
        capsys.readouterr()
        err = self.run_bad(
            ["eval", "--checkpoint", ckpt, "--train-data", data_path,
             "--eval-data", data_path, "--epochs", "5"],
            capsys, "StateError",
        )
        assert "non-finite" in err
        assert "linear accuracy" not in capsys.readouterr().out

    @pytest.mark.parametrize("widths", [b"[6.0, 8]", b"[6, true]", b"[8]"])
    def test_ill_typed_checkpoint_widths(self, workspace, capsys, widths):
        tmp_path, data_path, _, cfg_path = workspace
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        ckpt = os.path.join(out, "checkpoint.bin")
        with open(ckpt, "rb") as fh:
            blob = fh.read()
        with open(ckpt, "wb") as fh:
            fh.write(blob.replace(b'"encoder_dims": [6, 8]', b'"encoder_dims": ' + widths))
        capsys.readouterr()
        err = self.run_bad(
            ["eval", "--checkpoint", ckpt, "--train-data", data_path,
             "--eval-data", data_path, "--epochs", "5"],
            capsys, "StateError",
        )
        assert "layer widths" in err

    @pytest.mark.parametrize("step_count", [b"1e999", b"2.7", b"-1", b"true", b'"3"'])
    def test_ill_typed_checkpoint_step_count(self, workspace, capsys, step_count):
        # eval reads the model alone, so a step_count of any kind is not refused
        tmp_path, data_path, _, cfg_path = workspace
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        ckpt = os.path.join(out, "checkpoint.bin")
        argv = ["eval", "--checkpoint", ckpt, "--train-data", data_path,
                "--eval-data", data_path, "--epochs", "5"]
        capsys.readouterr()
        assert main(argv) == 0
        want = capsys.readouterr().out
        with open(ckpt, "rb") as fh:
            blob = fh.read()
        with open(ckpt, "wb") as fh:
            fh.write(re.sub(rb'"step_count": \d+', b'"step_count": ' + step_count, blob, 1))
        assert main(argv) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", "-5", "'eval_epochs' must be an int >= 0, got -5"),
        ("--lr", "nan", "'eval_lr' must be a finite number >= 0, got nan"),
        ("--lr", "-inf", "'eval_lr' must be a finite number >= 0, got -inf"),
        ("--lr", "-0.5", "'eval_lr' must be a finite number >= 0, got -0.5"),
    ])
    def test_bad_eval_flag(self, workspace, capsys, flag, value, message):
        tmp_path, data_path, _, cfg_path = workspace
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        capsys.readouterr()
        err = self.run_bad(
            ["eval", "--checkpoint", os.path.join(out, "checkpoint.bin"),
             "--train-data", data_path, "--eval-data", data_path, f"{flag}={value}"],
            capsys, "ParameterError",
        )
        assert message in err
        assert "linear accuracy" not in capsys.readouterr().out

    @pytest.mark.parametrize("models", ["-3", "0"])
    def test_verify_bounds_needs_a_model(self, capsys, models):
        err = self.run_bad(["verify-bounds", "--models", models], capsys, "ParameterError")
        assert "--models must be an int >= 1" in err
        assert "all chains hold" not in capsys.readouterr().out

    @pytest.mark.parametrize("n, category, message", [
        ("0", "ParameterError", "n must be >= 1"),
        # over the budget on every drawn model: at least 10**7 count vectors
        ("10000000", "SizeError", "cells of count vectors exceed the budget of 4194304"),
    ])
    def test_verify_bounds_bad_batch_size(self, capsys, n, category, message):
        assert main(["verify-bounds", "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no model was evaluated
        assert captured.err.startswith(f"error [{category}]: ") and message in captured.err

    def test_eval_data_width_checked_before_the_probe_fit(self, workspace, capsys,
                                                          monkeypatch):
        tmp_path, data_path, _, cfg_path = workspace
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        narrow = str(tmp_path / "narrow.csv")
        save_dataset(make_mixture_dataset(num_classes=3, dim=3, num_samples=30, seed=1), narrow)

        def unreachable(*args):
            raise AssertionError("the probe was fit before the eval width was checked")

        monkeypatch.setattr("clnce.pipeline._fit_probe", unreachable)
        capsys.readouterr()
        err = self.run_bad(["eval", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                            "--train-data", data_path, "--eval-data", narrow],
                           capsys, "ShapeError")
        assert err == "error [ShapeError]: input width 3 != layer width 6\n"

    def test_permute_fixed_class_missing_from_the_data(self, workspace, capsys):
        tmp_path, data_path, _, _ = workspace
        out = str(tmp_path / "c.csv")
        spec = write_spec(tmp_path, {"source": "synthetic", "mode": "permute",
                                     "splits_per_class": 2, "fixed_class_set": [99]})
        err = self.run_bad(["make-clusters", "--data", data_path, "--spec", spec, "--out", out],
                           capsys, "ParameterError")
        assert "fixed_class_set [99] names labels the data lacks" in err
        assert not os.path.exists(out)

    def test_empty_merge_group(self, workspace, capsys):
        tmp_path, data_path, _, _ = workspace
        out = str(tmp_path / "c.csv")
        spec = write_spec(tmp_path, {"source": "synthetic", "mode": "coarsen",
                                     "merge_groups": [[0, 1, 2], []]})
        err = self.run_bad(["make-clusters", "--data", data_path, "--spec", spec, "--out", out],
                           capsys, "ParameterError")
        assert "synthetic(coarsen,2): cluster 1 has no rows" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("spec, key", [
        ({"source": "kmeans", "K": "x"}, "'K'"),
        ({"source": "kmeans", "K": 3, "max_iters": 2.5}, "'max_iters'"),
        ({"source": "attributes", "k": "abc"}, "'k'"),
    ])
    def test_wrong_cluster_spec_value_type(self, workspace, capsys, spec, key):
        tmp_path, _, _, cfg_path = workspace
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        cfg["train"]["cluster_source"] = spec
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        err = self.run_bad(
            ["train", "--config", cfg_path, "--out", str(tmp_path / "x")],
            capsys, "ParameterError",
        )
        assert f"key {key} must be" in err
        assert not os.path.exists(str(tmp_path / "x"))

    @pytest.mark.parametrize("configs, category", [
        (5, "SchemaError"),
        ([{"source": "labels"}], "ParameterError"),
        ([{"source": "labels"}, {"source": "nope"}], "ParameterError"),
    ])
    def test_infoplane_configs_checked_before_data_is_read(self, workspace, capsys,
                                                           configs, category):
        tmp_path, data_path, _, cfg_path = workspace
        os.remove(data_path)  # reading the dataset first would exit 3
        specs_path = str(tmp_path / "specs.json")
        with open(specs_path, "w") as fh:
            json.dump(configs, fh)
        self.run_bad(
            ["infoplane", "--config", cfg_path, "--configs", specs_path,
             "--out", str(tmp_path / "sweep")],
            capsys, category,
        )

    @pytest.mark.parametrize("configs", [5, {"source": "labels"}, "labels", None])
    def test_infoplane_configs_not_a_list(self, workspace, capsys, configs):
        tmp_path, _, _, cfg_path = workspace
        specs_path = str(tmp_path / "specs.json")
        with open(specs_path, "w") as fh:
            json.dump(configs, fh)
        err = self.run_bad(
            ["infoplane", "--config", cfg_path, "--configs", specs_path,
             "--out", str(tmp_path / "sweep")],
            capsys, "SchemaError",
        )
        assert "JSON list" in err

    @pytest.mark.parametrize("header", ["id,f0,fold,label", "id,f0,alpha", "label,id,f0"])
    def test_data_header_outside_grammar(self, workspace, capsys, header):
        tmp_path, data_path, _, cfg_path = workspace
        with open(data_path, "w") as fh:
            fh.write(f"{header}\nr0,1.0,0\nr1,2.0,1\n")
        err = self.run_bad(
            ["train", "--config", cfg_path, "--out", str(tmp_path / "x")],
            capsys, "SchemaError",
        )
        assert f"{data_path}:1:" in err


class TestEval:
    def test_eval_checkpoint(self, workspace, capsys):
        tmp_path, data_path, _, cfg_path = workspace
        out = str(tmp_path / "run")
        main(["train", "--config", cfg_path, "--out", out])
        capsys.readouterr()
        rc = main([
            "eval",
            "--checkpoint", os.path.join(out, "checkpoint.bin"),
            "--train-data", data_path,
            "--eval-data", data_path,
            "--epochs", "30",
        ])
        assert rc == 0
        assert "linear accuracy" in capsys.readouterr().out

    def test_eval_checkpoint_of_the_earlier_format(self, workspace, capsys):
        # the earlier format's header also held the optimizer's settings
        tmp_path, data_path, _, cfg_path = workspace
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        ckpt = os.path.join(out, "checkpoint.bin")
        argv = ["eval", "--checkpoint", ckpt, "--train-data", data_path,
                "--eval-data", data_path, "--epochs", "30"]
        capsys.readouterr()
        assert main(argv) == 0
        want = capsys.readouterr().out
        with open(ckpt, "rb") as fh:
            header, body = json.loads(fh.readline()), fh.read()
        header["hyper"] = {"decay_biases": False, "momentum": 0.95, "peak_lr": 0.1,
                           "total_steps": 6, "warmup_steps": 1, "weight_decay": 0.0001}
        with open(ckpt, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
        assert main(argv) == 0
        assert capsys.readouterr().out == want


class TestInfoplane:
    def test_sweep(self, workspace, capsys):
        tmp_path, _, _, cfg_path = workspace
        specs = [{"source": "labels"}, {"source": "instance_id"}]
        specs_path = str(tmp_path / "specs.json")
        with open(specs_path, "w") as fh:
            json.dump(specs, fh)
        out = str(tmp_path / "sweep")
        rc = main(["infoplane", "--config", cfg_path, "--configs", specs_path, "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "info_plane.csv"))
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all("score=" in ln for ln in lines)


class TestVerifyBounds:
    def test_all_chains_hold(self, capsys):
        rc = main(["verify-bounds", "--models", "10", "--seed", "3", "--n", "2"])
        assert rc == 0
        assert "all chains hold" in capsys.readouterr().out

    def test_batch_of_16(self, capsys):
        assert main(["verify-bounds", "--models", "3", "--n", "16"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 and lines[-1] == "all chains hold"

    def test_no_negative_zero_entropy(self, capsys):
        # 22 of these models have one state of z with p_z exactly 1.0
        assert main(["verify-bounds", "--models", "100", "--seed", "0", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("H(Z)=0.000000") >= 22 and "H(Z)=-0" not in out


class TestMakeClusters:
    def test_kmeans_export(self, workspace, capsys):
        tmp_path, data_path, _, _ = workspace
        out = str(tmp_path / "clusters.csv")
        rc = main([
            "make-clusters", "--data", data_path,
            "--spec", write_spec(tmp_path, {"source": "kmeans", "K": 5}), "--out", out,
        ])
        assert rc == 0
        assert os.path.exists(out)
        assert os.path.exists(out + ".json")
        assert "5 clusters" in capsys.readouterr().out

    def test_out_parent_is_made(self, workspace):
        tmp_path, data_path, _, _ = workspace
        out = str(tmp_path / "nodir" / "sub" / "c.csv")
        rc = main(["make-clusters", "--data", data_path,
                   "--spec", write_spec(tmp_path, {"source": "labels"}), "--out", out])
        assert rc == 0
        assert os.path.exists(out + ".json")

    def test_hierarchy_source(self, workspace):
        tmp_path, data_path, hier_path, _ = workspace
        out = str(tmp_path / "hclusters.csv")
        rc = main([
            "make-clusters", "--data", data_path, "--hierarchy", hier_path,
            "--spec", write_spec(tmp_path, {"source": "hierarchy", "level": 2}), "--out", out,
        ])
        assert rc == 0

    def test_hierarchy_names_that_differ_only_in_trailing_nuls(self, tmp_path, capsys):
        data_path, hier_path = str(tmp_path / "d.csv"), tmp_path / "h.tsv"
        save_dataset(Dataset(features=np.zeros((3, 1)), labels=np.array([1, 0, 1])), data_path)
        hier_path.write_text("root\tg\nroot\tg\0\ng\tl0\ng\0\tl1\n#labels\nl0\t0\nl1\t1\n")
        out = tmp_path / "c.csv"
        rc = main(["make-clusters", "--data", data_path, "--hierarchy", str(hier_path),
                   "--spec", write_spec(tmp_path, {"source": "hierarchy", "level": 2}),
                   "--out", str(out)])
        assert rc == 0
        assert "2 clusters (hierarchy(2))" in capsys.readouterr().out
        assert out.read_text() == "id,cluster\n0,0\n1,1\n2,0\n"

    def test_bad_k_exits_nonzero(self, workspace, capsys):
        tmp_path, data_path, _, _ = workspace
        rc = main([
            "make-clusters", "--data", data_path,
            "--spec", write_spec(tmp_path, {"source": "attributes", "k": 0}),
            "--out", str(tmp_path / "c.csv"),
        ])
        assert rc == 2
        assert "error [" in capsys.readouterr().err


class TestMakeData:
    def test_runs_as_a_module(self, tmp_path, monkeypatch, capsys):
        # `python -m clnce.cli`, in this process: a fresh run of the module's code
        monkeypatch.setattr(sys, "argv", ["clnce", "make-data", "--preset", "blobs",
                                          "--out", str(tmp_path)])
        monkeypatch.delitem(sys.modules, "clnce.cli")
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("clnce.cli", run_name="__main__")
        assert exit_.value.code == 0
        assert "wrote 400 samples" in capsys.readouterr().out

    def test_blobs_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "gen")
        rc = main(["make-data", "--preset", "blobs", "--seed", "1", "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "blobs.csv"))
        assert "wrote 400 samples" in capsys.readouterr().out
