import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import clnce
from clnce.cli import build_parser, main
from clnce.data import Dataset, save_dataset, save_hierarchy
from clnce.datagen import make_mixture_dataset
from clnce.pipeline import SPEC_KEYS


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
        for name in ("checkpoint.bin", "loss.csv"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2, name
        # report.json embeds its own output path, so compare everything else
        r1 = json.load(open(os.path.join(out1, "report.json")))
        r2 = json.load(open(os.path.join(out2, "report.json")))
        r1.pop("checkpoint_path")
        r2.pop("checkpoint_path")
        assert r1 == r2

    def test_seed_override_changes_run(self, workspace):
        tmp_path, _, _, cfg_path = workspace
        out1 = str(tmp_path / "s0")
        out2 = str(tmp_path / "s7")
        main(["train", "--config", cfg_path, "--out", out1])
        main(["train", "--config", cfg_path, "--out", out2, "--seed", "7"])
        b1 = open(os.path.join(out1, "checkpoint.bin"), "rb").read()
        b2 = open(os.path.join(out2, "checkpoint.bin"), "rb").read()
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
            argv = ["make-clusters", "--data", data_path, "--source", "kmeans",
                    "--K", "3", "--out", str(tmp_path / "c.csv")]
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
            ({"momentum": 1.0}, "ParameterError", "momentum must lie in [0, 1)"),
            ({"weight_decay": -1}, "ParameterError", "weight_decay must be >= 0"),
            ({"warmup_steps": -1}, "ParameterError", "need 0 <= warmup_steps <= total_steps"),
            ({"cluster_source": {"source": "hierarchy", "level": 9}}, "ParameterError",
             "level 9 exceeds max leaf depth 3"),
            ({"cluster_source": {"source": "synthetic", "mode": "refine", "splits_per_class": 0}},
             "ParameterError", "splits_per_class must be >= 1"),
            ({"cluster_source": {"source": "synthetic", "mode": "refine",
                                 "splits_per_class": 10**6}},
             "ParameterError", "cannot split into 1000000"),
            ({"cluster_source": {"source": "kmeans", "K": 3, "max_iters": 0}}, "ParameterError",
             "max_iters must be >= 1"),
            # sizes that would allocate TiBs: refused before anything is allocated
            ({"batch_size": 2**40}, "SizeError",
             "batch_size 1099511627776: a dense (1099511627776, 1099511627776) array"),
            ({"encoder_widths": [2**40]}, "SizeError",
             "encoder_widths [1099511627776] and projection_widths [4]: a dense ("),
        ]
    ])
    def test_value_out_of_range_for_its_use(self, workspace, capsys, values, category, message):
        # checked where the value is used, so after --out is made
        tmp_path, _, _, cfg_path = workspace
        update_train_config(cfg_path, **values)
        err = self.run_bad(
            ["train", "--config", cfg_path, "--out", str(tmp_path / "x")], capsys, category,
        )
        assert message in err
        assert len(err.splitlines()) == 1

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
            "make-clusters": ["make-clusters", "--data", data_path, "--source", "kmeans",
                              "--K", "2", "--out", out],
        }[command]
        err = self.run_bad(argv + ["--seed", "-1"], capsys, "ParameterError")
        assert "'seed' must be an int >= 0, got -1" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["make-clusters", "train"])
    def test_hierarchy_without_leaf_labels(self, workspace, capsys, command):
        tmp_path, data_path, hier_path, cfg_path = workspace
        with open(hier_path, "w") as fh:
            fh.write("root\ta\n")
        if command == "make-clusters":
            argv = ["make-clusters", "--data", data_path, "--hierarchy", hier_path,
                    "--source", "hierarchy", "--level", "1", "--out", str(tmp_path / "c.csv")]
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
        tmp_path, data_path, _, cfg_path = workspace
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
        ckpt = os.path.join(out, "checkpoint.bin")
        with open(ckpt, "rb") as fh:
            blob = fh.read()
        with open(ckpt, "wb") as fh:
            fh.write(re.sub(rb'"step_count": \d+', b'"step_count": ' + step_count, blob, 1))
        capsys.readouterr()
        err = self.run_bad(
            ["eval", "--checkpoint", ckpt, "--train-data", data_path,
             "--eval-data", data_path, "--epochs", "5"],
            capsys, "StateError",
        )
        assert "step_count" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", "-5", "'eval_epochs' must be an int >= 0, got -5"),
        ("--lr", "nan", "'eval_lr' must be a finite number, got nan"),
        ("--lr", "-inf", "'eval_lr' must be a finite number, got -inf"),
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


class TestMakeClusters:
    def test_kmeans_export(self, workspace, capsys):
        tmp_path, data_path, _, _ = workspace
        out = str(tmp_path / "clusters.csv")
        rc = main([
            "make-clusters", "--data", data_path, "--source", "kmeans",
            "--K", "5", "--out", out,
        ])
        assert rc == 0
        assert os.path.exists(out)
        assert os.path.exists(out + ".json")
        assert "5 clusters" in capsys.readouterr().out

    def test_hierarchy_source(self, workspace):
        tmp_path, data_path, hier_path, _ = workspace
        out = str(tmp_path / "hclusters.csv")
        rc = main([
            "make-clusters", "--data", data_path, "--hierarchy", hier_path,
            "--source", "hierarchy", "--level", "2", "--out", out,
        ])
        assert rc == 0

    def test_source_choices_are_the_non_synthetic_spec_sources(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        source = next(a for a in sub.choices["make-clusters"]._actions
                      if a.dest == "source")
        assert sorted(source.choices) == sorted(SPEC_KEYS.keys() - {"synthetic"})

    def test_bad_k_exits_nonzero(self, workspace, capsys):
        tmp_path, data_path, _, _ = workspace
        rc = main([
            "make-clusters", "--data", data_path, "--source", "attributes",
            "--k", "0", "--out", str(tmp_path / "c.csv"),
        ])
        assert rc == 2
        assert "error [" in capsys.readouterr().err


class TestMakeData:
    def test_blobs_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "gen")
        rc = main(["make-data", "--preset", "blobs", "--seed", "1", "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "blobs.csv"))
        assert "wrote 400 samples" in capsys.readouterr().out
