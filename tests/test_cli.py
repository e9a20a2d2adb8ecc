import json
import os

import pytest

from clnce.cli import main
from clnce.data import save_dataset, save_hierarchy
from clnce.datagen import make_mixture_dataset


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
