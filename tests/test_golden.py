"""Golden digests of what `clnce make-data` and `clnce train` write.

The table below holds the sha256 of `<preset>.csv`, `<preset>_hierarchy.tsv`
and stdout of `make-data` for both presets at seeds 0 and 1, and of
`checkpoint.bin`, `report.json`, `loss.csv` and `info_plane.csv`, and of
stdout without its `checkpoint:` line (which names the output path), for
the `labels`, `instance_id` and `kmeans` sources on `make-data --preset
mixture` at seeds 0 and 1. A change that keeps the bits passes it unedited;
a change that alters them on purpose edits the table in the same diff and
says why.

The bits depend on the BLAS kernel (see `encoder.embed`), so the table is
keyed by the numpy version and the OpenBLAS core that is running, read from
the library itself; the core that `np.show_config()` names is the build
target, not the one picked at runtime. On any other key the test is skipped,
and the skip reason holds the key and the digests it got.
"""

import ctypes
import hashlib
import json
import pathlib

import numpy as np
import pytest

from clnce.cli import main

SOURCES = {
    "labels": {"source": "labels"},
    "instance_id": {"source": "instance_id"},
    "kmeans": {"source": "kmeans", "K": 8, "max_iters": 5},
}
SEEDS = (0, 1)
PRESETS = ("mixture", "blobs")
ARTIFACTS = ("checkpoint.bin", "report.json", "loss.csv", "info_plane.csv")

GOLDEN = {
    "numpy 2.4.6, OpenBLAS core SkylakeX": {
        "make-data mixture seed 0: mixture.csv":
            "c82aaf654a6752ba502b29ace4d85428c849c364da999356b06523dde21899c9",
        "make-data mixture seed 0: mixture_hierarchy.tsv":
            "e330186e4b381f02b1e36d89a41e8348b1058cd9cb46989b91340a52f9d4dbdd",
        "make-data mixture seed 0: stdout":
            "51a3fb05fb429fa005c7c75396756ef51bf9a70c877a672b3754641fe963c67d",
        "make-data blobs seed 0: blobs.csv":
            "e2329ab8bc0cf97e47ee0f36d48380cc88560cf9a96bbac38dffe8a24fd6ccd5",
        "make-data blobs seed 0: blobs_hierarchy.tsv":
            "4fc09a4c24498bd685266561b466b6c3d4f6d2c66aff1c6679a1dd133a7c00fa",
        "make-data blobs seed 0: stdout":
            "db0477efb6a97e50b07f2a6e904839137921d5d37407eff9cabbe1a62ea9b93b",
        "make-data mixture seed 1: mixture.csv":
            "782c6ff6a1df8b1e7501420580bacff2b8c44e941e51513f41524747aebaa44a",
        "make-data mixture seed 1: mixture_hierarchy.tsv":
            "e330186e4b381f02b1e36d89a41e8348b1058cd9cb46989b91340a52f9d4dbdd",
        "make-data mixture seed 1: stdout":
            "02d90a00043a46a87b03bb445b8facc906c35bb619d2f2ebd79ffb69e550148b",
        "make-data blobs seed 1: blobs.csv":
            "ea56af123b7fa21bcc996647daa1614a0625ea783a3b59c722536220870f32f9",
        "make-data blobs seed 1: blobs_hierarchy.tsv":
            "4fc09a4c24498bd685266561b466b6c3d4f6d2c66aff1c6679a1dd133a7c00fa",
        "make-data blobs seed 1: stdout":
            "f1c5959a596abce0679541b01af95227861da87464f49dc1004bcdd05b6ef2af",
        "labels seed 0: checkpoint.bin":
            "8602bba33cef7c8c54971d303fd6af686da4189275b0af6a06fa80aff3e23c61",
        "labels seed 0: report.json":
            "9c88c1bcef0eaf373debd9e7c703c99c897b7001d1fedbb2ff1c7686a4d9351f",
        "labels seed 0: loss.csv":
            "38e7e8105d63162ae624ed12116641d04abf87f60322f0e12f0b956c31ec05f2",
        "labels seed 0: info_plane.csv":
            "96d0dc702cfc8e6b0b5509e6adb977c647aac427b25a508c0bb39032fe5dd55c",
        "labels seed 0: stdout":
            "b791b3a7746244192b99fada3e44178382dda64fd61744fa4284755216d2ae50",
        "instance_id seed 0: checkpoint.bin":
            "c11dff33731ded72452438d5e79306a51921fa0c0c14e1fa138a5733321ee45a",
        "instance_id seed 0: report.json":
            "c5f448209d632704b608555c7b9228d09fe6db94edff253e7118894640dd3bc3",
        "instance_id seed 0: loss.csv":
            "27514cef857e1f149a4b4d69eafe5c5770ad3cfff7fdea70a137e27a1196f8b4",
        "instance_id seed 0: info_plane.csv":
            "1e4c9dfbfbf089df810e47d60007129964dd1c4b7990f68409e89dff7cdb0536",
        "instance_id seed 0: stdout":
            "1ef214faf7770cc9b7304430e787418e87c645713e5441bfebb982b8f0db8aac",
        "kmeans seed 0: checkpoint.bin":
            "41a1856160ffdee382a665b00e6bd574ee3709dd8aa4e07a4a8674d292dd4151",
        "kmeans seed 0: report.json":
            "6c3f8e1ce9f9d39d5b1eebed9bd46e0e798f5d9e2441ccad59bf601d1c316d77",
        "kmeans seed 0: loss.csv":
            "e19782d781038feec21aad06007b64f0008b82d063815eb17e04d6c344eafc54",
        "kmeans seed 0: info_plane.csv":
            "8568232f4c053b406d1812119d334e8ca230e0c9b10c03b88118b27b5df836da",
        "kmeans seed 0: stdout":
            "08216951e9d46e13cc75407b74c5fd06919b91ec99630b9489a9443ef2ba2b03",
        "labels seed 1: checkpoint.bin":
            "5de1703d4882479b079001d39756a5c477758cb47e0c63bf8d45355e890cfc5f",
        "labels seed 1: report.json":
            "f6168e1d58558810afdc64e3d60457a5106d61b1bd0f29eae875429ee8487f47",
        "labels seed 1: loss.csv":
            "d072fd44cf05f3159c7b09b1c403ccb626241d1ae818f2de59c712ad7883338e",
        "labels seed 1: info_plane.csv":
            "215df81663f55b33de06e899d1430b3bbcfcb0c6fae15075c2056db5402037c6",
        "labels seed 1: stdout":
            "0c9d3f1907d703b9976d20d3f6e4ba793700b990c329f5c852f834697c5a5a99",
        "instance_id seed 1: checkpoint.bin":
            "6b67bc75b38ea5506a7d076d631c95af45528934c50a55b115f8b984fb1a22fd",
        "instance_id seed 1: report.json":
            "6e1380b370e97451a3077e6783b3b1109420496be56921a368d66ea503dd8618",
        "instance_id seed 1: loss.csv":
            "cbbb99fcdd8e81c6fd3f15aab1d292073287f335472bbf0c896440906c8c3194",
        "instance_id seed 1: info_plane.csv":
            "d9e874039e73c73360ba6f6fcf7061b2e21f90946f5b575d5e6ae0d445a7c0fe",
        "instance_id seed 1: stdout":
            "66e1fabf769e184c68a8fdc398b04e9883ccb5a50afb2db953fa9eb503eb950b",
        "kmeans seed 1: checkpoint.bin":
            "960e71b49c961c461a93f1a373d48f645fe10bdf973d5ae2825d812a0209ac00",
        "kmeans seed 1: report.json":
            "8820f3a414e0297871ff9e8b00090124d69c0c819e93118cd6cf00f3123d76f8",
        "kmeans seed 1: loss.csv":
            "d5721efaad13e800b7650cf0c799d806ae7800e5f1b570e14b427114a82adef1",
        "kmeans seed 1: info_plane.csv":
            "cf2ecab0f320aeb5659b7a29f612c58f46e8878a9e71064929ba9333c192b341",
        "kmeans seed 1: stdout":
            "33c86f170c8b78315fd366e226eaecc7c0e10b91883cdc99fec96f0253cfa154",
    },
}


def openblas_core() -> str:
    """The core that numpy's bundled OpenBLAS runs on, or "unknown"."""
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def assert_golden(got: dict, make_data: bool) -> None:
    """``got`` equals the `make-data` or the `train` part of the table for
    the running key."""
    key = f"numpy {np.__version__}, OpenBLAS core {openblas_core()}"
    if key not in GOLDEN:
        pytest.skip(f"no golden digests for {key!r}; got {json.dumps(got, indent=4)}")
    assert got == {k: v for k, v in GOLDEN[key].items() if k.startswith("make-data ") == make_data}


def test_make_data_matches_the_golden_digests(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # stdout names the written CSV, so --out is relative
    got = {}
    for seed in SEEDS:
        for preset in PRESETS:
            capsys.readouterr()
            assert main(["make-data", "--preset", preset, "--seed", str(seed),
                         "--out", f"data{seed}"]) == 0
            run = f"make-data {preset} seed {seed}"
            for artifact in (f"{preset}.csv", f"{preset}_hierarchy.tsv"):
                got[f"{run}: {artifact}"] = sha256((tmp_path / f"data{seed}" / artifact).read_bytes())
            got[f"{run}: stdout"] = sha256(capsys.readouterr().out.encode())
    assert_golden(got, make_data=True)


def test_train_artifacts_match_the_golden_digests(tmp_path, capsys):
    got = {}
    for seed in SEEDS:
        data_dir = tmp_path / f"data{seed}"
        assert main(["make-data", "--preset", "mixture", "--seed", str(seed),
                     "--out", str(data_dir)]) == 0
        for name, spec in SOURCES.items():
            config = tmp_path / f"{name}{seed}.json"
            config.write_text(json.dumps({"data": str(data_dir / "mixture.csv"), "train": {
                "epochs": 2, "batch_size": 64, "seed": seed, "cluster_source": spec,
                "encoder_widths": [16], "projection_widths": [8], "eval_epochs": 20,
            }}), encoding="utf-8")
            out = tmp_path / f"{name}{seed}"
            capsys.readouterr()
            assert main(["train", "--config", str(config), "--out", str(out)]) == 0
            stdout = capsys.readouterr().out
            run = f"{name} seed {seed}"
            for artifact in ARTIFACTS:
                got[f"{run}: {artifact}"] = sha256((out / artifact).read_bytes())
            got[f"{run}: stdout"] = sha256("".join(
                line for line in stdout.splitlines(keepends=True)
                if not line.startswith("checkpoint: ")).encode())
    assert_golden(got, make_data=False)
