"""Benchmark of `clnce train` on three cluster sources.

Run from the repository root:

    python3 bench/run.py --workload train-labels --seed 0 --seconds 30 --trace 0

The benchmark writes a dataset CSV generated from --seed and a run config,
then runs `clnce train` on them in fresh child processes (bench/child.py),
one after another, until --seconds have passed. Every operation is checked
against properties computed here, apart from the program. Untraced runs
(--trace 0) report the end-to-end metrics, each the quartile of the run's
operations on the metric's better side; traced runs (--trace 1) alternate an
untraced and a traced operation and report the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

WORKLOADS = {
    "train-labels": {"source": "labels"},
    "train-instance": {"source": "instance_id"},
    # A fixed Lloyd iteration count per recluster keeps the work per run
    # independent of the seed: at the default cap of 50 a recluster stopped
    # after 25-43 iterations, so a cap of 5 is always reached.
    "train-kmeans": {"source": "kmeans", "K": 50, "max_iters": 5},
}

# Inputs. Class c has mean CLASS_SEP * e_c in the first INFORMATIVE_DIMS
# coordinates; NOISE_DIMS coordinates of pure noise pad the rows to 64 wide,
# so the linear probe does not saturate.
NUM_SAMPLES = 5000
NUM_CLASSES = 10
INFORMATIVE_DIMS = 16
NOISE_DIMS = 48
CLASS_SEP = 7.0
NOISE_STD = 3.0
TRAIN_FRACTION = 0.7
TRAIN_SEED = 0
EPOCHS = 5
BATCH_SIZE = 128
# TrainConfig's default widths, restated for the checkpoint-size check.
LAYER_DIMS = ((64, 128), (128, 128), (128, 64), (64, 32))
BLAS_THREADS = 1

N_TRAIN = math.floor(TRAIN_FRACTION * NUM_SAMPLES)
STEPS = EPOCHS * (N_TRAIN // BATCH_SIZE)
# A run must end within 180 s: no round starts after LAST_ROUND_S, and every
# child still running at DEADLINE_S (or after OP_TIMEOUT_S) is killed.
OP_TIMEOUT_S = 60.0
LAST_ROUND_S = 85.0
DEADLINE_S = 170.0
ARTIFACTS = ("checkpoint.bin", "report.json", "loss.csv", "info_plane.csv")

# name: (unit, better)
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "pairs_per_s": ("pairs/s", "higher"),
    "probe_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "probe_acc": ("fraction", "higher"),
}
PER_LAYER = {
    "data.load_dataset.s": ("s", "lower"),
    "data.split_dataset.s": ("s", "lower"),
    "data.augment_rows.ms_per_call": ("ms", "lower"),
    "objective.sample_pair_batch.ms_per_call": ("ms", "lower"),
    "objective.critic_matrix.ms_per_call": ("ms", "lower"),
    "objective.cl_infonce_loss.ms_per_call": ("ms", "lower"),
    "objective.cl_infonce_grad.ms_per_call": ("ms", "lower"),
    "objective.critic_backward.ms_per_call": ("ms", "lower"),
    "encoder.forward.ms_per_call": ("ms", "lower"),
    "encoder.forward.calls": ("count", "lower"),
    "encoder.forward.rows": ("rows", "lower"),
    "encoder.backward.ms_per_call": ("ms", "lower"),
    "encoder.backward.calls": ("count", "lower"),
    "encoder.add_grads.ms_per_call": ("ms", "lower"),
    "encoder.sgd_step.ms_per_call": ("ms", "lower"),
    "encoder.gemm_gflop": ("GFLOP", "lower"),
    "encoder.gemm_gflop_per_s": ("GFLOP/s", "higher"),
    "encoder.save_checkpoint.ms": ("ms", "lower"),
    "clusters.kmeans.s": ("s", "lower"),
    "clusters.kmeans.calls": ("count", "lower"),
    "clusters.kmeans.lloyd_iters": ("count", "lower"),
    "clusters.kmeans.ms_per_iter": ("ms", "lower"),
    "pipeline.build_clusters.ms": ("ms", "lower"),
    "pipeline.train.self_s": ("s", "lower"),
    "pipeline.linear_evaluate.s": ("s", "lower"),
    "info.info_plane_point.ms_per_call": ("ms", "lower"),
    "cli.startup_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.coverage": ("fraction", "higher"),
    "trace.overhead_s": ("s", "lower"),
}
TRAIN_ENTRY_POINTS = ("pipeline.train", "pipeline.train_predetermined", "pipeline.train_kmeans_loop")


def make_dataset_csv(seed: int, path: str) -> None:
    """Balanced, shuffled Gaussian mixture written in the clnce CSV schema."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(NUM_SAMPLES) % NUM_CLASSES)
    means = np.zeros((NUM_CLASSES, INFORMATIVE_DIMS))
    means[np.arange(NUM_CLASSES), np.arange(NUM_CLASSES)] = CLASS_SEP
    features = np.hstack([
        means[labels] + rng.normal(0.0, 1.0, size=(NUM_SAMPLES, INFORMATIVE_DIMS)),
        rng.normal(0.0, NOISE_STD, size=(NUM_SAMPLES, NOISE_DIMS)),
    ])
    dim = INFORMATIVE_DIMS + NOISE_DIMS
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["id", *(f"f{j}" for j in range(dim)), "label"]) + "\n")
        for i in range(NUM_SAMPLES):
            values = ",".join(repr(float(v)) for v in features[i])
            fh.write(f"s{i},{values},{labels[i]}\n")


def environment(root: str) -> dict:
    src = os.path.join(root, "src")
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                digest.update(name.encode() + b"\0" + data)
                lines += data.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "src_sha256": digest.hexdigest()[:16], "src_lines": lines,
            "blas_threads_requested": BLAS_THREADS}


def run_child(root, work, config, out, trace, want_env, deadline):
    """One `clnce train` process. Returns (exit code, wall s, peak RSS MB,
    t0, sidecar dict or None)."""
    shutil.rmtree(out, ignore_errors=True)
    sidecar = os.path.join(work, "sidecar.json")
    if os.path.exists(sidecar):
        os.remove(sidecar)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    argv = [sys.executable, os.path.join(root, "bench", "child.py"), sidecar,
            str(int(trace)), str(int(want_env)), "train", "--config", config, "--out", out]
    with open(os.path.join(work, "child.log"), "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=log, stderr=log)
        reaped = threading.Event()

        def kill():
            if not reaped.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        watchdog = threading.Timer(max(1.0, min(OP_TIMEOUT_S, deadline - t0)), kill)
        watchdog.start()
        _, status, rusage = os.wait4(proc.pid, 0)
        t1 = time.monotonic()
        reaped.set()
        watchdog.cancel()
        watchdog.join()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)  # reaped by wait4, not Popen
    side = None
    if os.path.exists(sidecar):
        with open(sidecar, encoding="utf-8") as fh:
            side = json.load(fh)
    return rc, t1 - t0, rusage.ru_maxrss * 1024 / 1e6, t0, side


def check_outputs(out: str, spec: dict) -> list[str]:
    """Properties of one run's outputs, each computed apart from the program."""
    problems = []
    floor = -math.log(BATCH_SIZE)
    with open(os.path.join(out, "loss.csv"), encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    losses = [float(r.split(",")[1]) for r in rows[1:]]
    if rows[0] != "epoch,loss" or len(losses) != EPOCHS:
        problems.append(f"loss.csv has {len(losses)} epochs, want {EPOCHS}")
    if not all(math.isfinite(v) and v >= floor - 1e-12 for v in losses):
        problems.append(f"loss below -log(batch) or not finite: {losses}")

    ckpt = os.path.join(out, "checkpoint.bin")
    with open(ckpt, "rb") as fh:
        header_line = fh.readline()
    header = json.loads(header_line)
    if header["step_count"] != STEPS:
        problems.append(f"step_count {header['step_count']}, want {STEPS}")
    params = sum(din * dout + dout for din, dout in LAYER_DIMS)
    want_size = len(header_line) + 2 * params * 8
    if os.path.getsize(ckpt) != want_size:
        problems.append(f"checkpoint is {os.path.getsize(ckpt)} bytes, want {want_size}")

    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    points = report["info_plane_curve"]
    if not points:
        problems.append("no info-plane points")
    for p in points:
        if abs(p["mi_zt"] + p["h_z_given_t"] - p["h_z"]) > 1e-12:
            problems.append(f"I(Z;T) + H(Z|T) != H(Z) at {p['config_label']}")
        if spec["source"] == "labels" and (
                abs(p["h_z_given_t"]) > 1e-12 or abs(p["mi_zt"] - p["h_z"]) > 1e-12):
            problems.append("label clusters: H(Z|T) != 0 or I(Z;T) != H(Z)")
        if spec["source"] == "instance_id" and abs(p["h_z"] - math.log(N_TRAIN)) > 1e-12:
            problems.append(f"instance clusters: H(Z) = {p['h_z']}, want log({N_TRAIN})")
        if spec["source"] == "kmeans" and p["h_z"] > math.log(spec["K"]) + 1e-12:
            problems.append(f"kmeans clusters: H(Z) = {p['h_z']} > log K")
    if spec["source"] == "kmeans":
        for entry in report["kmeans_trace"]:
            hist = entry["inertia_history"]
            if any(b > a * (1 + 1e-12) for a, b in zip(hist, hist[1:])):
                problems.append(f"inertia rises at epoch {entry['epoch']}: {hist}")
    acc = report["final_linear_accuracy"]
    if acc is None or not acc > 1.0 / NUM_CLASSES:
        problems.append(f"probe accuracy {acc} not above chance")
    return problems


def digest(out: str) -> str:
    h = hashlib.sha256()
    for name in ARTIFACTS:
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def end_to_end_metrics(wall, rss, t0, marks, out) -> dict:
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        acc = json.load(fh)["final_linear_accuracy"]
    return {
        "run_s": wall,
        "setup_s": marks["first_sample"] - t0,
        "pairs_per_s": STEPS * BATCH_SIZE / (marks["probe_enter"] - marks["first_sample"]),
        "probe_s": marks["probe_exit"] - marks["probe_enter"],
        "peak_rss_mb": rss,
        "probe_acc": acc,
    }


def layer_metrics(wall, t0, side) -> dict:
    spans = side["spans"]

    def stat(span, key):
        return spans.get(span, {}).get(key, 0)

    def per_call_ms(span):
        calls = stat(span, "calls")
        return 1e3 * stat(span, "total_s") / calls if calls else 0.0

    gemm_s = stat("encoder.forward", "total_s") + stat("encoder.backward", "total_s")
    gflop = (stat("encoder.forward", "gemm_flop") + stat("encoder.backward", "gemm_flop")) / 1e9
    iters = stat("clusters.kmeans", "lloyd_iters")
    in_layers = stat("cli.main", "total_s") - stat("cli.main", "self_s")
    return {
        "data.load_dataset.s": stat("data.load_dataset", "total_s"),
        "data.split_dataset.s": stat("data.split_dataset", "total_s"),
        "data.augment_rows.ms_per_call": per_call_ms("data.augment_rows"),
        **{f"{s}.ms_per_call": per_call_ms(s) for s in (
            "objective.sample_pair_batch", "objective.critic_matrix",
            "objective.cl_infonce_loss", "objective.cl_infonce_grad",
            "objective.critic_backward", "encoder.add_grads", "encoder.sgd_step")},
        "encoder.forward.ms_per_call": per_call_ms("encoder.forward"),
        "encoder.forward.calls": stat("encoder.forward", "calls"),
        "encoder.forward.rows": stat("encoder.forward", "rows"),
        "encoder.backward.ms_per_call": per_call_ms("encoder.backward"),
        "encoder.backward.calls": stat("encoder.backward", "calls"),
        "encoder.gemm_gflop": gflop,
        "encoder.gemm_gflop_per_s": gflop / gemm_s if gemm_s else 0.0,
        "encoder.save_checkpoint.ms": 1e3 * stat("encoder.save_checkpoint", "total_s"),
        "clusters.kmeans.s": stat("clusters.kmeans", "total_s"),
        "clusters.kmeans.calls": stat("clusters.kmeans", "calls"),
        "clusters.kmeans.lloyd_iters": iters,
        "clusters.kmeans.ms_per_iter": 1e3 * stat("clusters.kmeans", "total_s") / iters if iters else 0.0,
        "pipeline.build_clusters.ms": 1e3 * stat("pipeline.build_clusters", "total_s"),
        "pipeline.train.self_s": sum(stat(s, "self_s") for s in TRAIN_ENTRY_POINTS),
        "pipeline.linear_evaluate.s": stat("pipeline.linear_evaluate", "total_s"),
        "info.info_plane_point.ms_per_call": per_call_ms("info.info_plane_point"),
        "cli.startup_s": side["marks"]["main_enter"] - t0,
        "cli.self_s": stat("cli.main", "self_s"),
        "trace.coverage": in_layers / wall,
    }


def steady_value(values, better: str) -> float:
    """The quartile on the better side of the run's operations.

    Contention from other tenants of a shared machine only ever makes an
    operation slower, so this quartile follows the program's own cost far
    more steadily than the median (README.md has the figures).
    """
    values = list(values)
    if len(values) < 2:
        return values[0]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return quartiles[0] if better == "lower" else quartiles[2]


def summarize(samples: list[dict], table: dict) -> dict:
    return {k: steady_value((s[k] for s in samples), table[k][1]) for k in table}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "clnce", "cli.py")):
        print("error: run from the repository root; src/clnce is missing", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    work = os.path.join(root, ".bench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        data = os.path.join(work, "data.csv")
        make_dataset_csv(args.seed, data)
        config = os.path.join(work, "run.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"data": data, "train_fraction": TRAIN_FRACTION, "train": {
                "epochs": EPOCHS, "batch_size": BATCH_SIZE, "seed": TRAIN_SEED,
                "cluster_source": spec}}, fh)
        out = os.path.join(work, "out")
        modes = (False, True) if args.trace else (False,)
        env = environment(root)
        attempted = failed = 0
        reference = None
        e2e, layers, traced_walls = [], [], []
        t_start = time.monotonic()
        while True:
            for traced in modes:
                attempted += 1
                rc, wall, rss, t0, side = run_child(
                    root, work, config, out, traced, "numpy" not in env, started + DEADLINE_S)
                problems = [f"exit code {rc}"]
                if rc == 0:
                    try:
                        problems = check_outputs(out, spec)
                        d = digest(out)
                    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                        problems = [f"unreadable outputs: {exc!r}"]
                if not problems:
                    reference = reference or d
                    if d != reference:
                        problems.append("outputs differ from the first run with this seed")
                if problems:
                    failed += 1
                    print(f"operation {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
                    with open(os.path.join(work, "child.log"), encoding="utf-8",
                              errors="replace") as fh:
                        sys.stderr.write(fh.read()[-2000:])
                    continue
                env.update(side.get("env", {}))
                if traced:
                    layers.append(layer_metrics(wall, t0, side))
                    traced_walls.append(wall)
                else:
                    e2e.append(end_to_end_metrics(wall, rss, t0, side["marks"], out))
            now = time.monotonic()
            if now - t_start >= args.seconds or now - started >= LAST_ROUND_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {attempted} failed {failed}")
    metrics = {}
    if args.trace and layers and e2e:
        values = summarize(layers, {k: v for k, v in PER_LAYER.items() if k != "trace.overhead_s"})
        values["trace.overhead_s"] = (steady_value(traced_walls, "lower")
                                      - steady_value((s["run_s"] for s in e2e), "lower"))
        absent = [k for k, v in values.items() if v == 0 and not k.startswith("trace.")]
        print(f"per-layer figures over {len(layers)} traced operations"
              f"{' (absent: ' + ', '.join(absent) + ')' if absent else ''}; "
              "encoder.gemm_* are computed from layer widths and rows")
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    elif not args.trace and e2e:
        values = summarize(e2e, END_TO_END)
        medians = {k: statistics.median(s[k] for s in e2e) for k in END_TO_END}
        print(f"end-to-end figures, better-side quartile (median), over {len(e2e)} operations")
        metrics = {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}
    for k, m in metrics.items():
        median = f" ({medians[k]:.6g})" if not args.trace else ""
        print(f"  {k} = {m['value']:.6g}{median} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
