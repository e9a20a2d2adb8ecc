"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import os
import pathlib

import numpy as np
import pytest
from scipy.stats import spearmanr

from clnce.cli import main as cli_main
from clnce.clusters import clusters_instance_id
from clnce.data import save_dataset, split_dataset
from clnce.datagen import make_mixture_dataset
from clnce.encoder import backward, forward, init_model
from clnce.info import (
    DiscreteJointModel,
    conditional_entropy,
    empirical_joint,
    entropy,
    exact_mixture_kl,
    mutual_information,
    selection_score,
    verify_bound_chain,
)
from clnce.objective import cl_infonce, critic_backward, critic_matrix, sample_pair_batch
from clnce.pipeline import TrainConfig, linear_evaluate, run_info_plane_experiment, train

from oracles import forward_reference, infonce_loss_reference


def report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_gradient_correctness():
    """Analytic end-to-end gradients match central finite differences."""
    temperature = 0.5
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        # keep every ReLU input and projection norm away from its kink so a
        # central difference with eps=1e-6 stays on one linear piece
        for attempt in range(200):
            model = init_model([3, 5, 4], [4, 3], seed=10_000 * seed + attempt)
            x = rng.normal(size=(4, 3))
            y = rng.normal(size=(4, 3))
            _, _, cx = forward(model, x)
            _, _, cy = forward(model, y)
            margin = min(
                min(np.abs(z).min() for z in forward_reference(model, x)[2]["pre_acts"]),
                min(np.abs(z).min() for z in forward_reference(model, y)[2]["pre_acts"]),
            )
            if margin > 1e-3 and min(cx.norms.min(), cy.norms.min()) > 1e-2:
                break

        def loss_at(vec):
            model.params[...] = vec
            _, px, _ = forward(model, x)
            _, py, _ = forward(model, y)
            return cl_infonce(critic_matrix(px, py, temperature))[0]

        base = model.params.copy()
        _, px, cache_x = forward(model, x)
        _, py, cache_y = forward(model, y)
        _, g_scores = cl_infonce(critic_matrix(px, py, temperature))
        g_px, g_py = critic_backward(g_scores, px, py, temperature)
        analytic = backward(model, cache_x, g_px) + backward(model, cache_y, g_py)
        eps = 1e-6
        idx = rng.choice(base.size, size=12, replace=False)
        for i in idx:
            vp = base.copy()
            vp[i] += eps
            vm = base.copy()
            vm[i] -= eps
            fd = (loss_at(vp) - loss_at(vm)) / (2 * eps)
            scale = max(abs(fd), abs(analytic[i]))
            if scale < 1e-7:
                # both sides are zero; the difference is pure rounding noise
                continue
            worst = max(worst, abs(fd - analytic[i]) / scale)
        model.params[...] = base
    report(1, "gradient correctness", worst <= 1e-5,
           f"50 models, max relative error {worst:.3e} <= 1e-5")


def test_criterion_2_bound_chain():
    """Objective <= KL <= min MI <= H(Z) on 100 random tabular models."""
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(100):
        nz = int(rng.integers(1, 4))
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        m = DiscreteJointModel.random(nz, nx, ny, seed=int(rng.integers(2**31)))
        if not verify_bound_chain(m, n=3).all_inequalities_hold:
            violations += 1
    report(2, "inequality chain", violations == 0,
           f"100 random models, {violations} violations at slack 1e-9")


def test_criterion_3_equality_case():
    """KL reaches H(Z) when Z is deterministic given X and given Y."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        nz = int(rng.integers(2, 4))
        pz = rng.dirichlet(np.ones(nz))
        cond = np.eye(nz)
        m = DiscreteJointModel(pz, cond, cond)
        worst = max(worst, abs(exact_mixture_kl(m) - entropy(pz)))
    report(3, "equality case", worst <= 1e-9,
           f"20 deterministic models, max |KL - H(Z)| = {worst:.3e} <= 1e-9")


def test_criterion_4_infonce_specialization():
    """Instance-ID clusters reduce the loss to standard InfoNCE."""
    worst = 0.0
    temperature = 0.1
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = 16
        x_indices, y_indices = sample_pair_batch(clusters_instance_id(n), 8, rng)
        raw = rng.normal(size=(n, 6))
        base = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        jitter = raw + 0.1 * rng.normal(size=raw.shape)
        other = jitter / np.linalg.norm(jitter, axis=1, keepdims=True)
        px = base[x_indices]
        py = other[y_indices]
        ours = cl_infonce(critic_matrix(px, py, temperature))[0]
        ref = infonce_loss_reference(px, py, temperature)
        worst = max(worst, abs(ours - ref))
    report(4, "specialization to two-view contrast", worst <= 1e-12,
           f"10 batches, max |difference| = {worst:.3e} <= 1e-12")


def test_criterion_5_estimator_exactness():
    """Plug-in estimators hit exact identities on constructed joints."""
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        t = rng.integers(0, 5, size=200)
        joint = empirical_joint(t, t)
        h_t = entropy(joint.sum(axis=0))
        worst = max(worst, abs(mutual_information(joint) - h_t))
        worst = max(worst, abs(conditional_entropy(joint)))
        z = rng.integers(0, 7, size=200)
        j2 = empirical_joint(z, t)
        chain = mutual_information(j2) + conditional_entropy(j2)
        worst = max(worst, abs(entropy(j2.sum(axis=1)) - chain))
    report(5, "estimator exactness", worst <= 1e-12,
           f"identity and chain-rule residual max {worst:.3e} <= 1e-12")


def _sweep_dataset(seed, attr_flip_prob=0.05):
    return make_mixture_dataset(
        num_classes=10, dim=16, num_samples=1000, num_attributes=12,
        noise_dims=24, noise_std=2.5, class_sep=2.5,
        attr_flip_prob=attr_flip_prob, seed=seed,
    )


def _sweep_config(seed, **kw):
    base = dict(
        epochs=15, batch_size=64, seed=seed,
        encoder_widths=(64, 32), projection_widths=(32, 16),
        noise_sigma=0.2, peak_lr=0.1,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_criterion_6_info_plane_ordering():
    """Selection score predicts linear-probe accuracy across 6 cluster configs."""
    specs = [
        {"source": "instance_id"},
        {"source": "synthetic", "mode": "permute", "splits_per_class": 1,
         "fixed_class_set": []},
        {"source": "synthetic", "mode": "permute", "splits_per_class": 1,
         "fixed_class_set": [0, 1, 2, 3]},
        {"source": "synthetic", "mode": "permute", "splits_per_class": 1,
         "fixed_class_set": [0, 1, 2, 3, 4, 5, 6]},
        {"source": "synthetic", "mode": "coarsen",
         "merge_groups": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]},
        {"source": "labels"},
    ]
    rhos = []
    for seed in (0, 1, 2):
        d = _sweep_dataset(seed)
        points = run_info_plane_experiment(d, specs, _sweep_config(seed))
        scores = [selection_score(p) for p in points]
        accs = [p.downstream_accuracy for p in points]
        rhos.append(spearmanr(scores, accs).statistic)
    mean_rho = float(np.mean(rhos))
    report(6, "info-plane ordering", mean_rho >= 0.8,
           f"Spearman per seed {['%.3f' % r for r in rhos]}, mean {mean_rho:.3f} >= 0.8")


def test_criterion_7_kmeans_loop_end_to_end():
    """Iterative clustering + contrast beats a random frozen encoder."""
    gaps = []
    monotone = True
    for seed in (0, 1, 2):
        d = make_mixture_dataset(
            num_classes=4, dim=8, num_attributes=4,
            num_samples=800, class_sep=3.0, noise_std=2.5, noise_dims=24, seed=seed
        )
        train_data, eval_data = split_dataset(d, 0.7, seed=seed)
        cfg = TrainConfig(
            epochs=30, batch_size=64, seed=seed,
            encoder_widths=(64, 32), projection_widths=(32, 16),
            noise_sigma=0.2, peak_lr=0.1,
            cluster_source={"source": "kmeans", "K": 8},
        )
        _, run = train(train_data, cfg, eval_data=eval_data)
        for t in run.kmeans_trace:
            hist = t["inertia_history"]
            monotone = monotone and all(
                a >= b - 1e-9 for a, b in zip(hist, hist[1:])
            )
        baseline = init_model(
            [train_data.feature_dim, *cfg.encoder_widths],
            [cfg.encoder_widths[-1], *cfg.projection_widths],
            seed=seed,
        )
        base_acc = linear_evaluate(baseline, train_data, eval_data)
        gaps.append(100 * (run.final_linear_accuracy - base_acc))
    mean_gap = float(np.mean(gaps))
    report(7, "iterative clustering end-to-end",
           mean_gap >= 10.0 and monotone,
           f"accuracy gaps {['%.1f' % g for g in gaps]} pts, mean {mean_gap:.1f} >= 10; "
           f"inertia monotone: {monotone}")


def test_criterion_8_endpoint_ordering():
    """Labels >= attributes >= instance-ID in linear-probe accuracy."""
    specs = [
        ("labels", {"source": "labels"}),
        ("attributes", {"source": "attributes", "k": 6}),
        ("instance_id", {"source": "instance_id"}),
    ]
    means = {}
    for name, spec in specs:
        accs = []
        for seed in (0, 1, 2):
            d = _sweep_dataset(seed, attr_flip_prob=0.15)
            train_data, eval_data = split_dataset(d, 0.7, seed=seed)
            _, run = train(
                train_data, _sweep_config(seed, cluster_source=spec), eval_data=eval_data
            )
            accs.append(run.final_linear_accuracy)
        means[name] = float(np.mean(accs))
    tol = 0.01  # ties within 1 accuracy point are allowed
    ok = (
        means["labels"] >= means["attributes"] - tol
        and means["attributes"] >= means["instance_id"] - tol
    )
    report(8, "supervision-level ordering", ok,
           "3-seed means: labels {labels:.3f} >= attributes {attributes:.3f} "
           ">= instance_id {instance_id:.3f} (1 pt ties allowed)".format(**means))


def test_criterion_9_cli_determinism(tmp_path):
    """Identical config and seed give byte-identical artifacts."""
    d = make_mixture_dataset(
        num_classes=3, dim=6, num_samples=90, num_attributes=4,
        class_sep=3.0, seed=0,
    )
    data_path = str(tmp_path / "data.csv")
    save_dataset(d, data_path)
    run_cfg = {
        "data": data_path,
        "train": {
            "epochs": 2, "batch_size": 16, "seed": 0,
            "encoder_widths": [8], "projection_widths": [4],
            "eval_epochs": 30,
        },
    }
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w") as fh:
        json.dump(run_cfg, fh)
    out = str(tmp_path / "run")
    names = ("checkpoint.bin", "report.json", "loss.csv", "info_plane.csv")

    def run_once():
        assert cli_main(["train", "--config", cfg_path, "--out", out]) == 0
        return {n: pathlib.Path(out, n).read_bytes() for n in names}

    first = run_once()
    second = run_once()
    identical = all(first[n] == second[n] for n in names)
    report(9, "run determinism", identical,
           "repeated train run byte-identical across "
           f"{', '.join(names)}: {identical}")
