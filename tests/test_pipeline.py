import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clnce import pipeline
from clnce.clusters import kmeans
from clnce.data import Dataset, split_dataset
from clnce.datagen import make_balanced_hierarchy, make_blob_dataset, make_mixture_dataset
from clnce.encoder import ROW_BLOCK, EncoderModel, embed, forward, init_model
from clnce.errors import DataError, NumericError, ParameterError
from clnce.info import info_plane_point, save_info_plane_csv
from clnce.pipeline import (
    TrainConfig,
    _fit_probe,
    build_clusters,
    linear_evaluate,
    run_info_plane_experiment,
    train,
)
from oracles import linear_evaluate_reference


def small_dataset(seed=0, n=120):
    return make_mixture_dataset(
        num_classes=3, dim=6, num_samples=n, num_attributes=4,
        class_sep=3.0, seed=seed,
    )


def small_config(**kw):
    base = dict(
        epochs=2, batch_size=16, seed=0,
        encoder_widths=(8,), projection_widths=(4,),
        noise_sigma=0.1, eval_epochs=50,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ParameterError):
            TrainConfig.from_dict({"epochs": 3, "learning_rate": 0.1})

    def test_from_dict_round_trip(self):
        cfg = TrainConfig.from_dict({"epochs": 3, "batch_size": 8})
        assert cfg.epochs == 3 and cfg.batch_size == 8

    @pytest.mark.parametrize("raw", [
        {"epochs": "2"}, {"epochs": 2.0}, {"epochs": True}, {"temperature": "0.1"},
        {"cluster_source": ["labels"]}, {"encoder_widths": [16, "8"]},
        {"warmup_steps": 1.5},
    ])
    def test_from_dict_rejects_wrong_types(self, raw):
        with pytest.raises(ParameterError):
            TrainConfig.from_dict(raw)

    def test_from_dict_accepts_ints_for_floats(self):
        cfg = TrainConfig.from_dict({"temperature": 1, "warmup_steps": None})
        assert cfg.temperature == 1 and cfg.warmup_steps is None

    def test_bad_batch_size(self):
        with pytest.raises(ParameterError):
            TrainConfig(batch_size=1)

    @pytest.mark.parametrize("kw", [
        {"epochs": 0}, {"seed": -1}, {"peak_lr": -0.5},
        {"eval_epochs": -1}, {"encoder_widths": ()}, {"projection_widths": (4, 0)},
        {"eval_lr": -0.5},
    ])
    def test_constructor_checks_ranges(self, kw):
        # every construction is checked, not only from_dict
        with pytest.raises(ParameterError, match=f"key '{next(iter(kw))}' must be"):
            TrainConfig(**kw)

    def test_from_dict_fills_every_default(self):
        assert TrainConfig.from_dict({}) == TrainConfig()

    def test_widths_normalized_to_tuples(self):
        cfg = TrainConfig.from_dict({"encoder_widths": [16, 8]})
        assert cfg.encoder_widths == (16, 8)


class TestBuildClusters:
    def setup_method(self):
        self.d = small_dataset()

    def test_labels(self):
        c = build_clusters(self.d, {"source": "labels"})
        assert c.num_clusters == 3

    def test_instance_id(self):
        c = build_clusters(self.d, {"source": "instance_id"})
        assert c.num_clusters == self.d.num_samples

    def test_attributes(self):
        c = build_clusters(self.d, {"source": "attributes", "k": 2})
        assert c.num_clusters <= 4

    def test_hierarchy(self):
        # level 2 of the balanced hierarchy on 3 classes is its 2 groups,
        # class c in group c % 2
        assert self.d.hierarchy == make_balanced_hierarchy(3)
        c = build_clusters(self.d, {"source": "hierarchy", "level": 2})
        assert c.num_clusters == 2
        assert c.num_samples == self.d.num_samples
        assert len(set(zip(self.d.labels % 2, c.assignment))) == 2

    def test_kmeans(self):
        c = build_clusters(self.d, {"source": "kmeans", "K": 5, "seed": 1})
        assert c.num_clusters == 5
        oracle = kmeans(self.d.features, 5, max_iters=50, tol=1e-8, seed=1)
        np.testing.assert_array_equal(c.assignment, oracle.assignment.assignment)

    def test_synthetic_coarsen(self):
        c = build_clusters(
            self.d, {"source": "synthetic", "mode": "coarsen", "merge_groups": [[0, 1], [2]]}
        )
        assert c.num_clusters == 2

    def test_missing_labels(self):
        bare = Dataset(features=self.d.features)
        with pytest.raises(DataError):
            build_clusters(bare, {"source": "labels"})

    @pytest.mark.parametrize("spec, message", [
        ({"source": "attributes", "k": 1}, "attributes cluster source needs an attribute matrix"),
        ({"source": "hierarchy", "level": 1}, "hierarchy cluster source needs a hierarchy"),
        ({"source": "synthetic", "mode": "coarsen", "merge_groups": [[0]]},
         "synthetic cluster source needs labels"),
    ], ids=["attributes", "hierarchy", "synthetic"])
    def test_source_without_its_data(self, spec, message):
        bare = Dataset(features=self.d.features)
        with pytest.raises(DataError, match=message):
            build_clusters(bare, spec)

    def test_unknown_source(self):
        with pytest.raises(ParameterError):
            build_clusters(self.d, {"source": "oracle"})

    @pytest.mark.parametrize("spec, key", [
        ({"source": "attributes"}, "k"),
        ({"source": "hierarchy"}, "level"),
        ({"source": "kmeans"}, "K"),
        ({"source": "synthetic"}, "mode"),
        ({"source": "synthetic", "mode": "refine"}, "splits_per_class"),
        ({"source": "synthetic", "mode": "permute"}, "splits_per_class"),
        ({"source": "synthetic", "mode": "coarsen"}, "merge_groups"),
    ])
    def test_missing_spec_key_named(self, spec, key):
        with pytest.raises(ParameterError, match=f"needs key '{key}'"):
            build_clusters(self.d, spec)
        with pytest.raises(ParameterError, match=f"needs key '{key}'"):
            small_config(cluster_source=spec)

    @pytest.mark.parametrize("spec", [[], {"source": ["labels"]}, {}])
    def test_malformed_spec(self, spec):
        with pytest.raises(ParameterError):
            build_clusters(self.d, spec)

    @pytest.mark.parametrize("spec, key", [
        ({"source": "kmeans", "K": "x"}, "K"),
        ({"source": "kmeans", "K": 4.0}, "K"),
        ({"source": "kmeans", "K": 4, "max_iters": True}, "max_iters"),
        ({"source": "kmeans", "K": 4, "tol": "1e-8"}, "tol"),
        ({"source": "kmeans", "K": 4, "seed": None}, "seed"),
        ({"source": "attributes", "k": [2]}, "k"),
        ({"source": "hierarchy", "level": "2"}, "level"),
        ({"source": "synthetic", "mode": "refine", "splits_per_class": 2, "seed": 0.5}, "seed"),
    ])
    def test_wrong_spec_value_type_named(self, spec, key):
        with pytest.raises(ParameterError, match=f"key '{key}' must be"):
            build_clusters(self.d, spec)
        with pytest.raises(ParameterError, match=f"key '{key}' must be"):
            small_config(cluster_source=spec)

    @pytest.mark.parametrize("spec", [
        {"source": "labels", "K": 3},
        {"source": "kmeans", "K": 3, "mode": "refine"},
        {"source": "synthetic", "mode": "coarsen", "merge_groups": [[0, 1, 2]], "seed": 0},
    ])
    def test_unknown_spec_key(self, spec):
        with pytest.raises(ParameterError, match="unknown .* cluster spec keys"):
            build_clusters(self.d, spec)
        with pytest.raises(ParameterError, match="unknown .* cluster spec keys"):
            small_config(cluster_source=spec)

    def test_unknown_synthetic_mode(self):
        with pytest.raises(ParameterError, match="unknown synthetic mode"):
            build_clusters(self.d, {"source": "synthetic", "mode": "shuffle"})

    def test_parse_fills_defaults(self):
        assert pipeline.parse_cluster_spec({"source": "kmeans", "K": 3}, seed=7) == {
            "source": "kmeans", "K": 3, "max_iters": 50, "tol": 1e-8, "seed": 7}
        spec = {"source": "synthetic", "mode": "permute", "splits_per_class": 2}
        assert pipeline.parse_cluster_spec(spec, seed=7) == {
            **spec, "fixed_class_set": (), "seed": 0}

    def test_permute_fixed_class_missing_from_the_data(self):
        spec = {"source": "synthetic", "mode": "permute", "splits_per_class": 2,
                "fixed_class_set": [99]}
        with pytest.raises(ParameterError, match=r"fixed_class_set \[99\] names labels"):
            build_clusters(self.d, spec)

    def test_int_tol_accepted(self):
        c = build_clusters(self.d, {"source": "kmeans", "K": 5, "seed": 1, "tol": 0})
        assert c.num_clusters == 5


def flatten_params(model):
    return model.params.copy()


class TestTrainPredetermined:
    def test_zero_lr_leaves_params_untouched(self):
        d = small_dataset()
        cfg = small_config(peak_lr=0.0)
        before = flatten_params(init_model(
            [d.feature_dim, *cfg.encoder_widths],
            [cfg.encoder_widths[-1], *cfg.projection_widths],
            seed=cfg.seed,
        ))
        model, _ = train(d, cfg)
        np.testing.assert_array_equal(flatten_params(model), before)

    def test_deterministic_repeat(self):
        d = small_dataset()
        cfg = small_config()
        m1, r1 = train(d, cfg)
        m2, r2 = train(d, cfg)
        assert r1.loss_curve == r2.loss_curve
        np.testing.assert_array_equal(flatten_params(m1), flatten_params(m2))

    def test_loss_curve_length_and_finiteness(self):
        d = small_dataset()
        _, report = train(d, small_config(epochs=3))
        assert len(report.loss_curve) == 3
        assert all(np.isfinite(v) for v in report.loss_curve)
        # fixed clusters give one info-plane point, not one per epoch
        assert len(report.info_plane_curve) == 1

    def test_checkpoint_written(self, tmp_path):
        d = small_dataset()
        path = str(tmp_path / "model.bin")
        _, report = train(d, small_config(), checkpoint_path=path)
        assert (tmp_path / "model.bin").stat().st_size > 0
        # the caller holds the path, so the report does not repeat it
        assert "checkpoint_path" not in json.loads(report.to_json())

    def test_warmup_longer_than_the_run_is_clamped(self, tmp_path):
        # 120 rows in batches of 16 for 2 epochs: 14 steps, so a warmup of
        # 10**6 steps ramps exactly as one of 14 does
        paths = [tmp_path / f"warmup{w}.bin" for w in (14, 10**6)]
        for path, warmup in zip(paths, (14, 10**6)):
            train(small_dataset(), small_config(warmup_steps=warmup), checkpoint_path=str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_loss_divergence(self):
        # scores of up to 1e308 (cosines over the temperature) overflow the loss
        with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                       match="loss diverged at step 0"):
            train(small_dataset(), small_config(temperature=1e-308))


class TestDeterminismProperties:
    """Two runs of one drawn config give the same bits, for every cluster source."""

    @pytest.mark.parametrize("spec", [
        {"source": "labels"},
        {"source": "instance_id"},
        {"source": "attributes", "k": 2},
        {"source": "hierarchy", "level": 2},
        {"source": "kmeans", "K": 3, "max_iters": 3},
        {"source": "synthetic", "mode": "refine", "splits_per_class": 2},
        {"source": "synthetic", "mode": "coarsen", "merge_groups": [[0, 2], [1]]},
        {"source": "synthetic", "mode": "permute", "splits_per_class": 2,
         "fixed_class_set": [1]},
    ], ids=lambda spec: spec.get("mode", spec["source"]))
    @settings(max_examples=4)
    @given(
        data_seed=st.integers(0, 2**16),
        n=st.integers(30, 60),
        seed=st.integers(0, 2**16),
        epochs=st.integers(1, 2),
        batch_size=st.integers(2, 12),
        widths=st.tuples(st.integers(1, 6), st.integers(1, 4)),
        mask_prob=st.sampled_from([0.0, 0.3]),
    )
    def test_repeat_run_is_identical(
        self, spec, data_seed, n, seed, epochs, batch_size, widths, mask_prob
    ):
        train_data, eval_data = split_dataset(small_dataset(data_seed, n), 0.7, seed)
        cfg = small_config(
            cluster_source=spec, seed=seed, epochs=epochs, batch_size=batch_size,
            encoder_widths=widths[:1], projection_widths=widths[1:], mask_prob=mask_prob,
            eval_epochs=5,
        )
        (m1, r1), (m2, r2) = (train(train_data, cfg, eval_data=eval_data) for _ in range(2))
        assert m1.params.tobytes() == m2.params.tobytes()
        assert r1.to_json() == r2.to_json()


class TestParseOrder:
    @pytest.mark.parametrize("kw", [{"temperature": 0}, {"noise_sigma": -1.0},
                                    {"mask_prob": 2.0}, {"temperature": 0.0},
                                    {"temperature": -1.0}, {"temperature": float("nan")}])
    def test_step_settings_checked_before_clustering(self, kw):
        # without labels, building the clusters would raise DataError
        bare = Dataset(features=small_dataset().features)
        with pytest.raises(ParameterError):
            train(bare, small_config(cluster_source={"source": "labels"}, **kw))


class TestKmeansLoop:
    def test_trace_covers_every_epoch_boundary(self):
        d = small_dataset()
        cfg = small_config(epochs=3, cluster_source={"source": "kmeans", "K": 4})
        _, report = train(d, cfg)
        epochs = [t["epoch"] for t in report.kmeans_trace]
        assert epochs == [0, 1, 2, 3]
        steps = [t["encoder_step_count"] for t in report.kmeans_trace]
        assert steps == sorted(steps)
        assert steps[0] == 0 and steps[-1] > 0
        for t in report.kmeans_trace:
            hist = t["inertia_history"]
            assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_first_clusters_match_build_clusters(self):
        # The loop and build_clusters share one set of k-means defaults
        # (max_iters 50, tol 1e-8; the loop seeds by the run seed): epoch 1
        # trains on build_clusters of the initial embeddings.
        d = small_dataset()
        spec = {"source": "kmeans", "K": 4}
        cfg = small_config(seed=3, cluster_source=spec)
        _, report = train(d, cfg)
        initial = init_model(
            [d.feature_dim, *cfg.encoder_widths],
            [cfg.encoder_widths[-1], *cfg.projection_widths],
            seed=cfg.seed,
        )
        # all rows fit in one embed block, which has the bits of forward
        assert d.num_samples <= ROW_BLOCK
        embeddings, _, _ = forward(initial, d.features)
        oracle = kmeans(embeddings, 4, max_iters=50, tol=1e-8, seed=cfg.seed)
        expected = build_clusters(dataclasses.replace(d, features=embeddings),
                                  {**spec, "seed": cfg.seed})
        np.testing.assert_array_equal(oracle.assignment.assignment, expected.assignment)
        assert report.kmeans_trace[0]["inertia_history"] == list(oracle.inertia_history)
        assert report.info_plane_curve[0] == info_plane_point(
            expected.assignment, d.labels, config_label="kmeans(4)@epoch1"
        )

    def test_default_max_iters(self):
        # tol < 0 never stops early, so every recluster runs the default cap
        d = small_dataset()
        cfg = small_config(epochs=1, cluster_source={"source": "kmeans", "K": 4, "tol": -1.0})
        _, report = train(d, cfg)
        assert [len(t["inertia_history"]) for t in report.kmeans_trace] == [50, 50]

    def test_deterministic(self):
        d = small_dataset()
        cfg = small_config(cluster_source={"source": "kmeans", "K": 4})
        _, r1 = train(d, cfg)
        _, r2 = train(d, cfg)
        assert r1.loss_curve == r2.loss_curve
        assert r1.kmeans_trace == r2.kmeans_trace


class TestLinearEvaluate:
    def test_constant_encoder_predicts_majority_class(self):
        labels = np.array([0] * 30 + [1] * 10)
        d = Dataset(features=np.random.default_rng(0).normal(size=(40, 3)), labels=labels)
        model = init_model([3, 4], [4, 2], seed=0)
        for w, b in model.encoder_layers + model.projection_layers:
            w[...] = 0.0
            b[...] = 0.0
        acc = linear_evaluate(model, d, d, epochs=100, lr=0.5)
        assert acc == pytest.approx(0.75)

    def test_identity_encoder_on_one_hot_features(self):
        labels = np.random.default_rng(1).integers(0, 4, size=80)
        feats = np.eye(4)[labels]
        d = Dataset(features=feats, labels=labels)
        model = EncoderModel([4, 4], [4, 4])
        for w, _ in model.encoder_layers + model.projection_layers:
            w[...] = np.eye(4)
        acc = linear_evaluate(model, d, d, epochs=300, lr=1.0)
        assert acc == pytest.approx(1.0)

    def test_projection_head_is_ignored(self):
        d = small_dataset()
        train_data, eval_data = split_dataset(d, 0.7, seed=0)
        model = init_model([d.feature_dim, 8], [8, 4], seed=3)
        a1 = linear_evaluate(model, train_data, eval_data, epochs=50)
        for w, b in model.projection_layers:
            w[...] = np.random.default_rng(9).normal(size=w.shape)
        a2 = linear_evaluate(model, train_data, eval_data, epochs=50)
        assert a1 == a2

    def test_unlabeled_rejected(self):
        d = Dataset(features=np.zeros((4, 2)))
        model = init_model([2, 3], [3, 2], seed=0)
        with pytest.raises(DataError):
            linear_evaluate(model, d, d)

    def test_divergence(self):
        d = small_dataset()
        model = init_model([d.feature_dim, 8], [8, 4], seed=0)
        with pytest.raises(NumericError, match="linear probe diverged to non-finite weights"):
            linear_evaluate(model, d, d, epochs=5, lr=1e308)

    @pytest.mark.parametrize("train_scale, eval_scale, message", [
        # a finite embedding whose squares, or whose sum, overflow
        (1e155, 1.0, "overflows the probe's standardisation"),
        (1e306, 1.0, "overflows the probe's standardisation"),
        # a tiny train spread and a huge eval row
        (1e-100, 1e250, "probe logits overflow on the eval rows"),
    ], ids=["squares", "sum", "eval_logits"])
    def test_standardisation_overflow(self, train_scale, eval_scale, message):
        d = small_dataset()
        model = init_model([d.feature_dim, 8], [8, 4], seed=0)
        scaled = [dataclasses.replace(d, features=d.features * s)
                  for s in (train_scale, eval_scale)]
        with pytest.raises(NumericError, match=message):
            linear_evaluate(model, *scaled, epochs=3)

    def test_one_train_embedding_held_during_the_fit(self, monkeypatch):
        # the train rows are embedded and standardised in the (D, n) layout
        # the fit reads, and the eval rows are embedded after the fit: one
        # (n, D) array at a time, plus a block of rows
        n, dim = 4000, 64
        rng = np.random.default_rng(0)
        model = init_model([2, dim], [dim, 2], seed=0)
        w_enc, b_enc = model.encoder_layers[0]
        w_enc[:, 0], b_enc[0] = 0.0, -1.0  # a unit dead at 0: a constant row
        train_data = Dataset(features=rng.normal(size=(n, 2)), labels=rng.integers(0, 3, size=n))
        eval_data = Dataset(features=rng.normal(size=(n, 2)), labels=rng.integers(0, 3, size=n))
        held_at_fit = []
        fit = pipeline._fit_probe

        def recording_fit(xt, *args):
            held_at_fit.append(tracemalloc.get_traced_memory()[0])
            # standardised rows; one row at a time, so the checks stay
            # within the peak bound below
            mean_std = np.array([(row.mean(), row.std()) for row in xt])
            assert xt.shape == (dim, n)
            assert np.abs(mean_std[:, 0]).max() <= 1e-12
            assert not xt[0].any()
            assert np.abs(mean_std[1:, 1] - 1.0).max() <= 1e-12
            return fit(xt, *args)

        monkeypatch.setattr(pipeline, "_fit_probe", recording_fit)
        tracemalloc.start()
        try:
            linear_evaluate(model, train_data, eval_data, epochs=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        embedding = n * dim * 8
        assert held_at_fit[0] < 1.5 * embedding
        assert peak < 1.3 * embedding

    def test_one_embedding_held_during_a_recluster(self):
        # the embedding, O(nK) distance terms and fixed blocks of rows
        n, dim, K = 4000, 64, 10
        model = init_model([2, dim], [dim, 2], seed=0)
        x = np.random.default_rng(0).normal(size=(n, 2))
        tracemalloc.start()
        try:
            kmeans(embed(model, x), K=K, max_iters=3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * (n * dim * 8) + 2 * (n * K * 8)


class TestLinearEvaluateProperties:
    """The class-major probe against the row-major oracle."""

    @settings(max_examples=80)
    @given(
        num_classes=st.integers(2, 6),
        feature_dim=st.integers(1, 6),
        embed_dim=st.integers(1, 8),
        n_train=st.integers(2, 40),
        n_eval=st.integers(1, 20),
        n_constant=st.integers(0, 8),
        drop_last_class=st.booleans(),
        epochs=st.integers(0, 200),
        lr=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_row_major_oracle(
        self, num_classes, feature_dim, embed_dim, n_train, n_eval, n_constant,
        drop_last_class, epochs, lr, seed,
    ):
        rng = np.random.default_rng(seed)
        model = init_model([feature_dim, embed_dim], [embed_dim, 2], seed=seed % 1000)
        w_enc, b_enc = model.encoder_layers[0]
        b_enc[...] = rng.normal(size=embed_dim)
        # zero-variance embedding columns (constant, or dead at 0): sd == 0
        w_enc[:, :n_constant] = 0.0
        b_enc[:n_constant] = np.maximum(b_enc[:n_constant], 0.0)
        train_classes = num_classes - 1 if drop_last_class else num_classes
        train_data = Dataset(
            features=rng.normal(size=(n_train, feature_dim)),
            labels=rng.integers(0, train_classes, size=n_train),
        )
        eval_labels = rng.integers(0, num_classes, size=n_eval)
        eval_labels[0] = num_classes - 1  # a class the train set may lack
        eval_data = Dataset(features=rng.normal(size=(n_eval, feature_dim)), labels=eval_labels)

        acc = linear_evaluate(model, train_data, eval_data, epochs=epochs, lr=lr)
        ref_acc, ref_w, ref_b = linear_evaluate_reference(
            model, train_data, eval_data, epochs=epochs, lr=lr
        )
        x_train = embed(model, train_data.features)
        x_eval = embed(model, eval_data.features)
        mu, sd = x_train.mean(axis=0), x_train.std(axis=0)
        sd[sd == 0] = 1.0
        x_std = (x_train - mu) / sd
        w, b = _fit_probe(np.ascontiguousarray(x_std.T), train_data.labels, num_classes, epochs, lr)
        assert w.shape == (num_classes, embed_dim) and b.shape == (num_classes, 1)
        # the two layouts add the class terms of the softmax sum in a
        # different order, so the weights agree to rounding, not bit for bit.
        # One step moves a weight by at most lr * max|x| and a bias by at
        # most lr; that is the scale for weights that cancel to ~0.
        w_scale = max(np.abs(ref_w).max(), lr * np.abs(x_std).max())
        assert np.abs(w.T - ref_w).max() <= 1e-10 * w_scale
        assert np.abs(b[:, 0] - ref_b).max() <= 1e-10 * max(np.abs(ref_b).max(), lr)
        # equal accuracy wherever no eval row is within rounding of a tie
        logits = ((x_eval - mu) / sd) @ ref_w + ref_b
        top2 = np.sort(logits, axis=1)[:, -2:]
        if (top2[:, 1] - top2[:, 0]).min() > 1e-8 * (1.0 + np.abs(logits).max()):
            assert acc == ref_acc

    def test_bench_sized_probe_matches_oracle(self):
        d = make_mixture_dataset(
            num_classes=10, dim=12, num_samples=600, num_attributes=4,
            class_sep=1.0, seed=5,
        )
        train_data, eval_data = split_dataset(d, 0.7, seed=0)
        model = init_model([d.feature_dim, 32], [32, 8], seed=1)
        acc = linear_evaluate(model, train_data, eval_data)
        ref_acc, _, _ = linear_evaluate_reference(model, train_data, eval_data)
        assert acc == ref_acc


class TestInfoPlaneExperiment:
    def test_needs_two_configs(self):
        d = small_dataset()
        with pytest.raises(ParameterError):
            run_info_plane_experiment(d, [{"source": "labels"}], small_config())

    def test_needs_labels(self):
        bare = Dataset(features=small_dataset().features)
        with pytest.raises(DataError, match="info-plane experiment needs a labeled dataset"):
            run_info_plane_experiment(bare, [{"source": "instance_id"}] * 2, small_config())

    def test_every_spec_parsed_before_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before every spec was parsed")

        monkeypatch.setattr(pipeline, "train", no_training)
        specs = [{"source": "labels"}, {"source": "synthetic", "mode": "refine"}]
        with pytest.raises(ParameterError, match="needs key 'splits_per_class'"):
            run_info_plane_experiment(small_dataset(), specs, small_config())

    def test_points_carry_accuracy_and_labels(self, tmp_path):
        d = small_dataset(n=150)
        cfg = small_config()
        points = run_info_plane_experiment(
            d,
            [{"source": "labels"}, {"source": "instance_id"}, {"source": "kmeans", "K": 4}],
            cfg,
        )
        save_info_plane_csv(points, str(tmp_path / "plane.csv"))
        assert len(points) == 3
        for p in points:
            assert p.downstream_accuracy is not None
            assert 0.0 <= p.downstream_accuracy <= 1.0
            assert p.config_label
        # instance-id clusters retain more cluster entropy beyond the labels
        assert points[1].h_z_given_t > points[0].h_z_given_t
        # a kmeans spec reclusters every epoch and reports the last epoch's point
        assert points[2].config_label == f"kmeans(4)@epoch{cfg.epochs}"
        assert points[2].h_z <= np.log(4) + 1e-12
        assert (tmp_path / "plane.csv").exists()


class TestDatagen:
    def test_mixture_shapes(self):
        d = make_mixture_dataset(num_classes=4, dim=5, num_samples=101,
                                 num_attributes=3, noise_dims=2, seed=0)
        assert d.features.shape == (101, 7)
        assert d.attributes.shape == (101, 3)
        assert d.num_classes == 4
        assert d.hierarchy is not None

    def test_mixture_deterministic(self):
        d1 = make_mixture_dataset(num_classes=3, dim=4, num_samples=30, seed=5)
        d2 = make_mixture_dataset(num_classes=3, dim=4, num_samples=30, seed=5)
        np.testing.assert_array_equal(d1.features, d2.features)
        np.testing.assert_array_equal(d1.labels, d2.labels)

    def test_blob_defaults(self):
        d = make_blob_dataset(seed=1)
        assert d.num_samples == 400
        assert d.feature_dim == 8 + 24
        assert d.num_classes == 4

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            make_mixture_dataset(num_classes=1)
