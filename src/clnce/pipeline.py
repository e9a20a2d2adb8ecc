"""Training orchestration: the clustering+contrastive training loop, the
linear evaluation protocol, and the synthetic info-plane sweep.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from . import clusters as cl
from . import encoder as enc
from . import info as im
from . import objective as obj
from .data import AugmentConfig, Dataset, augment_rows, split_dataset
from .errors import DataError, NumericError, ParameterError


# JSON value types accepted for each TrainConfig annotation: ints are valid
# floats, and the width tuples arrive as lists of ints
_JSON_FIELD_TYPES = {
    "int": int,
    "int | None": (int, type(None)),
    "float": (int, float),
    "dict": dict,
    "tuple": (list, tuple),
}

# Keys a cluster spec must carry, by source; a synthetic spec also needs the
# keys of its mode
_SPEC_REQUIRED_KEYS = {
    "labels": (),
    "instance_id": (),
    "attributes": ("k",),
    "hierarchy": ("level",),
    "kmeans": ("K",),
    "synthetic": ("mode",),
}
_SYNTHETIC_MODE_KEYS = {
    "refine": ("splits_per_class",),
    "coarsen": ("merge_groups",),
    "permute": ("splits_per_class",),
}
# JSON types of the scalar spec values, whichever source carries them
_SPEC_VALUE_TYPES = {
    "k": "int",
    "level": "int",
    "K": "int",
    "max_iters": "int",
    "tol": "float",
    "seed": "int",
}


def check_json_value(key: str, value, annotation: str) -> None:
    """Raise ParameterError unless ``value`` is a JSON value of the type
    ``annotation`` names (a TrainConfig annotation); bools are never numbers."""
    ok = isinstance(value, _JSON_FIELD_TYPES[annotation]) and not isinstance(value, bool)
    if ok and isinstance(value, (list, tuple)):
        ok = all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    if not ok:
        raise ParameterError(f"config key {key!r} must be {annotation}, got {value!r}")


def check_cluster_spec(spec: dict) -> None:
    """Raise ParameterError for an unknown source, a missing required key or
    a scalar value of the wrong JSON type."""
    if not isinstance(spec, dict):
        raise ParameterError(f"cluster spec must be a JSON object, got {spec!r}")
    source = spec.get("source")
    if not isinstance(source, str) or source not in _SPEC_REQUIRED_KEYS:
        raise ParameterError(f"unknown cluster source {source!r}")
    required = _SPEC_REQUIRED_KEYS[source]
    mode = spec.get("mode")
    if source == "synthetic" and isinstance(mode, str):
        required += _SYNTHETIC_MODE_KEYS.get(mode, ())
    for key in required:
        if key not in spec:
            raise ParameterError(f"cluster source {source!r} needs key {key!r}")
    for key, annotation in _SPEC_VALUE_TYPES.items():
        if key in spec:
            check_json_value(key, spec[key], annotation)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 128
    seed: int = 0
    cluster_source: dict = field(default_factory=lambda: {"source": "labels"})
    temperature: float = 0.1
    peak_lr: float = 0.1
    momentum: float = 0.95
    weight_decay: float = 1e-4
    warmup_steps: int | None = None
    noise_sigma: float = 0.1
    mask_prob: float = 0.0
    encoder_widths: tuple = (128, 128)
    projection_widths: tuple = (64, 32)
    eval_epochs: int = 200
    eval_lr: float = 0.5

    def __post_init__(self):
        if self.batch_size < 2:
            raise ParameterError("batch_size must be >= 2")
        if self.epochs < 1:
            raise ParameterError("epochs must be >= 1")
        check_cluster_spec(self.cluster_source)
        object.__setattr__(self, "encoder_widths", tuple(self.encoder_widths))
        object.__setattr__(self, "projection_widths", tuple(self.projection_widths))

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        if not isinstance(raw, dict):
            raise ParameterError("train config must be a JSON object")
        annotations = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(raw) - set(annotations)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            check_json_value(key, value, annotations[key])
        return cls(**raw)

    def critic(self) -> obj.CriticConfig:
        return obj.CriticConfig(temperature=self.temperature)

    def augment(self) -> AugmentConfig:
        return AugmentConfig(
            noise_sigma=self.noise_sigma, mask_prob=self.mask_prob, seed=self.seed
        )


@dataclass
class RunReport:
    loss_curve: list
    info_plane_curve: list
    final_linear_accuracy: float | None
    checkpoint_path: str | None
    kmeans_trace: list = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "loss_curve": self.loss_curve,
            "info_plane_curve": [dataclasses.asdict(p) for p in self.info_plane_curve],
            "final_linear_accuracy": self.final_linear_accuracy,
            "checkpoint_path": self.checkpoint_path,
            "kmeans_trace": self.kmeans_trace,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        raw = json.loads(text)
        return cls(
            loss_curve=raw["loss_curve"],
            info_plane_curve=[im.InfoPlanePoint(**p) for p in raw["info_plane_curve"]],
            final_linear_accuracy=raw["final_linear_accuracy"],
            checkpoint_path=raw["checkpoint_path"],
            kmeans_trace=raw.get("kmeans_trace", []),
        )


def _run_kmeans(points: np.ndarray, spec: dict, seed: int) -> cl.KMeansResult:
    """k-means for a ``kmeans`` spec: the one place its defaults are set."""
    return cl.kmeans(
        points,
        spec["K"],
        max_iters=spec.get("max_iters", 50),
        tol=spec.get("tol", 1e-8),
        seed=spec.get("seed", seed),
    )


def build_clusters(d: Dataset, spec: dict, embeddings: np.ndarray | None = None):
    """Construct a ClusterAssignment from a cluster-source spec dict.

    A ``kmeans`` source clusters ``embeddings`` (the raw features if None).
    """
    check_cluster_spec(spec)
    source = spec.get("source")
    if source == "labels":
        if d.labels is None:
            raise DataError("labels cluster source needs a labeled dataset")
        return cl.clusters_from_labels(d.labels)
    if source == "instance_id":
        return cl.clusters_instance_id(d.num_samples)
    if source == "attributes":
        if d.attributes is None:
            raise DataError("attributes cluster source needs an attribute matrix")
        return cl.clusters_from_attributes(d.attributes, spec["k"])
    if source == "hierarchy":
        if d.hierarchy is None:
            raise DataError("hierarchy cluster source needs a hierarchy")
        tree = cl.prune_to_tree(d.hierarchy)
        return cl.clusters_from_hierarchy(tree, spec["level"], d)
    if source == "kmeans":
        points = embeddings if embeddings is not None else d.features
        return _run_kmeans(points, spec, 0).assignment
    if source == "synthetic":
        if d.labels is None:
            raise DataError("synthetic cluster source needs labels")
        return cl.synthesize_clusters(
            d.labels, {k: v for k, v in spec.items() if k != "source"}
        )


def _init_run(d: Dataset, cfg: TrainConfig):
    encoder_dims = [d.feature_dim, *cfg.encoder_widths]
    projection_dims = [encoder_dims[-1], *cfg.projection_widths]
    model = enc.init_model(encoder_dims, projection_dims, seed=cfg.seed)
    steps_per_epoch = max(1, d.num_samples // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    warmup = cfg.warmup_steps if cfg.warmup_steps is not None else max(1, total_steps // 10)
    hyper = enc.OptimizerHyper(
        peak_lr=cfg.peak_lr,
        momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
        warmup_steps=min(warmup, total_steps),
        total_steps=total_steps,
    )
    state = enc.OptimizerState.for_model(model, hyper)
    return model, state, steps_per_epoch


def _train_one_epoch(d, clusters, cfg, model, state, rng, steps_per_epoch) -> float:
    critic = cfg.critic()
    aug = cfg.augment()
    losses = []
    for _ in range(steps_per_epoch):
        batch = obj.sample_pair_batch(clusters, cfg.batch_size, rng)
        view_x = augment_rows(d.features[batch.x_indices], aug, rng)
        view_y = augment_rows(d.features[batch.y_indices], aug, rng)
        _, px, cache_x = enc.forward(model, view_x)
        _, py, cache_y = enc.forward(model, view_y)
        scores = obj.critic_matrix(px, py, critic)
        loss = obj.cl_infonce_loss(scores)
        if not np.isfinite(loss):
            raise NumericError(f"loss diverged at step {state.step_count}")
        g_scores = obj.cl_infonce_grad(scores)
        g_px, g_py = obj.critic_backward(g_scores, px, py, critic)
        grad = enc.backward(model, cache_x, g_px)
        grad += enc.backward(model, cache_y, g_py)
        enc.sgd_step(model, grad, state)
        losses.append(loss)
    return float(np.mean(losses))


def train(
    d: Dataset,
    cfg: TrainConfig,
    eval_data: Dataset | None = None,
    checkpoint_path: str | None = None,
) -> tuple[enc.EncoderModel, RunReport]:
    """Contrastive training against the clusters of ``cfg.cluster_source``.

    Fixed sources are built once and give one info-plane point. A ``kmeans``
    source is rebuilt on the current embeddings before epoch 1 and after
    every epoch, so epoch e always trains against clusters from the encoder
    state after epoch e-1; the recluster after the last epoch only completes
    the trace.
    """
    spec = cfg.cluster_source
    refresh = spec.get("source") == "kmeans"
    model, state, steps_per_epoch = _init_run(d, cfg)
    rng = np.random.default_rng(cfg.seed)
    trace = []
    info_curve = []

    def recluster():
        result = _run_kmeans(enc.embed(model, d.features), spec, cfg.seed)
        trace.append({"epoch": len(trace), "encoder_step_count": state.step_count,
                      "inertia_history": list(result.inertia_history)})
        return result.assignment

    if refresh:
        clusters = recluster()
    else:
        clusters = build_clusters(d, spec)
        if d.labels is not None:
            info_curve.append(im.info_plane_point(
                clusters.assignment, d.labels, config_label=clusters.provenance
            ))
    loss_curve = []
    for epoch in range(1, cfg.epochs + 1):
        loss_curve.append(_train_one_epoch(d, clusters, cfg, model, state, rng, steps_per_epoch))
        if refresh:
            if d.labels is not None:
                info_curve.append(im.info_plane_point(
                    clusters.assignment, d.labels,
                    config_label=f"{clusters.provenance}@epoch{epoch}",
                ))
            clusters = recluster()
    accuracy = None
    if eval_data is not None and d.labels is not None and eval_data.labels is not None:
        accuracy = linear_evaluate(model, d, eval_data, epochs=cfg.eval_epochs, lr=cfg.eval_lr)
    if checkpoint_path:
        enc.save_checkpoint(model, state, checkpoint_path)
    return model, RunReport(loss_curve, info_curve, accuracy, checkpoint_path, kmeans_trace=trace)


def linear_evaluate(
    model: enc.EncoderModel,
    train_data: Dataset,
    eval_data: Dataset,
    epochs: int = 200,
    lr: float = 0.5,
) -> float:
    """Top-1 accuracy of a multinomial-logistic probe on frozen encoder output.

    The projection head plays no part here; only the encoder embedding is
    read. Full-batch gradient descent from a zero init is deterministic.
    """
    if train_data.labels is None or eval_data.labels is None:
        raise DataError("linear evaluation needs labeled train and eval sets")
    x_train = enc.embed(model, train_data.features)
    x_eval = enc.embed(model, eval_data.features)
    # standardize with train statistics for a well-conditioned probe, in
    # place: embed returns fresh arrays
    mu = x_train.mean(axis=0)
    sd = x_train.std(axis=0)
    sd[sd == 0] = 1.0
    for x in (x_train, x_eval):
        x -= mu
        x /= sd
    num_classes = max(train_data.num_classes, eval_data.num_classes)
    w, b = _fit_probe(x_train, train_data.labels, num_classes, epochs, lr)
    preds = (w @ x_eval.T + b).argmax(axis=0)
    return float((preds == eval_data.labels).mean())


def _fit_probe(x, labels, num_classes: int, epochs: int, lr: float):
    """Softmax regression on the rows of ``x`` by full-batch gradient descent
    from zero; returns class-major weights (C, D) and bias (C, 1).

    Logits are laid out (C, n): the softmax max and sum over the classes
    combine C rows of n entries elementwise, where an (n, C) layout reduces
    n short rows of C entries.
    """
    n, dim = x.shape
    xt = np.ascontiguousarray(x.T)
    targets = np.arange(num_classes)[:, None] == labels
    w = np.zeros((num_classes, dim))
    b = np.zeros((num_classes, 1))
    g = np.empty((num_classes, n))
    for _ in range(epochs):
        np.matmul(w, xt, out=g)
        g += b
        g -= g.max(axis=0)
        np.exp(g, out=g)
        g /= g.sum(axis=0)
        g -= targets
        g /= n
        w -= lr * (g @ x)
        b -= lr * g.sum(axis=1, keepdims=True)
    return w, b


def run_info_plane_experiment(
    d: Dataset,
    configs: list,
    cfg: TrainConfig,
    train_fraction: float = 0.7,
    csv_path: str | None = None,
) -> list:
    """Train once per cluster config and emit an InfoPlanePoint per config."""
    if d.labels is None:
        raise DataError("info-plane experiment needs a labeled dataset")
    if len(configs) < 2:
        raise ParameterError("need at least 2 cluster configs")
    train_data, eval_data = split_dataset(d, train_fraction, cfg.seed)
    points = []
    for spec in configs:
        run_cfg = dataclasses.replace(cfg, cluster_source=spec)
        _, report = train(train_data, run_cfg, eval_data=eval_data)
        points.append(
            dataclasses.replace(
                report.info_plane_curve[-1], downstream_accuracy=report.final_linear_accuracy
            )
        )
    if csv_path:
        im.save_info_plane_csv(points, csv_path)
    return points
