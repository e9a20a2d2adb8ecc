"""Training orchestration: the clustering+contrastive training loop, the
linear evaluation protocol, and the synthetic info-plane sweep.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import clusters as cl
from . import encoder as enc
from . import info as im
from . import objective as obj
from .data import AugmentConfig, Dataset, augment_rows, split_dataset
from .errors import DataError, NumericError, ParameterError


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and -2**63 <= v < 2**63


def _ints(v) -> bool:
    return isinstance(v, (list, tuple)) and all(_int(x) for x in v)


# The JSON kind of every value a run config carries, by key: the file paths,
# train_fraction, the TrainConfig fields and the cluster-spec keys. A kind is
# a description and a test; bools are never numbers, an int fits in int64 and
# a number in a finite float64. A kind bounds a value only where nothing
# checks it before training: the objects that use the other values check
# them (temperature, momentum, k, K, ...).
_INT = ("an int", _int)
_FLOAT = ("a finite number", lambda v: (_int(v) or isinstance(v, float))
          and abs(v) <= sys.float_info.max)
_COUNT = ("an int >= 0", lambda v: _int(v) and v >= 0)
_WIDTHS = ("a non-empty list of positive ints", lambda v: _ints(v) and v and min(v) > 0)
_OBJECT = ("a JSON object", lambda v: isinstance(v, dict))
_KINDS = {
    "data": ("a path", lambda v: isinstance(v, str)),
    "hierarchy": ("a path or null", lambda v: v is None or isinstance(v, str)),
    **dict.fromkeys(("k", "level", "K", "max_iters", "splits_per_class"), _INT),
    **dict.fromkeys(("temperature", "momentum", "weight_decay", "noise_sigma",
                     "mask_prob", "tol", "train_fraction", "eval_lr"), _FLOAT),
    "epochs": ("an int >= 1", lambda v: _int(v) and v >= 1),
    "batch_size": ("an int >= 2", lambda v: _int(v) and v >= 2),
    "seed": _COUNT,
    "eval_epochs": _COUNT,
    "peak_lr": ("a finite number >= 0", lambda v: _FLOAT[1](v) and v >= 0),
    "warmup_steps": ("an int or null", lambda v: v is None or _int(v)),
    "train": _OBJECT,
    "cluster_source": _OBJECT,
    "encoder_widths": _WIDTHS,
    "projection_widths": _WIDTHS,
    "fixed_class_set": ("a list of ints", _ints),
    "merge_groups": ("a list of lists of ints",
                     lambda v: isinstance(v, (list, tuple)) and all(_ints(g) for g in v)),
}

# A required key whose value, one of ``tables``, picks its object's other keys
_Tag = collections.namedtuple("_Tag", "noun tables")
_REQUIRED, _CALLER_SEED = "required", "the caller's seed"
# The keys of a cluster spec besides "source", by source, each with its
# default or _REQUIRED; a synthetic spec's mode picks the rest.
SPEC_KEYS = {
    "labels": {},
    "instance_id": {},
    "attributes": {"k": _REQUIRED},
    "hierarchy": {"level": _REQUIRED},
    "kmeans": {"K": _REQUIRED, "max_iters": cl.KMEANS_MAX_ITERS, "tol": cl.KMEANS_TOL,
               "seed": _CALLER_SEED},
    "synthetic": {"mode": _Tag("synthetic mode", {
        "refine": {"splits_per_class": _REQUIRED, "seed": 0},
        "coarsen": {"merge_groups": _REQUIRED},
        "permute": {"splits_per_class": _REQUIRED, "fixed_class_set": (), "seed": 0},
    })},
}
# The top level of a run config; its "train" object holds TrainConfig's keys
RUN_KEYS = {"data": _REQUIRED, "hierarchy": None, "train": _REQUIRED, "train_fraction": 0.7}


def parse_value(key: str, value):
    """``value`` if it is of the kind of ``key``; otherwise ParameterError."""
    name, ok = _KINDS[key]
    if not ok(value):
        raise ParameterError(f"key {key!r} must be {name}, got {value!r}")
    return value


def parse_object(raw, keys: dict, what: str, seed: int = 0) -> dict:
    """The JSON object ``raw`` (``what`` in messages) parsed by ``keys``, which
    maps each key to its default, _REQUIRED or a _Tag, whose value adds the
    keys it picks. Every value goes through the kind of its key, and a
    missing key takes its default, ``seed`` for _CALLER_SEED. A non-object,
    an unknown tag value, an unknown key or a missing required key is a
    ParameterError."""
    if not isinstance(raw, dict):
        raise ParameterError(f"{what} must be a JSON object, got {raw!r}")
    keys, name = list(keys.items()), what
    for key, tag in keys:  # grows by the keys each tag picks
        if isinstance(tag, _Tag):
            if key not in raw:
                raise ParameterError(f"{name} needs key {key!r}")
            value = raw[key]
            if not (isinstance(value, str) and value in tag.tables):
                raise ParameterError(f"unknown {tag.noun} {value!r}")
            keys += tag.tables[value].items()
            name = f"{value!r} {what}"
    unknown = set(raw) - {key for key, _ in keys}
    if unknown:
        raise ParameterError(f"unknown {name} keys: {sorted(unknown, key=str)}")
    parsed = {}
    for key, default in keys:
        if key in raw:
            parsed[key] = raw[key] if isinstance(default, _Tag) else parse_value(key, raw[key])
        elif default is _REQUIRED:
            raise ParameterError(f"{name} needs key {key!r}")
        else:
            parsed[key] = seed if default is _CALLER_SEED else default
    return parsed


def parse_cluster_spec(spec, seed: int = 0) -> dict:
    """The spec, parsed, with every default filled in; a kmeans seed defaults to ``seed``."""
    return parse_object(spec, {"source": _Tag("cluster source", SPEC_KEYS)},
                        "cluster spec", seed)


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
        for f in dataclasses.fields(self):
            parse_value(f.name, getattr(self, f.name))
        parse_cluster_spec(self.cluster_source)
        object.__setattr__(self, "encoder_widths", tuple(self.encoder_widths))
        object.__setattr__(self, "projection_widths", tuple(self.projection_widths))

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        """A config from a run config's ``train`` object; each key defaults to its field's."""
        return cls(**parse_object(raw, dataclasses.asdict(cls()), "train config"))


@dataclass
class RunReport:
    loss_curve: list
    info_plane_curve: list
    final_linear_accuracy: float | None
    checkpoint_path: str | None
    kmeans_trace: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n"


def _run_kmeans(points: np.ndarray, spec: dict) -> cl.KMeansResult:
    """k-means on a parsed ``kmeans`` spec, whose keys are its arguments."""
    return cl.kmeans(points, **{k: v for k, v in spec.items() if k != "source"})


def build_clusters(d: Dataset, spec: dict):
    """Construct a ClusterAssignment from a cluster-source spec dict; a
    ``kmeans`` source clusters the features of ``d``."""
    spec = parse_cluster_spec(spec)
    source = spec["source"]
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
        return cl.clusters_from_hierarchy(d.hierarchy, spec["level"], d)
    if source == "kmeans":
        return _run_kmeans(d.features, spec).assignment
    if d.labels is None:
        raise DataError("synthetic cluster source needs labels")
    if spec["mode"] == "coarsen":
        return cl.coarsen_clusters(d.labels, spec["merge_groups"])
    refined = cl.refine_clusters(d.labels, spec["splits_per_class"], spec["seed"])
    if spec["mode"] == "refine":
        return refined
    return cl.permute_clusters(d.labels, refined, spec["fixed_class_set"], spec["seed"])


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
    spec = parse_cluster_spec(cfg.cluster_source, cfg.seed)
    refresh = spec["source"] == "kmeans"
    critic = obj.CriticConfig(temperature=cfg.temperature)
    aug = AugmentConfig(noise_sigma=cfg.noise_sigma, mask_prob=cfg.mask_prob)
    encoder_dims = [d.feature_dim, *cfg.encoder_widths]
    projection_dims = [encoder_dims[-1], *cfg.projection_widths]
    # the (B, B) critic scores and the parameter vector, before either exists
    im.check_table_size((cfg.batch_size,) * 2, f"batch_size {cfg.batch_size}")
    dims = [*encoder_dims, *cfg.projection_widths]
    im.check_table_size((sum(a * b + b for a, b in zip(dims, dims[1:])),),
                        f"encoder_widths {list(cfg.encoder_widths)} and "
                        f"projection_widths {list(cfg.projection_widths)}")
    model = enc.init_model(encoder_dims, projection_dims, seed=cfg.seed)
    steps_per_epoch = max(1, d.num_samples // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    warmup = cfg.warmup_steps if cfg.warmup_steps is not None else max(1, total_steps // 10)
    state = enc.OptimizerState.for_model(model, enc.OptimizerHyper(
        peak_lr=cfg.peak_lr,
        momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
        warmup_steps=min(warmup, total_steps),
        total_steps=total_steps,
    ))
    rng = np.random.default_rng(cfg.seed)
    trace = []
    info_curve = []

    def train_epoch(clusters) -> float:
        losses = []
        for _ in range(steps_per_epoch):
            batch = obj.sample_pair_batch(clusters, cfg.batch_size, rng)
            view_x = augment_rows(d.features[batch.x_indices], aug, rng)
            view_y = augment_rows(d.features[batch.y_indices], aug, rng)
            _, px, cache_x = enc.forward(model, view_x)
            _, py, cache_y = enc.forward(model, view_y)
            scores = obj.critic_matrix(px, py, critic)
            loss, g_scores = obj._loss_and_grad(scores)
            if not np.isfinite(loss):
                raise NumericError(f"loss diverged at step {state.step_count}")
            g_px, g_py = obj.critic_backward(g_scores, px, py, critic)
            grad = enc.backward(model, cache_x, g_px)
            grad += enc.backward(model, cache_y, g_py)
            enc.sgd_step(model, grad, state)
            losses.append(loss)
        return float(np.mean(losses))

    # Every recluster embeds into this one (n, D) array, held until the
    # probe. An array per recluster is freed during each epoch, and whether
    # the next one fits back into its memory or grows the heap depends on
    # where the training steps' allocations land, so the peak RSS would
    # differ from run to run.
    embedded = np.empty((d.num_samples, encoder_dims[-1])) if refresh else None

    def recluster():
        result = _run_kmeans(enc.embed(model, d.features, out=embedded), spec)
        trace.append({"epoch": len(trace), "encoder_step_count": state.step_count,
                      "inertia_history": list(result.inertia_history)})
        return result.assignment

    clusters = recluster() if refresh else build_clusters(d, spec)
    loss_curve = []
    for epoch in range(1, cfg.epochs + 1):
        if d.labels is not None and (refresh or epoch == 1):  # once per clustering
            info_curve.append(im.info_plane_point(
                clusters.assignment, d.labels,
                config_label=clusters.provenance + (f"@epoch{epoch}" if refresh else ""),
            ))
        loss_curve.append(train_epoch(clusters))
        if refresh:
            clusters = recluster()
    embedded = None  # the probe's own (n, D) array takes its place
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
    epochs: int = TrainConfig.eval_epochs,
    lr: float = TrainConfig.eval_lr,
) -> float:
    """Top-1 accuracy of a multinomial-logistic probe on frozen encoder output.

    The projection head plays no part here; only the encoder embedding is
    read. Full-batch gradient descent from a zero init is deterministic. The
    train rows are embedded straight into the (D, n) layout the fit reads
    and standardised there; the eval rows are embedded after the fit, so
    one (n, D) array is live at a time.
    """
    if train_data.labels is None or eval_data.labels is None:
        raise DataError("linear evaluation needs labeled train and eval sets")
    width = model.encoder_layers[-1][0].shape[1]
    num_classes = max(train_data.num_classes, eval_data.num_classes)
    # the largest per-class array: weights (C, D), or logits (C, n) of either set
    im.check_table_size(
        (num_classes, max(width, train_data.num_samples, eval_data.num_samples)),
        f"ids up to {num_classes - 1}")
    xt = np.empty((width, train_data.num_samples))
    x = enc.embed(model, train_data.features, out=xt.T)
    # standardize with train statistics for a well-conditioned probe
    mu, sd = _mean_std(x)
    sd[sd == 0] = 1.0
    x -= mu
    x /= sd
    w, b = _fit_probe(xt, train_data.labels, num_classes, epochs, lr)
    del x, xt
    x = enc.embed(model, eval_data.features)
    x -= mu
    x /= sd
    preds = (w @ x.T + b).argmax(axis=0)
    return float((preds == eval_data.labels).mean())


def _mean_std(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x.mean(axis=0)`` and ``x.std(axis=0)`` of a row-major copy of ``x``,
    bit for bit, with no (n, D) temporary. For D >= 2 numpy sums such an
    array's rows in order from 0.0, which blocks summed under a carry row
    repeat; a column is contiguous in any layout, and numpy sums it pairwise."""
    n, dim = x.shape
    if dim == 1:
        return x.mean(axis=0), x.std(axis=0)
    buf = np.empty((enc.ROW_BLOCK + 1, dim))

    def column_sum(shift, square):
        carry = np.zeros(dim)
        for lo in range(0, n, enc.ROW_BLOCK):
            block = buf[: 1 + min(enc.ROW_BLOCK, n - lo)]
            block[0] = carry
            rows = np.subtract(x[lo : lo + enc.ROW_BLOCK], shift, out=block[1:])
            if square:
                np.multiply(rows, rows, out=rows)
            block.sum(axis=0, out=carry)
        return carry

    mu = column_sum(0.0, False) / n  # x - 0.0 has the bits of x
    return mu, np.sqrt(column_sum(mu, True) / n)


def _fit_probe(xt, labels, num_classes: int, epochs: int, lr: float):
    """Softmax regression on the columns of ``xt`` (D, n) by full-batch
    gradient descent from zero; returns class-major weights (C, D) and bias
    (C, 1). Raises NumericError if the fit diverges to non-finite weights.

    Logits are laid out (C, n): the softmax max and sum over the classes
    combine C rows of n entries elementwise, where an (n, C) layout reduces
    n short rows of C entries.
    """
    dim, n = xt.shape
    targets = np.arange(num_classes)[:, None] == labels
    w = np.zeros((num_classes, dim))
    b = np.zeros((num_classes, 1))
    g = np.empty((num_classes, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            np.matmul(w, xt, out=g)
            g += b
            g -= g.max(axis=0)
            np.exp(g, out=g)
            g /= g.sum(axis=0)
            g -= targets
            g /= n
            w -= lr * (g @ xt.T)
            b -= lr * g.sum(axis=1, keepdims=True)
    if not (np.isfinite(w).all() and np.isfinite(b).all()):
        raise NumericError(f"linear probe diverged to non-finite weights at lr {lr!r}")
    return w, b


def run_info_plane_experiment(
    d: Dataset,
    configs: list,
    cfg: TrainConfig,
    train_fraction: float = RUN_KEYS["train_fraction"],
    csv_path: str | None = None,
) -> list:
    """Train once per cluster config and emit an InfoPlanePoint per config."""
    if d.labels is None:
        raise DataError("info-plane experiment needs a labeled dataset")
    if len(configs) < 2:
        raise ParameterError("need at least 2 cluster configs")
    run_cfgs = [dataclasses.replace(cfg, cluster_source=spec) for spec in configs]
    train_data, eval_data = split_dataset(d, train_fraction, cfg.seed)
    points = []
    for run_cfg in run_cfgs:
        _, report = train(train_data, run_cfg, eval_data=eval_data)
        points.append(
            dataclasses.replace(
                report.info_plane_curve[-1], downstream_accuracy=report.final_linear_accuracy
            )
        )
    if csv_path:
        im.save_info_plane_csv(points, csv_path)
    return points
