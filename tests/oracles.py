"""Independently coded reference implementations the tests check against."""

import csv
import itertools

import numpy as np

from clnce.clusters import ClusterAssignment, KMeansResult
from clnce.data import Dataset
from clnce.encoder import forward
from clnce.errors import (
    DataError,
    DimensionError,
    DomainError,
    NumericError,
    ParameterError,
    SchemaError,
    ShapeError,
)
from clnce.info import DiscreteJointModel, mixture_table


def finite_batch_objective_reference(m: DiscreteJointModel, n: int) -> float:
    """The n-pair batch objective at the density-ratio critic by enumeration.

    The original ``info.finite_batch_objective``: pair 1 runs over the
    mixture support and the remaining n-1 negatives over every tuple of y
    values, |Y|^(n-1) of them; the critic is
    f(x, y) = log(mixture(x, y) / (p(x) p(y))). The count-vector version
    must agree with it.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    mix = mixture_table(m)
    px = mix.sum(axis=1)
    py = mix.sum(axis=0)
    # exp(f*) with zero-density pairs contributing exp(-inf) = 0
    outer = px[:, None] * py[None, :]
    ratio = np.zeros_like(mix)
    np.divide(mix, outer, out=ratio, where=mix > 0)
    ny = py.size
    total = 0.0
    support = [(x, y) for x in range(px.size) for y in range(ny) if mix[x, y] > 0]
    for x1, y1 in support:
        f1 = np.log(ratio[x1, y1])
        e1 = ratio[x1, y1]
        for rest in itertools.product(range(ny), repeat=n - 1):
            w = mix[x1, y1] * float(np.prod([py[yj] for yj in rest]))
            if w == 0.0:
                continue
            denom = (e1 + sum(ratio[x1, yj] for yj in rest)) / n
            total += w * (f1 - np.log(denom))
    return float(total)


def infonce_loss_reference(projections_x, projections_y, temperature: float) -> float:
    """Independently coded standard InfoNCE on two-view batches.

    Positives are the aligned rows (two views of the same instance); the
    denominator averages over all views y_j, matching the estimator used by
    the cluster-conditional loss at the singleton-cluster endpoint.
    """
    px = np.asarray(projections_x, dtype=np.float64)
    py = np.asarray(projections_y, dtype=np.float64)
    n = px.shape[0]
    total = 0.0
    for i in range(n):
        pos = float(px[i] @ py[i]) / temperature
        ratios = [float(px[i] @ py[j]) / temperature for j in range(n)]
        m = max(ratios)
        denom = m + np.log(sum(np.exp(r - m) for r in ratios) / n)
        total += pos - denom
    return -total / n


def cl_infonce_loss_reference(scores: np.ndarray) -> float:
    """The loss as first written, with its own shift, exp and mean. The loss
    of the fused pass ``objective.cl_infonce`` must have the same bits."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError("scores must be a square matrix")
    n = s.shape[0]
    if n < 2:
        raise ParameterError("need n >= 2")
    if not np.isfinite(s).all():
        raise NumericError("non-finite scores")
    row_max = s.max(axis=1, keepdims=True)
    log_mean_exp = np.log(np.exp(s - row_max).mean(axis=1)) + row_max[:, 0]
    return float(-(np.diag(s) - log_mean_exp).mean())


def cl_infonce_grad_reference(scores: np.ndarray) -> np.ndarray:
    """The gradient as first written: (softmax - eye(n)) / n, each step a
    new array. The gradient of ``objective.cl_infonce`` must have the same
    bits."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError("scores must be a square matrix")
    n = s.shape[0]
    if not np.isfinite(s).all():
        raise NumericError("non-finite scores")
    shifted = s - s.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    softmax = e / e.sum(axis=1, keepdims=True)
    return (softmax - np.eye(n)) / n


def forward_reference(model, x):
    """The two-loop ``encoder.forward``: the encoder layers, each followed by
    a ReLU, then the projection layers with a ReLU between them, then the L2
    normalisation. Returns (encoder_output, projection_output, cache), its
    cache a dict with the inputs, pre_acts, pre_norm, norms and degenerate
    flags of each row. The one-loop version must give the same bits."""
    h = np.asarray(x, dtype=np.float64)
    inputs, pre_acts = [], []
    for w, b in model.encoder_layers:
        inputs.append(h)
        z = h @ w + b
        pre_acts.append(z)
        h = np.maximum(z, 0.0)
    encoder_output = h
    n_proj = len(model.projection_layers)
    for li, (w, b) in enumerate(model.projection_layers):
        inputs.append(h)
        z = h @ w + b
        pre_acts.append(z)
        h = z if li == n_proj - 1 else np.maximum(z, 0.0)
    pre_norm = h
    norms = np.linalg.norm(pre_norm, axis=1)
    degenerate = norms == 0.0
    safe = np.where(degenerate, 1.0, norms)
    projection_output = pre_norm / safe[:, None]
    cache = {"inputs": inputs, "pre_acts": pre_acts, "pre_norm": pre_norm,
             "norms": norms, "degenerate": degenerate}
    return encoder_output, projection_output, cache


def backward_reference(model, cache, grad_wrt_projection):
    """The original ``encoder.backward`` on a ``forward_reference`` cache: it
    renormalises pre_norm and masks with a new array per layer. Returns the
    (weight, bias) gradient of each layer, encoder then projection."""
    g = np.asarray(grad_wrt_projection, dtype=np.float64)
    # normalization Jacobian: d(v/|v|) applied to g is (g - (g.u)u)/|v|
    safe = np.where(cache["degenerate"], 1.0, cache["norms"])
    u = cache["pre_norm"] / safe[:, None]
    g = (g - (g * u).sum(axis=1, keepdims=True) * u) / safe[:, None]
    g[cache["degenerate"]] = 0.0
    layers = model.encoder_layers + model.projection_layers
    grads = [None] * len(layers)
    last = len(layers) - 1
    for li in range(last, -1, -1):
        if li != last:  # ReLU applied after every layer except the final one
            g = g * (cache["pre_acts"][li] > 0)
        grads[li] = (cache["inputs"][li].T @ g, g.sum(axis=0))
        if li:
            g = g @ layers[li][0].T
    return grads


def kmeans_pp_init_reference(
    points: np.ndarray, K: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding with one full direct distance pass per centroid.

    The original ``clusters._kmeans_pp_init``: the certified GEMV version
    must draw the same centroids and leave the generator in the same state.
    """
    n = points.shape[0]
    centroids = np.empty((K, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, K):
        total = d2.sum()
        if total <= 0:
            centroids[j] = points[rng.integers(n)]
            continue
        probs = d2 / total
        idx = rng.choice(n, p=probs)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def kmeans_reference(
    points: np.ndarray,
    K: int,
    max_iters: int = 100,
    tol: float = 1e-8,
    seed: int = 0,
) -> KMeansResult:
    """Lloyd iterations with the full (n, K, D) distance broadcast.

    The original ``clusters.kmeans``: the GEMM version must reproduce its
    assignments, centroids and inertia history bit for bit.
    """
    pts = np.asarray(points, dtype=np.float64)
    if not np.isfinite(pts).all():
        raise NumericError("non-finite input to kmeans")
    n = pts.shape[0]
    if K <= 0 or K > n:
        raise ParameterError(f"K={K} must lie in [1, {n}]")
    if max_iters < 1:
        raise ParameterError("max_iters must be >= 1")
    rng = np.random.default_rng(seed)
    centroids = kmeans_pp_init_reference(pts, K, rng)
    prev_inertia = np.inf
    history: list[float] = []
    assign = np.zeros(n, dtype=np.int64)
    it = 0
    for it in range(1, max_iters + 1):
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        # repair empty clusters one at a time; repairs can empty other
        # clusters, so rescan until stable (at most K passes)
        for _ in range(K):
            empty = [j for j in range(K) if not (assign == j).any()]
            if not empty:
                break
            j = empty[0]
            point_d2 = d2[np.arange(n), assign]
            far = int(point_d2.argmax())
            centroids[j] = pts[far]
            d2[:, j] = ((pts - centroids[j]) ** 2).sum(axis=1)
            assign = d2.argmin(axis=1)
        inertia = float(d2[np.arange(n), assign].sum())
        history.append(inertia)
        if prev_inertia - inertia < tol:
            break
        prev_inertia = inertia
        for j in range(K):
            members = pts[assign == j]
            if members.size:
                centroids[j] = members.mean(axis=0)
    result = ClusterAssignment(assign, K, provenance=f"kmeans({K})")
    return KMeansResult(
        centroids=centroids,
        assignment=result,
        inertia_history=tuple(history),
    )


def sample_pair_batch_reference(
    clusters: ClusterAssignment, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The scalar-loop sampler: one member list per cluster, one draw per
    position. The vectorised ``objective.sample_pair_batch`` must consume the
    generator identically and return the same pairs."""
    if n < 2:
        raise ParameterError("batch size must be >= 2 (need at least one negative)")
    assign = clusters.assignment
    members = [np.flatnonzero(assign == z) for z in range(clusters.num_clusters)]
    if any(m.size == 0 for m in members):
        raise ParameterError("every cluster must be non-empty")
    z = assign[rng.integers(clusters.num_samples, size=n)]  # size-weighted
    x_idx = np.empty(n, dtype=np.int64)
    y_idx = np.empty(n, dtype=np.int64)
    for i in range(n):
        m = members[z[i]]
        x_idx[i] = m[rng.integers(m.size)]
        y_idx[i] = m[rng.integers(m.size)]
    return x_idx, y_idx


def linear_evaluate_reference(model, train_data, eval_data, epochs=200, lr=0.5):
    """The row-major probe: (n, C) logits, one-hot targets, full forward
    passes. Returns (accuracy, w, b) with w of shape (D, C); the class-major
    ``pipeline.linear_evaluate`` must fit the same weights up to the order of
    the class sum and give the same accuracy."""
    if train_data.labels is None or eval_data.labels is None:
        raise DataError("linear evaluation needs labeled train and eval sets")
    x_train, _, _ = forward(model, train_data.features)
    x_eval, _, _ = forward(model, eval_data.features)
    # standardize with train statistics for a well-conditioned probe
    mu = x_train.mean(axis=0)
    sd = x_train.std(axis=0)
    sd[sd == 0] = 1.0
    x_train = (x_train - mu) / sd
    x_eval = (x_eval - mu) / sd
    n, dim = x_train.shape
    num_classes = max(train_data.num_classes, eval_data.num_classes)
    w = np.zeros((dim, num_classes))
    b = np.zeros(num_classes)
    y = train_data.labels
    onehot = np.eye(num_classes)[y]
    for _ in range(epochs):
        logits = x_train @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        probs = e / e.sum(axis=1, keepdims=True)
        g = (probs - onehot) / n
        w -= lr * (x_train.T @ g)
        b -= lr * g.sum(axis=0)
    preds = (x_eval @ w + b).argmax(axis=1)
    return float((preds == eval_data.labels).mean()), w, b


def load_dataset_reference(path: str) -> Dataset:
    """The row-loop CSV loader: every row through ``csv`` and ``float``/``int``.

    The original ``data.load_dataset``, which also skips blank lines and
    names a negative label's line; the loadtxt version must give the same
    dataset, and on bad input the same error class and ``path:line``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        feat_cols = [i for i, c in enumerate(header) if c.startswith("f")]
        attr_cols = [i for i, c in enumerate(header) if c.startswith("a")]
        if "id" not in header:
            raise SchemaError(f"{path}:1: missing 'id' column")
        id_col = header.index("id")
        label_col = header.index("label") if "label" in header else None
        if not feat_cols:
            raise SchemaError(f"{path}:1: no feature columns (f0..fD)")
        ids, feats, attrs, labels = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:  # a blank line
                continue
            if len(row) != len(header):
                raise DimensionError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            ids.append(row[id_col])
            try:
                feats.append([float(row[i]) for i in feat_cols])
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: bad float: {exc}") from None
            if attr_cols:
                vals = [row[i] for i in attr_cols]
                if any(v not in ("0", "1") for v in vals):
                    raise DomainError(
                        f"{path}:{lineno}: attribute value not in {{0,1}}"
                    )
                attrs.append([int(v) for v in vals])
            if label_col is not None:
                try:
                    lab = int(row[label_col])
                except ValueError:
                    raise SchemaError(f"{path}:{lineno}: bad label") from None
                if lab < 0:
                    raise DomainError(f"{path}:{lineno}: negative label")
                labels.append(lab)
    if not feats:
        raise SchemaError(f"{path}: no data rows")
    return Dataset(
        features=np.array(feats, dtype=np.float64),
        ids=tuple(ids),
        attributes=np.array(attrs, dtype=np.int64) if attrs else None,
        labels=np.array(labels, dtype=np.int64) if labels else None,
    )
