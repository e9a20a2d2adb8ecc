"""The Cl-InfoNCE objective as four functions on plain arrays and floats:
``sample_pair_batch`` draws positive pairs that share a cluster,
``critic_matrix`` scores every pair by cosine over a temperature,
``cl_infonce`` gives the loss and its exact score-space gradient, and
``critic_backward`` chains that gradient back to the projections.

The loss is the negated batch objective: minimizing it maximizes the mean of
log(exp(score_ii) / ((1/n) * sum_j exp(score_ij))). The denominator average
includes j == i.
"""

from __future__ import annotations

import numpy as np

from .clusters import ClusterAssignment
from .errors import NumericError, ParameterError, ShapeError


def sample_pair_batch(
    clusters: ClusterAssignment, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Indices ``(x, y)`` of n positive pairs: cluster by empirical frequency,
    then x and y uniform within the cluster (x == y allowed; the two views
    realize the pair)."""
    if n < 2:
        raise ParameterError("batch size must be >= 2 (need at least one negative)")
    sizes, members, starts = clusters.member_layout
    z = clusters.assignment[rng.integers(clusters.num_samples, size=n)]  # size-weighted
    # one bounded draw per position in the order x0, y0, x1, y1, ...
    pos = rng.integers(0, np.repeat(sizes[z], 2))
    picks = members[np.repeat(starts[z], 2) + pos]
    return picks[0::2], picks[1::2]


def critic_matrix(
    projections_x: np.ndarray, projections_y: np.ndarray, temperature: float
) -> np.ndarray:
    """Entry (i, j) = <g(x_i), g(y_j)> / temperature; rows are unit-norm."""
    if not temperature > 0:
        raise ParameterError(f"temperature must be > 0, got {temperature!r}")
    px = np.asarray(projections_x, dtype=np.float64)
    py = np.asarray(projections_y, dtype=np.float64)
    if px.ndim != 2 or px.shape != py.shape:
        raise ShapeError(f"projection shapes {px.shape} vs {py.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        scores = px @ py.T / temperature
    if not np.isfinite(scores).all():
        raise NumericError("non-finite scores")
    return scores


def cl_infonce(scores: np.ndarray) -> tuple[float, np.ndarray]:
    """The loss and d(loss)/d(scores) = (1/n) * (row softmax - identity),
    from one max-shifted exp with the gradient formed in place; ``rowsum /
    n`` has the bits of ``e.mean(axis=1)``."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError("scores must be a square matrix")
    n = s.shape[0]
    if n < 2:
        raise ParameterError("need n >= 2")
    if not np.isfinite(s).all():
        raise NumericError("non-finite scores")
    row_max = s.max(axis=1, keepdims=True)
    e = s - row_max
    np.exp(e, out=e)
    rowsum = e.sum(axis=1, keepdims=True)
    log_mean_exp = np.log(rowsum[:, 0] / n) + row_max[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks the loss
        loss = float(-(np.diag(s) - log_mean_exp).mean())
    e /= rowsum
    e.flat[:: n + 1] -= 1.0
    e /= n
    return loss, e


def critic_backward(
    grad_scores: np.ndarray,
    projections_x: np.ndarray,
    projections_y: np.ndarray,
    temperature: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Chain d(loss)/d(scores) through the dot/temperature critic."""
    g = np.asarray(grad_scores, dtype=np.float64)
    return g @ projections_y / temperature, g.T @ projections_x / temperature
