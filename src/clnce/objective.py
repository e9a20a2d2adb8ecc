"""Cluster-conditional pair sampling, cosine/temperature critic, and the
contrastive loss with its exact score-space gradient.

The loss is the negated batch objective: minimizing it maximizes the mean of
log(exp(score_ii) / ((1/n) * sum_j exp(score_ij))). The denominator average
includes j == i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusters import ClusterAssignment
from .errors import NumericError, ParameterError, ShapeError


@dataclass(frozen=True)
class CriticConfig:
    temperature: float

    def __post_init__(self):
        if self.temperature <= 0:
            raise ParameterError("temperature must be > 0")


@dataclass(frozen=True)
class PairBatch:
    """Indices of n positively-paired samples; each x/y pair shares a cluster."""

    x_indices: np.ndarray
    y_indices: np.ndarray


def sample_pair_batch(
    clusters: ClusterAssignment, n: int, rng: np.random.Generator
) -> PairBatch:
    """Draw n pairs: cluster by empirical frequency, then x and y uniform
    within the cluster (x == y allowed; the two views realize the pair)."""
    if n < 2:
        raise ParameterError("batch size must be >= 2 (need at least one negative)")
    sizes, members, starts = clusters.member_layout
    if (sizes == 0).any():
        raise ParameterError("every cluster must be non-empty")
    z = clusters.assignment[rng.integers(clusters.num_samples, size=n)]  # size-weighted
    # one bounded draw per position in the order x0, y0, x1, y1, ...
    pos = rng.integers(0, np.repeat(sizes[z], 2))
    picks = members[np.repeat(starts[z], 2) + pos]
    return PairBatch(picks[0::2], picks[1::2])


def critic_matrix(
    projections_x: np.ndarray, projections_y: np.ndarray, cfg: CriticConfig
) -> np.ndarray:
    """Entry (i, j) = <g(x_i), g(y_j)> / temperature; rows are unit-norm."""
    px = np.asarray(projections_x, dtype=np.float64)
    py = np.asarray(projections_y, dtype=np.float64)
    if px.ndim != 2 or px.shape != py.shape:
        raise ShapeError(f"projection shapes {px.shape} vs {py.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        scores = px @ py.T / cfg.temperature
    if not np.isfinite(scores).all():
        raise NumericError("non-finite scores")
    return scores


def _loss_and_grad(scores: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss and d(loss)/d(scores) from one max-shifted exp, the gradient
    formed in place; ``rowsum / n`` has the bits of ``e.mean(axis=1)``."""
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


def cl_infonce_loss(scores: np.ndarray) -> float:
    """Negated batch objective with per-row max-subtraction stabilization."""
    return _loss_and_grad(scores)[0]


def cl_infonce_grad(scores: np.ndarray) -> np.ndarray:
    """d(loss)/d(scores): (1/n) * (row softmax - identity)."""
    return _loss_and_grad(scores)[1]


def critic_backward(
    grad_scores: np.ndarray,
    projections_x: np.ndarray,
    projections_y: np.ndarray,
    cfg: CriticConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Chain d(loss)/d(scores) through the dot/temperature critic."""
    g = np.asarray(grad_scores, dtype=np.float64)
    return g @ projections_y / cfg.temperature, g.T @ projections_x / cfg.temperature

