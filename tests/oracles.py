"""Independently coded reference implementations the tests check against."""

import numpy as np

from clnce.objective import CriticConfig


def infonce_loss_reference(projections_x, projections_y, cfg: CriticConfig) -> float:
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
        pos = float(px[i] @ py[i]) / cfg.temperature
        ratios = [float(px[i] @ py[j]) / cfg.temperature for j in range(n)]
        m = max(ratios)
        denom = m + np.log(sum(np.exp(r - m) for r in ratios) / n)
        total += pos - denom
    return -total / n
