"""Plug-in information measures over discrete variables and an exact verifier
for the objective <= KL <= min(MI) <= H(Z) inequality chain on small finite
tabular models. Everything is in nats.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DistributionError, ParameterError, SizeError

_ATOL = 1e-9


@dataclass(frozen=True)
class InfoPlanePoint:
    """One (relevance, redundancy) coordinate with optional probe accuracy."""

    mi_zt: float
    h_z_given_t: float
    h_z: float
    downstream_accuracy: float | None = None
    config_label: str = ""


@dataclass(frozen=True)
class DiscreteJointModel:
    """Tabular P(Z), P(X|Z), P(Y|Z) for exact bound-chain evaluation."""

    p_z: np.ndarray
    p_x_given_z: np.ndarray
    p_y_given_z: np.ndarray

    def __post_init__(self):
        pz = np.asarray(self.p_z, dtype=np.float64)
        px = np.asarray(self.p_x_given_z, dtype=np.float64)
        py = np.asarray(self.p_y_given_z, dtype=np.float64)
        object.__setattr__(self, "p_z", pz)
        object.__setattr__(self, "p_x_given_z", px)
        object.__setattr__(self, "p_y_given_z", py)
        if (pz < 0).any() or (px < 0).any() or (py < 0).any():
            raise DistributionError("negative probability entry")
        if abs(pz.sum() - 1.0) > _ATOL:
            raise DistributionError("p_z does not sum to 1")
        for name, mat in (("p_x_given_z", px), ("p_y_given_z", py)):
            if mat.ndim != 2 or mat.shape[0] != pz.size:
                raise DistributionError(f"{name} must have one row per z state")
            if np.abs(mat.sum(axis=1) - 1.0).max() > _ATOL:
                raise DistributionError(f"{name} rows must sum to 1")

    @classmethod
    def random(cls, nz: int, nx: int, ny: int, seed: int) -> "DiscreteJointModel":
        rng = np.random.default_rng(seed)
        pz = rng.dirichlet(np.ones(nz))
        px = rng.dirichlet(np.ones(nx), size=nz)
        py = rng.dirichlet(np.ones(ny), size=nz)
        return cls(pz, px, py)


def empirical_joint(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Plug-in joint count table, normalized to sum to one."""
    z = np.asarray(z, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    if z.shape != t.shape or z.ndim != 1:
        raise SizeError("z and t must be equal-length vectors")
    if z.size == 0:
        raise SizeError("empty input")
    table = np.zeros((int(z.max()) + 1, int(t.max()) + 1))
    np.add.at(table, (z, t), 1.0)
    return table / z.size


def _check_distribution(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if (p < 0).any():
        raise DistributionError("negative probability entry")
    if abs(p.sum() - 1.0) > _ATOL:
        raise DistributionError(f"probabilities sum to {p.sum()}, not 1")
    return p


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats with 0*ln(0) = 0."""
    p = _check_distribution(p).ravel()
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def mutual_information(joint: np.ndarray) -> float:
    joint = _check_distribution(joint)
    if joint.ndim != 2:
        raise ParameterError("joint must be a 2-D table")
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mask = joint > 0
    outer = pa[:, None] * pb[None, :]
    return float((joint[mask] * np.log(joint[mask] / outer[mask])).sum())


def conditional_entropy(joint: np.ndarray, given: int = 1) -> float:
    """H(A|B) for given=1 (condition on columns), H(B|A) for given=0."""
    joint = _check_distribution(joint)
    if given not in (0, 1):
        raise ParameterError("given must be 0 or 1")
    cond = joint.sum(axis=1 - given)  # marginal of the conditioning axis
    mask = joint > 0
    denom = cond[:, None] if given == 0 else cond[None, :]
    denom = np.broadcast_to(denom, joint.shape)
    return float(-(joint[mask] * np.log(joint[mask] / denom[mask])).sum())


def mixture_table(m: DiscreteJointModel) -> np.ndarray:
    """P(x, y) = sum_z p(z) p(x|z) p(y|z)."""
    return np.einsum("z,zx,zy->xy", m.p_z, m.p_x_given_z, m.p_y_given_z)


def exact_mixture_kl(m: DiscreteJointModel) -> float:
    """KL between the cluster-conditional mixture and the product of marginals."""
    mix = mixture_table(m)
    px = mix.sum(axis=1)
    py = mix.sum(axis=0)
    outer = px[:, None] * py[None, :]
    mask = mix > 0
    if (outer[mask] == 0).any():
        raise DistributionError("mixture support escapes the product of marginals")
    return float((mix[mask] * np.log(mix[mask] / outer[mask])).sum())


def model_mi_zx(m: DiscreteJointModel) -> float:
    return mutual_information(m.p_z[:, None] * m.p_x_given_z)


def model_mi_zy(m: DiscreteJointModel) -> float:
    return mutual_information(m.p_z[:, None] * m.p_y_given_z)


def finite_batch_objective(m: DiscreteJointModel, n: int) -> float:
    """Exact value of the n-pair batch objective at the density-ratio critic.

    Enumerates pair 1 over the mixture support and the remaining n-1
    negatives over the marginal of y; the critic is
    f(x, y) = log(mixture(x, y) / (p(x) p(y))).
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


@dataclass(frozen=True)
class BoundChainReport:
    objective_at_fstar: float
    kl: float
    mi_zx: float
    mi_zy: float
    h_z: float
    all_inequalities_hold: bool


def verify_bound_chain(m: DiscreteJointModel, n: int = 3) -> BoundChainReport:
    """Check objective <= KL <= min(MI(Z;X), MI(Z;Y)) <= H(Z) exactly."""
    if n > 4:
        raise SizeError("n > 4 exceeds the enumeration budget")
    nx = m.p_x_given_z.shape[1]
    ny = m.p_y_given_z.shape[1]
    if nx > 5 or ny > 5:
        raise SizeError("alphabets larger than 5 exceed the enumeration budget")
    obj = finite_batch_objective(m, n)
    kl = exact_mixture_kl(m)
    mi_x = model_mi_zx(m)
    mi_y = model_mi_zy(m)
    h_z = entropy(m.p_z)
    ok = (
        obj <= kl + _ATOL
        and kl <= min(mi_x, mi_y) + _ATOL
        and min(mi_x, mi_y) <= h_z + _ATOL
    )
    return BoundChainReport(obj, kl, mi_x, mi_y, h_z, ok)


def info_plane_point(
    z: np.ndarray,
    t: np.ndarray,
    downstream_accuracy: float | None = None,
    config_label: str = "",
) -> InfoPlanePoint:
    """Plug-in (I(Z;T), H(Z|T), H(Z)) from empirical counts."""
    joint = empirical_joint(z, t)
    return InfoPlanePoint(
        mi_zt=mutual_information(joint),
        h_z_given_t=conditional_entropy(joint, given=1),
        h_z=entropy(joint.sum(axis=1)),
        downstream_accuracy=downstream_accuracy,
        config_label=config_label,
    )


def selection_score(p: InfoPlanePoint) -> float:
    """Relevance minus redundancy; higher predicts better downstream accuracy."""
    return p.mi_zt - p.h_z_given_t


def save_info_plane_csv(points, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["config_label", "mi_zt", "h_z_given_t", "h_z", "accuracy"])
        for p in points:
            acc = "" if p.downstream_accuracy is None else repr(p.downstream_accuracy)
            writer.writerow(
                [p.config_label, repr(p.mi_zt), repr(p.h_z_given_t), repr(p.h_z), acc]
            )
