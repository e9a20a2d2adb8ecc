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
# The most cells of a dense table indexed by ids: 2**27 float64 cells, 1 GiB.
MAX_TABLE_CELLS = 1 << 27


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
        pz = _check_distribution(self.p_z)
        object.__setattr__(self, "p_z", pz)
        for name in ("p_x_given_z", "p_y_given_z"):
            mat = np.asarray(getattr(self, name), dtype=np.float64)
            if mat.ndim != 2 or mat.shape[0] != pz.size:
                raise DistributionError(f"{name} must have one row per z state")
            for row in mat:
                _check_distribution(row)
            object.__setattr__(self, name, mat)

    @classmethod
    def random(cls, nz: int, nx: int, ny: int, seed: int) -> "DiscreteJointModel":
        rng = np.random.default_rng(seed)
        pz = rng.dirichlet(np.ones(nz))
        px = rng.dirichlet(np.ones(nx), size=nz)
        py = rng.dirichlet(np.ones(ny), size=nz)
        return cls(pz, px, py)


def check_table_size(shape: tuple[int, int], largest_id: int) -> None:
    """SizeError if a dense table of ``shape``, indexed by ids up to
    ``largest_id``, has more than MAX_TABLE_CELLS cells."""
    if shape[0] * shape[1] > MAX_TABLE_CELLS:
        raise SizeError(f"ids up to {largest_id} need a dense {shape} table, "
                        f"more than {MAX_TABLE_CELLS} cells")


def empirical_joint(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Plug-in joint count table, normalized to sum to one."""
    z, t = np.asarray(z), np.asarray(t)
    if z.shape != t.shape or z.ndim != 1:
        raise SizeError("z and t must be equal-length vectors")
    if z.size == 0:
        raise SizeError("empty input")
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, caught below
        zi, ti = z.astype(np.int64, copy=False), t.astype(np.int64, copy=False)
    if (zi != z).any() or (ti != t).any() or min(zi.min(), ti.min()) < 0:
        raise ParameterError("z and t must hold non-negative integer ids")
    shape = (int(zi.max()) + 1, int(ti.max()) + 1)
    check_table_size(shape, max(shape) - 1)
    table = np.zeros(shape)
    np.add.at(table, (zi, ti), 1.0)
    return table / z.size


def _check_distribution(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if not (p >= 0).all():
        raise DistributionError("negative or NaN probability entry")
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
    if (outer[mask] == 0).any():  # the product of the marginals underflowed
        raise DistributionError("support escapes the product of marginals")
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
    """KL between the cluster-conditional mixture and the product of its
    marginals: the mutual information of the mixture table."""
    return mutual_information(mixture_table(m))


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
    mi_x = mutual_information(m.p_z[:, None] * m.p_x_given_z)
    mi_y = mutual_information(m.p_z[:, None] * m.p_y_given_z)
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
    config_label: str = "",
) -> InfoPlanePoint:
    """Plug-in (I(Z;T), H(Z|T), H(Z)) from empirical counts; no downstream accuracy."""
    joint = empirical_joint(z, t)
    return InfoPlanePoint(
        mi_zt=mutual_information(joint),
        h_z_given_t=conditional_entropy(joint, given=1),
        h_z=entropy(joint.sum(axis=1)),
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
