"""Plug-in information measures over discrete variables and an exact verifier
for the objective <= KL <= min(MI) <= H(Z) inequality chain on small finite
tabular models. Everything is in nats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import write_csv
from .errors import DistributionError, ParameterError, SizeError

_ATOL = 1e-9
# The most cells of a dense table indexed by ids: 2**27 float64 cells, 1 GiB.
MAX_TABLE_CELLS = 1 << 27
# The most count-vector work of one batch objective, in cells: 2**22.
MAX_BATCH_WORK = 1 << 22


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


def check_table_size(shape: tuple[int, ...], cause: str) -> None:
    """SizeError, naming ``cause``, if a dense array of ``shape`` has more
    than MAX_TABLE_CELLS cells."""
    if math.prod(shape) > MAX_TABLE_CELLS:
        raise SizeError(f"{cause}: a dense {shape} array has more than "
                        f"{MAX_TABLE_CELLS} cells")


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
    check_table_size(shape, f"ids up to {max(shape) - 1}")
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
    return float(0.0 - (nz * np.log(nz)).sum())  # +0.0 for a point mass


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


def conditional_entropy(joint: np.ndarray) -> float:
    """H(rows | columns) of the 2-D table ``joint``; H(columns | rows) is
    ``conditional_entropy(joint.T)``."""
    joint = _check_distribution(joint)
    if joint.ndim != 2:
        raise ParameterError("joint must be a 2-D table")
    mask = joint > 0
    denom = np.broadcast_to(joint.sum(axis=0), joint.shape)
    return float(0.0 - (joint[mask] * np.log(joint[mask] / denom[mask])).sum())


def mixture_table(m: DiscreteJointModel) -> np.ndarray:
    """P(x, y) = sum_z p(z) p(x|z) p(y|z)."""
    return np.einsum("z,zx,zy->xy", m.p_z, m.p_x_given_z, m.p_y_given_z)


def exact_mixture_kl(m: DiscreteJointModel) -> float:
    """KL between the cluster-conditional mixture and the product of its
    marginals: the mutual information of the mixture table."""
    return mutual_information(mixture_table(m))


def finite_batch_objective(m: DiscreteJointModel, n: int) -> float:
    """Exact n-pair batch objective at the critic f(x, y) = log(mixture(x, y)
    / (p(x) p(y))). Pair 1 runs over the mixture support; the n-1 negatives
    count only through how many land on each y with p(y) > 0, so they run
    over those count vectors, at their multinomial probabilities. SizeError,
    before any is built, if max(count vectors, n) * (support pairs + |Y|)
    exceeds MAX_BATCH_WORK."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    mix = mixture_table(m)
    px, py = mix.sum(axis=1), mix.sum(axis=0)
    ratio = np.divide(mix, np.outer(px, py), out=np.zeros_like(mix), where=mix > 0)  # exp(f*)
    xs, ys = np.nonzero(mix)
    pos = np.flatnonzero(py > 0)
    k = pos.size
    num = math.comb(n + k - 2, k - 1)  # count vectors: n-1 stars and k-1 bars in a row
    work = max(num, n) * (xs.size + py.size)  # k = 1 has one count vector for any n
    if work > MAX_BATCH_WORK:
        raise SizeError(f"n={n} over {k} states of y: {work} cells of count vectors "
                        f"exceed the budget of {MAX_BATCH_WORK}")
    slots = range(n + k - 2) if k > 1 else ()  # combinations copies its whole pool
    bars = itertools.chain.from_iterable(itertools.combinations(slots, k - 1))
    bars = np.fromiter(bars, np.int64, num * (k - 1)).reshape(num, k - 1)
    counts = np.diff(bars, prepend=-1, append=n + k - 2, axis=1) - 1
    log_fact = np.array([math.lgamma(c + 1) for c in range(n)])  # log c! for c < n
    w = np.exp(log_fact[n - 1] - log_fact[counts].sum(axis=1) + counts @ np.log(py[pos]))
    e1 = ratio[xs, ys]
    f1_minus_log_mean = np.log(e1) - np.log((counts @ ratio[np.ix_(xs, pos)].T + e1) / n)
    return float(mix[xs, ys] @ (w @ f1_minus_log_mean))


@dataclass(frozen=True)
class BoundChainReport:
    objective_at_fstar: float
    kl: float
    mi_zx: float
    mi_zy: float
    h_z: float

    @property
    def all_inequalities_hold(self) -> bool:  # each within _ATOL
        min_mi = min(self.mi_zx, self.mi_zy)
        return (self.objective_at_fstar <= self.kl + _ATOL
                and self.kl <= min_mi + _ATOL
                and min_mi <= self.h_z + _ATOL)


def verify_bound_chain(m: DiscreteJointModel, n: int) -> BoundChainReport:
    """The terms of objective <= KL <= min(MI(Z;X), MI(Z;Y)) <= H(Z), exactly."""
    return BoundChainReport(
        finite_batch_objective(m, n),
        exact_mixture_kl(m),
        mutual_information(m.p_z[:, None] * m.p_x_given_z),
        mutual_information(m.p_z[:, None] * m.p_y_given_z),
        entropy(m.p_z),
    )


def info_plane_point(
    z: np.ndarray,
    t: np.ndarray,
    config_label: str = "",
) -> InfoPlanePoint:
    """Plug-in (I(Z;T), H(Z|T), H(Z)) from empirical counts; no downstream accuracy."""
    joint = empirical_joint(z, t)
    return InfoPlanePoint(
        mi_zt=mutual_information(joint),
        h_z_given_t=conditional_entropy(joint),
        h_z=entropy(joint.sum(axis=1)),
        config_label=config_label,
    )


def selection_score(p: InfoPlanePoint) -> float:
    """Relevance minus redundancy; higher predicts better downstream accuracy."""
    return p.mi_zt - p.h_z_given_t


def save_info_plane_csv(points, path: str) -> None:
    """One row per point; a missing parent directory is made."""
    write_csv(
        path,
        ["config_label", "mi_zt", "h_z_given_t", "h_z", "accuracy"],
        ([p.config_label, repr(float(p.mi_zt)), repr(float(p.h_z_given_t)), repr(float(p.h_z)),
          "" if p.downstream_accuracy is None else repr(float(p.downstream_accuracy))]
         for p in points),
    )
