"""Cluster construction: attributes, hierarchy levels, k-means, synthetic modes.

Every assignment is a function of its inputs, seed included. Attribute and
hierarchy cluster ids are in order of first occurrence, label clusters in
sorted label order, k-means clusters by centroid index, and refine,
coarsen and permute clusters by class or merge-group order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset, HierarchyGraph, write_csv
from .errors import (
    DataError,
    GraphError,
    NumericError,
    ParameterError,
    SizeError,
)
from .info import check_table_size, entropy


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-sample cluster ids plus a provenance tag describing their origin;
    ``num_clusters`` is a non-negative int (not a bool), and every id in
    ``[0, num_clusters)`` holds a row."""

    assignment: np.ndarray
    num_clusters: int
    provenance: str

    def __post_init__(self):
        k = self.num_clusters
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
            raise ParameterError(f"num_clusters {k!r} is not a non-negative int")
        a = np.array(self.assignment, dtype=np.int64)  # a copy: member_layout is cached
        a.flags.writeable = False
        object.__setattr__(self, "assignment", a)
        if a.ndim != 1:
            raise ParameterError("assignment must be a vector")
        if a.size and (a.min() < 0 or a.max() >= self.num_clusters):
            raise ParameterError("cluster id outside [0, num_clusters)")
        empty = np.flatnonzero(np.bincount(a, minlength=self.num_clusters) == 0)
        if empty.size:
            raise ParameterError(f"{self.provenance}: cluster {empty[0]} has no rows")
        if self.provenance == "instance_id" and self.num_clusters != a.size:
            raise ParameterError("instance_id assignment must be a bijection")

    @property
    def num_samples(self) -> int:
        return self.assignment.size

    @cached_property
    def member_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sizes, members, starts)``: cluster c's rows, in order, are
        ``members[starts[c] : starts[c] + sizes[c]]``. Built once and read-only,
        like the assignment."""
        sizes = np.bincount(self.assignment, minlength=self.num_clusters)
        members = np.argsort(self.assignment, kind="stable")
        layout = (sizes, members, np.cumsum(sizes) - sizes)
        for a in layout:
            a.flags.writeable = False
        return layout


@dataclass(frozen=True)
class KMeansResult:
    """The final inertia is ``inertia_history[-1]``."""

    centroids: np.ndarray
    assignment: ClusterAssignment
    inertia_history: tuple[float, ...]

    @property
    def iterations_run(self) -> int:
        return len(self.inertia_history)


def _first_occurrence_ids(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ids of the rows of ``keys`` in order of first appearance."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse.reshape(-1)], first.size


def attribute_entropy(column: np.ndarray) -> float:
    """Binary entropy (nats) of one attribute column."""
    col = np.asarray(column)
    if col.size == 0:
        raise SizeError("empty attribute column")
    if not np.isin(col, (0, 1)).all():
        raise ParameterError("attribute entries must be 0 or 1")
    p = float(col.mean())
    return entropy(np.array([p, 1 - p]))


def clusters_from_attributes(attributes: np.ndarray, k: int) -> ClusterAssignment:
    """Group samples by their pattern over the top-k highest-entropy attributes.

    Ties in entropy keep the lower column index first.
    """
    attrs = np.asarray(attributes)
    if attrs.ndim != 2:
        raise ParameterError("attribute matrix must be 2-D")
    num_attrs = attrs.shape[1]
    if k <= 0:
        raise ParameterError("k must be positive")
    if k > num_attrs:
        raise ParameterError(f"k={k} exceeds {num_attrs} attributes")
    entropies = [attribute_entropy(attrs[:, j]) for j in range(num_attrs)]
    order = sorted(range(num_attrs), key=lambda j: (-entropies[j], j))
    selected = sorted(order[:k])
    assignment, n_clusters = _first_occurrence_ids(attrs[:, selected])
    return ClusterAssignment(assignment, n_clusters, provenance=f"attributes({k})")


def _longest_paths(g: HierarchyGraph, level: int) -> tuple[dict[str, int], dict[str, int]]:
    """Each node's depth on its longest path from the single root, which is at
    depth 1, and the index in ``g.nodes`` of its ancestor on that path at depth
    ``level`` (the node itself for the root or a node no deeper), from one walk
    in topological order; of tied parents, the smallest id is kept."""
    parents = {n: [] for n in g.nodes}
    children = {n: [] for n in g.nodes}
    for p, c in g.edges:
        parents[c].append(p)
        children[p].append(c)
    frontier = [n for n in g.nodes if not parents[n]]
    if len(frontier) != 1:
        raise GraphError(f"expected one root, found {frontier}")
    waiting = {n: len(ps) for n, ps in parents.items()}
    index = {n: i for i, n in enumerate(g.nodes)}
    depth, ancestor = {}, {}
    while frontier:  # in any order: a node is taken once all its parents have been
        n = frontier.pop()
        kept = min(parents[n], key=lambda p: (-depth[p], p), default=None)
        depth[n] = 1 if kept is None else depth[kept] + 1
        ancestor[n] = index[n] if kept is None or depth[n] <= level else ancestor[kept]
        for c in children[n]:
            waiting[c] -= 1
            if waiting[c] == 0:
                frontier.append(c)
    if len(depth) != len(g.nodes):
        raise GraphError("hierarchy contains a cycle")
    return depth, ancestor


def clusters_from_hierarchy(
    g: HierarchyGraph, level: int, d: Dataset
) -> ClusterAssignment:
    """Assign each sample the ancestor of its label's leaf at the given depth.

    Root is depth 1, and a node's depth and ancestors follow its longest
    path from the root: of several parents, the one on the longest root
    path is kept, and ties go to the smallest id. A leaf shallower than the
    requested level stands in for its missing ancestor. Node names are
    compared exactly.
    """
    depth, ancestor = _longest_paths(g, level)
    if level < 1:
        raise ParameterError("level must be >= 1")
    if d.labels is None:
        raise DataError("dataset has no labels to map onto the hierarchy")
    max_leaf_depth = max((depth[leaf] for leaf in g.leaf_label_map), default=0)
    if level > max_leaf_depth:
        raise ParameterError(f"level {level} exceeds max leaf depth {max_leaf_depth}")
    key = {lab: ancestor[leaf] for leaf, lab in g.leaf_label_map.items()}
    try:
        keys = np.array([key[lab] for lab in d.labels.tolist()], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"label {exc.args[0]} has no leaf in the hierarchy") from None
    assignment, n_clusters = _first_occurrence_ids(keys)
    return ClusterAssignment(assignment, n_clusters, provenance=f"hierarchy({level})")


# the element budget of one block of gathered rows (256 KB, within a core's L2 cache)
_GATHER_BLOCK = 1 << 15


def _sq_dist(points: np.ndarray, rows: np.ndarray, centers) -> np.ndarray:
    """``((points[rows] - centers) ** 2).sum(axis=1)`` bit for bit, with
    ``centers`` a scalar, one row, or one row per entry of ``rows``. Rows are
    gathered ``_GATHER_BLOCK // D`` at a time into one buffer: no (len(rows),
    D) temporary, and each row still sums along its contiguous axis."""
    step = max(1, _GATHER_BLOCK // max(1, points.shape[1]))
    buf = np.empty((min(step, rows.size), points.shape[1]))
    out = np.empty(rows.size)
    for lo in range(0, rows.size, step):
        idx = rows[lo : lo + step]
        # mode "clip" gathers straight into the buffer; "raise" would copy
        block = np.take(points, idx, axis=0, out=buf[: idx.size], mode="clip")
        block -= centers[lo : lo + step] if np.ndim(centers) == 2 else centers
        np.square(block, out=block)
        block.sum(axis=1, out=out[lo : lo + step])
    return out


def _slack(dim: int, norm_sum: np.ndarray) -> np.ndarray:
    """``4 * err``, in place in ``norm_sum`` (||x|| + ||c|| per row), where
    ``err = (D + 4) * eps * ((||x|| + ||c||)^2 + 2 * tiny)`` bounds the
    rounding error of both the GEMM form ||x||^2 - 2 x.c + ||c||^2 and the
    direct sum of squared differences. ``tiny``, the smallest normal float,
    covers products that underflow, whose error is absolute, not relative."""
    info = np.finfo(np.float64)
    norm_sum *= norm_sum
    norm_sum += 2.0 * info.tiny
    norm_sum *= 4.0 * (dim + 4) * info.eps
    return norm_sum


def _kmeans_pp_init(
    points: np.ndarray, pts_sq: np.ndarray, K: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-means++ seeding: a uniform first row, then rows drawn with
    probability proportional to D², the squared distance to the nearest
    centroid so far. Also returns each row's nearest centroid and its D²,
    equal to ``_nearest`` on the centroids bit for bit: a row moves only to
    a strictly closer centroid, so ties keep the lowest index.

    D² is bit-identical to ``np.minimum(d2, ((points - c) ** 2).sum(axis=1))``,
    so the draws and the final generator state are too. A new centroid's
    distances are taken in the GEMV form ||x||^2 - 2 x.c + ||c||^2; a row
    whose value there exceeds ``d2 + 4 * err`` (see ``_slack``) keeps its
    ``d2`` whatever the rounding, and only the other rows get the direct
    distance. Draws invert the cdf of ``d2 / total`` as ``rng.choice`` does,
    with the same generator state. A total that overflows raises NumericError
    once the first centroid's distances are in, so for every K.
    """
    n, dim = points.shape
    centroids = np.empty((K, dim))
    norms = np.sqrt(pts_sq)
    g = np.empty(n)
    # +inf certifies no row, so the first centroid sets every d2 directly
    d2 = np.full(n, np.inf)
    nearest = np.zeros(n, dtype=np.int64)
    centroids[0] = points[rng.integers(n)]
    for j in range(K):
        if j:
            if total <= 0:
                centroids[j] = points[rng.integers(n)]
                continue
            cdf = np.cumsum(d2 / total)
            centroids[j] = points[(cdf / cdf[-1]).searchsorted(rng.random(), side="right")]
        c = centroids[j]
        c_sq = c @ c
        np.matmul(points, c, out=g)
        g *= -2.0
        g += pts_sq
        g += c_sq
        keep_above = _slack(dim, norms + np.sqrt(c_sq))
        keep_above += d2
        redo = np.flatnonzero(~(g > keep_above))
        direct = _sq_dist(points, redo, c)
        closer = direct < d2[redo]
        d2[redo[closer]] = direct[closer]
        nearest[redo[closer]] = j
        total = d2.sum()
        if not np.isfinite(total):
            raise NumericError("squared distances overflow in k-means++ seeding")
    return centroids, nearest, d2


def _nearest(
    pts: np.ndarray, pts_sq: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of every row and the squared distance to it.

    Equal, bit for bit, to the argmin of the broadcast distances
    ``((pts[:, None] - centroids[None]) ** 2).sum(axis=2)``, lowest index on
    ties, and to their values at that argmin. The search runs on the GEMM
    form ||x||^2 - 2 x.c + ||c||^2. Both forms are within ``err`` (see
    ``_slack``, with max ||c||) of the exact distance, so a row whose GEMM
    gap between best and second-best exceeds ``4 * err`` has the same argmin
    under both; every other row (near and exact ties, large offsets,
    underflow, overflow) is recomputed centroid by centroid with ``_sq_dist``.
    """
    n, dim = pts.shape
    c_sq = (centroids**2).sum(axis=1)
    # in place, the same bits as pts_sq[:, None] - 2.0 * (pts @ centroids.T) + c_sq
    g = pts @ centroids.T
    g *= -2.0
    g += pts_sq[:, None]
    g += c_sq
    assign = g.argmin(axis=1)
    rows = np.arange(n)
    best = g[rows, assign]
    g[rows, assign] = np.inf
    gap = g.min(axis=1) - best
    redo = np.flatnonzero(~(gap > _slack(dim, np.sqrt(pts_sq) + np.sqrt(c_sq.max()))))
    d2 = np.empty((redo.size, centroids.shape[0]))
    for k, c in enumerate(centroids):
        d2[:, k] = _sq_dist(pts, redo, c)
    assign[redo] = d2.argmin(axis=1)
    # (c - x)^2 has the bits of (x - c)^2
    return assign, _sq_dist(centroids, assign, pts)


# the Lloyd budget of kmeans, and of a kmeans cluster spec that sets none
KMEANS_MAX_ITERS, KMEANS_TOL = 50, 1e-8


def kmeans(
    points: np.ndarray,
    K: int,
    max_iters: int = KMEANS_MAX_ITERS,
    tol: float = KMEANS_TOL,
    seed: int = 0,
) -> KMeansResult:
    """Lloyd iterations from a seeded k-means++ start.

    Empty clusters are repaired by reseeding their centroid at the point
    farthest from its currently assigned centroid, which takes K distinct
    rows. Nearest-centroid ties go to the lowest centroid index.

    Results are exact, not approximate: assignments, centroids and the
    inertia history are bit-identical to Lloyd's step on the full (n, K, D)
    broadcast of squared differences. The nearest-centroid search is one
    ``points @ centroids.T`` GEMM whose argmin is kept only where a rounding
    error bound certifies it; uncertified rows are recomputed exactly.
    The seeding's nearest centroids serve as the first iteration's. Inertia
    is summed from the exact assigned distances, and centroid means add the
    same rows in the same order. Beyond the input, memory is O(nK) plus one
    block of ``_GATHER_BLOCK`` gathered rows, and the rows of one cluster at
    a time in the centroid update; no (n, D) temporary is formed. An (n, K)
    table past ``info.MAX_TABLE_CELLS`` is a SizeError before any distance.
    """
    pts = np.asarray(points, dtype=np.float64)
    if not np.isfinite(pts).all():
        raise NumericError("non-finite input to kmeans")
    n = pts.shape[0]
    if K <= 0 or K > n:
        raise ParameterError(f"K={K} must lie in [1, {n}]")
    if max_iters < 1:
        raise ParameterError("max_iters must be >= 1")
    check_table_size((n, K), f"K={K} on {n} rows")
    rng = np.random.default_rng(seed)
    # Overflow here is not lost: a GEMM-form term that is not finite is
    # recomputed directly, and a direct distance that overflows ends the
    # seeding in NumericError. So it does not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        pts_sq = _sq_dist(pts, np.arange(n), 0.0)  # x - 0.0 is x, bit for bit
        centroids, assign, dist = _kmeans_pp_init(pts, pts_sq, K, rng)
    prev_inertia = np.inf
    history: list[float] = []
    for it in range(1, max_iters + 1):
        if it > 1:
            assign, dist = _nearest(pts, pts_sq, centroids)
        # repair empty clusters one at a time; repairs can empty other
        # clusters, so rescan until stable (at most K passes)
        for _ in range(K):
            empty = np.flatnonzero(np.bincount(assign, minlength=K) == 0)
            if not empty.size:
                break
            centroids[empty[0]] = pts[dist.argmax()]
            assign, dist = _nearest(pts, pts_sq, centroids)
        inertia = float(dist.sum())
        history.append(inertia)
        if prev_inertia - inertia < tol:
            break
        prev_inertia = inertia
        # members of each cluster as contiguous runs of ``order``, in row order
        counts = np.bincount(assign, minlength=K)
        order = np.argsort(assign, kind="stable")
        ends = np.cumsum(counts)
        for j in np.flatnonzero(counts):
            centroids[j] = pts[order[ends[j] - counts[j] : ends[j]]].mean(axis=0)
    result = ClusterAssignment(assign, K, provenance=f"kmeans({K})")
    return KMeansResult(centroids=centroids, assignment=result, inertia_history=tuple(history))


def clusters_from_labels(labels: np.ndarray) -> ClusterAssignment:
    labs = np.asarray(labels, dtype=np.int64)
    if labs.ndim != 1 or labs.size == 0:
        raise ParameterError("labels must be a non-empty vector")
    if labs.min() < 0:
        raise ParameterError("labels must be non-negative")
    # compact sparse label values; dense labels pass through unchanged
    uniq, inverse = np.unique(labs, return_inverse=True)
    return ClusterAssignment(inverse.astype(np.int64), uniq.size, provenance="labels")


def clusters_instance_id(n: int) -> ClusterAssignment:
    if n < 1:
        raise ParameterError("n must be >= 1")
    return ClusterAssignment(np.arange(n, dtype=np.int64), n, provenance="instance_id")


def refine_clusters(labels: np.ndarray, splits_per_class: int, seed: int) -> ClusterAssignment:
    """Split each class into equal-size random subclusters (Z refines T)."""
    labs = np.asarray(labels, dtype=np.int64)
    if splits_per_class < 1:
        raise ParameterError("splits_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    assign = np.empty(labs.size, dtype=np.int64)
    next_id = 0
    for c in np.unique(labs):
        members = np.flatnonzero(labs == c)
        if splits_per_class > members.size:
            raise ParameterError(
                f"class {c} has {members.size} samples, cannot split into "
                f"{splits_per_class}"
            )
        perm = rng.permutation(members)
        for s, chunk in enumerate(np.array_split(perm, splits_per_class)):
            assign[chunk] = next_id + s
        next_id += splits_per_class
    return ClusterAssignment(
        assign, next_id, provenance=f"synthetic(refine,{splits_per_class})"
    )


def coarsen_clusters(labels: np.ndarray, merge_groups) -> ClusterAssignment:
    """Merge classes into groups (Z is a function of T, so H(Z|T)=0)."""
    labs = np.asarray(labels, dtype=np.int64)
    classes = set(np.unique(labs).tolist())
    group_of: dict[int, int] = {}
    for gi, group in enumerate(merge_groups):
        for c in group:
            if c in group_of:
                raise ParameterError(f"class {c} appears in two merge groups")
            group_of[int(c)] = gi
    if set(group_of) != classes:
        raise ParameterError("merge_groups must partition the observed label set")
    assign = np.array([group_of[int(c)] for c in labs], dtype=np.int64)
    return ClusterAssignment(
        assign, len(merge_groups), provenance=f"synthetic(coarsen,{len(merge_groups)})"
    )


def permute_clusters(
    labels: np.ndarray,
    base: ClusterAssignment,
    fixed_class_set,
    seed: int,
) -> ClusterAssignment:
    """Shuffle subcluster memberships outside the fixed classes.

    Produces intermediate info-plane points between the refine endpoint and
    an uninformative assignment.
    """
    labs = np.asarray(labels, dtype=np.int64)
    if base.num_samples != labs.size:
        raise ParameterError("base assignment length mismatch")
    fixed = set(int(c) for c in fixed_class_set)
    if not fixed <= set(labs.tolist()):
        raise ParameterError(f"fixed_class_set {sorted(fixed)} names labels the data lacks")
    rng = np.random.default_rng(seed)
    assign = base.assignment.copy()
    free = np.flatnonzero(~np.isin(labs, sorted(fixed)))
    assign[free] = assign[rng.permutation(free)]
    return ClusterAssignment(
        assign, base.num_clusters, provenance=f"synthetic(permute,{sorted(fixed)})"
    )


def save_assignment(a: ClusterAssignment, ids, path: str) -> None:
    """Write `id,cluster` CSV plus a JSON sidecar with count and provenance.
    A missing parent directory is made."""
    write_csv(path, ["id", "cluster"], zip(ids, a.assignment.tolist()))
    sidecar = {"num_clusters": a.num_clusters, "provenance": a.provenance}
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True)
        fh.write("\n")
