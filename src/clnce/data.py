"""Tabular datasets: loading, validation, splitting, and augmentation.

CSV layout: a header row of exactly ``id``, ``f0..f{D-1}``, optional
``a0..a{A-1}`` (binary attributes), optional ``label``, in that order
(HEADER_GRAMMAR). Hierarchy files hold
one ``parent<TAB>child`` edge per line, then a ``#labels`` sentinel followed
by ``leaf<TAB>label`` lines.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    GraphError,
    ParameterError,
    SchemaError,
    SizeError,
)


@dataclass(frozen=True)
class HierarchyGraph:
    """A label hierarchy as a parent->child edge list with a leaf-label map."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    leaf_label_map: dict[str, int]

    def __post_init__(self):
        node_set = set(self.nodes)
        for p, c in self.edges:
            if p not in node_set or c not in node_set:
                raise GraphError(f"edge ({p!r}, {c!r}) references unknown node")
        children = {p for p, _ in self.edges}
        leaves = node_set - children
        seen_labels: dict[int, str] = {}
        for leaf, lab in self.leaf_label_map.items():
            if leaf not in node_set:
                raise GraphError(f"leaf-label map references unknown node {leaf!r}")
            if leaf not in leaves:
                raise GraphError(f"node {leaf!r} in leaf-label map is not a leaf")
            if lab in seen_labels:
                raise GraphError(
                    f"label {lab} mapped to both {seen_labels[lab]!r} and {leaf!r}"
                )
            seen_labels[lab] = leaf

    def roots(self) -> list[str]:
        has_parent = {c for _, c in self.edges}
        return sorted(n for n in self.nodes if n not in has_parent)


@dataclass(frozen=True)
class Dataset:
    """Validated feature matrix with optional attributes, labels, hierarchy."""

    features: np.ndarray
    ids: tuple[str, ...] = ()
    attributes: np.ndarray | None = None
    labels: np.ndarray | None = None
    hierarchy: HierarchyGraph | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        object.__setattr__(self, "features", feats)
        if feats.ndim != 2:
            raise DimensionError("features must be a 2-D matrix")
        n = feats.shape[0]
        if not self.ids:
            object.__setattr__(self, "ids", tuple(str(i) for i in range(n)))
        if len(self.ids) != n:
            raise DimensionError(f"{len(self.ids)} ids for {n} feature rows")
        if self.attributes is not None:
            attrs = np.asarray(self.attributes)
            if attrs.ndim != 2 or attrs.shape[0] != n:
                raise DimensionError("attribute matrix row count mismatch")
            if not np.isin(attrs, (0, 1)).all():
                raise DomainError("attribute entries must be 0 or 1")
            attrs = attrs.astype(np.int64)
            attrs.flags.writeable = False
            object.__setattr__(self, "attributes", attrs)
        if self.labels is not None:
            labs = np.asarray(self.labels, dtype=np.int64)
            if labs.shape != (n,):
                raise DimensionError("label vector length mismatch")
            if n and labs.min() < 0:
                raise DomainError("labels must be non-negative")
            labs.flags.writeable = False
            object.__setattr__(self, "labels", labs)
        feats.flags.writeable = False

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_attributes(self) -> int:
        return 0 if self.attributes is None else self.attributes.shape[1]

    @property
    def num_classes(self) -> int:
        if self.labels is None or self.labels.size == 0:
            return 0
        return int(self.labels.max()) + 1

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            features=self.features[indices],
            ids=tuple(self.ids[i] for i in indices),
            attributes=None if self.attributes is None else self.attributes[indices],
            labels=None if self.labels is None else self.labels[indices],
            hierarchy=self.hierarchy,
        )


@dataclass(frozen=True)
class AugmentConfig:
    """Gaussian-noise + coordinate-masking augmentation settings."""

    noise_sigma: float = 0.0
    mask_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ParameterError("noise_sigma must be >= 0")
        if not 0.0 <= self.mask_prob <= 1.0:
            raise ParameterError("mask_prob must lie in [0, 1]")


HEADER_GRAMMAR = "id,f0..f{D-1}[,a0..a{A-1}][,label]"


def _parse_header(header: list[str], path: str) -> tuple[int, int, bool]:
    """(D, A, has_label) of a header in HEADER_GRAMMAR, with D >= 1."""
    dim = num_attrs = 0
    while header[1 + dim:2 + dim] == [f"f{dim}"]:
        dim += 1
    while header[1 + dim + num_attrs:2 + dim + num_attrs] == [f"a{num_attrs}"]:
        num_attrs += 1
    end = 1 + dim + num_attrs
    has_label = header[end:end + 1] == ["label"]
    end += has_label
    if header[:1] == ["id"] and dim and end == len(header):
        return dim, num_attrs, has_label
    if header[:1] != ["id"]:
        problem = "column 1 is not 'id'"
    elif end < len(header):
        problem = f"unexpected column {end + 1} {header[end]!r}"
    else:
        problem = "no feature column f0"
    raise SchemaError(f"{path}:1: {problem}; the header must be {HEADER_GRAMMAR}")


def _first_bad_row(path: str, dim: int, num_attrs: int, has_label: bool):
    """The error for the first data record that fails the row checks, read
    with csv and counted from 2 after the header record; None if none fails.

    Only the error path of ``load_dataset`` runs this scan.
    """
    width = 1 + dim + num_attrs + has_label
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                return DimensionError(
                    f"{path}:{lineno}: expected {width} fields, got {len(row)}"
                )
            try:
                for cell in row[1:1 + dim]:
                    float(cell)
            except ValueError as exc:
                return SchemaError(f"{path}:{lineno}: bad float: {exc}")
            if any(v not in ("0", "1") for v in row[1 + dim:1 + dim + num_attrs]):
                return DomainError(f"{path}:{lineno}: attribute value not in {{0,1}}")
            if has_label:
                try:
                    label = int(row[-1])
                except ValueError:
                    return SchemaError(f"{path}:{lineno}: bad label")
                if label < 0:
                    return DomainError(f"{path}:{lineno}: negative label")
    return None


def load_dataset(path: str) -> Dataset:
    """Load and validate a dataset CSV whose header follows HEADER_GRAMMAR.

    The data rows are parsed by one ``np.loadtxt`` call into a structured
    array, so no row or cell becomes a Python object (the ids are one str
    per row). When that parse, the attribute check or the label sign check
    fails, a csv scan names the first bad record as ``path:line``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise SchemaError(f"{path}: empty file")
        dim, num_attrs, has_label = _parse_header(header, path)
        fields = [("id", object), ("f", np.float64, (dim,))]
        if num_attrs:
            # two characters, so that no longer cell truncates to "0" or "1"
            fields.append(("a", "U2", (num_attrs,)))
        if has_label:
            fields.append(("label", np.int64))
        try:
            with warnings.catch_warnings():
                # loadtxt warns on a file without data rows; that is raised below
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(
                    fh, dtype=fields, delimiter=",", quotechar='"', comments=None, ndmin=1
                )
        except ValueError as exc:
            bad = _first_bad_row(path, dim, num_attrs, has_label)
            raise bad or SchemaError(f"{path}: {exc}") from None
    if not rows.size:
        raise SchemaError(f"{path}: no data rows")
    attrs = None
    if num_attrs:
        attrs = rows["a"] == "1"
        if not (attrs | (rows["a"] == "0")).all():
            bad = _first_bad_row(path, dim, num_attrs, has_label)
            raise bad or DomainError(f"{path}: attribute value not in {{0,1}}")
    if has_label and rows["label"].min() < 0:
        bad = _first_bad_row(path, dim, num_attrs, has_label)
        raise bad or DomainError(f"{path}: labels must be non-negative")
    return Dataset(
        features=np.ascontiguousarray(rows["f"]),
        ids=tuple(rows["id"]),
        attributes=attrs,
        labels=np.ascontiguousarray(rows["label"]) if has_label else None,
    )


def save_dataset(d: Dataset, path: str) -> None:
    header = ["id"] + [f"f{j}" for j in range(d.feature_dim)]
    header += [f"a{j}" for j in range(d.num_attributes)]
    if d.labels is not None:
        header.append("label")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(d.num_samples):
            row = [d.ids[i]] + [repr(float(v)) for v in d.features[i]]
            if d.attributes is not None:
                row += [str(int(v)) for v in d.attributes[i]]
            if d.labels is not None:
                row.append(str(int(d.labels[i])))
            if "\r" in row[0]:  # csv.writer quotes only the characters of its "\n" terminator
                fh.write('"' + row.pop(0).replace('"', '""') + '",')
            writer.writerow(row)


def load_hierarchy(path: str) -> HierarchyGraph:
    edges: list[tuple[str, str]] = []
    leaf_label_map: dict[str, int] = {}
    in_labels = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line == "#labels":
                in_labels = True
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise SchemaError(f"{path}:{lineno}: expected two tab-separated fields")
            if in_labels:
                try:
                    leaf_label_map[parts[0]] = int(parts[1])
                except ValueError:
                    raise SchemaError(f"{path}:{lineno}: bad label int") from None
            else:
                edges.append((parts[0], parts[1]))
    if not edges:
        raise SchemaError(f"{path}: no edges")
    nodes = tuple(sorted({n for e in edges for n in e}))
    return HierarchyGraph(nodes=nodes, edges=tuple(edges), leaf_label_map=leaf_label_map)


def save_hierarchy(g: HierarchyGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p, c in g.edges:
            fh.write(f"{p}\t{c}\n")
        fh.write("#labels\n")
        for leaf, lab in sorted(g.leaf_label_map.items()):
            fh.write(f"{leaf}\t{lab}\n")


def split_dataset(
    d: Dataset, train_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Deterministic disjoint train/eval partition; train gets the floor."""
    if d.num_samples < 2:
        raise SizeError("need at least 2 samples to split")
    if not 0.0 < train_fraction < 1.0:
        raise ParameterError("train_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(d.num_samples)
    n_train = math.floor(train_fraction * d.num_samples)
    return d.subset(np.sort(perm[:n_train])), d.subset(np.sort(perm[n_train:]))


def augment_rows(features: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """One stochastic view: additive Gaussian noise, then coordinate masking."""
    out = np.asarray(features, dtype=np.float64)
    if cfg.noise_sigma > 0:
        out = out + rng.normal(0.0, cfg.noise_sigma, size=out.shape)
    else:
        out = out.copy()
    if cfg.mask_prob > 0:
        out[rng.random(out.shape) < cfg.mask_prob] = 0.0
    return out
