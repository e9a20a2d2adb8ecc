"""Tabular datasets: loading, validation, splitting, and augmentation.

CSV layout: a header row of exactly ``id``, ``f0..f{D-1}``, optional
``a0..a{A-1}`` (binary attributes), optional ``label``, in that order
(HEADER_GRAMMAR). Hierarchy files hold
one ``parent<TAB>child`` edge per line, then a ``#labels`` sentinel followed
by ``leaf<TAB>label`` lines.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import stat
import tempfile
import time
import types
import warnings
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClnceError,
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

    edges: tuple[tuple[str, str], ...]
    leaf_label_map: dict[str, int]
    nodes: tuple[str, ...] = field(init=False)  # sorted, every node that the edges name

    def __post_init__(self):
        node_set = {n for e in self.edges for n in e}
        object.__setattr__(self, "nodes", tuple(sorted(node_set)))
        for n in self.nodes:  # a tab, "\n" or "\r" would end a field or line of its file
            if any(ch in n for ch in "\t\n\r"):
                raise GraphError(f"node name {n!r} holds a tab or a line break")
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


@dataclass(frozen=True)
class Dataset:
    """Validated feature matrix with optional attributes, labels, hierarchy."""

    features: np.ndarray
    ids: tuple[str, ...] = ()
    attributes: np.ndarray | None = None
    labels: np.ndarray | None = None
    hierarchy: HierarchyGraph | None = None

    def __post_init__(self):
        # read-only views, so that the caller's own arrays stay writeable
        feats = np.asarray(self.features, dtype=np.float64).view()
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
            labs = np.asarray(self.labels, dtype=np.int64).view()
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


HEADER_GRAMMAR = "id,f0..f{D-1}[,a0..a{A-1}][,label]"


def _utf8(raw: bytes, path: str) -> str:
    """The bytes ``raw`` read from ``path``, decoded whole; bytes that are
    not UTF-8 text are a SchemaError that names the offset of the bad byte."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None


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
        cell = header[end]  # quoted up to 40 characters, so a long cell stays readable
        problem = f"unexpected column {end + 1} {cell[:40]!r}" + (
            f"... ({len(cell)} characters)" if len(cell) > 40 else "")
    else:
        problem = "no feature column f0"
    raise SchemaError(f"{path}:1: {problem}; the header must be {HEADER_GRAMMAR}")


def _text(raw: bytes) -> io.TextIOWrapper:
    """``raw`` as UTF-8 text read as ``open(path, newline="")`` reads a file:
    decoded a chunk at a time, with no second copy of the whole file."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")


def _first_bad_row(raw: bytes, path: str, dim: int, num_attrs: int, has_label: bool):
    """The error for the first data record of the CSV bytes ``raw`` read
    from ``path`` that fails the row checks, read with csv and counted from
    2 after the header record; None if none fails.

    Only the error path of ``load_dataset`` runs this scan.
    """
    width = 1 + dim + num_attrs + has_label
    with _text(raw) as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row:  # a blank line, which loadtxt skips too
                continue
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


CACHE_DIR = "__clnce_cache__"
# A temporary file in CACHE_DIR this much older than its last write was left
# by a killed write; the next write removes it.
_STALE_TMP_S = 60.0
# Reading or writing an entry may fail in these ways, ClnceError for arrays
# that fail the Dataset checks; each falls back to the parse.
_CACHE_ERRORS = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile, ClnceError)


def load_dataset(path: str) -> Dataset:
    """Load and validate a dataset CSV whose header follows HEADER_GRAMMAR.

    The file is read once. A parse of a regular file is cached next to it,
    in ``CACHE_DIR/<basename>.npz``, keyed by the sha256 of the bytes, and a
    later call on the same bytes reads the arrays back bit for bit. Cache
    I/O never changes a result or an error: any failure of it falls back to
    the parse.
    """
    with open(path, "rb") as fh:
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        raw = fh.read()
    if not regular or _CACHE_FORMAT is None:
        return _parse_dataset(raw, path)
    folder, name = os.path.split(path)
    entry = os.path.join(folder, CACHE_DIR, f"{name}.npz")
    key = f"{_CACHE_FORMAT}, sha256 {hashlib.sha256(raw).hexdigest()}"
    d = _read_entry(entry, key)
    if d is None:
        d = _parse_dataset(raw, path)
        _write_entry(entry, key, d)
    return d


# The start of every cache entry's key, whose end is the sha256 of the CSV
# bytes; an entry with another key is a miss. The tag holds the sha256 of
# this file, which holds every parse rule, so that any edit to the loader
# orphans the entries it wrote, as a .pyc's magic number does; and numpy's
# version, because numpy's parser decides what a file holds. When this file
# cannot be read there is no tag, and no cache.
try:
    with open(__file__, "rb") as _fh:
        _CACHE_FORMAT = (f"clnce data.py {hashlib.sha256(_fh.read()).hexdigest()}, "
                         f"numpy {np.__version__}")
except OSError:
    _CACHE_FORMAT = None


def _read_entry(entry: str, key: str) -> Dataset | None:
    """The Dataset stored at ``entry`` under ``key``; None when there is none to read."""
    try:
        with open(entry, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            if str(z["format"]) != key:
                return None
            # ids as UTF-8 bytes and the end of each in the decoded text: a
            # numpy str array would drop trailing NULs
            text = z["ids"].tobytes().decode("utf-8")
            ends = z["id_ends"].tolist()
            return Dataset(
                features=z["features"],
                ids=tuple(text[a:b] for a, b in zip([0, *ends], ends)),
                attributes=z["attributes"] if "attributes" in z else None,
                labels=z["labels"] if "labels" in z else None,
            )
    except _CACHE_ERRORS:
        return None


def _write_entry(entry: str, key: str, d: Dataset) -> None:
    """Store ``d`` under ``key`` at ``entry`` through a temporary file and
    ``os.replace``, then remove the stale temporary files of the cache. On
    any failure the cache is left as it is."""
    folder, name = os.path.split(entry)
    try:
        arrays = {
            "format": np.array(key),
            "features": d.features,
            "ids": np.frombuffer("".join(d.ids).encode("utf-8"), dtype=np.uint8),
            "id_ends": np.cumsum([len(s) for s in d.ids], dtype=np.int64),
        }
        if d.attributes is not None:
            arrays["attributes"] = d.attributes
        if d.labels is not None:
            arrays["labels"] = d.labels
        os.makedirs(folder, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=folder, prefix=name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, entry)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        now = time.time()
        for other in os.listdir(folder):
            other = os.path.join(folder, other)
            if other.endswith(".tmp") and now - os.stat(other).st_mtime > _STALE_TMP_S:
                os.remove(other)
    except _CACHE_ERRORS:
        pass


def _parse_dataset(raw: bytes, path: str) -> Dataset:
    """The dataset CSV bytes ``raw`` read from ``path``, parsed and checked.

    The data rows are parsed by one ``np.loadtxt`` call into a structured
    array, so no row becomes a Python object (the ids and attribute cells
    are one str each). When that parse, the attribute check or the label
    sign check fails, a csv scan names the first bad record as ``path:line``.
    """
    # loadtxt has no field size limit; csv's, which is process-wide, is the
    # file's length until the parse ends
    limit = csv.field_size_limit(len(raw))
    try:
        with _text(raw) as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise SchemaError(f"{path}: empty file")
            dim, num_attrs, has_label = _parse_header(header, path)
            fields = [("id", object), ("f", np.float64, (dim,))]
            if num_attrs:
                fields.append(("a", object, (num_attrs,)))
            if has_label:
                fields.append(("label", np.int64))
            try:
                with warnings.catch_warnings():
                    # loadtxt warns on a file without data rows; that is raised below
                    warnings.simplefilter("ignore", UserWarning)
                    rows = np.loadtxt(
                        fh, dtype=fields, delimiter=",", quotechar='"', comments=None, ndmin=1
                    )
                problem = None
            except ValueError as exc:
                problem = SchemaError(f"{path}: {exc}")
        if problem is None:
            if not rows.size:
                raise SchemaError(f"{path}: no data rows")
            if num_attrs and not ((rows["a"] == "1") | (rows["a"] == "0")).all():
                problem = DomainError(f"{path}: attribute value not in {{0,1}}")
            elif has_label and rows["label"].min() < 0:
                problem = DomainError(f"{path}: labels must be non-negative")
        if problem is not None:
            raise _first_bad_row(raw, path, dim, num_attrs, has_label) or problem
    except UnicodeDecodeError:  # it counts from its decode chunk; _utf8 gives the file offset
        _utf8(raw, path)
        raise  # not reached: bytes that fail a chunked decode fail the whole one
    finally:
        csv.field_size_limit(limit)
    return Dataset(
        features=np.ascontiguousarray(rows["f"]),
        ids=tuple(rows["id"]),
        attributes=rows["a"] == "1" if num_attrs else None,
        labels=np.ascontiguousarray(rows["label"]) if has_label else None,
    )


def write_csv(path: str, header: list[str], rows) -> None:
    r"""Write ``header`` and then ``rows`` as CSV with "\n" line ends, making a
    missing parent directory. The writer's terminator is "\r\n", so that it
    also quotes a cell that holds a "\r" (csv.reader ends a record there);
    each line reaches the file with "\n" in its place."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        lines = types.SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
        writer = csv.writer(lines, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_dataset(d: Dataset, path: str) -> None:
    header = ["id"] + [f"f{j}" for j in range(d.feature_dim)]
    header += [f"a{j}" for j in range(d.num_attributes)]
    if d.labels is not None:
        header.append("label")

    def rows():
        for i in range(d.num_samples):
            row = [d.ids[i]] + [repr(float(v)) for v in d.features[i]]
            if d.attributes is not None:
                row += [str(int(v)) for v in d.attributes[i]]
            if d.labels is not None:
                row.append(str(int(d.labels[i])))
            yield row

    write_csv(path, header, rows())


def load_hierarchy(path: str) -> HierarchyGraph:
    edges: list[tuple[str, str]] = []
    leaf_label_map: dict[str, int] = {}
    in_labels = False
    with open(path, "rb") as fh:
        text = _utf8(fh.read(), path)
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
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
            if parts[0] in leaf_label_map:
                raise SchemaError(f"{path}:{lineno}: leaf {parts[0]!r} already has a label")
            try:
                leaf_label_map[parts[0]] = int(parts[1])
            except ValueError:
                raise SchemaError(f"{path}:{lineno}: bad label int") from None
        else:
            edges.append((parts[0], parts[1]))
    if not edges:
        raise SchemaError(f"{path}: no edges")
    if not leaf_label_map:
        raise SchemaError(f"{path}: no leaf<TAB>label lines after '#labels'")
    return HierarchyGraph(edges=tuple(edges), leaf_label_map=leaf_label_map)


def save_hierarchy(g: HierarchyGraph, path: str) -> None:
    """Edges, then ``#labels`` and leaf labels, as TSV; a missing parent directory is made."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
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
    n_train = math.floor(train_fraction * d.num_samples)
    if n_train == 0:
        raise SizeError(
            f"train_fraction {train_fraction!r} of {d.num_samples} rows leaves no train row"
        )
    perm = np.random.default_rng(seed).permutation(d.num_samples)
    return d.subset(np.sort(perm[:n_train])), d.subset(np.sort(perm[n_train:]))


def augment_rows(
    features: np.ndarray, noise_sigma: float, mask_prob: float, rng: np.random.Generator
) -> np.ndarray:
    """One stochastic view: additive Gaussian noise, then coordinate masking.
    Each view is a new array; ``features`` is never written.
    TrainConfig bounds ``noise_sigma`` (>= 0) and ``mask_prob`` (in [0, 1])."""
    out = np.array(features, dtype=np.float64)
    if noise_sigma > 0:
        out += rng.normal(0.0, noise_sigma, size=out.shape)
    if mask_prob > 0:
        out[rng.random(out.shape) < mask_prob] = 0.0
    return out
