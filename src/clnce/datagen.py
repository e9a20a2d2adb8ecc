"""Synthetic desk-scale dataset generators.

The mixture generator produces a labeled isotropic Gaussian mixture with
class-conditional binary attributes (class prototype bits flipped with a
small probability) and a balanced three-level hierarchy over the classes, so
every cluster-construction pathway has something to consume.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, HierarchyGraph
from .errors import ParameterError

# make-data presets: the make_mixture_dataset arguments that differ from its
# defaults. `blobs` is a small noise-padded dataset for the k-means pathway.
PRESETS = {
    "mixture": {},
    "blobs": dict(num_classes=4, dim=8, noise_dims=24, num_samples=400, class_sep=2.5,
                  num_attributes=4),
}


def make_mixture_dataset(
    num_classes: int = 10,
    dim: int = 64,
    num_samples: int = 5000,
    num_attributes: int = 12,
    noise_dims: int = 0,
    noise_std: float = 3.0,
    class_sep: float = 3.0,
    attr_flip_prob: float = 0.05,
    seed: int = 0,
) -> Dataset:
    """Isotropic Gaussian mixture with class-informative binary attributes.

    Rows scatter with std 1 about class means drawn with std `class_sep`.
    Noise columns (`noise_dims`, std `noise_std`) weaken a random-encoder probe.
    """
    if num_classes < 2 or num_samples < num_classes:
        raise ParameterError("need >= 2 classes and >= 1 sample per class")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, class_sep, size=(num_classes, dim))
    labels = np.repeat(np.arange(num_classes), num_samples // num_classes)
    labels = np.concatenate(
        [labels, rng.integers(num_classes, size=num_samples - labels.size)]
    )
    rng.shuffle(labels)
    features = means[labels] + rng.normal(0.0, 1.0, size=(num_samples, dim))
    if noise_dims:
        noise = rng.normal(0.0, noise_std, size=(num_samples, noise_dims))
        features = np.hstack([features, noise])
    protos = rng.integers(0, 2, size=(num_classes, num_attributes))
    attrs = protos[labels]
    flips = rng.random(attrs.shape) < attr_flip_prob
    attrs = np.where(flips, 1 - attrs, attrs)
    return Dataset(
        features=features,
        attributes=attrs,
        labels=labels.astype(np.int64),
        hierarchy=make_balanced_hierarchy(num_classes),
    )


def make_balanced_hierarchy(num_classes: int) -> HierarchyGraph:
    """Three-level tree: root -> max(2, round(sqrt(num_classes))) groups -> class leaves."""
    groups = max(2, int(round(np.sqrt(num_classes))))
    edges = []
    leaf_label_map = {}
    for g in range(groups):
        edges.append(("root", f"g{g}"))
    for c in range(num_classes):
        g = c % groups
        leaf = f"leaf{c}"
        edges.append((f"g{g}", leaf))
        leaf_label_map[leaf] = c
    return HierarchyGraph(edges=tuple(edges), leaf_label_map=leaf_label_map)

