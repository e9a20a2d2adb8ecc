"""Weakly-supervised contrastive learning toolkit: cluster construction from
auxiliary information, a cluster-conditional contrastive objective with exact
gradients, information-plane diagnostics, and an exact verifier for the
objective/KL/MI/entropy inequality chain."""

import types

from .clusters import (
    ClusterAssignment,
    KMeansResult,
    attribute_entropy,
    clusters_from_attributes,
    clusters_from_hierarchy,
    clusters_from_labels,
    clusters_instance_id,
    kmeans,
)
from .data import (
    Dataset,
    HierarchyGraph,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .encoder import (
    EncoderModel,
    backward,
    embed,
    forward,
    init_model,
    lr_at,
    sgd_step,
)
from .info import (
    BoundChainReport,
    DiscreteJointModel,
    InfoPlanePoint,
    conditional_entropy,
    empirical_joint,
    entropy,
    exact_mixture_kl,
    info_plane_point,
    mutual_information,
    selection_score,
    verify_bound_chain,
)
from .objective import cl_infonce, critic_matrix, sample_pair_batch
from .pipeline import (
    RunReport,
    TrainConfig,
    build_clusters,
    linear_evaluate,
    run_info_plane_experiment,
    train,
)

__version__ = "0.1.0"

# every public name the imports above bind, and __version__; not the submodules
__all__ = [name for name, value in globals().items() if not name.startswith("_")
           and not isinstance(value, types.ModuleType)] + ["__version__"]
