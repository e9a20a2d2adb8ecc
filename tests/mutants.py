"""Mutation check: plant one defect at a time in a copy of the tree and run
the suite on it. A defect that no test catches marks a contract no test
pins. Pytest does not collect this file.

    python tests/mutants.py            # every defect, one after another
    python tests/mutants.py --list     # the defect names
    python tests/mutants.py NAME ...   # only these defects

Each defect replaces one snippet of a source file, which must occur in it
exactly once, so a defect whose code has changed fails loudly instead of
testing nothing. Each run is ``pytest -x -q`` in a fresh copy; the line
printed for it names the first failing test, or SURVIVED. The exit status
is the number of defects that survived.
"""

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

# name: (module under src/clnce, snippet, replacement)
DEFECTS = {
    # encoder
    "relu_mask_keeps_zeros": ("encoder", "g *= cache.inputs[li] > 0", "g *= cache.inputs[li] >= 0"),
    "relu_mask_of_the_wrong_layer": (
        "encoder", "g *= cache.inputs[li] > 0", "g *= cache.inputs[li - 1] > 0"),
    "relu_dropped": ("encoder", "np.maximum(h, 0.0, out=h)\n            inputs.append(h)",
                     "np.maximum(h, 0.0)\n            inputs.append(h)"),
    "no_normalisation_jacobian": (
        "encoder", "g = g - (g * u).sum(axis=1, keepdims=True) * u", "g = g + 0.0 * u"),
    "bias_gradient_is_a_mean": (
        "encoder", "np.sum(g, axis=0, out=grads[li][1])", "np.mean(g, axis=0, out=grads[li][1])"),
    "biases_decay": ("encoder", "        b[...] = 0.0\n", "        b[...] = weight_decay\n"),
    "warmup_starts_at_zero": (
        "encoder", "peak_lr * (step + 1) / warmup_steps", "peak_lr * step / warmup_steps"),
    "cosine_rises": ("encoder", "1.0 + math.cos(math.pi * frac)", "1.0 - math.cos(math.pi * frac)"),
    "he_scale_of_the_output_width": (
        "encoder", "math.sqrt(2.0 / w.shape[0])", "math.sqrt(2.0 / w.shape[1])"),
    # objective
    "pairs_are_one_row": ("objective", "picks[0::2], picks[1::2]", "picks[0::2], picks[0::2]"),
    "clusters_drawn_uniformly": (
        "objective", "z = clusters.assignment[rng.integers(clusters.num_samples, size=n)]",
        "z = rng.integers(clusters.num_clusters, size=n)"),
    "loss_without_one_over_n": ("objective", "np.log(rowsum[:, 0] / n)", "np.log(rowsum[:, 0])"),
    "gradient_identity_off_the_diagonal": ("objective", "e.flat[:: n + 1] -= 1.0", "e.flat[:: n] -= 1.0"),
    "critic_backward_untransposed": (
        "objective", "g.T @ projections_x / temperature", "g @ projections_x / temperature"),
    # clusters
    "kmeans_stops_at_equal_gain": ("clusters", "prev_inertia - inertia < tol", "prev_inertia - inertia <= tol"),
    "empty_cluster_takes_the_nearest_row": (
        "clusters", "centroids[empty[0]] = pts[dist.argmax()]", "centroids[empty[0]] = pts[dist.argmin()]"),
    "attribute_ties_keep_the_higher_column": (
        "clusters", "(-entropies[j], j)", "(-entropies[j], -j)"),
    "negative_cluster_count_accepted": (
        "clusters", "not isinstance(k, (int, np.integer)) or k < 0:",
        "not isinstance(k, (int, np.integer)):"),
    "kmeans_zero_iterations_accepted": ("clusters", "if max_iters < 1:", "if max_iters < 0:"),
    "nearest_certified_on_any_gap": (
        "clusters", "~(gap > _slack(dim, np.sqrt(pts_sq) + np.sqrt(c_sq.max())))", "~(gap > 0)"),
    # info
    "mutual_information_inverted": (
        "info", "np.log(joint[mask] / outer[mask])", "np.log(outer[mask] / joint[mask])"),
    "conditional_entropy_of_the_wrong_axis": (
        "info", "cond = joint.sum(axis=1 - given)", "cond = joint.sum(axis=given)"),
    "bound_chain_against_the_larger_mi": (
        "info", "self.kl <= min_mi + _ATOL", "self.kl <= max(self.mi_zx, self.mi_zy) + _ATOL"),
    "batch_objective_without_the_positive": (
        "info", "(counts @ ratio[np.ix_(xs, pos)].T + e1) / n", "(counts @ ratio[np.ix_(xs, pos)].T) / n"),
    "selection_score_adds_redundancy": ("info", "p.mi_zt - p.h_z_given_t", "p.mi_zt + p.h_z_given_t"),
    # pipeline
    "warmup_not_clamped": ("pipeline", "    warmup = min(warmup, total_steps)\n", ""),
    "x_view_gradient_dropped": (
        "pipeline", "grad += enc.backward(model, cache_y, g_py)", "grad = enc.backward(model, cache_y, g_py)"),
    "zero_sd_feature_divides": ("pipeline", "    sd[sd == 0] = 1.0\n", ""),
    "probe_softmax_unshifted": ("pipeline", "            g -= g.max(axis=0)\n", ""),
    # data
    "split_takes_the_ceiling": (
        "data", "math.floor(train_fraction * d.num_samples)", "math.ceil(train_fraction * d.num_samples)"),
    "split_fraction_bounds_closed": (
        "data", "if not 0.0 < train_fraction < 1.0:", "if not 0.0 <= train_fraction <= 1.0:"),
    "augment_masks_the_caller_rows": (
        "data", "out = np.array(features, dtype=np.float64)",
        "out = np.asarray(features, dtype=np.float64)"),
    "hierarchy_without_edges_accepted": ("data", "if not edges:", "if edges is None:"),
    "cache_key_ignores_the_bytes": (
        "data", 'key = f"{_CACHE_FORMAT}, sha256 {hashlib.sha256(raw).hexdigest()}"',
        'key = f"{_CACHE_FORMAT}"'),
    "failed_cache_write_leaves_its_temporary": (
        "data", "                os.remove(tmp)\n", "                pass\n"),
}

IGNORE = shutil.ignore_patterns(".git", "__pycache__", "__clnce_cache__", ".hypothesis",
                                ".pytest_cache", ".bench_work")


def run_defect(name: str) -> str | None:
    """The first test that fails with defect ``name`` planted, or None."""
    module, snippet, replacement = DEFECTS[name]
    with tempfile.TemporaryDirectory(prefix="clnce-mutant-") as tmp:
        tree = pathlib.Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        source = tree / "src" / "clnce" / f"{module}.py"
        text = source.read_text(encoding="utf-8")
        if text.count(snippet) != 1:
            raise SystemExit(f"{name}: the snippet occurs {text.count(snippet)} times in {module}.py")
        source.write_text(text.replace(snippet, replacement), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=tree, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(tree / "src")},
        )
    if proc.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", proc.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"pytest exit {proc.returncode}"


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        print("\n".join(DEFECTS))
        return 0
    unknown = sorted(set(argv) - set(DEFECTS))
    if unknown:
        raise SystemExit(f"unknown defects: {', '.join(unknown)}")
    survived = 0
    for name in argv or DEFECTS:
        start = time.perf_counter()
        caught = run_defect(name)
        survived += caught is None
        verdict = f"caught by {caught}" if caught else "SURVIVED"
        print(f"{name}: {verdict} ({time.perf_counter() - start:.0f} s)", flush=True)
    return survived


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
