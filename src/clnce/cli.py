"""Command-line entry points: train, eval, infoplane, verify-bounds,
make-clusters, make-data.

Every subcommand validates its inputs, writes its outputs under --out, which
it makes only once a run succeeds, and exits nonzero with a categorized
message on any contract violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import clusters as cl
from . import datagen
from . import encoder as enc
from . import info as im
from . import pipeline as pl
from .data import load_dataset, load_hierarchy, save_dataset, save_hierarchy, split_dataset
from .data import write_csv
from .errors import ClnceError, ParameterError, SchemaError


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def _load_data(data: str, hierarchy: str | None):
    """The dataset at ``data``, with the hierarchy at ``hierarchy`` if one is given."""
    d = load_dataset(data)
    return dataclasses.replace(d, hierarchy=load_hierarchy(hierarchy)) if hierarchy else d


def _load_run_config(path: str):
    """Dataset, TrainConfig and train fraction of a run config, parsed before any file is read."""
    run = pl.parse_object(_read_json(path), pl.RUN_KEYS, "run config")
    cfg = pl.TrainConfig.from_dict(run["train"])
    return _load_data(run["data"], run["hierarchy"]), cfg, float(run["train_fraction"])


def _cmd_train(args) -> int:
    d, cfg, train_fraction = _load_run_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    train_data, eval_data = split_dataset(d, train_fraction, cfg.seed)
    del d  # the split copies its rows; free the unsplit dataset before training
    ckpt = os.path.join(args.out, "checkpoint.bin")  # its writer makes --out
    _, report = pl.train(train_data, cfg, eval_data=eval_data, checkpoint_path=ckpt)
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    write_csv(os.path.join(args.out, "loss.csv"), ["epoch", "loss"],
              ((e, repr(v)) for e, v in enumerate(report.loss_curve, start=1)))
    if report.info_plane_curve:
        im.save_info_plane_csv(
            report.info_plane_curve, os.path.join(args.out, "info_plane.csv")
        )
    print(f"final loss {report.loss_curve[-1]:.6f}", end="")
    if report.final_linear_accuracy is not None:
        print(f", linear accuracy {report.final_linear_accuracy:.4f}", end="")
    print(f"\ncheckpoint: {ckpt}")
    return 0


def _cmd_eval(args) -> int:
    epochs = pl.parse_value("eval_epochs", args.epochs)
    lr = pl.parse_value("eval_lr", args.lr)
    model = enc.load_checkpoint(args.checkpoint)
    train_data = load_dataset(args.train_data)
    eval_data = load_dataset(args.eval_data)
    acc = pl.linear_evaluate(model, train_data, eval_data, epochs=epochs, lr=lr)
    print(f"linear accuracy {acc:.4f}")
    return 0


def _cmd_infoplane(args) -> int:
    cluster_specs = _read_json(args.configs)  # checked before the dataset is read
    if not isinstance(cluster_specs, list):
        raise SchemaError(f"{args.configs}: must hold a JSON list of cluster specs")
    if len(cluster_specs) < 2:
        raise ParameterError("need at least 2 cluster configs")
    for spec in cluster_specs:
        pl.parse_cluster_spec(spec)
    d, cfg, train_fraction = _load_run_config(args.config)
    points = pl.run_info_plane_experiment(d, cluster_specs, cfg, train_fraction=train_fraction)
    # its writer makes --out
    im.save_info_plane_csv(points, os.path.join(args.out, "info_plane.csv"))
    for p in points:
        score = im.selection_score(p)
        print(
            f"{p.config_label}: I(Z;T)={p.mi_zt:.4f} H(Z|T)={p.h_z_given_t:.4f} "
            f"score={score:.4f} acc={p.downstream_accuracy:.4f}"
        )
    return 0


def _cmd_verify_bounds(args) -> int:
    if args.models < 1:
        raise ParameterError(f"--models must be an int >= 1, got {args.models}")
    rng = np.random.default_rng(args.seed)
    all_ok = True
    for i in range(args.models):
        nz = int(rng.integers(1, 4))
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        m = im.DiscreteJointModel.random(nz, nx, ny, seed=int(rng.integers(2**31)))
        report = im.verify_bound_chain(m, n=args.n)
        status = "ok" if report.all_inequalities_hold else "VIOLATED"
        print(
            f"model {i:3d} |Z|={nz} |X|={nx} |Y|={ny}: "
            f"obj={report.objective_at_fstar:.6f} kl={report.kl:.6f} "
            f"minMI={min(report.mi_zx, report.mi_zy):.6f} H(Z)={report.h_z:.6f} "
            f"[{status}]"
        )
        all_ok = all_ok and report.all_inequalities_hold
    print("all chains hold" if all_ok else "chain violation found")
    return 0 if all_ok else 1


def _cmd_make_clusters(args) -> int:
    spec = pl.parse_cluster_spec(_read_json(args.spec))  # before the dataset is read
    d = _load_data(args.data, args.hierarchy)
    clusters = pl.build_clusters(d, spec)
    cl.save_assignment(clusters, d.ids, args.out)
    print(f"{clusters.num_clusters} clusters ({clusters.provenance}) -> {args.out}")
    return 0


def _cmd_make_data(args) -> int:
    d = datagen.make_mixture_dataset(**datagen.PRESETS[args.preset], seed=args.seed)
    data_path = os.path.join(args.out, f"{args.preset}.csv")  # its writer makes --out
    save_dataset(d, data_path)
    save_hierarchy(d.hierarchy, os.path.join(args.out, f"{args.preset}_hierarchy.tsv"))
    print(f"wrote {d.num_samples} samples to {data_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clnce",
        description="Weakly-supervised contrastive learning toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an encoder with cluster-based contrast")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="linear-probe a frozen checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--train-data", required=True)
    p.add_argument("--eval-data", required=True)
    p.add_argument("--epochs", type=int, default=pl.TrainConfig.eval_epochs)
    p.add_argument("--lr", type=float, default=pl.TrainConfig.eval_lr)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("infoplane", help="sweep synthetic cluster configs")
    p.add_argument("--config", required=True)
    p.add_argument("--configs", required=True, help="JSON list of cluster specs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_infoplane)

    p = sub.add_parser("verify-bounds", help="check the inequality chain exactly")
    p.add_argument("--models", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser("make-clusters", help="export a cluster assignment CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--hierarchy", default=None)
    p.add_argument("--spec", required=True, help="JSON cluster spec")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_clusters)

    p = sub.add_parser("make-data", help="generate a synthetic dataset CSV")
    p.add_argument("--preset", choices=datagen.PRESETS, default="mixture")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:  # every --seed flag
            pl.parse_value("seed", args.seed)
        return args.func(args)
    except ClnceError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
