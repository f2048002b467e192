"""Command-line experiment runner.

Subcommands: run, grid, ablate-shuffle, sweep-labels, diagnose,
gen-synthetic, graph-level. Either point at on-disk data (--edges/--features/
--labels) or use --synthetic; a JSON config (--config) supplies defaults that
individual flags override. Exit code is 0 only if every trial succeeded.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .autodiff import ACTIVATIONS
from .data import DatasetPaths, SyntheticSpec, generate_synthetic, save_dataset
from .diagnostics import classify_density, k_hop_reachable_ratio
from .encoders import ENCODER_KINDS, EncoderConfig
from .experiment import (PARADIGMS, ExperimentConfig, SplitRegime,
                         ablation_shuffle_ratio, default_activation,
                         grid_search, load_config_graph, run_experiment,
                         sweep_labeled_anomalies)
from .graph import graph_stats
from .graphlevel import downsample_class, graphlevel_pipeline, load_collection


def config_from_dict(d):
    """ExperimentConfig from a plain JSON-style dict."""
    d = dict(d)
    ds = d.pop("dataset")
    if "synthetic" in ds:
        dataset = SyntheticSpec(**{k: tuple(v) if k == "block_sizes" else v
                                   for k, v in ds["synthetic"].items()})
    elif "paths" in ds:
        dataset = DatasetPaths(**ds["paths"])
    else:
        raise ValueError("dataset must contain 'synthetic' or 'paths'")
    split = SplitRegime(**d.pop("split")) if "split" in d else SplitRegime()
    return ExperimentConfig(dataset=dataset, split=split, **d)


def _add_dataset_flags(p):
    p.add_argument("--edges", help="edge list file (u v per line)")
    p.add_argument("--features", help="feature CSV, one row per node")
    p.add_argument("--labels", help="label file (0/1/? per line)")
    p.add_argument("--synthetic", action="store_true",
                   help="generate the synthetic benchmark instead of loading files")
    p.add_argument("--nodes", type=int, default=2000)
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--intra-p", type=float, default=0.007)
    p.add_argument("--inter-p", type=float, default=0.0003)
    p.add_argument("--anomaly-fraction", type=float, default=0.05)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--feature-shift", type=float, default=1.5)
    p.add_argument("--feature-noise", type=float, default=0.5)
    p.add_argument("--block-gap", type=float, default=0.0,
                   help="spacing of block feature profiles")
    p.add_argument("--structural-fraction", type=float, default=0.8)
    p.add_argument("--clique-size", type=int, default=8)
    p.add_argument("--no-contextual", action="store_true")
    p.add_argument("--no-structural", action="store_true")
    p.add_argument("--data-seed", type=int, default=0)


def _add_model_flags(p):
    """Encoder and training flags; each defaults to None, meaning not given."""
    p.add_argument("--backbone", choices=ENCODER_KINDS)
    p.add_argument("--hidden", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--activation", choices=ACTIVATIONS)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--pretrain-epochs", type=int)
    p.add_argument("--shuffle-ratio", type=float)
    p.add_argument("--mask-ratio", type=float)
    p.add_argument("--gamma", type=float)


def _given(args, fields):
    """{field: value} for each (flag, field) pair whose flag was given."""
    return {field: getattr(args, flag) for flag, field in fields
            if getattr(args, flag) is not None}


def _add_experiment_flags(p):
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--paradigm", choices=PARADIGMS)
    _add_model_flags(p)
    p.add_argument("--split-regime", choices=("semi", "full"))
    p.add_argument("--n-anom", type=int)
    p.add_argument("--n-norm", type=int)
    p.add_argument("--train-ratio", type=float)
    p.add_argument("--k-hops", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory (default: runs)")


def _dataset_from_args(args):
    if args.synthetic:
        return SyntheticSpec(num_nodes=args.nodes, num_blocks=args.blocks,
                             intra_p=args.intra_p, inter_p=args.inter_p,
                             anomaly_fraction=args.anomaly_fraction,
                             feature_dim=args.feature_dim,
                             feature_shift=args.feature_shift,
                             feature_noise=args.feature_noise,
                             block_feature_gap=args.block_gap,
                             clique_size=args.clique_size,
                             structural_fraction=args.structural_fraction,
                             contextual=not args.no_contextual,
                             structural=not args.no_structural,
                             seed=args.data_seed)
    if not (args.edges and args.features):
        raise SystemExit("either --synthetic or --edges/--features is required")
    return DatasetPaths(edges=args.edges, features=args.features,
                        labels=args.labels)


def _config_from_args(args):
    if args.config:
        with open(args.config) as fh:
            base = config_from_dict({"out_dir": "runs", **json.load(fh)})
    else:
        base = ExperimentConfig(dataset=_dataset_from_args(args), out_dir="runs")
    if args.synthetic or args.edges:
        base = dataclasses.replace(base, dataset=_dataset_from_args(args))

    updates = _given(args, (("paradigm", "paradigm"), ("backbone", "encoder_kind"),
                            ("hidden", "hidden_dim"), ("layers", "num_layers"),
                            ("activation", "activation"), ("lr", "lr"),
                            ("epochs", "epochs"),
                            ("pretrain_epochs", "pretrain_epochs"),
                            ("shuffle_ratio", "shuffle_ratio"),
                            ("mask_ratio", "mask_ratio"), ("gamma", "sce_gamma"),
                            ("k_hops", "k_hops"), ("workers", "workers"),
                            ("trials", "trials"), ("seed", "base_seed"),
                            ("out", "out_dir")))
    split = base.split
    if args.split_regime:
        split = dataclasses.replace(split, regime=args.split_regime)
    split = dataclasses.replace(split, **_given(args, (
        ("n_anom", "n_anom"), ("n_norm", "n_norm"), ("train_ratio", "train_ratio"))))
    return dataclasses.replace(base, split=split, **updates)


def _print_aggregate(result):
    print(json.dumps(result.aggregate, sort_keys=True, indent=1))
    if result.run_dir:
        print(f"artifacts: {result.run_dir}", file=sys.stderr)


def cmd_run(args):
    result = run_experiment(_config_from_args(args))
    _print_aggregate(result)
    return 0 if result.ok else 1


def cmd_grid(args):
    grid = json.loads(args.grid)
    result = grid_search(_config_from_args(args), grid)
    print(json.dumps({"selected": result.best_config.canonical(),
                      "rows": result.rows}, sort_keys=True, indent=1))
    _print_aggregate(result.experiment)
    return 0 if result.experiment.ok else 1


def cmd_ablate_shuffle(args):
    ratios = [float(tok) for tok in args.ratios.split(",")]
    rows, results = ablation_shuffle_ratio(_config_from_args(args), ratios)
    for ratio, score in rows:
        print(f"shuffle_ratio={ratio}: mean_auroc={score:.4f}")
    return 0 if all(r.ok for r in results) else 1


def cmd_sweep_labels(args):
    counts = [int(tok) for tok in args.counts.split(",")]
    rows, results = sweep_labeled_anomalies(_config_from_args(args), counts)
    for count, score, r2 in rows:
        print(f"n_anom={count}: mean_auroc={score:.4f} mean_r2={r2}")
    return 0 if all(r.ok for r in results) else 1


def cmd_diagnose(args):
    config = _config_from_args(args)
    graph = load_config_graph(config)
    stats = graph_stats(graph)
    density = classify_density(stats)
    report = {
        "num_nodes": graph.num_nodes,
        "num_edges": int(graph.num_edges),
        "density": stats.density,
        "avg_degree": stats.avg_degree,
        "avg_degree_anomaly": stats.avg_degree_anomaly,
        "density_class": density.category,
    }
    anomalies = np.flatnonzero(graph.labels == 1)
    n = config.split.n_anom
    if anomalies.size > n:
        rng = np.random.default_rng(config.base_seed)
        labeled = np.sort(rng.choice(anomalies, size=n, replace=False))
        rest = np.setdiff1d(anomalies, labeled)
        rep = k_hop_reachable_ratio(graph, labeled, rest, k_max=config.k_hops)
        report["reachability"] = rep.to_dict()
    print(json.dumps(report, sort_keys=True, indent=1))
    return 0


def cmd_gen_synthetic(args):
    spec = _dataset_from_args(args)
    if not isinstance(spec, SyntheticSpec):
        raise SystemExit("gen-synthetic requires --synthetic flags")
    graph = generate_synthetic(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    save_dataset(graph,
                 os.path.join(args.out_dir, "edges.txt"),
                 os.path.join(args.out_dir, "features.csv"),
                 os.path.join(args.out_dir, "labels.txt"))
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges "
          f"to {args.out_dir}")
    return 0


def cmd_graph_level(args):
    collection = load_collection(args.manifest)
    collection = downsample_class(collection, args.downsample_class,
                                  keep_fraction=args.keep_fraction,
                                  seed=args.seed)
    # only the given flags are passed, so the defaults of EncoderConfig and
    # graphlevel_pipeline apply to the rest
    enc_fields = {"kind": "gcn", "activation": default_activation(args.mode)}
    enc_fields.update(_given(args, (("backbone", "kind"), ("hidden", "hidden_dim"),
                                    ("layers", "num_layers"),
                                    ("activation", "activation"))))
    enc = EncoderConfig(input_dim=collection.feature_dim, **enc_fields)
    result = graphlevel_pipeline(
        collection, args.mode, enc, seed=args.seed,
        **_given(args, [(flag, flag) for flag in (
            "train_ratio", "epochs", "lr", "pretrain_epochs", "shuffle_ratio",
            "mask_ratio", "gamma")]))
    print(json.dumps({"auroc": result.auroc, "auprc": result.auprc,
                      "val_auprc": result.val_auprc}, sort_keys=True, indent=1))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="gadkit",
                                     description="graph anomaly detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment (multi-trial)")
    _add_dataset_flags(p)
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("grid", help="hyperparameter grid search")
    _add_dataset_flags(p)
    _add_experiment_flags(p)
    p.add_argument("--grid", required=True,
                   help='JSON grid, e.g. {"lr": [0.01, 0.005], "num_layers": [1, 2]}')
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("ablate-shuffle", help="DGI corruption-ratio ablation")
    _add_dataset_flags(p)
    _add_experiment_flags(p)
    p.add_argument("--ratios", default="0.25,0.5,0.75,1.0")
    p.set_defaults(func=cmd_ablate_shuffle)

    p = sub.add_parser("sweep-labels", help="labeled-anomaly count sweep")
    _add_dataset_flags(p)
    _add_experiment_flags(p)
    p.add_argument("--counts", default="1,5,20")
    p.set_defaults(func=cmd_sweep_labels)

    p = sub.add_parser("diagnose", help="density class and reachable ratios")
    _add_dataset_flags(p)
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("gen-synthetic", help="write a synthetic dataset to disk")
    _add_dataset_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("graph-level", help="graph-level detection pipeline")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mode", choices=PARADIGMS, default="dgi")
    p.add_argument("--downsample-class", type=int, required=True)
    p.add_argument("--keep-fraction", type=float, default=0.10)
    p.add_argument("--train-ratio", type=float)
    _add_model_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_graph_level)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
