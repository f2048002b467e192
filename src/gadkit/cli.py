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

from .autodiff import ACTIVATIONS
from .data import DatasetPaths, SyntheticSpec, generate_synthetic, save_dataset
from .diagnostics import classify_density
from .encoders import ENCODER_KINDS
from .experiment import (PARADIGMS, ExperimentConfig, SplitRegime,
                         ablation_shuffle_ratio, config_from_dict, grid_search,
                         load_config_graph, plan_trial, run_experiment,
                         sweep_labeled_anomalies)
from .graph import graph_stats
from .graphlevel import downsample_class, graphlevel_pipeline, load_collection


# Each flag stores under the name of the field it sets, None when not given,
# and only given flags reach the dataclass. Synthetic flag -> field:
SYNTHETIC_FLAGS = {
    "--nodes": "num_nodes", "--blocks": "num_blocks", "--intra-p": "intra_p",
    "--inter-p": "inter_p", "--anomaly-fraction": "anomaly_fraction",
    "--feature-dim": "feature_dim", "--feature-shift": "feature_shift",
    "--feature-noise": "feature_noise", "--block-gap": "block_feature_gap",
    "--structural-fraction": "structural_fraction",
    "--clique-size": "clique_size", "--no-contextual": "contextual",
    "--no-structural": "structural", "--data-seed": "seed"}


def _add_dataset_flags(p):
    p.add_argument("--edges", help="edge list file (u v per line)")
    p.add_argument("--features", help="feature CSV, one row per node")
    p.add_argument("--labels", help="label file (0/1/? per line)")
    p.add_argument("--synthetic", action="store_true",
                   help="generate the synthetic benchmark instead of loading files")
    types = {f.name: f.type for f in dataclasses.fields(SyntheticSpec)}
    for flag, field in SYNTHETIC_FLAGS.items():
        if types[field] is bool:
            p.add_argument(flag, dest=field, action="store_false", default=None)
        else:
            p.add_argument(flag, dest=field, type=types[field])


def _add_model_flags(p):
    """Encoder and training flags, stored under ExperimentConfig's names."""
    p.add_argument("--backbone", dest="encoder_kind", choices=ENCODER_KINDS)
    p.add_argument("--hidden", dest="hidden_dim", type=int)
    p.add_argument("--layers", dest="num_layers", type=int)
    p.add_argument("--activation", choices=ACTIVATIONS)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--pretrain-epochs", type=int)
    p.add_argument("--shuffle-ratio", type=float)
    p.add_argument("--mask-ratio", type=float)
    p.add_argument("--gamma", dest="sce_gamma", type=float)


def _given(args, names):
    """{name: value} for each flag stored under one of names that was given;
    names may be a dataclass, for all its fields."""
    if dataclasses.is_dataclass(names):
        names = [f.name for f in dataclasses.fields(names)]
    return {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}


def _add_experiment_flags(p):
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--paradigm", choices=PARADIGMS)
    _add_model_flags(p)
    p.add_argument("--split-regime", dest="regime", choices=("semi", "full"))
    p.add_argument("--n-anom", type=int)
    p.add_argument("--n-norm", type=int)
    p.add_argument("--train-ratio", type=float)
    p.add_argument("--k-hops", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", dest="base_seed", type=int)
    p.add_argument("--out", dest="out_dir", help="output directory (default: runs)")


def _dataset_from_args(args, base=None):
    """The flags' dataset over base, a config's dataset (None without one); the
    synthetic flags override only their own fields of a synthetic dataset."""
    if args.synthetic or (isinstance(base, SyntheticSpec) and not args.edges):
        spec = base if isinstance(base, SyntheticSpec) else SyntheticSpec()
        return dataclasses.replace(spec, **_given(args, SyntheticSpec))
    if _given(args, SyntheticSpec) or not (args.features if args.edges else base):
        raise SystemExit("a dataset is required (--synthetic, --edges/--features or "
                         "--config), and the synthetic flags need a synthetic one")
    return DatasetPaths(args.edges, args.features, args.labels) if args.edges else base


def _config_from_args(args):
    base = ExperimentConfig(dataset=None, out_dir="runs")  # dataset from flags
    if args.config:
        with open(args.config) as fh:
            base = config_from_dict({"out_dir": "runs", **json.load(fh)})
    split = dataclasses.replace(base.split, **_given(args, SplitRegime))
    return dataclasses.replace(base, dataset=_dataset_from_args(args, base.dataset),
                               split=split, **_given(args, ExperimentConfig))


def _print_aggregate(result):
    print(json.dumps(result.aggregate, sort_keys=True, indent=1))
    if result.run_dir:
        print(f"artifacts: {result.run_dir}", file=sys.stderr)


def cmd_run(args):
    result = run_experiment(_config_from_args(args))
    _print_aggregate(result)
    return 0 if result.ok else 1


def cmd_grid(args):
    result = grid_search(_config_from_args(args), args.grid)
    print(json.dumps({"selected": result.best_config.canonical(),
                      "rows": result.rows}, sort_keys=True, indent=1))
    _print_aggregate(result.experiment)
    return 0 if result.experiment.ok else 1


def cmd_ablate_shuffle(args):
    rows, results = ablation_shuffle_ratio(_config_from_args(args), args.ratios)
    for ratio, score in rows:
        print(f"shuffle_ratio={ratio}: mean_auroc={score:.4f}")
    return 0 if all(r.ok for r in results) else 1


def cmd_sweep_labels(args):
    rows, results = sweep_labeled_anomalies(_config_from_args(args), args.counts)
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
    if (graph.labels == 1).any():  # trial 0's split, as run makes it
        report["reachability"] = plan_trial(graph, config, config.base_seed)[1].to_dict()
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
    config = ExperimentConfig(dataset=None, paradigm=args.mode,
                              **_given(args, ExperimentConfig))
    collection = load_collection(args.manifest)
    # keep_fraction and train_ratio are passed only when given, so the
    # defaults of downsample_class and graphlevel_pipeline apply to them
    collection = downsample_class(collection, args.downsample_class, seed=args.seed,
                                  **_given(args, ["keep_fraction"]))
    result = graphlevel_pipeline(
        collection, config.paradigm, config.encoder_config(collection.feature_dim),
        seed=args.seed, epochs=config.epochs, lr=config.lr,
        pretrain_epochs=config.pretrain_epochs, shuffle_ratio=config.shuffle_ratio,
        mask_ratio=config.mask_ratio, gamma=config.sce_gamma,
        **_given(args, ["train_ratio"]))
    print(json.dumps({"auroc": result.auroc, "auprc": result.auprc,
                      "val_auprc": result.val_auprc}, sort_keys=True, indent=1))
    return 0


def _comma_list(kind):
    """argparse type: a comma-separated list of kind; a bad item is a usage error."""
    def parse(text):
        return [kind(tok) for tok in text.split(",")]
    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _json_object(text):
    """argparse type: a JSON object; any other text is a usage error."""
    if not isinstance(value := json.loads(text), dict):
        raise ValueError(f"not a JSON object: {text}")
    return value


_json_object.__name__ = "JSON object"


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
    p.add_argument("--grid", required=True, type=_json_object,
                   help='JSON grid, e.g. {"lr": [0.01, 0.005], "num_layers": [1, 2]}')
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("ablate-shuffle", help="DGI corruption-ratio ablation")
    _add_dataset_flags(p)
    _add_experiment_flags(p)
    p.add_argument("--ratios", type=_comma_list(float), default="0.25,0.5,0.75,1.0")
    p.set_defaults(func=cmd_ablate_shuffle)

    p = sub.add_parser("sweep-labels", help="labeled-anomaly count sweep")
    _add_dataset_flags(p)
    _add_experiment_flags(p)
    p.add_argument("--counts", type=_comma_list(int), default="1,5,20")
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
    p.add_argument("--mode", choices=PARADIGMS, default=ExperimentConfig.paradigm)
    p.add_argument("--downsample-class", type=int, required=True)
    p.add_argument("--keep-fraction", type=float)
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
