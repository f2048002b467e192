"""Reproducible multi-trial experiments, grid search and protocol sweeps.

Trial t runs with seed base_seed + t; every artifact under the output
directory is a pure function of (config, base seed), so reruns are
bit-identical (wall time is kept in memory only, never persisted).
Layout: <out>/<config-hash>/trial_<t>/{scores.csv, losses.csv,
reachability.json, metrics.json} plus <out>/<config-hash>/aggregate.json.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
import hashlib
import itertools
import json
import os
import time
import warnings

import numpy as np

from .data import (SyntheticSpec, generate_synthetic, load_dataset,
                   make_full_split, make_semi_split)
from .detector import end2end_run, finetune_run, save_scores, score_nodes
from .diagnostics import k_hop_reachable_ratio
from .encoders import EncoderConfig
from .graph import UNREACHABLE
from .metrics import auprc, auroc, hop_avg_rank, normalized_ranks
from .pretrain import pretrain_run, save_loss_curve

PARADIGMS = ("dgi", "graphmae", "end2end")

GRID_FIELDS = ("lr", "hidden_dim", "num_layers", "activation", "encoder_kind",
               "epochs", "pretrain_epochs", "shuffle_ratio", "mask_ratio",
               "sce_gamma")

# declared search space; grids usually draw from here but may override
DEFAULT_SEARCH_SPACE = {
    "lr": [0.01, 0.005, 0.001],
    "hidden_dim": [32, 64],
    "num_layers": [1, 2, 3],
    "activation": ["relu", "leaky_relu", "tanh"],
    "epochs": list(range(100, 1001, 100)),
    "encoder_kind": ["gcn", "gin"],
}


def default_activation(paradigm):
    """The encoder activation when none is set: PReLU for DGI, else ReLU."""
    return "prelu" if paradigm == "dgi" else "relu"


@dataclass(frozen=True)
class SplitRegime:
    regime: str = "semi"  # "semi" | "full"
    n_anom: int = 20
    n_norm: int = 80
    train_ratio: float = 0.4

    def __post_init__(self):
        if self.regime not in ("semi", "full"):
            raise ValueError("regime must be 'semi' or 'full'")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: object  # SyntheticSpec or DatasetPaths
    paradigm: str = "dgi"
    encoder_kind: str = "gcn"
    hidden_dim: int = 32
    num_layers: int = 2
    activation: str | None = None  # None resolves to prelu for DGI, else relu
    lr: float = 0.005
    epochs: int = 200
    pretrain_epochs: int = 200
    shuffle_ratio: float = 1.0
    mask_ratio: float = 0.5
    sce_gamma: float = 2.0
    split: SplitRegime = field(default_factory=SplitRegime)
    trials: int = 10
    base_seed: int = 0
    k_hops: int = 3
    out_dir: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"paradigm must be one of {PARADIGMS}")
        if self.trials < 1:
            raise ValueError("need at least one trial")

    def resolved_activation(self):
        if self.activation is not None:
            return self.activation
        return default_activation(self.paradigm)

    def canonical(self):
        """Plain dict capturing everything that affects results.

        out_dir and workers are execution details and excluded, so the
        config hash is stable across machines and output locations.
        """
        if isinstance(self.dataset, SyntheticSpec):
            ds = {"synthetic": {
                "num_nodes": self.dataset.num_nodes,
                "block_sizes": list(self.dataset.resolved_blocks()),
                "intra_p": self.dataset.intra_p,
                "inter_p": self.dataset.inter_p,
                "anomaly_fraction": self.dataset.anomaly_fraction,
                "feature_dim": self.dataset.feature_dim,
                "feature_noise": self.dataset.feature_noise,
                "feature_shift": self.dataset.feature_shift,
                "block_feature_gap": self.dataset.block_feature_gap,
                "clique_size": self.dataset.clique_size,
                "structural_fraction": self.dataset.structural_fraction,
                "contextual": self.dataset.contextual,
                "structural": self.dataset.structural,
                "seed": self.dataset.seed,
            }}
        else:
            ds = {"paths": {"edges": self.dataset.edges,
                            "features": self.dataset.features,
                            "labels": self.dataset.labels}}
        return {
            "dataset": ds,
            "paradigm": self.paradigm,
            "encoder_kind": self.encoder_kind,
            "hidden_dim": self.hidden_dim,
            "num_layers": self.num_layers,
            "activation": self.resolved_activation(),
            "lr": self.lr,
            "epochs": self.epochs,
            "pretrain_epochs": self.pretrain_epochs,
            "shuffle_ratio": self.shuffle_ratio,
            "mask_ratio": self.mask_ratio,
            "sce_gamma": self.sce_gamma,
            "split": {"regime": self.split.regime, "n_anom": self.split.n_anom,
                      "n_norm": self.split.n_norm,
                      "train_ratio": self.split.train_ratio},
            "trials": self.trials,
            "base_seed": self.base_seed,
            "k_hops": self.k_hops,
        }

    def config_hash(self):
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_config_graph(config):
    if isinstance(config.dataset, SyntheticSpec):
        return generate_synthetic(config.dataset)
    return load_dataset(config.dataset.edges, config.dataset.features,
                        config.dataset.labels)


def _make_split(graph, config, seed):
    if config.split.regime == "semi":
        return make_semi_split(graph, n_anom=config.split.n_anom,
                               n_norm=config.split.n_norm, seed=seed)
    return make_full_split(graph, config.split.train_ratio, seed=seed)


def _encoder_config(graph, config):
    return EncoderConfig(kind=config.encoder_kind,
                         input_dim=graph.features.shape[1],
                         hidden_dim=config.hidden_dim,
                         num_layers=config.num_layers,
                         activation=config.resolved_activation())


def _train_models(graph, config, split, seed):
    """Returns (encoder, classifier, losses, val_auprc, val_scores)."""
    enc_config = _encoder_config(graph, config)
    if config.paradigm == "end2end":
        r = end2end_run(enc_config, graph, split, epochs=config.epochs,
                        lr=config.lr, seed=seed)
        return r.encoder, r.classifier, r.losses, r.val_auprc, r.val_scores
    pre = pretrain_run(graph, enc_config, config.paradigm,
                       epochs=config.pretrain_epochs, lr=config.lr, seed=seed,
                       shuffle_ratio=config.shuffle_ratio,
                       mask_ratio=config.mask_ratio, gamma=config.sce_gamma)
    ft = finetune_run(pre.encoder, graph, split, epochs=config.epochs,
                      lr=config.lr, seed=seed)
    return pre.encoder, ft.classifier, pre.losses, ft.val_auprc, ft.val_scores


@dataclass
class TrialResult:
    seed: int
    auroc: float
    auprc: float
    val_auroc: float
    val_auprc: float
    hop_ranks: dict
    far_rank: float | None
    reachability: object  # ReachabilityReport or None
    losses: list
    scores: object  # ScoreVector over test nodes
    wall_time: float
    config_hash: str

    def metrics_dict(self):
        """Deterministic summary (wall time deliberately excluded)."""
        out = {
            "seed": self.seed,
            "auroc": self.auroc,
            "auprc": self.auprc,
            "val_auroc": self.val_auroc,
            "val_auprc": self.val_auprc,
            "hop_ranks": self.hop_ranks,
            "config_hash": self.config_hash,
        }
        if self.far_rank is not None:
            out["far_rank"] = self.far_rank
        if self.reachability is not None:
            out["R"] = list(self.reachability.ratios)
        return out


def run_trial(graph, config, seed):
    started = time.perf_counter()
    split = _make_split(graph, config, seed)
    encoder, clf, losses, val_auprc, val_scores = _train_models(
        graph, config, split, seed)

    test_nodes = split.test
    sv = score_nodes(encoder, clf, graph, test_nodes)
    y_test = (graph.labels[test_nodes] == 1).astype(np.int64)
    val_y = (graph.labels[val_scores.nodes] == 1).astype(np.int64)

    report = None
    hop_ranks = {}
    far_rank = None
    anomaly_pos = np.flatnonzero(y_test == 1)
    if anomaly_pos.size:
        report = k_hop_reachable_ratio(graph, split.train_anomalies,
                                       test_nodes[anomaly_pos],
                                       k_max=config.k_hops)
        hop_of = {int(pos): int(h) for pos, h in zip(anomaly_pos, report.hops)}
        hop_ranks = hop_avg_rank(sv.scores, hop_of)
        norm = normalized_ranks(sv.scores)
        far = [norm[pos] for pos, h in hop_of.items()
               if h == UNREACHABLE or h >= 3]
        if far:
            far_rank = float(np.mean(far))

    return TrialResult(
        seed=seed,
        auroc=auroc(sv.scores, y_test),
        auprc=auprc(sv.scores, y_test),
        val_auroc=auroc(val_scores.scores, val_y),
        val_auprc=val_auprc,
        hop_ranks=hop_ranks,
        far_rank=far_rank,
        reachability=report,
        losses=losses,
        scores=sv,
        wall_time=time.perf_counter() - started,
        config_hash=config.config_hash(),
    )


def _mean_std(values):
    arr = np.asarray(values, dtype=np.float64)
    return {"mean": float(arr.mean()), "std": float(arr.std())}


def aggregate_trials(results):
    """Mean/std of each metric over the completed trials."""
    agg = {}
    for key in ("auroc", "auprc", "val_auroc", "val_auprc"):
        agg[key] = _mean_std([getattr(r, key) for r in results])
    far = [r.far_rank for r in results if r.far_rank is not None]
    if far:
        agg["far_rank"] = _mean_std(far)
    with_r = [r for r in results if r.reachability is not None]
    if with_r:
        k_max = len(with_r[0].reachability.ratios)
        for k in range(1, k_max + 1):
            agg[f"r{k}"] = _mean_std([r.reachability.ratios[k - 1] for r in with_r])
    buckets = sorted({b for r in results for b in r.hop_ranks})
    if buckets:
        agg["hop_ranks"] = {
            b: _mean_std([r.hop_ranks[b] for r in results if b in r.hop_ranks])
            for b in buckets}
    return agg


def _atomic_write(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_trial(trial_dir, graph, result):
    os.makedirs(trial_dir, exist_ok=True)
    # write-then-rename so readers never observe partial files
    scores_path = os.path.join(trial_dir, "scores.csv")
    save_scores(result.scores, graph.labels, scores_path + ".tmp")
    os.replace(scores_path + ".tmp", scores_path)
    losses_path = os.path.join(trial_dir, "losses.csv")
    save_loss_curve(result.losses, losses_path + ".tmp")
    os.replace(losses_path + ".tmp", losses_path)
    if result.reachability is not None:
        _atomic_write(os.path.join(trial_dir, "reachability.json"),
                      result.reachability.to_json())
    _atomic_write(os.path.join(trial_dir, "metrics.json"),
                  json.dumps(result.metrics_dict(), sort_keys=True))


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    trials: list
    failures: list
    aggregate: dict
    run_dir: str | None

    @property
    def ok(self):
        return not self.failures


def run_experiment(config):
    """Run all trials, aggregate, and persist artifacts under out_dir.

    A failing trial is recorded (not raised); aggregation then covers the
    completed trials only and a warning is emitted.
    """
    return _run_on_graph(load_config_graph(config), config)


def _run_on_graph(graph, config):
    """run_experiment on config's graph, already loaded by the caller."""
    # build the graph's operators on this thread: the trials only read them
    _ = graph.adjacency, graph.normalized_adjacency

    def one(t):
        return run_trial(graph, config, config.base_seed + t)

    results, failures = [], []
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(one, t) for t in range(config.trials)]
            outcomes = []
            for t, fut in enumerate(futures):
                try:
                    outcomes.append((t, fut.result(), None))
                except Exception as exc:  # noqa: BLE001 - reported per trial
                    outcomes.append((t, None, exc))
    else:
        outcomes = []
        for t in range(config.trials):
            try:
                outcomes.append((t, one(t), None))
            except Exception as exc:  # noqa: BLE001 - reported per trial
                outcomes.append((t, None, exc))

    for t, res, exc in outcomes:
        if exc is not None:
            failures.append({"trial": t, "error": f"{type(exc).__name__}: {exc}"})
        else:
            results.append(res)

    if failures:
        warnings.warn(f"{len(failures)} of {config.trials} trials failed; "
                      "aggregate covers completed trials only")
    if not results:
        raise RuntimeError(f"all trials failed: {failures}")

    aggregate = {
        "config": config.canonical(),
        "config_hash": config.config_hash(),
        "n_trials": config.trials,
        "n_completed": len(results),
        "failures": failures,
        "metrics": aggregate_trials(results),
    }

    run_dir = None
    if config.out_dir:
        run_dir = os.path.join(config.out_dir, config.config_hash())
        os.makedirs(run_dir, exist_ok=True)
        for t, res, exc in outcomes:
            if exc is None:
                _write_trial(os.path.join(run_dir, f"trial_{t}"), graph, res)
        _atomic_write(os.path.join(run_dir, "aggregate.json"),
                      json.dumps(aggregate, sort_keys=True, indent=1))

    return ExperimentResult(config=config, trials=results, failures=failures,
                            aggregate=aggregate, run_dir=run_dir)


def _validation_only(graph, config, seed):
    """Train at one seed and report validation metrics; never touches test."""
    split = _make_split(graph, config, seed)
    _, _, _, val_auprc, val_scores = _train_models(graph, config, split, seed)
    val_y = (graph.labels[val_scores.nodes] == 1).astype(np.int64)
    return val_auprc, auroc(val_scores.scores, val_y)


@dataclass
class GridSearchResult:
    best_config: ExperimentConfig
    best_index: int
    rows: list  # one dict per grid point, validation metrics only
    experiment: ExperimentResult


def grid_search(config, grid):
    """Exhaustive search selecting by mean validation AUPRC.

    Ties break on higher validation AUROC, then smaller hidden dimension,
    fewer layers, and finally declaration order. Test metrics are computed
    only for the winning configuration, by a fresh experiment on the same
    graph.
    """
    if not grid:
        raise ValueError("grid is empty")
    for key in grid:
        if key not in GRID_FIELDS:
            raise ValueError(f"cannot search over {key!r}; allowed: {GRID_FIELDS}")
    keys = list(grid)
    combos = list(itertools.product(*(grid[k] for k in keys)))

    graph = load_config_graph(config)
    rows = []
    for index, combo in enumerate(combos):
        cfg = replace(config, **dict(zip(keys, combo)))
        vals = [_validation_only(graph, cfg, cfg.base_seed + t)
                for t in range(cfg.trials)]
        row = dict(zip(keys, combo))
        row["index"] = index
        row["val_auprc"] = float(np.mean([v[0] for v in vals]))
        row["val_auroc"] = float(np.mean([v[1] for v in vals]))
        row["hidden_dim"] = cfg.hidden_dim
        row["num_layers"] = cfg.num_layers
        rows.append(row)

    best = min(rows, key=lambda r: (-r["val_auprc"], -r["val_auroc"],
                                    r["hidden_dim"], r["num_layers"], r["index"]))
    best_config = replace(config, **{k: combos[best["index"]][i]
                                     for i, k in enumerate(keys)})
    experiment = _run_on_graph(graph, best_config)

    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        header = keys + ["val_auprc", "val_auroc"]
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(repr(row[k]) if isinstance(row[k], float)
                                  else str(row[k]) for k in header))
        _atomic_write(os.path.join(config.out_dir, "grid.csv"),
                      "\n".join(lines) + "\n")
        trace = {"selection_key": ["val_auprc", "val_auroc", "hidden_dim",
                                   "num_layers", "declaration_order"],
                 "rows": rows, "selected_index": best["index"]}
        _atomic_write(os.path.join(config.out_dir, "selection_trace.json"),
                      json.dumps(trace, sort_keys=True, indent=1))

    return GridSearchResult(best_config=best_config, best_index=best["index"],
                            rows=rows, experiment=experiment)


def ablation_shuffle_ratio(config, ratios, csv_path=None):
    """One full experiment per DGI corruption ratio, sharing the seed schedule.

    Returns (rows, results): rows are (ratio, mean test AUROC) and results
    the underlying ExperimentResult per ratio.
    """
    if config.paradigm != "dgi":
        raise ValueError("the shuffle-ratio ablation applies to the dgi paradigm")
    for r in ratios:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"shuffle ratio {r} outside [0, 1]")
    graph = load_config_graph(config)
    rows, results = [], []
    for r in ratios:
        res = _run_on_graph(graph, replace(config, shuffle_ratio=float(r)))
        rows.append((float(r), res.aggregate["metrics"]["auroc"]["mean"]))
        results.append(res)
    if csv_path is None and config.out_dir:
        csv_path = os.path.join(config.out_dir, "ablation_shuffle.csv")
    if csv_path:
        lines = ["shuffle_ratio,mean_auroc"]
        lines += [f"{ratio!r},{score!r}" for ratio, score in rows]
        _atomic_write(csv_path, "\n".join(lines) + "\n")
    return rows, results


def sweep_labeled_anomalies(config, counts, csv_path=None):
    """Semi splits with n_anom swept over counts; reports AUROC and R_2.

    Returns (rows, results) with rows (count, mean test AUROC, mean R_2).
    """
    if config.split.regime != "semi":
        raise ValueError("the labeled-anomaly sweep requires the semi regime")
    graph = load_config_graph(config)
    available = int((graph.labels == 1).sum())
    rows, results = [], []
    for count in counts:
        # train + disjoint validation anomalies, plus at least one for test
        if count + 20 + 1 > available:
            raise ValueError(f"count {count} exceeds available anomalies "
                             f"({available} total, 20 reserved for validation)")
        cfg = replace(config, split=replace(config.split, n_anom=int(count)))
        res = _run_on_graph(graph, cfg)
        r2 = res.aggregate["metrics"].get("r2", {}).get("mean")
        rows.append((int(count), res.aggregate["metrics"]["auroc"]["mean"], r2))
        results.append(res)
    if csv_path is None and config.out_dir:
        csv_path = os.path.join(config.out_dir, "sweep_labels.csv")
    if csv_path:
        lines = ["n_labeled_anomalies,mean_auroc,mean_r2"]
        lines += [f"{c},{a!r},{r2!r}" for c, a, r2 in rows]
        _atomic_write(csv_path, "\n".join(lines) + "\n")
    return rows, results
