"""Reproducible multi-trial experiments, grid search and protocol sweeps.

Trial t runs with seed base_seed + t; every artifact under the output
directory is a pure function of (config, base seed), so reruns are
bit-identical (wall time is kept in memory only, never persisted).
Layout: <out>/<config-hash>/trial_<t>/{scores.csv, losses.csv,
reachability.json, metrics.json} plus <out>/<config-hash>/aggregate.json;
a trial that raised leaves only trial_<t>/error.txt, its traceback.
A trial measures its split's R_k (split_reachability) before it trains, so
a split with no test anomaly or a k_hops below 1 fails the trial at once;
it then scores its test nodes with its fitted detector (FitResult.scores).

A run, an ablation, a sweep and a grid's validation trials each hand one
list of configs to one trial map (a grid's winner then runs as a run). With
workers > 1 every trial of the list shares one pool of that many threads;
with one, they run in order on the calling thread. Either way numpy's
OpenBLAS is held to one thread while the trials run and restored afterwards,
so trial threads and BLAS threads do not compete for the cores, and the
worker count changes no result bit. Files are written config by config once
every trial of the list has run; a config whose trials all failed raises
RuntimeError after those before it are written.
"""

from concurrent.futures import ThreadPoolExecutor
import contextlib
from dataclasses import asdict, dataclass, field, replace
import hashlib
import itertools
import json
import os
import time
import traceback
import warnings

import numpy as np

from ._blas import keep_heap, single_threaded
from .autodiff import EPOCHS, LR
from .data import (SEMI_ANOMALIES, SEMI_NORMALS, SyntheticSpec,
                   generate_synthetic, load_dataset, make_full_split,
                   make_semi_split)
from .detector import end2end_run, finetune_run, save_scores
from .diagnostics import K_MAX, k_hop_reachable_ratio
from .encoders import EncoderConfig
from .graph import UNREACHABLE
from .metrics import auprc, auroc, hop_avg_rank, normalized_ranks
from .pretrain import (MASK_RATIO, SCE_GAMMA, SHUFFLE_RATIO, pretrain_run,
                       save_loss_curve)

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
    n_anom: int = SEMI_ANOMALIES
    n_norm: int = SEMI_NORMALS
    train_ratio: float = 0.4

    def __post_init__(self):
        if self.regime not in ("semi", "full"):
            raise ValueError("regime must be 'semi' or 'full'")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: object  # SyntheticSpec or DatasetPaths
    paradigm: str = "dgi"
    encoder_kind: str = "gcn"
    hidden_dim: int = EncoderConfig.hidden_dim
    num_layers: int = EncoderConfig.num_layers
    activation: str | None = None  # None resolves to prelu for DGI, else relu
    lr: float = LR
    epochs: int = EPOCHS
    pretrain_epochs: int = EPOCHS
    shuffle_ratio: float = SHUFFLE_RATIO
    mask_ratio: float = MASK_RATIO
    sce_gamma: float = SCE_GAMMA
    split: SplitRegime = field(default_factory=SplitRegime)
    trials: int = 10
    base_seed: int = 0
    k_hops: int = K_MAX
    out_dir: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"paradigm must be one of {PARADIGMS}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")

    def resolved_activation(self):
        if self.activation is not None:
            return self.activation
        return default_activation(self.paradigm)

    def canonical(self):
        """Plain dict of every field but out_dir and workers, execution
        details left out so the hash is stable across machines and output
        locations; the activation and a synthetic spec's blocks (block_sizes
        for num_blocks) are resolved, the dataset is keyed by its kind."""
        out = asdict(self)
        del out["out_dir"], out["workers"]
        out["activation"] = self.resolved_activation()
        ds = out["dataset"]
        if isinstance(self.dataset, SyntheticSpec):
            del ds["num_blocks"]
            ds["block_sizes"] = list(self.dataset.resolved_blocks())
            out["dataset"] = {"synthetic": ds}
        else:
            out["dataset"] = {"paths": ds}
        return out

    def config_hash(self):
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_config_graph(config):
    if isinstance(config.dataset, SyntheticSpec):
        return generate_synthetic(config.dataset)
    return load_dataset(config.dataset.edges, config.dataset.features,
                        config.dataset.labels)


def make_split(graph, config, seed):
    """The split of config's trial at seed (trial t's seed is base_seed + t)."""
    if config.split.regime == "semi":
        return make_semi_split(graph, n_anom=config.split.n_anom,
                               n_norm=config.split.n_norm, seed=seed)
    return make_full_split(graph, config.split.train_ratio, seed=seed)


def split_reachability(graph, config, split):
    """R_1..R_{k_hops} of split's training anomalies against its test
    anomalies (in test order); raises ValueError when either set is empty."""
    test_anomalies = split.test[graph.labels[split.test] == 1]
    return k_hop_reachable_ratio(graph, split.train_anomalies, test_anomalies,
                                 k_max=config.k_hops)


def _train_models(graph, config, split, seed):
    """Returns (fit, losses): the FitResult and the encoder's loss curve."""
    enc_config = EncoderConfig(
        kind=config.encoder_kind, input_dim=graph.features.shape[1],
        hidden_dim=config.hidden_dim, num_layers=config.num_layers,
        activation=config.resolved_activation())
    if config.paradigm == "end2end":
        fit = end2end_run(enc_config, graph, split, epochs=config.epochs,
                          lr=config.lr, seed=seed)
        return fit, fit.losses
    pre = pretrain_run(graph, enc_config, config.paradigm,
                       epochs=config.pretrain_epochs, lr=config.lr, seed=seed,
                       shuffle_ratio=config.shuffle_ratio,
                       mask_ratio=config.mask_ratio, gamma=config.sce_gamma)
    fit = finetune_run(pre.encoder, graph, split, epochs=config.epochs,
                       lr=config.lr, seed=seed)
    return fit, pre.losses


def _val_auroc(graph, fit):
    val = fit.val_scores
    return auroc(val.scores, (graph.labels[val.nodes] == 1).astype(np.int64))


@dataclass
class TrialResult:
    seed: int
    auroc: float
    auprc: float
    val_auroc: float
    val_auprc: float
    hop_ranks: dict
    far_rank: float | None
    reachability: object  # ReachabilityReport
    losses: list
    scores: object  # ScoreVector over test nodes
    wall_time: float
    config_hash: str

    def metrics_dict(self):
        """Deterministic summary (wall time deliberately excluded)."""
        out = {k: getattr(self, k) for k in ("seed", "auroc", "auprc", "val_auroc",
                                             "val_auprc", "hop_ranks", "config_hash")}
        if self.far_rank is not None:
            out["far_rank"] = self.far_rank
        out["R"] = list(self.reachability.ratios)
        return out


def run_trial(graph, config, seed):
    started = time.perf_counter()
    split = make_split(graph, config, seed)
    report = split_reachability(graph, config, split)
    fit, losses = _train_models(graph, config, split, seed)

    sv = fit.scores(split.test)
    y_test = (graph.labels[split.test] == 1).astype(np.int64)
    # the i-th test anomaly is report's i-th unlabeled anomaly
    hop_of = dict(zip(np.flatnonzero(y_test).tolist(), report.hops.tolist()))
    norm = normalized_ranks(sv.scores)
    far = [norm[pos] for pos, h in hop_of.items() if h == UNREACHABLE or h >= 3]

    return TrialResult(
        seed=seed,
        auroc=auroc(sv.scores, y_test),
        auprc=auprc(sv.scores, y_test),
        val_auroc=_val_auroc(graph, fit),
        val_auprc=fit.val_auprc,
        hop_ranks=hop_avg_rank(sv.scores, hop_of),
        far_rank=float(np.mean(far)) if far else None,
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
    for k in range(1, len(results[0].reachability.ratios) + 1):
        agg[f"r{k}"] = _mean_std([r.reachability.ratios[k - 1] for r in results])
    agg["hop_ranks"] = {
        b: _mean_std([r.hop_ranks[b] for r in results if b in r.hop_ranks])
        for b in sorted({b for r in results for b in r.hop_ranks})}
    return agg


def _atomic_write(path, text):
    with open(path + ".tmp", "w") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)


def _write_csv(config, name, header, rows):
    """rows under header, to out_dir/name when out_dir is set, else nowhere;
    a float cell is its repr, any other cell its str."""
    if config.out_dir:
        lines = [",".join(header)]
        lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
                  for row in rows]
        _atomic_write(os.path.join(config.out_dir, name), "\n".join(lines) + "\n")


_RESULT_FILES = ("scores.csv", "losses.csv", "reachability.json", "metrics.json")


def _write_outcome(trial_dir, graph, result, exc):
    """The trial's result files, or error.txt alone when it raised (exc).

    The other set goes first, so a rerun never leaves an earlier success's
    results beside a new error, nor an earlier error beside new results.
    """
    os.makedirs(trial_dir, exist_ok=True)
    for name in ("error.txt",) if exc is None else _RESULT_FILES:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(trial_dir, name))
    if exc is not None:
        _atomic_write(os.path.join(trial_dir, "error.txt"),
                      "".join(traceback.format_exception(exc)))
        return
    # write-then-rename so readers never observe partial files
    scores_path = os.path.join(trial_dir, "scores.csv")
    save_scores(result.scores, graph.labels, scores_path + ".tmp")
    os.replace(scores_path + ".tmp", scores_path)
    losses_path = os.path.join(trial_dir, "losses.csv")
    save_loss_curve(result.losses, losses_path + ".tmp")
    os.replace(losses_path + ".tmp", losses_path)
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
    return _run_on_graph(load_config_graph(config), [config])[0]


def _map_trials(fn, graph, configs):
    """Per config, [(t, fn(graph, config, seed), None) or (t, None, exception)]
    over its trials t, where seed is config.base_seed + t.

    The graph's operators are built here, so the trials only read them. All
    trials run inline with one worker, else on one pool of that many threads.
    BLAS is held to one thread either way: with more, OpenBLAS splits the
    long inner dimension of the weight-gradient products over its threads,
    which changes their last bits, so trials would depend on the worker
    count (and on the machine's cores). Inline trials keep the heap mapped
    (_blas.keep_heap); trial threads' heaps would each keep their own peak.
    """
    _ = graph.adjacency, graph.normalized_adjacency

    def attempt(job):
        config, t = job
        try:
            return t, fn(graph, config, config.base_seed + t), None
        except Exception as exc:  # noqa: BLE001 - reported per trial
            return t, None, exc

    jobs = [(config, t) for config in configs for t in range(config.trials)]
    with single_threaded():
        if configs[0].workers == 1:
            keep_heap()
            outcomes = [attempt(job) for job in jobs]
        else:
            with ThreadPoolExecutor(max_workers=configs[0].workers) as pool:
                outcomes = list(pool.map(attempt, jobs))
    rest = iter(outcomes)
    return [list(itertools.islice(rest, config.trials)) for config in configs]


def _run_on_graph(graph, configs):
    """run_experiment per config, on their graph, already loaded by the caller."""
    return [_record(graph, config, outcomes) for config, outcomes
            in zip(configs, _map_trials(run_trial, graph, configs))]


def _record(graph, config, outcomes):
    """config's ExperimentResult from its trial outcomes, files written."""
    results = [res for _, res, exc in outcomes if exc is None]
    failures = [{"trial": t, "error": f"{type(exc).__name__}: {exc}"}
                for t, _, exc in outcomes if exc is not None]

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
            _write_outcome(os.path.join(run_dir, f"trial_{t}"), graph, res, exc)
        _atomic_write(os.path.join(run_dir, "aggregate.json"),
                      json.dumps(aggregate, sort_keys=True, indent=1))

    return ExperimentResult(config=config, trials=results, failures=failures,
                            aggregate=aggregate, run_dir=run_dir)


def _validation_only(graph, config, seed):
    """Train at one seed and report validation metrics; never touches test."""
    split = make_split(graph, config, seed)
    fit, _ = _train_models(graph, config, split, seed)
    return fit.val_auprc, _val_auroc(graph, fit)


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
    configs = [replace(config, **dict(zip(keys, combo))) for combo in combos]
    outcomes = _map_trials(_validation_only, graph, configs)
    rows = []
    for index, (combo, cfg, trials) in enumerate(zip(combos, configs, outcomes)):
        for _, _, exc in trials:
            if exc is not None:
                raise exc
        rows.append({**dict(zip(keys, combo)), "index": index,
                     "val_auprc": float(np.mean([res[0] for _, res, _ in trials])),
                     "val_auroc": float(np.mean([res[1] for _, res, _ in trials])),
                     "hidden_dim": cfg.hidden_dim, "num_layers": cfg.num_layers})

    best = min(rows, key=lambda r: (-r["val_auprc"], -r["val_auroc"],
                                    r["hidden_dim"], r["num_layers"], r["index"]))
    best_config = configs[best["index"]]
    experiment = _run_on_graph(graph, [best_config])[0]

    header = keys + ["val_auprc", "val_auroc"]
    _write_csv(config, "grid.csv", header,
               [[row[k] for k in header] for row in rows])
    if config.out_dir:
        trace = {"selection_key": ["val_auprc", "val_auroc", "hidden_dim",
                                   "num_layers", "declaration_order"],
                 "rows": rows, "selected_index": best["index"]}
        _atomic_write(os.path.join(config.out_dir, "selection_trace.json"),
                      json.dumps(trace, sort_keys=True, indent=1))

    return GridSearchResult(best_config=best_config, best_index=best["index"],
                            rows=rows, experiment=experiment)


def ablation_shuffle_ratio(config, ratios):
    """One full experiment per DGI corruption ratio, sharing the seed schedule.

    Returns (rows, results): rows are (ratio, mean test AUROC) and results
    the underlying ExperimentResult per ratio.
    """
    if config.paradigm != "dgi":
        raise ValueError("the shuffle-ratio ablation applies to the dgi paradigm")
    ratios = [float(r) for r in ratios]
    if not ratios:
        raise ValueError("no shuffle ratios given")
    for r in ratios:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"shuffle ratio {r} outside [0, 1]")
    results = _run_on_graph(load_config_graph(config),
                            [replace(config, shuffle_ratio=r) for r in ratios])
    rows = [(r, res.aggregate["metrics"]["auroc"]["mean"])
            for r, res in zip(ratios, results)]
    _write_csv(config, "ablation_shuffle.csv", ["shuffle_ratio", "mean_auroc"], rows)
    return rows, results


def sweep_labeled_anomalies(config, counts):
    """Semi splits with n_anom swept over counts; reports AUROC and R_2.

    Returns (rows, results) with rows (count, mean test AUROC, mean R_2).
    """
    if config.split.regime != "semi":
        raise ValueError("the labeled-anomaly sweep requires the semi regime")
    counts = [int(count) for count in counts]
    if not counts:
        raise ValueError("no labeled-anomaly counts given")
    graph = load_config_graph(config)
    available = int((graph.labels == 1).sum())
    for count in counts:
        # train + disjoint validation anomalies, plus at least one for test
        if count + SEMI_ANOMALIES + 1 > available:
            raise ValueError(f"count {count} exceeds available anomalies "
                             f"({available} total, {SEMI_ANOMALIES} reserved "
                             "for validation)")
    configs = [replace(config, split=replace(config.split, n_anom=c)) for c in counts]
    results = _run_on_graph(graph, configs)
    rows = [(c, res.aggregate["metrics"]["auroc"]["mean"],
             res.aggregate["metrics"].get("r2", {}).get("mean"))
            for c, res in zip(counts, results)]
    _write_csv(config, "sweep_labels.csv",
               ["n_labeled_anomalies", "mean_auroc", "mean_r2"], rows)
    return rows, results
