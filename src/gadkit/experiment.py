"""Reproducible multi-trial experiments, grid search and protocol sweeps.

Trial t runs with seed base_seed + t; every artifact under the output
directory is a pure function of (config, base seed), so reruns are
bit-identical (wall time is kept in memory only, never persisted).
Layout: <out>/<config-hash>/trial_<t>/{scores.csv, losses.csv,
reachability.json, metrics.json} plus <out>/<config-hash>/aggregate.json;
a trial that raised leaves only trial_<t>/error.txt, its traceback.
A trial measures its split's R_k (split_reachability) before it trains, so
a split with no test anomaly, no test normal or a k_hops below 1 fails the
trial at once; it then scores its test nodes with its fitted detector
(FitResult.scores).

A run, an ablation, a sweep and a grid each hand one list of configs to one
trial map of run_trial (a grid records only its winner). With workers > 1
every trial of the list shares one pool of that many threads; with one,
they run in order on the calling thread. Either way numpy's
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

from ._blas import single_threaded
from .autodiff import EPOCHS, LR, check_epochs, check_lr, check_sce_gamma
from .data import (SEMI_ANOMALIES, SEMI_NORMALS, DatasetPaths, SyntheticSpec,
                   check_split_sizes, check_train_ratio, generate_synthetic,
                   load_dataset, make_full_split, make_semi_split, write_csv,
                   write_text)
from .detector import end2end_run, finetune_run, save_scores
from .diagnostics import K_MAX, k_hop_reachable_ratio
from .encoders import EncoderConfig
from .graph import UNREACHABLE
from .metrics import auprc, auroc, hop_avg_rank, normalized_ranks
from .pretrain import (MASK_RATIO, SCE_GAMMA, SHUFFLE_RATIO, check_mask_ratio,
                       check_shuffle_ratio, pretrain_run, save_loss_curve)

# the pre-training fields each paradigm reads; every paradigm reads GRID_FIELDS
PRETEXT_FIELDS = {"dgi": ("pretrain_epochs", "shuffle_ratio"),
                  "graphmae": ("pretrain_epochs", "mask_ratio", "sce_gamma"),
                  "end2end": ()}
PARADIGMS = tuple(PRETEXT_FIELDS)
GRID_FIELDS = ("lr", "hidden_dim", "num_layers", "activation", "encoder_kind", "epochs")

# the paper's declared search space; a grid names its own values
DEFAULT_SEARCH_SPACE = {
    "lr": [0.01, 0.005, 0.001],
    "hidden_dim": [32, 64],
    "num_layers": [1, 2, 3],
    "activation": ["relu", "leaky_relu", "tanh"],
    "epochs": list(range(100, 1001, 100)),
    "encoder_kind": ["gcn", "gin"],
}


@dataclass(frozen=True)
class SplitRegime:
    regime: str = "semi"  # "semi" | "full"
    n_anom: int = SEMI_ANOMALIES
    n_norm: int = SEMI_NORMALS
    train_ratio: float = 0.4

    def __post_init__(self):
        if self.regime not in ("semi", "full"):
            raise ValueError("regime must be 'semi' or 'full'")
        check_split_sizes(n_anom=self.n_anom, n_norm=self.n_norm)
        check_train_ratio(self.train_ratio)


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
        # each field is checked by the check of the code that reads it
        np.random.SeedSequence(self.base_seed)  # numpy's check, as default_rng's
        check_lr(self.lr)
        check_epochs(self.epochs)
        check_epochs(self.pretrain_epochs, "pretrain_epochs")
        check_shuffle_ratio(self.shuffle_ratio)
        check_mask_ratio(self.mask_ratio)
        check_sce_gamma(self.sce_gamma)
        self.encoder_config(1)  # EncoderConfig checks the encoder fields

    def resolved_activation(self):
        """The encoder activation; when none is set, PReLU for DGI, else ReLU."""
        if self.activation is not None:
            return self.activation
        return "prelu" if self.paradigm == "dgi" else "relu"

    def encoder_config(self, input_dim):
        """The EncoderConfig of this config's encoder over input_dim features."""
        return EncoderConfig(kind=self.encoder_kind, input_dim=input_dim,
                             hidden_dim=self.hidden_dim, num_layers=self.num_layers,
                             activation=self.resolved_activation())

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


def config_from_dict(d):
    """ExperimentConfig from a plain JSON-style dict, such as canonical()
    gives (config_from_dict(c.canonical()) has c's config_hash); without a
    "dataset" key the config's dataset is None."""
    d = dict(d)
    ds = d.pop("dataset", None)
    if ds is None:
        dataset = None
    elif "synthetic" in ds:
        dataset = SyntheticSpec(**{k: tuple(v) if k == "block_sizes" else v
                                   for k, v in ds["synthetic"].items()})
    elif "paths" in ds:
        dataset = DatasetPaths(**ds["paths"])
    else:
        raise ValueError("dataset must contain 'synthetic' or 'paths'")
    split = SplitRegime(**d.pop("split")) if "split" in d else SplitRegime()
    return ExperimentConfig(dataset=dataset, split=split, **d)


def load_config_graph(config):
    if isinstance(config.dataset, SyntheticSpec):
        return generate_synthetic(config.dataset)
    if not isinstance(config.dataset, DatasetPaths):
        raise ValueError("config has no dataset: set a SyntheticSpec or DatasetPaths, "
                         f"got {config.dataset!r}")
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
    anomalies (in test order); raises ValueError when either set is empty or
    the test set has no normal, whose AUROC would be undefined."""
    test_labels = graph.labels[split.test]
    if not (test_labels == 0).any():
        raise ValueError("test set has no normal node; its AUROC is undefined")
    return k_hop_reachable_ratio(graph, split.train_anomalies,
                                 split.test[test_labels == 1], k_max=config.k_hops)


def _train_models(graph, config, split, seed):
    """Returns (fit, losses): the FitResult and the encoder's loss curve."""
    enc_config = config.encoder_config(graph.features.shape[1])
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
    val = fit.val_scores
    # the i-th test anomaly is report's i-th unlabeled anomaly
    hop_of = dict(zip(np.flatnonzero(y_test).tolist(), report.hops.tolist()))
    norm = normalized_ranks(sv.scores)
    far = [norm[pos] for pos, h in hop_of.items() if h == UNREACHABLE or h >= 3]

    return TrialResult(
        seed=seed,
        auroc=auroc(sv.scores, y_test),
        auprc=auprc(sv.scores, y_test),
        val_auroc=auroc(val.scores, (graph.labels[val.nodes] == 1).astype(np.int64)),
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


def _write_csv(config, name, header, rows):
    """write_csv to out_dir/name when out_dir is set, else nowhere."""
    if config.out_dir:
        write_csv(os.path.join(config.out_dir, name), header, rows)


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
        write_text(os.path.join(trial_dir, "error.txt"),
                   "".join(traceback.format_exception(exc)))
        return
    save_scores(result.scores, graph.labels, os.path.join(trial_dir, "scores.csv"))
    save_loss_curve(result.losses, os.path.join(trial_dir, "losses.csv"))
    write_text(os.path.join(trial_dir, "reachability.json"), result.reachability.to_json())
    write_text(os.path.join(trial_dir, "metrics.json"),
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


def _map_trials(graph, configs):
    """Per config, [(t, run_trial(graph, config, seed), None) or
    (t, None, exception)] over its trials t, where seed is config.base_seed + t.

    The graph's operators are built here, so the trials only read them. All
    trials run inline with one worker, else on one pool of that many threads.
    BLAS is held to one thread either way: with more, OpenBLAS splits the
    long inner dimension of the weight-gradient products over its threads,
    which changes their last bits, so trials would depend on the worker
    count (and on the machine's cores). Inline trials run on the calling
    thread; inline or pooled, each trial's autodiff.train keeps the heap.
    A config repeated in configs (same config_hash) raises ValueError
    before any trial runs.
    """
    first = {}
    for i, config in enumerate(configs):
        if (j := first.setdefault(config.config_hash(), i)) != i:
            raise ValueError(f"configs {j} and {i} are the same config "
                             f"({config.config_hash()})")
    _ = graph.adjacency, graph.normalized_adjacency

    def attempt(job):
        config, t = job
        try:
            return t, run_trial(graph, config, config.base_seed + t), None
        except Exception as exc:  # noqa: BLE001 - reported per trial
            return t, None, exc

    jobs = [(config, t) for config in configs for t in range(config.trials)]
    with single_threaded():
        if configs[0].workers == 1:
            outcomes = [attempt(job) for job in jobs]
        else:
            with ThreadPoolExecutor(max_workers=configs[0].workers) as pool:
                outcomes = list(pool.map(attempt, jobs))
    rest = iter(outcomes)
    return [list(itertools.islice(rest, config.trials)) for config in configs]


def _run_on_graph(graph, configs):
    """run_experiment per config, on their graph, already loaded by the caller."""
    return [_record(graph, config, outcomes) for config, outcomes
            in zip(configs, _map_trials(graph, configs))]


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
        write_text(os.path.join(run_dir, "aggregate.json"),
                   json.dumps(aggregate, sort_keys=True, indent=1))

    return ExperimentResult(config=config, trials=results, failures=failures,
                            aggregate=aggregate, run_dir=run_dir)


@dataclass
class GridSearchResult:
    best_config: ExperimentConfig
    best_index: int
    rows: list  # one dict per grid point, validation metrics only
    experiment: ExperimentResult


def grid_search(config, grid):
    """Exhaustive search selecting by mean validation AUPRC.

    Ties break on higher validation AUROC, then smaller hidden dimension,
    fewer layers, then declaration order. Only the winner's test metrics are
    reported, from the trials it was selected on (wall_time: the grid pool's).
    """
    if not grid:
        raise ValueError("grid is empty")
    allowed = GRID_FIELDS + PRETEXT_FIELDS[config.paradigm]
    for key, values in grid.items():
        if key not in allowed:
            raise ValueError(f"cannot search over {key!r} for {config.paradigm}; allowed: {allowed}")
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"grid values for {key!r} must be a non-empty list")
    keys = list(grid)
    combos = list(itertools.product(*(grid[k] for k in keys)))
    configs = [replace(config, **dict(zip(keys, combo))) for combo in combos]
    graph = load_config_graph(config)
    outcomes = _map_trials(graph, configs)
    for _, _, exc in itertools.chain(*outcomes):
        if exc is not None:
            raise exc
    rows = [{**dict(zip(keys, combo)), "index": index,
             "val_auprc": float(np.mean([res.val_auprc for _, res, _ in trials])),
             "val_auroc": float(np.mean([res.val_auroc for _, res, _ in trials])),
             "hidden_dim": cfg.hidden_dim, "num_layers": cfg.num_layers}
            for index, (combo, cfg, trials) in enumerate(zip(combos, configs, outcomes))]

    best = min(rows, key=lambda r: (-r["val_auprc"], -r["val_auroc"],
                                    r["hidden_dim"], r["num_layers"], r["index"]))
    experiment = _record(graph, configs[best["index"]], outcomes[best["index"]])

    header = keys + ["val_auprc", "val_auroc"]
    _write_csv(config, "grid.csv", header,
               [[row[k] for k in header] for row in rows])
    if config.out_dir:
        trace = {"selection_key": ["val_auprc", "val_auroc", "hidden_dim",
                                   "num_layers", "declaration_order"],
                 "rows": rows, "selected_index": best["index"]}
        write_text(os.path.join(config.out_dir, "selection_trace.json"),
                   json.dumps(trace, sort_keys=True, indent=1))

    return GridSearchResult(best_config=experiment.config, best_index=best["index"],
                            rows=rows, experiment=experiment)


def ablation_shuffle_ratio(config, ratios):
    """One full experiment per DGI corruption ratio, sharing the seed schedule.

    Returns (rows, results): rows are (ratio, mean test AUROC) and results
    the underlying ExperimentResult per ratio.
    """
    if "shuffle_ratio" not in PRETEXT_FIELDS[config.paradigm]:
        raise ValueError("the shuffle-ratio ablation applies to the dgi paradigm")
    ratios = [float(r) for r in ratios]
    if not ratios:
        raise ValueError("no shuffle ratios given")
    configs = [replace(config, shuffle_ratio=r) for r in ratios]
    results = _run_on_graph(load_config_graph(config), configs)
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
    if min(counts) < 1:
        raise ValueError(f"labeled-anomaly count {min(counts)} is below 1")
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
