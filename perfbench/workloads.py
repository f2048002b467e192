"""The benchmark's workloads: inputs made from a seed, one timed round, checks.

Each workload has a set-up step (build the input graph or collection and
its normalized adjacency) and a round (the timed unit the run repeats). All
rounds of one run use the same seeds, so they do identical work and give
bit-identical AUROCs; the run compares each round against the first and
against the recorded references.

The program is reached only through attribute lookups on gadkit modules at
call time, so the tracer's wrappers are seen when installed.
"""

from dataclasses import dataclass
import json
import os
import time

import numpy as np
from scipy.stats import rankdata

# AUROC recomputed here from the returned scores must agree to this much;
# the two computations sum ranks in different orders.
ORACLE_TOL = 1e-9


def oracle_auroc(scores, labels):
    """Mann-Whitney AUROC with average ranks on ties, independent of gadkit."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    p, n = int(pos.sum()), int((~pos).sum())
    return float((rankdata(scores)[pos].sum() - p * (p + 1) / 2.0) / (p * n))


@dataclass
class Round:
    """One timed round: its wall time and, per trial, time, AUROC, problem."""

    run_s: float
    trial_s: list
    auroc: list       # per trial index; None where the trial failed
    problems: list    # per trial index; None when every check passed


@dataclass(frozen=True)
class NodeWorkload:
    """`gadkit run` on the synthetic benchmark through run_experiment."""

    name: str
    paradigm: str
    encoder_kind: str
    trials: int
    workers: int
    num_nodes: int = 2000
    epochs: int = 200
    pretrain_epochs: int = 200

    def spec(self, gk, seed):
        # edge probabilities scale with 1/N so the average degree stays near 4
        k = self.num_nodes / 2000
        return gk.data.SyntheticSpec(num_nodes=self.num_nodes,
                                     intra_p=0.007 / k, inter_p=0.0003 / k,
                                     seed=seed)

    def setup(self, gk, seed):
        graph = gk.data.generate_synthetic(self.spec(gk, seed))
        gk.graph.normalize_adjacency(graph)
        return graph

    def run_round(self, gk, graph, seed, out_dir):
        config = gk.experiment.ExperimentConfig(
            dataset=self.spec(gk, seed), paradigm=self.paradigm,
            encoder_kind=self.encoder_kind, epochs=self.epochs,
            pretrain_epochs=self.pretrain_epochs, trials=self.trials,
            base_seed=seed, out_dir=out_dir, workers=self.workers)
        started = time.perf_counter()
        result = gk.experiment.run_experiment(config)
        run_s = time.perf_counter() - started

        trial_s, aurocs = [], [None] * self.trials
        problems = ["trial raised"] * self.trials
        for res in result.trials:
            t = res.seed - seed
            trial_s.append(res.wall_time)
            aurocs[t] = res.auroc
            problems[t] = _artifact_problem(self._check_trial, graph, res,
                                            result.run_dir, t)
        bad_aggregate = _artifact_problem(self._check_aggregate, result)
        problems = [p or bad_aggregate for p in problems]
        return Round(run_s, trial_s, aurocs, problems)

    @staticmethod
    def _check_trial(graph, res, run_dir, t):
        nodes = res.scores.nodes
        y = (graph.labels[nodes] == 1).astype(np.int64)
        if abs(oracle_auroc(res.scores.scores, y) - res.auroc) > ORACLE_TOL:
            return "AUROC disagrees with the scores"
        trial_dir = os.path.join(run_dir, f"trial_{t}")
        with open(os.path.join(trial_dir, "metrics.json")) as fh:
            if json.load(fh)["auroc"] != res.auroc:
                return "metrics.json disagrees"
        with open(os.path.join(trial_dir, "scores.csv")) as fh:
            if sum(1 for _ in fh) != nodes.size + 1:
                return "scores.csv has the wrong number of rows"
        return None

    @staticmethod
    def _check_aggregate(result):
        with open(os.path.join(result.run_dir, "aggregate.json")) as fh:
            agg = json.load(fh)
        mean = float(np.mean([r.auroc for r in result.trials]))
        if agg["n_completed"] != len(result.trials) or agg["metrics"]["auroc"]["mean"] != mean:
            return "aggregate.json disagrees"
        return None


def _artifact_problem(check, *args):
    """The check's finding, or the reason the artifacts could not be read."""
    try:
        return check(*args)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return f"unreadable artifacts: {type(exc).__name__}: {exc}"


# graph-level collection: two classes that differ in edge density and
# feature mean; class 1 is cut to 10% and becomes the anomalies
COLLECTION_GRAPHS = 240
NODES_RANGE = (12, 28)
EDGE_P = (0.15, 0.30)
FEATURE_MEAN = (0.0, 0.75)
FEATURE_DIM = 8
# 20% of each class labeled: with the default 5%, one labeled anomaly makes
# test AUROC swing between about 0.15 and 1.0 across seeds
TRAIN_RATIO = 0.2
PRETRAIN_EPOCHS, EPOCHS = 10, 40


@dataclass(frozen=True)
class GraphWorkload:
    """One DGI + GIN graphlevel_pipeline call per trial on a seeded collection."""

    name: str
    trials: int = 1

    def setup(self, gk, seed):
        rng = np.random.default_rng(seed)
        graphs, classes = [], []
        for i in range(COLLECTION_GRAPHS):
            cls = i % 2
            n = int(rng.integers(NODES_RANGE[0], NODES_RANGE[1] + 1))
            edges = np.argwhere(np.triu(rng.random((n, n)) < EDGE_P[cls], k=1))
            feats = FEATURE_MEAN[cls] + rng.standard_normal((n, FEATURE_DIM))
            graphs.append(gk.graph.build_graph(edges, feats))
            classes.append(cls)
        collection = gk.graphlevel.GraphCollection(
            graphs=tuple(graphs), class_ids=np.asarray(classes))
        collection = gk.graphlevel.downsample_class(collection, 1, 0.10, seed=seed)
        for g in collection.graphs:
            gk.graph.cached_normalized_adjacency(g)
        return collection

    def run_round(self, gk, collection, seed, out_dir):
        enc = gk.EncoderConfig(kind="gin", input_dim=FEATURE_DIM, activation="prelu")
        started = time.perf_counter()
        res = gk.graphlevel.graphlevel_pipeline(
            collection, "dgi", enc, train_ratio=TRAIN_RATIO, epochs=EPOCHS,
            pretrain_epochs=PRETRAIN_EPOCHS, seed=seed)
        run_s = time.perf_counter() - started
        y = collection.labels[res.test_index]
        problem = None
        if abs(oracle_auroc(res.test_scores, y) - res.auroc) > ORACLE_TOL:
            problem = "AUROC disagrees with the scores"
        return Round(run_s, [run_s], [res.auroc], [problem])


# Epochs are cut from the default 200 so that a trial takes a few seconds
# and a run's medians cover many trials; the work per epoch and the
# code paths are those of a full-length run. The large graph has N=10000:
# at N=20000 a run fitted three rounds, and their times spread twice as wide.
WORKLOADS = {w.name: w for w in (
    NodeWorkload("node-dgi-gin", "dgi", "gin", trials=1, workers=1,
                 epochs=40, pretrain_epochs=40),
    NodeWorkload("node-e2e-gcn-large-workers2", "end2end", "gcn", trials=2,
                 workers=2, num_nodes=10000, epochs=25),
    GraphWorkload("graph-dgi-gin"),
)}
