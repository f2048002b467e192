"""Graph-level anomaly detection over collections of attributed graphs.

A collection is labeled by the downsampling protocol: one class is cut to a
small fraction and marked anomalous, every other graph is normal. Detection
reuses the node-level machinery with a mean-pooled readout per graph: both
paradigms fit through detector, and FitResult.scores scores the test graphs.

Pre-training is pretrain_run on the collection's disjoint union
(`GraphCollection.union`), whose member graphs are the collection's graphs:
each graph is corrupted or masked on its own, drawn in collection order from
one rng, and its loss weighs as much as any other graph's, with labels
untouched. The frozen encoder's readouts are one graph_readout of the
union, a row per member. End-to-end training reads out graph by graph.
The pipeline holds OpenBLAS to one thread, as experiment does for its
trials, so its scores do not depend on the machine's core count.
"""

from dataclasses import dataclass
import functools
import itertools
import json
import os

import numpy as np

from ._blas import single_threaded
from .autodiff import EPOCHS, LR, concat_rows, segment_mean
from .data import SplitSpec, load_dataset, save_dataset, write_text
from .detector import fit_classifier, joint_fit
from .encoders import encode
from .graph import disjoint_union
from .metrics import auprc, auroc
from .pretrain import (MASK_RATIO, OBJECTIVES, SCE_GAMMA, SHUFFLE_RATIO,
                       pretrain_run)


@dataclass(frozen=True)
class GraphCollection:
    """Graphs with original class ids; labels appear after downsampling."""

    graphs: tuple
    class_ids: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        if len(self.graphs) == 0:
            raise ValueError("collection is empty")
        if len(self.class_ids) != len(self.graphs):
            raise ValueError("one class id per graph required")
        if len(widths := {g.features.shape[1] for g in self.graphs}) > 1:
            raise ValueError(f"all graphs must share one feature dimension, got {sorted(widths)}")
        if self.labels is not None:
            if len(self.labels) != len(self.graphs):
                raise ValueError(f"{len(self.labels)} labels for {len(self.graphs)} graphs")
            if not np.isin(self.labels, (0, 1)).all():
                raise ValueError("labels must be 0 (normal) or 1 (anomalous)")

    def __len__(self):
        return len(self.graphs)

    @property
    def feature_dim(self):
        return self.graphs[0].features.shape[1]

    @functools.cached_property
    def union(self):
        """All graphs as one block-diagonal Graph, built on first use, whose
        member i is graphs[i]."""
        return disjoint_union(self.graphs)


def downsample_class(collection, target_class, keep_fraction=0.10, seed=0):
    """Keep floor(keep_fraction * count) graphs of the target class, labeled
    anomalous; every other graph survives unchanged and is labeled normal.
    keep_fraction must lie in (0, 1]."""
    if not 0.0 < keep_fraction <= 1.0:  # also rejects NaN
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    class_ids = np.asarray(collection.class_ids)
    target = class_ids == target_class
    target_pos = np.flatnonzero(target)
    if target_pos.size == 0:
        raise ValueError(f"class {target_class!r} absent from collection")
    keep = int(target_pos.size * keep_fraction)
    if keep < 1:
        raise ValueError(f"keep fraction {keep_fraction} retains no graphs "
                         f"of class {target_class!r}")
    rng = np.random.default_rng(seed)
    kept = ~target
    kept[rng.choice(target_pos, size=keep, replace=False)] = True
    return GraphCollection(graphs=tuple(itertools.compress(collection.graphs, kept)),
                           class_ids=class_ids[kept],
                           labels=target[kept].astype(np.int64))


def graph_readout(encoder, graph):
    """Mean-pooled node representations, one (1, hidden) row per member graph
    (`graph_ptr`), so one row for a graph from build_graph; differentiable."""
    return segment_mean(encode(encoder, graph), graph.graph_ptr)


def stratified_graph_split(labels, train_ratio, seed):
    """SplitSpec over graph indices. Per class: ceil(ratio * count) to train,
    another ceiling to validation, remainder to test. Every stratum must keep
    at least one graph."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for cls in (0, 1):
        pool = np.flatnonzero(labels == cls)
        k = int(np.ceil(train_ratio * pool.size))
        if pool.size < 2 * k + 1 or k == 0:
            raise ValueError(f"label {cls} stratum too small for ratio {train_ratio}: "
                             f"{pool.size} graphs")
        perm = rng.permutation(pool)
        train.append(perm[:k])
        val.append(perm[k:2 * k])
        test.append(perm[2 * k:])
    return SplitSpec(train[1], train[0], val[1], val[0],
                     np.sort(np.concatenate(test)), seed)


@dataclass
class GraphLevelResult:
    auroc: float
    auprc: float
    val_auprc: float
    losses: list
    test_scores: np.ndarray
    test_index: np.ndarray


@single_threaded()
def graphlevel_pipeline(collection, mode, encoder_config, train_ratio=0.05,
                        epochs=EPOCHS, lr=LR, pretrain_epochs=EPOCHS, seed=0,
                        shuffle_ratio=SHUFFLE_RATIO, mask_ratio=MASK_RATIO,
                        gamma=SCE_GAMMA):
    """Run one graph-level experiment; mode is 'dgi', 'graphmae' or 'end2end'."""
    if collection.labels is None:
        raise ValueError("collection has no labels; run downsample_class first")
    labels = collection.labels
    split = stratified_graph_split(labels, train_ratio, seed)

    if mode in OBJECTIVES:
        union = collection.union
        pre = pretrain_run(union, encoder_config, mode, pretrain_epochs, lr, seed,
                           shuffle_ratio, mask_ratio, gamma)
        losses = pre.losses
        readouts = graph_readout(pre.encoder, union).values
        fit = fit_classifier(readouts, labels, split, epochs, lr, seed, standardize=False)
    elif mode == "end2end":
        def rows(encoder, idx):
            return concat_rows([graph_readout(encoder, collection.graphs[i])
                                for i in idx])

        fit = joint_fit(encoder_config, rows, labels, split, epochs, lr, seed)
        losses = fit.losses
    else:
        raise ValueError(f"unknown mode {mode!r}")

    test_scores = fit.scores(split.test).scores
    y_test = labels[split.test]
    return GraphLevelResult(auroc=auroc(test_scores, y_test),
                            auprc=auprc(test_scores, y_test),
                            val_auprc=fit.val_auprc, losses=losses,
                            test_scores=test_scores, test_index=split.test)


def save_collection(collection, out_dir):
    """Per-graph edge/feature files plus a manifest with class ids."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for i, g in enumerate(collection.graphs):
        edges = f"graph_{i}_edges.txt"
        feats = f"graph_{i}_features.csv"
        save_dataset(g, os.path.join(out_dir, edges), os.path.join(out_dir, feats))
        entries.append({"edges": edges, "features": feats,
                        "class": int(collection.class_ids[i])})
    path = os.path.join(out_dir, "collection.json")
    write_text(path, json.dumps({"graphs": entries}, indent=1, sort_keys=True))
    return path


def load_collection(manifest_path):
    """Collection from a manifest JSON of per-graph (edges, features, class);
    a malformed manifest raises ValueError naming its path and entry."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    entries = manifest.get("graphs") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"{manifest_path}: 'graphs' must be a list of entries")
    graphs, classes = [], []
    for i, entry in enumerate(entries):
        missing = [k for k in ("edges", "features", "class")
                   if not isinstance(entry, dict) or k not in entry]
        if missing:
            raise ValueError(f"{manifest_path}: graph entry {i} lacks {', '.join(missing)}")
        if type(entry["class"]) is not int:
            raise ValueError(f"{manifest_path}: graph entry {i} has a class that is "
                             f"not an integer: {entry['class']!r}")
        for key in ("edges", "features"):
            if not isinstance(entry[key], str):
                raise ValueError(f"{manifest_path}: graph entry {i} has a non-string "
                                 f"{key} path: {entry[key]!r}")
        graphs.append(load_dataset(os.path.join(base, entry["edges"]),
                                   os.path.join(base, entry["features"])))
        classes.append(entry["class"])
    return GraphCollection(graphs=tuple(graphs), class_ids=np.asarray(classes))
