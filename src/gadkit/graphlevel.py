"""Graph-level anomaly detection over collections of attributed graphs.

A collection is labeled by the downsampling protocol: one class is cut to a
small fraction and marked anomalous, every other graph is normal. Detection
reuses the node-level machinery with a mean-pooled readout per graph: the
pretexts run per graph with labels untouched, and both paradigms train and
checkpoint through autodiff.train.
"""

from dataclasses import dataclass
from functools import reduce
import json
import os

import numpy as np

from .autodiff import add, concat_rows, mean_rows, scale, train
from .data import load_dataset, save_dataset
from .detector import (_probabilities, classifier_logits, fit_classifier,
                       joint_fit)
from .encoders import encode
from .metrics import auprc, auroc
from .pretrain import OBJECTIVES, init_pretext


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

    def __len__(self):
        return len(self.graphs)

    @property
    def feature_dim(self):
        return self.graphs[0].features.shape[1]


def downsample_class(collection, target_class, keep_fraction=0.10, seed=0):
    """Keep floor(keep_fraction * count) graphs of the target class, labeled
    anomalous; every other graph survives unchanged and is labeled normal."""
    class_ids = np.asarray(collection.class_ids)
    target_pos = np.flatnonzero(class_ids == target_class)
    if target_pos.size == 0:
        raise ValueError(f"class {target_class!r} absent from collection")
    keep = int(target_pos.size * keep_fraction)
    if keep < 1:
        raise ValueError(f"keep fraction {keep_fraction} retains no graphs "
                         f"of class {target_class!r}")
    rng = np.random.default_rng(seed)
    kept = set(rng.choice(target_pos, size=keep, replace=False).tolist())

    graphs, classes, labels = [], [], []
    for i, g in enumerate(collection.graphs):
        if class_ids[i] == target_class and i not in kept:
            continue
        graphs.append(g)
        classes.append(class_ids[i])
        labels.append(1 if class_ids[i] == target_class else 0)
    return GraphCollection(graphs=tuple(graphs),
                           class_ids=np.asarray(classes),
                           labels=np.asarray(labels, dtype=np.int64))


def graph_readout(encoder, graph):
    """Mean-pooled node representations, (1, hidden); differentiable."""
    if graph.num_nodes < 1:
        raise ValueError("cannot pool an empty graph")
    return mean_rows(encode(encoder, graph))


def stratified_graph_split(labels, train_ratio, seed):
    """Per class: ceil(ratio * count) to train, another ceiling to validation,
    remainder to test. Every stratum must keep at least one graph."""
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
        train.extend(perm[:k])
        val.extend(perm[k:2 * k])
        test.extend(perm[2 * k:])
    return (np.sort(np.asarray(train)), np.sort(np.asarray(val)),
            np.sort(np.asarray(test)))


def _collection_pretrain(collection, encoder_config, objective, epochs, lr, seed,
                         shuffle_ratio, mask_ratio, gamma):
    """Pretext loss averaged over every graph of the collection per epoch."""
    encoder, obj, loss_fn, rng = init_pretext(encoder_config, objective, seed,
                                              shuffle_ratio, mask_ratio, gamma)

    def mean_loss():
        per_graph = [loss_fn(encoder, g, obj, rng) for g in collection.graphs]
        return scale(reduce(add, per_graph), 1.0 / len(per_graph))

    losses, _ = train(encoder.params() + obj.params(), mean_loss, epochs, lr)
    encoder.freeze()
    return encoder, losses


@dataclass
class GraphLevelResult:
    auroc: float
    auprc: float
    val_auprc: float
    losses: list
    test_scores: np.ndarray
    test_index: np.ndarray


def graphlevel_pipeline(collection, mode, encoder_config, train_ratio=0.05,
                        epochs=200, lr=0.005, pretrain_epochs=200, seed=0,
                        shuffle_ratio=1.0, mask_ratio=0.5, gamma=2.0):
    """Run one graph-level experiment; mode is 'dgi', 'graphmae' or 'end2end'."""
    if collection.labels is None:
        raise ValueError("collection has no labels; run downsample_class first")
    if any(g.features.shape[1] != collection.feature_dim for g in collection.graphs):
        raise ValueError("all graphs must share one feature dimension")
    labels = collection.labels
    train_idx, val_idx, test_idx = stratified_graph_split(labels, train_ratio, seed)

    if mode in OBJECTIVES:
        encoder, losses = _collection_pretrain(
            collection, encoder_config, mode, pretrain_epochs, lr, seed,
            shuffle_ratio, mask_ratio, gamma)
        readouts = np.vstack([graph_readout(encoder, g).values
                              for g in collection.graphs])
        fit = fit_classifier(readouts, train_idx, labels[train_idx],
                             val_idx, labels[val_idx], epochs, lr, seed,
                             standardize=False)
        test_rows = readouts[test_idx]
    elif mode == "end2end":
        def rows(encoder, idx):
            return concat_rows([graph_readout(encoder, collection.graphs[i])
                                for i in idx])

        fit = joint_fit(encoder_config, rows, train_idx, labels[train_idx],
                        val_idx, labels[val_idx], epochs, lr, seed)
        losses = fit.losses
        test_rows = rows(fit.encoder, test_idx)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    test_scores = _probabilities(
        classifier_logits(test_rows, fit.classifier).values[:, 0])
    y_test = labels[test_idx]
    return GraphLevelResult(auroc=auroc(test_scores, y_test),
                            auprc=auprc(test_scores, y_test),
                            val_auprc=fit.val_auprc, losses=losses,
                            test_scores=test_scores, test_index=test_idx)


def save_collection(collection, out_dir, manifest_name="collection.json"):
    """Per-graph edge/feature files plus a manifest with class ids."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for i, g in enumerate(collection.graphs):
        edges = f"graph_{i}_edges.txt"
        feats = f"graph_{i}_features.csv"
        save_dataset(g, os.path.join(out_dir, edges), os.path.join(out_dir, feats))
        entries.append({"edges": edges, "features": feats,
                        "class": int(collection.class_ids[i])})
    path = os.path.join(out_dir, manifest_name)
    with open(path, "w") as fh:
        json.dump({"graphs": entries}, fh, indent=1, sort_keys=True)
    return path


def load_collection(manifest_path):
    """Collection from a manifest JSON of per-graph (edges, features, class)."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    graphs, classes = [], []
    for entry in manifest["graphs"]:
        edge_path = os.path.join(base, entry["edges"])
        feat_path = os.path.join(base, entry["features"])
        graphs.append(load_dataset(edge_path, feat_path))
        classes.append(int(entry["class"]))
    return GraphCollection(graphs=tuple(graphs), class_ids=np.asarray(classes))
