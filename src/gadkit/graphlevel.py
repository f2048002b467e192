"""Graph-level anomaly detection over collections of attributed graphs.

A collection is labeled by the downsampling protocol: one class is cut to a
small fraction and marked anomalous, every other graph is normal. Detection
reuses the node-level machinery with a mean-pooled readout per graph; the
pretexts run per graph with labels untouched.
"""

from dataclasses import dataclass
from functools import reduce
import json
import os

import numpy as np

from .autodiff import (Adam, Tape, add, backward, bce_with_logits,
                       concat_rows, mean_rows, scale)
from .data import load_dataset, save_dataset
from .detector import (VAL_CHECK_EVERY, _probabilities, class_weights,
                       classifier_logits, fit_classifier, init_classifier)
from .encoders import encode, init_encoder
from .graph import cached_normalized_adjacency
from .metrics import auprc, auroc
from .pretrain import DgiConfig, MaeConfig, dgi_loss, graphmae_loss


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


def graph_readout(encoder, graph, adjnorm=None):
    """Mean-pooled node representations, (1, hidden); differentiable."""
    if graph.num_nodes < 1:
        raise ValueError("cannot pool an empty graph")
    if adjnorm is None:
        adjnorm = cached_normalized_adjacency(graph)
    return mean_rows(encode(encoder, graph, adjnorm))


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


def _readout_matrix(encoder, graphs):
    return np.vstack([graph_readout(encoder, g).values for g in graphs])


def _collection_pretrain(collection, encoder_config, objective, epochs, lr, seed,
                         shuffle_ratio, mask_ratio, gamma):
    rng = np.random.default_rng(seed)
    enc_seed = int(rng.integers(2 ** 31))
    obj_seed = int(rng.integers(2 ** 31))
    encoder = init_encoder(encoder_config, enc_seed)
    if objective == "dgi":
        obj = DgiConfig.create(encoder_config.hidden_dim, shuffle_ratio, obj_seed)
        loss_fn = dgi_loss
    else:
        obj = MaeConfig.create(encoder_config.input_dim, encoder_config.hidden_dim,
                               mask_ratio, gamma, obj_seed)
        loss_fn = graphmae_loss

    params = encoder.params() + obj.params()
    opt = Adam(params, lr=lr)
    losses = []
    for _ in range(epochs):
        opt.zero_grad()
        with Tape() as tape:
            per_graph = [loss_fn(encoder, g, cached_normalized_adjacency(g), obj, rng)
                         for g in collection.graphs]
            loss = scale(reduce(add, per_graph), 1.0 / len(per_graph))
        backward(tape, loss, params=params)
        opt.step()
        losses.append(loss.item())
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

    if mode in ("dgi", "graphmae"):
        encoder, losses = _collection_pretrain(
            collection, encoder_config, mode, pretrain_epochs, lr, seed,
            shuffle_ratio, mask_ratio, gamma)
        readouts = _readout_matrix(encoder, collection.graphs)
        fit = fit_classifier(readouts, train_idx, labels[train_idx],
                             val_idx, labels[val_idx], epochs, lr, seed,
                             standardize=False)
        clf = fit.classifier
        val_auprc = fit.val_auprc
        test_scores = _probabilities(
            classifier_logits(readouts[test_idx], clf).values[:, 0])
    elif mode == "end2end":
        encoder, clf, losses, val_auprc = _end2end_graphs(
            collection, encoder_config, train_idx, val_idx, epochs, lr, seed)
        readouts = _readout_matrix(encoder, collection.graphs)
        test_scores = _probabilities(
            classifier_logits(readouts[test_idx], clf).values[:, 0])
    else:
        raise ValueError(f"unknown mode {mode!r}")

    y_test = labels[test_idx]
    return GraphLevelResult(auroc=auroc(test_scores, y_test),
                            auprc=auprc(test_scores, y_test),
                            val_auprc=val_auprc, losses=losses,
                            test_scores=test_scores, test_index=test_idx)


def _end2end_graphs(collection, encoder_config, train_idx, val_idx, epochs, lr, seed):
    rng = np.random.default_rng(seed)
    encoder = init_encoder(encoder_config, int(rng.integers(2 ** 31)))
    clf = init_classifier(encoder_config.hidden_dim, int(rng.integers(2 ** 31)))
    labels = collection.labels
    y_col = labels[train_idx].astype(np.float64).reshape(-1, 1)
    weights = class_weights(labels[train_idx]).reshape(-1, 1)
    train_graphs = [collection.graphs[i] for i in train_idx]
    val_graphs = [collection.graphs[i] for i in val_idx]
    y_val = labels[val_idx]

    params = encoder.params() + clf.params()
    opt = Adam(params, lr=lr)
    losses = []
    best = None
    for epoch in range(epochs):
        opt.zero_grad()
        with Tape() as tape:
            logits = classifier_logits(
                concat_rows([graph_readout(encoder, g) for g in train_graphs]), clf)
            loss = bce_with_logits(logits, y_col, weights)
        backward(tape, loss, params=params)
        opt.step()
        losses.append(loss.item())
        if (epoch + 1) % VAL_CHECK_EVERY == 0 or epoch == epochs - 1:
            scores = _probabilities(classifier_logits(
                _readout_matrix(encoder, val_graphs), clf).values[:, 0])
            score = auprc(scores, y_val)
            if best is None or score > best[0]:
                best = (score, epoch, encoder.param_values(), clf.param_values())
    encoder.load_param_values(best[2])
    clf.load_param_values(best[3])
    return encoder, clf, losses, best[0]


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
