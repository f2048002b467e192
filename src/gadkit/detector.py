"""Anomaly classifier and the two training paradigms.

finetune_run trains a 2-layer MLP on embeddings from a frozen encoder
(computed once, never re-differentiated); end2end_run trains encoder and
classifier jointly. Both minimize class-weighted binary cross-entropy over
the labeled training nodes only, with anomaly weight #normals/#anomalies,
and both retain the parameters with the best validation AUPRC, checked
every 10 epochs.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import (Adam, Tape, Tensor, activation, backward,
                       bce_with_logits, gather_rows, matmul, stable_sigmoid)
from .encoders import encode, glorot, init_encoder
from .graph import LABEL_UNKNOWN, cached_normalized_adjacency
from .metrics import auprc

VAL_CHECK_EVERY = 10


class ClassifierState:
    """2-layer perceptron, hidden width = input width, single logit output.

    When trained on frozen embeddings the state also carries the per-column
    standardization (mean, std) of the embedding matrix, applied to every
    input; joint training leaves it unset.
    """

    def __init__(self, w1, b1, w2, b2, activation_kind="relu"):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2
        self.activation = activation_kind
        self.input_mean = None
        self.input_std = None

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def param_values(self):
        return [p.values.copy() for p in self.params()]

    def load_param_values(self, values):
        for p, v in zip(self.params(), values):
            p.values = v.copy()

    def set_standardization(self, matrix):
        self.input_mean = matrix.mean(axis=0)
        self.input_std = np.maximum(matrix.std(axis=0), 1e-9)

    def standardize(self, values):
        if self.input_mean is None:
            return values
        return (values - self.input_mean) / self.input_std


def init_classifier(input_dim, seed, activation_kind="relu"):
    rng = np.random.default_rng(seed)
    return ClassifierState(
        w1=Tensor(glorot(rng, input_dim, input_dim), requires_grad=True),
        b1=Tensor(np.zeros((1, input_dim)), requires_grad=True),
        w2=Tensor(glorot(rng, input_dim, 1), requires_grad=True),
        b2=Tensor(np.zeros((1, 1)), requires_grad=True),
        activation_kind=activation_kind,
    )


def classifier_logits(h, clf):
    """Logits tensor for embedding rows h (Tensor or array).

    Plain arrays pass through the classifier's standardization (if any);
    tensors are assumed to come from a joint forward pass and do not.
    """
    if not isinstance(h, Tensor):
        h = Tensor(clf.standardize(np.asarray(h, dtype=np.float64)))
    z = activation(matmul(h, clf.w1, bias=clf.b1), clf.activation)
    return matmul(z, clf.w2, bias=clf.b2)


@dataclass(frozen=True)
class ScoreVector:
    """Anomaly probabilities for a node subset, strictly inside (0, 1)."""

    nodes: np.ndarray
    scores: np.ndarray


def _probabilities(logits):
    return np.clip(stable_sigmoid(logits), 1e-15, 1.0 - 1e-15)


def class_weights(y):
    y = np.asarray(y, dtype=np.float64)
    n_anom = y.sum()
    n_norm = y.size - n_anom
    if n_anom == 0:
        raise ValueError("no labeled anomalies in the training set")
    return np.where(y == 1.0, n_norm / n_anom, 1.0)


@dataclass
class FitResult:
    classifier: ClassifierState
    losses: list
    best_epoch: int
    val_auprc: float
    val_scores: np.ndarray


def fit_classifier(embeddings, train_idx, train_y, val_idx, val_y,
                   epochs, lr, seed, activation_kind="relu", standardize=True):
    """Train the MLP on fixed embedding rows; keep the best-validation state.

    With standardize=True the embedding columns are z-scored using statistics
    over all rows (an unsupervised transform, recorded on the classifier for
    scoring time). Worth switching off for very small matrices, where
    near-constant columns would be amplified into noise.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    embeddings = np.asarray(embeddings, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64).reshape(-1, 1)
    weights = class_weights(train_y).reshape(-1, 1)

    clf = init_classifier(embeddings.shape[1], seed)
    clf.activation = activation_kind
    if standardize:
        clf.set_standardization(embeddings)
    # pre-standardized training block; raw rows elsewhere go through the
    # classifier_logits array path, which applies the same transform once
    h_train = Tensor(clf.standardize(embeddings[train_idx]))
    h_val = embeddings[val_idx]
    opt = Adam(clf.params(), lr=lr)
    losses = []
    best = None  # (auprc, epoch, values)
    for epoch in range(epochs):
        opt.zero_grad()
        with Tape() as tape:
            loss = bce_with_logits(classifier_logits(h_train, clf), train_y, weights)
        backward(tape, loss, params=clf.params())
        opt.step()
        losses.append(loss.item())
        if (epoch + 1) % VAL_CHECK_EVERY == 0 or epoch == epochs - 1:
            scores = _probabilities(classifier_logits(h_val, clf).values[:, 0])
            score = auprc(scores, val_y)
            if best is None or score > best[0]:
                best = (score, epoch, clf.param_values())
    clf.load_param_values(best[2])
    val_scores = _probabilities(classifier_logits(h_val, clf).values[:, 0])
    return FitResult(classifier=clf, losses=losses, best_epoch=best[1],
                     val_auprc=best[0], val_scores=val_scores)


@dataclass
class FinetuneResult:
    classifier: ClassifierState
    val_scores: ScoreVector
    losses: list
    best_epoch: int
    val_auprc: float


def _split_xy(graph, split):
    train_idx = split.train_nodes
    val_idx = split.val_nodes
    return (train_idx, (graph.labels[train_idx] == 1).astype(np.float64),
            val_idx, (graph.labels[val_idx] == 1).astype(np.float64))


def finetune_run(encoder, graph, split, epochs=200, lr=0.005, seed=0, adjnorm=None):
    """Train only the classifier on frozen-encoder embeddings.

    Embeddings are computed once and cached; encoder gradients are never
    formed, so its weights are bit-identical before and after.
    """
    if not encoder.frozen:
        raise ValueError("finetune_run requires a frozen encoder (see pretrain_run)")
    if adjnorm is None:
        adjnorm = cached_normalized_adjacency(graph)
    if split.train_anomalies.size == 0:
        raise ValueError("no labeled anomalies in the training split")
    embeddings = encode(encoder, graph, adjnorm).values
    train_idx, train_y, val_idx, val_y = _split_xy(graph, split)
    fit = fit_classifier(embeddings, train_idx, train_y, val_idx, val_y,
                         epochs, lr, seed)
    return FinetuneResult(classifier=fit.classifier,
                          val_scores=ScoreVector(val_idx, fit.val_scores),
                          losses=fit.losses, best_epoch=fit.best_epoch,
                          val_auprc=fit.val_auprc)


@dataclass
class End2EndResult:
    encoder: object
    classifier: ClassifierState
    val_scores: ScoreVector
    losses: list
    best_epoch: int
    val_auprc: float


def end2end_run(encoder_config, graph, split, epochs=200, lr=0.005, seed=0,
                adjnorm=None):
    """Jointly train encoder and classifier on the labeled training nodes."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if adjnorm is None:
        adjnorm = cached_normalized_adjacency(graph)
    if split.train_anomalies.size == 0:
        raise ValueError("no labeled anomalies in the training split")
    rng = np.random.default_rng(seed)
    enc_seed = int(rng.integers(2 ** 31))
    clf_seed = int(rng.integers(2 ** 31))
    encoder = init_encoder(encoder_config, enc_seed)
    clf = init_classifier(encoder_config.hidden_dim, clf_seed)

    train_idx, train_y, val_idx, val_y = _split_xy(graph, split)
    y_col = train_y.reshape(-1, 1)
    weights = class_weights(train_y).reshape(-1, 1)
    params = encoder.params() + clf.params()
    opt = Adam(params, lr=lr)
    losses = []
    best = None
    for epoch in range(epochs):
        opt.zero_grad()
        with Tape() as tape:
            h = encode(encoder, graph, adjnorm)
            logits = classifier_logits(gather_rows(h, train_idx), clf)
            loss = bce_with_logits(logits, y_col, weights)
        backward(tape, loss, params=params)
        opt.step()
        losses.append(loss.item())
        if (epoch + 1) % VAL_CHECK_EVERY == 0 or epoch == epochs - 1:
            h_val = encode(encoder, graph, adjnorm).values[val_idx]
            scores = _probabilities(classifier_logits(h_val, clf).values[:, 0])
            score = auprc(scores, val_y)
            if best is None or score > best[0]:
                best = (score, epoch, encoder.param_values(), clf.param_values())
    encoder.load_param_values(best[2])
    clf.load_param_values(best[3])
    h_val = encode(encoder, graph, adjnorm).values[val_idx]
    val_scores = _probabilities(classifier_logits(h_val, clf).values[:, 0])
    return End2EndResult(encoder=encoder, classifier=clf,
                         val_scores=ScoreVector(val_idx, val_scores),
                         losses=losses, best_epoch=best[1], val_auprc=best[0])


def score_nodes(encoder, classifier, graph, node_subset, adjnorm=None):
    """Anomaly probability for each node in the subset; pure function."""
    nodes = np.asarray(node_subset, dtype=np.int64)
    if nodes.size == 0:
        return ScoreVector(nodes=nodes, scores=np.empty(0))
    if nodes.min() < 0 or nodes.max() >= graph.num_nodes:
        raise ValueError("node subset index out of range")
    if adjnorm is None:
        adjnorm = cached_normalized_adjacency(graph)
    h = encode(encoder, graph, adjnorm).values[nodes]
    logits = classifier_logits(h, classifier).values[:, 0]
    return ScoreVector(nodes=nodes, scores=_probabilities(logits))


def save_scores(score_vec, labels, path):
    """CSV dump (node_id, score, label_if_known); unknown labels print '?'."""
    with open(path, "w") as fh:
        fh.write("node_id,score,label\n")
        for node, score in zip(score_vec.nodes, score_vec.scores):
            y = labels[node]
            tok = "?" if y == LABEL_UNKNOWN else str(int(y))
            fh.write(f"{int(node)},{float(score)!r},{tok}\n")
