"""Anomaly classifier and the two training paradigms.

finetune_run trains a 2-layer MLP on embeddings from a frozen encoder
(computed once, never re-differentiated) through fit_classifier;
end2end_run trains encoder and classifier jointly through joint_fit. Both
minimize class-weighted binary cross-entropy over the labeled training rows
only, with anomaly weight #normals/#anomalies, and both keep the parameters
with the best validation AUPRC (see autodiff.train for the checkpointing).
The FitResult they return scores items through the rows it was trained on.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import (EPOCHS, LR, Tensor, activation, bce_with_logits,
                       gather_rows, matmul, stable_sigmoid, train)
from .data import label_tokens, write_csv
from .encoders import dense, encode, init_encoder
from .metrics import auprc


class ClassifierState:
    """2-layer ReLU perceptron, hidden width = input width, single logit output.

    When trained on frozen embeddings the state also carries the per-column
    standardization (mean, std) of the embedding matrix, applied to every
    input; joint training leaves it unset.
    """

    def __init__(self, w1, b1, w2, b2):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2
        self.input_mean = None
        self.input_std = None

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def set_standardization(self, matrix):
        self.input_mean = matrix.mean(axis=0)
        self.input_std = np.maximum(matrix.std(axis=0), 1e-9)

    def standardize(self, values):
        if self.input_mean is None:
            return values
        return (values - self.input_mean) / self.input_std


def init_classifier(input_dim, seed):
    rng = np.random.default_rng(seed)
    return ClassifierState(*dense(rng, input_dim, input_dim), *dense(rng, input_dim, 1))


def classifier_logits(h, clf):
    """Logits tensor for embedding rows h (Tensor or array).

    Plain arrays pass through the classifier's standardization (if any);
    tensors are assumed to come from a joint forward pass and do not.
    """
    if not isinstance(h, Tensor):
        h = Tensor(clf.standardize(np.asarray(h, dtype=np.float64)))
    z = activation(matmul(h, clf.w1, bias=clf.b1), "relu")
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
    """A trained classifier at its best validation check.

    rows(idx) returns the classifier's input rows for the indexed items
    (nodes or graphs), as in training; encoder is the jointly trained
    encoder, or None when the classifier was fit on fixed embeddings.
    """

    classifier: ClassifierState
    rows: object
    encoder: object = None
    losses: list = None
    best_epoch: int = None
    val_auprc: float = None
    val_scores: ScoreVector = None

    def scores(self, idx):
        """Anomaly probabilities of the indexed items under the classifier."""
        logits = classifier_logits(self.rows(idx), self.classifier).values[:, 0]
        return ScoreVector(idx, _probabilities(logits))


def _fit(clf, params, rows, labels, split, epochs, lr, encoder=None):
    """Train params under the weighted BCE of clf on the rows of the split's
    training items, checkpointed on its validation items' AUPRC; labels (an
    array of 0/1 per item, 1 = anomaly) is read only at those items."""
    train_idx, val_idx = split.train_nodes, split.val_nodes
    y_col = np.asarray(labels[train_idx], dtype=np.float64).reshape(-1, 1)
    weights = class_weights(y_col)
    fit = FitResult(classifier=clf, rows=rows, encoder=encoder)
    fit.losses, (fit.val_auprc, fit.best_epoch) = train(
        params, lambda: bce_with_logits(classifier_logits(rows(train_idx), clf),
                                        y_col, weights),
        epochs, lr, validate=lambda: auprc(fit.scores(val_idx).scores, labels[val_idx]))
    fit.val_scores = fit.scores(val_idx)
    return fit


def fit_classifier(embeddings, labels, split, epochs, lr, seed, standardize=True):
    """Train the MLP on fixed embedding rows; keep the best-validation state.

    With standardize=True the embedding columns are z-scored using statistics
    over all rows (an unsupervised transform, recorded on the classifier for
    scoring time). Worth switching off for very small matrices, where
    near-constant columns would be amplified into noise.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    clf = init_classifier(embeddings.shape[1], seed)
    if standardize:
        clf.set_standardization(embeddings)
    return _fit(clf, clf.params(), lambda idx: embeddings[idx],
                labels, split, epochs, lr)


def joint_fit(encoder_config, rows, labels, split, epochs, lr, seed):
    """Train a fresh encoder and classifier together on rows(encoder, idx).

    rows returns the differentiable representations of the indexed items
    (nodes or graphs) under the current encoder weights.
    """
    rng = np.random.default_rng(seed)
    enc_seed = int(rng.integers(2 ** 31))
    clf_seed = int(rng.integers(2 ** 31))
    encoder = init_encoder(encoder_config, enc_seed)
    clf = init_classifier(encoder_config.hidden_dim, clf_seed)
    return _fit(clf, encoder.params() + clf.params(),
                lambda idx: rows(encoder, idx),
                labels, split, epochs, lr, encoder=encoder)


def finetune_run(encoder, graph, split, epochs=EPOCHS, lr=LR, seed=0):
    """Train only the classifier on frozen-encoder embeddings.

    Embeddings are computed once and cached; encoder gradients are never
    formed, so its weights are bit-identical before and after.
    """
    if not encoder.frozen:
        raise ValueError("finetune_run requires a frozen encoder (see pretrain_run)")
    embeddings = encode(encoder, graph).values
    return fit_classifier(embeddings, graph.labels == 1, split, epochs, lr, seed)


def end2end_run(encoder_config, graph, split, epochs=EPOCHS, lr=LR, seed=0):
    """Jointly train encoder and classifier on the labeled training nodes."""
    # hold the last full representation until the next forward pass has
    # replaced it. With the heap kept (train) the hold changes little: on
    # N=10000 GCN, 25 epochs, two pooled trials took 0.54-0.69 s a round
    # with it and 0.60-0.76 s without, in three alternating processes each
    last = {}

    def rows(encoder, idx):
        last["h"] = encode(encoder, graph)
        return gather_rows(last["h"], idx)

    return joint_fit(encoder_config, rows, graph.labels == 1, split, epochs, lr, seed)


def score_nodes(encoder, classifier, graph, node_subset):
    """Anomaly probability for each node in the subset; pure function."""
    nodes = np.asarray(node_subset, dtype=np.int64)
    if nodes.size == 0:
        return ScoreVector(nodes=nodes, scores=np.empty(0))
    if nodes.min() < 0 or nodes.max() >= graph.num_nodes:
        raise ValueError("node subset index out of range")
    embeddings = encode(encoder, graph).values
    return FitResult(classifier, lambda idx: embeddings[idx]).scores(nodes)


def save_scores(score_vec, labels, path):
    """CSV dump (node_id, score, label_if_known); unknown labels print '?'."""
    write_csv(path, ["node_id", "score", "label"],
              zip(score_vec.nodes.tolist(), score_vec.scores.tolist(),
                  label_tokens(np.asarray(labels)[score_vec.nodes])))
