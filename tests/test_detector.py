import numpy as np
import pytest

from gadkit.data import SyntheticSpec, generate_synthetic, make_semi_split
from gadkit.detector import (end2end_run, finetune_run, init_classifier,
                             score_nodes)
from gadkit.encoders import EncoderConfig, init_encoder
from gadkit.graph import build_graph
from gadkit.metrics import auroc
from gadkit.pretrain import pretrain_run

from conftest import assert_gradients_match


def bench_graph(seed=0):
    return generate_synthetic(SyntheticSpec(num_nodes=500, anomaly_fraction=0.15,
                                            feature_dim=6, clique_size=4,
                                            seed=seed))


def frozen_encoder(graph, hidden=8, seed=0):
    cfg = EncoderConfig(kind="gcn", input_dim=graph.features.shape[1],
                        hidden_dim=hidden)
    return pretrain_run(graph, cfg, "dgi", epochs=5, seed=seed).encoder


def test_finetune_rejects_zero_epochs_and_unfrozen():
    g = bench_graph()
    split = make_semi_split(g, seed=0)
    enc = frozen_encoder(g)
    with pytest.raises(ValueError, match="epochs"):
        finetune_run(enc, g, split, epochs=0)
    live = init_encoder(EncoderConfig(kind="gcn", input_dim=6, hidden_dim=8), 0)
    with pytest.raises(ValueError, match="frozen"):
        finetune_run(live, g, split, epochs=10)


def test_finetune_requires_labeled_anomalies():
    from gadkit.data import SplitSpec
    g = bench_graph()
    split = SplitSpec(train_anomalies=np.empty(0, dtype=np.int64),
                      train_normals=np.array([0, 1]),
                      val_anomalies=np.array([2]),
                      val_normals=np.array([3]),
                      test=np.array([4, 5]), seed=0)
    enc = frozen_encoder(g)
    with pytest.raises(ValueError, match="no labeled anomalies"):
        finetune_run(enc, g, split, epochs=10)


def separable_setup():
    """Edge-free graph whose tanh(X) embeddings are linearly separable."""
    rng = np.random.default_rng(1)
    n = 120
    labels = (np.arange(n) < 30).astype(np.int64)
    feats = rng.standard_normal((n, 2)) * 0.1
    feats[labels == 1, 0] += 3.0
    feats[labels == 0, 0] -= 3.0
    g = build_graph([], feats, labels)
    cfg = EncoderConfig(kind="gcn", input_dim=2, hidden_dim=2, num_layers=1,
                        activation="tanh")
    enc = init_encoder(cfg, seed=0)
    enc.layers[0][0].values = np.eye(2)
    enc.freeze()
    return g, enc


def test_finetune_separates_separable_embeddings():
    g, enc = separable_setup()
    split = make_semi_split(g, n_anom=5, n_norm=20, val_anom=5, val_norm=20, seed=0)
    result = finetune_run(enc, g, split, epochs=200, lr=0.01, seed=0)
    train_scores = score_nodes(enc, result.classifier, g, split.train_nodes)
    y = (g.labels[split.train_nodes] == 1).astype(int)
    assert auroc(train_scores.scores, y) == 1.0


def test_finetune_leaves_encoder_untouched():
    g = bench_graph()
    split = make_semi_split(g, seed=1)
    enc = frozen_encoder(g)
    before = [p.values.copy() for p in enc.params()]
    finetune_run(enc, g, split, epochs=30, seed=0)
    for p, b in zip(enc.params(), before):
        assert np.array_equal(p.values, b)


def test_finetune_ignores_test_labels():
    g = bench_graph(seed=2)
    split = make_semi_split(g, seed=2)
    enc = frozen_encoder(g, seed=2)
    r1 = finetune_run(enc, g, split, epochs=20, seed=3)

    flipped = g.labels.copy()
    flipped[split.test] = 1 - flipped[split.test]
    g2 = build_graph(g.edge_list(), g.features, flipped)
    enc2 = frozen_encoder(g2, seed=2)
    r2 = finetune_run(enc2, g2, split, epochs=20, seed=3)
    for a, b in zip(r1.classifier.params(), r2.classifier.params()):
        assert np.array_equal(a.values, b.values)


def test_finetune_deterministic():
    g = bench_graph(seed=3)
    split = make_semi_split(g, seed=0)
    enc = frozen_encoder(g, seed=1)
    a = finetune_run(enc, g, split, epochs=25, seed=5)
    b = finetune_run(enc, g, split, epochs=25, seed=5)
    assert a.losses == b.losses
    for pa, pb in zip(a.classifier.params(), b.classifier.params()):
        assert np.array_equal(pa.values, pb.values)


def test_end2end_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    n = 12
    edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(20)]
    labels = np.zeros(n, dtype=np.int64)
    labels[:3] = 1
    g = build_graph(edges, rng.standard_normal((n, 3)), labels)
    cfg = EncoderConfig(kind="gcn", input_dim=3, hidden_dim=4, num_layers=2,
                        activation="tanh")
    enc = init_encoder(cfg, seed=0)
    clf = init_classifier(4, seed=1)
    train_idx = np.arange(8)
    y = labels[train_idx].astype(np.float64).reshape(-1, 1)
    weights = np.where(y == 1, 5.0 / 3.0, 1.0)
    arrays = [p.values.copy() for p in enc.params() + clf.params()]

    def loss_from(*tensors):
        from gadkit.autodiff import bce_with_logits, gather_rows
        from gadkit.detector import classifier_logits
        from gadkit.encoders import encode
        it = iter(tensors)
        for layer in enc.layers:
            for i in range(len(layer)):
                layer[i] = next(it)
        clf.w1, clf.b1, clf.w2, clf.b2 = (next(it) for _ in range(4))
        h = encode(enc, g)
        return bce_with_logits(classifier_logits(gather_rows(h, train_idx), clf),
                               y, weights)

    assert_gradients_match(loss_from, arrays)


def test_end2end_deterministic_and_descending():
    g = bench_graph(seed=5)
    split = make_semi_split(g, seed=0)
    cfg = EncoderConfig(kind="gcn", input_dim=6, hidden_dim=8)
    a = end2end_run(cfg, g, split, epochs=60, seed=7)
    b = end2end_run(cfg, g, split, epochs=60, seed=7)
    for pa, pb in zip(a.encoder.params() + a.classifier.params(),
                      b.encoder.params() + b.classifier.params()):
        assert np.array_equal(pa.values, pb.values)
    assert a.losses[-1] < a.losses[0]


def test_score_nodes_zero_classifier_gives_half():
    g = bench_graph(seed=6)
    enc = frozen_encoder(g)
    clf = init_classifier(8, seed=0)
    for p in clf.params():
        p.values = np.zeros_like(p.values)
    sv = score_nodes(enc, clf, g, np.arange(10))
    assert np.allclose(sv.scores, 0.5)


def test_score_nodes_empty_subset():
    g = bench_graph(seed=6)
    enc = frozen_encoder(g)
    clf = init_classifier(8, seed=0)
    sv = score_nodes(enc, clf, g, np.empty(0, dtype=np.int64))
    assert sv.scores.size == 0


def test_score_nodes_subset_order_equivariant():
    g = bench_graph(seed=7)
    enc = frozen_encoder(g)
    clf = init_classifier(8, seed=1)
    subset = np.array([5, 17, 3, 42])
    sv = score_nodes(enc, clf, g, subset)
    perm = np.array([2, 0, 3, 1])
    sv2 = score_nodes(enc, clf, g, subset[perm])
    assert np.array_equal(sv2.scores, sv.scores[perm])


def test_score_nodes_strictly_inside_unit_interval():
    g = bench_graph(seed=8)
    enc = frozen_encoder(g)
    clf = init_classifier(8, seed=2)
    clf.b2.values = np.array([[1000.0]])  # saturate the sigmoid
    sv = score_nodes(enc, clf, g, np.arange(20))
    assert (sv.scores > 0.0).all() and (sv.scores < 1.0).all()


def test_score_nodes_validates_subset():
    g = bench_graph(seed=8)
    enc = frozen_encoder(g)
    clf = init_classifier(8, seed=2)
    with pytest.raises(ValueError, match="out of range"):
        score_nodes(enc, clf, g, [g.num_nodes])


def test_val_selection_tracks_best_auprc():
    g = bench_graph(seed=9)
    split = make_semi_split(g, seed=4)
    enc = frozen_encoder(g, seed=3)
    result = finetune_run(enc, g, split, epochs=40, seed=0)
    assert 0.0 <= result.val_auprc <= 1.0
    assert result.best_epoch < 40
    assert (result.best_epoch + 1) % 10 == 0 or result.best_epoch == 39


def _end2end_loop_before_train(encoder_config, graph, split, epochs, lr, seed):
    """end2end_run as it was written before it moved onto autodiff.train."""
    from gadkit.autodiff import (Adam, Tape, backward, bce_with_logits,
                                 gather_rows)
    from gadkit.detector import _probabilities, class_weights, classifier_logits
    from gadkit.encoders import encode
    from gadkit.metrics import auprc

    rng = np.random.default_rng(seed)
    enc_seed = int(rng.integers(2 ** 31))
    clf_seed = int(rng.integers(2 ** 31))
    encoder = init_encoder(encoder_config, enc_seed)
    clf = init_classifier(encoder_config.hidden_dim, clf_seed)
    train_idx, val_idx = split.train_nodes, split.val_nodes
    train_y = (graph.labels[train_idx] == 1).astype(np.float64)
    val_y = (graph.labels[val_idx] == 1).astype(np.float64)
    y_col = train_y.reshape(-1, 1)
    weights = class_weights(train_y).reshape(-1, 1)
    params = encoder.params() + clf.params()
    opt = Adam(params, lr=lr)
    losses = []
    best = None
    for epoch in range(epochs):
        opt.zero_grad()
        with Tape() as tape:
            h = encode(encoder, graph)
            logits = classifier_logits(gather_rows(h, train_idx), clf)
            loss = bce_with_logits(logits, y_col, weights)
        backward(tape, loss, params=params)
        opt.step()
        losses.append(loss.item())
        if (epoch + 1) % 10 == 0 or epoch == epochs - 1:
            h_val = encode(encoder, graph).values[val_idx]
            scores = _probabilities(classifier_logits(h_val, clf).values[:, 0])
            score = auprc(scores, val_y)
            if best is None or score > best[0]:
                best = (score, epoch, [p.values.copy() for p in params])
    for p, values in zip(params, best[2]):
        p.values = values
    h_val = encode(encoder, graph).values[val_idx]
    val_scores = _probabilities(classifier_logits(h_val, clf).values[:, 0])
    return encoder, clf, losses, best[1], best[0], val_scores


@pytest.mark.parametrize("kind", ["gcn", "gin"])
def test_end2end_matches_its_former_loop_bit_for_bit(kind):
    g = bench_graph(seed=10)
    split = make_semi_split(g, n_anom=8, n_norm=30, seed=2)
    cfg = EncoderConfig(kind=kind, input_dim=6, hidden_dim=8, activation="prelu")
    got = end2end_run(cfg, g, split, epochs=33, lr=0.01, seed=4)
    enc, clf, losses, best_epoch, val_auprc, val_scores = \
        _end2end_loop_before_train(cfg, g, split, 33, 0.01, 4)
    assert got.losses == losses
    assert got.best_epoch == best_epoch and got.val_auprc == val_auprc
    assert np.array_equal(got.val_scores.nodes, split.val_nodes)
    assert got.val_scores.scores.tobytes() == val_scores.tobytes()
    for a, b in zip(got.encoder.params() + got.classifier.params(),
                    enc.params() + clf.params()):
        assert a.values.tobytes() == b.values.tobytes()


def test_end2end_divergence_names_the_epoch():
    g = bench_graph(seed=11)
    split = make_semi_split(g, seed=0)
    cfg = EncoderConfig(kind="gcn", input_dim=6, hidden_dim=8)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="epoch"):
        end2end_run(cfg, g, split, epochs=20, lr=1e300, seed=0)
