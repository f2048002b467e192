import numpy as np
import pytest

from gadkit.encoders import EncoderConfig, init_encoder
from gadkit.graph import build_graph
from gadkit.graphlevel import (GraphCollection, _collection_pretrain,
                               downsample_class, graph_readout,
                               graphlevel_pipeline, load_collection,
                               save_collection, stratified_graph_split)


def clique(n, rng, d=2):
    # anomalous class: dense structure plus a feature shift, so every
    # encoder sees a clean separation signal
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return build_graph(edges, 1.0 + rng.standard_normal((n, d)))


def path(n, rng, d=2):
    edges = [(i, i + 1) for i in range(n - 1)]
    return build_graph(edges, rng.standard_normal((n, d)))


def toy_collection(n_clique=40, n_path=40, seed=0):
    rng = np.random.default_rng(seed)
    graphs = [clique(6, rng) for _ in range(n_clique)]
    graphs += [path(6, rng) for _ in range(n_path)]
    classes = np.array([0] * n_clique + [1] * n_path)
    return GraphCollection(graphs=tuple(graphs), class_ids=classes)


def test_downsample_dd_row():
    # 691 class-0 graphs at 10% keep -> 69 sampled anomalies
    rng = np.random.default_rng(1)
    graphs = tuple(path(2, rng) for _ in range(691 + 487))
    classes = np.array([0] * 691 + [1] * 487)
    coll = GraphCollection(graphs=graphs, class_ids=classes)
    down = downsample_class(coll, 0, keep_fraction=0.10, seed=0)
    assert int((down.labels == 1).sum()) == 69
    assert int((down.labels == 0).sum()) == 487
    assert len(down) == 69 + 487


def test_downsample_keep_all():
    coll = toy_collection(10, 15)
    down = downsample_class(coll, 1, keep_fraction=1.0, seed=0)
    assert len(down) == 25
    assert int((down.labels == 1).sum()) == 15


def test_downsample_deterministic_subset_preserving():
    coll = toy_collection(30, 20)
    a = downsample_class(coll, 0, keep_fraction=0.2, seed=3)
    b = downsample_class(coll, 0, keep_fraction=0.2, seed=3)
    assert np.array_equal(a.labels, b.labels)
    assert all(ga is gb for ga, gb in zip(a.graphs, b.graphs))
    # every non-target graph survives, in order
    kept_paths = [g for g, c in zip(a.graphs, a.class_ids) if c == 1]
    orig_paths = [g for g, c in zip(coll.graphs, coll.class_ids) if c == 1]
    assert all(x is y for x, y in zip(kept_paths, orig_paths))


def test_downsample_errors():
    coll = toy_collection(10, 10)
    with pytest.raises(ValueError, match="absent"):
        downsample_class(coll, 7)
    with pytest.raises(ValueError, match="retains no graphs"):
        downsample_class(coll, 0, keep_fraction=0.01)


def test_readout_single_node_graph():
    g = build_graph([], np.array([[1.0, -2.0]]))
    enc = init_encoder(EncoderConfig(kind="gcn", input_dim=2, hidden_dim=3), 0)
    out = graph_readout(enc, g)
    from gadkit.encoders import encode
    h = encode(enc, g).values
    assert np.array_equal(out.values, h)


def test_readout_permutation_invariant():
    rng = np.random.default_rng(2)
    g = clique(7, rng, d=3)
    enc = init_encoder(EncoderConfig(kind="gin", input_dim=3, hidden_dim=4), 1)
    base = graph_readout(enc, g).values

    perm = rng.permutation(7)
    feats = np.empty_like(g.features)
    feats[perm] = g.features
    g2 = build_graph([(perm[u], perm[v]) for u, v in g.edge_list()], feats)
    assert np.abs(graph_readout(enc, g2).values - base).max() < 1e-10


def test_readout_zero_weights():
    rng = np.random.default_rng(3)
    g = path(5, rng)
    enc = init_encoder(EncoderConfig(kind="gcn", input_dim=2, hidden_dim=3,
                                     activation="sigmoid"), 0)
    for p in enc.params():
        p.values = np.zeros_like(p.values)
    assert np.allclose(graph_readout(enc, g).values, 0.5)


def test_stratified_split_ceilings():
    labels = np.array([1] * 50 + [0] * 450)
    train, val, test = stratified_graph_split(labels, 0.05, seed=0)
    assert int(labels[train].sum()) == 3  # ceil(0.05 * 50)
    assert int((labels[train] == 0).sum()) == 23  # ceil(0.05 * 450)
    assert int(labels[val].sum()) == 3
    assert train.size + val.size + test.size == 500
    assert np.intersect1d(train, val).size == 0
    assert np.intersect1d(train, test).size == 0


def test_stratified_split_rejects_empty_stratum():
    labels = np.array([1] * 2 + [0] * 50)
    with pytest.raises(ValueError, match="stratum too small"):
        stratified_graph_split(labels, 0.4, seed=0)


@pytest.mark.parametrize("mode", ["dgi", "graphmae", "end2end"])
def test_pipeline_separates_cliques_from_paths(mode):
    coll = downsample_class(toy_collection(40, 40, seed=4), 0,
                            keep_fraction=0.25, seed=0)
    enc = EncoderConfig(kind="gcn", input_dim=2, hidden_dim=8,
                        activation="prelu" if mode == "dgi" else "relu")
    result = graphlevel_pipeline(coll, mode, enc, train_ratio=0.2, epochs=200,
                                 lr=0.01, pretrain_epochs=60, seed=0)
    assert result.auroc > 0.9


def test_pipeline_deterministic():
    coll = downsample_class(toy_collection(20, 20, seed=5), 0,
                            keep_fraction=0.5, seed=1)
    enc = EncoderConfig(kind="gcn", input_dim=2, hidden_dim=4)
    a = graphlevel_pipeline(coll, "dgi", enc, train_ratio=0.2, epochs=20,
                            pretrain_epochs=5, seed=2)
    b = graphlevel_pipeline(coll, "dgi", enc, train_ratio=0.2, epochs=20,
                            pretrain_epochs=5, seed=2)
    assert a.auroc == b.auroc and a.auprc == b.auprc
    assert np.array_equal(a.test_scores, b.test_scores)


def test_pipeline_requires_labels():
    coll = toy_collection(5, 5)
    enc = EncoderConfig(kind="gcn", input_dim=2, hidden_dim=4)
    with pytest.raises(ValueError, match="no labels"):
        graphlevel_pipeline(coll, "dgi", enc)


def test_collection_pretrain_ignores_labels():
    base = toy_collection(6, 6, seed=6)
    flipped = GraphCollection(graphs=base.graphs, class_ids=base.class_ids,
                              labels=1 - np.arange(12) % 2)
    labeled = GraphCollection(graphs=base.graphs, class_ids=base.class_ids,
                              labels=np.arange(12) % 2)
    enc_cfg = EncoderConfig(kind="gcn", input_dim=2, hidden_dim=4)
    a, _ = _collection_pretrain(labeled, enc_cfg, "dgi", 5, 0.005, 0, 1.0, 0.5, 2.0)
    b, _ = _collection_pretrain(flipped, enc_cfg, "dgi", 5, 0.005, 0, 1.0, 0.5, 2.0)
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa.values, pb.values)


def test_manifest_round_trip(tmp_path):
    coll = toy_collection(3, 2, seed=7)
    manifest = save_collection(coll, str(tmp_path / "coll"))
    loaded = load_collection(manifest)
    assert len(loaded) == 5
    assert np.array_equal(loaded.class_ids, coll.class_ids)
    for ga, gb in zip(coll.graphs, loaded.graphs):
        assert np.array_equal(ga.indices, gb.indices)
        assert np.array_equal(ga.features, gb.features)


@pytest.mark.parametrize("kwargs", [{"mode": "end2end", "epochs": 0},
                                    {"mode": "dgi", "pretrain_epochs": 0},
                                    {"mode": "graphmae", "pretrain_epochs": 0}])
def test_pipeline_rejects_zero_epochs(kwargs):
    coll = downsample_class(toy_collection(20, 20), 1, keep_fraction=0.5, seed=0)
    enc = EncoderConfig(kind="gcn", input_dim=2, hidden_dim=4)
    with pytest.raises(ValueError, match="epochs"):
        graphlevel_pipeline(coll, encoder_config=enc, train_ratio=0.2, **kwargs)


def _end2end_graphs_before_train(collection, encoder_config, train_idx, val_idx,
                                 epochs, lr, seed):
    """Graph-level end-to-end training as written before autodiff.train."""
    from gadkit.autodiff import (Adam, Tape, backward, bce_with_logits,
                                 concat_rows)
    from gadkit.detector import (_probabilities, class_weights,
                                 classifier_logits, init_classifier)
    from gadkit.metrics import auprc

    def readout_matrix(encoder, graphs):
        return np.vstack([graph_readout(encoder, g).values for g in graphs])

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
        if (epoch + 1) % 10 == 0 or epoch == epochs - 1:
            scores = _probabilities(classifier_logits(
                readout_matrix(encoder, val_graphs), clf).values[:, 0])
            score = auprc(scores, y_val)
            if best is None or score > best[0]:
                best = (score, epoch, [p.values.copy() for p in params])
    for p, values in zip(params, best[2]):
        p.values = values
    return encoder, clf, losses, best[1], best[0]


@pytest.mark.parametrize("kind", ["gcn", "gin"])
def test_end2end_matches_its_former_loop_bit_for_bit(kind):
    from gadkit.autodiff import concat_rows
    from gadkit.detector import _probabilities, classifier_logits, joint_fit

    coll = downsample_class(toy_collection(30, 30, seed=5), 1,
                            keep_fraction=0.5, seed=0)
    cfg = EncoderConfig(kind=kind, input_dim=2, hidden_dim=4, activation="prelu")
    train_idx, val_idx, test_idx = stratified_graph_split(coll.labels, 0.2, 3)
    enc, clf, losses, best_epoch, val_auprc = _end2end_graphs_before_train(
        coll, cfg, train_idx, val_idx, 23, 0.01, 3)
    readouts = np.vstack([graph_readout(enc, g).values for g in coll.graphs])
    test_scores = _probabilities(
        classifier_logits(readouts[test_idx], clf).values[:, 0])

    res = graphlevel_pipeline(coll, "end2end", cfg, train_ratio=0.2, epochs=23,
                              lr=0.01, seed=3)
    assert res.losses == losses and res.val_auprc == val_auprc
    assert res.test_scores.tobytes() == test_scores.tobytes()

    def rows(encoder, idx):
        return concat_rows([graph_readout(encoder, coll.graphs[i]) for i in idx])

    fit = joint_fit(cfg, rows, train_idx, coll.labels[train_idx], val_idx,
                    coll.labels[val_idx], 23, 0.01, 3)
    assert fit.losses == losses
    assert fit.best_epoch == best_epoch and fit.val_auprc == val_auprc
    for a, b in zip(fit.encoder.params() + fit.classifier.params(),
                    enc.params() + clf.params()):
        assert a.values.tobytes() == b.values.tobytes()
