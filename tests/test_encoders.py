from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from gadkit import autodiff as ad
from gadkit.autodiff import Tape, Tensor, backward, sum_all
from gadkit.detector import init_classifier
from gadkit.encoders import (ENCODER_KINDS, EncoderConfig, encode, init_encoder,
                             load_encoder, save_encoder)
from gadkit.graph import build_graph

from conftest import assert_gradients_match, random_graph


def small_graph(rng, n=10, d=4):
    return random_graph(rng, n, avg_degree=3.0, feature_dim=d)


def test_config_validation():
    with pytest.raises(ValueError, match="kind"):
        EncoderConfig(kind="gat", input_dim=4)
    with pytest.raises(ValueError, match="positive"):
        EncoderConfig(kind="gcn", input_dim=0)
    with pytest.raises(ValueError, match="layer"):
        EncoderConfig(kind="gcn", input_dim=4, num_layers=0)
    with pytest.raises(ValueError, match="activation"):
        EncoderConfig(kind="gcn", input_dim=4, activation="softmax")


def test_init_deterministic_per_seed():
    cfg = EncoderConfig(kind="gin", input_dim=6, hidden_dim=8, num_layers=2)
    a = init_encoder(cfg, seed=5)
    b = init_encoder(cfg, seed=5)
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa.values, pb.values)
    c = init_encoder(cfg, seed=6)
    assert any(not np.array_equal(pa.values, pc.values)
               for pa, pc in zip(a.params(), c.params()))


def test_gcn_weight_shapes():
    cfg = EncoderConfig(kind="gcn", input_dim=16, hidden_dim=32, num_layers=2)
    enc = init_encoder(cfg, seed=0)
    shapes = [w.shape for w, _ in enc.layers]
    assert shapes == [(16, 32), (32, 32)]
    assert all(b.shape == (1, 32) for _, b in enc.layers)


def test_glorot_bounds():
    cfg = EncoderConfig(kind="gcn", input_dim=16, hidden_dim=32, num_layers=3)
    enc = init_encoder(cfg, seed=1)
    for w, _ in enc.layers:
        fan_in, fan_out = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w.values).max() <= bound


def _reference_glorot(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _reference_encoder_layers(config, seed):
    """The per-kind initialization loop written out by hand."""
    rng = np.random.default_rng(seed)
    layers = []
    in_dim, out_dim = config.input_dim, config.hidden_dim
    for _ in range(config.num_layers):
        if config.kind == "gcn":
            layers.append([_reference_glorot(rng, in_dim, out_dim), np.zeros((1, out_dim))])
        else:
            w1 = _reference_glorot(rng, in_dim, out_dim)
            w2 = _reference_glorot(rng, out_dim, out_dim)
            layers.append([w1, np.zeros((1, out_dim)), w2, np.zeros((1, out_dim))])
        in_dim = out_dim
    return layers


def _reference_classifier(input_dim, seed):
    rng = np.random.default_rng(seed)
    w1 = _reference_glorot(rng, input_dim, input_dim)
    w2 = _reference_glorot(rng, input_dim, 1)
    return [w1, np.zeros((1, input_dim)), w2, np.zeros((1, 1))]


def _assert_same_arrays(tensors, arrays):
    assert len(tensors) == len(arrays)
    for t, a in zip(tensors, arrays):
        assert t.requires_grad
        assert t.values.dtype == a.dtype and t.values.shape == a.shape
        assert np.array_equal(t.values, a)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(ENCODER_KINDS), input_dim=st.integers(1, 20),
       hidden_dim=st.integers(1, 40), num_layers=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_initialization_matches_the_hand_written_loops(kind, input_dim, hidden_dim,
                                                       num_layers, seed):
    cfg = EncoderConfig(kind=kind, input_dim=input_dim, hidden_dim=hidden_dim,
                        num_layers=num_layers)
    state = init_encoder(cfg, seed)
    reference = _reference_encoder_layers(cfg, seed)
    assert len(state.layers) == len(reference)
    for layer, ref in zip(state.layers, reference):
        _assert_same_arrays(layer, ref)
    _assert_same_arrays(state.params(), [a for ref in reference for a in ref])
    clf = init_classifier(hidden_dim, seed)
    _assert_same_arrays([clf.w1, clf.b1, clf.w2, clf.b2],
                        _reference_classifier(hidden_dim, seed))


def test_zero_weights_give_constant_rows():
    rng = np.random.default_rng(2)
    g = small_graph(rng)
    cfg = EncoderConfig(kind="gcn", input_dim=4, hidden_dim=3, num_layers=2,
                        activation="sigmoid")
    enc = init_encoder(cfg, seed=0)
    for p in enc.params():
        p.values = np.zeros_like(p.values)
    h = encode(enc, g).values
    assert np.allclose(h, 0.5)  # sigmoid(0) rows, identical across nodes
    assert np.abs(h - h[0]).max() == 0.0


def test_single_gcn_layer_matches_hand_computation():
    g = build_graph([(0, 1)], np.array([[1.0, 2.0], [3.0, 4.0]]))
    cfg = EncoderConfig(kind="gcn", input_dim=2, hidden_dim=2, num_layers=1,
                        activation="tanh")
    enc = init_encoder(cfg, seed=0)
    w = np.array([[1.0, -1.0], [0.5, 2.0]])
    enc.layers[0][0].values = w.copy()
    a_hat = np.full((2, 2), 0.5)
    expect = np.tanh(a_hat @ g.features @ w)
    got = encode(enc, g).values
    assert np.abs(got - expect).max() < 1e-12


@pytest.mark.parametrize("kind", ["gcn", "gin"])
def test_permutation_equivariance(kind):
    rng = np.random.default_rng(7)
    n, d = 15, 4
    g = small_graph(rng, n=n, d=d)
    cfg = EncoderConfig(kind=kind, input_dim=d, hidden_dim=5, num_layers=2)
    enc = init_encoder(cfg, seed=3)
    h = encode(enc, g).values

    perm = rng.permutation(n)
    remapped = [(perm[u], perm[v]) for u, v in g.edge_list()]
    feats = np.empty_like(g.features)
    feats[perm] = g.features
    g2 = build_graph(remapped, feats)
    h2 = encode(enc, g2).values
    assert np.abs(h2[perm] - h).max() < 1e-10


@pytest.mark.parametrize("kind", ["gcn", "gin"])
def test_encode_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(11)
    g = small_graph(rng, n=8, d=3)
    cfg = EncoderConfig(kind=kind, input_dim=3, hidden_dim=4, num_layers=2,
                        activation="tanh")
    enc = init_encoder(cfg, seed=1)
    arrays = [p.values.copy() for p in enc.params()]

    def loss_from(*weights):
        it = iter(weights)
        for layer in enc.layers:
            for i in range(len(layer)):
                layer[i] = next(it)
        return sum_all(encode(enc, g))

    assert_gradients_match(loss_from, arrays)


def _gin_with_unit_scale(enc, g, x):
    """GIN forward as first written: a recorded ×1.0 node and separate biases."""
    adj = g.adjacency
    h = x
    for w1, b1, w2, b2 in enc.layers:
        z = ad.add(ad.scale(h, 1.0), ad.spmm(adj, h))
        z = ad.activation(ad.add_bias(ad.matmul(z, w1), b1), enc.config.activation)
        h = ad.activation(ad.add_bias(ad.matmul(z, w2), b2), enc.config.activation)
    return h


def test_gin_matches_unit_scale_form_bit_for_bit():
    rng = np.random.default_rng(37)
    g = small_graph(rng, n=12, d=3)
    cfg = EncoderConfig(kind="gin", input_dim=3, hidden_dim=5, num_layers=2,
                        activation="prelu")
    features = rng.standard_normal((12, 3))
    probe = rng.standard_normal((12, 5))

    def run(forward):
        enc = init_encoder(cfg, seed=4)
        x = Tensor(features, requires_grad=True)
        with Tape() as tape:
            h = forward(enc, x)
            loss = sum_all(ad.activation(ad.add(h, Tensor(probe)), "tanh"))
        backward(tape, loss)
        return [h.values, x.grad] + [p.grad for p in enc.params()]

    got = run(lambda enc, x: encode(enc, g, features_override=x))
    expect = run(lambda enc, x: _gin_with_unit_scale(enc, g, x))
    for a, b in zip(got, expect):
        assert a.tobytes() == b.tobytes()


def test_features_override_identity():
    rng = np.random.default_rng(13)
    g = small_graph(rng)
    enc = init_encoder(EncoderConfig(kind="gcn", input_dim=4, hidden_dim=4), seed=0)
    a = encode(enc, g).values
    b = encode(enc, g, features_override=g.features).values
    assert np.array_equal(a, b)


def test_features_override_flows_gradients():
    rng = np.random.default_rng(17)
    g = small_graph(rng, n=6, d=3)
    enc = init_encoder(EncoderConfig(kind="gcn", input_dim=3, hidden_dim=2), seed=0)
    x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(encode(enc, g, features_override=x))
    backward(tape, loss)
    assert x.grad is not None and np.abs(x.grad).max() > 0


def test_encode_rejects_wrong_width():
    rng = np.random.default_rng(19)
    g = small_graph(rng, d=4)
    enc = init_encoder(EncoderConfig(kind="gcn", input_dim=5, hidden_dim=4), seed=0)
    with pytest.raises(ValueError, match="does not match"):
        encode(enc, g)


@pytest.mark.parametrize("kind", ["gcn", "gin"])
def test_checkpoint_round_trip(tmp_path, kind):
    rng = np.random.default_rng(23)
    g = small_graph(rng, d=4)
    cfg = EncoderConfig(kind=kind, input_dim=4, hidden_dim=6, num_layers=2,
                        activation="prelu")
    enc = init_encoder(cfg, seed=9)
    enc.freeze()
    path = tmp_path / "enc.bin"
    save_encoder(enc, str(path))
    loaded = load_encoder(str(path))
    assert loaded.config == cfg
    assert loaded.frozen
    for pa, pb in zip(enc.params(), loaded.params()):
        assert np.array_equal(pa.values, pb.values)
    assert np.array_equal(encode(enc, g).values,
                          encode(loaded, g).values)


def test_frozen_encoder_records_no_gradients():
    rng = np.random.default_rng(29)
    g = small_graph(rng, d=4)
    enc = init_encoder(EncoderConfig(kind="gcn", input_dim=4, hidden_dim=4), seed=0)
    enc.freeze()
    with Tape() as tape:
        encode(enc, g)
    assert not tape._nodes


def test_load_encoder_rejects_foreign_file(tmp_path):
    path = tmp_path / "not_a_checkpoint.bin"
    path.write_bytes(b"garbage garbage garbage")
    with pytest.raises(ValueError, match="not an encoder checkpoint"):
        load_encoder(str(path))
