import os
from pathlib import Path
import subprocess
import sys

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from gadkit import pretrain as pt
from gadkit.autodiff import (Tape, Tensor, activation, add, add_bias, backward,
                             bce_with_logits, gather_rows, matmul, mean_rows,
                             row_substitute, scale, scaled_cosine_error, spmm,
                             transpose, zero_rows)
from gadkit.encoders import EncoderConfig, encode, init_encoder
from gadkit.graph import build_graph
from gadkit.pretrain import (DgiConfig, MaeConfig, corruption_plan, dgi_corrupt,
                             dgi_loss, graphmae_loss, pretrain_run)

from conftest import assert_gradients_match, random_graph


def test_corrupt_identity_at_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 3))
    out = dgi_corrupt(x, 0.0, np.random.default_rng(1))
    assert np.array_equal(out, x)


def test_corrupt_full_shuffle_preserves_multiset():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10, 4))
    out = dgi_corrupt(x, 1.0, np.random.default_rng(2))
    assert not np.array_equal(out, x)
    assert np.array_equal(np.sort(out, axis=0), np.sort(x, axis=0))


def test_corrupt_half_matches_recorded_selection():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((10, 2))
    out = dgi_corrupt(x, 0.5, np.random.default_rng(7))
    rows, perm = corruption_plan(10, 0.5, np.random.default_rng(7))
    assert rows.size == 5
    untouched = np.setdiff1d(np.arange(10), rows)
    assert np.array_equal(out[untouched], x[untouched])
    assert np.array_equal(out[rows], x[rows[perm]])


def test_corrupt_rejects_bad_ratio():
    with pytest.raises(ValueError, match="ratio"):
        dgi_corrupt(np.zeros((4, 2)), 1.5, np.random.default_rng(0))


def chain_graph(n=10, d=3, seed=0):
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    return build_graph(edges, rng.standard_normal((n, d)))


def test_dgi_loss_is_ln2_with_zero_discriminator():
    g = chain_graph()
    for enc_seed in (0, 1, 2):
        enc = init_encoder(EncoderConfig(kind="gcn", input_dim=3, hidden_dim=4),
                           seed=enc_seed)
        cfg = DgiConfig.create(4, shuffle_ratio=1.0, seed=0)
        cfg.w_disc.values = np.zeros((4, 4))
        loss = dgi_loss(enc, g, cfg, np.random.default_rng(0))
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-14)


def test_dgi_loss_saturates_under_perfect_separation(monkeypatch):
    # isolated nodes, constant features: the encoder maps every row to
    # tanh(20) ~ +1; corruption is patched to negate features, so negatives
    # land at -1 and a large discriminator weight separates them perfectly.
    g = build_graph([], np.ones((6, 1)))
    enc = init_encoder(EncoderConfig(kind="gcn", input_dim=1, hidden_dim=1,
                                     num_layers=1, activation="tanh"), seed=0)
    enc.layers[0][0].values = np.array([[20.0]])
    cfg = DgiConfig.create(1, shuffle_ratio=1.0, seed=0)
    cfg.w_disc.values = np.array([[70.0]])
    monkeypatch.setattr(pt, "dgi_corrupt", lambda x, p, rng: -x)
    loss = dgi_loss(enc, g, cfg, np.random.default_rng(0))
    assert loss.item() < 1e-12


def test_dgi_loss_checks_dimensions():
    g = chain_graph()
    enc = init_encoder(EncoderConfig(kind="gcn", input_dim=3, hidden_dim=4), seed=0)
    cfg = DgiConfig.create(5, seed=0)
    with pytest.raises(ValueError, match="hidden"):
        dgi_loss(enc, g, cfg, np.random.default_rng(0))


def test_dgi_gradient_matches_finite_differences():
    g = chain_graph(n=7, d=2, seed=5)
    enc = init_encoder(EncoderConfig(kind="gcn", input_dim=2, hidden_dim=3,
                                     num_layers=2, activation="tanh"), seed=1)
    cfg = DgiConfig.create(3, shuffle_ratio=0.6, seed=2)
    arrays = [p.values.copy() for p in enc.params()] + [cfg.w_disc.values.copy()]

    def loss_from(*tensors):
        it = iter(tensors)
        for layer in enc.layers:
            for i in range(len(layer)):
                layer[i] = next(it)
        cfg.w_disc = next(it)
        return dgi_loss(enc, g, cfg, np.random.default_rng(11))

    assert_gradients_match(loss_from, arrays)


def node_level_dgi_loss(encoder_state, graph, config, rng):
    """dgi_loss as written for a single graph, before member graphs."""
    h_pos = encode(encoder_state, graph)
    corrupted = dgi_corrupt(graph.features, config.shuffle_ratio, rng)
    h_neg = encode(encoder_state, graph, features_override=corrupted)
    summary = activation(mean_rows(h_pos), "sigmoid")
    pos_logits = matmul(h_pos, matmul(config.w_disc, transpose(summary)))
    neg_logits = matmul(h_neg, matmul(config.w_disc, transpose(summary)))
    n = graph.num_nodes
    loss_pos = bce_with_logits(pos_logits, np.ones((n, 1)))
    loss_neg = bce_with_logits(neg_logits, np.zeros((n, 1)))
    return scale(add(loss_pos, loss_neg), 0.5)


def node_level_graphmae_loss(encoder_state, graph, config, rng):
    """graphmae_loss as written for a single graph, before member graphs."""
    mask = pt.draw_mask(graph.num_nodes, config.mask_ratio, rng)
    return pt.masked_reconstruction_loss(encoder_state, graph, config, mask)


@settings(max_examples=60, deadline=None)
@given(objective=st.sampled_from(pt.OBJECTIVES), kind=st.sampled_from(["gcn", "gin"]),
       n=st.integers(1, 12), d=st.integers(1, 4), hidden=st.integers(1, 5),
       shuffle_ratio=st.floats(0.0, 1.0, exclude_max=True),
       mask_ratio=st.floats(0.01, 0.99), gamma=st.floats(1.0, 3.0),
       seed=st.integers(0, 2 ** 31 - 1))
def test_one_member_losses_are_the_node_level_losses_bit_for_bit(
        objective, kind, n, d, hidden, shuffle_ratio, mask_ratio, gamma, seed):
    graph = random_graph(np.random.default_rng(seed), n, feature_dim=d)
    cfg = EncoderConfig(kind=kind, input_dim=d, hidden_dim=hidden, activation="prelu")
    node_level = {"dgi": node_level_dgi_loss, "graphmae": node_level_graphmae_loss}

    def loss_and_grads(loss_fn):
        encoder, obj, _, rng = pt.init_pretext(cfg, objective, seed, shuffle_ratio,
                                               mask_ratio, gamma)
        params = encoder.params() + obj.params()
        with Tape() as tape:
            loss = loss_fn(encoder, graph, obj, rng)
        backward(tape, loss, params=params)
        return [loss.values.tobytes()] + [p.grad.tobytes() for p in params]

    assert graph.graph_ptr.tolist() == [0, n]
    expect = loss_and_grads(node_level[objective])
    got = loss_and_grads(dgi_loss if objective == "dgi" else graphmae_loss)
    assert got == expect


def test_graphmae_loss_zero_when_decoder_hits_targets():
    # identical feature rows everywhere; zero decoder weight and bias equal to
    # that row reconstruct the target exactly, so the masked SCE vanishes
    row = np.array([1.0, 2.0, -0.5])
    g = build_graph([(0, 1), (1, 2), (2, 3)], np.tile(row, (4, 1)))
    enc = init_encoder(EncoderConfig(kind="gcn", input_dim=3, hidden_dim=2), seed=0)
    cfg = MaeConfig.create(3, 2, mask_ratio=0.5, gamma=2.0, seed=0)
    cfg.w_dec.values = np.zeros((2, 3))
    cfg.b_dec.values = row.reshape(1, 3).copy()
    loss = graphmae_loss(enc, g, cfg, np.random.default_rng(0))
    assert loss.item() == pytest.approx(0.0, abs=1e-15)


def test_graphmae_full_mask_reduces_to_unrestricted_sce():
    rng_seed = 13
    g = chain_graph(n=10, d=3, seed=9)
    enc = init_encoder(EncoderConfig(kind="gcn", input_dim=3, hidden_dim=4), seed=1)
    cfg = MaeConfig.create(3, 4, mask_ratio=0.99, gamma=2.0, seed=2)  # ceil -> all
    loss = graphmae_loss(enc, g, cfg, np.random.default_rng(rng_seed))

    # with every row masked, H is all zeros after re-masking and the decoder
    # emits its bias row everywhere; SCE over all rows must agree
    x_hat = np.tile(cfg.b_dec.values, (10, 1))
    expect = scaled_cosine_error(Tensor(g.features), Tensor(x_hat), 2.0).item()
    assert loss.item() == pytest.approx(expect, rel=1e-12)


def test_graphmae_loss_reads_only_masked_rows():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((8, 4))
    x_hat_a = rng.standard_normal((8, 4))
    mask = np.array([1, 4, 6])
    x_hat_b = x_hat_a.copy()
    unmasked = np.setdiff1d(np.arange(8), mask)
    x_hat_b[unmasked] = rng.standard_normal((unmasked.size, 4))
    la = scaled_cosine_error(gather_rows(Tensor(x), mask),
                             gather_rows(Tensor(x_hat_a), mask), 2.0)
    lb = scaled_cosine_error(gather_rows(Tensor(x), mask),
                             gather_rows(Tensor(x_hat_b), mask), 2.0)
    assert la.item() == lb.item()


def test_graphmae_gradient_matches_finite_differences():
    g = chain_graph(n=6, d=2, seed=3)
    enc = init_encoder(EncoderConfig(kind="gcn", input_dim=2, hidden_dim=3,
                                     num_layers=1, activation="tanh"), seed=4)
    cfg = MaeConfig.create(2, 3, mask_ratio=0.5, gamma=2.0, seed=5)
    cfg.mask_token.values = np.array([[0.3, -0.7]])  # off-zero token exercises its grad
    arrays = ([p.values.copy() for p in enc.params()]
              + [cfg.mask_token.values.copy(), cfg.w_dec.values.copy(),
                 cfg.b_dec.values.copy()])

    def loss_from(*tensors):
        it = iter(tensors)
        for layer in enc.layers:
            for i in range(len(layer)):
                layer[i] = next(it)
        cfg.mask_token = next(it)
        cfg.w_dec = next(it)
        cfg.b_dec = next(it)
        return graphmae_loss(enc, g, cfg, np.random.default_rng(19))

    assert_gradients_match(loss_from, arrays)


def test_config_validation():
    with pytest.raises(ValueError, match="shuffle ratio"):
        DgiConfig.create(4, shuffle_ratio=-0.1)
    with pytest.raises(ValueError, match="mask ratio"):
        MaeConfig.create(4, 4, mask_ratio=0.0)
    with pytest.raises(ValueError, match="gamma"):
        MaeConfig.create(4, 4, gamma=0.5)


def test_mae_config_rejects_nan_gamma():
    with pytest.raises(ValueError, match="gamma"):
        MaeConfig.create(4, 4, gamma=float("nan"))


def pretrain_graph(seed=0):
    rng = np.random.default_rng(seed)
    return random_graph(rng, 100, avg_degree=4.0, feature_dim=6)


def test_pretrain_rejects_zero_epochs():
    g = pretrain_graph()
    cfg = EncoderConfig(kind="gcn", input_dim=6, hidden_dim=8)
    with pytest.raises(ValueError, match="epochs"):
        pretrain_run(g, cfg, "dgi", epochs=0)
    with pytest.raises(ValueError, match="objective"):
        pretrain_run(g, cfg, "simclr", epochs=10)


def test_pretrain_rejects_a_negative_lr():
    # a negative step size used to run gradient ascent without an error
    g = pretrain_graph()
    cfg = EncoderConfig(kind="gcn", input_dim=6, hidden_dim=8)
    with pytest.raises(ValueError, match="lr must be finite and positive"):
        pretrain_run(g, cfg, "dgi", epochs=3, lr=-1.0)


def test_pretrain_dgi_loss_descends():
    g = pretrain_graph()
    cfg = EncoderConfig(kind="gcn", input_dim=6, hidden_dim=8, activation="prelu")
    result = pretrain_run(g, cfg, "dgi", epochs=200, lr=0.005, seed=0)
    assert result.encoder.frozen
    assert len(result.losses) == 200
    assert result.losses[-1] < result.losses[0]


def test_pretrain_graphmae_loss_trends_down():
    # the mask is redrawn per epoch, so compare smoothed ends of the curve
    g = pretrain_graph()
    cfg = EncoderConfig(kind="gcn", input_dim=6, hidden_dim=8, activation="relu")
    result = pretrain_run(g, cfg, "graphmae", epochs=200, lr=0.005, seed=0)
    assert result.encoder.frozen
    assert np.mean(result.losses[-20:]) < np.mean(result.losses[:20])


def test_pretrain_deterministic_per_seed():
    g = pretrain_graph()
    cfg = EncoderConfig(kind="gin", input_dim=6, hidden_dim=8)
    a = pretrain_run(g, cfg, "dgi", epochs=12, seed=4)
    b = pretrain_run(g, cfg, "dgi", epochs=12, seed=4)
    assert a.losses == b.losses
    for pa, pb in zip(a.encoder.params(), b.encoder.params()):
        assert np.array_equal(pa.values, pb.values)
    c = pretrain_run(g, cfg, "dgi", epochs=12, seed=5)
    assert a.losses != c.losses


@pytest.mark.parametrize("objective", ["dgi", "graphmae"])
def test_pretrain_never_reads_labels(objective):
    g = pretrain_graph(seed=6)
    flipped = build_graph(g.edge_list(), g.features, 1 - g.labels)
    cfg = EncoderConfig(kind="gcn", input_dim=6, hidden_dim=4)
    a = pretrain_run(g, cfg, objective, epochs=8, seed=1)
    b = pretrain_run(flipped, cfg, objective, epochs=8, seed=1)
    assert a.losses == b.losses
    for pa, pb in zip(a.encoder.params(), b.encoder.params()):
        assert np.array_equal(pa.values, pb.values)


def test_loss_curve_csv(tmp_path):
    from gadkit.pretrain import save_loss_curve
    path = tmp_path / "losses.csv"
    save_loss_curve([0.5, 0.25], str(path))
    assert path.read_text() == "epoch,loss\n0,0.5\n1,0.25\n"


def test_a_loss_curve_that_fails_midway_keeps_the_old_file_whole(tmp_path):
    from gadkit.pretrain import save_loss_curve
    path = tmp_path / "losses.csv"
    save_loss_curve([0.5, 0.25], str(path))

    def diverging():
        yield 0.125
        raise RuntimeError("training diverged")
    with pytest.raises(RuntimeError, match="diverged"):
        save_loss_curve(diverging(), str(path))
    assert path.read_text() == "epoch,loss\n0,0.5\n1,0.25\n"
    assert os.listdir(tmp_path) == ["losses.csv"]


@pytest.mark.parametrize("kind", ["gcn", "gin"])
def test_decoder_bias_in_matmul_matches_add_bias_bit_for_bit(monkeypatch, kind):
    calls = []

    def add_bias_decoder_loss(encoder_state, graph, config, mask, weights=None):
        # the decoder as first written, with its bias in a separate add_bias
        calls.append(mask)
        x = Tensor(graph.features)
        h = encode(encoder_state, graph,
                   features_override=row_substitute(x, mask, config.mask_token))
        x_hat = add_bias(matmul(spmm(graph.normalized_adjacency, zero_rows(h, mask)),
                                config.w_dec), config.b_dec)
        return scaled_cosine_error(gather_rows(x, mask), gather_rows(x_hat, mask),
                                   config.gamma, weights)

    g = pretrain_graph(seed=2)
    cfg = EncoderConfig(kind=kind, input_dim=6, hidden_dim=8, activation="relu")
    fused = pretrain_run(g, cfg, "graphmae", epochs=15, seed=3)
    monkeypatch.setattr(pt, "masked_reconstruction_loss", add_bias_decoder_loss)
    separate = pretrain_run(g, cfg, "graphmae", epochs=15, seed=3)
    assert len(calls) == 15
    assert fused.losses == separate.losses
    for a, b in zip(fused.encoder.params(), separate.encoder.params()):
        assert a.values.tobytes() == b.values.tobytes()


# a direct 20-epoch DGI + GIN pre-training after a warm-up, counting the
# minor page faults it takes
_DIRECT_PRETRAIN = """
import resource
from gadkit import EncoderConfig, SyntheticSpec, generate_synthetic, pretrain_run
graph = generate_synthetic(SyntheticSpec())
enc = EncoderConfig(kind="gin", input_dim=graph.features.shape[1], activation="prelu")
pretrain_run(graph, enc, "dgi", epochs=2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
pretrain_run(graph, enc, "dgi", epochs=20)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or os.confstr("CS_GNU_LIBC_VERSION") is None,
                    reason="keep_heap sets glibc's mallopt")
def test_direct_pretraining_does_not_fault_its_tape_in_again():
    src = str(Path(pt.__file__).resolve().parents[1])
    faults = int(subprocess.run(
        [sys.executable, "-c", _DIRECT_PRETRAIN],
        env=dict(os.environ, PYTHONPATH=src), check=True,
        capture_output=True, text=True).stdout)
    # with glibc trimming the heap after every step this took about 80,000
    assert faults < 5000
