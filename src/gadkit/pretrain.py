"""Self-supervised encoder pre-training: DGI contrast and masked reconstruction.

DGI corrupts the feature matrix by shuffling a configurable fraction of rows
(structure intact), scores every node embedding against a sigmoid mean-pooled
graph summary through a bilinear discriminator, and pushes real nodes toward
the summary and corrupted ones away. Masked reconstruction replaces a random
node subset with a learnable token, re-masks those rows in the embedding, and
decodes features back through a single propagation layer under scaled cosine
error. Neither objective ever reads node labels.

Both losses run member by member over a graph's members (`graph_ptr`): each
is corrupted or masked on its own, in member order from one rng, scored
against its own summary, and weighs equally. A graph from build_graph is one
member, so a collection's disjoint union pre-trains through `pretrain_run`.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import (EPOCHS, LR, Tensor, activation, add, bce_with_logits,
                       check_sce_gamma, gather_rows, matmul, row_substitute,
                       scale, scaled_cosine_error, segment_dot, segment_mean,
                       spmm, train, transpose, zero_rows)
from .data import write_csv
from .encoders import encode, glorot, init_encoder

OBJECTIVES = ("dgi", "graphmae")

# defaults: DGI's shuffled share of rows, GraphMAE's masked share and SCE γ
SHUFFLE_RATIO, MASK_RATIO, SCE_GAMMA = 1.0, 0.5, 2.0


def check_shuffle_ratio(ratio):
    """DGI's shuffled share of rows lies in [0, 1]."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"shuffle ratio {ratio} outside [0, 1]")


def check_mask_ratio(ratio):
    """GraphMAE's masked share of nodes lies in (0, 1)."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"mask ratio {ratio} outside (0, 1)")


@dataclass
class DgiConfig:
    """Corruption ratio plus the trainable bilinear discriminator weight."""

    shuffle_ratio: float
    w_disc: Tensor

    def __post_init__(self):
        check_shuffle_ratio(self.shuffle_ratio)
        if self.w_disc.shape[0] != self.w_disc.shape[1]:
            raise ValueError("discriminator weight must be square")

    @classmethod
    def create(cls, hidden_dim, shuffle_ratio=SHUFFLE_RATIO, seed=0):
        rng = np.random.default_rng(seed)
        w = Tensor(glorot(rng, hidden_dim, hidden_dim), requires_grad=True)
        return cls(shuffle_ratio=shuffle_ratio, w_disc=w)

    def params(self):
        return [self.w_disc]


@dataclass
class MaeConfig:
    """Mask ratio, learnable mask token, linear decoder and SCE sharpness."""

    mask_ratio: float
    gamma: float
    mask_token: Tensor  # (1, D)
    w_dec: Tensor       # (hidden, D)
    b_dec: Tensor       # (1, D)

    def __post_init__(self):
        check_mask_ratio(self.mask_ratio)
        check_sce_gamma(self.gamma)

    @classmethod
    def create(cls, input_dim, hidden_dim, mask_ratio=MASK_RATIO, gamma=SCE_GAMMA,
               seed=0):
        rng = np.random.default_rng(seed)
        # the bias starts off-zero: a fully-masked neighborhood decodes to
        # exactly b_dec, and the cosine in the loss is singular at the origin
        return cls(mask_ratio=mask_ratio, gamma=gamma,
                   mask_token=Tensor(np.zeros((1, input_dim)), requires_grad=True),
                   w_dec=Tensor(glorot(rng, hidden_dim, input_dim), requires_grad=True),
                   b_dec=Tensor(glorot(rng, hidden_dim, input_dim, shape=(1, input_dim)),
                                requires_grad=True))

    def params(self):
        return [self.mask_token, self.w_dec, self.b_dec]


def corruption_plan(n, ratio, rng):
    """Rows to shuffle and the permutation applied among them."""
    m = int(np.ceil(ratio * n))
    if m == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rows = rng.choice(n, size=m, replace=False)
    return rows, rng.permutation(m)


def dgi_corrupt(features, ratio, rng):
    """Shuffle ceil(ratio*N) feature rows among themselves; rest untouched."""
    check_shuffle_ratio(ratio)
    out = np.array(features, dtype=np.float64, copy=True)
    rows, perm = corruption_plan(out.shape[0], ratio, rng)
    if rows.size:
        out[rows] = out[rows[perm]]
    return out


def _member_weights(sizes):
    """Per-row weights making a mean over all rows the mean of the members'
    own means (sizes: rows per member); exactly 1.0 for one member."""
    sizes = np.asarray(sizes)
    return np.repeat(sizes.sum() / (sizes.size * sizes), sizes)[:, None]


def _discriminator(w_disc, summaries, ptr):
    """Scorer of node embeddings: D(h_i, s_g) = h_i^T W s_g for node i of
    member g, as an (N, 1) column."""
    if len(ptr) == 2:
        # W s^T is formed afresh on each call: sharing one product between
        # the positive and the negative pass changes the gradients' bits
        return lambda h: matmul(h, matmul(w_disc, transpose(summaries)))
    # row g is (W s_g)^T; no (N, G) product is formed
    w_s = matmul(summaries, transpose(w_disc))
    return lambda h: segment_dot(h, w_s, ptr)


def dgi_loss(encoder_state, graph, config, rng):
    """Contrastive loss: real nodes vs their member's summary against
    shuffled ones, halved; each member weighs equally."""
    hidden = encoder_state.config.hidden_dim
    if config.w_disc.shape != (hidden, hidden):
        raise ValueError(f"discriminator is {config.w_disc.shape}, encoder hidden is {hidden}")
    ptr = graph.graph_ptr
    h_pos = encode(encoder_state, graph)
    corrupted = np.vstack([dgi_corrupt(graph.features[a:b], config.shuffle_ratio, rng)
                           for a, b in zip(ptr[:-1], ptr[1:])])
    h_neg = encode(encoder_state, graph, features_override=corrupted)
    summaries = activation(segment_mean(h_pos, ptr), "sigmoid")
    score = _discriminator(config.w_disc, summaries, ptr)
    weights = _member_weights(np.diff(ptr))
    loss_pos = bce_with_logits(score(h_pos), np.ones_like(weights), weights)
    loss_neg = bce_with_logits(score(h_neg), np.zeros_like(weights), weights)
    return scale(add(loss_pos, loss_neg), 0.5)


def draw_mask(n, ratio, rng):
    """ceil(ratio*n) distinct node indices out of n to mask."""
    m = int(np.ceil(ratio * n))
    if m == 0:
        raise ValueError(f"mask ratio {ratio} selects no nodes out of {n}")
    return rng.choice(n, size=m, replace=False)


def masked_reconstruction_loss(encoder_state, graph, config, mask, weights=None):
    """Scaled cosine error of the decoded features over the masked rows.

    weights, one per masked row, pass through to scaled_cosine_error.
    """
    x = Tensor(graph.features)
    x_masked = row_substitute(x, mask, config.mask_token)
    h = encode(encoder_state, graph, features_override=x_masked)
    h = zero_rows(h, mask)  # re-mask before decoding
    x_hat = matmul(spmm(graph.normalized_adjacency, h), config.w_dec, bias=config.b_dec)
    return scaled_cosine_error(gather_rows(x, mask), gather_rows(x_hat, mask),
                               config.gamma, weights)


def graphmae_loss(encoder_state, graph, config, rng):
    """Masked-feature reconstruction loss over the masked rows only, each
    member masked on its own and weighing equally."""
    ptr = graph.graph_ptr
    masks = [draw_mask(b - a, config.mask_ratio, rng) + a
             for a, b in zip(ptr[:-1], ptr[1:])]
    return masked_reconstruction_loss(encoder_state, graph, config, np.concatenate(masks),
                                      _member_weights([m.size for m in masks]))


@dataclass
class PretrainResult:
    encoder: object  # frozen EncoderState
    losses: list


def init_pretext(encoder_config, objective, seed, shuffle_ratio, mask_ratio, gamma):
    """Fresh encoder and objective state for a label-free pretext.

    Returns (encoder, objective state, loss function, rng). The encoder and
    objective seeds are drawn from default_rng(seed) in that order, and the
    loss keeps drawing its negatives or masks from the same rng.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    rng = np.random.default_rng(seed)
    enc_seed = int(rng.integers(2 ** 31))
    obj_seed = int(rng.integers(2 ** 31))
    encoder = init_encoder(encoder_config, enc_seed)
    if objective == "dgi":
        obj = DgiConfig.create(encoder_config.hidden_dim, shuffle_ratio, obj_seed)
        return encoder, obj, dgi_loss, rng
    obj = MaeConfig.create(encoder_config.input_dim, encoder_config.hidden_dim,
                           mask_ratio, gamma, obj_seed)
    return encoder, obj, graphmae_loss, rng


def pretrain_run(graph, encoder_config, objective, epochs=EPOCHS, lr=LR, seed=0,
                 shuffle_ratio=SHUFFLE_RATIO, mask_ratio=MASK_RATIO,
                 gamma=SCE_GAMMA):
    """Optimize the encoder with a label-free objective; returns it frozen.

    Negatives/masks are redrawn every epoch. Deterministic per seed; a
    non-finite loss aborts with the offending epoch in the message.
    """
    encoder, obj, loss_fn, rng = init_pretext(encoder_config, objective, seed,
                                              shuffle_ratio, mask_ratio, gamma)
    losses, _ = train(encoder.params() + obj.params(),
                      lambda: loss_fn(encoder, graph, obj, rng), epochs, lr)
    encoder.freeze()
    return PretrainResult(encoder=encoder, losses=losses)


def save_loss_curve(losses, path):
    write_csv(path, ["epoch", "loss"], enumerate(losses))
