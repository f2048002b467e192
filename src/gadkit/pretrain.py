"""Self-supervised encoder pre-training: DGI contrast and masked reconstruction.

DGI corrupts the feature matrix by shuffling a configurable fraction of rows
(structure intact), scores every node embedding against a sigmoid mean-pooled
graph summary through a bilinear discriminator, and pushes real nodes toward
the summary and corrupted ones away. Masked reconstruction replaces a random
node subset with a learnable token, re-masks those rows in the embedding, and
decodes features back through a single propagation layer under scaled cosine
error. Neither objective ever reads node labels.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, activation, add, add_bias, bce_with_logits,
                       gather_rows, matmul, mean_rows, row_substitute, scale,
                       scaled_cosine_error, spmm, train, transpose, zero_rows)
from .encoders import encode, glorot, init_encoder

OBJECTIVES = ("dgi", "graphmae")


@dataclass
class DgiConfig:
    """Corruption ratio plus the trainable bilinear discriminator weight."""

    shuffle_ratio: float
    w_disc: Tensor

    def __post_init__(self):
        if not 0.0 <= self.shuffle_ratio <= 1.0:
            raise ValueError("shuffle ratio must lie in [0, 1]")
        if self.w_disc.shape[0] != self.w_disc.shape[1]:
            raise ValueError("discriminator weight must be square")

    @classmethod
    def create(cls, hidden_dim, shuffle_ratio=1.0, seed=0):
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
        if not 0.0 < self.mask_ratio < 1.0:
            raise ValueError("mask ratio must lie in (0, 1)")
        if self.gamma < 1.0:
            raise ValueError("gamma must be >= 1")

    @classmethod
    def create(cls, input_dim, hidden_dim, mask_ratio=0.5, gamma=2.0, seed=0):
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
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("shuffle ratio must lie in [0, 1]")
    out = np.array(features, dtype=np.float64, copy=True)
    rows, perm = corruption_plan(out.shape[0], ratio, rng)
    if rows.size:
        out[rows] = out[rows[perm]]
    return out


def _discriminator_logits(h, w_disc, summary):
    # D(h_i, s) = h_i^T W s, batched over nodes
    return matmul(h, matmul(w_disc, transpose(summary)))


def dgi_loss(encoder_state, graph, config, rng):
    """Contrastive loss: real nodes vs summary against shuffled ones, halved."""
    hidden = encoder_state.config.hidden_dim
    if config.w_disc.shape != (hidden, hidden):
        raise ValueError(f"discriminator is {config.w_disc.shape}, encoder hidden is {hidden}")
    h_pos = encode(encoder_state, graph)
    corrupted = dgi_corrupt(graph.features, config.shuffle_ratio, rng)
    h_neg = encode(encoder_state, graph, features_override=corrupted)
    summary = activation(mean_rows(h_pos), "sigmoid")
    pos_logits = _discriminator_logits(h_pos, config.w_disc, summary)
    neg_logits = _discriminator_logits(h_neg, config.w_disc, summary)
    n = graph.num_nodes
    loss_pos = bce_with_logits(pos_logits, np.ones((n, 1)))
    loss_neg = bce_with_logits(neg_logits, np.zeros((n, 1)))
    return scale(add(loss_pos, loss_neg), 0.5)


def graphmae_loss(encoder_state, graph, config, rng):
    """Masked-feature reconstruction loss over the masked rows only."""
    n = graph.num_nodes
    m = int(np.ceil(config.mask_ratio * n))
    if m == 0:
        raise ValueError(f"mask ratio {config.mask_ratio} selects no nodes out of {n}")
    mask = rng.choice(n, size=m, replace=False)
    x = Tensor(graph.features)
    x_masked = row_substitute(x, mask, config.mask_token)
    h = encode(encoder_state, graph, features_override=x_masked)
    h = zero_rows(h, mask)  # re-mask before decoding
    x_hat = add_bias(matmul(spmm(graph.normalized_adjacency, h), config.w_dec),
                     config.b_dec)
    return scaled_cosine_error(gather_rows(x, mask), gather_rows(x_hat, mask),
                               config.gamma)


@dataclass
class PretrainResult:
    encoder: object  # frozen EncoderState
    losses: list
    objective_state: object


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


def pretrain_run(graph, encoder_config, objective, epochs=200, lr=0.005, seed=0,
                 shuffle_ratio=1.0, mask_ratio=0.5, gamma=2.0):
    """Optimize the encoder with a label-free objective; returns it frozen.

    Negatives/masks are redrawn every epoch. Deterministic per seed; a
    non-finite loss aborts with the offending epoch in the message.
    """
    encoder, obj, loss_fn, rng = init_pretext(encoder_config, objective, seed,
                                              shuffle_ratio, mask_ratio, gamma)
    losses, _ = train(encoder.params() + obj.params(),
                      lambda: loss_fn(encoder, graph, obj, rng), epochs, lr)
    encoder.freeze()
    return PretrainResult(encoder=encoder, losses=losses, objective_state=obj)


def save_loss_curve(losses, path):
    with open(path, "w") as fh:
        fh.write("epoch,loss\n")
        for epoch, value in enumerate(losses):
            fh.write(f"{epoch},{value!r}\n")
