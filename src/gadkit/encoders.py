"""GCN and GIN encoders mapping an attributed graph to node representations.

GCN layer: H' = act(Â H W + b) over the normalized adjacency Â.
GIN layer: H' = act(MLP(H + A H)) with sum aggregation over the raw
adjacency and a 2-layer perceptron per layer.
The configured activation is applied after every layer, including the last.
"""

from dataclasses import dataclass
import json
import struct

import numpy as np

from .autodiff import (ACTIVATIONS, Tensor, activation, add, add_bias,
                       as_tensor, matmul, spmm)

ENCODER_KINDS = ("gcn", "gin")


@dataclass(frozen=True)
class EncoderConfig:
    kind: str
    input_dim: int
    hidden_dim: int = 32
    num_layers: int = 2
    activation: str = "relu"

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise ValueError(f"kind must be one of {ENCODER_KINDS}, got {self.kind!r}")
        if self.input_dim < 1 or self.hidden_dim < 1:
            raise ValueError("dimensions must be positive")
        if self.num_layers < 1:
            raise ValueError("need at least one layer")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")


class EncoderState:
    """Trainable weights for one encoder; `frozen` marks pre-trained states."""

    def __init__(self, config, seed, layers, frozen=False):
        self.config = config
        self.seed = seed
        self.layers = layers
        self.frozen = frozen

    def params(self):
        """All weight tensors in declaration order (layer by layer)."""
        out = []
        for layer in self.layers:
            out.extend(layer)
        return out

    def freeze(self):
        self.frozen = True
        for p in self.params():
            p.requires_grad = False
        return self


def glorot(rng, fan_in, fan_out, shape=None):
    """Glorot-uniform sample: entries in ±sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape or (fan_in, fan_out))


def init_encoder(config, seed):
    """Glorot-uniform weights, zero biases; deterministic per seed."""
    rng = np.random.default_rng(seed)
    layers = []
    in_dim = config.input_dim
    out_dim = config.hidden_dim
    for _ in range(config.num_layers):
        if config.kind == "gcn":
            w = Tensor(glorot(rng, in_dim, out_dim), requires_grad=True)
            b = Tensor(np.zeros((1, out_dim)), requires_grad=True)
            layers.append([w, b])
        else:
            w1 = Tensor(glorot(rng, in_dim, out_dim), requires_grad=True)
            b1 = Tensor(np.zeros((1, out_dim)), requires_grad=True)
            w2 = Tensor(glorot(rng, out_dim, out_dim), requires_grad=True)
            b2 = Tensor(np.zeros((1, out_dim)), requires_grad=True)
            layers.append([w1, b1, w2, b2])
        in_dim = out_dim
    return EncoderState(config, seed, layers)


def encode(state, graph, features_override=None):
    """Node representations H (N x hidden) for the graph.

    features_override substitutes the graph's feature matrix; it may be a
    plain array or a Tensor (a Tensor keeps gradients flowing, as needed by
    corruption and masking pretexts).
    """
    cfg = state.config
    x = features_override if features_override is not None else graph.features
    h = as_tensor(x)
    if h.shape != (graph.num_nodes, cfg.input_dim):
        raise ValueError(f"features shape {h.shape} does not match "
                         f"({graph.num_nodes}, {cfg.input_dim})")

    if cfg.kind == "gcn":
        adj = graph.normalized_adjacency
        for w, b in state.layers:
            h = activation(add_bias(spmm(adj, matmul(h, w)), b), cfg.activation)
    else:
        adj = graph.adjacency
        for w1, b1, w2, b2 in state.layers:
            z = add(h, spmm(adj, h))
            z = activation(matmul(z, w1, bias=b1), cfg.activation)
            h = activation(matmul(z, w2, bias=b2), cfg.activation)
    return h


_MAGIC = b"GADENC1\n"


def save_encoder(state, path):
    """JSON header + flat little-endian float64 weights in declaration order."""
    header = {
        "kind": state.config.kind,
        "input_dim": state.config.input_dim,
        "hidden_dim": state.config.hidden_dim,
        "num_layers": state.config.num_layers,
        "activation": state.config.activation,
        "seed": state.seed,
        "frozen": state.frozen,
    }
    flat = np.concatenate([p.values.ravel() for p in state.params()])
    blob = flat.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        head = json.dumps(header, sort_keys=True).encode()
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        fh.write(blob)


def load_encoder(path):
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path}: not an encoder checkpoint")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen))
        blob = fh.read()
    config = EncoderConfig(kind=header["kind"], input_dim=header["input_dim"],
                           hidden_dim=header["hidden_dim"],
                           num_layers=header["num_layers"],
                           activation=header["activation"])
    state = init_encoder(config, header["seed"])
    flat = np.frombuffer(blob, dtype="<f8")
    expect = sum(p.values.size for p in state.params())
    if flat.size != expect:
        raise ValueError(f"{path}: expected {expect} weights, found {flat.size}")
    pos = 0
    for p in state.params():
        size = p.values.size
        p.values = flat[pos:pos + size].reshape(p.values.shape).astype(np.float64)
        pos += size
    if header["frozen"]:
        state.freeze()
    return state
