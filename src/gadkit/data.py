"""Dataset ingestion, synthetic benchmarks and train/val/test splits.

On-disk format (language-neutral, diffable, round-trips bit-exactly):
  edges    whitespace-separated node-id pairs, one per line, '#' comments
  features CSV of finite reals (each its float repr), one row per node
  labels   one token per line from {0, 1, ?}

The synthetic benchmark is a stochastic block model with two kinds of
injected anomalies: contextual (features resampled around a shifted mean)
and structural (dense cliques wired among anomaly nodes). Its edges are
drawn in bounded memory, one buffer of whole rows of a block pair at a
time, from the same random stream as one dense draw per pair: at N=20000
generation's traced peak is 6.8 MiB.
"""

import contextlib
from dataclasses import dataclass
import itertools
import math
import os

import numpy as np

from .graph import LABEL_UNKNOWN, build_graph


@dataclass(frozen=True)
class DatasetPaths:
    """Locations of the three on-disk dataset files."""

    edges: str
    features: str
    labels: str | None = None


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint labeled train/val pools plus the held-out test set. Its items
    are nodes, or a collection's graphs (graphlevel.stratified_graph_split)."""

    train_anomalies: np.ndarray
    train_normals: np.ndarray
    val_anomalies: np.ndarray
    val_normals: np.ndarray
    test: np.ndarray
    seed: int

    def __post_init__(self):
        parts = [self.train_anomalies, self.train_normals,
                 self.val_anomalies, self.val_normals, self.test]
        total = sum(p.size for p in parts)
        union = np.unique(np.concatenate(parts))
        if union.size != total:
            raise ValueError("split sets overlap")

    @property
    def train_nodes(self):
        return np.sort(np.concatenate([self.train_anomalies, self.train_normals]))

    @property
    def val_nodes(self):
        return np.sort(np.concatenate([self.val_anomalies, self.val_normals]))


def _labeled_pools(graph):
    anomalies = np.flatnonzero(graph.labels == 1)
    normals = np.flatnonzero(graph.labels == 0)
    return anomalies, normals


# default labeled anomalies and normals in each of a semi split's two pools
SEMI_ANOMALIES, SEMI_NORMALS = 20, 80


def check_split_sizes(**sizes):
    """Each semi split pool size, given by its name, is at least 1."""
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"split sizes must be positive, got {name}={size}")


def check_train_ratio(train_ratio):
    """A full split's training share of each class lies in (0, 1)."""
    if not 0.0 < train_ratio < 1.0:
        raise ValueError(f"train_ratio must be in (0, 1), got {train_ratio}")


def make_semi_split(graph, n_anom=SEMI_ANOMALIES, n_norm=SEMI_NORMALS, seed=0,
                    val_anom=SEMI_ANOMALIES, val_norm=SEMI_NORMALS):
    """Limited-supervision split: n_anom/n_norm labeled training nodes.

    Validation is an additional disjoint val_anom/val_norm sample; test is
    every remaining node with a known label.
    """
    check_split_sizes(n_anom=n_anom, n_norm=n_norm, val_anom=val_anom, val_norm=val_norm)
    anomalies, normals = _labeled_pools(graph)
    if anomalies.size < n_anom + val_anom or normals.size < n_norm + val_norm:
        raise ValueError(
            f"insufficient labeled nodes: need {n_anom + val_anom} anomalies and "
            f"{n_norm + val_norm} normals, have {anomalies.size}/{normals.size}")
    rng = np.random.default_rng(seed)
    pa = rng.permutation(anomalies)
    pn = rng.permutation(normals)
    train_a = np.sort(pa[:n_anom])
    val_a = np.sort(pa[n_anom:n_anom + val_anom])
    train_n = np.sort(pn[:n_norm])
    val_n = np.sort(pn[n_norm:n_norm + val_norm])
    used = np.concatenate([train_a, val_a, train_n, val_n])
    labeled = np.concatenate([anomalies, normals])
    test = np.sort(np.setdiff1d(labeled, used))
    return SplitSpec(train_a, train_n, val_a, val_n, test, seed)


def make_full_split(graph, train_ratio, seed=0):
    """Stratified split: train_ratio of each class to train, remainder
    halved between validation and test (per class)."""
    check_train_ratio(train_ratio)
    anomalies, normals = _labeled_pools(graph)
    rng = np.random.default_rng(seed)
    picks = {}
    for name, pool in (("anom", anomalies), ("norm", normals)):
        if pool.size < 3:
            raise ValueError(f"class {name!r} has {pool.size} labeled nodes; need >= 3")
        m = pool.size
        k = int(round(train_ratio * m))
        k = min(max(k, 1), m - 2)  # keep validation and test non-empty
        perm = rng.permutation(pool)
        rest = perm[k:]
        half = rest.size // 2
        picks[name] = (np.sort(perm[:k]), np.sort(rest[:half]), rest[half:])
    test = np.sort(np.concatenate([picks["anom"][2], picks["norm"][2]]))
    return SplitSpec(picks["anom"][0], picks["norm"][0],
                     picks["anom"][1], picks["norm"][1], test, seed)


@dataclass(frozen=True)
class SyntheticSpec:
    """Stochastic block model benchmark with injected anomalies.

    Defaults target the sparse regime: ~2000 nodes, average degree about 4,
    5% anomalies. `structural_fraction` of the anomalies are wired into
    cliques of `clique_size` (features untouched); the rest are contextual,
    resampled with mean offset `feature_shift` on every dimension. Base
    features are gaussian with scale `feature_noise` around their block's
    profile; profiles sit `block_feature_gap` apart along the all-ones
    direction (0 = featureless blocks).
    """

    num_nodes: int = 2000
    block_sizes: tuple = ()
    num_blocks: int = 4
    intra_p: float = 0.007
    inter_p: float = 0.0003
    anomaly_fraction: float = 0.05
    feature_dim: int = 16
    feature_noise: float = 0.5
    feature_shift: float = 1.5
    block_feature_gap: float = 0.0
    clique_size: int = 8
    structural_fraction: float = 0.8
    contextual: bool = True
    structural: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.intra_p <= 1.0 or not 0.0 <= self.inter_p <= 1.0:
            raise ValueError("edge probabilities must lie in [0, 1]")
        if not 0.0 < self.anomaly_fraction < 0.5:
            raise ValueError("anomaly fraction must lie in (0, 0.5)")
        if self.feature_dim < 1 or self.num_nodes < 2:
            raise ValueError("need at least 2 nodes and 1 feature dimension")
        if self.block_sizes and sum(self.block_sizes) != self.num_nodes:
            raise ValueError("block sizes must sum to num_nodes")
        if self.num_blocks < 1:
            raise ValueError(f"need at least one block, got num_blocks={self.num_blocks}")
        if min(self.block_sizes, default=0) < 0:
            raise ValueError(f"block sizes must not be negative, got {self.block_sizes}")
        if not 0.0 <= self.structural_fraction <= 1.0:
            raise ValueError("structural fraction must lie in [0, 1]")
        for name in ("feature_noise", "feature_shift", "block_feature_gap"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.feature_noise <= 0.0:
            raise ValueError("feature noise must be positive")
        n_struct = self.anomaly_counts()[1]
        if n_struct and not 2 <= self.clique_size <= n_struct:
            raise ValueError(f"clique size {self.clique_size} infeasible for "
                             f"{n_struct} structural anomalies")

    def anomaly_counts(self):
        """(anomalies, structural anomalies) that generate_synthetic injects."""
        n_anom = int(round(self.anomaly_fraction * self.num_nodes))
        if not self.structural:
            return n_anom, 0
        if self.contextual:
            return n_anom, int(round(self.structural_fraction * n_anom))
        return n_anom, n_anom

    def resolved_blocks(self):
        if self.block_sizes:
            return tuple(self.block_sizes)
        base, extra = divmod(self.num_nodes, self.num_blocks)
        return tuple(base + (1 if i < extra else 0) for i in range(self.num_blocks))


# doubles in _block_edges' buffer: whole rows of a block pair, cache-sized
_CHUNK = 1 << 18


def _block_edges(rng, offset_a, size_a, offset_b, size_b, p):
    """(E, 2) Bernoulli(p) edges between two node ranges (upper triangle if
    same), in row-major order. The uniforms are drawn a band of whole rows
    at a time into one buffer of about _CHUNK doubles, which takes the same
    random stream as one (size_a, size_b) draw."""
    if p <= 0.0 or size_a == 0 or size_b == 0:
        return np.empty((0, 2), dtype=np.int64)
    band = max(1, _CHUNK // size_b)
    buf = np.empty(min(band, size_a) * size_b)
    rows, cols = [], []
    for start in range(0, size_a, band):
        u = buf[:min(band, size_a - start) * size_b]
        rng.random(out=u)
        row, col = np.divmod(np.flatnonzero(u < p), size_b)
        row += start
        if offset_a == offset_b:
            keep = col > row
            row, col = row[keep], col[keep]
        rows.append(row + offset_a)
        cols.append(col + offset_b)
    return np.column_stack((np.concatenate(rows), np.concatenate(cols)))


def generate_synthetic(spec):
    """Graph with ground-truth anomaly labels, deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    n = spec.num_nodes
    sizes = spec.resolved_blocks()
    offsets = np.cumsum((0,) + sizes[:-1])

    membership = np.repeat(np.arange(len(sizes)), sizes)
    block_mean = spec.block_feature_gap * membership.astype(np.float64)
    features = (block_mean[:, None]
                + spec.feature_noise * rng.standard_normal((n, spec.feature_dim)))

    n_anom, n_struct = spec.anomaly_counts()
    anomalies = rng.choice(n, size=n_anom, replace=False)
    struct_nodes = anomalies[:n_struct]
    context_nodes = anomalies[n_struct:] if spec.contextual else anomalies[n_anom:]

    k, d = context_nodes.size, spec.feature_dim
    features[context_nodes] = (block_mean[context_nodes, None] + spec.feature_shift
                               + spec.feature_noise * rng.standard_normal((k, d)))

    edges = [_block_edges(rng, offsets[i], sizes[i], offsets[j], sizes[j],
                          spec.intra_p if i == j else spec.inter_p)
             for i in range(len(sizes)) for j in range(i, len(sizes))]

    if n_struct:
        q = spec.clique_size
        order = rng.permutation(struct_nodes)
        groups = [order[k:k + q] for k in range(0, n_struct, q)]
        if len(groups) > 1 and groups[-1].size < 2:
            groups[-2] = np.concatenate([groups[-2], groups[-1]])
            groups.pop()
        edges += [grp[np.column_stack(np.triu_indices(grp.size, k=1))] for grp in groups]

    labels = np.zeros(n, dtype=np.int64)
    labels[anomalies] = 1
    return build_graph(np.concatenate(edges), features, labels)


def write_text(path, text):
    """Write text to path through path + '.tmp' and a rename, so that path
    holds either its old bytes or all of text, never a part; a write that
    raises removes path + '.tmp'."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows):
    """rows of one width under header unless it is None, by write_text; a float
    cell (numpy's too) is its float repr, any other its str."""
    rows = iter(rows)
    text = [] if header is None else [",".join(header) + "\n"]
    # a column of 512 rows at a time: as fast as whole columns, in less memory
    while block := list(itertools.islice(rows, 512)):
        columns = [[repr(float(v)) if isinstance(v, float) else str(v) for v in column]
                   for column in zip(*block)]
        text.append("".join([",".join(cells) + "\n" for cells in zip(*columns)]))
    write_text(path, "".join(text))


def label_tokens(labels):
    """Each label's token in the label file: 0, 1, or ? when unknown."""
    return ["?" if y == LABEL_UNKNOWN else str(int(y)) for y in np.asarray(labels).tolist()]


def save_dataset(graph, edge_path, feature_path, label_path=None):
    """Write the dataset files; load_dataset inverts this bit-exactly."""
    write_text(edge_path, "".join(f"{u} {v}\n" for u, v in graph.edge_list().tolist()))
    write_csv(feature_path, None, graph.features.tolist())
    if label_path is not None:
        write_csv(label_path, None, zip(label_tokens(graph.labels)))


def _parse_error(path, lineno, msg):
    return ValueError(f"{path}:{lineno}: {msg}")


def _lines(path, comment=None):
    """(line number, stripped text) of each line of path left non-blank by a comment cut."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if comment is not None:
                line = line.split(comment, 1)[0]
            if line := line.strip():
                yield lineno, line


def load_dataset(edge_path, feature_path, label_path=None):
    """Read the dataset files into a Graph (row i = node i).

    label_path may be None, in which case every node label is unknown.
    """
    features = []
    width = None
    for lineno, line in _lines(feature_path):
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError:
            raise _parse_error(feature_path, lineno, "invalid real number") from None
        if not all(map(math.isfinite, row)):
            raise _parse_error(feature_path, lineno, "non-finite real number")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise _parse_error(feature_path, lineno,
                               f"expected {width} columns, found {len(row)}")
        features.append(row)
    if not features:
        raise ValueError(f"{feature_path}: no feature rows")
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]

    if label_path is None:
        labels = [LABEL_UNKNOWN] * n
    else:
        labels = []
        for lineno, tok in _lines(label_path):
            if tok == "?":
                labels.append(LABEL_UNKNOWN)
            elif tok in ("0", "1"):
                labels.append(int(tok))
            else:
                raise _parse_error(label_path, lineno,
                                   f"label must be 0, 1 or ?, got {tok!r}")
        if len(labels) != n:
            raise ValueError(f"{label_path}: {len(labels)} labels for {n} feature rows")

    edges = []
    for lineno, line in _lines(edge_path, comment="#"):
        parts = line.split()
        if len(parts) != 2:
            raise _parse_error(edge_path, lineno, "expected two node ids")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise _parse_error(edge_path, lineno, "node ids must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise _parse_error(edge_path, lineno, f"node id out of range for {n} nodes")
        edges.append((u, v))
    return build_graph(edges, features, labels)
