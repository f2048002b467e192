"""Immutable attributed graphs in CSR form, plus normalization, BFS and stats.

Graphs are undirected and simple: input edges are symmetrized, duplicates
collapsed, self-loops dropped. Self-loops reappear only inside the normalized
propagation operator. Node labels use 0 = normal, 1 = anomaly,
LABEL_UNKNOWN = -1. A graph holds its propagation operators A and Â as
read-only scipy CSR matrices, each built once, on first use.
"""

from dataclasses import dataclass
import functools

import numpy as np
import scipy.sparse as sp

LABEL_UNKNOWN = -1

# Sentinel hop distance for nodes not reachable from any BFS source.
UNREACHABLE = -1


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected attributed graph: CSR adjacency + features + labels.

    Read `adjacency` (A: GIN) and `normalized_adjacency` (Â: GCN, masked
    decoder) once before sharing the graph between threads.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray
    labels: np.ndarray

    @property
    def num_edges(self):
        """Number of undirected edges."""
        return self.indices.size // 2

    @property
    def degrees(self):
        return np.diff(self.indptr)

    def neighbors(self, u):
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def edge_list(self):
        """All undirected edges as an (E, 2) array with u < v, sorted."""
        u = np.repeat(np.arange(self.num_nodes), self.degrees)
        v = self.indices
        keep = u < v
        return np.column_stack([u[keep], v[keep]])

    @functools.cached_property
    def adjacency(self):
        """A: unit weights on the neighbor lists, no self-loops."""
        return _frozen_csr(np.ones(self.indices.size), self.indices, self.indptr)

    @functools.cached_property
    def normalized_adjacency(self):
        """Â = D̃^-½ (A+I) D̃^-½ (see normalize_adjacency)."""
        return normalize_adjacency(self)


def _freeze(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _frozen_csr(weights, indices, indptr):
    """Square CSR matrix over the given rows whose arrays reject writes."""
    n = indptr.size - 1
    mat = sp.csr_matrix((weights, indices, indptr), shape=(n, n))
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.setflags(write=False)
    return mat


def build_graph(edges, features, labels=None):
    """Build a Graph from an edge list, validating and canonicalizing.

    edges: iterable of (u, v) pairs (any direction, duplicates and self-loops
    allowed in the input; both are normalized away). features: (N, D) reals.
    labels: length-N values in {0, 1, LABEL_UNKNOWN}, or None for all-unknown.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
        raise ValueError(f"features must be a non-empty 2-D matrix, got shape {features.shape}")
    n = features.shape[0]

    if labels is None:
        labels = np.full(n, LABEL_UNKNOWN, dtype=np.int64)
    else:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ValueError(f"labels length {labels.shape} does not match {n} nodes")
        bad = ~np.isin(labels, (0, 1, LABEL_UNKNOWN))
        if bad.any():
            raise ValueError(f"labels must be 0, 1 or {LABEL_UNKNOWN}; found {labels[bad][0]}")

    edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must be a sequence of (u, v) pairs")
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        bad = edges[(edges < 0) | (edges >= n)][0]
        raise ValueError(f"edge endpoint {bad} out of range for {n} nodes")

    edges = edges[edges[:, 0] != edges[:, 1]]
    both = np.vstack([edges, edges[:, ::-1]])
    if both.size:
        both = np.unique(both, axis=0)
    src, dst = both[:, 0], both[:, 1]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)
    # np.unique sorts rows lexicographically, so neighbor lists are ascending.
    return Graph(
        num_nodes=n,
        indptr=_freeze(indptr),
        indices=_freeze(dst),
        features=_freeze(features),
        labels=_freeze(labels),
    )


def normalize_adjacency(g):
    """Symmetrically normalized adjacency with self-loops: Â = D̃^-½ (A+I) D̃^-½.

    D̃ = D + I. A new read-only CSR matrix; g.normalized_adjacency keeps one.
    """
    n = g.num_nodes
    deg = g.degrees.astype(np.float64)

    counts = g.degrees + 1  # room for the diagonal entry
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(counts)
    nodes = np.arange(n)
    row = np.concatenate([np.repeat(nodes, g.degrees), nodes])
    col = np.concatenate([g.indices, nodes])
    order = np.lexsort((col, row))  # by row, then column within a row
    row, col = row[order], col[order]
    weights = 1.0 / np.sqrt((deg[row] + 1.0) * (deg[col] + 1.0))
    return _frozen_csr(weights, col, indptr)


def cached_normalized_adjacency(g):
    """g.normalized_adjacency, in the form of a function of the graph."""
    return g.normalized_adjacency


def multi_source_bfs_hops(g, sources):
    """Hop distance from every node to the nearest source (UNREACHABLE if none)."""
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        raise ValueError("source set must be non-empty")
    if sources.min() < 0 or sources.max() >= g.num_nodes:
        raise ValueError("source node out of range")

    dist = np.full(g.num_nodes, UNREACHABLE, dtype=np.int64)
    frontier = np.unique(sources)
    dist[frontier] = 0
    d = 0
    while frontier.size:
        starts = g.indptr[frontier]
        counts = g.indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # gather all neighbor slots of the frontier in one vectorized sweep
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        slots = np.repeat(starts, counts) + (np.arange(total) - offsets)
        neigh = g.indices[slots]
        fresh = np.unique(neigh[dist[neigh] == UNREACHABLE])
        d += 1
        dist[fresh] = d
        frontier = fresh
    return dist


@dataclass(frozen=True)
class GraphStats:
    density: float
    avg_degree: float
    avg_degree_anomaly: float | None


def graph_stats(g):
    """Density, average degree and average degree over labeled anomalies."""
    n = g.num_nodes
    if n < 2:
        raise ValueError("density is undefined for graphs with fewer than 2 nodes")
    e = g.num_edges
    density = 2.0 * e / (n * (n - 1))
    avg_degree = 2.0 * e / n
    anom = g.labels == 1
    avg_anom = float(g.degrees[anom].mean()) if anom.any() else None
    return GraphStats(density=density, avg_degree=avg_degree, avg_degree_anomaly=avg_anom)
