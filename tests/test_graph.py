from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from gadkit.graph import (UNREACHABLE, build_graph, graph_stats,
                          multi_source_bfs_hops, normalize_adjacency)

from conftest import dense_adjacency, random_graph


def test_build_dedup_and_self_loop():
    g = build_graph([(0, 1), (1, 0), (1, 1)], np.zeros((2, 1)))
    assert g.num_edges == 1
    assert list(g.neighbors(0)) == [1]
    assert list(g.neighbors(1)) == [0]


def test_build_empty_edge_list():
    g = build_graph([], np.zeros((3, 2)))
    assert g.num_edges == 0
    assert graph_stats(g).density == 0.0


def test_build_matches_dense_oracle():
    rng = np.random.default_rng(7)
    n = 50
    edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(120)]
    g = build_graph(edges, rng.standard_normal((n, 3)))

    dense = np.zeros((n, n))
    for u, v in edges:
        if u != v:
            dense[u, v] = dense[v, u] = 1.0
    assert np.array_equal(dense_adjacency(g), dense)


def test_build_idempotent_under_reingestion():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 40)
    g2 = build_graph(g.edge_list(), g.features, g.labels)
    assert np.array_equal(g.indptr, g2.indptr)
    assert np.array_equal(g.indices, g2.indices)


def test_build_errors():
    with pytest.raises(ValueError, match="out of range"):
        build_graph([(0, 5)], np.zeros((3, 1)))
    with pytest.raises(ValueError, match="labels length"):
        build_graph([], np.zeros((3, 1)), labels=[0, 1])
    with pytest.raises(ValueError, match="labels must be"):
        build_graph([], np.zeros((2, 1)), labels=[0, 7])


def test_normalize_single_edge():
    g = build_graph([(0, 1)], np.zeros((2, 1)))
    adj = normalize_adjacency(g)
    # both degrees 1: every weight is 1/sqrt(2*2) = 1/2
    assert np.allclose(adj.data, 0.5)
    assert adj.indptr[-1] == 4  # two neighbors + two diagonals


def test_normalize_isolated_node():
    g = build_graph([], np.zeros((1, 1)))
    adj = normalize_adjacency(g)
    assert adj.indices.tolist() == [0]
    assert adj.data.tolist() == [1.0]


def test_normalize_matches_dense_formula():
    rng = np.random.default_rng(11)
    g = random_graph(rng, 30)
    adj = normalize_adjacency(g)

    a = dense_adjacency(g) + np.eye(g.num_nodes)
    d_inv = np.diag(1.0 / np.sqrt(a.sum(axis=1)))
    # degree+1 equals the row sum of A+I for a simple graph
    expect = d_inv @ a @ d_inv

    dense = np.zeros_like(expect)
    for u in range(g.num_nodes):
        lo, hi = adj.indptr[u], adj.indptr[u + 1]
        dense[u, adj.indices[lo:hi]] = adj.data[lo:hi]
    assert np.abs(dense - expect).max() < 1e-12
    assert np.abs(dense - dense.T).max() == 0.0
    assert (adj.data > 0).all()


def _loop_normalize_adjacency(g):
    """Row-by-row construction of Â, kept as the oracle for the vectorized one."""
    n = g.num_nodes
    deg = g.degrees.astype(np.float64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(g.degrees + 1)
    indices = np.empty(indptr[-1], dtype=np.int64)
    weights = np.empty(indptr[-1], dtype=np.float64)
    for u in range(n):
        merged = np.sort(np.append(g.neighbors(u), u))
        lo, hi = indptr[u], indptr[u + 1]
        indices[lo:hi] = merged
        weights[lo:hi] = 1.0 / np.sqrt((deg[u] + 1.0) * (deg[merged] + 1.0))
    return indptr, indices, weights


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))))
def test_normalize_matches_loop_oracle_bit_for_bit(case):
    n, edges = case  # small edge lists leave isolated nodes; [] leaves only them
    g = build_graph(edges, np.zeros((n, 1)))
    adj = normalize_adjacency(g)
    indptr, indices, weights = _loop_normalize_adjacency(g)
    assert np.array_equal(adj.indptr, indptr)
    assert np.array_equal(adj.indices, indices)
    assert adj.data.tobytes() == weights.tobytes()
    # the graph's own operators: Â as above, A over the neighbor lists
    ones = np.ones(g.indices.size)
    neighbors = np.concatenate([g.neighbors(u) for u in range(n)])
    for mat, (ptr, idx, w) in ((g.normalized_adjacency, (indptr, indices, weights)),
                               (g.adjacency, (g.indptr, neighbors, ones))):
        assert (mat.shape == (n, n) and np.array_equal(mat.indptr, ptr)
                and np.array_equal(mat.indices, idx) and mat.data.tobytes() == w.tobytes())


def test_bfs_path():
    g = build_graph([(0, 1), (1, 2)], np.zeros((3, 1)))
    assert multi_source_bfs_hops(g, [0]).tolist() == [0, 1, 2]


def test_bfs_all_sources():
    g = build_graph([(0, 1), (1, 2)], np.zeros((3, 1)))
    assert multi_source_bfs_hops(g, [0, 1, 2]).tolist() == [0, 0, 0]


def test_bfs_unreachable():
    g = build_graph([(0, 1)], np.zeros((3, 1)))
    assert multi_source_bfs_hops(g, [0]).tolist() == [0, 1, UNREACHABLE]


def test_bfs_matches_per_source_oracle():
    rng = np.random.default_rng(23)
    g = random_graph(rng, 200, avg_degree=3.0)
    sources = rng.choice(200, size=5, replace=False)
    got = multi_source_bfs_hops(g, sources)

    def single_source(s):
        dist = np.full(g.num_nodes, np.inf)
        dist[s] = 0
        frontier = [s]
        d = 0
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.neighbors(u):
                    if dist[v] == np.inf:
                        dist[v] = d + 1
                        nxt.append(v)
            d += 1
            frontier = nxt
        return dist

    best = np.min([single_source(int(s)) for s in sources], axis=0)
    expect = np.where(np.isinf(best), UNREACHABLE, best).astype(np.int64)
    assert np.array_equal(got, expect)


def test_bfs_superset_sources_never_farther():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 80, avg_degree=2.5)
    small = rng.choice(80, size=3, replace=False)
    big = np.union1d(small, rng.choice(80, size=5, replace=False))
    d_small = multi_source_bfs_hops(g, small).astype(np.float64)
    d_big = multi_source_bfs_hops(g, big).astype(np.float64)
    d_small[d_small == UNREACHABLE] = np.inf
    d_big[d_big == UNREACHABLE] = np.inf
    assert (d_big <= d_small).all()


def test_bfs_empty_sources_rejected():
    g = build_graph([(0, 1)], np.zeros((2, 1)))
    with pytest.raises(ValueError, match="non-empty"):
        multi_source_bfs_hops(g, [])


def test_stats_triangle():
    g = build_graph([(0, 1), (1, 2), (2, 0)], np.zeros((3, 1)))
    s = graph_stats(g)
    assert s.density == 1.0
    assert s.avg_degree == 2.0


def test_stats_isolated():
    g = build_graph([], np.zeros((3, 1)))
    s = graph_stats(g)
    assert s.density == 0.0
    assert s.avg_degree == 0.0
    assert s.avg_degree_anomaly is None


def test_stats_matches_brute_force():
    rng = np.random.default_rng(31)
    g = random_graph(rng, 100, avg_degree=6.0)
    s = graph_stats(g)
    dense = dense_adjacency(g)
    e = dense.sum() / 2
    assert s.density == pytest.approx(2 * e / (100 * 99), abs=1e-15)
    assert s.avg_degree == pytest.approx(dense.sum() / 100, abs=1e-15)
    anom_deg = dense.sum(axis=1)[g.labels == 1].mean()
    assert s.avg_degree_anomaly == pytest.approx(anom_deg, abs=1e-12)


def test_stats_needs_two_nodes():
    g = build_graph([], np.zeros((1, 1)))
    with pytest.raises(ValueError, match="fewer than 2"):
        graph_stats(g)


def test_graph_is_immutable():
    g = build_graph([(0, 1)], np.zeros((2, 1)))
    with pytest.raises(ValueError):
        g.indices[0] = 0
    with pytest.raises(ValueError):
        g.features[0, 0] = 1.0


def test_graph_operators_are_built_once_and_read_only():
    rng = np.random.default_rng(41)
    g = random_graph(rng, 30)
    for name in ("adjacency", "normalized_adjacency"):
        mat = getattr(g, name)
        assert getattr(g, name) is mat
        with pytest.raises(ValueError):
            mat.data[0] = 2.0
    expect = normalize_adjacency(g)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(g.normalized_adjacency, attr), getattr(expect, attr))
    assert np.array_equal(g.adjacency.toarray(), dense_adjacency(g))
