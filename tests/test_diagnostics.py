import json

import numpy as np
import pytest

from gadkit.diagnostics import (classify_density, k_hop_reachable_ratio,
                                reachability_vs_labels)
from gadkit.graph import UNREACHABLE, build_graph, graph_stats

from conftest import random_graph


def test_path_graph_ratios():
    g = build_graph([(0, 1), (1, 2)], np.zeros((3, 1)))
    report = k_hop_reachable_ratio(g, [0], [1, 2], k_max=2)
    assert report.ratios == (0.5, 1.0)
    assert report.hops.tolist() == [1, 2]


def test_disconnected_anomalies():
    g = build_graph([(0, 1)], np.zeros((4, 1)))
    report = k_hop_reachable_ratio(g, [0], [2, 3], k_max=3)
    assert report.ratios == (0.0, 0.0, 0.0)
    assert report.hops.tolist() == [UNREACHABLE, UNREACHABLE]


def test_matches_per_source_bfs_union_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(20, 200))
        g = random_graph(rng, n, avg_degree=3.0)
        nodes = rng.permutation(n)
        labeled = nodes[:5]
        unlabeled = nodes[5:15]
        k_max = int(rng.integers(1, 6))
        report = k_hop_reachable_ratio(g, labeled, unlabeled, k_max=k_max)

        # union of per-source BFS balls of radius k
        for k in range(1, k_max + 1):
            ball = set()
            for s in labeled:
                frontier = {int(s)}
                seen = {int(s)}
                for _ in range(k):
                    frontier = {int(v) for u in frontier for v in g.neighbors(u)} - seen
                    seen |= frontier
                ball |= seen
            expect = sum(1 for u in unlabeled if int(u) in ball) / len(unlabeled)
            assert report.ratio(k) == expect

        ratios = report.ratios
        assert all(a <= b for a, b in zip(ratios, ratios[1:]))


def test_superset_sources_never_lower():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 100, avg_degree=3.0)
    nodes = rng.permutation(100)
    unlabeled = nodes[:20]
    small = nodes[20:23]
    big = nodes[20:30]
    r_small = k_hop_reachable_ratio(g, small, unlabeled, k_max=4).ratios
    r_big = k_hop_reachable_ratio(g, big, unlabeled, k_max=4).ratios
    assert all(b >= s for s, b in zip(r_small, r_big))


def test_validates_sets():
    g = build_graph([(0, 1)], np.zeros((3, 1)))
    with pytest.raises(ValueError, match="labeled anomaly set is empty"):
        k_hop_reachable_ratio(g, [], [1])
    with pytest.raises(ValueError, match="undefined"):
        k_hop_reachable_ratio(g, [0], [])
    with pytest.raises(ValueError, match="disjoint"):
        k_hop_reachable_ratio(g, [0, 1], [1, 2])


def test_report_json_shape():
    g = build_graph([(0, 1), (1, 2)], np.zeros((3, 1)))
    report = k_hop_reachable_ratio(g, [0], [1, 2], k_max=2)
    payload = json.loads(report.to_json())
    assert payload == {"R": [0.5, 1.0], "n_labeled": 1, "n_unlabeled": 2,
                       "hops": [1, 2]}


class FakeStats:
    def __init__(self, density, avg_degree):
        self.density = density
        self.avg_degree = avg_degree


def test_density_categories_match_reference_datasets():
    # density/degree figures shaped like Amazon, DGraph-Fin and Reddit
    assert classify_density(FakeStats(0.0308, 368.3)).category == "dense"
    assert classify_density(FakeStats(0.0001, 1.2)).category == "over-sparse"
    assert classify_density(FakeStats(0.0014, 15.3)).category == "sparse"


def test_density_boundary_is_strict():
    assert classify_density(FakeStats(0.01, 50.0)).category == "sparse"
    assert classify_density(FakeStats(0.01, 2.0)).category == "over-sparse"
    assert classify_density(FakeStats(0.010000001, 1.0)).category == "dense"


def test_classify_density_from_real_stats():
    g = build_graph([(0, 1), (1, 2), (2, 0)], np.zeros((3, 1)))
    cls = classify_density(graph_stats(g))
    assert cls.category == "dense"
    assert cls.density == 1.0


def test_reachability_vs_labels_saturates():
    # star: center 0 adjacent to everything; any labeled set reaches all
    edges = [(0, i) for i in range(1, 8)]
    g = build_graph(edges, np.zeros((8, 1)))
    anomalies = np.arange(8)
    rows = reachability_vs_labels(g, anomalies, [7], trials=5, seed=0)
    assert rows == [(7, 1.0)]


def test_reachability_vs_labels_monotone_in_count():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 150, avg_degree=4.0)
    anomalies = rng.choice(150, size=40, replace=False)
    rows = reachability_vs_labels(g, anomalies, [1, 10, 30], trials=10, seed=3)
    values = [r for _, r in rows]
    assert values[0] <= values[1] <= values[2]


def test_reachability_vs_labels_deterministic():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 60, avg_degree=3.0)
    anomalies = rng.choice(60, size=12, replace=False)
    a = reachability_vs_labels(g, anomalies, [2, 5], trials=4, seed=7)
    b = reachability_vs_labels(g, anomalies, [2, 5], trials=4, seed=7)
    assert a == b


@pytest.mark.parametrize("trials", [0, -1])
def test_reachability_vs_labels_rejects_fewer_than_one_trial(monkeypatch, trials):
    import gadkit.diagnostics as diag
    calls = []
    monkeypatch.setattr(diag, "k_hop_reachable_ratio", lambda *a, **k: calls.append(a))
    g = build_graph([(0, 1), (1, 2)], np.zeros((3, 1)))
    with pytest.raises(ValueError, match="at least one trial"):
        reachability_vs_labels(g, [0, 1, 2], [1], trials=trials, seed=0)
    assert calls == []


def test_reachability_vs_labels_count_bounds():
    g = build_graph([(0, 1)], np.zeros((3, 1)))
    with pytest.raises(ValueError, match="leaves no unlabeled"):
        reachability_vs_labels(g, [0, 1], [2], trials=1, seed=0)
