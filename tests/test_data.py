from pathlib import Path

import numpy as np
import pytest

from gadkit.data import (SyntheticSpec, generate_synthetic, load_dataset,
                         make_full_split, make_semi_split, save_dataset)
from gadkit.graph import LABEL_UNKNOWN, graph_stats

from conftest import random_graph


def write(path, text):
    path.write_text(text)
    return str(path)


def test_load_triangle(tmp_path):
    edges = write(tmp_path / "e.txt", "0 1\n1 2\n2 0\n")
    feats = write(tmp_path / "x.csv", "1.0\n2.0\n3.0\n")
    labels = write(tmp_path / "y.txt", "0\n1\n?\n")
    g = load_dataset(edges, feats, labels)
    assert g.num_nodes == 3 and g.num_edges == 3
    assert g.labels.tolist() == [0, 1, LABEL_UNKNOWN]
    assert g.features[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_load_honors_comments_and_blanks(tmp_path):
    edges = write(tmp_path / "e.txt", "# header\n0 1  # trailing\n\n1 2\n")
    feats = write(tmp_path / "x.csv", "1.0\n2.0\n3.0\n")
    g = load_dataset(edges, feats)
    assert g.num_edges == 2
    assert (g.labels == LABEL_UNKNOWN).all()


def test_load_rejects_bad_label_with_line_number(tmp_path):
    edges = write(tmp_path / "e.txt", "0 1\n")
    feats = write(tmp_path / "x.csv", "1.0\n2.0\n")
    labels = write(tmp_path / "y.txt", "0\n2\n")
    with pytest.raises(ValueError, match=r"y\.txt:2"):
        load_dataset(edges, feats, labels)


def test_load_rejects_bad_feature_and_edge_lines(tmp_path):
    feats = write(tmp_path / "x.csv", "1.0\nnope\n")
    edges = write(tmp_path / "e.txt", "0 1\n")
    with pytest.raises(ValueError, match=r"x\.csv:2"):
        load_dataset(edges, feats)

    feats = write(tmp_path / "x2.csv", "1.0\n2.0\n")
    edges = write(tmp_path / "e2.txt", "0 1\n0 9\n")
    with pytest.raises(ValueError, match=r"e2\.txt:2.*out of range"):
        load_dataset(edges, feats)

    edges = write(tmp_path / "e3.txt", "0 1 2\n")
    with pytest.raises(ValueError, match=r"e3\.txt:1"):
        load_dataset(edges, feats)


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    g = random_graph(rng, 40, feature_dim=3)
    paths = [str(tmp_path / n) for n in ("e.txt", "x.csv", "y.txt")]
    save_dataset(g, *paths)
    g2 = load_dataset(*paths)
    assert np.array_equal(g.indptr, g2.indptr)
    assert np.array_equal(g.indices, g2.indices)
    assert np.array_equal(g.features, g2.features)
    assert np.array_equal(g.labels, g2.labels)

    # and the files themselves are stable under re-save
    paths2 = [str(tmp_path / n) for n in ("e2.txt", "x2.csv", "y2.txt")]
    save_dataset(g2, *paths2)
    for a, b in zip(paths, paths2):
        assert Path(a).read_text() == Path(b).read_text()


def test_synthetic_label_count_exact():
    spec = SyntheticSpec(num_nodes=1000, anomaly_fraction=0.05, seed=1)
    g = generate_synthetic(spec)
    assert int((g.labels == 1).sum()) == round(0.05 * 1000)


def test_synthetic_deterministic_per_seed():
    spec = SyntheticSpec(num_nodes=400, seed=9)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.features, b.features)
    c = generate_synthetic(SyntheticSpec(num_nodes=400, seed=10))
    assert not np.array_equal(a.indices, c.indices)


def test_synthetic_default_is_sparse_class():
    g = generate_synthetic(SyntheticSpec(seed=0))
    s = graph_stats(g)
    assert s.density < 0.01
    assert 2.0 < s.avg_degree < 8.0


def test_synthetic_validation():
    with pytest.raises(ValueError, match="anomaly fraction"):
        SyntheticSpec(anomaly_fraction=0.7)
    with pytest.raises(ValueError, match="probabilities"):
        SyntheticSpec(intra_p=1.5)
    with pytest.raises(ValueError, match="sum to num_nodes"):
        SyntheticSpec(num_nodes=10, block_sizes=(4, 4))
    with pytest.raises(ValueError, match="clique"):
        generate_synthetic(SyntheticSpec(num_nodes=100, anomaly_fraction=0.04,
                                         clique_size=10, seed=0))


def test_synthetic_structural_only_keeps_features_clean():
    spec = SyntheticSpec(num_nodes=400, contextual=False, clique_size=4,
                         feature_shift=1.5, seed=2)
    g = generate_synthetic(spec)
    anomalies = np.flatnonzero(g.labels == 1)
    # cliques appear among anomalies: their degrees exceed the background
    assert g.degrees[anomalies].mean() > g.degrees.mean()


def test_semi_split_default_protocol():
    g = generate_synthetic(SyntheticSpec(num_nodes=1500, anomaly_fraction=0.2,
                                         seed=3))
    split = make_semi_split(g, seed=0)
    assert split.train_anomalies.size == 20
    assert split.train_normals.size == 80
    assert split.train_nodes.size == 100
    assert split.val_anomalies.size == 20 and split.val_normals.size == 80
    labeled = (g.labels != LABEL_UNKNOWN).sum()
    assert split.test.size == labeled - 200


def test_semi_split_single_anomaly_regime():
    g = generate_synthetic(SyntheticSpec(num_nodes=1500, anomaly_fraction=0.2,
                                         seed=3))
    split = make_semi_split(g, n_anom=1, seed=0)
    assert split.train_anomalies.size == 1
    assert split.val_anomalies.size == 20


def test_semi_split_disjoint_over_many_seeds():
    g = generate_synthetic(SyntheticSpec(num_nodes=800, anomaly_fraction=0.2,
                                         seed=4))
    for seed in range(1000):
        split = make_semi_split(g, seed=seed)
        parts = np.concatenate([split.train_anomalies, split.train_normals,
                                split.val_anomalies, split.val_normals,
                                split.test])
        assert np.unique(parts).size == parts.size
        assert (g.labels[split.train_anomalies] == 1).all()
        assert (g.labels[split.train_normals] == 0).all()


def test_semi_split_insufficient_nodes():
    g = generate_synthetic(SyntheticSpec(num_nodes=200, anomaly_fraction=0.1,
                                         seed=5))  # only 20 anomalies
    with pytest.raises(ValueError, match="insufficient"):
        make_semi_split(g, seed=0)


def test_full_split_stratification_arithmetic():
    g = generate_synthetic(SyntheticSpec(num_nodes=1000, anomaly_fraction=0.1,
                                         seed=6))
    split = make_full_split(g, 0.4, seed=0)
    assert split.train_anomalies.size == 40
    assert split.train_normals.size == 360
    assert split.val_anomalies.size == 30  # half of the remaining 60
    assert split.test.size == 30 + 270

    split70 = make_full_split(g, 0.7, seed=0)
    assert split70.train_anomalies.size == 70
    assert split70.train_normals.size == 630


def test_full_split_deterministic():
    g = generate_synthetic(SyntheticSpec(num_nodes=400, anomaly_fraction=0.1,
                                         seed=7))
    a = make_full_split(g, 0.4, seed=3)
    b = make_full_split(g, 0.4, seed=3)
    assert np.array_equal(a.train_nodes, b.train_nodes)
    assert np.array_equal(a.test, b.test)


def test_full_split_small_class_rejected():
    g = generate_synthetic(SyntheticSpec(num_nodes=300, anomaly_fraction=0.1,
                                         seed=8))
    labels = np.zeros(300, dtype=np.int64)
    labels[:2] = 1  # two anomalies only
    from gadkit.graph import build_graph
    g2 = build_graph(g.edge_list(), g.features, labels)
    with pytest.raises(ValueError, match="need >= 3"):
        make_full_split(g2, 0.4, seed=0)

    with pytest.raises(ValueError, match="train_ratio"):
        make_full_split(g, 1.2, seed=0)
