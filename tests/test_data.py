import os
from pathlib import Path
import tracemalloc
from types import SimpleNamespace

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from gadkit import data
from gadkit.data import (SyntheticSpec, generate_synthetic, label_tokens,
                         load_dataset, make_full_split, make_semi_split,
                         save_dataset, write_csv, write_text)
from gadkit.graph import LABEL_UNKNOWN, build_graph, graph_stats

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


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_load_rejects_a_non_finite_feature_with_its_line(tmp_path, token):
    feats = write(tmp_path / "x.csv", f"1.0,2.0\n3.0,{token}\n")
    edges = write(tmp_path / "e.txt", "0 1\n")
    with pytest.raises(ValueError, match=r"x\.csv:2: non-finite"):
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


class _Unprintable:
    """A feature cell whose formatting raises, as a crash mid-write would."""

    def __float__(self):
        raise RuntimeError("cannot format this cell")

    __str__ = __repr__ = __float__


def test_a_save_that_fails_midway_keeps_the_old_files_whole(tmp_path):
    g = random_graph(np.random.default_rng(0), 20, feature_dim=3)
    paths = [str(tmp_path / n) for n in ("e.txt", "x.csv", "y.txt")]
    save_dataset(g, *paths)
    before = [Path(p).read_bytes() for p in paths]
    features = g.features.astype(object)
    features[5, 1] = _Unprintable()
    broken = SimpleNamespace(edge_list=g.edge_list, features=features, labels=g.labels)
    with pytest.raises(RuntimeError, match="cannot format"):
        save_dataset(broken, *paths)
    assert [Path(p).read_bytes() for p in paths] == before
    assert sorted(os.listdir(tmp_path)) == ["e.txt", "x.csv", "y.txt"]


def test_a_write_that_raises_keeps_the_old_bytes_and_leaves_no_tmp_file(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("old\n")
    with pytest.raises(TypeError):
        write_text(str(path), None)
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["x.txt"]


def test_write_csv_cells_and_label_tokens(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["a", "b", "c"],
              [(np.float64(0.1), np.int64(3), None), (1.0, "x", 1e-17)])
    assert Path(path).read_text() == "a,b,c\n0.1,3,None\n1.0,x,1e-17\n"
    write_csv(path, None, [])
    assert Path(path).read_text() == ""
    rows = [(i, i / 7) for i in range(1100)]  # more than two blocks of rows
    write_csv(path, None, iter(rows))
    assert Path(path).read_text() == "".join(f"{i},{v!r}\n" for i, v in rows)
    assert label_tokens(np.array([0, 1, LABEL_UNKNOWN, 1])) == ["0", "1", "?", "1"]


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


@pytest.mark.parametrize("fields, n_struct", [
    ({"clique_size": 1}, 80),
    ({"clique_size": 0}, 80),
    ({"clique_size": 81}, 80),
    ({"contextual": False, "clique_size": 101}, 100),
    ({"num_nodes": 100, "anomaly_fraction": 0.04, "clique_size": 4}, 3)],
    ids=["one", "zero", "above-structural", "structural-only", "few-anomalies"])
def test_synthetic_rejects_an_infeasible_clique_size_when_built(fields, n_struct):
    with pytest.raises(ValueError, match=f"clique size {fields['clique_size']} "
                                         f"infeasible for {n_struct} structural"):
        SyntheticSpec(**fields)


@pytest.mark.parametrize("fields", [
    {"clique_size": 80}, {"clique_size": 1, "structural": False},
    {"clique_size": 0, "structural_fraction": 0.0}],
    ids=["structural-count", "no-structural", "no-structural-fraction"])
def test_synthetic_accepts_any_clique_size_it_will_use_or_ignore(fields):
    spec = SyntheticSpec(**fields)
    assert spec.anomaly_counts()[1] in (0, spec.clique_size)


@pytest.mark.parametrize("field", ["feature_noise", "feature_shift", "block_feature_gap"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_synthetic_rejects_non_finite_feature_parameters(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SyntheticSpec(**{field: value})


@pytest.mark.parametrize("fields, match", [
    ({"num_blocks": 0}, "num_blocks=0"),
    ({"num_blocks": -2}, "num_blocks=-2"),
    ({"num_nodes": 2000, "block_sizes": (-1, 2001)}, "must not be negative")],
    ids=["no-blocks", "negative-blocks", "negative-size"])
def test_synthetic_rejects_block_layouts_it_cannot_generate(fields, match):
    with pytest.raises(ValueError, match=match):
        SyntheticSpec(**fields)


def test_synthetic_generates_empty_blocks():
    spec = SyntheticSpec(num_nodes=100, block_sizes=(0, 60, 0, 40), clique_size=4)
    assert generate_synthetic(spec).num_nodes == 100
    more_blocks_than_nodes = SyntheticSpec(num_nodes=10, num_blocks=12, clique_size=2,
                                           anomaly_fraction=0.2)
    assert more_blocks_than_nodes.resolved_blocks() == (1,) * 10 + (0, 0)
    assert generate_synthetic(more_blocks_than_nodes).num_nodes == 10


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


def _loop_generate_synthetic(spec):
    """generate_synthetic as first written: (u, v) tuples from per-pair and
    per-clique loops, one feature draw per contextual anomaly."""
    rng = np.random.default_rng(spec.seed)
    n = spec.num_nodes
    sizes = spec.resolved_blocks()
    offsets = np.cumsum((0,) + sizes[:-1])
    block_mean = spec.block_feature_gap * np.repeat(
        np.arange(len(sizes)), sizes).astype(np.float64)
    features = (block_mean[:, None]
                + spec.feature_noise * rng.standard_normal((n, spec.feature_dim)))
    n_anom = int(round(spec.anomaly_fraction * n))
    anomalies = rng.choice(n, size=n_anom, replace=False)
    if spec.contextual and spec.structural:
        n_struct = int(round(spec.structural_fraction * n_anom))
    else:
        n_struct = n_anom if spec.structural else 0
    context_nodes = anomalies[n_struct:] if spec.contextual else anomalies[n_anom:]
    for v in context_nodes:
        features[v] = (block_mean[v] + spec.feature_shift
                       + spec.feature_noise * rng.standard_normal(spec.feature_dim))
    edges = []
    for i in range(len(sizes)):
        for j in range(i, len(sizes)):
            p = spec.intra_p if i == j else spec.inter_p
            if p <= 0.0:
                continue
            if offsets[i] == offsets[j]:
                mask = np.triu(rng.random((sizes[i], sizes[i])) < p, k=1)
            else:
                mask = rng.random((sizes[i], sizes[j])) < p
            iu, ju = np.where(mask)
            edges.extend(zip(iu + offsets[i], ju + offsets[j]))
    if n_struct:
        q = spec.clique_size
        if q < 2 or q > n_struct:
            raise ValueError(f"clique size {q} infeasible for {n_struct} structural anomalies")
        order = rng.permutation(anomalies[:n_struct])
        groups = [order[k:k + q] for k in range(0, n_struct, q)]
        if len(groups) > 1 and groups[-1].size < 2:
            groups[-2] = np.concatenate([groups[-2], groups[-1]])
            groups.pop()
        for grp in groups:
            for a in range(grp.size):
                for b in range(a + 1, grp.size):
                    edges.append((grp[a], grp[b]))
    labels = np.zeros(n, dtype=np.int64)
    labels[anomalies] = 1
    return build_graph(edges, features, labels)


@st.composite
def _synthetic_specs(draw):
    # blocks of one node and probabilities of 0 and 1 included
    sizes = draw(st.lists(st.integers(1, 25), min_size=1, max_size=5)
                 .filter(lambda s: sum(s) >= 2))
    try:
        return SyntheticSpec(
            num_nodes=sum(sizes), num_blocks=len(sizes),
            block_sizes=tuple(sizes) if draw(st.booleans()) else (),
            intra_p=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
            inter_p=draw(st.sampled_from([0.0, 0.02, 0.2])),
            anomaly_fraction=draw(st.floats(0.01, 0.49)),
            feature_dim=draw(st.integers(1, 4)),
            block_feature_gap=draw(st.sampled_from([0.0, 0.7])),
            clique_size=draw(st.integers(2, 6)),
            structural_fraction=draw(st.floats(0.0, 1.0)),
            contextual=draw(st.booleans()), structural=draw(st.booleans()),
            seed=draw(st.integers(0, 2 ** 32 - 1)))
    except ValueError as exc:
        # a clique size the drawn structural anomalies cannot hold is
        # rejected when the spec is built
        assume("infeasible" not in str(exc))
        raise


@settings(max_examples=150, deadline=None)
@given(_synthetic_specs())
def test_synthetic_matches_its_loop_form_byte_for_byte(spec):
    try:
        expect = _loop_generate_synthetic(spec)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            generate_synthetic(spec)
        return
    got = generate_synthetic(spec)
    for name in ("indptr", "indices", "features", "labels"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _dense_block_edges(rng, offset_a, size_a, offset_b, size_b, p):
    """_block_edges as one dense draw: a (size_a, size_b) mask of uniforms
    below p, its upper triangle on a diagonal pair, then argwhere."""
    if p <= 0.0:
        return np.empty((0, 2), dtype=np.int64)
    mask = rng.random((size_a, size_b)) < p
    if offset_a == offset_b:
        mask = np.triu(mask, k=1)
    return np.argwhere(mask) + (offset_a, offset_b)


# sides from empty to several bands of the real buffer (2^18 doubles)
_SIDES = st.one_of(st.integers(0, 40), st.integers(520, 700))


@pytest.mark.parametrize("chunk", [1, 7, 64, data._CHUNK])
@settings(max_examples=60, deadline=None)
@given(size_a=_SIDES, size_b=_SIDES, diagonal=st.booleans(), offset=st.integers(0, 50),
       p=st.sampled_from([0.0, 0.003, 0.1, 0.5, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_block_edges_equal_one_dense_draw_across_buffer_edges(chunk, size_a, size_b,
                                                              diagonal, offset, p, seed):
    if diagonal:
        pair = (offset, size_a, offset, size_a)
    else:
        pair = (offset, size_a, offset + size_a, size_b)
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _dense_block_edges(want_rng, *pair, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_CHUNK", chunk)
        got = data._block_edges(got_rng, *pair, p)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_synthetic_matches_its_loop_form_over_several_buffers_per_pair():
    # blocks of 750 nodes: 562,500 doubles per pair, two full buffers and a
    # ragged third
    spec = SyntheticSpec(num_nodes=3000, seed=4)
    got, expect = generate_synthetic(spec), _loop_generate_synthetic(spec)
    for name in ("indptr", "indices", "features", "labels"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_synthetic_generation_memory_does_not_grow_with_block_pairs():
    # one dense draw per block pair would trace 218 MiB; the features take 2.4 MiB
    spec = SyntheticSpec(num_nodes=20000, intra_p=0.0007, inter_p=0.00003)
    tracemalloc.start()
    try:
        generate_synthetic(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
