from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from gadkit.graph import UNREACHABLE
from gadkit.metrics import (auprc, auroc, hop_avg_rank, normalized_ranks,
                            tied_ranks)


def pairwise_auroc(scores, labels):
    """O(P*N) comparison oracle: wins + half ties over all pos/neg pairs."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def sweep_auprc(scores, labels):
    """Exhaustive threshold sweep over every distinct score."""
    p = labels.sum()
    ap = 0.0
    prev_recall = 0.0
    for thr in sorted(set(scores), reverse=True):
        sel = scores >= thr
        tp = int(labels[sel].sum())
        precision = tp / sel.sum()
        recall = tp / p
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def random_instance(rng, n=40, tie_prob=0.0):
    scores = rng.random(n)
    if tie_prob:
        scores = np.round(scores, 1)  # heavy ties
    labels = (rng.random(n) < 0.3).astype(np.int64)
    if labels.sum() == 0:
        labels[rng.integers(n)] = 1
    if labels.sum() == n:
        labels[rng.integers(n)] = 0
    return scores, labels


def test_auroc_perfect():
    assert auroc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0


def test_auroc_all_tied():
    assert auroc([0.4] * 6, [1, 0, 1, 0, 0, 0]) == 0.5


def test_auroc_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    for i in range(50):
        scores, labels = random_instance(rng, tie_prob=(i % 2))
        assert abs(auroc(scores, labels) - pairwise_auroc(scores, labels)) < 1e-12


def test_auroc_single_class_rejected():
    with pytest.raises(ValueError, match="positive"):
        auroc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError, match="positive"):
        auroc([0.1, 0.2], [0, 0])


def test_auroc_monotone_transform_invariant():
    rng = np.random.default_rng(1)
    scores, labels = random_instance(rng)
    base = auroc(scores, labels)
    assert auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert auroc(3.0 * scores - 7.0, labels) == pytest.approx(base, abs=1e-12)


def test_auroc_flip_symmetry():
    rng = np.random.default_rng(2)
    scores, labels = random_instance(rng)
    assert auroc(-scores, 1 - labels) == pytest.approx(auroc(scores, labels),
                                                       abs=1e-12)


def test_auprc_perfect_ranking():
    assert auprc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0


def test_auprc_all_tied_equals_prevalence():
    scores = [0.5] * 10
    labels = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    assert auprc(scores, labels) == pytest.approx(0.3, abs=1e-15)


def test_auprc_matches_sweep_oracle():
    rng = np.random.default_rng(3)
    for i in range(50):
        scores, labels = random_instance(rng, tie_prob=(i % 2))
        assert abs(auprc(scores, labels) - sweep_auprc(scores, labels)) < 1e-12


def test_auprc_no_positive_rejected():
    with pytest.raises(ValueError, match="positive"):
        auprc([0.5, 0.4], [0, 0])


def test_auprc_at_least_prevalence_for_constant_scores():
    rng = np.random.default_rng(4)
    for _ in range(20):
        _, labels = random_instance(rng)
        prevalence = labels.mean()
        assert auprc(np.zeros(labels.size), labels) >= prevalence - 1e-12


def test_hop_rank_top_anomaly():
    ranks = hop_avg_rank([0.9, 0.1, 0.2, 0.3, 0.4], {0: 2})
    assert ranks == {"2": 1.0}


def test_hop_rank_all_tied():
    ranks = hop_avg_rank([0.5] * 6, {0: 1, 1: 3, 2: 9, 3: UNREACHABLE})
    assert ranks == {"1": 0.5, "3": 0.5, "4+": 0.5, "unreachable": 0.5}


def test_hop_rank_matches_naive_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = 30
        scores = np.round(rng.random(t), 1)
        anomalies = rng.choice(t, size=8, replace=False)
        hops = {int(a): int(h) for a, h in
                zip(anomalies, rng.integers(1, 7, size=8))}

        # quadratic re-rank: descending rank of i = 1 + #better + #ties/2
        def naive_rank(i):
            better = (scores > scores[i]).sum()
            ties = (scores == scores[i]).sum() - 1
            return better + ties / 2.0 + 1.0

        buckets = {}
        for i, h in hops.items():
            b = str(h) if h <= 3 else "4+"
            buckets.setdefault(b, []).append(1 - (naive_rank(i) - 1) / (t - 1))
        expect = {b: float(np.mean(v)) for b, v in buckets.items()}
        got = hop_avg_rank(scores, hops)
        assert got.keys() == expect.keys()
        for b in expect:
            assert got[b] == pytest.approx(expect[b], abs=1e-12)


def test_hop_rank_needs_two_nodes():
    with pytest.raises(ValueError, match="two"):
        hop_avg_rank([0.5], {0: 1})


def test_hop_rank_validates_indices_and_hops():
    with pytest.raises(ValueError, match="outside"):
        hop_avg_rank([0.5, 0.6], {7: 1})
    with pytest.raises(ValueError, match="invalid hop"):
        hop_avg_rank([0.5, 0.6], {0: 0})


def test_hop_rank_bounds_and_monotone_invariance():
    rng = np.random.default_rng(6)
    scores = rng.random(25)
    hops = {i: int(h) for i, h in enumerate(rng.integers(1, 6, size=10))}
    ranks = hop_avg_rank(scores, hops)
    assert all(0.0 <= v <= 1.0 for v in ranks.values())
    shifted = hop_avg_rank(np.exp(4 * scores), hops)
    for b in ranks:
        assert shifted[b] == pytest.approx(ranks[b], abs=1e-12)


def test_normalized_ranks_span():
    ranks = normalized_ranks([0.1, 0.9, 0.5])
    assert ranks.tolist() == [0.0, 1.0, 0.5]


def _loop_tied_ranks(x):
    """tied_ranks as the per-group Python loop it replaced."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(x.size, dtype=np.float64)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _loop_auprc(scores, labels):
    """auprc as the per-group Python loop it replaced."""
    p = int((labels == 1).sum())
    order = np.argsort(-scores, kind="mergesort")
    s, y = scores[order], labels[order]
    ap = 0.0
    tp = fp = 0
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and s[j + 1] == s[i]:
            j += 1
        grp_tp = int(y[i:j + 1].sum())
        tp += grp_tp
        fp += (j - i + 1) - grp_tp
        if grp_tp:
            ap += (grp_tp / p) * (tp / (tp + fp))
        i = j + 1
    return float(ap)


# few distinct values (signed zeros among them) so that ties are the rule
_tie_heavy = st.one_of(st.sampled_from([-0.0, 0.0, 0.5, 1.0, -3.0, 1e-300]),
                       st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_tie_heavy, st.integers(0, 1)), max_size=80))
def test_vectorized_ranks_and_ap_match_their_loops_bit_for_bit(rows):
    scores = np.array([s for s, _ in rows], dtype=np.float64)
    labels = np.array([y for _, y in rows], dtype=np.int64)
    assert tied_ranks(scores).tobytes() == _loop_tied_ranks(scores).tobytes()
    if labels.any():
        assert auprc(scores, labels) == _loop_auprc(scores, labels)
