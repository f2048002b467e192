"""Threshold-free evaluation: AUROC, AUPRC and per-hop ranking analysis.

Scores and labels travel as parallel arrays (score: real, label: 0/1).
AUROC uses the Mann-Whitney rank form with average ranks on ties. AUPRC is
average precision with equal-score groups processed atomically, so tied
scores cannot inflate the curve.
"""

import numpy as np

from .graph import UNREACHABLE

HOP_BUCKETS = ("1", "2", "3", "4+", "unreachable")


def _check_pair(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores {scores.shape} and labels {labels.shape} must be "
                         "1-D and parallel")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0/1")
    return scores, labels.astype(np.int64)


def _tie_groups(sorted_values):
    """Start index and length of each run of equal values in a sorted array."""
    starts = np.flatnonzero(np.concatenate(
        ([True], sorted_values[1:] != sorted_values[:-1])))
    return starts, np.diff(np.append(starts, sorted_values.size))


def tied_ranks(x):
    """1-based ranks of x ascending, ties sharing their average rank."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="mergesort")
    starts, counts = _tie_groups(x[order])
    ranks = np.empty(x.size, dtype=np.float64)
    # a group spanning sorted positions i..j gets 0.5 * (i + j) + 1
    ranks[order] = np.repeat(0.5 * (2 * starts + counts - 1) + 1.0, counts)
    return ranks


def auroc(scores, labels):
    """P(random positive outranks random negative), ties counted half."""
    scores, labels = _check_pair(scores, labels)
    pos = labels == 1
    p = int(pos.sum())
    n = scores.size - p
    if p == 0 or n == 0:
        raise ValueError("AUROC needs at least one positive and one negative")
    ranks = tied_ranks(scores)
    return float((ranks[pos].sum() - p * (p + 1) / 2.0) / (p * n))


def auprc(scores, labels):
    """Average precision; tied scores are folded into one threshold step."""
    scores, labels = _check_pair(scores, labels)
    p = int((labels == 1).sum())
    if p == 0:
        raise ValueError("AUPRC needs at least one positive")
    order = np.argsort(-scores, kind="mergesort")
    s, y = scores[order], labels[order]
    starts, counts = _tie_groups(s)
    grp_tp = np.add.reduceat(y, starts)
    # precision at each group's threshold: cumulative tp over rows seen so far
    terms = (grp_tp / p) * (np.cumsum(grp_tp) / np.cumsum(counts))
    # cumsum adds in sequence, as the loop's running total did; np.sum would
    # add pairwise and round differently
    return float(np.cumsum(terms[grp_tp > 0])[-1])


def normalized_ranks(scores):
    """Descending-rank position rescaled to [0, 1], 1 = highest score."""
    scores = np.asarray(scores, dtype=np.float64)
    t = scores.size
    if t < 2:
        raise ValueError("need at least two scored nodes to rank")
    desc = t + 1.0 - tied_ranks(scores)
    return 1.0 - (desc - 1.0) / (t - 1.0)


def hop_bucket(hop):
    if hop == UNREACHABLE:
        return "unreachable"
    if hop >= 4:
        return "4+"
    if hop in (1, 2, 3):
        return str(hop)
    raise ValueError(f"invalid hop distance {hop} for a held-out anomaly")


def hop_avg_rank(scores, anomaly_hops):
    """Mean normalized rank of held-out anomalies, bucketed by hop distance.

    scores: one score per evaluation node. anomaly_hops: mapping from an
    anomaly's index in `scores` to its hop distance from the nearest labeled
    anomaly (UNREACHABLE when disconnected). Returns {bucket: mean rank}
    over the non-empty buckets 1, 2, 3, 4+, unreachable.
    """
    norm = normalized_ranks(scores)
    sums = {}
    counts = {}
    for idx, hop in anomaly_hops.items():
        if not 0 <= idx < norm.size:
            raise ValueError(f"anomaly index {idx} outside the scored set")
        b = hop_bucket(int(hop))
        sums[b] = sums.get(b, 0.0) + norm[idx]
        counts[b] = counts.get(b, 0) + 1
    return {b: sums[b] / counts[b] for b in HOP_BUCKETS if b in sums}
