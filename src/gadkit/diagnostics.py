"""Label-propagation diagnostics: k-hop reachable ratio and density classes.

The k-hop reachable ratio R_k is the fraction of held-out (unlabeled)
anomalies lying within k hops of any labeled anomaly. Density classes split
graphs into dense (density > 1%), over-sparse (density <= 1% and average
degree <= 2) and sparse (the rest); both thresholds follow the verbal
convention documented on DensityClass.
"""

from dataclasses import dataclass
import json

import numpy as np

from .graph import UNREACHABLE, multi_source_bfs_hops

DENSITY_THRESHOLD = 0.01
OVERSPARSE_DEGREE = 2.0
K_MAX = 3  # R_1..R_3 unless asked otherwise


@dataclass(frozen=True)
class ReachabilityReport:
    """R_1..R_K plus the per-anomaly hop distances behind them."""

    ratios: tuple
    n_labeled: int
    n_unlabeled: int
    hops: np.ndarray  # hop of each unlabeled anomaly, UNREACHABLE if cut off

    def ratio(self, k):
        if not 1 <= k <= len(self.ratios):
            raise ValueError(f"k={k} outside computed range 1..{len(self.ratios)}")
        return self.ratios[k - 1]

    def to_dict(self):
        return {
            "R": list(self.ratios),
            "n_labeled": self.n_labeled,
            "n_unlabeled": self.n_unlabeled,
            "hops": [int(h) for h in self.hops],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def check_k_max(k_max):
    """R_k is reported for k = 1..k_max, so k_max is at least 1."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")


def k_hop_reachable_ratio(graph, labeled_anomalies, unlabeled_anomalies,
                          k_max=K_MAX):
    """ReachabilityReport for R_1..R_{k_max} via one multi-source BFS."""
    labeled = np.asarray(labeled_anomalies, dtype=np.int64)
    unlabeled = np.asarray(unlabeled_anomalies, dtype=np.int64)
    if labeled.size == 0:
        raise ValueError("labeled anomaly set is empty")
    if unlabeled.size == 0:
        raise ValueError("unlabeled anomaly set is empty; the ratio is undefined")
    if np.intersect1d(labeled, unlabeled).size:
        raise ValueError("labeled and unlabeled anomaly sets must be disjoint")
    check_k_max(k_max)

    dist = multi_source_bfs_hops(graph, labeled)
    hops = dist[unlabeled]
    reached = hops != UNREACHABLE
    ratios = tuple(float((reached & (hops <= k)).mean()) for k in range(1, k_max + 1))
    return ReachabilityReport(ratios=ratios, n_labeled=int(labeled.size),
                              n_unlabeled=int(unlabeled.size), hops=hops)


@dataclass(frozen=True)
class DensityClass:
    """Category plus the measured density/degree that produced it.

    Boundary convention: dense requires density strictly above 1%;
    over-sparse requires density <= 1% and average degree <= 2.
    """

    category: str  # "dense" | "sparse" | "over-sparse"
    density: float
    avg_degree: float


def classify_density(stats):
    if stats.density > DENSITY_THRESHOLD:
        cat = "dense"
    elif stats.avg_degree <= OVERSPARSE_DEGREE:
        cat = "over-sparse"
    else:
        cat = "sparse"
    return DensityClass(category=cat, density=stats.density, avg_degree=stats.avg_degree)


def reachability_vs_labels(graph, anomalies, label_counts, trials=10, seed=0, k=2):
    """Mean R_k as the number of labeled anomalies grows.

    For each count c, samples c anomalies uniformly as the labeled set
    (per trial) and measures R_k against the remaining anomalies. Returns
    a list of (count, mean R_k) rows in the requested order.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    anomalies = np.asarray(anomalies, dtype=np.int64)
    rng = np.random.default_rng(seed)
    rows = []
    for count in label_counts:
        if not 1 <= count <= anomalies.size - 1:
            raise ValueError(f"count {count} leaves no unlabeled anomalies "
                             f"(have {anomalies.size})")
        total = 0.0
        for _ in range(trials):
            perm = rng.permutation(anomalies)
            report = k_hop_reachable_ratio(graph, perm[:count], perm[count:], k_max=k)
            total += report.ratio(k)
        rows.append((int(count), total / trials))
    return rows
