"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. The training-based criteria (5, 6, 7, 8, 10) exercise the full
pipeline on the synthetic benchmark and dominate the runtime (~10 minutes).
"""

import dataclasses
import json
import os
from pathlib import Path
import time

import numpy as np
import pytest

from gadkit import autodiff as ad
from gadkit.autodiff import Tensor, bce_with_logits, scaled_cosine_error, spmm
from gadkit.data import (SyntheticSpec, generate_synthetic, make_semi_split)
from gadkit.detector import classifier_logits, init_classifier
from gadkit.diagnostics import k_hop_reachable_ratio
from gadkit.encoders import EncoderConfig, encode, init_encoder
from gadkit.experiment import (ExperimentConfig, SplitRegime,
                               ablation_shuffle_ratio, run_experiment,
                               sweep_labeled_anomalies)
from gadkit.graph import build_graph, normalize_adjacency
from gadkit.graphlevel import GraphCollection, downsample_class
from gadkit.metrics import auprc, auroc
from gadkit.pretrain import DgiConfig, MaeConfig, dgi_loss, graphmae_loss

from conftest import (analytic_and_numeric_grads, assert_gradients_match,
                      max_rel_err, random_graph)

pytestmark = pytest.mark.acceptance

GRAD_TOL = 1e-4
ORACLE_TOL = 1e-12

# the default sparse benchmark: N=2000, 4 blocks, avg degree ~4, 5% anomalies
BENCHMARK = SyntheticSpec()
BACKBONE = "gin"


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:2d}] {status} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# --- criterion 1: gradient correctness ------------------------------------

def _kernel_cases(rng):
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((4, 3))
    bias = rng.standard_normal((1, 3))
    nudge = lambda x: x + np.sign(x) * 0.02  # stay off activation kinks
    cases = [
        (lambda ta, tb: ad.sum_all(ad.matmul(ta, tb)), [a, b]),
        (lambda t: ad.sum_all(ad.transpose(t)), [a]),
        (lambda ta, tb: ad.sum_all(ad.add(ta, tb)), [a, a.copy()]),
        (lambda t: ad.sum_all(ad.scale(t, -1.7)), [a]),
        (lambda th, tb: ad.sum_all(ad.add_bias(th, tb)),
         [rng.standard_normal((5, 3)), bias]),
        (lambda t: ad.sum_all(ad.mean_rows(t)), [a]),
        (lambda t: ad.sum_all(ad.gather_rows(t, np.array([0, 2, 4]))), [a]),
        (lambda t: ad.sum_all(ad.zero_rows(t, np.array([1, 3]))), [a]),
        (lambda tx, tt: ad.sum_all(
            ad.row_substitute(tx, np.array([0, 2]), tt)),
         [a, rng.standard_normal((1, 4))]),
        (lambda t1, t2: ad.sum_all(ad.concat_rows([t1, t2])), [a, a.copy()]),
        (lambda t, y=(rng.random((5, 1)) < 0.5).astype(float),
                w=rng.uniform(0.5, 3, (5, 1)): bce_with_logits(t, y, w),
         [rng.standard_normal((5, 1))]),
        (lambda tx, th: scaled_cosine_error(tx, th, 2.0),
         [rng.standard_normal((4, 3)), rng.standard_normal((4, 3))]),
    ]
    for kind in ad.ACTIVATIONS:
        cases.append((lambda t, k=kind: ad.sum_all(ad.activation(t, k)),
                      [nudge(rng.standard_normal((4, 3)))]))
    g = random_graph(rng, 8, avg_degree=3.0, feature_dim=2)
    adj = normalize_adjacency(g)
    cases.append((lambda t: ad.sum_all(spmm(adj, t)),
                  [rng.standard_normal((8, 2))]))
    return cases


def _swap_params(holder_layers, it):
    for layer in holder_layers:
        for i in range(len(layer)):
            layer[i] = next(it)


def _composite_cases(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 10, avg_degree=3.0, feature_dim=3)
    cfg = EncoderConfig(kind="gcn", input_dim=3, hidden_dim=4, num_layers=2,
                        activation="tanh")
    cases = []

    enc = init_encoder(cfg, seed)
    dgi = DgiConfig.create(4, shuffle_ratio=0.7, seed=seed)

    def dgi_composite(*tensors):
        it = iter(tensors)
        _swap_params(enc.layers, it)
        dgi.w_disc = next(it)
        return dgi_loss(enc, g, dgi, np.random.default_rng(seed + 1))

    cases.append((dgi_composite,
                  [p.values.copy() for p in enc.params()]
                  + [dgi.w_disc.values.copy()]))

    enc2 = init_encoder(cfg, seed + 10)
    mae = MaeConfig.create(3, 4, mask_ratio=0.5, gamma=2.0, seed=seed)
    mae.mask_token.values = rng.standard_normal((1, 3)) * 0.3

    def mae_composite(*tensors):
        it = iter(tensors)
        _swap_params(enc2.layers, it)
        mae.mask_token, mae.w_dec, mae.b_dec = next(it), next(it), next(it)
        return graphmae_loss(enc2, g, mae, np.random.default_rng(seed + 2))

    cases.append((mae_composite,
                  [p.values.copy() for p in enc2.params()]
                  + [mae.mask_token.values.copy(), mae.w_dec.values.copy(),
                     mae.b_dec.values.copy()]))

    # fine-tune loss: classifier over fixed embeddings
    clf = init_classifier(4, seed)
    h_fixed = rng.standard_normal((10, 4))
    y = np.zeros((6, 1))
    y[:2] = 1.0
    w = np.where(y == 1, 2.0, 1.0)

    def finetune_composite(*tensors):
        clf.w1, clf.b1, clf.w2, clf.b2 = tensors
        logits = classifier_logits(Tensor(h_fixed[:6]), clf)
        return bce_with_logits(logits, y, w)

    cases.append((finetune_composite, [p.values.copy() for p in clf.params()]))

    enc3 = init_encoder(cfg, seed + 20)
    clf2 = init_classifier(4, seed + 1)
    train_idx = np.arange(6)

    def end2end_composite(*tensors):
        it = iter(tensors)
        _swap_params(enc3.layers, it)
        clf2.w1, clf2.b1, clf2.w2, clf2.b2 = (next(it) for _ in range(4))
        h = encode(enc3, g)
        logits = classifier_logits(ad.gather_rows(h, train_idx), clf2)
        return bce_with_logits(logits, y, w)

    cases.append((end2end_composite,
                  [p.values.copy() for p in enc3.params() + clf2.params()]))
    return cases


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        for make_loss, arrays in _kernel_cases(rng) + _composite_cases(seed):
            analytic, numeric = analytic_and_numeric_grads(make_loss, arrays)
            worst = max(worst, max_rel_err(analytic, numeric))
            checked += 1
    elapsed = time.perf_counter() - started
    ok = worst < GRAD_TOL and elapsed < 120
    report(1, "gradient correctness", ok,
           f"{checked} checks, max rel err {worst:.2e} "
           f"(tol {GRAD_TOL}), {elapsed:.1f}s (cap 120s)")


# --- criterion 2: metric oracles -------------------------------------------

def _pairwise_auroc(scores, labels):
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = sum(float(p > q) + 0.5 * float(p == q) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def _sweep_auprc(scores, labels):
    p = labels.sum()
    ap = prev = 0.0
    for thr in sorted(set(scores), reverse=True):
        sel = scores >= thr
        tp = int(labels[sel].sum())
        recall = tp / p
        ap += (recall - prev) * (tp / sel.sum())
        prev = recall
    return ap


def test_criterion_2_metric_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    tied = 0
    for i in range(200):
        n = int(rng.integers(5, 60))
        scores = rng.random(n)
        if i % 4 == 0:
            scores = np.round(scores, 1)
            tied += 1
        labels = (rng.random(n) < 0.3).astype(np.int64)
        if labels.sum() == 0:
            labels[int(rng.integers(n))] = 1
        if labels.sum() == n:
            labels[int(rng.integers(n))] = 0
        worst = max(worst,
                    abs(auroc(scores, labels) - _pairwise_auroc(scores, labels)),
                    abs(auprc(scores, labels) - _sweep_auprc(scores, labels)))
    elapsed = time.perf_counter() - started
    ok = worst < ORACLE_TOL and tied >= 30 and elapsed < 10
    report(2, "metric oracles", ok,
           f"200 instances ({tied} tied), max |diff| {worst:.2e} "
           f"(tol {ORACLE_TOL}), {elapsed:.1f}s (cap 10s)")


# --- criterion 3: reachable-ratio oracle ------------------------------------

def test_criterion_3_reachability_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    exact = monotone = True
    for _ in range(100):
        n = int(rng.integers(20, 200))
        g = random_graph(rng, n, avg_degree=3.0)
        nodes = rng.permutation(n)
        labeled, unlabeled = nodes[:4], nodes[4:14]
        k_max = int(rng.integers(1, 6))
        rep = k_hop_reachable_ratio(g, labeled, unlabeled, k_max=k_max)
        for k in range(1, k_max + 1):
            ball = set()
            for s in labeled:
                seen = {int(s)}
                frontier = seen
                for _ in range(k):
                    frontier = {int(v) for u in frontier
                                for v in g.neighbors(u)} - seen
                    seen |= frontier
                ball |= seen
            want = sum(1 for u in unlabeled if int(u) in ball) / len(unlabeled)
            exact &= rep.ratio(k) == want
        monotone &= all(a <= b for a, b in zip(rep.ratios, rep.ratios[1:]))
    elapsed = time.perf_counter() - started
    ok = exact and monotone and elapsed < 10
    report(3, "R_k BFS-union oracle", ok,
           f"100 graphs exact={exact} monotone={monotone}, "
           f"{elapsed:.1f}s (cap 10s)")


# --- criterion 4: protocol exactness ----------------------------------------

def test_criterion_4_protocol_exactness():
    g = generate_synthetic(SyntheticSpec(num_nodes=1200, anomaly_fraction=0.2,
                                         clique_size=4, seed=4))
    ok = True
    for seed in range(100):
        split = make_semi_split(g, seed=seed)
        parts = [split.train_anomalies, split.train_normals,
                 split.val_anomalies, split.val_normals, split.test]
        total = sum(p.size for p in parts)
        ok &= split.train_anomalies.size == 20
        ok &= split.train_normals.size == 80
        ok &= np.unique(np.concatenate(parts)).size == total

    rng = np.random.default_rng(0)
    graphs = tuple(build_graph([(0, 1)], rng.standard_normal((2, 2)))
                   for _ in range(691 + 487))
    coll = GraphCollection(graphs=graphs,
                           class_ids=np.array([0] * 691 + [1] * 487))
    down = downsample_class(coll, 0, keep_fraction=0.10, seed=0)
    sampled = int((down.labels == 1).sum())
    ok &= sampled == 69
    report(4, "protocol exactness", ok,
           f"semi split 20/80 disjoint over 100 seeds; "
           f"DD downsample 691 -> {sampled} (want 69)")


# --- criteria 5 and 6: paired paradigm comparison ---------------------------

@pytest.fixture(scope="module")
def paradigm_runs():
    results = {}
    for paradigm in ("dgi", "end2end"):
        config = ExperimentConfig(dataset=BENCHMARK, paradigm=paradigm,
                                  encoder_kind=BACKBONE, trials=10,
                                  base_seed=0)
        results[paradigm] = run_experiment(config)
    return results


def test_criterion_5_pretraining_beats_end2end(paradigm_runs):
    started = time.perf_counter()
    d = np.array([t.auroc for t in paradigm_runs["dgi"].trials])
    e = np.array([t.auroc for t in paradigm_runs["end2end"].trials])
    diff = d - e
    ok = float(diff.mean()) > 0.0 and d.size == 10 and e.size == 10
    report(5, "DGI pretrain+finetune > end-to-end (test AUROC)", ok,
           f"mean AUROC dgi {d.mean():.4f} vs e2e {e.mean():.4f}, "
           f"paired mean diff {diff.mean():+.4f} "
           f"({int((diff > 0).sum())}/10 seeds positive), "
           f"{time.perf_counter() - started:.0f}s after shared runs")


def test_criterion_6_far_anomaly_ranking(paradigm_runs):
    d = np.array([t.far_rank for t in paradigm_runs["dgi"].trials],
                 dtype=float)
    e = np.array([t.far_rank for t in paradigm_runs["end2end"].trials],
                 dtype=float)
    ok = not np.isnan(d).any() and not np.isnan(e).any() \
        and float((d - e).mean()) > 0.0
    report(6, ">=3-hop anomaly rank: pretraining above end-to-end", ok,
           f"mean normalized rank dgi {np.nanmean(d):.4f} vs "
           f"e2e {np.nanmean(e):.4f}, paired mean diff {(d - e).mean():+.4f}")


# --- criterion 7: R_2 sweep over labeled-anomaly counts ---------------------

def test_criterion_7_r2_sweep_monotone():
    # the default benchmark has exactly 100 anomalies, so a count of 100
    # would leave no unlabeled anomalies; the sweep uses the same benchmark
    # family with a higher anomaly fraction (300 anomalies)
    dataset = dataclasses.replace(BENCHMARK, anomaly_fraction=0.15)
    config = ExperimentConfig(dataset=dataset, paradigm="end2end",
                              encoder_kind=BACKBONE, trials=10, base_seed=0)
    rows, _ = sweep_labeled_anomalies(config, [1, 5, 20, 100])
    r2 = [row[2] for row in rows]
    ok = all(a <= b for a, b in zip(r2, r2[1:]))
    report(7, "mean R_2 non-decreasing in labeled-anomaly count", ok,
           "R_2 " + " -> ".join(f"{v:.3f}" for v in r2)
           + " over counts 1, 5, 20, 100")


# --- criterion 8: shuffle-ratio ablation ------------------------------------

def test_criterion_8_shuffle_ratio_ablation(tmp_path):
    config = ExperimentConfig(dataset=BENCHMARK, paradigm="dgi",
                              encoder_kind=BACKBONE, trials=3, base_seed=0,
                              out_dir=str(tmp_path))
    rows, results = ablation_shuffle_ratio(config, [0.25, 0.5, 0.75, 1.0])
    csv_path = os.path.join(str(tmp_path), "ablation_shuffle.csv")
    lines = Path(csv_path).read_text().strip().splitlines()
    csv_ok = lines[0] == "shuffle_ratio,mean_auroc" and len(lines) == 5
    losses_ok = all(t.losses[-1] < t.losses[0]
                    for res in results for t in res.trials)
    ok = csv_ok and losses_ok and len(rows) == 4
    report(8, "DGI shuffle-ratio ablation", ok,
           f"4 ratios x 3 trials, CSV valid={csv_ok}, "
           f"every pretraining loss decreased={losses_ok}")


# --- criterion 9: determinism ------------------------------------------------

def test_criterion_9_bit_identical_reruns(tmp_path):
    small = dataclasses.replace(BENCHMARK, num_nodes=600,
                                anomaly_fraction=0.2, clique_size=4)
    configs = [
        ExperimentConfig(dataset=small, paradigm="dgi", encoder_kind="gcn",
                         trials=2, epochs=30, pretrain_epochs=20, base_seed=3),
        ExperimentConfig(dataset=small, paradigm="end2end", encoder_kind="gin",
                         trials=2, epochs=30, base_seed=7,
                         split=SplitRegime(regime="full", train_ratio=0.4)),
    ]
    ok = True
    detail = []
    for i, base in enumerate(configs):
        blobs = []
        for attempt in ("x", "y"):
            out = str(tmp_path / f"cfg{i}{attempt}")
            res = run_experiment(dataclasses.replace(base, out_dir=out))
            blobs.append(Path(res.run_dir, "aggregate.json").read_bytes())
        same = blobs[0] == blobs[1]
        ok &= same
        detail.append(f"config {i} identical={same}")
    report(9, "bit-identical aggregate.json on rerun", ok, "; ".join(detail))


# --- criterion 10: null-signal sanity ----------------------------------------

def test_criterion_10_null_signal():
    null = dataclasses.replace(BENCHMARK, feature_shift=0.0, structural=False)
    ok = True
    detail = []
    for paradigm in ("dgi", "graphmae", "end2end"):
        config = ExperimentConfig(dataset=null, paradigm=paradigm,
                                  encoder_kind=BACKBONE, trials=10, base_seed=0)
        mean = run_experiment(config).aggregate["metrics"]["auroc"]["mean"]
        inside = 0.45 <= mean <= 0.55
        ok &= inside
        detail.append(f"{paradigm} {mean:.4f}")
    report(10, "null signal AUROC in [0.45, 0.55]", ok, ", ".join(detail))
