import json
import os
from pathlib import Path
import sys
import threading

import numpy as np
import pytest

import gadkit.experiment as ex
import gadkit.graph
from gadkit.data import SyntheticSpec
from gadkit.experiment import (ExperimentConfig, SplitRegime,
                               ablation_shuffle_ratio, grid_search,
                               run_experiment, sweep_labeled_anomalies)


def tiny_config(**overrides):
    base = dict(
        dataset=SyntheticSpec(num_nodes=300, anomaly_fraction=0.2,
                              clique_size=4, feature_dim=6, seed=11),
        paradigm="dgi",
        hidden_dim=8,
        epochs=20,
        pretrain_epochs=10,
        trials=2,
        base_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_hash_stable_and_sensitive():
    a = tiny_config()
    assert a.config_hash() == tiny_config().config_hash()
    assert a.config_hash() != tiny_config(lr=0.01).config_hash()
    assert a.config_hash() != tiny_config(base_seed=1).config_hash()
    # execution details do not change identity
    assert a.config_hash() == tiny_config(out_dir="elsewhere",
                                          workers=4).config_hash()


def test_activation_resolution():
    assert tiny_config().resolved_activation() == "prelu"
    assert tiny_config(paradigm="end2end").resolved_activation() == "relu"
    assert tiny_config(activation="tanh").resolved_activation() == "tanh"


def test_single_trial_aggregate_equals_trial():
    result = run_experiment(tiny_config(trials=1))
    metrics = result.aggregate["metrics"]
    trial = result.trials[0]
    assert metrics["auroc"]["mean"] == trial.auroc
    assert metrics["auroc"]["std"] == 0.0
    assert metrics["auprc"]["mean"] == trial.auprc


def test_aggregate_matches_manual_mean(tmp_path):
    config = tiny_config(trials=3, out_dir=str(tmp_path))
    result = run_experiment(config)
    run_dir = result.run_dir
    per_trial = []
    for t in range(3):
        with open(os.path.join(run_dir, f"trial_{t}", "metrics.json")) as fh:
            per_trial.append(json.load(fh)["auroc"])
    manual = float(np.mean(per_trial))
    assert abs(result.aggregate["metrics"]["auroc"]["mean"] - manual) < 1e-12


def test_rerun_is_bit_identical(tmp_path):
    for sub in ("a", "b"):
        config = tiny_config(out_dir=str(tmp_path / sub))
        run_experiment(config)
    files_a = sorted((tmp_path / "a").rglob("*"))
    for fa in files_a:
        if fa.is_file():
            fb = tmp_path / "b" / fa.relative_to(tmp_path / "a")
            assert fa.read_bytes() == fb.read_bytes(), fa.name


def test_trial_artifacts_layout(tmp_path):
    config = tiny_config(trials=1, out_dir=str(tmp_path))
    result = run_experiment(config)
    trial_dir = os.path.join(result.run_dir, "trial_0")
    for name in ("scores.csv", "losses.csv", "reachability.json", "metrics.json"):
        assert os.path.exists(os.path.join(trial_dir, name)), name
    assert os.path.exists(os.path.join(result.run_dir, "aggregate.json"))

    with open(os.path.join(trial_dir, "scores.csv")) as fh:
        header = fh.readline().strip()
        first = fh.readline().strip().split(",")
    assert header == "node_id,score,label"
    assert first[0] == str(int(first[0]))
    assert 0.0 < float(first[1]) < 1.0  # plain parseable decimal
    assert first[2] in ("0", "1")

    payload = json.loads(Path(trial_dir, "reachability.json").read_text())
    assert set(payload) == {"R", "n_labeled", "n_unlabeled", "hops"}
    assert len(payload["R"]) == config.k_hops


def test_trial_seeds_follow_base_seed():
    result = run_experiment(tiny_config(trials=2, base_seed=7))
    assert [t.seed for t in result.trials] == [7, 8]


def test_failures_recorded_not_raised(monkeypatch):
    real = ex.run_trial

    def flaky(graph, config, seed):
        if seed == 1:
            raise RuntimeError("synthetic failure")
        return real(graph, config, seed)

    monkeypatch.setattr(ex, "run_trial", flaky)
    with pytest.warns(UserWarning, match="1 of 2 trials failed"):
        result = run_experiment(tiny_config(trials=2))
    assert not result.ok
    assert result.aggregate["n_completed"] == 1
    assert result.failures[0]["trial"] == 1
    assert "synthetic failure" in result.failures[0]["error"]


def test_workers_produce_same_aggregate(tmp_path):
    serial = run_experiment(tiny_config(trials=2, out_dir=str(tmp_path / "s")))
    threaded = run_experiment(tiny_config(trials=2, workers=2,
                                          out_dir=str(tmp_path / "t")))
    assert serial.aggregate == threaded.aggregate


def test_workers_share_operators_built_once_on_the_calling_thread(monkeypatch):
    built = []
    real_csr = gadkit.graph._frozen_csr
    real_normalize = gadkit.graph.normalize_adjacency

    def recording_csr(*args):
        built.append(("csr", threading.get_ident()))
        return real_csr(*args)

    def recording_normalize(g):
        built.append(("normalize", threading.get_ident()))
        return real_normalize(g)

    monkeypatch.setattr(gadkit.graph, "_frozen_csr", recording_csr)
    monkeypatch.setattr(gadkit.graph, "normalize_adjacency", recording_normalize)
    # more threads than cores, switching often, so unguarded builds would race
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result = run_experiment(tiny_config(encoder_kind="gin", trials=4, workers=4))
    finally:
        sys.setswitchinterval(interval)
    assert result.ok and len(result.trials) == 4
    main = threading.get_ident()
    # one CSR for A, and one for Â inside its one normalize_adjacency call
    assert sorted(built) == [("csr", main), ("csr", main), ("normalize", main)]


def test_end2end_paradigm_runs():
    result = run_experiment(tiny_config(paradigm="end2end", trials=1))
    assert 0.0 <= result.aggregate["metrics"]["auroc"]["mean"] <= 1.0


def test_full_split_regime_runs():
    config = tiny_config(trials=1, paradigm="graphmae",
                         split=SplitRegime(regime="full", train_ratio=0.4))
    result = run_experiment(config)
    assert result.ok


def test_grid_singleton_returns_it():
    result = grid_search(tiny_config(trials=1), {"lr": [0.005]})
    assert result.best_config.lr == 0.005
    assert len(result.rows) == 1


def test_grid_full_table(tmp_path, monkeypatch):
    # stub the trainer so the 9-point grid is instant and the selection
    # target is known: make one combo dominate on validation AUPRC
    def stub(graph, config, seed):
        score = 1.0 if (config.lr == 0.005 and config.num_layers == 3) else 0.2
        return score, 0.5

    monkeypatch.setattr(ex, "_validation_only", stub)
    config = tiny_config(trials=1, out_dir=str(tmp_path))
    result = grid_search(config, {"lr": [0.01, 0.005, 0.001],
                                  "num_layers": [1, 2, 3]})
    assert len(result.rows) == 9
    assert result.best_config.lr == 0.005
    assert result.best_config.num_layers == 3
    assert os.path.exists(os.path.join(str(tmp_path), "grid.csv"))
    trace = json.loads(Path(tmp_path, "selection_trace.json").read_text())
    assert trace["selected_index"] == result.best_index
    # selection never sees test metrics
    assert all("auroc" not in k or k.startswith("val")
               for row in trace["rows"] for k in row)


def test_grid_tiebreaks_prefer_smaller_models(monkeypatch):
    monkeypatch.setattr(ex, "_validation_only", lambda g, c, s: (0.7, 0.5))
    result = grid_search(tiny_config(trials=1), {"hidden_dim": [32, 8],
                                                 "num_layers": [3, 1]})
    assert result.best_config.hidden_dim == 8
    assert result.best_config.num_layers == 1


def test_grid_rejects_bad_keys_and_empty():
    with pytest.raises(ValueError, match="empty"):
        grid_search(tiny_config(), {})
    with pytest.raises(ValueError, match="cannot search"):
        grid_search(tiny_config(), {"trials": [1, 2]})


def test_ablation_rows_and_cross_check(tmp_path):
    config = tiny_config(trials=1, out_dir=str(tmp_path))
    rows, results = ablation_shuffle_ratio(config, [0.25, 1.0])
    assert [r for r, _ in rows] == [0.25, 1.0]
    independent = run_experiment(
        ExperimentConfig(**{**config.__dict__, "shuffle_ratio": 0.25}))
    assert rows[0][1] == independent.aggregate["metrics"]["auroc"]["mean"]
    csv = Path(tmp_path, "ablation_shuffle.csv").read_text()
    assert csv.startswith("shuffle_ratio,mean_auroc\n")
    assert len(csv.strip().splitlines()) == 3


def test_ablation_validates():
    with pytest.raises(ValueError, match="dgi"):
        ablation_shuffle_ratio(tiny_config(paradigm="end2end"), [0.5])
    with pytest.raises(ValueError, match="outside"):
        ablation_shuffle_ratio(tiny_config(), [1.5])


def test_sweep_labels_rows(tmp_path):
    config = tiny_config(trials=2, out_dir=str(tmp_path))
    rows, _ = sweep_labeled_anomalies(config, [1, 5])
    assert [c for c, _, _ in rows] == [1, 5]
    for _, score, r2 in rows:
        assert 0.0 <= score <= 1.0
        assert 0.0 <= r2 <= 1.0
    csv = Path(tmp_path, "sweep_labels.csv").read_text()
    assert csv.startswith("n_labeled_anomalies,mean_auroc,mean_r2\n")


def test_sweep_labels_validates():
    with pytest.raises(ValueError, match="semi"):
        sweep_labeled_anomalies(
            tiny_config(split=SplitRegime(regime="full")), [1])
    with pytest.raises(ValueError, match="exceeds"):
        sweep_labeled_anomalies(tiny_config(), [59])  # 60 anomalies total


def test_sweep_rows_match_independent_runs():
    config = tiny_config(trials=1)
    rows, _ = sweep_labeled_anomalies(config, [5])
    import dataclasses
    independent = run_experiment(dataclasses.replace(
        config, split=dataclasses.replace(config.split, n_anom=5)))
    assert rows[0][1] == independent.aggregate["metrics"]["auroc"]["mean"]
    assert rows[0][2] == independent.aggregate["metrics"]["r2"]["mean"]


def test_declared_search_space_covers_grid_fields():
    from gadkit.experiment import DEFAULT_SEARCH_SPACE, GRID_FIELDS
    assert set(DEFAULT_SEARCH_SPACE) <= set(GRID_FIELDS)
    assert DEFAULT_SEARCH_SPACE["lr"] == [0.01, 0.005, 0.001]
    assert DEFAULT_SEARCH_SPACE["hidden_dim"] == [32, 64]
    assert DEFAULT_SEARCH_SPACE["num_layers"] == [1, 2, 3]
    assert len(DEFAULT_SEARCH_SPACE["epochs"]) == 10
