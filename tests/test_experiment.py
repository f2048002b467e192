from dataclasses import replace
import json
import os
from pathlib import Path
import sys
import threading

import numpy as np
import pytest

from gadkit import _blas, autodiff
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


@pytest.fixture(scope="module")
def real_trial():
    """One real TrialResult on tiny_config's graph, for stubs of run_trial
    to copy with the validation metrics they need."""
    config = tiny_config(trials=1, epochs=6, pretrain_epochs=4)
    return ex.run_trial(ex.load_config_graph(config), config, 0)


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


def test_failures_recorded_not_raised(monkeypatch, tmp_path):
    real = ex.run_trial

    def flaky(graph, config, seed):
        if seed == 1:
            raise RuntimeError("synthetic failure")
        return real(graph, config, seed)

    monkeypatch.setattr(ex, "run_trial", flaky)
    with pytest.warns(UserWarning, match="1 of 2 trials failed"):
        result = run_experiment(tiny_config(trials=2, out_dir=str(tmp_path)))
    assert not result.ok
    assert result.aggregate["n_completed"] == 1
    assert result.failures[0]["trial"] == 1
    assert "synthetic failure" in result.failures[0]["error"]
    # the aggregate keeps one line per failure; the trial keeps the traceback
    assert result.failures == [{"trial": 1,
                                "error": "RuntimeError: synthetic failure"}]
    error = Path(result.run_dir, "trial_1", "error.txt").read_text()
    assert error.startswith("Traceback (most recent call last):")
    assert "in flaky" in error
    assert error.rstrip().endswith("RuntimeError: synthetic failure")
    assert sorted(os.listdir(Path(result.run_dir, "trial_1"))) == ["error.txt"]
    assert not Path(result.run_dir, "trial_0", "error.txt").exists()

    monkeypatch.setattr(ex, "run_trial", real)
    rerun = run_experiment(tiny_config(trials=2, out_dir=str(tmp_path)))
    assert rerun.ok and rerun.run_dir == result.run_dir
    assert not Path(result.run_dir, "trial_1", "error.txt").exists()


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        tiny_config(workers=workers)


@pytest.mark.parametrize("lr", [float("nan"), 0.0, -1.0, float("inf")])
def test_lr_must_be_finite_and_positive(lr):
    # -1.0 used to train by gradient ascent and record an ok run
    with pytest.raises(ValueError, match="lr must be finite and positive"):
        tiny_config(lr=lr)


@pytest.mark.parametrize("gamma", [float("nan"), 0.5])
def test_sce_gamma_below_one_or_nan_rejected(gamma):
    with pytest.raises(ValueError, match="sce_gamma must be >= 1"):
        tiny_config(sce_gamma=gamma)


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


@pytest.mark.parametrize("call, workers", [
    (run_experiment, 2),
    (run_experiment, 1),
    (lambda cfg: ablation_shuffle_ratio(cfg, [0.5]), 2),
    (lambda cfg: sweep_labeled_anomalies(cfg, [2]), 2)],
    ids=["run", "run-serial", "ablation", "sweep"])
def test_trials_hold_blas_to_one_thread_and_restore_it_after_a_failure(
        blas_threads, monkeypatch, call, workers):
    real = ex.run_trial
    seen = {}

    def recording(graph, config, seed):
        seen[seed] = _blas.threads()
        if seed == 1:
            raise RuntimeError("synthetic failure")
        return real(graph, config, seed)

    monkeypatch.setattr(ex, "run_trial", recording)
    with pytest.warns(UserWarning, match="1 of 2 trials failed"):
        call(tiny_config(trials=2, workers=workers, epochs=6, pretrain_epochs=4))
    assert seen == {0: 1, 1: 1}
    assert _blas.threads() == blas_threads


def test_trial_scores_identical_between_one_and_two_workers(tmp_path):
    # 2000 nodes × 32 hidden units: large enough that OpenBLAS, given two
    # threads, splits the weight-gradient products and changes their bits
    config = tiny_config(dataset=SyntheticSpec(seed=11), hidden_dim=32,
                         epochs=5, pretrain_epochs=5, trials=2)
    serial = run_experiment(replace(config, out_dir=str(tmp_path / "s")))
    pooled = run_experiment(replace(config, workers=2, out_dir=str(tmp_path / "p")))
    for t in range(2):
        name = Path(f"trial_{t}", "scores.csv")
        assert (Path(serial.run_dir, name).read_bytes()
                == Path(pooled.run_dir, name).read_bytes())


def test_grid_runs_its_trials_on_the_pool_with_the_same_rows(
        tmp_path, monkeypatch, blas_threads):
    real = ex.run_trial
    seen = []

    def recording(graph, config, seed):
        on_main = threading.current_thread() is threading.main_thread()
        seen.append((_blas.threads(), on_main))
        return real(graph, config, seed)

    monkeypatch.setattr(ex, "run_trial", recording)
    config = tiny_config(trials=2, epochs=6, pretrain_epochs=4)
    grid = {"lr": [0.01, 0.005], "num_layers": [1, 2]}
    serial = grid_search(replace(config, out_dir=str(tmp_path / "s")), grid)
    assert seen == [(1, True)] * 8
    seen.clear()
    pooled = grid_search(replace(config, workers=2, out_dir=str(tmp_path / "p")), grid)
    assert seen == [(1, False)] * 8
    assert _blas.threads() == blas_threads
    assert serial.rows == pooled.rows
    assert [row["index"] for row in pooled.rows] == [0, 1, 2, 3]
    for name in ("grid.csv", "selection_trace.json"):
        assert (Path(tmp_path, "s", name).read_bytes()
                == Path(tmp_path, "p", name).read_bytes())


def test_grid_failure_raises_and_restores_blas_threads(
        monkeypatch, blas_threads, real_trial):
    seen = []

    def failing(graph, config, seed):
        seen.append(_blas.threads())
        if config.lr == 0.005:
            raise RuntimeError("synthetic failure")
        return replace(real_trial, val_auprc=0.5, val_auroc=0.5, seed=seed)

    monkeypatch.setattr(ex, "run_trial", failing)
    with pytest.raises(RuntimeError, match="synthetic failure"):
        grid_search(tiny_config(trials=2, workers=2), {"lr": [0.01, 0.005]})
    assert seen == [1] * 4
    assert _blas.threads() == blas_threads


# the heap is kept once per trial's training, inline and on a pool alike
@pytest.mark.parametrize("workers", [1, 2])
def test_inline_and_pooled_trials_both_keep_the_heap(monkeypatch, workers):
    calls = []
    monkeypatch.setattr(autodiff, "keep_heap", lambda: calls.append(1))

    def training_trial(graph, config, seed):
        p = autodiff.Tensor(np.zeros((1, 3)), requires_grad=True)
        autodiff.train([p], lambda: autodiff.sum_all(autodiff.activation(p, "tanh")),
                       2, 0.1)
        return seed

    monkeypatch.setattr(ex, "run_trial", training_trial)
    config = tiny_config(trials=2, workers=workers)
    outcomes = ex._map_trials(ex.load_config_graph(config), [config])
    assert outcomes == [[(0, 0, None), (1, 1, None)]]
    assert len(calls) == config.trials


# an epoch's worth of temporaries: each step allocates and frees 256 KB to
# 9.6 MB arrays, and counts the minor page faults that cost
_STEPS = """
import resource, sys
import numpy as np
from gadkit import _blas
if sys.argv[1] == "keep":
    _blas.keep_heap()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    for cols in (16, 64, 600):
        a = np.ones((2000, cols)); b = a * 2.0; c = b + a
        del a, b, c
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or os.confstr("CS_GNU_LIBC_VERSION") is None,
                    reason="keep_heap sets glibc's mallopt")
def test_kept_heap_stops_steps_faulting_their_pages_in_again():
    import subprocess
    src = str(Path(ex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    faults = {mode: int(subprocess.run(
        [sys.executable, "-c", _STEPS, mode], env=env, check=True,
        capture_output=True, text=True).stdout) for mode in ("plain", "keep")}
    # plain, glibc trims and re-faults some 2,400 pages every step; kept,
    # the pages are faulted in once
    assert faults["keep"] * 10 < faults["plain"]


# two end-to-end GCN trials on a 2-thread pool, mapped twice in a fresh
# process that trains nothing on its main thread; prints the minor page
# faults of the second map
_POOLED = """
import resource
from gadkit import SyntheticSpec
import gadkit.experiment as ex
config = ex.ExperimentConfig(
    dataset=SyntheticSpec(num_nodes=4000, intra_p=0.0035, inter_p=0.00015),
    paradigm="end2end", encoder_kind="gcn", epochs=10, trials=2, workers=2)
graph = ex.load_config_graph(config)
ex._map_trials(graph, [config])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
[outcomes] = ex._map_trials(graph, [config])
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
assert [exc for _, _, exc in outcomes] == [None, None], outcomes
print(faults)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or os.confstr("CS_GNU_LIBC_VERSION") is None,
                    reason="keep_heap sets glibc's mallopt")
def test_pooled_trials_do_not_fault_their_tape_in_again():
    import subprocess
    src = str(Path(ex.__file__).resolve().parents[1])
    faults = int(subprocess.run(
        [sys.executable, "-c", _POOLED],
        env=dict(os.environ, PYTHONPATH=src), check=True,
        capture_output=True, text=True).stdout)
    # with the pool threads' heap trimmed after every step this took
    # 4,000 to 8,000; kept, a few hundred
    assert faults < 2000


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


def test_grid_full_table(tmp_path, monkeypatch, real_trial):
    # stub the trials so the 9-point grid is instant and the selection
    # target is known: make one combo dominate on validation AUPRC
    def stub(graph, config, seed):
        score = 1.0 if (config.lr == 0.005 and config.num_layers == 3) else 0.2
        return replace(real_trial, val_auprc=score, val_auroc=0.5, seed=seed)

    monkeypatch.setattr(ex, "run_trial", stub)
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


def test_grid_tiebreaks_prefer_smaller_models(monkeypatch, real_trial):
    monkeypatch.setattr(ex, "run_trial", lambda g, c, s: replace(
        real_trial, val_auprc=0.7, val_auroc=0.5, seed=s))
    result = grid_search(tiny_config(trials=1), {"hidden_dim": [32, 8],
                                                 "num_layers": [3, 1]})
    assert result.best_config.hidden_dim == 8
    assert result.best_config.num_layers == 1


def test_grid_rejects_bad_keys_and_empty():
    with pytest.raises(ValueError, match="empty"):
        grid_search(tiny_config(), {})
    with pytest.raises(ValueError, match="cannot search"):
        grid_search(tiny_config(), {"trials": [1, 2]})


@pytest.mark.parametrize("paradigm, key", [
    ("end2end", "pretrain_epochs"), ("end2end", "shuffle_ratio"),
    ("end2end", "mask_ratio"), ("end2end", "sce_gamma"),
    ("dgi", "mask_ratio"), ("dgi", "sce_gamma"), ("graphmae", "shuffle_ratio")])
def test_grid_rejects_a_field_its_paradigm_never_reads_before_the_graph_loads(
        monkeypatch, paradigm, key):
    loads = []
    monkeypatch.setattr(ex, "load_config_graph", loads.append)
    with pytest.raises(ValueError, match=f"cannot search over '{key}' for {paradigm}"):
        grid_search(tiny_config(paradigm=paradigm), {key: [0.3, 0.5]})
    assert loads == []


@pytest.mark.parametrize("paradigm, grid", [("dgi", {"shuffle_ratio": [0.5, 1.0]}),
                                            ("graphmae", {"mask_ratio": [0.3, 0.5]})])
def test_grid_searches_its_paradigms_pretext_fields(paradigm, grid):
    config = tiny_config(paradigm=paradigm, trials=1, epochs=6, pretrain_epochs=4)
    result = grid_search(config, grid)
    [(key, values)] = grid.items()
    assert [row[key] for row in result.rows] == values
    assert getattr(result.best_config, key) in values


@pytest.mark.parametrize("grid", [{"lr": []}, {"lr": 0.01}, {"encoder_kind": "gin"}],
                         ids=["empty", "scalar", "string"])
def test_grid_values_must_be_non_empty_lists(monkeypatch, grid):
    loads = []
    monkeypatch.setattr(ex, "load_config_graph", loads.append)
    with pytest.raises(ValueError, match=repr(next(iter(grid)))):
        grid_search(tiny_config(), {"num_layers": [1, 2], **grid})
    assert loads == []


@pytest.mark.parametrize("overrides, match", [
    ({"hidden_dim": 0}, "dimensions must be positive"),
    ({"num_layers": 0}, "at least one layer"),
    ({"encoder_kind": "gat"}, "kind must be one of"),
    ({"activation": "gelu"}, "activation must be one of"),
    ({"shuffle_ratio": 1.5}, "outside"),
    ({"mask_ratio": 1.0}, "outside"),
    ({"epochs": 0}, "epochs"),
    ({"pretrain_epochs": 0}, "pretrain_epochs"),
    ({"split": {"n_anom": 0}}, "split sizes must be positive"),
    ({"split": {"regime": "full", "train_ratio": 1.5}}, "train_ratio")],
    ids=["hidden_dim", "num_layers", "encoder_kind", "activation", "shuffle_ratio",
         "mask_ratio", "epochs", "pretrain_epochs", "n_anom", "train_ratio"])
def test_a_config_a_trial_would_reject_is_rejected_when_built(overrides, match):
    with pytest.raises(ValueError, match=match):
        if "split" in overrides:
            overrides = {"split": SplitRegime(**overrides["split"])}
        tiny_config(**overrides)


@pytest.mark.parametrize("grid", [{"hidden_dim": [8, 16, 0]},
                                  {"shuffle_ratio": [0.5, 1.0, 1.5]},
                                  {"num_layers": [1, 2], "activation": ["relu", "gelu"]}],
                         ids=["hidden_dim", "shuffle_ratio", "activation"])
def test_a_grid_with_one_bad_value_raises_before_the_graph_loads(monkeypatch, grid):
    loads, trials = [], []
    monkeypatch.setattr(ex, "load_config_graph", loads.append)
    monkeypatch.setattr(ex, "run_trial", lambda *args: trials.append(args))
    with pytest.raises(ValueError):
        grid_search(tiny_config(), grid)
    assert loads == [] and trials == []


def test_the_ablation_checks_its_ratios_before_the_graph_loads(monkeypatch):
    loads = []
    monkeypatch.setattr(ex, "load_config_graph", loads.append)
    with pytest.raises(ValueError, match="shuffle ratio -0.5 outside"):
        ablation_shuffle_ratio(tiny_config(), [0.5, -0.5])
    assert loads == []


def test_grid_trains_each_trial_once_and_measures_its_split_first(monkeypatch):
    trained = []
    train = ex._train_models

    def counting(*args):
        trained.append(args)
        return train(*args)

    monkeypatch.setattr(ex, "_train_models", counting)
    config = tiny_config(trials=2, epochs=6, pretrain_epochs=4)
    grid_search(config, {"lr": [0.01, 0.005]})
    # the winner is recorded from the trials it was selected on
    assert len(trained) == 4
    trained.clear()
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        grid_search(replace(config, k_hops=0), {"lr": [0.01, 0.005]})
    assert trained == []


def test_grid_csv_writes_numpy_floats_as_plain_floats(tmp_path, monkeypatch, real_trial):
    monkeypatch.setattr(ex, "run_trial", lambda g, c, s: replace(
        real_trial, val_auprc=0.7, val_auroc=0.5, seed=s))
    grid_search(tiny_config(trials=1, out_dir=str(tmp_path)),
                {"lr": list(np.array([0.01, 0.005]))})
    assert Path(tmp_path, "grid.csv").read_text() == (
        "lr,val_auprc,val_auroc\n0.01,0.7,0.5\n0.005,0.7,0.5\n")


def _resplit(config, **fields):
    return replace(config, split=replace(config.split, **fields))


@pytest.mark.parametrize("protocol, repeated", [
    (lambda c: grid_search(c, {"lr": [0.01, 0.01]}), lambda c: replace(c, lr=0.01)),
    # DGI resolves None to PReLU, so both points hash alike
    (lambda c: grid_search(c, {"activation": [None, "prelu"]}),
     lambda c: replace(c, activation="prelu")),
    (lambda c: sweep_labeled_anomalies(c, [5, 5]), lambda c: _resplit(c, n_anom=5)),
    (lambda c: ablation_shuffle_ratio(c, [0.5, 0.5]),
     lambda c: replace(c, shuffle_ratio=0.5))],
    ids=["grid-lr", "grid-activation", "sweep", "ablation"])
def test_a_repeated_config_raises_before_any_trial_runs(monkeypatch, protocol, repeated):
    trained = []
    monkeypatch.setattr(ex, "_train_models", lambda *args: trained.append(args))
    config = tiny_config(trials=1)
    match = rf"configs 0 and 1 are the same config \({repeated(config).config_hash()}\)"
    with pytest.raises(ValueError, match=match):
        protocol(config)
    assert trained == []


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


def test_sweep_labels_rejects_a_count_below_one_before_it_runs(tmp_path):
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match="count 0 is below 1"):
        sweep_labeled_anomalies(tiny_config(out_dir=str(out_dir)), [5, 0])
    assert not out_dir.exists()


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


def test_sweeps_load_their_graph_once_with_unchanged_artifacts(tmp_path, monkeypatch):
    loads = []
    load = ex.load_config_graph

    def counting_load(config):
        loads.append(config)
        return load(config)

    monkeypatch.setattr(ex, "load_config_graph", counting_load)
    config = tiny_config(trials=1, epochs=6, pretrain_epochs=4)
    sweep_dir, ablation_dir, grid_dir = (str(tmp_path / d) for d in ("s", "a", "g"))
    _, swept = sweep_labeled_anomalies(replace(config, out_dir=sweep_dir), [2, 4])
    assert len(loads) == 1
    _, ablated = ablation_shuffle_ratio(replace(config, out_dir=ablation_dir), [0.5, 1.0])
    assert len(loads) == 2
    grid = grid_search(replace(config, out_dir=grid_dir), {"lr": [0.01, 0.005]})
    assert len(loads) == 3

    for res in swept + ablated + [grid.experiment]:
        alone = run_experiment(replace(res.config, out_dir=str(tmp_path / "alone")))
        assert (Path(res.run_dir, "aggregate.json").read_bytes()
                == Path(alone.run_dir, "aggregate.json").read_bytes())


def test_a_trial_that_fails_on_rerun_keeps_only_its_error(monkeypatch, tmp_path):
    first = run_experiment(tiny_config(trials=2, out_dir=str(tmp_path)))
    trial_0 = {p.name: p.read_bytes() for p in Path(first.run_dir, "trial_0").iterdir()}
    real = ex.run_trial

    def flaky(graph, config, seed):
        if seed == 1:
            raise RuntimeError("synthetic failure")
        return real(graph, config, seed)

    monkeypatch.setattr(ex, "run_trial", flaky)
    with pytest.warns(UserWarning, match="1 of 2 trials failed"):
        rerun = run_experiment(tiny_config(trials=2, out_dir=str(tmp_path)))
    assert rerun.run_dir == first.run_dir
    # the earlier success's results would read as a finished trial
    assert sorted(os.listdir(Path(rerun.run_dir, "trial_1"))) == ["error.txt"]
    assert {p.name: p.read_bytes()
            for p in Path(rerun.run_dir, "trial_0").iterdir()} == trial_0
    aggregate = json.loads(Path(rerun.run_dir, "aggregate.json").read_text())
    assert aggregate["n_completed"] == 1


def test_sweep_rejects_a_bad_count_before_running_any(tmp_path, monkeypatch):
    real = ex.run_trial
    calls = []

    def counting(graph, config, seed):
        calls.append(seed)
        return real(graph, config, seed)

    monkeypatch.setattr(ex, "run_trial", counting)
    with pytest.raises(ValueError, match="count 59 exceeds"):
        sweep_labeled_anomalies(tiny_config(out_dir=str(tmp_path)), [1, 59])
    assert calls == []
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("call", [
    lambda cfg: ablation_shuffle_ratio(cfg, []),
    lambda cfg: sweep_labeled_anomalies(cfg, [])], ids=["ablation", "sweep"])
def test_an_empty_list_is_rejected_before_the_graph_loads(tmp_path, monkeypatch, call):
    loads = []
    monkeypatch.setattr(ex, "load_config_graph", loads.append)
    with pytest.raises(ValueError, match="no .* given"):
        call(tiny_config(out_dir=str(tmp_path / "out")))
    assert loads == []
    assert os.listdir(tmp_path) == []


def test_ablation_and_sweep_take_a_generator_like_its_list(tmp_path):
    config = tiny_config(trials=1, epochs=6, pretrain_epochs=4)
    for sweep, points in ((ablation_shuffle_ratio, [0.5, 1.0]),
                          (sweep_labeled_anomalies, [2, 4])):
        listed, _ = sweep(replace(config, out_dir=str(tmp_path / "l")), points)
        generated, _ = sweep(replace(config, out_dir=str(tmp_path / "g")),
                             (p for p in points))
        assert generated == listed


def test_an_ablation_runs_every_trial_of_every_ratio_on_one_pool(monkeypatch):
    pools, trials = [], []
    real_trial = ex.run_trial

    class CountingPool(ex.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    def counting(graph, config, seed):
        trials.append((config.shuffle_ratio, seed))
        return real_trial(graph, config, seed)

    monkeypatch.setattr(ex, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(ex, "run_trial", counting)
    rows, _ = ablation_shuffle_ratio(
        tiny_config(trials=3, workers=2, epochs=6, pretrain_epochs=4), [0.5, 1.0])
    assert [r for r, _ in rows] == [0.5, 1.0]
    assert pools == [2]
    assert sorted(trials) == [(r, s) for r in (0.5, 1.0) for s in range(3)]


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in Path(root).rglob("*") if p.is_file()}


def test_ablation_and_sweep_files_identical_between_one_and_two_workers(tmp_path):
    config = tiny_config(trials=2, epochs=6, pretrain_epochs=4)
    for workers in (1, 2):
        cfg = replace(config, workers=workers)
        ablation_shuffle_ratio(replace(cfg, out_dir=str(tmp_path / f"a{workers}")),
                               [0.5, 1.0])
        sweep_labeled_anomalies(replace(cfg, out_dir=str(tmp_path / f"s{workers}")),
                                [2, 4])
    for name in ("a", "s"):
        serial = _tree(tmp_path / f"{name}1")
        # the CSV, and per point aggregate.json and 2 trials of 4 files each
        assert len(serial) == 1 + 2 * (1 + 2 * 4)
        assert _tree(tmp_path / f"{name}2") == serial


def test_a_point_whose_trials_all_fail_raises_after_the_points_before_it_are_written(
        tmp_path, monkeypatch):
    real = ex.run_trial

    def failing_at_one(graph, config, seed):
        if config.shuffle_ratio == 1.0:
            raise RuntimeError("synthetic failure")
        return real(graph, config, seed)

    monkeypatch.setattr(ex, "run_trial", failing_at_one)
    config = tiny_config(trials=2, workers=2, epochs=6, pretrain_epochs=4,
                         out_dir=str(tmp_path))
    with pytest.raises(RuntimeError, match="all trials failed"):
        with pytest.warns(UserWarning, match="2 of 2 trials failed"):
            ablation_shuffle_ratio(config, [0.5, 1.0, 0.25])
    written = {replace(config, shuffle_ratio=0.5).config_hash()}
    assert set(os.listdir(tmp_path)) == written
    assert Path(tmp_path, *written, "aggregate.json").exists()


@pytest.mark.parametrize("overrides, match", [
    # 40 training and 20 validation anomalies leave none of the 60 to test
    ({"split": SplitRegime(n_anom=40)}, "unlabeled anomaly set is empty"),
    ({"k_hops": 0}, "k_max must be >= 1"),
    # 160 training and 80 validation normals leave none of the 240 to test
    ({"split": SplitRegime(n_norm=160)}, "test set has no normal node")],
    ids=["no-test-anomaly", "k_hops-0", "no-test-normal"])
def test_a_trial_whose_split_has_no_reachability_fails_before_training(
        monkeypatch, overrides, match):
    trained = []
    monkeypatch.setattr(ex, "_train_models", lambda *args: trained.append(args))
    with pytest.raises(RuntimeError, match=match):
        with pytest.warns(UserWarning, match="2 of 2 trials failed"):
            run_experiment(tiny_config(trials=2, **overrides))
    assert trained == []


@pytest.mark.parametrize("run", [run_experiment, lambda c: grid_search(c, {"lr": [0.01]})],
                         ids=["run", "grid"])
def test_a_config_without_a_dataset_fails_before_any_trial(monkeypatch, run):
    trials = []
    monkeypatch.setattr(ex, "run_trial", lambda *args: trials.append(args))
    with pytest.raises(ValueError, match="config has no dataset"):
        run(tiny_config(dataset=None))
    assert trials == []
