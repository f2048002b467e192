import json
import types

import numpy as np
import pytest

from gadkit.cli import build_parser, config_from_dict, main
from gadkit.data import SyntheticSpec


def synthetic_args(out, extra=()):
    return ["run", "--synthetic", "--nodes", "300", "--anomaly-fraction", "0.2",
            "--clique-size", "4", "--feature-dim", "6", "--hidden", "8",
            "--epochs", "15", "--pretrain-epochs", "8", "--trials", "1",
            "--seed", "0", "--out", out, *extra]


def test_run_subcommand(tmp_path, capsys):
    rc = main(synthetic_args(str(tmp_path)))
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "metrics" in payload and "auroc" in payload["metrics"]
    assert any(p.name == "aggregate.json" for p in tmp_path.rglob("*"))


def test_run_rejects_zero_workers(tmp_path):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        main(synthetic_args(str(tmp_path), ["--workers", "0"]))


def test_run_requires_dataset(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--out", str(tmp_path)])


def test_gen_synthetic_and_file_run(tmp_path, capsys):
    data_dir = tmp_path / "data"
    rc = main(["gen-synthetic", "--synthetic", "--nodes", "300",
               "--anomaly-fraction", "0.2", "--clique-size", "4",
               "--feature-dim", "6", "--out-dir", str(data_dir)])
    assert rc == 0
    for name in ("edges.txt", "features.csv", "labels.txt"):
        assert (data_dir / name).exists()

    capsys.readouterr()
    rc = main(["run", "--edges", str(data_dir / "edges.txt"),
               "--features", str(data_dir / "features.csv"),
               "--labels", str(data_dir / "labels.txt"),
               "--hidden", "8", "--epochs", "10", "--pretrain-epochs", "5",
               "--trials", "1", "--seed", "0", "--out", str(tmp_path / "runs")])
    assert rc == 0


def test_diagnose_subcommand(tmp_path, capsys):
    rc = main(["diagnose", "--synthetic", "--nodes", "300",
               "--anomaly-fraction", "0.2", "--clique-size", "4",
               "--trials", "1", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["density_class"] in ("sparse", "dense", "over-sparse")
    assert len(payload["reachability"]["R"]) == 3


@pytest.mark.parametrize("regime", [["--split-regime", "semi"],
                                    ["--split-regime", "full", "--train-ratio", "0.4"]],
                         ids=["semi", "full"])
def test_diagnose_reports_the_reachability_of_run_trial_0(tmp_path, capsys, regime):
    data = ["--synthetic", "--nodes", "300", "--anomaly-fraction", "0.2",
            "--clique-size", "4", "--seed", "5", *regime]
    assert main(["diagnose", *data]) == 0
    diagnosed = json.loads(capsys.readouterr().out)["reachability"]
    assert main(["run", *data, "--paradigm", "end2end", "--hidden", "4",
                 "--epochs", "2", "--trials", "1", "--out", str(tmp_path)]) == 0
    run_dir = json.loads(capsys.readouterr().out)["config_hash"]
    measured = json.loads((tmp_path / run_dir / "trial_0" / "reachability.json")
                          .read_text())
    assert diagnosed == measured


def test_diagnose_without_labels_reports_no_reachability(tmp_path, capsys):
    assert main(["gen-synthetic", "--synthetic", "--nodes", "300",
                 "--anomaly-fraction", "0.2", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--edges", str(tmp_path / "edges.txt"),
                 "--features", str(tmp_path / "features.csv")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["density_class"] in ("sparse", "dense", "over-sparse")
    assert "reachability" not in payload


def test_config_file_with_flag_overrides(tmp_path, capsys):
    config = {
        "dataset": {"synthetic": {"num_nodes": 300, "anomaly_fraction": 0.2,
                                  "clique_size": 4, "feature_dim": 6,
                                  "seed": 2}},
        "paradigm": "end2end",
        "hidden_dim": 8,
        "epochs": 10,
        "trials": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = main(["run", "--config", str(path), "--epochs", "5",
               "--trials", "1", "--seed", "3", "--out", str(tmp_path / "r")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["paradigm"] == "end2end"
    assert payload["config"]["epochs"] == 5  # flag wins
    assert payload["config"]["base_seed"] == 3


@pytest.mark.parametrize("synthetic", [["--synthetic"], []], ids=["synthetic", "bare"])
def test_synthetic_flags_override_only_their_fields_of_a_config(
        tmp_path, capsys, synthetic):
    spec = {"num_nodes": 300, "anomaly_fraction": 0.2, "clique_size": 4,
            "feature_dim": 6}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dataset": {"synthetic": spec},
                                "paradigm": "end2end", "hidden_dim": 4,
                                "epochs": 2, "trials": 1}))
    rc = main(["run", "--config", str(path), *synthetic, "--nodes", "400",
               "--out", str(tmp_path / "r")])
    assert rc == 0
    dataset = json.loads(capsys.readouterr().out)["config"]["dataset"]["synthetic"]
    assert dataset == {**dataset, **spec, "num_nodes": 400}


def test_synthetic_flags_on_a_files_dataset_are_a_usage_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dataset": {"paths": {"edges": "e.txt",
                                                      "features": "f.csv"}}}))
    for argv in (["--config", str(path)], ["--edges", "e.txt", "--features", "f.csv"]):
        with pytest.raises(SystemExit, match="the synthetic flags need"):
            main(["run", *argv, "--nodes", "400", "--out", str(tmp_path)])


def test_config_file_trials_seed_and_out_dir_apply_without_flags(
        tmp_path, capsys, monkeypatch):
    config = {
        "dataset": {"synthetic": {"num_nodes": 300, "anomaly_fraction": 0.2,
                                  "clique_size": 4, "feature_dim": 6}},
        "paradigm": "end2end",
        "hidden_dim": 8,
        "epochs": 5,
        "trials": 2,
        "base_seed": 7,
    }
    monkeypatch.chdir(tmp_path)
    for name, extra in (("given.json", {"out_dir": str(tmp_path / "given")}),
                        ("unset.json", {})):
        path = tmp_path / name
        path.write_text(json.dumps({**config, **extra}))
        assert main(["run", "--config", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_trials"] == 2
        assert payload["config"]["base_seed"] == 7
        out_dir = tmp_path / ("given" if extra else "runs")
        assert (out_dir / payload["config_hash"] / "aggregate.json").exists()


def test_config_from_dict_round_trip():
    cfg = config_from_dict({
        "dataset": {"synthetic": {"num_nodes": 500}},
        "paradigm": "graphmae",
        "split": {"regime": "full", "train_ratio": 0.7},
    })
    assert isinstance(cfg.dataset, SyntheticSpec)
    assert cfg.dataset.num_nodes == 500
    assert cfg.split.train_ratio == 0.7
    with pytest.raises(ValueError, match="synthetic"):
        config_from_dict({"dataset": {}})


def test_a_config_file_without_a_dataset_takes_it_from_the_flags(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"paradigm": "end2end"}))
    assert config_from_dict({"paradigm": "end2end"}).dataset is None
    rc = main(["diagnose", "--config", str(path), "--synthetic", "--nodes", "300",
               "--anomaly-fraction", "0.2", "--clique-size", "4", "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["num_nodes"] == 300
    with pytest.raises(SystemExit, match="a dataset is required"):
        main(["diagnose", "--config", str(path), "--out", str(tmp_path)])


def test_sweep_labels_subcommand(tmp_path, capsys):
    rc = main(["sweep-labels", "--synthetic", "--nodes", "300",
               "--anomaly-fraction", "0.2", "--clique-size", "4",
               "--feature-dim", "6", "--hidden", "8", "--epochs", "10",
               "--pretrain-epochs", "5", "--trials", "1", "--seed", "0",
               "--counts", "1,5", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n_anom=1" in out and "n_anom=5" in out


def test_graph_level_subcommand(tmp_path, capsys):
    from gadkit.graphlevel import GraphCollection, save_collection
    from gadkit.graph import build_graph
    rng = np.random.default_rng(0)
    graphs = []
    for _ in range(12):
        n = 5
        graphs.append(build_graph([(i, j) for i in range(n)
                                   for j in range(i + 1, n)],
                                  1.0 + rng.standard_normal((n, 2))))
    for _ in range(12):
        graphs.append(build_graph([(i, i + 1) for i in range(4)],
                                  rng.standard_normal((5, 2))))
    coll = GraphCollection(graphs=tuple(graphs),
                           class_ids=np.array([0] * 12 + [1] * 12))
    manifest = save_collection(coll, str(tmp_path / "coll"))

    rc = main(["graph-level", "--manifest", manifest, "--mode", "end2end",
               "--downsample-class", "0", "--keep-fraction", "0.5",
               "--train-ratio", "0.25", "--epochs", "30", "--hidden", "4",
               "--seed", "0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"auroc", "auprc", "val_auprc"}


def test_grid_subcommand(tmp_path, capsys):
    rc = main(["grid", "--synthetic", "--nodes", "300",
               "--anomaly-fraction", "0.2", "--clique-size", "4",
               "--feature-dim", "6", "--hidden", "8", "--epochs", "10",
               "--pretrain-epochs", "5", "--trials", "1", "--seed", "0",
               "--grid", '{"lr": [0.01, 0.005]}', "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert '"selected"' in out
    assert (tmp_path / "grid.csv").exists()
    assert (tmp_path / "selection_trace.json").exists()


def test_ablate_shuffle_subcommand(tmp_path, capsys):
    rc = main(["ablate-shuffle", "--synthetic", "--nodes", "300",
               "--anomaly-fraction", "0.2", "--clique-size", "4",
               "--feature-dim", "6", "--hidden", "8", "--epochs", "10",
               "--pretrain-epochs", "5", "--trials", "1", "--seed", "0",
               "--ratios", "0.5,1.0", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "shuffle_ratio=0.5" in out and "shuffle_ratio=1.0" in out
    assert (tmp_path / "ablation_shuffle.csv").exists()


def _tiny_manifest(tmp_path):
    from gadkit.graphlevel import GraphCollection, save_collection
    from gadkit.graph import build_graph
    rng = np.random.default_rng(1)
    graphs = [build_graph([(i, i + 1) for i in range(3)], rng.standard_normal((4, 2)))
              for _ in range(16)]
    coll = GraphCollection(graphs=tuple(graphs), class_ids=np.array([0, 1] * 8))
    return save_collection(coll, str(tmp_path / "coll"))


@pytest.mark.parametrize("flag, match", [("--hidden", "dimensions"),
                                         ("--epochs", "epochs"),
                                         ("--train-ratio", "too small")])
def test_graph_level_passes_an_explicit_zero_through(tmp_path, flag, match):
    # a given 0 reaches EncoderConfig / graphlevel_pipeline and is rejected
    # there, instead of being replaced by the default
    with pytest.raises(ValueError, match=match):
        main(["graph-level", "--manifest", _tiny_manifest(tmp_path),
              "--mode", "end2end", "--downsample-class", "0",
              "--keep-fraction", "0.5", "--train-ratio", "0.25",
              "--epochs", "3", flag, "0"])


def test_graph_level_passes_its_training_flags_through(tmp_path, monkeypatch):
    import gadkit.cli as cli
    calls = []

    def stub(collection, mode, enc, **options):
        calls.append(options)
        return types.SimpleNamespace(auroc=0.5, auprc=0.5, val_auprc=0.5)

    monkeypatch.setattr(cli, "graphlevel_pipeline", stub)
    assert main(["graph-level", "--manifest", _tiny_manifest(tmp_path), "--mode", "graphmae",
                 "--downsample-class", "0", "--keep-fraction", "0.5", "--seed", "3",
                 "--gamma", "3.0", "--shuffle-ratio", "0.75", "--mask-ratio", "0.25",
                 "--lr", "0.002", "--pretrain-epochs", "7"]) == 0
    assert calls == [{"seed": 3, "gamma": 3.0, "shuffle_ratio": 0.75, "mask_ratio": 0.25,
                      "lr": 0.002, "pretrain_epochs": 7, "epochs": 200}]


@pytest.mark.parametrize("mode, act", [("dgi", "prelu"), ("graphmae", "relu"),
                                       ("end2end", "relu")])
def test_graph_level_builds_the_default_encoder_of_its_mode(tmp_path, monkeypatch,
                                                            mode, act):
    import gadkit.cli as cli
    from gadkit.encoders import EncoderConfig
    encoders = []

    def stub(collection, mode, enc, **options):
        encoders.append(enc)
        return types.SimpleNamespace(auroc=0.5, auprc=0.5, val_auprc=0.5)

    monkeypatch.setattr(cli, "graphlevel_pipeline", stub)
    assert main(["graph-level", "--manifest", _tiny_manifest(tmp_path), "--mode", mode,
                 "--downsample-class", "0", "--keep-fraction", "0.5"]) == 0
    assert encoders == [EncoderConfig(kind="gcn", input_dim=2, activation=act)]


@pytest.mark.parametrize("command, flag, value", [
    ("ablate-shuffle", "--ratios", ""),
    ("ablate-shuffle", "--ratios", "0.5,x"),
    ("sweep-labels", "--counts", "1,,5")])
def test_a_bad_list_item_is_a_usage_error(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--synthetic", flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["{bad", "[1]"], ids=["not-json", "not-object"])
def test_a_malformed_grid_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exit_info:
        main(["grid", "--synthetic", "--grid", value])
    assert exit_info.value.code == 2
    assert "argument --grid: invalid JSON object value" in capsys.readouterr().err


def test_list_flags_parse_to_lists_with_their_defaults():
    parser = build_parser()
    assert parser.parse_args(["ablate-shuffle", "--synthetic"]).ratios == [
        0.25, 0.5, 0.75, 1.0]
    assert parser.parse_args(["sweep-labels", "--synthetic"]).counts == [1, 5, 20]
    assert parser.parse_args(["sweep-labels", "--counts", "3,7"]).counts == [3, 7]
