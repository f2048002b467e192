"""Each default and each config field list is written once.

The library's keyword defaults must equal ExperimentConfig's; canonical(),
the config hash, the encoder checkpoint header and the CLI's synthetic
flags are derived from the dataclasses and must match the hand-written
forms they replaced, byte for byte. A config rejects an option's bad value
with the same words as the code that reads the option.
"""

from dataclasses import fields, replace
import hashlib
import inspect
import json
import struct

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from gadkit.autodiff import (ACTIVATIONS, LR, Tensor, scaled_cosine_error, sum_all,
                             train)
from gadkit.cli import _config_from_args, build_parser
from gadkit.data import (DatasetPaths, SyntheticSpec, generate_synthetic,
                         make_full_split, make_semi_split)
from gadkit.detector import end2end_run, finetune_run
from gadkit.diagnostics import k_hop_reachable_ratio
from gadkit.encoders import (ENCODER_KINDS, EncoderConfig, init_encoder,
                             save_encoder)
from gadkit.experiment import (PARADIGMS, ExperimentConfig, SplitRegime,
                               config_from_dict, sweep_labeled_anomalies)
from gadkit.graphlevel import graphlevel_pipeline
from gadkit.pretrain import DgiConfig, MaeConfig, dgi_corrupt, pretrain_run


def field_defaults(cls):
    return {f.name: f.default for f in fields(cls)}


def keyword_defaults(fn):
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


# library keyword -> the ExperimentConfig field it must agree with
LIBRARY_KEYWORDS = [
    (pretrain_run, {"epochs": "pretrain_epochs", "lr": "lr",
                    "shuffle_ratio": "shuffle_ratio", "mask_ratio": "mask_ratio",
                    "gamma": "sce_gamma"}),
    (finetune_run, {"epochs": "epochs", "lr": "lr"}),
    (end2end_run, {"epochs": "epochs", "lr": "lr"}),
    # graph-level train_ratio is the pipeline's own (a 5% labeled share)
    (graphlevel_pipeline, {"epochs": "epochs", "lr": "lr",
                           "pretrain_epochs": "pretrain_epochs",
                           "shuffle_ratio": "shuffle_ratio",
                           "mask_ratio": "mask_ratio", "gamma": "sce_gamma"}),
    (DgiConfig.create, {"shuffle_ratio": "shuffle_ratio"}),
    (MaeConfig.create, {"mask_ratio": "mask_ratio", "gamma": "sce_gamma"}),
    (k_hop_reachable_ratio, {"k_max": "k_hops"}),
]


@pytest.mark.parametrize("fn, keywords", LIBRARY_KEYWORDS,
                         ids=[fn.__qualname__ for fn, _ in LIBRARY_KEYWORDS])
def test_library_defaults_are_the_experiment_defaults(fn, keywords):
    config, library = field_defaults(ExperimentConfig), keyword_defaults(fn)
    assert {kw: library[kw] for kw in keywords} == {
        kw: config[name] for kw, name in keywords.items()}


def test_encoder_and_split_defaults_are_shared():
    config, encoder = field_defaults(ExperimentConfig), field_defaults(EncoderConfig)
    assert (config["hidden_dim"], config["num_layers"]) == (
        encoder["hidden_dim"], encoder["num_layers"])
    split, semi = field_defaults(SplitRegime), keyword_defaults(make_semi_split)
    assert (split["n_anom"], split["n_norm"]) == (semi["n_anom"], semi["n_norm"])


def test_label_sweep_reserves_make_semi_splits_validation_default():
    val_anom = keyword_defaults(make_semi_split)["val_anom"]
    spec = SyntheticSpec(num_nodes=300, anomaly_fraction=0.2, clique_size=4,
                         feature_dim=6, seed=11)  # 60 anomalies
    config = ExperimentConfig(dataset=spec, trials=1)
    with pytest.raises(ValueError, match=f"{val_anom} reserved for validation"):
        sweep_labeled_anomalies(config, [60 - val_anom])


def former_canonical(config):
    """canonical() as it was written by hand, field by field."""
    ds = config.dataset
    if isinstance(ds, SyntheticSpec):
        dataset = {"synthetic": {
            "num_nodes": ds.num_nodes,
            "block_sizes": list(ds.resolved_blocks()),
            "intra_p": ds.intra_p,
            "inter_p": ds.inter_p,
            "anomaly_fraction": ds.anomaly_fraction,
            "feature_dim": ds.feature_dim,
            "feature_noise": ds.feature_noise,
            "feature_shift": ds.feature_shift,
            "block_feature_gap": ds.block_feature_gap,
            "clique_size": ds.clique_size,
            "structural_fraction": ds.structural_fraction,
            "contextual": ds.contextual,
            "structural": ds.structural,
            "seed": ds.seed,
        }}
    else:
        dataset = {"paths": {"edges": ds.edges, "features": ds.features,
                             "labels": ds.labels}}
    return {
        "dataset": dataset,
        "paradigm": config.paradigm,
        "encoder_kind": config.encoder_kind,
        "hidden_dim": config.hidden_dim,
        "num_layers": config.num_layers,
        "activation": config.resolved_activation(),
        "lr": config.lr,
        "epochs": config.epochs,
        "pretrain_epochs": config.pretrain_epochs,
        "shuffle_ratio": config.shuffle_ratio,
        "mask_ratio": config.mask_ratio,
        "sce_gamma": config.sce_gamma,
        "split": {"regime": config.split.regime, "n_anom": config.split.n_anom,
                  "n_norm": config.split.n_norm,
                  "train_ratio": config.split.train_ratio},
        "trials": config.trials,
        "base_seed": config.base_seed,
        "k_hops": config.k_hops,
    }


def former_hash(config):
    blob = json.dumps(former_canonical(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def assert_canonical_unchanged(config):
    assert config.canonical() == former_canonical(config)
    assert (json.dumps(config.canonical(), sort_keys=True, indent=1)
            == json.dumps(former_canonical(config), sort_keys=True, indent=1))
    assert config.config_hash() == former_hash(config)


unit = st.floats(0.0, 1.0)
real = st.floats(-10.0, 10.0)


@st.composite
def synthetic_specs(draw):
    blocks = draw(st.one_of(st.just(()), st.lists(
        st.integers(1, 50), min_size=1, max_size=5).filter(lambda b: sum(b) >= 2)))
    num_nodes = sum(blocks) if blocks else draw(st.integers(2, 5000))
    try:
        return SyntheticSpec(
            num_nodes=num_nodes, block_sizes=tuple(blocks),
            num_blocks=draw(st.integers(1, 8)), intra_p=draw(unit), inter_p=draw(unit),
            anomaly_fraction=draw(st.floats(0.001, 0.499)),
            feature_dim=draw(st.integers(1, 64)),
            feature_noise=draw(st.floats(0.001, 5.0)), feature_shift=draw(real),
            block_feature_gap=draw(real), clique_size=draw(st.integers(0, 20)),
            structural_fraction=draw(unit), contextual=draw(st.booleans()),
            structural=draw(st.booleans()), seed=draw(st.integers(0, 2 ** 32)))
    except ValueError as exc:
        # a clique size the drawn structural anomalies cannot hold is
        # rejected when the spec is built
        assume("infeasible" not in str(exc))
        raise


paths = st.builds(DatasetPaths, edges=st.text(max_size=12),
                  features=st.text(max_size=12),
                  labels=st.one_of(st.none(), st.text(max_size=12)))

configs = st.builds(
    ExperimentConfig,
    dataset=st.one_of(synthetic_specs(), paths),
    paradigm=st.sampled_from(PARADIGMS),
    encoder_kind=st.sampled_from(ENCODER_KINDS),
    hidden_dim=st.integers(1, 256), num_layers=st.integers(1, 6),
    activation=st.one_of(st.none(), st.sampled_from(ACTIVATIONS)),
    lr=st.floats(1e-6, 1.0), epochs=st.integers(1, 1000),
    pretrain_epochs=st.integers(1, 1000), shuffle_ratio=unit,
    mask_ratio=st.floats(0.01, 0.99), sce_gamma=st.floats(1.0, 5.0),
    split=st.builds(SplitRegime, regime=st.sampled_from(("semi", "full")),
                    n_anom=st.integers(1, 100), n_norm=st.integers(1, 400),
                    train_ratio=st.floats(0.01, 0.99)),
    trials=st.integers(1, 20), base_seed=st.integers(0, 10 ** 6),
    k_hops=st.integers(1, 6),
    out_dir=st.one_of(st.none(), st.text(max_size=12)),
    workers=st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(configs)
def test_canonical_and_hash_match_the_hand_written_form(config):
    assert_canonical_unchanged(config)


@settings(max_examples=300, deadline=None)
@given(configs)
def test_config_from_dict_reads_canonical_json_back_to_the_same_hash(config):
    back = config_from_dict(json.loads(json.dumps(config.canonical())))
    assert back.config_hash() == config.config_hash()


@pytest.mark.parametrize("config", [
    ExperimentConfig(dataset=SyntheticSpec()),
    ExperimentConfig(dataset=SyntheticSpec(num_nodes=10, block_sizes=(4, 6),
                                           contextual=False),
                     split=SplitRegime(regime="full"), activation="tanh"),
    ExperimentConfig(dataset=DatasetPaths("e.txt", "f.csv"), out_dir="o", workers=3),
    ExperimentConfig(dataset=DatasetPaths("e.txt", "f.csv", "l.txt"),
                     paradigm="graphmae", encoder_kind="gin", hidden_dim=16,
                     num_layers=3, lr=0.01, epochs=50, pretrain_epochs=60,
                     shuffle_ratio=0.3, mask_ratio=0.7, sce_gamma=3.0,
                     split=SplitRegime(n_anom=5, n_norm=40), trials=4,
                     base_seed=9, k_hops=2),
], ids=["default", "blocks-full-tanh", "paths-unlabeled", "paths-all-changed"])
def test_canonical_of_named_configs(config):
    assert_canonical_unchanged(config)


def former_save_encoder(state, path):
    """save_encoder with the header written out field by field."""
    header = {
        "kind": state.config.kind,
        "input_dim": state.config.input_dim,
        "hidden_dim": state.config.hidden_dim,
        "num_layers": state.config.num_layers,
        "activation": state.config.activation,
        "seed": state.seed,
        "frozen": state.frozen,
    }
    flat = np.concatenate([p.values.ravel() for p in state.params()])
    with open(path, "wb") as fh:
        fh.write(b"GADENC1\n")
        head = json.dumps(header, sort_keys=True).encode()
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        fh.write(flat.astype("<f8").tobytes())


@pytest.mark.parametrize("kind, frozen", [("gcn", False), ("gin", True)])
def test_encoder_checkpoint_bytes_are_unchanged(tmp_path, kind, frozen):
    state = init_encoder(EncoderConfig(kind=kind, input_dim=5, hidden_dim=6,
                                       num_layers=2, activation="prelu"), seed=3)
    if frozen:
        state.freeze()
    save_encoder(state, tmp_path / "new.bin")
    former_save_encoder(state, tmp_path / "old.bin")
    assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "old.bin").read_bytes()


def config_from_flags(*flags):
    return _config_from_args(build_parser().parse_args(["run", "--synthetic", *flags]))


def test_synthetic_without_data_flags_is_the_default_spec():
    assert config_from_flags().dataset == SyntheticSpec()


@pytest.mark.parametrize("flags, field, value", [
    (["--nodes", "1500"], "num_nodes", 1500),
    (["--blocks", "3"], "num_blocks", 3),
    (["--intra-p", "0.01"], "intra_p", 0.01),
    (["--inter-p", "0.001"], "inter_p", 0.001),
    (["--anomaly-fraction", "0.1"], "anomaly_fraction", 0.1),
    (["--feature-dim", "8"], "feature_dim", 8),
    (["--feature-shift", "2.5"], "feature_shift", 2.5),
    (["--feature-noise", "0.25"], "feature_noise", 0.25),
    (["--block-gap", "1.0"], "block_feature_gap", 1.0),
    (["--structural-fraction", "0.5"], "structural_fraction", 0.5),
    (["--clique-size", "6"], "clique_size", 6),
    (["--no-contextual"], "contextual", False),
    (["--no-structural"], "structural", False),
    (["--data-seed", "7"], "seed", 7),
])
def test_each_synthetic_flag_sets_its_own_field(flags, field, value):
    assert config_from_flags(*flags).dataset == replace(SyntheticSpec(), **{field: value})


def test_experiment_flags_set_their_fields_apart_from_the_data_flags():
    config = config_from_flags("--seed", "5", "--data-seed", "2", "--backbone", "gin",
                               "--hidden", "16", "--layers", "3", "--gamma", "3.0",
                               "--split-regime", "full", "--n-anom", "4",
                               "--out", "elsewhere")
    assert config == ExperimentConfig(
        dataset=SyntheticSpec(seed=2), base_seed=5, encoder_kind="gin",
        hidden_dim=16, num_layers=3, sce_gamma=3.0,
        split=SplitRegime(regime="full", n_anom=4), out_dir="elsewhere")


def train_a_sum(epochs, lr):
    p = Tensor(np.ones((1, 2)), requires_grad=True)
    return train([p], lambda: sum_all(p), epochs, lr)


NAN = float("nan")
ENCODER = EncoderConfig(kind="gcn", input_dim=6, hidden_dim=4)

# (config with the bad value, the library call that reads it, the option's
# name in the config's message -> its name in the library's)
RULES = {
    "lr": (lambda: ExperimentConfig(dataset=None, lr=-1.0),
           lambda g: train_a_sum(3, -1.0), {}),
    "lr-nan": (lambda: ExperimentConfig(dataset=None, lr=NAN),
               lambda g: train_a_sum(3, NAN), {}),
    "epochs": (lambda: ExperimentConfig(dataset=None, epochs=0),
               lambda g: train_a_sum(0, LR), {}),
    "pretrain_epochs": (lambda: ExperimentConfig(dataset=None, pretrain_epochs=0),
                        lambda g: pretrain_run(g, ENCODER, "dgi", epochs=0),
                        {"pretrain_epochs": "epochs"}),
    "sce_gamma": (lambda: ExperimentConfig(dataset=None, sce_gamma=0.5),
                  lambda g: MaeConfig.create(6, 4, gamma=0.5), {}),
    "sce_gamma-nan": (lambda: ExperimentConfig(dataset=None, sce_gamma=NAN),
                      lambda g: scaled_cosine_error(Tensor([[1.0]]), Tensor([[1.0]]), NAN),
                      {}),
    "shuffle_ratio": (lambda: ExperimentConfig(dataset=None, shuffle_ratio=1.5),
                      lambda g: DgiConfig.create(4, shuffle_ratio=1.5), {}),
    "shuffle_ratio-corrupt": (lambda: ExperimentConfig(dataset=None, shuffle_ratio=-0.5),
                              lambda g: dgi_corrupt(g.features, -0.5,
                                                    np.random.default_rng(0)), {}),
    "mask_ratio": (lambda: ExperimentConfig(dataset=None, mask_ratio=1.0),
                   lambda g: MaeConfig.create(6, 4, mask_ratio=1.0), {}),
    "n_anom": (lambda: SplitRegime(n_anom=0), lambda g: make_semi_split(g, n_anom=0), {}),
    "n_norm": (lambda: SplitRegime(n_norm=-1), lambda g: make_semi_split(g, n_norm=-1), {}),
    "train_ratio": (lambda: SplitRegime(regime="full", train_ratio=1.5),
                    lambda g: make_full_split(g, 1.5), {}),
    "base_seed": (lambda: ExperimentConfig(dataset=None, base_seed=-1),
                  lambda g: make_semi_split(g, seed=-1), {}),
}


@pytest.mark.parametrize("rule", RULES)
def test_a_config_rejects_a_bad_value_in_the_words_of_the_code_that_reads_it(rule):
    build, call, names = RULES[rule]
    graph = generate_synthetic(SyntheticSpec(num_nodes=300, anomaly_fraction=0.2,
                                             clique_size=4, feature_dim=6, seed=11))
    with pytest.raises(ValueError) as config_error:
        build()
    with pytest.raises(ValueError) as library_error:
        call(graph)
    config_text = str(config_error.value)
    for config_name, library_name in names.items():
        config_text = config_text.replace(config_name, library_name)
    assert config_text == str(library_error.value)
    assert type(config_error.value) is type(library_error.value) is ValueError
