"""Check that the working tree gives the same result bits as a revision.

    python3 tools/same_bits.py BASE

BASE is any git revision of this checkout, e.g. HEAD~1. It is exported
with `git archive` into a temporary directory, and the checkout's working
tree, uncommitted changes included, is the other side. Each tree runs one
fixed matrix (`run_matrix`) in a fresh interpreter that imports gadkit from
that tree's src/ and writes every result to files:

- `run_experiment` for DGI, GraphMAE and end2end over GCN and GIN, each in
  the semi and the full split regime;
- a labeled-anomaly sweep, a shuffle-ratio ablation and a grid search, each
  at workers 1 and 2, and `run_experiment` for GraphMAE and end2end at
  workers 2;
- `graphlevel_pipeline` scores, losses and metrics for every mode over GCN
  and GIN, and for DGI and GraphMAE again with partial draws (PARTIAL_DRAWS),
  so that each graph shuffles or masks only some of its rows;
- the graph layer itself, for `SyntheticSpec()`, a 10,000-node spec, a
  spec of uneven blocks (UNEVEN_SPEC) and each graph of the collection:
  the CSR arrays, Â's arrays and the BFS hops from the graph's anomalies,
  one .npy file each (its header holds the dtype);
- initial weights: `init_encoder` for GCN and GIN at two shapes and
  `init_classifier` at two widths, one .npy file per parameter;
- the dataset writers: `save_dataset` on the 300-node graph (edges,
  features and labels) and `save_collection` on the 60-graph collection
  (its manifest and every graph's edge and feature files).

The node-level runs use a 300-node synthetic graph, the graph-level ones a
60-graph collection. Every file written is hashed except error.txt, whose
traceback names its tree's paths. The path of each file whose hash differs,
or that only one tree wrote, is printed, and the exit status is 1 if there
is one, 2 if a matrix could not run. No golden hashes are stored: the two
trees run on one machine, whose BLAS kernels decide the last bits.
"""

import argparse
from dataclasses import replace
import hashlib
import io
import json
from pathlib import Path
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = "error.txt"

# small enough that one matrix runs in well under a minute, large enough
# that every path trains: 60 anomalies leave a semi split 20 to test
SPEC = dict(num_nodes=300, anomaly_fraction=0.2, clique_size=4, feature_dim=6)
TRAINING = dict(hidden_dim=8, epochs=15, pretrain_epochs=8, trials=2)
SWEEP_COUNTS = (5, 20)
SHUFFLE_RATIOS = (0.5, 1.0)
GRID = {"lr": [0.01, 0.005], "encoder_kind": ["gcn", "gin"]}
KINDS = ("gcn", "gin")
# (input_dim, hidden_dim, num_layers) of the encoders whose initial weights
# are written, and the input widths of the classifiers
ENCODER_SHAPES = ((6, 8, 2), (3, 5, 3))
CLASSIFIER_WIDTHS = (8, 1)
# graph-level pretext ratios below 1: DGI shuffles half of each graph's rows,
# GraphMAE masks 30% of them
PARTIAL_DRAWS = dict(shuffle_ratio=0.5, mask_ratio=0.3)
# the large benchmark's density at 10,000 nodes
LARGE_SPEC = dict(num_nodes=10000, intra_p=0.0014, inter_p=0.00006)
# uneven blocks: a one-node block, an empty one, and pairs of the two large
# ones that span several of _block_edges' buffers
UNEVEN_SPEC = dict(num_nodes=1600, block_sizes=(1, 750, 0, 849))


def tree_hashes(root):
    """{path under root: sha256} of every file under root but error.txt."""
    root = Path(root)
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in root.rglob("*") if path.is_file() and path.name != SKIPPED}


def differing(base, work):
    """Sorted paths whose hashes differ between two tree_hashes, or that
    only one of them has."""
    return sorted(path for path in base.keys() | work.keys()
                  if base.get(path) != work.get(path))


def _collection(gk):
    """60 graphs of 6-12 nodes in two classes of edge density and feature
    mean."""
    rng = np.random.default_rng(0)
    graphs, classes = [], []
    for i in range(60):
        cls = i % 2
        n = int(rng.integers(6, 13))
        edges = np.argwhere(np.triu(rng.random((n, n)) < (0.2, 0.45)[cls], k=1))
        graphs.append(gk.build_graph(edges, cls + rng.standard_normal((n, 4))))
        classes.append(cls)
    return gk.GraphCollection(graphs=tuple(graphs), class_ids=np.asarray(classes))


def _save_arrays(dest, arrays):
    """Each array of {name: array} as dest/<name>.npy (its header holds the dtype)."""
    dest.mkdir(parents=True)
    for name, arr in arrays.items():
        np.save(dest / f"{name}.npy", arr)


def _write_graph_layer(gk, graph, dest):
    """graph's CSR arrays, its Â's and its BFS hops from its anomalies (from
    node 0 when it has none), one .npy file each under dest."""
    adj = gk.normalize_adjacency(graph)
    sources = np.flatnonzero(graph.labels == 1)
    _save_arrays(dest, {
        "indptr": graph.indptr, "indices": graph.indices,
        "norm_indptr": adj.indptr, "norm_indices": adj.indices, "norm_data": adj.data,
        "hops": gk.multi_source_bfs_hops(graph, sources if sources.size else [0])})


def _write_initial_weights(gk, dest):
    """init_encoder's weights for each kind at each of ENCODER_SHAPES and
    init_classifier's at each of CLASSIFIER_WIDTHS, one .npy file per
    parameter in params() order."""
    for seed, (input_dim, hidden_dim, num_layers) in enumerate(ENCODER_SHAPES):
        for kind in KINDS:
            state = gk.init_encoder(gk.EncoderConfig(
                kind=kind, input_dim=input_dim, hidden_dim=hidden_dim,
                num_layers=num_layers), seed)
            _save_arrays(dest / f"encoder_{kind}_{input_dim}x{hidden_dim}x{num_layers}",
                         {f"param{i}": p.values for i, p in enumerate(state.params())})
    for seed, width in enumerate(CLASSIFIER_WIDTHS):
        clf = gk.detector.init_classifier(width, seed)
        _save_arrays(dest / f"classifier_{width}",
                     {f"param{i}": p.values for i, p in enumerate(clf.params())})


def run_matrix(src, out):
    """Write the matrix's results under out, with gadkit from src."""
    sys.path.insert(0, str(Path(src).resolve()))
    import gadkit as gk
    if not Path(gk.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"same_bits: gadkit was imported from {gk.__file__}, not {src}")
    from gadkit import experiment as ex

    out = Path(out)
    base = ex.ExperimentConfig(dataset=gk.SyntheticSpec(**SPEC), **TRAINING)
    for paradigm in ex.PARADIGMS:
        for kind in KINDS:
            for regime in ("semi", "full"):
                ex.run_experiment(replace(base, paradigm=paradigm, encoder_kind=kind,
                                          split=ex.SplitRegime(regime=regime),
                                          out_dir=str(out / "runs")))
    for workers in (1, 2):
        at = out / f"workers{workers}"
        ex.sweep_labeled_anomalies(replace(base, workers=workers,
                                           out_dir=str(at / "sweep")), SWEEP_COUNTS)
        ex.ablation_shuffle_ratio(replace(base, workers=workers,
                                          out_dir=str(at / "ablation")), SHUFFLE_RATIOS)
        ex.grid_search(replace(base, workers=workers, out_dir=str(at / "grid")), GRID)
    # the sweep, ablation and grid above are DGI's; the others reach the pool here
    for paradigm in ("graphmae", "end2end"):
        ex.run_experiment(replace(base, paradigm=paradigm, workers=2,
                                  out_dir=str(out / "workers2" / "runs")))

    _write_initial_weights(gk, out / "init")

    collection = _collection(gk)
    files = out / "files"
    files.mkdir()
    gk.save_dataset(gk.generate_synthetic(base.dataset), str(files / "edges.txt"),
                    str(files / "features.csv"), str(files / "labels.txt"))
    gk.save_collection(collection, str(files / "collection"))

    graphs = {"synthetic_default": gk.generate_synthetic(gk.SyntheticSpec()),
              "synthetic_large": gk.generate_synthetic(gk.SyntheticSpec(**LARGE_SPEC)),
              "synthetic_uneven": gk.generate_synthetic(gk.SyntheticSpec(**UNEVEN_SPEC)),
              **{f"collection_{i}": g for i, g in enumerate(collection.graphs)}}
    for name, graph in graphs.items():
        _write_graph_layer(gk, graph, out / "graph" / name)

    # class 1 is cut to a third and labeled anomalous
    collection = gk.downsample_class(collection, 1, keep_fraction=1 / 3, seed=0)
    (out / "graphlevel").mkdir(parents=True)
    runs = [(mode, mode, {}) for mode in ex.PARADIGMS]
    runs += [(f"{mode}_partial", mode, PARTIAL_DRAWS) for mode in ("dgi", "graphmae")]
    for name, mode, ratios in runs:
        activation = ex.ExperimentConfig(dataset=None, paradigm=mode).resolved_activation()
        for kind in KINDS:
            enc = gk.EncoderConfig(kind=kind, input_dim=collection.feature_dim,
                                   hidden_dim=TRAINING["hidden_dim"], activation=activation)
            res = gk.graphlevel_pipeline(collection, mode, enc, train_ratio=0.2,
                                         epochs=TRAINING["epochs"],
                                         pretrain_epochs=TRAINING["pretrain_epochs"],
                                         **ratios)
            # json writes each float as its shortest repr, which round-trips
            record = {"auroc": res.auroc, "auprc": res.auprc,
                      "val_auprc": res.val_auprc, "losses": list(res.losses),
                      "test_index": res.test_index.tolist(),
                      "test_scores": res.test_scores.tolist()}
            (out / "graphlevel" / f"{name}_{kind}.json").write_text(
                json.dumps(record, sort_keys=True))


def export(revision, dest):
    """The tree of revision, as `git archive` gives it, under dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", revision],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="git revision to compare the working tree with")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_bits_") as tmp:
        tmp = Path(tmp)
        try:
            export(args.base, tmp / "base")
        except subprocess.CalledProcessError as exc:
            print(f"same_bits: cannot export {args.base}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        hashes = {}
        for name, src in (("base", tmp / "base" / "src"), ("work", ROOT / "src")):
            out = tmp / "out" / name
            child = subprocess.run([sys.executable, __file__, "--matrix", str(src), str(out)],
                                   capture_output=True, text=True)
            if child.returncode != 0:
                print(f"same_bits: the matrix failed on {name} ({src}):\n{child.stderr}",
                      file=sys.stderr)
                return 2
            hashes[name] = tree_hashes(out)
    paths = differing(hashes["base"], hashes["work"])
    for path in paths:
        print(path)
    total = len(hashes["base"].keys() | hashes["work"].keys())
    print(f"same_bits: {len(paths)} of {total} files differ from {args.base}")
    return 1 if paths else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--matrix"]:
        run_matrix(*sys.argv[2:])  # one tree's side, in its own interpreter
    else:
        sys.exit(main())
