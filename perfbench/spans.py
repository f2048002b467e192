"""Layer spans recorded from outside gadkit by wrapping its public functions.

A Tracer swaps each wrapped function for a timing wrapper on every module
binding of it inside the ``gadkit`` package (most modules import functions
by name, so patching only the defining module would miss their calls), and
puts the originals back when the ``installed()`` block ends. Spans stay in
memory as (id, name, parent id, trial id, start, end) and are written out
only when the run is over.

A span name is ``<layer>.<function>``; the layer is the gadkit module. A
trial root (``experiment.run_trial``, ``graphlevel.graphlevel_pipeline``)
opens a new trial id that every span beneath it inherits, on its own thread.
"""

from contextlib import contextmanager
import functools
import itertools
import sys
import threading
import time

# (module, attribute) -> span name; the names double as metric names.
WRAPPED = {
    ("data", "generate_synthetic"): "data.generate_synthetic",
    ("data", "make_semi_split"): "data.make_semi_split",
    ("graph", "build_graph"): "graph.build_graph",
    ("graph", "normalize_adjacency"): "graph.normalize_adjacency",
    ("graph", "multi_source_bfs_hops"): "graph.multi_source_bfs_hops",
    **{("autodiff", op): f"autodiff.{op}" for op in (
        "matmul", "spmm", "add", "add_bias", "scale", "activation",
        "transpose", "mean_rows", "sum_all", "gather_rows", "concat_rows",
        "row_substitute", "zero_rows", "bce_with_logits",
        "scaled_cosine_error", "backward")},
    ("encoders", "encode"): "encoders.encode",
    ("pretrain", "pretrain_run"): "pretrain.pretrain_run",
    ("pretrain", "dgi_loss"): "pretrain.dgi_loss",
    ("pretrain", "graphmae_loss"): "pretrain.graphmae_loss",
    ("pretrain", "dgi_corrupt"): "pretrain.dgi_corrupt",
    ("detector", "finetune_run"): "detector.finetune_run",
    ("detector", "fit_classifier"): "detector.fit_classifier",
    ("detector", "end2end_run"): "detector.end2end_run",
    ("detector", "score_nodes"): "detector.score_nodes",
    ("metrics", "auroc"): "metrics.auroc",
    ("metrics", "auprc"): "metrics.auprc",
    ("metrics", "hop_avg_rank"): "metrics.hop_avg_rank",
    ("diagnostics", "k_hop_reachable_ratio"): "diagnostics.k_hop_reachable_ratio",
    ("graphlevel", "graph_readout"): "graphlevel.graph_readout",
    ("graphlevel", "graphlevel_pipeline"): "graphlevel.graphlevel_pipeline",
    ("experiment", "run_trial"): "experiment.run_trial",
    # run_experiment writes each trial's files through these two
    ("detector", "save_scores"): "experiment.artifacts",
    ("pretrain", "save_loss_curve"): "experiment.artifacts",
}

# methods wrapped on their class: (module, class, method) -> span name
WRAPPED_METHODS = {("autodiff", "Adam", "step"): "autodiff.adam_step"}

TRIAL_ROOTS = ("experiment.run_trial", "graphlevel.graphlevel_pipeline")

# spans reported per set-up and per round; every other span is per trial
SETUP_SPANS = ("data.generate_synthetic", "graph.build_graph",
               "graph.normalize_adjacency")
ROUND_SPANS = ("experiment.artifacts",)

LAYERS = ("data", "graph", "autodiff", "encoders", "pretrain", "detector",
          "metrics", "diagnostics", "graphlevel", "experiment")

# fields of a span record
ID, NAME, PARENT, TRIAL, START, END, TENSORS = range(7)


class Tracer:
    """Span recorder; reusable across several installed() blocks."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # finished span records, in order of completion
        self._ids = itertools.count(1)
        self._trial_ids = itertools.count()
        self._tls = threading.local()

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def _wrap(self, name, fn):
        tls, spans, ids, trial_ids = self._tls, self.spans, self._ids, self._trial_ids
        is_root = name in TRIAL_ROOTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tls.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            if is_root:
                trial = next(trial_ids)
            else:
                trial = parent[TRIAL] if parent is not None else None
            rec = [next(ids), name, parent[ID] if parent is not None else None,
                   trial, 0.0, 0.0, 0]
            stack.append(rec)
            if is_root:
                tls.root = rec
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
                if is_root:
                    tls.root = None
                spans.append(rec)
        return wrapper

    def _counting_init(self, init):
        tls = self._tls

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            root = getattr(tls, "root", None)
            if root is not None:
                root[TENSORS] += 1  # only the thread running this trial writes here
            init(obj, *args, **kwargs)
        return counting_init

    @contextmanager
    def installed(self):
        """Wrap every gadkit binding of the WRAPPED functions for the block."""
        pkg = self.package
        undo = []
        try:
            modules = self._modules()
            for (mod, attr), name in WRAPPED.items():
                orig = getattr(getattr(pkg, mod), attr)
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for key in [k for k, v in vars(m).items() if v is orig]:
                        undo.append((m, key, orig))
                        setattr(m, key, wrapper)
            for (mod, cls_name, meth), name in WRAPPED_METHODS.items():
                cls = getattr(getattr(pkg, mod), cls_name)
                orig = cls.__dict__[meth]
                undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
            tensor = pkg.autodiff.Tensor
            undo.append((tensor, "__init__", tensor.__dict__["__init__"]))
            tensor.__init__ = self._counting_init(tensor.__dict__["__init__"])
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def write(self, path, header):
        """Tab-separated spans, one per line, after a '#' header line."""
        with open(path, "w") as fh:
            fh.write("# " + header + "\n")
            fh.write("id\tname\tparent\ttrial\tstart\tend\n")
            for rec in sorted(self.spans):
                fh.write(f"{rec[ID]}\t{rec[NAME]}\t{rec[PARENT]}\t{rec[TRIAL]}\t"
                         f"{rec[START]!r}\t{rec[END]!r}\n")


def span_names():
    return sorted(set(WRAPPED.values()) | set(WRAPPED_METHODS.values()))


def self_times(spans):
    """Span id -> its duration minus the durations of its direct children."""
    child = {}
    for rec in spans:
        if rec[PARENT] is not None:
            child[rec[PARENT]] = child.get(rec[PARENT], 0.0) + rec[END] - rec[START]
    return {rec[ID]: rec[END] - rec[START] - child.get(rec[ID], 0.0) for rec in spans}
