"""Graph anomaly detection with self-supervised pre-training.

Implements two learning paradigms over GCN/GIN encoders — end-to-end
supervised training and pretrain-then-finetune (DGI-style contrast,
masked-feature reconstruction) — plus the diagnostics that explain when
pre-training helps: k-hop reachable ratios, per-hop anomaly ranking and
density categorization.
"""

from .graph import (LABEL_UNKNOWN, UNREACHABLE, Graph, build_graph,
                    graph_stats, multi_source_bfs_hops, normalize_adjacency)
from .autodiff import Adam, NonFiniteError, Tape, Tensor, backward
from .encoders import (EncoderConfig, EncoderState, encode, init_encoder,
                       load_encoder, save_encoder)
from .pretrain import (DgiConfig, MaeConfig, dgi_corrupt, dgi_loss,
                       graphmae_loss, pretrain_run)
from .detector import (ClassifierState, ScoreVector, end2end_run,
                       finetune_run, score_nodes)
from .metrics import auprc, auroc, hop_avg_rank
from .diagnostics import (DensityClass, ReachabilityReport, classify_density,
                          k_hop_reachable_ratio, reachability_vs_labels)
from .data import (DatasetPaths, SplitSpec, SyntheticSpec, generate_synthetic,
                   load_dataset, make_full_split, make_semi_split,
                   save_dataset)
from .graphlevel import (GraphCollection, downsample_class, graph_readout,
                         graphlevel_pipeline, load_collection,
                         save_collection)
from .experiment import (ExperimentConfig, SplitRegime, TrialResult,
                         ablation_shuffle_ratio, grid_search, run_experiment,
                         sweep_labeled_anomalies)

__version__ = "0.1.0"
