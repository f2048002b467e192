"""gadkit still offers everything the benchmark harness reaches into.

perfbench/spans.py wraps its WRAPPED functions and WRAPPED_METHODS by name
with no fallback, and perfbench/workloads.py calls a few functions by
keyword; a rename or deletion in gadkit would break `--trace 1` or a
workload without failing any other test. The harness files are only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import gadkit
from gadkit.encoders import EncoderConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    for mod, attr in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(f"gadkit.{mod}"), attr)), attr
    for mod, cls, meth in spans.WRAPPED_METHODS:
        owner = getattr(importlib.import_module(f"gadkit.{mod}"), cls)
        assert callable(owner.__dict__[meth]), f"{cls}.{meth}"


def test_tracer_installs_and_restores_every_binding():
    spans = load_spans()
    before = {(mod, attr): getattr(getattr(gadkit, mod), attr)
              for mod, attr in spans.WRAPPED}
    with spans.Tracer(gadkit).installed():
        assert all(getattr(getattr(gadkit, mod), attr) is not fn
                   for (mod, attr), fn in before.items())
    assert all(getattr(getattr(gadkit, mod), attr) is fn
               for (mod, attr), fn in before.items())


def test_workload_calls_still_bind():
    assert callable(gadkit.graph.cached_normalized_adjacency)
    EncoderConfig(kind="gin", input_dim=8, activation="prelu")
    inspect.signature(gadkit.graphlevel.graphlevel_pipeline).bind(
        "collection", "dgi", "encoder", train_ratio=0.2, epochs=40,
        pretrain_epochs=10, seed=0)
    inspect.signature(gadkit.graphlevel.downsample_class).bind(
        "collection", 1, 0.10, seed=0)
