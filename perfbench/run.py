"""gadkit benchmark: one workload in one process, end to end or traced.

    python3 perfbench/run.py --workload node-dgi-gin --seed 0 --seconds 40 --trace 0

Run from the root of a gadkit checkout; the package is imported from its
``src/`` directory and nowhere else. The workload's inputs are made from
``--seed``. The run takes about ``--seconds`` in all: set-up (input graph
plus normalized adjacency) runs several times and reports its median, then
rounds of the workload repeat while another one fits before the deadline,
at least ``MIN_ROUNDS`` of them. Every trial is checked (see
``check_rounds``), and a trial that fails a check counts as failed.

``--trace 0`` installs no wrapper and prints the end-to-end metrics.
``--trace 1`` wraps the layers' public functions (see ``spans.py``): set-up
is traced, then untraced rounds and traced rounds share the rest of
``--seconds``, and the per-layer metrics come out, spans going to
``.perfbench_out/``. The last stdout line is one JSON object: correct,
attempted, failed, metrics.
Run ``record_references.py`` to refresh ``references.json``."""

import argparse
from collections import defaultdict
import json
import os
from pathlib import Path
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
REFERENCES = Path(__file__).resolve().parent / "references.json"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")

# set-up repeats at least this often, more while it stays within this share
# of the run's seconds
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_SHARE = 3, 50, 0.15
# timed rounds a run makes at least, even when that overruns --seconds
MIN_ROUNDS = 3


def import_gadkit():
    """gadkit from this checkout's src/, or exit non-zero."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import gadkit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import gadkit from {src}: {exc}")
    if not Path(gadkit.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: gadkit was imported from {gadkit.__file__}, not {src}")
    return gadkit


def environment():
    """What the run ran on; read only, nothing is set."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS}}


def load_references(workload, seed):
    with open(REFERENCES) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def setup(gk, workload, seed, seconds):
    """Median set-up seconds over the repetitions, and the last input built."""
    times, state = [], None
    while len(times) < SETUP_MIN_REPS or (
            len(times) < SETUP_MAX_REPS and sum(times) < SETUP_SHARE * seconds):
        state = None  # let the previous input go before building the next
        started = time.perf_counter()
        state = workload.setup(gk, seed)
        times.append(time.perf_counter() - started)
    return statistics.median(times), len(times), state


def timed_rounds(gk, workload, state, seed, deadline, out_dir, min_rounds):
    """At least `min_rounds` rounds, then more while another one of median
    length still ends before `deadline`; returns the rounds and their windows."""
    rounds, windows = [], []
    while len(rounds) < min_rounds or time.perf_counter() + statistics.median(
            hi - lo for lo, hi in windows) <= deadline:
        started = time.perf_counter()
        try:
            rnd = workload.run_round(gk, state, seed, out_dir)
        except Exception:  # noqa: BLE001 - the program failed; report, stop
            traceback.print_exc()
            rnd = None
        windows.append((started, time.perf_counter()))
        rounds.append(rnd)
        if rnd is None:
            break
    return rounds, windows


def check_rounds(rounds, trials, references):
    """(attempted, failed): a trial fails when it raised, failed a check,
    differs from the first round, or differs from the recorded reference."""
    first = next((r.auroc for r in rounds if r is not None), [None] * trials)
    attempted = failed = 0
    for rnd in rounds:
        attempted += trials
        if rnd is None:
            failed += trials
            continue
        for t in range(trials):
            value = rnd.auroc[t]
            bad = (rnd.problems[t] is not None or value != first[t]
                   or (references is not None and (len(references) != trials
                                                   or value != references[t])))
            if bad:
                print(f"trial {t} failed: {rnd.problems[t] or 'AUROC'} "
                      f"{value!r} (first round {first[t]!r}, reference "
                      f"{references and references[t:t + 1]!r})",
                      file=sys.stderr)
            failed += bad
    return attempted, failed


def end_to_end(setup_s, rounds, attempted, failed):
    done = [r for r in rounds if r is not None]
    if not done:
        sys.exit("perfbench: no round completed; no metrics")
    values = [v for r in done for v in r.auroc if v is not None]
    return {
        "setup_s": (setup_s, "s"),
        "trial_s": (statistics.median(t for r in done for t in r.trial_s), "s"),
        "run_s": (statistics.median(r.run_s for r in done), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "auroc": (statistics.fmean(values), "1"),
        "ok_frac": (1.0 - failed / attempted, "1"),
    }


def per_layer(spans_mod, tracer, setup_reps, windows, untraced):
    """Per-layer metrics. Set-up functions are reported per set-up, the
    artifact writes per round, everything else per trial from the spans
    inside trials."""
    ID, NAME, TRIAL, START, END = (spans_mod.ID, spans_mod.NAME, spans_mod.TRIAL,
                                   spans_mod.START, spans_mod.END)
    rounds_start = windows[0][0]
    setup_spans = [s for s in tracer.spans if s[END] <= rounds_start]
    spans = [s for s in tracer.spans if s[START] >= rounds_start]
    roots = [s for s in spans if s[NAME] in spans_mod.TRIAL_ROOTS]
    inside = [s for s in spans if s[TRIAL] is not None]
    scopes = {name: (inside, len(roots)) for name in spans_mod.span_names()}
    for name in spans_mod.SETUP_SPANS:
        scopes[name] = (setup_spans, setup_reps)
    for name in spans_mod.ROUND_SPANS:
        scopes[name] = (spans, len(windows))

    out = {}
    for name, (pool, count) in sorted(scopes.items()):
        mine = [s[END] - s[START] for s in pool if s[NAME] == name]
        out[f"{name}.s"] = (sum(mine) / count, "s")
        out[f"{name}.calls"] = (len(mine) / count, "count")

    selfs = spans_mod.self_times(inside)
    layer_self = defaultdict(float)
    for s in inside:
        layer_self[s[NAME].split(".")[0]] += selfs[s[ID]]
    for layer in spans_mod.LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer] / len(roots), "s")
    out["autodiff.tensors_created"] = (
        sum(r[spans_mod.TENSORS] for r in roots) / len(roots), "count")

    overlaps = []
    for lo, hi in windows:
        mine = [s for s in roots if lo <= s[START] and s[END] <= hi]
        busy = sum(s[END] - s[START] for s in mine)
        overlaps.append(busy / (max(s[END] for s in mine) - min(s[START] for s in mine)))
    out["experiment.trial_overlap"] = (statistics.median(overlaps), "ratio")

    durations = [s[END] - s[START] for s in roots]
    trial_s = sum(durations) / len(roots)
    out["trace.trial_s"] = (trial_s, "s")
    out["trace.unattributed_s"] = (
        trial_s - sum(out[f"{layer}.self_s"][0] for layer in spans_mod.LAYERS), "s")
    # medians, so that the run's first (cold) trial does not count
    out["trace.overhead_s"] = (
        statistics.median(durations) - statistics.median(untraced), "s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    gk = import_gadkit()
    import workloads
    import spans as spans_mod
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    references = load_references(args.workload, args.seed)
    env = environment()
    env["references"] = "recorded" if references is not None else "absent"
    print(json.dumps({"environment": env}, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        deadline = time.perf_counter() + args.seconds
        if args.trace == 0:
            setup_s, _, state = setup(gk, workload, args.seed, args.seconds)
            rounds, _ = timed_rounds(gk, workload, state, args.seed, deadline,
                                     str(out_dir), MIN_ROUNDS)
            attempted, failed = check_rounds(rounds, workload.trials, references)
            metrics = end_to_end(setup_s, rounds, attempted, failed)
        else:
            tracer = spans_mod.Tracer(gk)
            with tracer.installed():
                _, reps, state = setup(gk, workload, args.seed, args.seconds)
            half = (deadline + time.perf_counter()) / 2
            plain, _ = timed_rounds(gk, workload, state, args.seed, half,
                                    str(out_dir), 1)
            with tracer.installed():
                traced, windows = timed_rounds(gk, workload, state, args.seed,
                                               deadline, str(out_dir), 1)
            rounds = plain + traced
            attempted, failed = check_rounds(rounds, workload.trials, references)
            if any(r is None for r in rounds):
                sys.exit("perfbench: a round raised; no per-layer metrics")
            untraced = [t for r in plain for t in r.trial_s]
            metrics = per_layer(spans_mod, tracer, reps, windows, untraced)
            header = json.dumps({"workload": args.workload, "seed": args.seed,
                                 "environment": env}, sort_keys=True)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv", header)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
