"""Record the per-trial test AUROCs that run.py compares every trial against.

    python3 perfbench/record_references.py --seeds 0-29 [--workload NAME ...]

Runs one untimed round of each workload per seed and merges the AUROCs into
references.json. Run it only at a commit whose results are accepted as the
reference; a later change that moves any AUROC fails the benchmark's check.
"""

import argparse
import json
import os
import shutil

import run


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    gk = run.import_gadkit()
    import workloads
    names = args.workload or list(workloads.WORKLOADS)
    out = run.REFERENCES
    refs = json.loads(out.read_text()) if out.exists() else {}
    run.OUT.mkdir(exist_ok=True)
    out_dir = run.OUT / f"references-{os.getpid()}"
    try:
        for name in names:
            workload = workloads.WORKLOADS[name]
            for seed in range(first, last + 1):
                state = workload.setup(gk, seed)
                rnd = workload.run_round(gk, state, seed, str(out_dir))
                if any(p is not None for p in rnd.problems):
                    raise SystemExit(f"{name} seed {seed}: {rnd.problems}")
                refs.setdefault(name, {})[str(seed)] = rnd.auroc
                print(name, seed, rnd.auroc, flush=True)
                out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
