"""
Store the seed-commit outputs that ``run.py`` compares later runs against.

    python3 perfbench/reference.py SEED [SEED ...]

For each workload and seed, runs the workload once and copies its main CSV to
``reference/<workload>/seed<N>/``.  Run it only on a commit whose outputs are
the accepted baseline; later commits must match them within roundoff drift.
"""

import shutil
import sys

from run import MAIN_CSV, REFERENCE, ROOT, WORK, WORKLOADS, Runner, check_outputs


def main(seeds):
    sys.path.insert(0, str(ROOT / "src"))
    for workload in WORKLOADS:
        for seed in seeds:
            target = REFERENCE / workload / f"seed{seed}"
            shutil.rmtree(target, ignore_errors=True)
            work = WORK / f"reference-{workload}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            runner = Runner(workload, seed, work)
            res, rep = runner.child()
            if res is None:
                print(f"{workload} seed {seed}: FAILED {runner.errors}")
                return 1
            errors, acc = check_outputs(workload, runner.raw, rep / "out")
            if errors:
                print(f"{workload} seed {seed}: FAILED {errors}")
                return 1
            target.mkdir(parents=True)
            shutil.copy(rep / "out" / MAIN_CSV[workload], target)
            shutil.rmtree(work)
            print(f"{workload} seed {seed}: run_s {res['run_s']:.3f} " +
                  " ".join(f"{k} {v:.4g}" for k, v in acc.items()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
