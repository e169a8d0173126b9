"""
One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py --config CFG.json --result RES.json [--trace SPANS.json] [--setup-only]

Imports cbflab from ``src/`` of this checkout, parses the config through
``cbflab.cli.parse_config`` and runs it through ``cbflab.cli.run``, timing
each from here.  With ``--trace`` the public functions listed in
``tracing.TARGETS`` are wrapped after import and before the run.  The timings,
the run's exit status and the process's peak RSS go to ``RES.json``.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    text = Path(args.config).read_text()

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import cbflab.cli as cli
    t1 = time.perf_counter()
    cfg = cli.parse_config(text)
    t2 = time.perf_counter()
    res = {"import_s": t1 - t0, "parse_config_s": t2 - t1, "setup_s": t2 - t0,
           "cbflab_file": cli.__file__}
    if not args.setup_only:
        tracer = None
        if args.trace:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        c0 = time.process_time()
        r0 = time.perf_counter()
        status = cli.run(cfg)
        res["run_s"] = time.perf_counter() - r0
        res["cpu_s"] = time.process_time() - c0
        res["status"] = status
        if tracer is not None:
            tracer.uninstall()
            Path(args.trace).write_text(json.dumps(tracer.summary()))
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
