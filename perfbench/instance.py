"""One workload instance in its own process; prints its record as JSON.

    python3 -m perfbench.instance --workload NAME --seed N [--trace DIR]

Run from the repository root with ``src`` on ``PYTHONPATH`` (the runner,
``perfbench/run.py``, does both). With ``--trace`` the span wrappers
and the engine's per-callback profiler are installed before anything is
built, and the kept spans are written to ``DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", metavar="DIR")
    args = ap.parse_args(argv)

    from perfbench.workloads import RUNNERS

    run = RUNNERS[args.workload]
    if args.trace is None:
        record = run(args.seed)
    else:
        from repro.obs import TelemetryContext

        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install()
        with TelemetryContext(profile=True) as ctx:
            record = run(args.seed, tracer)
        tracer.uninstall()
        profile = ctx.collect().get("profile", {})
        record["trace"] = {
            "total_s": dict(tracer.total_s),
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "top_sites": profile.get("top_sites", [])[:10],
        }
        os.makedirs(args.trace, exist_ok=True)
        path = os.path.join(args.trace,
                            f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "top_sites": record["trace"]["top_sites"]})
        record["trace"]["span_file"] = path
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
