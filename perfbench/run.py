"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload instance runs in its own
process (``perfbench/instance.py``), so set-up time and peak memory
belong to that instance alone. A run measures a fixed number of
instances, derived from ``--seconds``; instance ``i`` of seed ``N`` is
built from seed ``N * 1000 + i``, so a seed always gives the same
inputs and every simulated figure repeats exactly.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs
instance 0 untraced and then traced, checks that both ran the same
program (equal event count and flow digest), and prints the per-layer
metrics. Human-readable lines come first; the last line of standard
output is the JSON result. The exit code is 0 only when every output
check passed; a failed check prints ``"correct": false`` with no
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402

#: Per workload: instances measured per 10 s of ``--seconds``, and
#: whether its FCTs are simulated (exactly repeatable) or wall-clock.
#: Why each workload exists, its loop and seeds are in BENCHMARK.json.
#: ``mixed_sharded`` is left out of BENCHMARK.json: its single-engine
#: equivalence check fails on the current program (see README.md).
WORKLOADS = {
    "perm_bulk": {"instances_per_10s": 4, "simulated": True},
    "mixed_lossy": {"instances_per_10s": 18, "simulated": True},
    "wire_loopback": {"instances_per_10s": 6, "simulated": False},
    "mixed_sharded": {"instances_per_10s": 3, "simulated": True},
}

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "goodput_mbps": "Mbit/s",
    "cpu_s_per_gb": "s/GB",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fct_p50_slowdown": "ratio",
    "fct_tail_slowdown": "ratio",
    "fct_p50_ms": "ms",
    "fct_tail_ms": "ms",
}

#: Per-layer metrics and their units (``--trace 1``). A layer that does
#: not run on a workload reports 0. ``sim.shard`` runs only on
#: ``mixed_sharded``, so its figures go to the notes line instead.
PER_LAYER = {
    "sim.engine.events": "count",
    "sim.engine.events_per_s": "1/s",
    "sim.engine.loop_self_s": "s",
    "sim.engine.cancelled": "count",
    "sim.engine.compactions": "count",
    "sim.queues.enqueued_pkts": "count",
    "sim.queues.marked_pkts": "count",
    "sim.queues.drops": "count",
    "sim.link.delivered_pkts": "count",
    "sim.link.lost_pkts": "count",
    "sim.link.failed_drops": "count",
    "sim.queues_link.self_s": "s",
    "sim.switch.rx_pkts": "count",
    "sim.switch.self_s": "s",
    "sim.host.rx_pkts": "count",
    "sim.host.orphan_pkts": "count",
    "sim.host.self_s": "s",
    "sim.network.reconverge_calls": "count",
    "sim.network.reconverge_s": "s",
    "sim.failures.loss_drops": "count",
    "transport.launch_s": "s",
    "transport.self_s": "s",
    "transport.data_pkts_sent": "count",
    "transport.parity_pkts_sent": "count",
    "transport.retransmissions": "count",
    "transport.timeouts": "count",
    "transport.useful_frac": "ratio",
    "core.unocc.on_ack_s": "s",
    "core.unorc.nacks_sent": "count",
    "core.unorc.parity_decodes": "count",
    "core.unolb.reroutes": "count",
    "topology.build_s": "s",
    "workloads.generate_s": "s",
    "wire.frame.pack_s": "s",
    "wire.frame.unpack_s": "s",
    "wire.endpoint.tx_datagrams": "count",
    "wire.endpoint.rx_datagrams": "count",
    "wire.endpoint.kernel_drops": "count",
    "wire.endpoint.self_s": "s",
    "wire.proxy.forwarded": "count",
    "wire.proxy.self_s": "s",
    "wire.clock.armed": "count",
    "wire.clock.cancelled": "count",
    "wire.clock.fire_lateness_ms": "ms",
    "wire.clock.launch_lateness_ms": "ms",
    "trace.overhead_x": "ratio",
}

#: Wall-clock budget for one run's instances (the run must end in 180 s).
BUDGET_S = 170.0
#: Where traced runs write their span files (git-ignored).
TRACE_DIR = ".perfbench"


class RunFailed(Exception):
    """An instance crashed, timed out or printed no record."""


def instance_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def run_instance(workload: str, seed: int, deadline: float,
                 trace: bool = False) -> dict:
    """Run one instance in a fresh interpreter; returns its record with
    ``setup_s`` (process start to first event) added."""
    cmd = [sys.executable, "-m", "perfbench.instance",
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", TRACE_DIR]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload} seed {seed}: timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(f"{workload} seed {seed}: exit {proc.returncode}\n"
                        f"{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["t_ready"] - t_spawn
    return record


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(records: list, simulated: bool) -> tuple:
    """(metrics, notes) over all instances of one run. Rates are
    medians over instances; FCT figures pool every completed flow."""
    flows = [f for r in records for f in r["flows"]]
    done = stats.completed(flows)
    slow = stats.summarize([f["slowdown"] for f in done])
    # Simulated FCTs are in ps, wire FCTs already in ms.
    scale = 1e-9 if simulated else 1.0
    fct = stats.summarize([f["fct"] * scale for f in done])
    values = {
        "goodput_mbps": statistics.median(
            [stats.goodput_mbps(r["flows"], r["wall_s"]) for r in records]),
        "cpu_s_per_gb": statistics.median(
            [stats.cpu_s_per_gb(r["cpu_s"], r["flows"]) for r in records]),
        "setup_s": statistics.median([r["setup_s"] for r in records]),
        "peak_rss_mb": statistics.median(
            [r["rss_kb"] / 1024 for r in records]),
        "fct_p50_slowdown": slow["p50"],
        "fct_tail_slowdown": slow["tail"],
        "fct_p50_ms": fct["p50"],
        "fct_tail_ms": fct["tail"],
    }
    notes = {
        "fct_tail_percentile": slow["tail_pct"],
        "fct_flows": slow["count"],
        "fct_clock": "simulated" if simulated else "wall",
        "flows_failed_frac": stats.failed_count(flows) / len(flows),
        "instances": len(records),
    }
    return {k: metric(v, END_TO_END[k]) for k, v in values.items()}, notes


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of the traced instance (see :data:`PER_LAYER`)."""
    t = traced["trace"]
    total, own, calls, counts = (t["total_s"], t["self_s"], t["calls"],
                                 t["counts"])
    layers = traced["layers"]
    sent = layers.get("transport.bytes_sent", 0)
    events = layers.get("sim.engine.events", 0)
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update({k: v for k, v in layers.items() if k in PER_LAYER})
    values.update({
        "sim.engine.events_per_s": (
            untraced["events"] / untraced["wall_s"] if events else 0.0),
        "sim.engine.loop_self_s": own.get("sim.engine", 0.0),
        "sim.engine.cancelled": counts.get("cancelled", 0),
        "sim.queues_link.self_s": own.get("sim.queues_link", 0.0),
        "sim.switch.self_s": own.get("sim.switch", 0.0),
        "sim.host.self_s": own.get("sim.host", 0.0),
        "sim.network.reconverge_calls": calls.get("sim.network", 0),
        "sim.network.reconverge_s": total.get("sim.network", 0.0),
        "sim.failures.loss_drops": counts.get("loss_drops", 0),
        "transport.launch_s": total.get("transport.launch", 0.0),
        "transport.self_s": own.get("transport", 0.0),
        "transport.useful_frac": (
            layers.get("transport.bytes_acked", 0) / sent if sent else 0.0),
        "core.unocc.on_ack_s": total.get("core.unocc.on_ack", 0.0),
        "topology.build_s": total.get("topology.build", 0.0),
        "workloads.generate_s": total.get("workloads.generate", 0.0),
        "wire.frame.pack_s": total.get("wire.frame.pack", 0.0),
        "wire.frame.unpack_s": total.get("wire.frame.unpack", 0.0),
        "wire.endpoint.self_s": own.get("wire.endpoint", 0.0),
        "wire.proxy.self_s": own.get("wire.proxy", 0.0),
        "trace.overhead_x": (
            stats.goodput_mbps(untraced["flows"], untraced["wall_s"])
            / stats.goodput_mbps(traced["flows"], traced["wall_s"])),
    })
    # Simulated flows always start on time: lateness is 0 off the wire.
    fired = counts.get("fired", 0)
    launches = counts.get("launches", 0)
    values["wire.clock.fire_lateness_ms"] = (
        counts.get("fire_late_s", 0.0) * 1e3 / fired if fired else 0.0)
    values["wire.clock.launch_lateness_ms"] = (
        counts.get("launch_late_ps", 0) / 1e9 / launches if launches else 0.0)
    return {k: metric(float(v), PER_LAYER[k]) for k, v in values.items()}


def check(records: list) -> list:
    """Every instance's output-check failures, as strings."""
    return [f"instance {i}: {v}" for i, r in enumerate(records)
            for v in r["violations"]]


def measure(args) -> tuple:
    spec = WORKLOADS[args.workload]
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        seed = instance_seed(args.seed, 0)
        untraced = run_instance(args.workload, seed, deadline)
        traced = run_instance(args.workload, seed, deadline, trace=True)
        records = [untraced, traced]
        problems = check(records)
        if traced["digest"] != untraced["digest"]:
            problems.append("traced flow digest differs from the untraced run")
        if spec["simulated"] and traced["events"] != untraced["events"]:
            problems.append(f"traced run executed {traced['events']} events, "
                            f"untraced {untraced['events']}")
        notes = {"span_file": traced["trace"]["span_file"],
                 "top_sites": traced["trace"]["top_sites"][:5]}
        shard = {k: v for k, v in traced["layers"].items()
                 if k.startswith("sim.shard.")}
        if shard:
            shard["sim.shard.spawn_s"] = traced["trace"]["total_s"].get(
                "sim.shard.spawn", 0.0)
            notes["sim.shard"] = shard
        metrics = per_layer(untraced, traced)
    else:
        n = max(2, round(spec["instances_per_10s"] * args.seconds / 10))
        records = [run_instance(args.workload, instance_seed(args.seed, i),
                                deadline) for i in range(n)]
        problems = check(records)
        metrics, notes = end_to_end(records, spec["simulated"])
    flows = [f for r in records[:1 if args.trace else None]
             for f in r["flows"]]
    return metrics, notes, problems, len(flows), stats.failed_count(flows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, notes, problems, attempted, failed = measure(args)
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    correct = not problems
    if correct:
        stats.check_metrics(metrics)
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} notes {json.dumps(notes)}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
