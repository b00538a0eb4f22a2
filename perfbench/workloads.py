"""The benchmark's four workloads, one instance at a time.

Each ``run_<workload>(seed, tracer=None)`` builds one instance from
``seed`` alone, runs it, checks its outputs with the program's own
public checks, and returns a plain-dict record (see :func:`_record`).
Only the sharded workload uses ``tracer``: its shard workers report
their layers back through it. The record's
``t_ready`` is the monotonic clock reading at the first event or
datagram, so the caller can compute set-up time from process start.

Every program entry point is reached through its module attribute
(``harness.make_launcher``, ``sharded.run_sharded``, ...) so the traced
mode's wrappers, installed before any of this runs, see every call.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import random
import resource
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.analysis import fct as fct_analysis
from repro.experiments import harness, sharded
from repro.sim import chaos, shard
from repro.sim.engine import Simulator
from repro.sim.units import KIB, MS
from repro.transport.base import Sender
from repro.workloads import generator
from repro.workloads.alibaba_wan import ALIBABA_WAN_CDF
from repro.workloads.websearch import WEBSEARCH_CDF

from perfbench import stats

# -- sizes ---------------------------------------------------------------
# One instance of each workload is sized to take a few seconds of host
# time on one core; the runner measures several instances per run.

#: perm_bulk: flows each closed-loop client completes, and their size.
#: A client's k-th flow goes to its partner in round k's permutation;
#: every PERM_INTER_EVERY-th round pairs hosts across the two DCs (the
#: paper's 4:1 intra:inter mix, fixed so that no seed shifts it).
PERM_FLOWS_PER_CLIENT = 10
PERM_INTER_EVERY = 5
PERM_FLOW_BYTES = 256 * KIB

#: mixed_lossy: Poisson flows per instance, arrival window and CDF scale.
MIXED_FLOWS = 250
MIXED_WINDOW_PS = 200 * MS
MIXED_SIZE_SCALE = 1.0 / 64.0
#: Correlated loss on every border cable (marginal rate, mean burst),
#: for the whole time flows can be active; one border cable flaps once.
LOSS_RATE = 1e-3
LOSS_BURST_PKTS = 2.5
LOSS_WINDOW_PS = 1000 * MS
FLAP_AT_PS = 1 * MS
FLAP_DOWN_PS = 20 * MS

#: mixed_sharded: flows of the pinned two-DC Poisson mix per instance.
SHARDED_FLOWS = 600

#: wire_loopback: flows, their stagger, one-way proxy delay.
WIRE_FLOWS = 48
WIRE_STAGGER_MS = 20.0
WIRE_DELAY_MS = 1.0
WIRE_SIZES = (32 * KIB, 64 * KIB, 128 * KIB, 256 * KIB)
WIRE_MSS = 4096
#: Nominal line rate the wire transports size their windows from. At
#: 1 Gbps (or a 4 ms stagger) windows outgrew the loopback socket
#: buffers: about a quarter of datagrams were dropped by the kernel and
#: FCTs swung several-fold between identical runs.
WIRE_LINE_GBPS = 0.1
WIRE_TIMEOUT_S = 60.0

#: Fields whose per-flow values must repeat exactly for a seed.
SIM_DIGEST_KEYS = ("flow_id", "fct", "retransmissions", "bytes_acked")
#: The wire's timing is real; only what was sent and that it finished
#: is deterministic.
WIRE_DIGEST_KEYS = ("flow_id", "size_bytes", "done")


def _cpu_s() -> float:
    """This process's CPU seconds, plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _flow(s, slowdown: Optional[float], fct) -> dict:
    """One flow record (see :mod:`perfbench.stats`) from SenderStats."""
    return {
        "flow_id": s.flow_id,
        "size_bytes": s.size_bytes,
        "done": s.done,
        "aborted": s.aborted,
        "fct": fct,
        "slowdown": slowdown,
        "retransmissions": s.retransmissions,
        "timeouts": s.timeouts,
        "bytes_acked": s.bytes_acked,
        "data_pkts_sent": s.data_pkts_sent,
        "parity_pkts_sent": s.parity_pkts_sent,
    }


def _sim_flows(senders: List[Sender], params) -> List[dict]:
    """Flow records with simulated FCT (ps) and slowdown vs. the ideal
    FCT of :func:`repro.analysis.fct.slowdowns`."""
    out = []
    for s in senders:
        st = s.stats
        slow = None
        if st.done:
            slow = fct_analysis.slowdowns(
                [st], lambda r: params.base_rtt_for(r.is_inter_dc),
                params.link_gbps, mss=params.mtu_bytes,
            )[0]
        out.append(_flow(st, slow, st.fct_ps))
    return out


def _correctness(violations: List[dict], flows: List[dict]) -> List[dict]:
    """Violations that make a run incorrect. A flow still running at the
    horizon is a failure the runner counts (``failed``), not a check
    failure; its armed timers then necessarily keep the event loop
    undrained, so that report is folded into the same count."""
    stuck = stats.failed_count(flows) > 0
    return [
        v for v in violations
        if v["invariant"] != "flow_stuck"
        and not (stuck and v["invariant"] == "event_loop_not_drained")
    ]


def _record(*, flows, events, t_ready, wall_s, cpu_s, rss_kb, violations,
            digest_keys, layers, digest_extra=()) -> dict:
    return {
        "flows": flows,
        "events": events,
        "t_ready": t_ready,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rss_kb": rss_kb,
        "violations": violations,
        "digest": stats.flow_digest(flows, digest_keys, digest_extra),
        "layers": layers,
    }


def sim_layers(sim: Simulator, net, senders: List[Sender]) -> Dict[str, float]:
    """Per-layer counts read from public counters after the run."""
    ports = [p for node in net.nodes for p in node.ports.values()]
    sts = [s.stats for s in senders]
    mss_sent = sum(
        (st.data_pkts_sent + st.parity_pkts_sent) * s.mss
        for s, st in zip(senders, sts)
    )
    receivers = [getattr(s, "receiver", None) for s in senders]
    return {
        "sim.engine.events": sim.events_executed,
        "sim.engine.compactions": sim.compactions,
        "sim.queues.enqueued_pkts": sum(p.enqueued_pkts for p in ports),
        "sim.queues.marked_pkts": sum(p.marked_pkts for p in ports),
        "sim.queues.drops": sum(p.drops for p in ports),
        "sim.link.delivered_pkts": sum(ln.delivered_pkts for ln in net.links),
        "sim.link.lost_pkts": sum(ln.lost_pkts for ln in net.links),
        "sim.link.failed_drops": sum(ln.failed_drops for ln in net.links),
        "sim.switch.rx_pkts": sum(sw.rx_pkts for sw in net.switches),
        "sim.host.rx_pkts": sum(h.rx_pkts for h in net.hosts),
        "sim.host.orphan_pkts": sum(h.orphan_pkts for h in net.hosts),
        "sim.network.route_patches": net.route_patches,
        "sim.network.route_rebuilds": net.route_rebuilds,
        **_transport_layers(senders, sts, receivers, mss_sent),
    }


def _transport_layers(senders, sts, receivers, bytes_sent) -> Dict[str, float]:
    """Transport and Uno-core counts. ``bytes_sent`` is payload bytes put
    on the wire by senders (data, parity and retransmissions)."""
    return {
        "transport.data_pkts_sent": sum(st.data_pkts_sent for st in sts),
        "transport.parity_pkts_sent": sum(st.parity_pkts_sent for st in sts),
        "transport.retransmissions": sum(st.retransmissions for st in sts),
        "transport.timeouts": sum(st.timeouts for st in sts),
        "transport.bytes_acked": sum(st.bytes_acked for st in sts),
        "transport.bytes_sent": bytes_sent,
        "core.unorc.nacks_sent": sum(
            getattr(r, "nacks_sent", 0) for r in receivers),
        "core.unorc.parity_decodes": sum(
            getattr(r, "blocks_decoded_with_parity", 0) for r in receivers),
        "core.unolb.reroutes": sum(
            getattr(s.path, "reroutes", 0) for s in senders),
    }


# -- perm_bulk -------------------------------------------------------------

def perm_rounds(hosts: list, seed: int) -> List[dict]:
    """Per round, a seeded random destination for every host: a
    derangement within each DC, or (every PERM_INTER_EVERY-th round) a
    bijection onto the other DC. No host is the destination of two
    flows of one round."""
    rng = random.Random(seed)
    dcs = sorted({h.dc for h in hosts})
    by_dc = {d: [h for h in hosts if h.dc == d] for d in dcs}
    rounds = []
    for k in range(PERM_FLOWS_PER_CLIENT):
        dst = {}
        if k % PERM_INTER_EVERY == PERM_INTER_EVERY - 1:
            for d in dcs:
                others = [h for h in hosts if h.dc != d]
                rng.shuffle(others)
                dst.update(zip(by_dc[d], others))
        else:
            for d in dcs:
                ring = list(by_dc[d])
                rng.shuffle(ring)
                dst.update(zip(ring, ring[1:] + ring[:1]))
        rounds.append(dst)
    return rounds


def run_perm_bulk(seed: int, tracer=None) -> dict:
    """Closed loop, one client per host of the quick two-DC k=4 fat-tree,
    full Uno stack, no injected loss. Each client starts its next
    fixed-size flow, to its partner in the next seeded permutation, as
    soon as its previous flow completes."""
    scale = harness.ExperimentScale.quick()
    params = scale.params()
    sim = Simulator()
    topo = harness.build_multidc(sim, "uno", params, scale, seed=seed)
    launcher = harness.make_launcher("uno", sim, topo, params, seed=seed)
    hosts = topo.all_hosts()
    rounds = perm_rounds(hosts, seed)
    senders: List[Sender] = []

    def client(src) -> Callable[[Sender], None]:
        sent = [0]

        def next_flow(_prev: Optional[Sender] = None) -> None:
            k = sent[0]
            if k == len(rounds):
                return
            sent[0] = k + 1
            dst = rounds[k][src]
            spec = generator.FlowSpec(sim.now, src, dst, PERM_FLOW_BYTES,
                                      src.dc != dst.dc)
            senders.append(launcher(spec, len(senders), next_flow))

        return next_flow

    for src in hosts:
        client(src)()
    return _run_sim(sim, topo.net, senders, params, scale.horizon_ps)


def _run_sim(sim: Simulator, net, senders: List[Sender], params,
             horizon_ps: int) -> dict:
    """Run to the horizon, sweep the chaos invariants, build the record."""
    t_ready = time.monotonic()
    cpu0 = _cpu_s()
    sim.run(until=horizon_ps)
    wall = time.monotonic() - t_ready
    cpu = _cpu_s() - cpu0
    violations = chaos.check_invariants(sim, net, senders, horizon_ps)
    flows = _sim_flows(senders, params)
    return _record(
        flows=flows, events=sim.events_executed, t_ready=t_ready,
        wall_s=wall, cpu_s=cpu, rss_kb=_rss_kb(),
        violations=_correctness(violations, flows),
        digest_keys=SIM_DIGEST_KEYS, digest_extra=(sim.events_executed,),
        layers=sim_layers(sim, net, senders),
    )


# -- mixed_lossy -----------------------------------------------------------

def _poisson_config(seed: int, flows: int, window_ps: int,
                    size_scale: float) -> generator.TrafficConfig:
    return generator.TrafficConfig(
        load=0.4,
        duration_ps=window_ps,
        intra_cdf=WEBSEARCH_CDF.scaled(size_scale),
        inter_cdf=ALIBABA_WAN_CDF.scaled(size_scale),
        max_flows=flows,
        seed=seed,
    )


def run_mixed_lossy(seed: int, tracer=None) -> dict:
    """Open loop in simulated time: Poisson arrivals at 40% load, 4:1
    intra:inter, Gilbert-Elliott loss on every border cable and one
    border cable failing once and being repaired."""
    scale = harness.ExperimentScale.quick()
    params = scale.params()
    sim = Simulator()
    topo = harness.build_multidc(sim, "uno", params, scale, seed=seed)
    specs = generator.PoissonTraffic(
        topo, _poisson_config(seed, MIXED_FLOWS, MIXED_WINDOW_PS,
                              MIXED_SIZE_SCALE),
    ).generate()
    rng = random.Random(seed)
    chaos.LossEpisode(
        selector="border", k=0, start_ps=0, duration_ps=LOSS_WINDOW_PS,
        loss_rate=LOSS_RATE, mean_burst_packets=LOSS_BURST_PKTS,
    ).apply(sim, topo.net, rng)
    chaos.LinkFlap(
        selector="border", k=1, start_ps=FLAP_AT_PS, down_ps=FLAP_DOWN_PS,
        period_ps=2 * FLAP_DOWN_PS, flaps=1,
    ).apply(sim, topo.net, rng)
    launcher = harness.make_launcher("uno", sim, topo, params, seed=seed)
    senders = [launcher(spec, i, None) for i, spec in enumerate(specs)]
    return _run_sim(sim, topo.net, senders, params, scale.horizon_ps)


# -- mixed_sharded ---------------------------------------------------------

class _ChildPeakRss:
    """Samples the peak RSS (VmHWM) of this process's live children.

    Shard workers are reaped inside ``run_sharded``; polling while they
    live is the only way to read each one's peak, so their sum can be
    reported. Samples every 20 ms on a daemon thread until stopped."""

    def __init__(self) -> None:
        self.peak_kb: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "_ChildPeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(0.02):
            for proc in multiprocessing.active_children():
                kb = _vm_hwm_kb(proc.pid)
                if kb > self.peak_kb.get(proc.pid, 0):
                    self.peak_kb[proc.pid] = kb


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:  # the child exited between listing and reading
        pass
    return 0


class _RunStart:
    """Records when the conservative coordinator starts its first window
    — the first event of a sharded run — by wrapping its ``run``."""

    def __init__(self) -> None:
        self.t = None
        self.cpu = None

    def __enter__(self) -> "_RunStart":
        self._orig = orig = shard.ConservativeCoordinator.run

        def run(coord):
            self.t = time.monotonic()
            self.cpu = time.process_time()
            return orig(coord)

        shard.ConservativeCoordinator.run = run
        return self

    def __exit__(self, *exc) -> None:
        shard.ConservativeCoordinator.run = self._orig


def _sharded_workload(seed: int) -> sharded.TwoDCWorkload:
    return sharded.TwoDCWorkload(seed=seed, max_flows=SHARDED_FLOWS)


def _sharded_specs(workload: sharded.TwoDCWorkload):
    """The flow specs every shard generates, rebuilt here for their sizes
    (``run_sharded`` reports per-flow outcomes keyed by flow id, which
    the launch order assigns as 1..n)."""
    scale = harness.ExperimentScale.quick()
    topo = harness.build_multidc(Simulator(), workload.scheme, scale.params(),
                                 scale, seed=workload.seed)
    return generator.PoissonTraffic(
        topo, _poisson_config(workload.seed, workload.max_flows,
                              workload.duration_ps, workload.size_scale),
    ).generate(), scale.params()


def _sharded_flows(result: dict, specs, params) -> List[dict]:
    flows = []
    for flow_id, spec in enumerate(specs, start=1):
        rec = result["flows"][flow_id]
        fct = rec["fct_ps"]
        slow = None
        if fct is not None:
            ideal = fct_analysis.ideal_fct_ps(
                spec.size_bytes, params.base_rtt_for(spec.is_inter_dc),
                params.link_gbps, mss=params.mtu_bytes)
            slow = fct / ideal
        flows.append({
            "flow_id": flow_id,
            "size_bytes": spec.size_bytes,
            "done": fct is not None,
            "aborted": rec["aborted"],
            "fct": fct,
            "slowdown": slow,
            "retransmissions": rec["retransmissions"],
            "timeouts": rec["timeouts"],
            "bytes_acked": rec["bytes_acked"],
            "data_pkts_sent": 0,
            "parity_pkts_sent": 0,
        })
    return flows


def run_mixed_sharded(seed: int, tracer=None) -> dict:
    """The pinned two-DC Poisson mix on 2 shard worker processes.

    Untraced, a single-engine run of the same traffic must then give the
    same per-flow digest. Traced, the shard workers' layer totals are
    merged into ``tracer`` and tracing stops before the flow accounting
    rebuilds the specs; the traced digest is checked against the
    untraced run's instead."""
    workload = _sharded_workload(seed)
    with _ChildPeakRss() as rss, _RunStart() as start:
        result = sharded.run_sharded(workload, shards=2, processes=True)
        t_end = time.monotonic()
        cpu_end = time.process_time()
    shard_results = result["shard_results"]
    public: Dict[str, float] = {}
    if tracer is not None:
        tracer.uninstall()
        for res in shard_results:
            worker = res["perfbench_layers"]
            tracer.merge(worker)
            for name, value in worker["public"].items():
                public[name] = public.get(name, 0) + value
    busy = result["busy_cpu_by_shard"]
    specs, params = _sharded_specs(workload)
    flows = _sharded_flows(result, specs, params)
    violations = [{"invariant": "shard_conservation", "detail": v}
                  for v in result["violations"]]
    if tracer is None:
        single = _sharded_flows(sharded.run_sharded(workload, shards=1),
                                specs, params)
        if (stats.flow_digest(flows, SIM_DIGEST_KEYS)
                != stats.flow_digest(single, SIM_DIGEST_KEYS)):
            violations.append({"invariant": "shard_equivalence",
                               "detail": "sharded flow digest differs from "
                                         "the single-engine run"})
    wall = t_end - start.t
    layers = dict(public)
    layers.update({
        "sim.engine.events": result["total_events"],
        "sim.shard.rounds": result["rounds"],
        "sim.shard.busy_cpu_max_s": max(busy),
        "sim.shard.busy_cpu_sum_s": sum(busy),
        "sim.shard.wait_s": sum(max(0.0, wall - b) for b in busy),
        "sim.shard.boundary_pkts": sum(
            sum(r.get("boundary_sent", {}).values()) for r in shard_results),
    })
    return _record(
        flows=flows, events=result["total_events"], t_ready=start.t,
        wall_s=wall, cpu_s=(cpu_end - start.cpu) + sum(busy),
        rss_kb=_rss_kb() + sum(rss.peak_kb.values()),
        violations=violations, digest_keys=SIM_DIGEST_KEYS, layers=layers,
    )


# -- wire_loopback ---------------------------------------------------------

@dataclass(frozen=True)
class WireFlow:
    transport: str
    size_bytes: int
    start_ms: float


def wire_flows(seed: int) -> List[WireFlow]:
    """Two Uno flows per DCTCP flow at every size, in a seeded order, one
    flow starting every :data:`WIRE_STAGGER_MS`. A seed changes the order
    only, so the mix a run measures is the same for every seed; the 2:1
    split keeps the median inside one transport's FCTs."""
    mix = [(t, size) for t in ("uno", "uno", "dctcp") for size in WIRE_SIZES]
    plan = mix * (WIRE_FLOWS // len(mix))
    random.Random(seed).shuffle(plan)
    return [WireFlow(t, size, i * WIRE_STAGGER_MS)
            for i, (t, size) in enumerate(plan)]


def run_wire_loopback(seed: int, tracer=None) -> dict:
    """Staggered flows over real UDP on the loopback interface, through
    the seeded impairment proxy with delay only."""
    import gc

    gc.collect()  # no gen-2 debt from set-up lands inside the run
    return asyncio.run(_wire(seed, wire_flows(seed)))


async def _wire(seed: int, plan: List[WireFlow]) -> dict:
    from repro.core.params import UnoParams
    from repro.core.uno import start_uno_flow
    from repro.transport.base import start_flow
    from repro.transport.dctcp import DCTCP
    from repro.wire import endpoint, harness as wire_harness, proxy as wproxy
    from repro.wire.clock import WallClock

    imp = wproxy.Impairments(delay_ms=WIRE_DELAY_MS)
    clock = WallClock(asyncio.get_running_loop())
    net = endpoint.WireNetwork()
    host_a = await endpoint.open_wire_host(clock, 1, "wireA", dc=0)
    host_b = await endpoint.open_wire_host(clock, 2, "wireB", dc=1)
    px = await wproxy.open_proxy(clock, imp, seed ^ 0x51DE)
    px.wire(host_a.addr, host_b.addr)
    host_a.connect(px.addr)
    host_b.connect(px.addr)

    rtt = wire_harness.wire_rtt_ps(imp, WIRE_MSS)
    min_rto, max_rto = 25 * MS, 200 * MS
    idle = max(2_000 * MS, 10 * max_rto)
    params = UnoParams(
        link_gbps=WIRE_LINE_GBPS, mtu_bytes=WIRE_MSS,
        intra_rtt_ps=max(rtt // 2, 1 * MS), inter_rtt_ps=max(rtt, 2 * MS),
        min_rto_ps=min_rto, max_rto_ps=max_rto, rto_backoff_max=8,
    )
    left = [len(plan)]
    all_done = asyncio.Event()

    def finished(_s: Sender) -> None:
        left[0] -= 1
        if left[0] == 0:
            all_done.set()

    t_ready = time.monotonic()
    cpu0 = _cpu_s()
    senders: List[Sender] = []
    due: List[int] = []
    for i, f in enumerate(plan):
        start_ps = clock.now + int(f.start_ms * MS)
        due.append(start_ps)
        if f.transport == "uno":
            s = start_uno_flow(
                clock, net, host_a, host_b, f.size_bytes, params,
                start_ps=start_ps, seed=seed + i, base_rtt_ps=rtt,
                on_complete=finished, receiver_idle_timeout_ps=idle)
        else:
            s = start_flow(
                clock, net, DCTCP(), host_a, host_b, f.size_bytes,
                start_ps=start_ps, mss=WIRE_MSS, base_rtt_ps=rtt,
                line_gbps=WIRE_LINE_GBPS, min_rto_ps=min_rto,
                max_rto_ps=max_rto,
                rto_backoff_max=8, seed=seed + i, on_complete=finished,
                receiver_kwargs={"idle_timeout_ps": idle})
        senders.append(s)
    timed_out = False
    try:
        await asyncio.wait_for(all_done.wait(), WIRE_TIMEOUT_S)
    except asyncio.TimeoutError:
        timed_out = True
    wall = time.monotonic() - t_ready
    cpu = _cpu_s() - cpu0
    # Let datagrams still crossing the proxy land before counting what
    # the kernel dropped.
    await asyncio.sleep(4 * WIRE_DELAY_MS / 1e3)
    hosts = [host_a, host_b]
    violations = wire_harness.check_wire_invariants(
        clock, hosts, senders, px, timed_out=timed_out)

    flows = []
    for s, due_ps in zip(senders, due):
        # Open loop: FCT counts from when the flow was due, so a late
        # start is part of the flow's time.
        st = replace(s.stats, start_ps=due_ps)
        slow = None
        fct_ms = None
        if st.done:
            fct_ms = st.fct_ps / MS
            slow = fct_analysis.slowdowns([st], lambda _r: rtt,
                                          WIRE_LINE_GBPS, mss=WIRE_MSS)[0]
        flows.append(_flow(st, slow, fct_ms))
    pstats = px.stats()
    sent_to_proxy = host_a.tx_datagrams + host_b.tx_datagrams
    received = host_a.rx_datagrams + host_b.rx_datagrams
    kernel_drops = ((sent_to_proxy - px.rx_datagrams - px.unrouted)
                    + (px.tx_datagrams - received))
    bytes_sent = sum(
        (s.stats.data_pkts_sent + s.stats.parity_pkts_sent) * s.mss
        for s in senders)
    cstats = clock.stats()
    layers = {
        "wire.endpoint.tx_datagrams": sent_to_proxy,
        "wire.endpoint.rx_datagrams": received,
        "wire.endpoint.kernel_drops": kernel_drops,
        "wire.proxy.forwarded": (pstats["a_to_b"]["forwarded"]
                                 + pstats["b_to_a"]["forwarded"]),
        "wire.clock.armed": cstats["armed"],
        "wire.clock.cancelled": cstats["cancelled"],
        **_transport_layers(
            senders, [s.stats for s in senders],
            [getattr(s, "receiver", None) for s in senders], bytes_sent),
    }
    for s in senders:
        if not s.terminal:
            s.abort("benchmark_teardown")
    px.close()
    host_a.close()
    host_b.close()
    await asyncio.sleep(0)
    return _record(
        flows=flows, events=sent_to_proxy + received, t_ready=t_ready,
        wall_s=wall, cpu_s=cpu, rss_kb=_rss_kb(),
        violations=_correctness(violations, flows),
        digest_keys=WIRE_DIGEST_KEYS, layers=layers,
    )


RUNNERS: Dict[str, Callable[..., dict]] = {
    "perm_bulk": run_perm_bulk,
    "mixed_lossy": run_mixed_lossy,
    "wire_loopback": run_wire_loopback,
    "mixed_sharded": run_mixed_sharded,
}
