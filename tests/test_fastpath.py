"""The compiled per-packet hot path (``repro.sim.fastpath``) against the
pure-Python reference: identical results, safe fallback, and the same
view for class-level wrappers and the engine profiler."""

import asyncio
import collections
import json
import os
import random
import shlex
import sys

import pytest

from repro.core.annulus import enable_qcn
from repro.core.uno import make_unocc
from repro.core.unocc import UnoCC
from repro.core.unolb import UnoLB
from repro.experiments import fig1
from repro.experiments.api import canonical_json
from repro.experiments.harness import build_multidc, make_launcher
from repro.obs import TelemetryContext
from repro.sim import chaos, fastpath
from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.link import Link
from repro.sim.packet import make_ack
from repro.sim.pfc import PFCConfig, enable_pfc
from repro.sim.queues import Port
from repro.sim.switch import QCNConfig, Switch
from repro.sim.units import KIB, MS, US
from repro.topology.simple import dumbbell
from repro.transport.base import Receiver, Sender, start_flow
from repro.transport.dctcp import DCTCP
from repro.wire.clock import WallClock
from repro.workloads.alibaba_wan import ALIBABA_WAN_CDF
from repro.workloads.generator import FlowSpec, PoissonTraffic, TrafficConfig
from repro.workloads.websearch import WEBSEARCH_CDF

from tests.test_perf import (
    SCALE,
    _Sink,
    _burst_trace,
    _data,
    _divert_mid_burst,
    _fail_mid_burst,
    _mixed_traffic_summary,
    _pfc_pause,
    _pfc_resume,
)


def _on(compiled: bool, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the compiled path on or forced off."""
    old = fastpath.ENABLED
    fastpath.ENABLED = compiled
    try:
        return fn(*args, **kwargs)
    finally:
        fastpath.ENABLED = old


@pytest.fixture
def compiled(monkeypatch):
    """Skip unless the compiled module builds and loads here."""
    monkeypatch.setattr(fastpath, "ENABLED", True)
    Simulator()
    if not fastpath.active():
        pytest.skip(f"compiled hot path unavailable: {fastpath.reason}")


@pytest.fixture
def fresh_loader():
    """Forget the loaded module before and after the test, so loader
    settings the test changes cannot leak into later tests."""
    fastpath._reset()
    yield
    fastpath._reset()


@pytest.fixture
def fallback_counts(compiled):
    """Re-create every compiled entry around a counting copy of its
    reference method. Yields {qualname: calls that reached the
    reference}; afterwards the usual entries are installed again."""
    counts = collections.Counter()
    mod = fastpath._module
    targets = fastpath._targets()
    refs = {}
    made = {}
    for cls, attr, entry, qualname in targets:
        ref = refs.setdefault(qualname, cls.__dict__[attr].__wrapped__)
        if qualname not in made:
            def counting(*args, _ref=ref, _qualname=qualname):
                counts[_qualname] += 1
                return _ref(*args)
            counting.__qualname__ = qualname
            made[qualname] = mod.entry(entry, counting)
        setattr(cls, attr, made[qualname])
    yield counts
    for cls, attr, _entry, qualname in targets:
        setattr(cls, attr, refs[qualname])
    fastpath._made.clear()
    fastpath._install(mod)


#: Every compiled entry: (class, attribute, reference qualname).
ENTRIES = (
    (Port, "enqueue", "Port.enqueue"),
    (Port, "receive", "Port.enqueue"),
    (Link, "_drain", "Link._drain"),
    (Switch, "receive", "Switch.receive"),
    (Host, "receive", "Host.receive"),
    (Receiver, "on_packet", "Receiver.on_packet"),
    (Sender, "on_packet", "Sender.on_packet"),
    (Sender, "_on_ack", "Sender._on_ack"),
    (Sender, "_maybe_send", "Sender._maybe_send"),
    (Sender, "_emit", "Sender._emit"),
    (Sender, "_pace_wakeup", "Sender._pace_wakeup"),
    (UnoCC, "on_ack", "UnoCC.on_ack"),
)


class TestInstall:
    def test_entries_replace_the_reference_methods(self, compiled):
        assert {(c, a) for c, a, _e, _q in fastpath._targets()} == {
            (c, a) for c, a, _q in ENTRIES}
        for cls, attr, qualname in ENTRIES:
            entry = cls.__dict__[attr]
            assert type(entry).__name__ == "method"
            assert entry.__wrapped__.__qualname__ == qualname
            assert entry.__qualname__ == qualname
        assert Port.__dict__["receive"] is Port.__dict__["enqueue"]

    def test_disabling_restores_the_reference_methods(self, compiled,
                                                      monkeypatch):
        monkeypatch.setattr(fastpath, "ENABLED", False)
        sim = Simulator()
        assert sim._fast is None
        for cls, attr, qualname in ENTRIES:
            assert type(cls.__dict__[attr]).__name__ == "function"
            assert cls.__dict__[attr].__qualname__ == qualname


class TestRunLoopErrors:
    """A callback's exception ends ``run()`` on both loops; it is never
    mistaken for the heap running empty."""

    @pytest.mark.parametrize("use_compiled", [True, False],
                             ids=["compiled", "python"])
    def test_callback_index_error_propagates(self, use_compiled):
        def scenario():
            sim = Simulator()
            fired = []
            sim.at(10, lambda: [][0])
            sim.at(20, fired.append, 20)
            with pytest.raises(IndexError):
                sim.run()
            assert fired == []
            assert sim.now == 10
            # The rest of the heap is intact: a second run resumes it.
            assert sim.run() == 1
            assert fired == [20]
            return sim.events_executed

        assert _on(use_compiled, scenario) == 1

    @pytest.mark.parametrize("use_compiled", [True, False],
                             ids=["compiled", "python"])
    def test_errors_propagate_under_budget_and_limit(self, use_compiled):
        def scenario():
            sim = Simulator()
            sim.at(5, lambda: None)
            sim.at(10, lambda: {}["missing"])
            with pytest.raises(KeyError):
                sim.run(until=100, max_events=10)
            return sim.now

        assert _on(use_compiled, scenario) == 10


def _flow_digest(senders):
    return canonical_json([
        (s.flow_id, s.stats.fct_ps, s.stats.retransmissions,
         s.stats.bytes_acked, s.stats.data_pkts_sent, s.stats.dup_acks)
        for s in senders
    ])


def _closed_loop_uno(seed: int, rounds: int = 3, size: int = 64 * KIB):
    """Closed loop on the quick two-DC fat-tree, full Uno stack: every
    host starts its next flow, to its partner in the next seeded
    permutation, as soon as its previous flow completes; every third
    round pairs hosts across the DCs. Returns (flow digest, events)."""
    sim = Simulator()
    params = SCALE.params()
    topo = build_multidc(sim, "uno", params, SCALE, seed=seed)
    launcher = make_launcher("uno", sim, topo, params, seed=seed)
    hosts = topo.all_hosts()
    rng = random.Random(seed)
    plan = []
    for k in range(rounds):
        ring = list(hosts)
        rng.shuffle(ring)
        if k % 3 == 2:
            others = {h: [o for o in ring if o.dc != h.dc] for h in hosts}
            plan.append({h: others[h][i % len(others[h])]
                         for i, h in enumerate(hosts)})
        else:
            plan.append({h: next(o for o in ring[ring.index(h) + 1:]
                                 + ring if o.dc == h.dc and o is not h)
                         for h in hosts})
    senders = []

    def client(src):
        def next_flow(_prev=None):
            k = sum(1 for s in senders if s.src is src)
            if k == rounds:
                return
            dst = plan[k][src]
            spec = FlowSpec(sim.now, src, dst, size, src.dc != dst.dc)
            senders.append(launcher(spec, len(senders), next_flow))
        return next_flow

    for h in hosts:
        client(h)()
    sim.run()
    assert len(senders) == rounds * len(hosts)
    assert all(s.done for s in senders)
    return _flow_digest(senders), sim.events_executed


def _lossy_uno_mix(seed: int):
    """A Uno mix that reaches every deferral of the compiled transport:
    inter-DC UnoRC flows, correlated loss on border and core cables (RTO
    retransmissions, duplicate ACKs, NACKs, block-complete ACKs), a core
    flap, QCN congestion notifications and PFC pauses from an incast
    onto one host. Returns (flow digest, events, coverage counts)."""
    sim = Simulator()
    params = SCALE.params()
    topo = build_multidc(sim, "uno", params, SCALE, seed=seed)
    net = topo.net
    enable_pfc(net, PFCConfig(xoff_frac=0.05, xon_frac=0.02))
    enable_qcn(net, QCNConfig(threshold_bytes=8 * KIB))
    specs = PoissonTraffic(topo, TrafficConfig(
        load=0.5, duration_ps=3 * MS,
        intra_cdf=WEBSEARCH_CDF.scaled(1 / 32),
        inter_cdf=ALIBABA_WAN_CDF.scaled(1 / 32),
        max_flows=40, seed=seed,
    )).generate()
    hosts = topo.all_hosts()
    victim = hosts[0]
    specs = sorted(specs + [FlowSpec(0, h, victim, 256 * KIB,
                                     h.dc != victim.dc) for h in hosts[1:9]],
                   key=lambda spec: spec.start_ps)
    rng = random.Random(seed)
    for selector in ("border", "core"):
        chaos.LossEpisode(selector=selector, k=0, start_ps=0,
                          duration_ps=20 * MS, loss_rate=1e-2,
                          mean_burst_packets=2.5).apply(sim, net, rng)
    chaos.LinkFlap(selector="core", k=1, start_ps=1 * MS, down_ps=2 * MS,
                   period_ps=4 * MS, flaps=1).apply(sim, net, rng)
    launcher = make_launcher("uno", sim, topo, params, seed=seed)
    senders = [launcher(spec, i, None) for i, spec in enumerate(specs)]
    sim.run(until=40 * MS)
    stats = [s.stats for s in senders]
    coverage = {
        "inter_dc": sum(st.is_inter_dc for st in stats),
        "nacks": sum(st.nacks_received for st in stats),
        "timeouts": sum(st.timeouts for st in stats),
        "dup_acks": sum(st.dup_acks for st in stats),
        "cnps": sum(sw.cnps_sent for sw in net.switches),
        "host_pauses": sum(p.pause_frames_rx for h in net.hosts
                           for p in h.ports.values()),
        "completed": sum(st.done for st in stats),
    }
    return _flow_digest(senders), sim.events_executed, coverage


def _intra_uno_flows(sender_cls=Sender, n: int = 6, size: int = 96 * KIB,
                     seed: int = 3):
    """Plain intra-DC Uno flows (UnoCC with pacing, UnoLB) on the quick
    two-DC fat-tree, run to completion."""
    sim = Simulator()
    params = SCALE.params()
    topo = build_multidc(sim, "uno", params, SCALE, seed=seed)
    hosts = [h for h in topo.all_hosts() if h.dc == 0]
    senders = [
        start_flow(sim, topo.net, make_unocc(params, False),
                   hosts[i % len(hosts)], hosts[(i + 3) % len(hosts)], size,
                   sender_cls=sender_cls, mss=params.mtu_bytes,
                   base_rtt_ps=params.base_rtt_for(False),
                   line_gbps=params.link_gbps, path=UnoLB(n_subflows=4),
                   seed=seed + i)
        for i in range(n)
    ]
    sim.run()
    assert all(s.done for s in senders)
    return sim, topo, senders


class TestCompiledMatchesPython:
    """Bit-identical results: same deliveries, counters, RNG draws and
    executed-event counts with the compiled path on and forced off."""

    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "ref"])
    @pytest.mark.parametrize("case", ["red", "pfc", "divert", "fail"])
    def test_burst_boundaries(self, compiled, case, batch):
        kwargs = {
            "red": dict(capacity=24_000),
            "pfc": dict(actions=[(400_007, _pfc_pause),
                                 (1_500_013, _pfc_resume)]),
            "divert": dict(actions=[(500_003, _divert_mid_burst)]),
            "fail": dict(actions=[(500_003, _fail_mid_burst)]),
        }[case]
        assert (_on(True, _burst_trace, batch, **kwargs)
                == _on(False, _burst_trace, batch, **kwargs))

    def test_mixed_traffic(self, compiled):
        for seed in (71, 43):
            assert (_on(True, _mixed_traffic_summary, seed)
                    == _on(False, _mixed_traffic_summary, seed))

    @pytest.mark.parametrize("seed", [2, 9])
    def test_closed_loop_uno(self, compiled, seed):
        assert (_on(True, _closed_loop_uno, seed)
                == _on(False, _closed_loop_uno, seed))

    @pytest.mark.parametrize("seed", [5, 11])
    def test_lossy_uno_mix(self, compiled, seed):
        result = _on(True, _lossy_uno_mix, seed)
        assert result == _on(False, _lossy_uno_mix, seed)
        coverage = result[2]
        assert all(coverage.values()), coverage

    def test_fig1_quick_results_byte_identical(self, compiled):
        def results():
            return [canonical_json(fig1.run_point(p))
                    for p in fig1.points(quick=True)]

        assert _on(True, results) == _on(False, results)


class TestLoader:
    def test_missing_compiler_falls_back_to_python(self, tmp_path,
                                                   monkeypatch,
                                                   fresh_loader):
        reference = _on(False, _mixed_traffic_summary, 71)
        monkeypatch.setattr(fastpath, "ENABLED", True)
        monkeypatch.setattr(fastpath, "_compiler",
                            lambda: "no-such-compiler-for-repro")
        monkeypatch.setattr(fastpath, "_cache_dirs", lambda: [str(tmp_path)])
        sim = Simulator()
        assert sim._fast is None
        assert not fastpath.active()
        assert fastpath.reason
        assert type(Port.__dict__["enqueue"]).__name__ == "function"
        assert _mixed_traffic_summary(71) == reference
        assert not list(tmp_path.iterdir())  # no half-written module

    def test_cache_hit_needs_no_compiler(self, tmp_path, monkeypatch,
                                         fresh_loader, compiled):
        monkeypatch.setattr(fastpath, "_cache_dirs", lambda: [str(tmp_path)])
        fastpath._reset()
        Simulator()
        assert fastpath.active(), fastpath.reason
        built = sorted(p.name for p in tmp_path.iterdir())
        assert len(built) == 1 and built[0].startswith("_fastpath-")
        # Warm start: the cached module loads without invoking the
        # compiler at all.
        fastpath._reset()
        monkeypatch.setattr(fastpath, "_compiler",
                            lambda: "no-such-compiler-for-repro")
        Simulator()
        assert fastpath.active(), fastpath.reason

    def test_compile_keeps_float_rounding_exact(self, tmp_path, monkeypatch,
                                                fresh_loader):
        # Without -ffp-contract=off the compiler may fuse the RTT and
        # window updates into FMAs, which round differently from Python.
        log = tmp_path / "argv.txt"
        monkeypatch.setattr(fastpath, "ENABLED", True)
        monkeypatch.setattr(fastpath, "_compiler", lambda: _fake_compiler(
            tmp_path, "import json\n"
                      f"open({str(log)!r}, 'w').write(json.dumps(sys.argv[1:]))\n"
                      "sys.exit(1)\n"))
        monkeypatch.setattr(fastpath, "_cache_dirs",
                            lambda: [str(tmp_path / "cache")])
        Simulator()
        assert not fastpath.active()
        argv = json.loads(log.read_text())
        assert "-ffp-contract=off" in argv
        assert "-O2" in argv

    def test_compile_flags_are_part_of_the_cache_key(self, tmp_path,
                                                     monkeypatch,
                                                     fresh_loader):
        monkeypatch.setattr(fastpath, "_compiler", lambda: _fake_compiler(
            tmp_path, "out = sys.argv[sys.argv.index('-o') + 1]\n"
                      "open(out, 'w').close()\n"))
        monkeypatch.setattr(fastpath, "_cache_dirs",
                            lambda: [str(tmp_path / "cache")])
        first = os.path.basename(fastpath._build())
        assert fastpath._build().endswith(first)  # cache hit
        monkeypatch.setattr(fastpath, "_CFLAGS", fastpath._CFLAGS + ("-g",))
        second = os.path.basename(fastpath._build())
        assert first.startswith("_fastpath-")
        assert second.startswith("_fastpath-") and second != first


def _fake_compiler(tmp_path, body: str) -> str:
    """A compiler command line running ``body`` as a Python script with
    the compile argv in ``sys.argv[1:]``."""
    script = tmp_path / "fake_cc.py"
    script.write_text("import sys\n" + body)
    return f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"


def _dumbbell_run():
    sim = Simulator()
    topo = dumbbell(sim, n_pairs=2, gbps=25.0, prop_ps=1 * US,
                    queue_bytes=1 << 20, seed=3)
    senders = [
        start_flow(sim, topo.net, DCTCP(), s, r, 128 * 1024,
                   base_rtt_ps=8 * US, seed=i)
        for i, (s, r) in enumerate(zip(topo.senders, topo.receivers))
    ]
    sim.run()
    assert all(s.done for s in senders)
    return sim, topo


class TestWrappers:
    def test_class_level_wrappers_see_every_call(self, compiled,
                                                 monkeypatch):
        # Wrap the compiled entries themselves, as a tracer installed
        # after the first Simulator() would.
        wrapped = (
            ("switch", Switch, ("receive",)),
            ("port", Port, ("enqueue", "receive")),
            ("host", Host, ("receive",)),
            ("sender", Sender, ("on_packet",)),
            ("receiver", Receiver, ("on_packet",)),
            ("unocc", UnoCC, ("on_ack",)),
        )
        calls = collections.Counter()

        def counting(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        for key, cls, attrs in wrapped:
            for attr in attrs:
                assert type(cls.__dict__[attr]).__name__ == "method"
                monkeypatch.setattr(cls, attr,
                                    counting(key, cls.__dict__[attr]))
        sim, topo, senders = _intra_uno_flows()
        assert sim._fast is not None
        assert type(Link.__dict__["_drain"]).__name__ == "method"
        assert type(Sender.__dict__["_on_ack"]).__name__ == "method"
        net = topo.net
        ports = [p for node in net.nodes for p in node.ports.values()]
        acks = sum(len(s.acked_seqs) for s in senders)
        assert calls["switch"] == sum(sw.rx_pkts for sw in net.switches) > 0
        assert calls["port"] == sum(p.enqueued_pkts + p.drops
                                    for p in ports) > 0
        assert calls["host"] == sum(h.rx_pkts for h in net.hosts) > 0
        assert calls["receiver"] == sum(s.receiver.rx_data_pkts
                                        for s in senders) > 0
        assert calls["sender"] == calls["unocc"] == acks > 0
        assert calls["host"] == calls["receiver"] + calls["sender"]

    def test_profiler_names_compiled_sites(self, compiled):
        with TelemetryContext(profile=True) as ctx:
            sim = Simulator()
            link = Link(sim, 100.0, prop_ps=5 * US)
            sink = _Sink()
            link.connect(sink)
            port = Port(sim, link, capacity_bytes=64_000,
                        rng=random.Random(1))
            for i in range(10):
                sim.at(1_000 + i * 49_991, port.enqueue, _data(i))
            sim.run()
        assert len(sink.got) == 10
        sites = ctx.collect()["profile"]["sites"]
        assert "Link._drain" in sites
        assert "Port.enqueue" in sites
        assert not {"drain", "enqueue", "switch_receive"} & set(sites)


class TestTransportDeferrals:
    """The compiled transport runs plain intra-DC flows on its own and
    hands everything else to the reference methods, with identical
    results."""

    def test_plain_flows_stay_compiled(self, fallback_counts):
        sim, _topo, senders = _intra_uno_flows()
        n = len(senders)
        # Only the first ACK of each flow (it starts Quick Adapt) and the
        # first DATA packet of each receiver (it arms the idle timer)
        # reach the reference methods.
        assert fallback_counts["Sender._on_ack"] == n
        assert fallback_counts["UnoCC.on_ack"] == n
        assert fallback_counts["Receiver.on_packet"] == n
        for qualname in ("Host.receive", "Sender.on_packet",
                         "Sender._maybe_send", "Sender._emit",
                         "Sender._pace_wakeup"):
            assert fallback_counts[qualname] == 0, qualname
        assert sum(s.stats.data_pkts_sent for s in senders) > 10 * n

    def test_telemetry_runs_the_reference(self, compiled):
        def run():
            with TelemetryContext(event_topics=("ack",),
                                  profile=False) as ctx:
                _sim, _topo, senders = _intra_uno_flows()
            events = ctx.bundles[0].events
            # Only the reference _on_ack emits per-ACK events.
            assert events.count("ack", "ack") == sum(
                s.total_data_pkts for s in senders)
            return _flow_digest(senders), ctx.collect()["metrics"]

        assert _on(True, run) == _on(False, run)

    def test_sender_subclass_keeps_its_hooks(self, compiled):
        decorated = []

        class Stamping(Sender):
            def _decorate(self, pkt):
                decorated.append(pkt.seq)
                pkt.block_pos = 7

        def run():
            decorated.clear()
            _sim, _topo, senders = _intra_uno_flows(sender_cls=Stamping)
            assert len(decorated) == sum(s.stats.data_pkts_sent
                                         for s in senders)
            return _flow_digest(senders)

        assert _on(True, run) == _on(False, run)

    def test_dctcp_flow(self, compiled, monkeypatch):
        acks = []
        on_ack = DCTCP.on_ack

        def counting(cc, sender, pkt, rtt, ecn):
            acks.append(pkt.seq)
            return on_ack(cc, sender, pkt, rtt, ecn)

        monkeypatch.setattr(DCTCP, "on_ack", counting)

        def run():
            acks.clear()
            sim, _topo = _dumbbell_run()
            return sim.events_executed, len(acks)

        compiled_run = _on(True, run)
        assert compiled_run == _on(False, run)
        assert compiled_run[1] == 2 * 32  # every ACK reached DCTCP

    def test_wall_clock_sender(self, compiled):
        params = SCALE.params()
        mss = params.mtu_bytes

        class RecordingHost:
            def __init__(self, node_id):
                self.node_id = node_id
                self.sent = []

            def send(self, pkt):
                self.sent.append(pkt)

            def unregister(self, flow_id):
                pass

        async def scenario():
            clock = WallClock()
            src, dst = RecordingHost(1), RecordingHost(2)
            sender = Sender(clock, None, 5, src, dst, 6 * mss,
                            make_unocc(params, False), mss=mss,
                            base_rtt_ps=params.base_rtt_for(False),
                            line_gbps=params.link_gbps,
                            path=UnoLB(n_subflows=3),
                            min_rto_ps=10**13, max_rto_ps=10**13)
            sender.start()
            acked = 0
            while not sender.done:
                pending = src.sent[acked:]
                acked += len(pending)
                for pkt in pending:
                    sender.on_packet(make_ack(pkt, clock.now))
                if not pending:
                    await asyncio.sleep(0.001)
            return sender, src.sent

        sender, sent = asyncio.run(asyncio.wait_for(scenario(), 10))
        assert [p.seq for p in sent] == list(range(6))
        entropies = sender.path.entropies
        assert [p.sport for p in sent] == [entropies[i % 3]
                                           for i in range(6)]
        assert sender.stats.bytes_acked == 6 * mss
        assert sender.stats.retransmissions == 0
