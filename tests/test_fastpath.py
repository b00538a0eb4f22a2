"""The compiled per-packet hot path (``repro.sim.fastpath``) against the
pure-Python reference: identical results, safe fallback, and the same
view for class-level wrappers and the engine profiler."""

import random

import pytest

from repro.experiments import fig1
from repro.experiments.api import canonical_json
from repro.obs import TelemetryContext
from repro.sim import fastpath
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.queues import Port
from repro.sim.switch import Switch
from repro.sim.units import US
from repro.topology.simple import dumbbell
from repro.transport.base import start_flow
from repro.transport.dctcp import DCTCP

from tests.test_perf import (
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


class TestInstall:
    def test_entries_replace_the_reference_methods(self, compiled):
        for cls, attr, qualname in (
            (Port, "enqueue", "Port.enqueue"),
            (Port, "receive", "Port.enqueue"),
            (Link, "_drain", "Link._drain"),
            (Switch, "receive", "Switch.receive"),
        ):
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
        assert Port.__dict__["enqueue"].__qualname__ == "Port.enqueue"
        assert type(Port.__dict__["enqueue"]).__name__ == "function"
        assert type(Link.__dict__["_drain"]).__name__ == "function"


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
        assert type(Switch.__dict__["receive"]).__name__ == "method"
        assert type(Port.__dict__["enqueue"]).__name__ == "method"
        calls = {"switch": 0, "port": 0}

        def counting(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(Switch, "receive",
                            counting("switch", Switch.__dict__["receive"]))
        for attr in ("enqueue", "receive"):
            monkeypatch.setattr(Port, attr,
                                counting("port", Port.__dict__[attr]))
        sim, topo = _dumbbell_run()
        assert sim._fast is not None
        assert type(Link.__dict__["_drain"]).__name__ == "method"
        ports = [p for node in topo.net.nodes for p in node.ports.values()]
        switches = [n for n in topo.net.nodes if isinstance(n, Switch)]
        assert calls["switch"] == sum(sw.rx_pkts for sw in switches) > 0
        assert calls["port"] == sum(p.enqueued_pkts + p.drops
                                    for p in ports) > 0

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
