"""Traced mode: spans around calls into each layer's public entry points.

:meth:`Tracer.install` replaces each entry point — a class attribute or
module function the program looks up at call time — with a wrapper that
times the call and attributes it to a layer. It must run before the
topology is built, because components cache bound methods at
construction. Nothing inside the program is edited; every span is
recorded from this file.

A span is ``(name, start_s, end_s, parent_name, flow_id)`` with the flow
id as the request id shared by all spans of one flow. A layer's self
time is the time its spans cover minus the time their child spans
cover. Every span feeds the per-layer totals; the first
:data:`KEEP_SPANS` are also kept in memory and written out by
:meth:`Tracer.write` when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept verbatim for the span file; later ones only feed totals.
KEEP_SPANS = 100_000


def _pkt_flow(args: tuple) -> Optional[int]:
    """Flow id of a ``(self, pkt)`` call."""
    return args[1].flow_id


def _self_flow(args: tuple) -> Optional[int]:
    """Flow id of a call on a sender or receiver (``self.flow_id``)."""
    return args[0].flow_id


def _no_flow(_args: tuple) -> Optional[int]:
    return None


class Tracer:
    """In-memory span recorder with per-layer total and self time."""

    def __init__(self) -> None:
        self._stack: List[list] = []        # [layer, child_s] per open span
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[str, float, float, Optional[str], Any]] = []
        self.dropped = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def wrap(self, layer: str, fn: Callable,
             flow_of: Callable[[tuple], Optional[int]] = _no_flow) -> Callable:
        """``fn`` with every call recorded as a span of ``layer``."""
        clock = time.perf_counter
        stack = self._stack
        total, own, calls = self.total_s, self.self_s, self.calls
        spans = self.spans

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                total[layer] += d
                own[layer] += d - frame[1]
                calls[layer] += 1
                parent = None
                if stack:
                    stack[-1][1] += d
                    parent = stack[-1][0]
                if len(spans) < KEEP_SPANS:
                    spans.append((layer, t0, t1, parent, flow_of(args)))
                else:
                    self.dropped += 1

        return traced

    def reset(self) -> None:
        """Forget everything recorded (a forked shard worker starts here)."""
        self._stack.clear()
        for d in (self.total_s, self.self_s, self.calls, self.counts):
            d.clear()
        self.spans.clear()
        self.dropped = 0

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(self, owner: Any, attr: str, layer: str,
             flow_of: Callable[[tuple], Optional[int]] = _no_flow) -> None:
        """Wrap ``owner.attr`` (a method or module function) as a span."""
        self.patch(owner, attr,
                   self.wrap(layer, getattr(owner, attr), flow_of))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- entry points ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public entry point the benchmark measures."""
        from repro.core.unocc import UnoCC
        from repro.experiments import harness, sharded
        from repro.sim import engine, shard
        from repro.sim.failures import GilbertElliottLoss
        from repro.sim.host import Host
        from repro.sim.link import Link
        from repro.sim.network import Network
        from repro.sim.queues import Port
        from repro.sim.switch import Switch
        from repro.topology.multidc import MultiDC
        from repro.transport.base import Receiver, Sender
        from repro.wire import endpoint
        from repro.wire.clock import WallClock
        from repro.wire.proxy import ImpairmentProxy
        from repro.workloads.generator import PoissonTraffic
        import repro.core.uno
        import repro.transport.base

        self.span(engine.Simulator, "run", "sim.engine")
        # ``receive`` is an alias of ``enqueue`` (Port) and ``transmit``
        # (Link): each name is looked up by different callers.
        for owner, attrs in ((Port, ("enqueue", "receive")),
                             (Link, ("transmit", "receive"))):
            for attr in attrs:
                self.span(owner, attr, "sim.queues_link", _pkt_flow)
        self.span(Switch, "receive", "sim.switch", _pkt_flow)
        self.span(Host, "receive", "sim.host", _pkt_flow)
        # Reconvergence is scheduled as a bound method when a link
        # changes state; it has no public entry of its own.
        self.span(Network, "_converge", "sim.network")
        self.span(Sender, "on_packet", "transport", _self_flow)
        self.span(Receiver, "on_packet", "transport", _self_flow)
        self._wrap_sender_start(Sender)
        self.span(UnoCC, "on_ack", "core.unocc.on_ack",
                  lambda a: a[1].flow_id)
        self.span(MultiDC, "__init__", "topology.build")
        self.span(PoissonTraffic, "generate", "workloads.generate")
        self._wrap_launcher(harness)
        self.span(repro.core.uno, "start_uno_flow", "transport.launch")
        self.span(repro.transport.base, "start_flow", "transport.launch")
        self.span(sharded, "run_sharded", "sim.shard.run")
        self.span(shard.ProcessShard, "__init__", "sim.shard.spawn")
        self.span(endpoint, "pack_packet", "wire.frame.pack")
        self.span(endpoint, "unpack_packet", "wire.frame.unpack")
        self.span(endpoint.WireHost, "datagram_received", "wire.endpoint")
        self.span(endpoint.WireHost, "send", "wire.endpoint", _pkt_flow)
        self.span(ImpairmentProxy, "datagram_received", "wire.proxy")
        self._count_cancels(engine.EventHandle)
        self._count_losses(GilbertElliottLoss)
        self._time_wall_timers(WallClock)
        self._trace_shard_workers(sharded)

    def _wrap_launcher(self, harness) -> None:
        orig = harness.make_launcher

        def make_launcher(*args, **kwargs):
            return self.wrap("transport.launch", orig(*args, **kwargs),
                             lambda a: a[1])

        self.patch(harness, "make_launcher", make_launcher)

    def _wrap_sender_start(self, sender_cls) -> None:
        """Span ``Sender.start`` and record how late it ran against the
        start time the flow was launched with (always 0 in simulated
        time; real lateness on the wire)."""
        counts = self.counts
        traced = self.wrap("transport", sender_cls.start, _self_flow)

        def start(sender):
            late = sender.sim.now - sender.stats.start_ps
            counts["launch_late_ps"] += max(0, late)
            counts["launches"] += 1
            return traced(sender)

        self.patch(sender_cls, "start", start)

    def _count_cancels(self, handle_cls) -> None:
        counts = self.counts
        orig = handle_cls.cancel

        def cancel(handle):
            if not (handle.cancelled or handle.fired):
                counts["cancelled"] += 1
            return orig(handle)

        self.patch(handle_cls, "cancel", cancel)

    def _count_losses(self, model_cls) -> None:
        counts = self.counts
        orig = model_cls.__call__

        def call(model, pkt, now_ps):
            lost = orig(model, pkt, now_ps)
            if lost:
                counts["loss_drops"] += 1
            return lost

        self.patch(model_cls, "__call__", call)

    def _time_wall_timers(self, clock_cls) -> None:
        """Record how late each wall-clock timer fired past its due time."""
        counts = self.counts
        orig = clock_cls.after

        def after(clock, delay_ps, fn, *args):
            loop = clock._loop
            due = loop.time() + delay_ps / 1e12

            def fire(*fargs):
                counts["fire_late_s"] += max(0.0, loop.time() - due)
                counts["fired"] += 1
                return fn(*fargs)

            return orig(clock, delay_ps, fire, *args)

        self.patch(clock_cls, "after", after)

    def _trace_shard_workers(self, sharded) -> None:
        """Carry per-layer totals home from forked shard workers.

        A worker is forked with these wrappers in place; it forgets the
        coordinator's spans when its world is built and attaches its
        own totals to the result dict it sends back."""
        build = sharded._build_shard
        collect = sharded.ShardWorld.collect

        def build_shard(*args, **kwargs):
            self.reset()
            return build(*args, **kwargs)

        def collect_with_layers(world):
            from perfbench.workloads import sim_layers

            result = collect(world)
            result["perfbench_layers"] = {
                "total_s": dict(self.total_s),
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "public": sim_layers(world.sim, world.topo.net,
                                     world.local_senders()),
            }
            return result

        self.patch(sharded, "_build_shard", build_shard)
        self.patch(sharded.ShardWorld, "collect", collect_with_layers)

    def merge(self, other: Dict[str, Dict[str, float]]) -> None:
        """Add a shard worker's totals (see :meth:`_trace_shard_workers`)."""
        for key, mine in (("total_s", self.total_s), ("self_s", self.self_s),
                          ("calls", self.calls), ("counts", self.counts)):
            for name, value in other[key].items():
                mine[name] += value

    # -- output ---------------------------------------------------------

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """One JSON header line, then one ``[name, start_s, end_s, parent,
        flow]`` line per kept span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, kept=len(self.spans),
                                     dropped=self.dropped)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
