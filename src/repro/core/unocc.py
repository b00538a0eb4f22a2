"""UnoCC: the paper's unified congestion control (Algorithm 1).

Three congestion states drive three mechanisms:

1. **Uncongested** — per-ACK additive increase:
   ``cwnd += alpha * bytes_acked / cwnd`` with ``alpha = 0.001 * BDP``,
   i.e. one alpha per RTT at steady state.
2. **Congested** — per-epoch multiplicative decrease:
   ``cwnd *= 1 - MD_ECN * MD_scale`` where
   ``MD_ECN = E * 4K / (K + BDP)`` (E = EWMA of the per-epoch ECN-marked
   fraction, K = intra-DC BDP / 7). When the marking came from phantom
   queues only — ECN set but the relative delay shows empty physical
   queues — the reduction is gentled by ``MD_scale *= 0.3``; physical
   congestion resets ``MD_scale = 1``.
3. **Extremely congested** — Quick Adapt: once per RTT, if the bytes
   ACKed over the window are below ``beta * cwnd``, snap the window down
   to exactly the bytes that did get through, then skip one RTT of
   QA/MD so the correction isn't compounded.

The unified-granularity mechanism: the epoch period is proportional to
the **intra-DC** RTT for *all* flows, so inter-DC flows respond to
congestion as often as intra-DC ones (the whole point of section 4.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import EventHandle
from repro.sim.packet import Packet
from repro.transport.base import CongestionControl, Sender
from repro.transport.epochs import EpochTracker


@dataclass(frozen=True)
class UnoCCConfig:
    alpha_frac_of_bdp: float = 0.001      # AI factor (fraction of flow BDP)
    beta: float = 0.5                     # QA trigger ratio
    k_bytes: float = 0.0                  # MD constant; must be set (> 0)
    epoch_period_ps: int = 14_000_000     # proportional to intra-DC RTT
    md_gentle_scale: float = 0.3          # MD_scale multiplier for phantom-only
    md_scale_floor: float = 0.3**3        # gentleness floor: MD never fully off
    ewma_g: float = 1.0 / 16.0            # gain for E (ECN fraction EWMA)
    delay_zero_thresh_ps: int = 0         # 0 = auto (4 MTU serializations)
    init_cwnd_pkts: int = 10              # floor on the initial window
    init_cwnd_frac_of_bdp: float = 0.0    # optional BDP-proportional start
    qa_min_cwnd_pkts: int = 8             # QA only judges multi-packet windows
    use_slow_start: bool = True           # double per RTT until first signal
    max_cwnd_frac_of_bdp: float = 2.0     # window cap (BDP + queue headroom)
    max_md: float = 0.5                   # clamp on a single MD step
    use_pacing: bool = True

    def __post_init__(self) -> None:
        if self.alpha_frac_of_bdp <= 0:
            raise ValueError("alpha fraction must be positive")
        if not (0 < self.beta <= 1):
            raise ValueError("beta must be in (0, 1]")
        if self.k_bytes <= 0:
            raise ValueError("k_bytes must be set to a positive value")
        if self.epoch_period_ps <= 0:
            raise ValueError("epoch period must be positive")
        if not (0 < self.md_gentle_scale <= 1):
            raise ValueError("md_gentle_scale must be in (0, 1]")


class UnoCC(CongestionControl):
    """The paper's Algorithm 1 congestion controller (see module docstring)."""

    # Slotted so the compiled hot path (repro.sim.fastpath) reads and
    # writes these fields at fixed member offsets.
    __slots__ = (
        "config", "ecn_ewma", "md_scale", "_tracker", "_alpha_bytes",
        "_delay_thresh_ps", "_qa_handle", "_qa_bytes_start", "_qa_started",
        "_skip_until_ps", "_slow_start", "_max_cwnd", "qa_triggers",
        "md_events", "gentle_md_events",
    )

    def __init__(self, config: UnoCCConfig):
        self.config = config
        self.ecn_ewma = 0.0        # E in the paper
        self.md_scale = 1.0
        self._tracker = EpochTracker(period_ps=config.epoch_period_ps)
        self._alpha_bytes = 0.0
        self._delay_thresh_ps = config.delay_zero_thresh_ps
        # Quick Adapt state.
        self._qa_handle: Optional[EventHandle] = None
        self._qa_bytes_start = 0
        self._qa_started = False
        self._skip_until_ps = -1
        self._slow_start = False
        self._max_cwnd = float("inf")
        self.qa_triggers = 0
        self.md_events = 0
        self.gentle_md_events = 0

    # ------------------------------------------------------------------

    def on_init(self, sender: Sender) -> None:
        cfg = self.config
        sender.cwnd = float(
            max(
                cfg.init_cwnd_pkts * sender.mss,
                cfg.init_cwnd_frac_of_bdp * sender.bdp_bytes,
            )
        )
        self._slow_start = cfg.use_slow_start
        self._max_cwnd = cfg.max_cwnd_frac_of_bdp * sender.bdp_bytes
        self._alpha_bytes = cfg.alpha_frac_of_bdp * sender.bdp_bytes
        if self._delay_thresh_ps <= 0:
            # "delay == 0": less than ~4 packets' worth of physical
            # queuing. The threshold must sit *below* the standing queue a
            # frozen gentle-MD regime would sustain, so that real physical
            # buildup reliably resets MD_scale to 1 — this is the
            # self-regulating loop of Algorithm 1 (gentle while phantom-
            # only, full strength as soon as physical queues form).
            # Serialization time of 4 MSS at line rate. Divide in float:
            # integer-truncating a sub-1 Gbps line rate (wire-path rate
            # caps) would divide by zero.
            self._delay_thresh_ps = int(4 * sender.mss * 8000 / sender.line_gbps)
        self._qa_bytes_start = 0
        self._qa_started = False  # QA windows begin with the first ACK
        if cfg.use_pacing:
            sender.pacing_rate_gbps = sender.line_gbps

    def on_done(self, sender: Sender) -> None:
        if self._qa_handle is not None:
            self._qa_handle.cancel()
            self._qa_handle = None

    # -- AIMD ------------------------------------------------------------

    def on_ack(self, sender: Sender, pkt: Packet, rtt_ps: int, ecn: bool) -> None:
        cfg = self.config
        if not self._qa_started:
            # First feedback from the network: start the QA cadence now so
            # the first window is not judged before any ACK could arrive.
            self._qa_started = True
            self._qa_bytes_start = sender.stats.bytes_acked
            self._schedule_qa(sender)
        if self._slow_start:
            # Exit on *persistent* marking (an epoch with a majority of
            # marked ACKs — handled in _on_epoch) rather than the first
            # marked packet: with phantom queues a flow sharing a loaded
            # bottleneck sees sporadic marks from its very first RTT, and
            # a single-mark exit strands slow (inter-DC) flows at tiny
            # windows that additive increase takes seconds to grow.
            if not ecn:
                sender.cwnd += pkt.payload  # double per RTT
                if sender.cwnd >= self._max_cwnd:
                    sender.cwnd = self._max_cwnd
                    self._slow_start = False
        elif not ecn:
            sender.cwnd += self._alpha_bytes * pkt.payload / sender.cwnd
        if sender.cwnd > self._max_cwnd:
            sender.cwnd = self._max_cwnd
        rel_delay = max(0, rtt_ps - (sender.min_rtt_ps or sender.base_rtt_ps))
        summary = self._tracker.on_ack(
            sender.sim.now, pkt.echo_sent_ps, ecn, rel_delay
        )
        if summary is not None:
            self._on_epoch(sender, summary)
        if cfg.use_pacing:
            sender.pacing_rate_gbps = min(
                sender.line_gbps, sender.rate_estimate_gbps
            )

    def _on_epoch(self, sender: Sender, summary) -> None:
        cfg = self.config
        g = cfg.ewma_g
        frac = summary.ecn_fraction
        self.ecn_ewma = (1 - g) * self.ecn_ewma + g * frac
        obs = sender.sim.obs
        if obs is not None:
            obs.metrics.counter("unocc.epochs").inc()
            ev = obs.events
            if ev is not None and ev.wants("epoch"):
                ev.emit("epoch", "summary", t=sender.sim.now,
                        flow=sender.flow_id, ecn_frac=frac,
                        ecn_ewma=self.ecn_ewma, md_scale=self.md_scale,
                        cwnd=sender.cwnd)
        if self._slow_start:
            if frac >= 0.5:
                self._slow_start = False  # persistent congestion: exit SS
            else:
                return  # keep ramping; no MD during slow start
        if frac <= 0:
            return
        if sender.sim.now <= self._skip_until_ps:
            return  # QA just fired; let the network settle one RTT
        if summary.max_rel_delay_ps <= self._delay_thresh_ps:
            # Phantom queues congested, physical queues empty: be gentle —
            # but never *zero*: without a floor, consecutive phantom-only
            # epochs drive MD_scale to 0 and the control loop freezes
            # (no MD, and with full marking no AI either).
            self.md_scale = max(
                cfg.md_scale_floor, self.md_scale * cfg.md_gentle_scale
            )
            self.gentle_md_events += 1
            if obs is not None:
                obs.metrics.counter("unocc.gentle_md_events").inc()
        else:
            self.md_scale = 1.0
        k = cfg.k_bytes
        md_ecn = self.ecn_ewma * (4 * k / (k + sender.bdp_bytes))
        md = min(cfg.max_md, md_ecn * self.md_scale)
        sender.cwnd *= 1 - md
        if sender.cwnd < sender.mss:
            sender.cwnd = float(sender.mss)
        self.md_events += 1
        if obs is not None:
            obs.metrics.counter("unocc.md_events").inc()

    # -- Quick Adapt ------------------------------------------------------

    def _schedule_qa(self, sender: Sender) -> None:
        # 1.5x the RTT estimate: the QA window must contain at least one
        # full round of ACKs even when queuing inflates the true RTT past
        # the smoothed estimate, or healthy flows read as collapsed.
        interval = (3 * max(int(sender.srtt_ps), sender.base_rtt_ps)) // 2
        self._qa_handle = sender.sim.after(interval, self._qa_check, sender)

    def _qa_check(self, sender: Sender) -> None:
        self._qa_handle = None
        if sender.done:
            return
        cfg = self.config
        acked_now = sender.stats.bytes_acked
        acked_in_window = acked_now - self._qa_bytes_start
        self._qa_bytes_start = acked_now
        now = sender.sim.now
        # QA engages once slow start has ended; during the exponential
        # ramp the per-window acked bytes sit exactly at the beta boundary
        # and any overshoot is caught by the ECN exit instead.
        # Windows of only a few packets cannot be judged by per-interval
        # ACK counts — an interval that happens to contain no ACK would
        # read as "extreme congestion" and pin the flow at one MSS.
        if (
            not self._slow_start
            and now > self._skip_until_ps
            and sender.inflight_bytes > 0
            and sender.cwnd >= cfg.qa_min_cwnd_pkts * sender.mss
        ):
            if acked_in_window < sender.cwnd * cfg.beta:
                sender.cwnd = float(max(sender.mss, acked_in_window))
                self._skip_until_ps = now + max(
                    int(sender.srtt_ps), sender.base_rtt_ps
                )
                self.qa_triggers += 1
                obs = sender.sim.obs
                if obs is not None:
                    obs.metrics.counter("unocc.qa_triggers").inc()
                    ev = obs.events
                    if ev is not None and ev.wants("cwnd"):
                        ev.emit("cwnd", "quick_adapt", t=now,
                                flow=sender.flow_id, new=sender.cwnd)
                if cfg.use_pacing:
                    sender.pacing_rate_gbps = min(
                        sender.line_gbps, sender.rate_estimate_gbps
                    )
        self._schedule_qa(sender)

    def on_timeout(self, sender: Sender) -> None:
        # Timeouts indicate severe loss; treat like an extreme QA event.
        self._slow_start = False
        sender.cwnd = float(sender.mss)
        self._skip_until_ps = sender.sim.now + max(
            int(sender.srtt_ps), sender.base_rtt_ps
        )
