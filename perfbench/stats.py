"""Pure metric arithmetic shared by the benchmark runner and its tests.

Nothing here imports the simulator: every function takes plain flow
records so the rules that turn a run into numbers can be tested without
running anything. A flow record is a dict with ``flow_id``,
``size_bytes``, ``done`` and ``aborted`` (the sender's terminal state),
``fct`` and ``slowdown`` (None unless the flow completed; ``fct`` is in
the workload's clock unit, simulated ps or wall-clock ms),
``retransmissions``, ``timeouts``, ``bytes_acked``, ``data_pkts_sent``
and ``parity_pkts_sent``.
"""

from __future__ import annotations

import hashlib
import math
import re
from typing import Dict, Iterable, List, Optional, Sequence

#: Candidate percentiles for the tail figure, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_NAME = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` sorted samples rank strictly above ``pct``."""
    return n - math.ceil(n * pct / 100.0)


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least :data:`MIN_BEYOND`
    samples beyond it, or None when even the median has fewer."""
    best = None
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median and tail of ``values`` with the tail's percentile and the
    sample count it rests on. Raises when too few samples for a tail."""
    n = len(values)
    pct = tail_percentile(n)
    if pct is None:
        raise ValueError(
            f"{n} samples: need {2 * MIN_BEYOND} for a tail percentile"
        )
    return {
        "p50": percentile(values, 50.0),
        "tail": percentile(values, pct),
        "tail_pct": pct,
        "count": n,
    }


def completed(flows: Iterable[dict]) -> List[dict]:
    """Flows that finished. Unfinished and aborted flows never reach the
    FCT statistics; :func:`failed_count` counts them instead."""
    return [f for f in flows if f["done"] and not f["aborted"]]


def failed_count(flows: Sequence[dict]) -> int:
    """Flows attempted but not completed: unfinished at the horizon or
    deadline, or aborted."""
    return len(flows) - len(completed(flows))


def payload_bytes(flows: Iterable[dict]) -> int:
    """Application payload of completed flows. Headers, EC parity and
    retransmitted copies are excluded by construction: only each
    completed flow's own message size counts."""
    return sum(f["size_bytes"] for f in completed(flows))


def goodput_mbps(flows: Sequence[dict], wall_s: float) -> float:
    """Mbit of completed payload per wall-clock second."""
    if wall_s <= 0:
        raise ValueError(f"non-positive run time {wall_s}")
    return payload_bytes(flows) * 8 / 1e6 / wall_s


def cpu_s_per_gb(cpu_s: float, flows: Sequence[dict]) -> float:
    """Host CPU seconds per GB (1e9 bytes) of completed payload."""
    payload = payload_bytes(flows)
    if payload <= 0:
        raise ValueError("no completed payload")
    return cpu_s / (payload / 1e9)


def flow_digest(flows: Iterable[dict], keys: Sequence[str],
                extra: Sequence[object] = ()) -> str:
    """Order-independent SHA-256 over the named fields of every flow,
    plus ``extra`` values (the engine's event count)."""
    h = hashlib.sha256()
    for row in sorted(tuple(f[k] for k in keys) for f in flows):
        h.update(repr(row).encode())
    h.update(repr(tuple(extra)).encode())
    return h.hexdigest()


def check_metrics(metrics: Dict[str, dict]) -> None:
    """Raise unless every metric has a well-formed name, a unit and a
    finite numeric value."""
    for name, entry in metrics.items():
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        unit = entry.get("unit")
        if not isinstance(unit, str) or not UNIT_NAME.fullmatch(unit):
            raise ValueError(f"metric {name!r} has bad unit {unit!r}")
        value = entry.get("value")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ValueError(f"metric {name!r} has bad value {value!r}")
