"""Driving-cell estimate fusion on the vehicle side.

Keeps the freshest estimate per roadside node (out-of-order datagrams are
dropped by sequence number), discards stale entries, and averages whatever
cells currently report the vehicle — one cell passes through, overlapping
cells are combined by unweighted mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

DEFAULT_STALENESS_TIMEOUT = 0.25  # 5 camera frames at 20 fps


@dataclass(frozen=True)
class PositionEstimate:
    mssp_id: str
    x: float
    y: float
    t_capture: float
    t_received: float
    seq: int

    def __post_init__(self):
        if self.t_received < self.t_capture:
            raise ValueError("t_received precedes t_capture")


class FusionState:
    """Single-owner fusion state; drained once per control step."""

    def __init__(self, staleness_timeout: float = DEFAULT_STALENESS_TIMEOUT):
        if staleness_timeout <= 0:
            raise ValueError("staleness_timeout must be positive")
        self.staleness_timeout = staleness_timeout
        self.latest: dict[str, PositionEstimate] = {}
        self.drops = 0

    def ingest(self, est: PositionEstimate) -> None:
        """Store the estimate unless an equal-or-newer seq is already held."""
        held = self.latest.get(est.mssp_id)
        if held is not None and est.seq <= held.seq:
            self.drops += 1
            return
        self.latest[est.mssp_id] = est

    def fuse(self, now: float) -> Optional[tuple[float, float]]:
        """Mean of all live (non-stale) estimates; None when nothing is live."""
        stale = [k for k, e in self.latest.items()
                 if now - e.t_received > self.staleness_timeout]
        for k in stale:
            del self.latest[k]
        if not self.latest:
            return None
        xs = [e.x for e in self.latest.values()]
        ys = [e.y for e in self.latest.values()]
        return (sum(xs) / len(xs), sum(ys) / len(ys))
