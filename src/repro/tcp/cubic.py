"""TCP Cubic (Ha, Rhee, Xu 2008) — the paper's main TCP comparison point.

Window growth in congestion avoidance follows the cubic function

    W_cubic(t) = C · (t − K)^3 + W_max,     K = ∛(W_max · β_decrease / C)

anchored at the window before the last loss (``W_max``), with the standard
TCP-friendliness lower bound (estimated Reno window) and fast convergence
(W_max is deflated when a loss arrives before the previous W_max was
reached).  Loss response is ×0.7 rather than Reno's ×0.5.  Defaults match
the Linux implementation the paper uses (C = 0.4, β = 0.7).
"""

from __future__ import annotations

from typing import Optional

from .base import TcpSender


class CubicSender(TcpSender):
    """TCP Cubic congestion avoidance on the shared TCP skeleton."""

    name = "cubic"

    def __init__(self, flow_id: int, c: float = 0.4, beta: float = 0.7,
                 fast_convergence: bool = True, hystart: bool = True,
                 **kwargs):
        super().__init__(flow_id, **kwargs)
        if c <= 0:
            raise ValueError("C must be positive")
        if not 0 < beta < 1:
            raise ValueError("beta must be in (0, 1)")
        self.c = c
        self.beta = beta
        self.fast_convergence = fast_convergence
        self.hystart = hystart
        self.w_max: float = 0.0
        self._epoch_start: Optional[float] = None
        self._k: float = 0.0
        self._w_est: float = 0.0  # TCP-friendly (Reno) estimate
        self._ack_count = 0
        self._min_rtt: Optional[float] = None

    def on_rtt_sample(self, rtt: float) -> None:
        """HyStart delay-increase heuristic: leave slow start before the
        queue overflows, as the Linux Cubic the paper runs does."""
        if self._min_rtt is None or rtt < self._min_rtt:
            self._min_rtt = rtt
        if (not self.hystart or self.cwnd >= self.ssthresh
                or self._in_fast_recovery):  # not in slow start
            return
        threshold = self._min_rtt + max(0.004, self._min_rtt / 8.0)
        if rtt > threshold and self.cwnd >= 16:
            self.ssthresh = min(self.ssthresh, self.cwnd)

    # ------------------------------------------------------------------
    def on_loss_event(self) -> None:
        if self.fast_convergence and self.cwnd < self.w_max:
            # Loss arrived before regaining the previous plateau: release
            # bandwidth faster so competing flows converge.
            self.w_max = self.cwnd * (1.0 + self.beta) / 2.0
        else:
            self.w_max = self.cwnd
        self._epoch_start = None

    def ssthresh_on_loss(self) -> float:
        return max(2.0, self.cwnd * self.beta)

    def ca_increment(self, newly_acked: int) -> None:
        if self._epoch_start is None:
            self._begin_epoch()
        t = self.sim.now - self._epoch_start
        rtt = self.srtt if self.srtt is not None else 0.1
        target = self.c * (t + rtt - self._k) ** 3 + self.w_max
        # TCP-friendly region: track the window Reno would have.
        self._ack_count += newly_acked
        self._w_est = (self.w_max * self.beta
                       + 3.0 * (1.0 - self.beta) / (1.0 + self.beta)
                       * self._ack_count / max(self.cwnd, 1.0))
        target = max(target, self._w_est)
        if target > self.cwnd:
            # Spread the move toward the target over roughly one RTT.
            self.cwnd += (target - self.cwnd) / max(self.cwnd, 1.0) * newly_acked
        else:
            # Plateau region: creep forward very slowly.
            self.cwnd += 0.01 * newly_acked / max(self.cwnd, 1.0)

    def _begin_epoch(self) -> None:
        self._epoch_start = self.sim.now
        self._ack_count = 0
        if self.w_max > self.cwnd:
            self._k = ((self.w_max - self.cwnd) / self.c) ** (1.0 / 3.0)
        else:
            self._k = 0.0
            self.w_max = self.cwnd
