"""Compound TCP (Tan, Song, Zhang, Sridharan — INFOCOM 2006).

Cited by the paper (§2, [29]) as one of the two stacks "most current
operating systems leverage" (it shipped in Windows).  Compound maintains
two components::

    window = loss_window + delay_window

The loss window follows Reno AIMD; the delay window grows like a
scalable/HSTCP term while the estimated queue backlog

    diff = cwnd · (RTT − baseRTT) / RTT

stays below a threshold γ, and collapses by ζ·diff once backlog forms —
so Compound is fast on empty pipes but regresses to Reno under queueing.
Parameters follow the paper's defaults: α=0.125, β=0.5, k=0.75, γ=30.
"""

from __future__ import annotations

from typing import Optional

from .base import TcpSender


class CompoundSender(TcpSender):
    """Compound TCP: Reno loss window plus a scalable delay window."""

    name = "compound"

    def __init__(self, flow_id: int, alpha: float = 0.125, beta: float = 0.5,
                 k: float = 0.75, gamma: float = 30.0, zeta: float = 1.0,
                 **kwargs):
        super().__init__(flow_id, **kwargs)
        if not 0 < alpha:
            raise ValueError("alpha must be positive")
        if not 0 < beta < 1:
            raise ValueError("beta must be in (0, 1)")
        if not 0 < k < 1:
            raise ValueError("k must be in (0, 1)")
        self.alpha = alpha
        self.beta = beta
        self.k = k
        self.gamma = gamma
        self.zeta = zeta
        self.dwnd = 0.0                 # delay window component
        self.base_rtt: Optional[float] = None
        self._min_rtt_round: Optional[float] = None
        self._round_end = 0

    # ------------------------------------------------------------------
    def on_rtt_sample(self, rtt: float) -> None:
        if self.base_rtt is None or rtt < self.base_rtt:
            self.base_rtt = rtt
        if self._min_rtt_round is None or rtt < self._min_rtt_round:
            self._min_rtt_round = rtt

    def _diff(self) -> Optional[float]:
        rtt = self._min_rtt_round
        if rtt is None or self.base_rtt is None or rtt <= 0:
            return None
        return (self.cwnd + self.dwnd) * (rtt - self.base_rtt) / rtt

    def _total_window(self) -> float:
        return self.cwnd + self.dwnd

    def _fill_window(self) -> None:
        # Sending is governed by the compound window, not cwnd alone.
        limit = min(self.snd_una + int(self._total_window()), self._data_end)
        while self.running and self.snd_nxt < limit:
            self._transmit(self.snd_nxt, retransmission=False)
            self.snd_nxt += 1
            limit = min(self.snd_una + int(self._total_window()),
                        self._data_end)

    # ------------------------------------------------------------------
    def ca_increment(self, newly_acked: int) -> None:
        # Loss component: Reno additive increase on the compound window.
        self.cwnd += newly_acked / max(self._total_window(), 1.0)
        # Delay component: once per RTT round.
        if self.snd_una < self._round_end:
            return
        self._round_end = self.snd_nxt
        diff = self._diff()
        self._min_rtt_round = None
        if diff is None:
            return
        win = self._total_window()
        if diff < self.gamma:
            # Scalable growth: α·win^k, minus the loss window's own +1.
            increment = max(0.0, self.alpha * (win ** self.k) - 1.0)
            self.dwnd += increment
        else:
            self.dwnd = max(0.0, self.dwnd - self.zeta * diff)

    def ssthresh_on_loss(self) -> float:
        return max(2.0, self._total_window() * (1.0 - self.beta))

    def on_loss_event(self) -> None:
        # The delay window also multiplies down on loss.
        self.dwnd = max(0.0, self.dwnd * (1.0 - self.beta))
