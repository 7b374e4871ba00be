"""Delay Estimator — eq. 2 and eq. 3 of the paper.

Collects per-packet round-trip delays reported by acknowledgements within
each ε-epoch, tracks the EWMA-smoothed per-epoch maximum delay

    D_max,i = α · D_max,i−1 + (1 − α) · max(D_i)            (eq. 2)

and exposes the epoch-over-epoch change

    ∆D_i = D_max,i − D_max,i−1                               (eq. 3)

plus the running minimum delay D_min used by the window estimator's ratio
test and by the slow-start exit condition.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional


class DelayEstimator:
    """Tracks smoothed maximum delay per epoch and the minimum delay.

    ``D_min`` is a *windowed* minimum (default 10 s, tracked in one-second
    buckets).  A lifetime minimum would permanently anchor the eq. 4 ratio
    test to conditions a flow saw at start-up: a flow joining a busy queue,
    or sharing a bottleneck with longer-RTT flows, would trip the
    ``D_max/D_min > R`` branch forever and starve.  The sliding window lets
    the floor track the persistent component of the path delay, which is
    what makes Verus's RTT-fairness (Fig 13) and late-joiner behaviour
    (Fig 12) work.
    """

    BUCKET_SECONDS = 1.0

    def __init__(self, alpha: float = 0.7,
                 min_window: Optional[float] = 10.0):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if min_window is not None and min_window <= 0:
            raise ValueError("min_window must be positive or None (lifetime)")
        self.alpha = alpha
        self.min_window = min_window
        self._epoch_delays: List[float] = []
        self.d_max: Optional[float] = None
        self.d_max_prev: Optional[float] = None
        self._min_buckets: "OrderedDict[int, float]" = OrderedDict()
        #: Bucket index the last expiry sweep ran for.  Stale buckets can
        #: only appear when the current bucket advances, so add_sample's
        #: per-ACK sweep is skipped while time stays within one bucket.
        self._expired_for: Optional[int] = None
        #: Cached min over the buckets; ``d_min`` is read on every
        #: slow-start acknowledgement and every epoch, while the bucket
        #: set only changes on a new per-bucket minimum or an expiry.
        self._d_min_cache: Optional[float] = None
        self._d_min_dirty = True
        self._lifetime_min: Optional[float] = None
        self.srtt: Optional[float] = None
        self._srtt_gain = 0.125
        self.samples_seen = 0

    # ------------------------------------------------------------------
    def add_sample(self, delay: float, now: float = 0.0) -> None:
        """Record one acknowledged packet's round-trip delay at ``now``."""
        if delay <= 0:
            raise ValueError(f"delay must be positive (got {delay})")
        self._epoch_delays.append(delay)
        self.samples_seen += 1
        if self.min_window is not None:
            bucket = int(now / self.BUCKET_SECONDS)
            current = self._min_buckets.get(bucket)
            if current is None or delay < current:
                self._min_buckets[bucket] = delay
                self._min_buckets.move_to_end(bucket)
                self._d_min_dirty = True
            if bucket != self._expired_for:
                self._expire_buckets(bucket)
        if self._lifetime_min is None or delay < self._lifetime_min:
            self._lifetime_min = delay
        if self.srtt is None:
            self.srtt = delay
        else:
            self.srtt += self._srtt_gain * (delay - self.srtt)

    def _expire_buckets(self, current_bucket: int) -> None:
        """Drop the buckets older than the window; called once per new
        ``current_bucket``."""
        self._expired_for = current_bucket
        horizon = current_bucket - int(self.min_window / self.BUCKET_SECONDS)
        stale = [b for b in self._min_buckets if b < horizon]
        if stale:
            self._d_min_dirty = True
        for b in stale:
            del self._min_buckets[b]

    @property
    def d_min(self) -> Optional[float]:
        """Windowed minimum delay (falls back to the lifetime minimum when
        windowing is disabled or the window holds no samples, e.g. across
        a long outage)."""
        if self.min_window is not None and self._min_buckets:
            if self._d_min_dirty:
                self._d_min_cache = min(self._min_buckets.values())
                self._d_min_dirty = False
            return self._d_min_cache
        return self._lifetime_min

    @property
    def lifetime_min(self) -> Optional[float]:
        return self._lifetime_min

    def rebase_floor(self, value: float, now: float = 0.0) -> None:
        """Reset the windowed floor to ``value`` (floor re-calibration).

        Used when the current floor has proven unachievable: a flow pinned
        at its minimum window by the eq. 4 ratio test is measuring a path
        whose *persistent* delay exceeds the floor it once saw; keeping
        the stale floor starves it forever.  Only the windowed estimate is
        rebased — the lifetime minimum stays untouched.
        """
        if value <= 0:
            raise ValueError("floor must be positive")
        self._min_buckets.clear()
        self._min_buckets[int(now / self.BUCKET_SECONDS)] = value
        self._d_min_dirty = True

    def end_epoch(self) -> float:
        """Close the current epoch; returns ∆D_i (eq. 3).

        If the epoch saw no acknowledgements the previous smoothed maximum
        carries over unchanged and ∆D is zero — the window estimator's
        ratio test (eq. 4) still applies, so a persistently high D_max keeps
        pushing the set-point down even through feedback gaps.
        """
        if self._epoch_delays:
            epoch_max = max(self._epoch_delays)
            self._epoch_delays.clear()
            if self.d_max is None:
                new_max = epoch_max
            else:
                new_max = self.alpha * self.d_max + (1 - self.alpha) * epoch_max
        else:
            new_max = self.d_max
        self.d_max_prev = self.d_max
        self.d_max = new_max
        if self.d_max is None or self.d_max_prev is None:
            return 0.0
        return self.d_max - self.d_max_prev

    # ------------------------------------------------------------------
    @property
    def have_estimate(self) -> bool:
        return self.d_max is not None and self.d_min is not None

    def max_min_ratio(self) -> float:
        """D_max / D_min, the quantity bounded by R in eq. 4."""
        if not self.have_estimate or self.d_min <= 0:
            return 1.0
        return self.d_max / self.d_min

    def rtt(self, fallback: float = 0.1) -> float:
        """Smoothed network round-trip time estimate."""
        return self.srtt if self.srtt is not None else fallback

    def reset_epoch(self) -> None:
        """Drop samples collected in the current (unfinished) epoch."""
        self._epoch_delays.clear()

    @property
    def pending_samples(self) -> int:
        return len(self._epoch_delays)
