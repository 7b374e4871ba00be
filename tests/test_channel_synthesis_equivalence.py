"""Trace synthesis is pinned, array for array, to its reference loop.

``CellularChannelModel.generate`` runs the OU slow-fading recurrence on
Python floats and draws the burst jitter as ``half_tti * random()``.
Both are exact rewrites: the reference below is the straightforward
loop they replaced (the OU path stepped on a numpy array, the jitter
drawn with ``uniform(0, half_tti)``), and every scenario, technology,
rate and seed in the grid must give the same array.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cellular import SCENARIO_NAMES, generate_scenario_trace
from repro.cellular.channel_model import TTI_SECONDS, CellularChannelModel
from repro.cellular.scenarios import scenario_params

TECHNOLOGIES = ("3g", "lte")
#: ``None`` is the technology's default rate.
RATES_BPS = (None, 2e6, 12e6)
SEEDS = range(12)
DURATION = 1.0


def reference_trace(model: CellularChannelModel, duration: float) -> np.ndarray:
    """The straightforward synthesis loop (no competitors)."""
    p = model.params
    rng = model.rng
    n_ttis = int(math.ceil(duration / TTI_SECONDS))

    theta, sigma = p.fading_theta, p.fading_sigma
    log_fade = np.empty(n_ttis)
    log_fade[0] = rng.normal(0.0, sigma / math.sqrt(max(2 * theta, 1e-9)))
    sq = sigma * math.sqrt(TTI_SECONDS)
    noise = (rng.normal(0.0, 1.0, size=n_ttis - 1) if n_ttis > 1
             else np.empty(0))
    for i in range(1, n_ttis):
        log_fade[i] = (log_fade[i - 1] - theta * log_fade[i - 1] * TTI_SECONDS
                       + sq * noise[i - 1])

    in_outage = np.zeros(n_ttis, dtype=bool)
    if p.outage_rate > 0:
        for _ in range(rng.poisson(p.outage_rate * duration)):
            start = rng.uniform(0.0, duration)
            length = rng.exponential(p.outage_duration)
            i0 = int(start / TTI_SECONDS)
            i1 = min(n_ttis, int((start + length) / TTI_SECONDS) + 1)
            in_outage[i0:i1] = True

    mean_on_run = 1.5 if p.technology == "lte" else 3.0
    q_off = 1.0 / mean_on_run
    q_on = min(1.0, q_off * p.serve_prob / max(1e-9, 1.0 - p.serve_prob))
    serialize_dt = p.packet_bytes * 8.0 / p.peak_rate_bps
    ou_var = (sigma ** 2 / (2.0 * theta) if theta > 0 else sigma ** 2)
    fade_correction = math.exp(0.5 * (ou_var + p.fast_fading_sigma ** 2))
    times = []
    on = rng.random() < p.serve_prob
    for i in range(n_ttis):
        if in_outage[i]:
            on = False
            continue
        if on:
            if rng.random() < q_off:
                on = False
        elif rng.random() < q_on:
            on = True
        if not on:
            continue
        t = i * TTI_SECONDS
        fade = (math.exp(log_fade[i])
                * math.exp(rng.normal(0.0, p.fast_fading_sigma))
                / fade_correction)
        mean_burst = p.mean_burst_packets * fade
        if mean_burst <= 0:
            continue
        mu = math.log(mean_burst) - 0.5 * p.burst_sigma * p.burst_sigma
        value = rng.lognormal(mu, p.burst_sigma)
        base = int(value)
        k = base + (1 if rng.random() < value - base else 0)
        if k <= 0:
            continue
        start = t + rng.uniform(0.0, TTI_SECONDS * 0.5)
        for j in range(k):
            ts = start + j * serialize_dt
            if ts < duration:
                times.append(ts)
    arr = np.asarray(sorted(times), dtype=float)
    if arr.size == 0:
        arr = np.array([duration / 2.0])
    return arr


@pytest.mark.parametrize("technology", TECHNOLOGIES)
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_generate_equals_reference_loop(scenario, technology):
    compared = 0
    for rate in RATES_BPS:
        for seed in SEEDS:
            got = generate_scenario_trace(scenario, duration=DURATION,
                                          technology=technology,
                                          mean_rate_bps=rate, seed=seed)
            params = scenario_params(scenario, technology=technology,
                                     mean_rate_bps=rate)
            want = reference_trace(
                CellularChannelModel(params, rng=np.random.default_rng(seed)),
                DURATION)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (scenario, technology, rate,
                                               seed)
            compared += 1
    assert compared == len(RATES_BPS) * len(SEEDS)


def test_grid_covers_at_least_500_traces():
    assert (len(SCENARIO_NAMES) * len(TECHNOLOGIES) * len(RATES_BPS)
            * len(SEEDS)) >= 500
