#!/usr/bin/env python3
"""Telegraph retention-time statistics and sampling-correlation regimes.

Shows that the estimated mean dwell tracks the configured retention time and
that per-tick sampling decisions decorrelate once the retention time drops
below the sync period.
"""

import numpy as np

from probsense.pbit import PNeuronConfig, estimate_retention, telegraph_run, telegraph_tick_states

SYNC_HZ = 2000.0

print("dwell statistics at p = 0.5:")
for tau_us in (100.0, 500.0, 2000.0):
    cfg = PNeuronConfig(tau_s=tau_us * 1e-6)
    dt = cfg.tau_s / 50
    states = telegraph_run(np.full(2_000_000, 0.5), dt, cfg, np.random.default_rng(1))
    est = estimate_retention(states, dt)
    print(f"  tau = {tau_us:7.1f} us -> estimated {est * 1e6:7.1f} us")

print("\nlag-1 autocorrelation of per-tick decisions (p = 0.5, 2 kHz sync):")
t_sync = 1.0 / SYNC_HZ
for mult in (10.0, 1.0, 0.1):
    tau = mult * t_sync
    cfg = PNeuronConfig(tau_s=tau)
    # the telegraph's law is exact at any step, so one step per tick will do
    states = telegraph_tick_states(
        0.5, t_sync, cfg, steps_per_tick=1, n_ticks=100_000, rng=np.random.default_rng(2),
    ).astype(float)
    rho = np.corrcoef(states[:-1], states[1:])[0, 1]
    theory = np.exp(-2.0 * t_sync / tau)
    print(f"  tau = {mult:5.1f} x sync period -> rho1 = {rho:+.4f} (theory {theory:.4f})")
