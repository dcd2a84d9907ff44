import numpy as np
import pytest
from dataclasses import replace

from probsense.activation import (
    ActivationConfig,
    average_rate,
    detection_latency,
    run_activation,
)
from probsense.afe import AfeConfig
from probsense.pbit import PNeuronConfig, v_ref_for_min_rate
from probsense.traces import Trace, synth_event, upsample

RATE_HI = 100_000.0
SPT = 50  # high-rate steps per tick: a 2 kHz ADC grid upsampled to RATE_HI


def _cfg(x_min=0.05, source="digital_iid", seed=0, amp_thr=0.05, hold=None, tau=500e-6):
    return ActivationConfig(
        hold_steps=hold,
        pneuron=PNeuronConfig(
            v_ref_v=v_ref_for_min_rate(x_min, 10.0), source=source, seed=seed, tau_s=tau
        ),
        afe=AfeConfig(amp_threshold_v=amp_thr),
    )


def _zero_trace(n_ticks):
    return Trace(np.zeros(n_ticks * 50), RATE_HI)


class TestRunActivation:
    @pytest.mark.parametrize("source", ["digital_iid", "smtj_telegraph"])
    def test_zero_signal_baseline_rate(self, source):
        # no features -> gating fraction equals the minimum rate X
        act = run_activation(_zero_trace(10_000), _cfg(x_min=0.05, source=source), SPT)
        frac = act.gate[act.sync_ticks].mean()
        assert frac == pytest.approx(0.05, abs=0.01)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_override_dominates_any_seed(self, seed):
        # amplitude above threshold everywhere -> every sync tick gated
        x = Trace(np.full(50_000, 2.0), RATE_HI)
        act = run_activation(x, _cfg(amp_thr=0.5, seed=seed), SPT)
        assert np.all(act.gate[act.sync_ticks] == 1)

    @pytest.mark.parametrize("source", ["digital_iid", "smtj_telegraph"])
    def test_saturated_pneuron_gates_every_tick(self, source):
        # v_ref = -5 V at beta = 10 pins p to 1.0 in float
        cfg = ActivationConfig(
            pneuron=PNeuronConfig(v_ref_v=-5.0, source=source),
            afe=AfeConfig(amp_threshold_v=1e9),
        )
        act = run_activation(_zero_trace(2000), cfg, SPT)
        if source == "digital_iid":
            assert np.all(act.gate[act.sync_ticks] == 1)
        else:
            # the saturated telegraph still toggles briefly: with p clamped to
            # 1 - 1e-6 the OFF state lasts one step and the ON dwell is
            # 2 * tau, so the stationary ON fraction is 1/(1 + dt/(2 tau))
            dt = 1.0 / RATE_HI
            expected = 1.0 / (1.0 + dt / (2 * 500e-6))
            assert act.gate[act.sync_ticks].mean() == pytest.approx(expected, abs=0.01)

    def test_gating_subset_of_sync_ticks(self):
        x = upsample(synth_event(0.5, 2000.0, 50.0, 0.25, 1.0, 0.01, seed=3), 50)
        act = run_activation(x, _cfg(), SPT)
        gated_steps = np.flatnonzero(act.gate)
        assert np.all(np.isin(gated_steps, act.sync_ticks))

    def test_gate_composition_invariant(self):
        x = upsample(synth_event(0.5, 2000.0, 50.0, 0.25, 1.0, 0.01, seed=4), 50)
        act = run_activation(x, _cfg(source="smtj_telegraph"), SPT)
        expect = np.zeros(len(act), dtype=np.uint8)
        t = act.sync_ticks
        expect[t] = act.pneuron_out[t] | act.det_override[t]
        assert np.array_equal(act.gate, expect)

    @pytest.mark.parametrize("source", ["digital_iid", "smtj_telegraph"])
    def test_deterministic(self, source):
        x = upsample(synth_event(0.2, 2000.0, 50.0, 0.1, 1.0, 0.02, seed=9), 50)
        a = run_activation(x, _cfg(source=source, seed=5), SPT)
        b = run_activation(x, _cfg(source=source, seed=5), SPT)
        assert np.array_equal(a.gate, b.gate)
        assert np.array_equal(a.pneuron_out, b.pneuron_out)
        assert np.array_equal(a.det_override, b.det_override)

    def test_monotone_drive_monotone_rate(self):
        # two constant drive levels via X: higher p must gate more (3 sigma)
        lo = run_activation(_zero_trace(10_000), _cfg(x_min=0.1, seed=3), SPT)
        hi = run_activation(_zero_trace(10_000), _cfg(x_min=0.3, seed=3), SPT)
        f_lo = lo.gate[lo.sync_ticks].mean()
        f_hi = hi.gate[hi.sync_ticks].mean()
        sigma = np.sqrt(0.3 * 0.7 / 10_000)
        assert f_hi - f_lo > (0.3 - 0.1) - 3 * sigma

    def test_hold_latches_override(self):
        # single above-threshold spike held for hold_steps
        x = np.zeros(5000)
        x[1000] = 1.0
        act = run_activation(Trace(x, RATE_HI), _cfg(amp_thr=0.5, hold=200), SPT)
        det = np.flatnonzero(act.det_override)
        assert det[0] == 1000
        assert det[-1] == 1200
        assert det.size == 201


class TestAverageRate:
    def test_all_gated(self):
        x = Trace(np.full(50_000, 2.0), RATE_HI)
        act = run_activation(x, _cfg(amp_thr=0.5), SPT)
        assert np.all(average_rate(act, 100) == 1.0)

    def test_no_gate(self):
        # p ~ 1e-22 at v_ref = 5 V: digital decisions never fire
        cfg = ActivationConfig(pneuron=PNeuronConfig(v_ref_v=5.0, source="digital_iid"))
        act = run_activation(_zero_trace(1000), cfg, SPT)
        assert np.all(average_rate(act, 100) == 0.0)

    def test_baseline_window_statistics(self):
        act = run_activation(_zero_trace(100_000), _cfg(x_min=0.05, seed=1), SPT)
        w = average_rate(act, 1000)
        assert w.mean() == pytest.approx(0.05, abs=0.01)
        assert w.std() < 0.01

    def test_window_validation(self):
        act = run_activation(_zero_trace(100), _cfg(), SPT)
        with pytest.raises(ValueError):
            average_rate(act, 0)


class TestDetectionLatency:
    def test_immediate_override(self):
        # signal crosses the threshold exactly at a sync tick
        x = np.zeros(10_000)
        x[5000:] = 1.0
        act = run_activation(Trace(x, RATE_HI), _cfg(amp_thr=0.5), SPT)
        assert detection_latency(act, 5000) == 0.0

    def test_delay_steps_shift_latency(self):
        x = np.zeros(10_000)
        x[5000:] = 1.0
        cfg = _cfg(amp_thr=0.5)
        cfg = replace(cfg, afe=replace(cfg.afe, delay_steps=50))
        act = run_activation(Trace(x, RATE_HI), cfg, SPT)
        assert detection_latency(act, 5000) == pytest.approx(50 / RATE_HI)

    def test_flat_signal_no_activation(self):
        cfg = ActivationConfig(pneuron=PNeuronConfig(v_ref_v=5.0, source="digital_iid"))
        act = run_activation(_zero_trace(500), cfg, SPT)
        with pytest.raises(ValueError, match="no activation"):
            detection_latency(act, 100)

    def test_onset_out_of_range(self):
        act = run_activation(_zero_trace(100), _cfg(), SPT)
        with pytest.raises(ValueError, match="out of range"):
            detection_latency(act, 10**7)

    def test_strong_slope_latency_monte_carlo(self):
        # ramp onset at 500 V/s, probabilistic path only: latency within two
        # sync periods in at least 95 % of seeded runs
        n = 30_000
        onset = 20_000
        x = np.zeros(n)
        x[onset:] = 500.0 * np.arange(n - onset) / RATE_HI
        trace = Trace(x, RATE_HI)
        ok = 0
        for seed in range(100):
            act = run_activation(trace, _cfg(x_min=0.05, seed=seed, amp_thr=1e9), SPT)
            try:
                ok += detection_latency(act, onset) <= 2 / 2000.0
            except ValueError:
                pass
        assert ok >= 95


class TestConfigValidation:
    def test_ticks_every_steps_per_tick(self):
        act = run_activation(_zero_trace(100), _cfg(), 10)
        assert np.array_equal(act.sync_ticks, np.arange(0, 5000, 10))
        with pytest.raises(ValueError, match="steps_per_tick"):
            run_activation(_zero_trace(100), _cfg(), 0)

    def test_bad_hold(self):
        with pytest.raises(ValueError):
            ActivationConfig(hold_steps=-1)
