import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from probsense.activation import (
    ActivationConfig,
    ActivationTrace,
    average_rate,
    detection_latency,
    run_activation,
)
from probsense.afe import AfeConfig, drive_voltages, extract_features
from probsense.pbit import (
    PNeuronConfig,
    activation_probability,
    iid_decisions,
    lfsr_from_seed,
    telegraph_run,
    v_ref_for_min_rate,
)
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


def _run_activation_scan(x_high, cfg, steps_per_tick):
    """Reference oracle for `run_activation`: the logistic at every step and
    the override latch as a running maximum of trigger indices."""
    spt = steps_per_tick
    n = len(x_high)
    feats = extract_features(x_high, cfg.afe)
    v_in = drive_voltages(feats, cfg.afe)
    p = activation_probability(v_in, cfg.pneuron)
    ticks = np.arange(0, n, spt, dtype=np.int64)
    pneuron_out = np.zeros(n, dtype=np.uint8)
    if cfg.pneuron.source == "digital_iid":
        decisions, _ = iid_decisions(p[ticks], lfsr_from_seed(cfg.pneuron.seed))
        pneuron_out[ticks] = decisions
    else:
        rng = np.random.default_rng(cfg.pneuron.seed)
        pneuron_out[:] = telegraph_run(p, 1.0 / x_high.rate_hz, cfg.pneuron, rng)
    hold = spt if cfg.hold_steps is None else cfg.hold_steps
    trigger = feats.amplitude >= cfg.afe.amp_threshold_v
    steps = np.arange(n, dtype=np.int64)
    last_trigger = np.maximum.accumulate(np.where(trigger, steps, np.int64(-(n + hold + 1))))
    det_override = (steps - last_trigger <= hold).astype(np.uint8)
    gate = np.zeros(n, dtype=np.uint8)
    gate[ticks] = pneuron_out[ticks] | det_override[ticks]
    return ActivationTrace(gate, ticks, pneuron_out, det_override, x_high.rate_hz,
                           x_high.t0_s, spt)


@st.composite
def _trigger_cases(draw):
    """(x, hold_steps, steps_per_tick): triggers are the steps with |x| >= 0.5."""
    n = draw(st.integers(min_value=6, max_value=400))
    spt = draw(st.integers(min_value=1, max_value=8))
    hold = draw(st.one_of(st.none(), st.just(0), st.integers(min_value=0, max_value=40)))
    h = spt if hold is None else hold
    kind = draw(st.sampled_from(["random", "none", "all", "spaced"]))
    if kind == "random":
        trig = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    elif kind == "none":
        trig = set()
    elif kind == "all":
        trig = set(range(n))
    else:
        # triggers exactly hold, hold + 1 (adjacent intervals) or hold + 2 apart
        step = max(1, h + draw(st.sampled_from([0, 1, 2])))
        trig = set(range(draw(st.integers(min_value=0, max_value=step)), n, step))
    if kind != "none":
        trig |= draw(st.sets(st.sampled_from([0, n - 1])))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = rng.uniform(-0.45, 0.45, n) * draw(st.sampled_from([0.0, 1e-3, 1.0]))
    idx = np.array(sorted(trig), dtype=np.int64)
    x[idx] = rng.choice([-1.0, 1.0], idx.size) * rng.uniform(0.5, 2.0, idx.size)
    return x, hold, spt


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


    @given(
        case=_trigger_cases(),
        source=st.sampled_from(["digital_iid", "smtj_telegraph"]),
        delay=st.one_of(st.just(0), st.integers(min_value=1, max_value=20)),
        window=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=300)
    def test_matches_scan_oracle(self, case, source, delay, window, seed):
        x, hold, spt = case
        cfg = ActivationConfig(
            hold_steps=hold,
            pneuron=PNeuronConfig(source=source, seed=seed),
            afe=AfeConfig(smoothing_steps=window, delay_steps=delay, amp_threshold_v=0.5),
        )
        trace = Trace(x, RATE_HI, 0.25)
        got = run_activation(trace, cfg, spt)
        ref = _run_activation_scan(trace, cfg, spt)
        for name in ("gate", "sync_ticks", "pneuron_out", "det_override"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert (got.rate_hz, got.t0_s, got.steps_per_tick) == (ref.rate_hz, ref.t0_s, spt)

    @pytest.mark.parametrize("source", ["digital_iid", "smtj_telegraph"])
    def test_survey_event_matches_scan_oracle(self, source):
        x = upsample(synth_event(1.0, 2000.0, 50.0, 0.4, 1.0, 0.02, seed=11), 50)
        cfg = replace(_cfg(source=source, seed=8, amp_thr=0.05), hold_steps=1000)
        got, ref = run_activation(x, cfg, SPT), _run_activation_scan(x, cfg, SPT)
        assert ref.det_override.any() and not ref.det_override.all()
        for name in ("gate", "pneuron_out", "det_override"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name


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
