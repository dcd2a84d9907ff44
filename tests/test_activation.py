import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from probsense.activation import (
    ActivationConfig,
    ActivationTrace,
    _override_latch,
    _trigger_steps,
    detection_latency,
    run_activation,
)
from probsense.afe import AfeConfig, extract_features
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


def _cfg(x_min=0.05, source="digital_iid", amp_thr=0.05, hold=SPT, tau=500e-6):
    return ActivationConfig(
        hold_steps=hold,
        pneuron=PNeuronConfig(v_ref_v=v_ref_for_min_rate(x_min, 10.0), source=source, tau_s=tau),
        afe=AfeConfig(amp_threshold_v=amp_thr),
    )


def _zero_trace(n_ticks):
    return Trace(np.zeros(n_ticks * 50), RATE_HI)


def _run_activation_scan(x_high, cfg, steps_per_tick, seed):
    """Reference oracle for `run_activation` at factor 1: the logistic at
    every step, the triggers from |x_high| and the override latch as a
    running maximum of trigger indices."""
    spt = steps_per_tick
    n = len(x_high)
    slope = extract_features(x_high, cfg.afe)
    p = activation_probability(cfg.afe.slope_gain * slope, cfg.pneuron)
    ticks = np.arange(0, n, spt, dtype=np.int64)
    pneuron_out = np.zeros(n, dtype=np.uint8)
    if cfg.pneuron.source == "digital_iid":
        decisions, _ = iid_decisions(p[ticks], lfsr_from_seed(seed))
        pneuron_out[ticks] = decisions
    else:
        rng = np.random.default_rng(seed)
        pneuron_out[:] = telegraph_run(p, 1.0 / x_high.rate_hz, cfg.pneuron, rng)
    hold = cfg.hold_steps
    trigger = np.abs(x_high.samples) >= cfg.afe.amp_threshold_v
    steps = np.arange(n, dtype=np.int64)
    last_trigger = np.maximum.accumulate(np.where(trigger, steps, np.int64(-(n + hold + 1))))
    det_override = (steps - last_trigger <= hold).astype(np.uint8)
    gate = np.zeros(n, dtype=np.uint8)
    gate[ticks] = pneuron_out[ticks] | det_override[ticks]
    return ActivationTrace(gate, ticks, pneuron_out, det_override, x_high.rate_hz, spt)


@st.composite
def _trigger_cases(draw):
    """(x, hold_steps, steps_per_tick): triggers are the steps with |x| >= 0.5."""
    n = draw(st.integers(min_value=6, max_value=400))
    spt = draw(st.integers(min_value=1, max_value=8))
    hold = draw(st.one_of(st.just(0), st.integers(min_value=0, max_value=40)))
    kind = draw(st.sampled_from(["random", "none", "all", "spaced"]))
    if kind == "random":
        trig = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    elif kind == "none":
        trig = set()
    elif kind == "all":
        trig = set(range(n))
    else:
        # triggers exactly hold, hold + 1 (adjacent intervals) or hold + 2 apart
        step = max(1, hold + draw(st.sampled_from([0, 1, 2])))
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
        act = run_activation(_zero_trace(10_000), _cfg(x_min=0.05, source=source), SPT, seed=0)
        frac = act.gate[act.sync_ticks].mean()
        assert frac == pytest.approx(0.05, abs=0.01)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_override_dominates_any_seed(self, seed):
        # amplitude above threshold everywhere -> every sync tick gated
        x = Trace(np.full(50_000, 2.0), RATE_HI)
        act = run_activation(x, _cfg(amp_thr=0.5), SPT, seed)
        assert np.all(act.gate[act.sync_ticks] == 1)

    @pytest.mark.parametrize("source", ["digital_iid", "smtj_telegraph"])
    def test_saturated_pneuron_gates_every_tick(self, source):
        # v_ref = -5 V at beta = 10 pins p to 1.0 in float
        cfg = ActivationConfig(
            pneuron=PNeuronConfig(v_ref_v=-5.0, source=source),
            afe=AfeConfig(amp_threshold_v=1e9),
        )
        act = run_activation(_zero_trace(2000), cfg, SPT, seed=0)
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
        act = run_activation(x, _cfg(), SPT, seed=0)
        gated_steps = np.flatnonzero(act.gate)
        assert np.all(np.isin(gated_steps, act.sync_ticks))

    def test_gate_composition_invariant(self):
        x = upsample(synth_event(0.5, 2000.0, 50.0, 0.25, 1.0, 0.01, seed=4), 50)
        act = run_activation(x, _cfg(source="smtj_telegraph"), SPT, seed=0)
        expect = np.zeros(len(act), dtype=np.uint8)
        t = act.sync_ticks
        expect[t] = act.pneuron_out[t] | act.det_override[t]
        assert np.array_equal(act.gate, expect)

    @pytest.mark.parametrize("source", ["digital_iid", "smtj_telegraph"])
    def test_deterministic(self, source):
        x = upsample(synth_event(0.2, 2000.0, 50.0, 0.1, 1.0, 0.02, seed=9), 50)
        a = run_activation(x, _cfg(source=source), SPT, seed=5)
        b = run_activation(x, _cfg(source=source), SPT, seed=5)
        assert np.array_equal(a.gate, b.gate)
        assert np.array_equal(a.pneuron_out, b.pneuron_out)
        assert np.array_equal(a.det_override, b.det_override)

    def test_monotone_drive_monotone_rate(self):
        # two constant drive levels via X: higher p must gate more (3 sigma)
        lo = run_activation(_zero_trace(10_000), _cfg(x_min=0.1), SPT, seed=3)
        hi = run_activation(_zero_trace(10_000), _cfg(x_min=0.3), SPT, seed=3)
        f_lo = lo.gate[lo.sync_ticks].mean()
        f_hi = hi.gate[hi.sync_ticks].mean()
        sigma = np.sqrt(0.3 * 0.7 / 10_000)
        assert f_hi - f_lo > (0.3 - 0.1) - 3 * sigma

    def test_hold_latches_override(self):
        # single above-threshold spike held for hold_steps
        x = np.zeros(5000)
        x[1000] = 1.0
        act = run_activation(Trace(x, RATE_HI), _cfg(amp_thr=0.5, hold=200), SPT, seed=0)
        det = np.flatnonzero(act.det_override)
        assert det[0] == 1000
        assert det[-1] == 1200
        assert det.size == 201

    @pytest.mark.parametrize("hold", [4999, 5000, 5001, 2**62, 2**63 - 1, 10**20])
    def test_hold_past_the_trace_latches_to_the_end(self, hold):
        x = np.zeros(5000)
        x[[1000, 4000]] = 1.0
        act = run_activation(Trace(x, RATE_HI), _cfg(amp_thr=0.5, hold=hold), SPT, seed=0)
        assert np.flatnonzero(act.det_override).tolist() == list(range(1000, 5000))
        latch = _override_latch(np.array([7, 9], dtype=np.int64), hold, 20)
        assert latch.tolist() == [0] * 7 + [1] * 13


    @given(
        case=_trigger_cases(),
        source=st.sampled_from(["digital_iid", "smtj_telegraph"]),
        window=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=300)
    def test_matches_scan_oracle(self, case, source, window, seed):
        x, hold, spt = case
        cfg = ActivationConfig(
            hold_steps=hold,
            pneuron=PNeuronConfig(source=source),
            afe=AfeConfig(smoothing_steps=window, amp_threshold_v=0.5),
        )
        trace = Trace(x, RATE_HI, 0.25)
        got = run_activation(trace, cfg, spt, seed)
        ref = _run_activation_scan(trace, cfg, spt, seed)
        for name in ("gate", "sync_ticks", "pneuron_out", "det_override"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert (got.rate_hz, got.steps_per_tick) == (ref.rate_hz, spt)

    @pytest.mark.parametrize("source", ["digital_iid", "smtj_telegraph"])
    def test_survey_event_matches_scan_oracle(self, source):
        x = upsample(synth_event(1.0, 2000.0, 50.0, 0.4, 1.0, 0.02, seed=11), 50)
        cfg = _cfg(source=source, amp_thr=0.05, hold=1000)
        got, ref = run_activation(x, cfg, SPT, 8), _run_activation_scan(x, cfg, SPT, 8)
        assert ref.det_override.any() and not ref.det_override.all()
        for name in ("gate", "pneuron_out", "det_override"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name

    @pytest.mark.parametrize("source", ["digital_iid", "smtj_telegraph"])
    @pytest.mark.parametrize("factor", [50, 30, 64])
    def test_adc_trace_matches_upsampled_scan_oracle(self, source, factor):
        # the survey's event path: the ADC trace with its factor, against the
        # scan oracle on the upsampled trace, bit for bit
        trace = synth_event(1.0, 2000.0, 50.0, 0.4, 1.0, 0.02, seed=11)
        cfg = _cfg(source=source, amp_thr=0.05, hold=1000)
        got = run_activation(trace, cfg, factor, seed=8, factor=factor)
        ref = _run_activation_scan(upsample(trace, factor), cfg, factor, 8)
        assert ref.det_override.any() and not ref.det_override.all()
        for name in ("gate", "sync_ticks", "pneuron_out", "det_override"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert (got.rate_hz, got.steps_per_tick, got.factor) == (ref.rate_hz, factor, factor)

    @given(case=_trigger_cases(), factor=st.integers(min_value=1, max_value=9))
    @settings(max_examples=200)
    def test_adc_trace_override_matches_upsampled_scan_oracle(self, case, factor):
        x, hold, spt = case
        cfg = ActivationConfig(hold_steps=hold, pneuron=PNeuronConfig(source="digital_iid"),
                               afe=AfeConfig(smoothing_steps=1, amp_threshold_v=0.5))
        got = run_activation(Trace(x, RATE_HI), cfg, spt, seed=0, factor=factor)
        ref = _run_activation_scan(upsample(Trace(x, RATE_HI), factor), cfg, spt, 0)
        assert got.det_override.tobytes() == ref.det_override.tobytes()


# Sample values at and around the threshold, signed zeros, and values that
# can never trigger, for the trigger oracle.
THR = 0.5
_trigger_values = st.one_of(
    st.sampled_from([THR, -THR, np.nextafter(THR, 0.0), -np.nextafter(THR, 0.0), 0.0, -0.0,
                     2 * THR, -2 * THR]),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)


class TestTriggerSteps:
    @given(st.lists(_trigger_values, min_size=1, max_size=60),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=300)
    def test_matches_upsampled_trace(self, values, factor):
        x = Trace(np.array(values), 2000.0)
        ref = np.flatnonzero(np.abs(upsample(x, factor).samples) >= THR)
        got = _trigger_steps(x, THR, factor)
        assert got.dtype == np.int64 and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("factor", [1, 7, 50])
    @pytest.mark.parametrize("hits", [{0: THR}, {1: -THR}, {-2: THR}, {-1: -THR},
                                      {0: -THR, -1: THR}, {3: THR, 9: -THR}])
    def test_triggers_in_the_first_and_last_segments(self, factor, hits):
        # samples exactly at +thr and -thr, on either end of the trace
        s = np.full(12, -0.0)
        for i, v in hits.items():
            s[i] = v
        x = Trace(s, 2000.0)
        ref = np.flatnonzero(np.abs(upsample(x, factor).samples) >= THR)
        assert ref.size
        assert _trigger_steps(x, THR, factor).tobytes() == ref.tobytes()

    def test_quiet_trace_upsamples_nothing(self, monkeypatch):
        import probsense.activation as activation_mod

        monkeypatch.setattr(activation_mod, "upsample", None)
        x = Trace(np.array([np.nextafter(THR, 0.0), -np.nextafter(THR, 0.0), -0.0]), 2000.0)
        assert _trigger_steps(x, THR, 50).size == 0


def _override_latch_cumsum(trigger_steps, hold, n):
    """Reference oracle for `_override_latch`: +1 at each merged interval's
    start, -1 past its end, and their running sum."""
    hold = min(hold, n)
    edge = np.zeros(n, dtype=np.int8)
    if trigger_steps.size:
        gap = np.diff(trigger_steps) > hold + 1
        edge[trigger_steps[np.concatenate(([True], gap))]] = 1
        ends = trigger_steps[np.concatenate((gap, [True]))] + hold + 1
        edge[ends[ends < n]] = -1
    return np.cumsum(edge, dtype=np.int8, out=edge).view(np.uint8)


@pytest.mark.parametrize("hold", [0, 1, 50, 1000, 10**6, 2**63 - 1])
@pytest.mark.parametrize("kind", ["none", "sparse", "dense", "ends"])
def test_override_latch_matches_cumsum_oracle(hold, kind):
    n = 100_000
    rng = np.random.default_rng(hold % 1000)
    trig = {"none": np.zeros(0, dtype=np.int64),
            "sparse": np.sort(rng.choice(n, 20, replace=False)),
            "dense": np.flatnonzero(rng.random(n) < 0.3),
            "ends": np.array([0, 1, n - 2, n - 1])}[kind].astype(np.int64)
    got = _override_latch(trig, hold, n)
    ref = _override_latch_cumsum(trig, hold, n)
    assert got.dtype == np.uint8 and got.tobytes() == ref.tobytes()


def _window_rates(x_high, cfg, seed=0, window_ticks=100):
    """The gated fraction of each whole window of window_ticks sync ticks."""
    act = run_activation(x_high, cfg, SPT, seed)
    gated = act.gate[act.sync_ticks] > 0
    n_win = gated.size // window_ticks
    return gated[:n_win * window_ticks].reshape(n_win, window_ticks).mean(axis=1)


class TestAverageRate:
    def test_all_gated(self):
        x = Trace(np.full(50_000, 2.0), RATE_HI)
        w = _window_rates(x, _cfg(amp_thr=0.5))
        assert w.size == 10 and np.all(w == 1.0)

    def test_no_gate(self):
        # p ~ 1e-22 at v_ref = 5 V: digital decisions never fire
        cfg = ActivationConfig(pneuron=PNeuronConfig(v_ref_v=5.0, source="digital_iid"))
        w = _window_rates(_zero_trace(1000), cfg)
        assert w.size == 10 and np.all(w == 0.0)

    def test_baseline_window_statistics(self):
        w = _window_rates(_zero_trace(100_000), _cfg(x_min=0.05), seed=1, window_ticks=1000)
        assert w.size == 100
        assert w.mean() == pytest.approx(0.05, abs=0.01)
        assert w.std() < 0.01


class TestDetectionLatency:
    def test_immediate_override(self):
        # signal crosses the threshold exactly at a sync tick
        x = np.zeros(10_000)
        x[5000:] = 1.0
        act = run_activation(Trace(x, RATE_HI), _cfg(amp_thr=0.5), SPT, seed=0)
        assert detection_latency(act, 5000) == 0.0

    def test_flat_signal_no_activation(self):
        cfg = ActivationConfig(pneuron=PNeuronConfig(v_ref_v=5.0, source="digital_iid"))
        act = run_activation(_zero_trace(500), cfg, SPT, seed=0)
        with pytest.raises(ValueError, match="no activation"):
            detection_latency(act, 100)

    def test_onset_out_of_range(self):
        act = run_activation(_zero_trace(100), _cfg(), SPT, seed=0)
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
            act = run_activation(trace, _cfg(x_min=0.05, amp_thr=1e9), SPT, seed)
            try:
                ok += detection_latency(act, onset) <= 2 / 2000.0
            except ValueError:
                pass
        assert ok >= 95


class TestConfigValidation:
    def test_ticks_every_steps_per_tick(self):
        act = run_activation(_zero_trace(100), _cfg(), 10, seed=0)
        assert np.array_equal(act.sync_ticks, np.arange(0, 5000, 10))
        with pytest.raises(ValueError, match="steps_per_tick"):
            run_activation(_zero_trace(100), _cfg(), 0, seed=0)

    def test_bad_hold(self):
        with pytest.raises(ValueError):
            ActivationConfig(hold_steps=-1)
