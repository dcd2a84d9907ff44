import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from probsense.activation import (
    ActivationConfig,
    _hold_steps,
    _trigger_steps,
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
RATE_ADC = RATE_HI / SPT


def _cfg(x_min=0.05, source="digital_iid", amp_thr=0.05, hold=SPT, tau=500e-6):
    """hold is in steps at RATE_HI."""
    return ActivationConfig(
        hold_s=hold / RATE_HI,
        pneuron=PNeuronConfig(v_ref_v=v_ref_for_min_rate(x_min, 10.0), source=source, tau_s=tau),
        afe=AfeConfig(amp_threshold_v=amp_thr),
    )


def _zero_trace(n_ticks):
    """n_ticks flat samples on the ADC grid, run at factor SPT."""
    return Trace(np.zeros(n_ticks), RATE_ADC)


def _run_activation_scan(x_high, cfg, factor, seed):
    """Reference oracle for `run_activation` on every step of a high-rate
    trace, with ticks every factor-th step: the slope of every step from its
    own difference, the logistic at every step, the triggers from |x_high|
    and the override latch as a running maximum of trigger indices at every
    step. The digital source decides at the ticks only; the telegraph runs
    on every step. Returns (gate, pneuron_out, det_override), one entry per
    step. Read at the ticks of `upsample(x, factor)`, they agree with
    `run_activation(x, ..., factor=factor)` up to the rounding of the
    upsampled steps."""
    n = len(x_high)
    hold = _hold_steps(cfg, x_high.rate_hz, n)
    slope = np.concatenate([[0.0], np.abs(np.diff(x_high.samples)) * x_high.rate_hz])
    p = activation_probability(cfg.afe.slope_gain * slope, cfg.pneuron)
    if cfg.pneuron.source == "digital_iid":
        ticks = np.arange(0, n, factor, dtype=np.int64)
        decisions, _ = iid_decisions(p[ticks], lfsr_from_seed(seed))
        pneuron_out = np.zeros(n, dtype=np.uint8)
        pneuron_out[ticks] = decisions
    else:
        rng = np.random.default_rng(seed)
        pneuron_out = telegraph_run(p, 1.0 / x_high.rate_hz, cfg.pneuron, rng)
    trigger = np.abs(x_high.samples) >= cfg.afe.amp_threshold_v
    steps = np.arange(n, dtype=np.int64)
    last_trigger = np.maximum.accumulate(np.where(trigger, steps, np.int64(-(n + hold + 1))))
    latch = (steps - last_trigger <= hold).astype(np.uint8)
    return pneuron_out | latch, pneuron_out, latch


def _assert_matches_scan(got, ref, factor):
    """`run_activation`'s per-tick arrays equal the oracle's at every factor-th step."""
    for name, r in zip(("gate", "pneuron_out", "det_override"), ref):
        a = getattr(got, name)
        assert a.dtype == r.dtype and a.tobytes() == r[::factor].tobytes(), name


@st.composite
def _trigger_cases(draw):
    """(x, hold in steps): triggers are the samples with |x| >= 0.5."""
    n = draw(st.integers(min_value=6, max_value=400))
    hold = draw(st.one_of(st.just(0), st.integers(min_value=0, max_value=40),
                          st.sampled_from([n - 1, n, 10**6, 2**63 - 1, 10**20])))
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
    return x, hold


class TestRunActivation:
    @pytest.mark.parametrize("source", ["digital_iid", "smtj_telegraph"])
    def test_zero_signal_baseline_rate(self, source):
        # no features -> gating fraction equals the minimum rate X
        act = run_activation(_zero_trace(10_000), _cfg(x_min=0.05, source=source), 0, SPT)
        assert act.gate.mean() == pytest.approx(0.05, abs=0.01)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_override_dominates_any_seed(self, seed):
        # amplitude above threshold everywhere -> every tick gated
        x = Trace(np.full(1000, 2.0), RATE_ADC)
        act = run_activation(x, _cfg(amp_thr=0.5), seed, SPT)
        assert np.all(act.gate == 1)

    @pytest.mark.parametrize("source", ["digital_iid", "smtj_telegraph"])
    def test_saturated_pneuron_gates_every_tick(self, source):
        # v_ref = -5 V at beta = 10 pins p to 1.0 in float
        cfg = ActivationConfig(
            pneuron=PNeuronConfig(v_ref_v=-5.0, source=source),
            afe=AfeConfig(amp_threshold_v=1e9),
        )
        act = run_activation(_zero_trace(2000), cfg, 0, SPT)
        # the telegraph's exact law holds the state at p = 1 on every step
        assert np.all(act.gate == 1)

    def test_gating_subset_of_sync_ticks(self):
        # one entry per sample of the trace: the ticks are its samples
        x = synth_event(0.5, 2000.0, 50.0, 0.25, 1.0, 0.01, seed=3)
        act = run_activation(x, _cfg(), 0, SPT)
        assert act.sync_ticks.tolist() == list(range(len(x)))
        for a in (act.gate, act.pneuron_out, act.det_override):
            assert a.dtype == np.uint8 and a.size == len(x)
        assert np.all(np.isin(np.flatnonzero(act.gate), act.sync_ticks))

    def test_gate_composition_invariant(self):
        x = synth_event(0.5, 2000.0, 50.0, 0.25, 1.0, 0.01, seed=4)
        act = run_activation(x, _cfg(source="smtj_telegraph"), 0, SPT)
        assert act.det_override.any() and not act.det_override.all()
        assert np.array_equal(act.gate, act.pneuron_out | act.det_override)

    @pytest.mark.parametrize("source", ["digital_iid", "smtj_telegraph"])
    def test_deterministic(self, source):
        x = synth_event(0.2, 2000.0, 50.0, 0.1, 1.0, 0.02, seed=9)
        a = run_activation(x, _cfg(source=source), 5, SPT)
        b = run_activation(x, _cfg(source=source), 5, SPT)
        assert np.array_equal(a.gate, b.gate)
        assert np.array_equal(a.pneuron_out, b.pneuron_out)
        assert np.array_equal(a.det_override, b.det_override)

    def test_monotone_drive_monotone_rate(self):
        # two constant drive levels via X: higher p must gate more (3 sigma)
        lo = run_activation(_zero_trace(10_000), _cfg(x_min=0.1), 3, SPT)
        hi = run_activation(_zero_trace(10_000), _cfg(x_min=0.3), 3, SPT)
        sigma = np.sqrt(0.3 * 0.7 / 10_000)
        assert hi.gate.mean() - lo.gate.mean() > (0.3 - 0.1) - 3 * sigma

    def test_hold_latches_override(self):
        # single above-threshold spike held for 2 ms, 200 steps: the override
        # is set at every tick from the spike's first trigger step to 200
        # steps after it. On the ADC grid the interpolated spike triggers from
        # step 975, so the ticks at steps 1000 to 1200 are overridden.
        x = np.zeros(100)
        x[20] = 1.0
        act = run_activation(Trace(x, RATE_ADC), _cfg(amp_thr=0.5, hold=200), 0, SPT)
        assert np.flatnonzero(act.det_override).tolist() == list(range(20, 25))
        x = np.zeros(5000)
        x[1000] = 1.0
        act = run_activation(Trace(x, RATE_HI), _cfg(amp_thr=0.5, hold=200), 0)
        assert np.flatnonzero(act.det_override).tolist() == list(range(1000, 1201))

    @pytest.mark.parametrize("hold", [4999, 5000, 5001, 2**62, 2**63 - 1, 10**20])
    def test_hold_past_the_trace_latches_to_the_end(self, hold):
        x = np.zeros(100)
        x[[20, 80]] = 1.0
        act = run_activation(Trace(x, RATE_ADC), _cfg(amp_thr=0.5, hold=hold), 0, SPT)
        assert act.det_override.tolist() == [0] * 20 + [1] * 80
        x = np.zeros(20)
        x[[7, 9]] = 1.0
        act = run_activation(Trace(x, RATE_HI), _cfg(amp_thr=0.5, hold=hold), 0)
        assert act.det_override.tolist() == [0] * 7 + [1] * 13


    @given(
        case=_trigger_cases(),
        source=st.sampled_from(["digital_iid", "smtj_telegraph"]),
        rate_khz=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=300)
    def test_matches_scan_oracle(self, case, source, rate_khz, seed):
        # at factor 1 every step is a tick; tau spans 10 of the slowest
        # rate's steps, as the telegraph needs
        x, hold = case
        rate = 1000.0 * rate_khz
        cfg = ActivationConfig(
            hold_s=hold / rate,
            pneuron=PNeuronConfig(source=source, tau_s=0.01),
            afe=AfeConfig(amp_threshold_v=0.5),
        )
        trace = Trace(x, rate, 0.25)
        got = run_activation(trace, cfg, seed)
        _assert_matches_scan(got, _run_activation_scan(trace, cfg, 1, seed), 1)
        assert (got.rate_hz, got.factor) == (rate, 1)

    @pytest.mark.parametrize("source", ["digital_iid", "smtj_telegraph"])
    def test_survey_event_matches_scan_oracle(self, source):
        # the upsampled survey event at factor 1, a tick on every step
        x = upsample(synth_event(1.0, 2000.0, 50.0, 0.4, 1.0, 0.02, seed=11), 50)
        cfg = _cfg(source=source, amp_thr=0.05, hold=1000)
        got, ref = run_activation(x, cfg, 8), _run_activation_scan(x, cfg, 1, 8)
        assert ref[2].any() and not ref[2].all()
        _assert_matches_scan(got, ref, 1)

    @pytest.mark.parametrize("source", ["digital_iid", "smtj_telegraph"])
    @pytest.mark.parametrize("factor", [50, 30, 64])
    def test_adc_trace_matches_upsampled_scan_oracle(self, source, factor):
        # the survey's event path: the ADC trace with its factor, against the
        # scan oracle on the upsampled trace; the slopes agree up to rounding,
        # and no decision falls within it
        trace = synth_event(1.0, 2000.0, 50.0, 0.4, 1.0, 0.02, seed=11)
        cfg = _cfg(source=source, amp_thr=0.05, hold=1000)
        got = run_activation(trace, cfg, 8, factor=factor)
        ref = _run_activation_scan(upsample(trace, factor), cfg, factor, 8)
        assert ref[2][::factor].any() and not ref[2][::factor].all()
        _assert_matches_scan(got, ref, factor)
        assert (got.rate_hz, got.factor) == (2000.0 * factor, factor)

    @given(case=_trigger_cases(), factor=st.integers(min_value=1, max_value=9),
           source=st.sampled_from(["digital_iid", "smtj_telegraph"]),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=200)
    def test_adc_trace_override_matches_upsampled_scan_oracle(self, case, factor, source, seed):
        # the override, and with it every output: each tick reads the p of
        # the segment it ends, and tick 0 reads p[0], as the per-step slopes
        # of the upsampled trace do; tau spans 10 steps
        x, hold = case
        trace = Trace(x, 1000.0)
        cfg = ActivationConfig(hold_s=hold / (1000.0 * factor),
                               pneuron=PNeuronConfig(source=source, tau_s=0.01),
                               afe=AfeConfig(amp_threshold_v=0.5))
        got = run_activation(trace, cfg, seed, factor=factor)
        _assert_matches_scan(got, _run_activation_scan(upsample(trace, factor), cfg, factor, seed),
                             factor)


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
    """Reference oracle for the override at every step: +1 at each merged
    interval [t, t + hold] of the triggers t, -1 past its end, and their
    running sum."""
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
    # `run_activation`'s override, set at the ticks only, against the latch
    # over every step read at the ticks; the triggers are the steps where
    # the upsampled trace reaches the threshold
    n = 100_000
    rng = np.random.default_rng(hold % 1000)
    cfg = _cfg(amp_thr=0.5, hold=hold)
    for factor in (1, 7, SPT):
        m = (n - 1) // factor + 1
        trig = {"none": np.zeros(0, dtype=np.int64),
                "sparse": np.sort(rng.choice(m, 20, replace=False)),
                "dense": np.flatnonzero(rng.random(m) < 0.3),
                "ends": np.array([0, 1, m - 2, m - 1])}[kind].astype(np.int64)
        x = np.zeros(m)
        x[trig] = 1.0
        trace = Trace(x, RATE_HI / factor)
        steps = (m - 1) * factor + 1
        latch = _override_latch_cumsum(_trigger_steps(trace, 0.5, factor),
                                       _hold_steps(cfg, trace.rate_hz * factor, steps), steps)
        got = run_activation(trace, cfg, 0, factor).det_override
        assert got.dtype == np.uint8 and got.tobytes() == latch[::factor].tobytes(), factor


def _window_rates(x, cfg, seed=0, window_ticks=100):
    """The gated fraction of each whole window of window_ticks ticks, at factor SPT."""
    gated = run_activation(x, cfg, seed, SPT).gate > 0
    n_win = gated.size // window_ticks
    return gated[:n_win * window_ticks].reshape(n_win, window_ticks).mean(axis=1)


class TestAverageRate:
    def test_all_gated(self):
        x = Trace(np.full(1000, 2.0), RATE_ADC)
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
        # the step up at sample 100 triggers from step 4975, between the
        # ticks at steps 4950 and 5000
        x = np.zeros(200)
        x[100:] = 1.0
        act = run_activation(Trace(x, RATE_ADC), _cfg(amp_thr=0.5), 0, SPT)
        assert detection_latency(act, 5000) == 0.0
        assert detection_latency(act, 4951) == 49 / RATE_HI

    def test_flat_signal_no_activation(self):
        cfg = ActivationConfig(pneuron=PNeuronConfig(v_ref_v=5.0, source="digital_iid"))
        act = run_activation(_zero_trace(500), cfg, 0, SPT)
        with pytest.raises(ValueError, match="no activation"):
            detection_latency(act, 100)

    def test_onset_out_of_range(self):
        act = run_activation(_zero_trace(100), _cfg(), 0, SPT)
        for onset in (99 * SPT + 1, 10**7, -1):
            with pytest.raises(ValueError, match="out of range"):
                detection_latency(act, onset)

    def test_strong_slope_latency_monte_carlo(self):
        # ramp onset at 500 V/s, probabilistic path only: latency within two
        # sync periods in at least 95 % of seeded runs
        n = 600
        onset = 400
        x = np.zeros(n)
        x[onset:] = 500.0 * np.arange(n - onset) / RATE_ADC
        trace = Trace(x, RATE_ADC)
        ok = 0
        for seed in range(100):
            act = run_activation(trace, _cfg(x_min=0.05, amp_thr=1e9), seed, SPT)
            try:
                ok += detection_latency(act, onset * SPT) <= 2 / 2000.0
            except ValueError:
                pass
        assert ok >= 95

    def test_microsecond_response_to_a_ramp(self):
        # the paper's p-neuron responds within microseconds: a 306.6 V/s ramp
        # (the default event's peak slope) from an ADC sample after 200 flat
        # ones, default telegraph, factor 50, read at every high-rate step of
        # the ramp's p. In the runs where the telegraph is OFF when the ramp
        # starts, the median time to its first ON step is under 50 us, a tenth
        # of an ADC period
        rate, factor, flat = 2000.0, 50, 200
        k = np.arange(flat + 40)
        x = Trace(np.where(k >= flat, 306.6 * (k - flat) / rate, 0.0), rate)
        cfg = ActivationConfig()
        p = activation_probability(drive_voltages(extract_features(x), cfg.afe), cfg.pneuron)
        dt = 1.0 / (rate * factor)
        start = flat * factor
        latencies = []
        for seed in range(300):
            states = telegraph_run(p, dt, cfg.pneuron, np.random.default_rng(seed), factor=factor)
            if states[start] == 0:
                latencies.append(np.flatnonzero(states[start:])[0] * dt)
        assert len(latencies) > 250
        assert np.median(latencies) < 50e-6


class TestConfigValidation:
    def test_window_and_hold_in_steps(self):
        # there is no AFE window; the 10 ms hold at the run's rate, at most
        # the run, also where hold_s * rate is inf
        cfg = ActivationConfig()
        assert _hold_steps(cfg, 1e5, 99_951) == 1000
        assert _hold_steps(cfg, 6e4, 59_971) == 600
        assert _hold_steps(cfg, 100.0, 1000) == 1
        assert _hold_steps(ActivationConfig(hold_s=1e306), 1e5, 500) == 500

    def test_bad_hold(self):
        for hold_s in (-1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="hold_s"):
                ActivationConfig(hold_s=hold_s)
