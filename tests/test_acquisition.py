import numpy as np
import pytest
from hypothesis import given, strategies as st

from probsense.acquisition import (
    SampleStream,
    nmse_freq,
    nmse_time,
    reconstruct,
    sample_gated,
    sample_regular,
    savings,
)
from probsense.activation import ActivationConfig, run_activation
from probsense.afe import AfeConfig
from probsense.pbit import PNeuronConfig, v_ref_for_min_rate
from probsense.traces import Trace, synth_event, upsample


def _saturated_cfg():
    return ActivationConfig(
        pneuron=PNeuronConfig(v_ref_v=-5.0, source="digital_iid"),
        afe=AfeConfig(amp_threshold_v=1e9),
    )


def _baseline_cfg(x_min=0.05):
    return ActivationConfig(
        pneuron=PNeuronConfig(v_ref_v=v_ref_for_min_rate(x_min, 10.0), source="digital_iid"),
        afe=AfeConfig(amp_threshold_v=1e9),
    )


def _never_cfg():
    return ActivationConfig(
        pneuron=PNeuronConfig(v_ref_v=5.0, source="digital_iid"),
        afe=AfeConfig(amp_threshold_v=1e9),
    )


class TestSampling:
    def test_saturated_equals_regular(self):
        x = upsample(synth_event(0.5, 2000.0, 50.0, 0.25, 1.0, 0.01, seed=1), 50)
        act = run_activation(x, _saturated_cfg(), 50, seed=0)
        p = sample_gated(x, act)
        r = sample_regular(x, act)
        assert np.array_equal(p.times_s, r.times_s)
        assert np.array_equal(p.values, r.values)

    def test_no_gate_empty_stream(self):
        x = Trace(np.zeros(50_000), 100_000.0)
        act = run_activation(x, _never_cfg(), 50, seed=0)
        assert len(sample_gated(x, act)) == 0

    def test_baseline_sample_count_binomial(self):
        # X = 0.05 over 1e4 ticks: expect 500 +- 3 sigma (binomial)
        x = Trace(np.zeros(10_000 * 50), 100_000.0)
        act = run_activation(x, _baseline_cfg(0.05), 50, seed=2)
        n = len(sample_gated(x, act))
        sigma = np.sqrt(10_000 * 0.05 * 0.95)
        assert abs(n - 500) <= 3 * sigma

    def test_timestamps_on_sync_grid(self):
        x = upsample(synth_event(0.25, 2000.0, 50.0, 0.1, 1.0, 0.02, seed=5), 50)
        act = run_activation(x, ActivationConfig(), 50, seed=0)
        s = sample_gated(x, act)
        assert s.ticks.dtype == np.int64
        assert np.array_equal(np.sort(s.ticks), s.ticks)
        assert np.all(s.ticks >= 0)
        assert s.rate_hz == 2000.0
        assert np.array_equal(s.times_s, s.ticks / 2000.0)

    def test_grid_mismatch_rejected(self):
        x = upsample(synth_event(0.25, 2000.0, 50.0, 0.1, 1.0, 0.0, seed=0), 50)
        act = run_activation(x, ActivationConfig(), 50, seed=0)
        other = Trace(np.zeros(100), 100_000.0)
        with pytest.raises(ValueError, match="grid"):
            sample_gated(other, act)

    @pytest.mark.parametrize("factor, spt", [(50, 50), (30, 30), (64, 64), (7, 21), (1, 3)])
    def test_values_at_ticks_match_upsampled_trace(self, factor, spt):
        # the survey samples its ADC trace at steps // factor: the values
        # upsample keeps at every k * factor, bit for bit
        x = synth_event(0.5, 2000.0, 50.0, 0.25, 1.0, 0.01, seed=6)
        act = run_activation(x, _baseline_cfg(0.3), spt, seed=1, factor=factor)
        x_high = upsample(x, factor)
        for stream, steps in ((sample_regular(x, act), act.sync_ticks),
                              (sample_gated(x, act), act.sync_ticks[act.gate[act.sync_ticks] > 0])):
            assert stream.values.tobytes() == x_high.samples[steps].tobytes()
            assert stream.ticks.tobytes() == (steps // spt).tobytes()
            assert stream.rate_hz == x_high.rate_hz / spt

    def test_ticks_between_samples_rejected(self):
        x = synth_event(0.25, 2000.0, 50.0, 0.1, 1.0, 0.0, seed=0)
        act = run_activation(x, ActivationConfig(), 25, seed=0, factor=50)
        with pytest.raises(ValueError, match="between the trace's samples"):
            sample_regular(x, act)

    def test_factor_mismatch_rejected(self):
        x = synth_event(0.25, 2000.0, 50.0, 0.1, 1.0, 0.0, seed=0)
        act = run_activation(x, ActivationConfig(), 50, seed=0, factor=50)
        with pytest.raises(ValueError, match="grid"):
            sample_gated(upsample(x, 50), act)


class TestReconstruct:
    def test_all_points_exact(self):
        x = upsample(synth_event(0.5, 2000.0, 50.0, 0.25, 1.0, 0.01, seed=1), 50)
        act = run_activation(x, _saturated_cfg(), 50, seed=0)
        rec = reconstruct(sample_gated(x, act), 2000.0, 1000)
        orig = x.samples[::50]
        assert np.array_equal(rec.samples, orig)

    def test_midpoint(self):
        s = SampleStream(np.array([0, 2]), np.array([0.0, 1.0]), rate_hz=2.0)
        rec = reconstruct(s, 2.0, 3)
        assert np.array_equal(rec.samples, [0.0, 0.5, 1.0])

    def test_constant_extrapolation(self):
        s = SampleStream(np.array([2, 4]), np.array([5.0, 7.0]), rate_hz=2.0)
        rec = reconstruct(s, 2.0, 6)
        assert np.array_equal(rec.samples, [5.0, 5.0, 5.0, 6.0, 7.0, 7.0])

    def test_interpolant_passes_through_nodes(self):
        # random subset of a 50 Hz sine: zero error at retained samples
        rng = np.random.default_rng(3)
        n = 400
        t = np.arange(n) / 2000.0
        sine = np.sin(2 * np.pi * 50.0 * t)
        keep = np.sort(rng.choice(n, size=60, replace=False))
        s = SampleStream(keep, sine[keep], rate_hz=2000.0)
        rec = reconstruct(s, 2000.0, n)
        assert np.array_equal(rec.samples[keep], sine[keep])

    def test_too_few_points(self):
        s = SampleStream(np.array([0]), np.array([1.0]), rate_hz=10.0)
        with pytest.raises(ValueError, match="at least 2"):
            reconstruct(s, 10.0, 5)


class TestNmseTime:
    def test_identity(self):
        t = synth_event(0.5, 2000.0, 50.0, 0.25, 1.0, 0.01, seed=2)
        assert nmse_time(t, t) == 0.0

    def test_zero_reconstruction_is_one(self):
        t = synth_event(0.5, 2000.0, 50.0, 0.25, 1.0, 0.0, seed=0)
        zero = Trace(np.zeros(len(t)), t.rate_hz)
        assert nmse_time(t, zero) == 1.0

    def test_all_zero_original_rejected(self):
        z = Trace(np.zeros(100), 100.0)
        with pytest.raises(ValueError, match="all-zero"):
            nmse_time(z, z)

    def test_scale_invariance_powers_of_two(self):
        rng = np.random.default_rng(1)
        o = Trace(rng.normal(size=256), 100.0)
        r = Trace(rng.normal(size=256), 100.0)
        base = nmse_time(o, r)
        scaled = nmse_time(
            Trace(o.samples * 4.0, 100.0), Trace(r.samples * 4.0, 100.0)
        )
        assert scaled == base

    def test_scale_invariance_general(self):
        rng = np.random.default_rng(2)
        o = Trace(rng.normal(size=256), 100.0)
        r = Trace(rng.normal(size=256), 100.0)
        scaled = nmse_time(Trace(o.samples * -3.7, 100.0), Trace(r.samples * -3.7, 100.0))
        assert scaled == pytest.approx(nmse_time(o, r), rel=1e-12)

    def test_length_mismatch(self):
        a = Trace(np.ones(10), 10.0)
        b = Trace(np.ones(11), 10.0)
        with pytest.raises(ValueError):
            nmse_time(a, b)


class TestNmseFreq:
    def test_identity(self):
        t = synth_event(1.0, 2000.0, 50.0, 0.5, 1.0, 0.01, seed=3)
        assert nmse_freq(t, t, (0.0, 200.0)) == 0.0

    def test_out_of_band_tone_invisible(self):
        # 900 Hz sits exactly on a DFT bin (1 Hz spacing), far above 200 Hz
        t = synth_event(1.0, 2000.0, 50.0, 0.5, 1.0, 0.0, seed=0)
        grid = np.arange(len(t)) / t.rate_hz
        tone = Trace(t.samples + 0.3 * np.sin(2 * np.pi * 900.0 * grid), t.rate_hz)
        assert nmse_freq(t, tone, (0.0, 200.0)) < 1e-12

    def test_in_band_tone_visible(self):
        t = synth_event(1.0, 2000.0, 50.0, 0.5, 1.0, 0.0, seed=0)
        grid = np.arange(len(t)) / t.rate_hz
        tone = Trace(t.samples + 0.3 * np.sin(2 * np.pi * 100.0 * grid), t.rate_hz)
        assert nmse_freq(t, tone, (0.0, 200.0)) > 1e-3

    def test_band_validation(self):
        t = synth_event(0.5, 2000.0, 50.0, 0.25, 1.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            nmse_freq(t, t, (200.0, 100.0))
        with pytest.raises(ValueError):
            nmse_freq(t, t, (0.0, 5000.0))

    def test_zero_in_band_energy_rejected(self):
        zero = Trace(np.zeros(2000), 2000.0)
        recon = Trace(np.ones(2000), 2000.0)
        with pytest.raises(ValueError, match="in-band"):
            nmse_freq(zero, recon, (50.0, 200.0))


class TestSavings:
    def _stream(self, n):
        return SampleStream(np.arange(n), np.zeros(n), rate_hz=1.0)

    def test_equal_streams_zero_savings(self):
        p, r = self._stream(100), self._stream(100)
        assert savings(p, r) == (0.0, 100.0)

    def test_empty_p_full_savings(self):
        p = SampleStream(np.zeros(0, dtype=np.int64), np.zeros(0), rate_hz=1.0)
        assert savings(p, self._stream(100)) == (100.0, 0.0)

    def test_empty_reference_rejected(self):
        r = SampleStream(np.zeros(0, dtype=np.int64), np.zeros(0), rate_hz=1.0)
        with pytest.raises(ValueError, match="empty"):
            savings(self._stream(10), r)

    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=1000))
    def test_complement_sums_to_100_exactly(self, np_, nr):
        np_ = min(np_, nr)
        sav, active = savings(self._stream(np_), self._stream(nr))
        assert sav + active == 100.0
        assert sav == pytest.approx(100.0 * (1 - np_ / nr), abs=1e-12)


class TestStreamValidation:
    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            SampleStream(np.array([0, 0]), np.zeros(2), rate_hz=1.0)

    def test_times_from_ticks(self):
        s = SampleStream(np.array([0, 3]), np.zeros(2), rate_hz=2.0, t0_s=1.25)
        assert s.times_s.tolist() == [1.25, 2.75]

    def test_float_ticks_rejected(self):
        # seconds passed where ticks belong
        with pytest.raises(ValueError, match="integers"):
            SampleStream(np.array([0.0, 0.5]), np.zeros(2), rate_hz=2.0)
