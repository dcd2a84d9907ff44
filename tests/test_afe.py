import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from probsense.afe import (
    AfeConfig,
    FeatureSignal,
    drive_voltages,
    extract_features,
)
from probsense.traces import Trace

signal_arrays = arrays(
    np.float64,
    st.integers(min_value=5, max_value=300),
    elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


def half_wave_rectify(x: Trace) -> tuple[Trace, Trace]:
    """Reference oracle: split a trace into its positive and negated-negative parts.

    pos - neg reconstructs the input exactly; pos + neg is its magnitude.
    """
    pos = np.maximum(x.samples, 0.0)
    neg = np.maximum(-x.samples, 0.0)
    return Trace(pos, x.rate_hz, x.t0_s), Trace(neg, x.rate_hz, x.t0_s)


def _trailing_mean(v: np.ndarray, window: int) -> np.ndarray:
    """Reference oracle: trailing moving average; leading partial windows divide by their count."""
    c = np.cumsum(v)
    out = np.empty_like(v)
    w = min(window, v.size)
    out[:w] = c[:w] / np.arange(1, w + 1)
    if v.size > window:
        out[window:] = (c[window:] - c[:-window]) / window
    return out


def _extract_features_concat(x: Trace, cfg: AfeConfig) -> FeatureSignal:
    """Reference oracle for `extract_features`: np.diff, then concatenated shifts."""
    n = len(x)
    abs_slope = np.abs(np.diff(x.samples) * x.rate_hz)
    slope = np.concatenate([[0.0], _trailing_mean(abs_slope, cfg.smoothing_steps)])
    amp = np.abs(x.samples)
    if cfg.delay_steps > 0:
        d = min(cfg.delay_steps, n)
        slope = np.concatenate([np.zeros(d), slope[: n - d]])
        amp = np.concatenate([np.zeros(d), amp[: n - d]])
    return FeatureSignal(slope, amp, x.rate_hz, cfg.delay_steps)


def drive_voltage(f: FeatureSignal, cfg: AfeConfig, i: int) -> float:
    """Reference oracle for `drive_voltages`: the p-neuron voltage at step i."""
    if not 0 <= i < len(f):
        raise IndexError(f"step index {i} out of range [0, {len(f)})")
    return cfg.slope_gain * float(f.slope_mag[i])


class TestRectify:
    def test_definition(self):
        pos, neg = half_wave_rectify(Trace(np.array([1.0, -2.0, 0.0]), 10.0))
        assert np.array_equal(pos.samples, [1.0, 0.0, 0.0])
        assert np.array_equal(neg.samples, [0.0, 2.0, 0.0])

    def test_all_positive(self):
        pos, neg = half_wave_rectify(Trace(np.array([1.0, 2.0, 3.0]), 10.0))
        assert np.array_equal(neg.samples, np.zeros(3))

    @given(signal_arrays)
    def test_reconstruction_identity(self, x):
        pos, neg = half_wave_rectify(Trace(x, 10.0))
        assert np.array_equal(pos.samples - neg.samples, x)

    @given(signal_arrays)
    def test_magnitude_identity(self, x):
        pos, neg = half_wave_rectify(Trace(x, 10.0))
        assert np.array_equal(pos.samples + neg.samples, np.abs(x))

    @given(signal_arrays, st.integers(min_value=1, max_value=4))
    def test_extract_features_matches_rectified_branches(self, x, window):
        # the slope feature is the smoothed sum of the rectified branches of the
        # scaled first difference, bit for bit (signed zeros included)
        trace = Trace(x, 100.0)
        pos, neg = half_wave_rectify(Trace(np.diff(x) * trace.rate_hz, trace.rate_hz))
        expected = np.concatenate([[0.0], _trailing_mean(pos.samples + neg.samples, window)])
        got = extract_features(trace, AfeConfig(smoothing_steps=window)).slope_mag
        assert got.tobytes() == expected.tobytes()


class TestExtractFeatures:
    @given(
        signal_arrays,
        st.integers(min_value=1, max_value=300),
        st.one_of(st.just(0), st.integers(min_value=1, max_value=400)),
        st.sampled_from([1.0, 100.0, 1e5]),
    )
    def test_matches_concatenate_oracle(self, x, window, delay, rate):
        # windows up to the whole trace (n = window + 1) and delays past its end
        window = min(window, x.size - 1)
        cfg = AfeConfig(smoothing_steps=window, delay_steps=delay)
        got = extract_features(Trace(x, rate), cfg)
        ref = _extract_features_concat(Trace(x, rate), cfg)
        assert got.slope_mag.tobytes() == ref.slope_mag.tobytes()
        assert got.amplitude.tobytes() == ref.amplitude.tobytes()
        assert got.slope_mag.dtype == got.amplitude.dtype == np.float64
        assert (got.rate_hz, got.delay_steps) == (ref.rate_hz, ref.delay_steps)

    def test_constant_signal_zero_slope(self):
        f = extract_features(Trace(np.full(500, 3.3), 1000.0), AfeConfig(smoothing_steps=5))
        assert np.all(f.slope_mag == 0.0)
        assert np.allclose(f.amplitude, 3.3)

    def test_ramp_slope(self):
        rate = 1000.0
        s = 42.0
        x = Trace(s * np.arange(200) / rate, rate)
        f = extract_features(x, AfeConfig(smoothing_steps=1))
        assert f.slope_mag[0] == 0.0
        assert np.allclose(f.slope_mag[1:], s, rtol=1e-9)

    def test_sine_peak_slope_matches_analytic(self):
        # 50 Hz unit sine on a 100 kHz grid: max |dx/dt| = 2*pi*50
        rate = 100_000.0
        t = np.arange(int(0.05 * rate)) / rate
        x = Trace(np.sin(2 * np.pi * 50.0 * t), rate)
        f = extract_features(x, AfeConfig())
        assert np.max(f.slope_mag) == pytest.approx(2 * np.pi * 50.0, rel=0.02)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            extract_features(Trace(np.arange(5.0), 10.0), AfeConfig(smoothing_steps=10))

    @given(signal_arrays)
    def test_sign_flip_invariance(self, x):
        cfg = AfeConfig(smoothing_steps=3)
        f_pos = extract_features(Trace(x, 100.0), cfg)
        f_neg = extract_features(Trace(-x, 100.0), cfg)
        assert np.array_equal(f_pos.slope_mag, f_neg.slope_mag)
        assert np.array_equal(f_pos.amplitude, f_neg.amplitude)

    @given(signal_arrays, st.integers(min_value=-8, max_value=8))
    def test_scaling_by_powers_of_two_exact(self, x, k):
        # powers of two commute exactly with float addition in the averages
        c = 2.0**k
        cfg = AfeConfig(smoothing_steps=4)
        f1 = extract_features(Trace(x, 100.0), cfg)
        f2 = extract_features(Trace(c * x, 100.0), cfg)
        assert np.array_equal(f2.slope_mag, c * f1.slope_mag)
        assert np.array_equal(f2.amplitude, c * f1.amplitude)

    def test_scaling_general(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        cfg = AfeConfig(smoothing_steps=7)
        f1 = extract_features(Trace(x, 100.0), cfg)
        f2 = extract_features(Trace(3.7 * x, 100.0), cfg)
        assert np.allclose(f2.slope_mag, 3.7 * f1.slope_mag, rtol=1e-12)

    def test_delay_shifts_without_changing_values(self):
        rng = np.random.default_rng(2)
        x = Trace(rng.normal(size=300), 100.0)
        f0 = extract_features(x, AfeConfig(smoothing_steps=4, delay_steps=0))
        f9 = extract_features(x, AfeConfig(smoothing_steps=4, delay_steps=9))
        assert f9.delay_steps == 9
        assert np.array_equal(f9.slope_mag[9:], f0.slope_mag[:-9])
        assert np.array_equal(f9.amplitude[9:], f0.amplitude[:-9])
        assert np.all(f9.slope_mag[:9] == 0.0)
        assert np.all(f9.amplitude[:9] == 0.0)

    def test_feature_lengths_match_source(self):
        x = Trace(np.arange(100.0), 10.0)
        f = extract_features(x, AfeConfig(smoothing_steps=3, delay_steps=5))
        assert len(f) == len(x)
        assert np.all(f.slope_mag >= 0)
        assert np.all(f.amplitude >= 0)


class TestDriveVoltage:
    def _features(self, slope_value):
        rate = 1000.0
        x = Trace(slope_value * np.arange(50) / rate, rate)
        return extract_features(x, AfeConfig(smoothing_steps=1, slope_gain=0.01))

    def test_zero_slope_zero_volts(self):
        f = extract_features(Trace(np.zeros(50), 1000.0), AfeConfig(smoothing_steps=1))
        assert drive_voltage(f, AfeConfig(smoothing_steps=1), 10) == 0.0

    def test_gain_arithmetic(self):
        cfg = AfeConfig(smoothing_steps=1, slope_gain=0.01)
        f = self._features(100.0)
        assert drive_voltage(f, cfg, 20) == pytest.approx(1.0, rel=1e-9)

    def test_index_out_of_range(self):
        cfg = AfeConfig(smoothing_steps=1)
        f = self._features(1.0)
        with pytest.raises(IndexError):
            drive_voltage(f, cfg, 50)

    def test_vectorized_matches_scalar(self):
        cfg = AfeConfig(smoothing_steps=1, slope_gain=0.5)
        f = self._features(10.0)
        v = drive_voltages(f, cfg)
        assert v[7] == drive_voltage(f, cfg, 7)


class TestAfeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(smoothing_steps=0),
            dict(delay_steps=-1),
            dict(slope_gain=0.0),
            dict(amp_threshold_v=0.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AfeConfig(**kwargs)
