import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from probsense.afe import (
    FEATURE_BLOCK,
    AfeConfig,
    drive_voltages,
    extract_features,
)
from probsense.traces import Trace, upsample

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


def _extract_features_concat(x: Trace, window: int) -> np.ndarray:
    """Reference oracle for `extract_features`: np.diff, then a concatenated zero."""
    abs_slope = np.abs(np.diff(x.samples) * x.rate_hz)
    return np.concatenate([[0.0], _trailing_mean(abs_slope, window)])


def drive_voltages_full(slope: np.ndarray, cfg: AfeConfig) -> np.ndarray:
    """Reference oracle for `drive_voltages`: the p-neuron voltage at every step."""
    return cfg.slope_gain * slope


def drive_voltage(slope: np.ndarray, cfg: AfeConfig, i: int) -> float:
    """Reference oracle for `drive_voltages`: the p-neuron voltage at step i."""
    if not 0 <= i < len(slope):
        raise IndexError(f"step index {i} out of range [0, {len(slope)})")
    return cfg.slope_gain * float(slope[i])


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
        got = extract_features(trace, window)
        assert got.tobytes() == expected.tobytes()


class TestExtractFeatures:
    @given(
        signal_arrays,
        st.integers(min_value=1, max_value=300),
        st.sampled_from([1.0, 100.0, 1e5]),
    )
    def test_matches_concatenate_oracle(self, x, window, rate):
        # windows up to the whole trace (n = window + 1)
        window = min(window, x.size - 1)
        got = extract_features(Trace(x, rate), window)
        ref = _extract_features_concat(Trace(x, rate), window)
        assert got.tobytes() == ref.tobytes()
        assert got.dtype == np.float64

    @pytest.mark.parametrize("n", [FEATURE_BLOCK - 1, FEATURE_BLOCK, FEATURE_BLOCK + 1,
                                   3 * FEATURE_BLOCK + 17])
    def test_matches_concatenate_oracle_at_block_boundaries(self, n):
        # the n - 1 - w full windows are overwritten from the end, a block at
        # a time: windows shorter than a block, and w close to n so that 0, 1
        # or about a block of full windows remain
        x = np.random.default_rng(n).normal(size=n)
        trailing = {0, 1, 2, 17, FEATURE_BLOCK - 1, FEATURE_BLOCK, FEATURE_BLOCK + 1}
        windows = {1, 100, FEATURE_BLOCK - 1} | {n - 1 - k for k in trailing}
        for w in sorted(w for w in windows if 1 <= w <= n - 1):
            got = extract_features(Trace(x, 1e5), w)
            ref = _extract_features_concat(Trace(x, 1e5), w)
            assert got.tobytes() == ref.tobytes(), w

    def test_constant_signal_zero_slope(self):
        f = extract_features(Trace(np.full(500, 3.3), 1000.0), 5)
        assert np.all(f == 0.0)

    def test_ramp_slope(self):
        rate = 1000.0
        s = 42.0
        x = Trace(s * np.arange(200) / rate, rate)
        f = extract_features(x, 1)
        assert f[0] == 0.0
        assert np.allclose(f[1:], s, rtol=1e-9)

    def test_sine_peak_slope_matches_analytic(self):
        # 50 Hz unit sine on a 100 kHz grid: max |dx/dt| = 2*pi*50, through
        # the AFE's 1 ms window
        rate = 100_000.0
        t = np.arange(int(0.05 * rate)) / rate
        x = Trace(np.sin(2 * np.pi * 50.0 * t), rate)
        f = extract_features(x, 100)
        assert np.max(f) == pytest.approx(2 * np.pi * 50.0, rel=0.02)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            extract_features(Trace(np.arange(5.0), 10.0), 10)
        for window in (0, -1):
            with pytest.raises(ValueError, match="window_steps"):
                extract_features(Trace(np.arange(5.0), 10.0), window)

    @given(signal_arrays)
    def test_sign_flip_invariance(self, x):
        f_pos = extract_features(Trace(x, 100.0), 3)
        f_neg = extract_features(Trace(-x, 100.0), 3)
        assert np.array_equal(f_pos, f_neg)

    @given(signal_arrays, st.integers(min_value=-8, max_value=8))
    def test_scaling_by_powers_of_two_exact(self, x, k):
        # powers of two commute exactly with float addition in the averages
        c = 2.0**k
        f1 = extract_features(Trace(x, 100.0), 4)
        f2 = extract_features(Trace(c * x, 100.0), 4)
        assert np.array_equal(f2, c * f1)

    def test_scaling_general(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        f1 = extract_features(Trace(x, 100.0), 7)
        f2 = extract_features(Trace(3.7 * x, 100.0), 7)
        assert np.allclose(f2, 3.7 * f1, rtol=1e-12)

    def test_feature_lengths_match_source(self):
        x = Trace(np.arange(100.0), 10.0)
        f = extract_features(x, 3)
        assert len(f) == len(x)
        assert np.all(f >= 0)


def _assert_close_to_upsampled(x: Trace, window: int, factor: int) -> None:
    """`extract_features` at a factor against its reference oracle, the
    features of the upsampled trace itself."""
    got = extract_features(x, window, factor)
    ref = extract_features(upsample(x, factor), window)
    assert got.shape == ref.shape == ((len(x) - 1) * factor + 1,)
    if factor == 1:
        assert got.tobytes() == ref.tobytes()
        return
    # Each window mean is a difference of two running sums, so its rounding
    # error is of order eps times the whole sum, not only of the mean itself.
    total = factor * float(np.sum(np.abs(np.diff(x.samples)))) * x.rate_hz
    atol = 1e-12 * total / window
    assert np.allclose(got, ref, rtol=1e-8, atol=atol)
    assert got[0] == 0.0


class TestClosedForm:
    @given(signal_arrays, st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=300), st.sampled_from([1.0, 2000.0, 27524.7]))
    def test_matches_upsampled_trace(self, x, factor, window, rate):
        window = min(window, (x.size - 1) * factor)
        _assert_close_to_upsampled(Trace(x, rate), window, factor)

    @pytest.mark.parametrize("factor", [1, 30, 50, 64])
    def test_survey_event_matches_upsampled_trace(self, factor):
        # windows that are, and are not, multiples of the factor
        x = Trace(np.random.default_rng(factor).normal(size=2000), 2000.0)
        for w in (1, 50, 100, 999):
            _assert_close_to_upsampled(x, w, factor)

    def test_ramp_slope_at_factor(self):
        # a ramp on the ADC grid: every high-rate step has the same slope
        f = extract_features(Trace(7.0 * np.arange(40) / 100.0, 100.0), 5, 9)
        assert len(f) == 39 * 9 + 1
        assert f[0] == 0.0
        assert np.allclose(f[1:], 7.0, rtol=1e-12)

    def test_too_short_counts_steps(self):
        x = Trace(np.arange(3.0), 10.0)
        assert len(extract_features(x, 100, 50)) == 101
        with pytest.raises(ValueError, match="too short"):
            extract_features(x, 101, 50)

    @pytest.mark.parametrize("factor", [0, -1, 2.5])
    def test_bad_factor(self, factor):
        with pytest.raises(ValueError, match="factor"):
            extract_features(Trace(np.arange(10.0), 10.0), 1, factor)


class TestDriveVoltage:
    def _features(self, slope_value):
        rate = 1000.0
        x = Trace(slope_value * np.arange(50) / rate, rate)
        return extract_features(x, 1)

    def test_zero_slope_zero_volts(self):
        f = extract_features(Trace(np.zeros(50), 1000.0), 1)
        assert drive_voltage(f, AfeConfig(), 10) == 0.0

    def test_gain_arithmetic(self):
        cfg = AfeConfig(slope_gain=0.01)
        f = self._features(100.0)
        assert drive_voltage(f, cfg, 20) == pytest.approx(1.0, rel=1e-9)

    def test_index_out_of_range(self):
        cfg = AfeConfig()
        f = self._features(1.0)
        with pytest.raises(IndexError):
            drive_voltage(f, cfg, 50)

    def test_vectorized_matches_scalar(self):
        cfg = AfeConfig(slope_gain=0.5)
        f = self._features(10.0)
        steps = np.arange(len(f))
        assert drive_voltages(f, cfg, steps)[7] == drive_voltage(f, cfg, 7)

    @given(signal_arrays, st.integers(min_value=1, max_value=8),
           st.floats(min_value=1e-6, max_value=1e3))
    def test_at_steps_matches_indexed_full_drive(self, x, spt, gain):
        # the digital source's drive at its sync ticks
        cfg = AfeConfig(slope_gain=gain)
        f = extract_features(Trace(x, 1000.0), 3)
        ticks = np.arange(0, len(f), spt, dtype=np.int64)
        full = drive_voltages_full(f, cfg)
        assert drive_voltages(f, cfg, ticks).tobytes() == full[ticks].tobytes()


class TestAfeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(slope_gain=-1.0),
            dict(slope_gain=0.0),
            dict(amp_threshold_v=0.0),
            dict(slope_gain=float("nan")),
            dict(slope_gain=float("inf")),
            dict(amp_threshold_v=float("nan")),
            dict(amp_threshold_v=float("inf")),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AfeConfig(**kwargs)
