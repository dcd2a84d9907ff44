import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from probsense.activation import ActivationConfig, run_activation
from probsense.afe import AfeConfig, drive_voltages, extract_features
from probsense.traces import Trace, upsample

signal_arrays = arrays(
    np.float64,
    st.integers(min_value=5, max_value=300),
    elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)

# Zero or at least 1e-280 in magnitude: scaled by 2**-8 to 2**8, the samples,
# their differences and the slopes stay clear of the subnormal range, where
# a product by a power of two rounds.
normal_arrays = arrays(
    np.float64,
    st.integers(min_value=5, max_value=300),
    elements=st.one_of(st.just(0.0), st.floats(min_value=1e-280, max_value=1e3),
                       st.floats(min_value=-1e3, max_value=-1e-280)),
)


def half_wave_rectify(x: Trace) -> tuple[Trace, Trace]:
    """Reference oracle: split a trace into its positive and negated-negative parts.

    pos - neg reconstructs the input exactly; pos + neg is its magnitude.
    """
    pos = np.maximum(x.samples, 0.0)
    neg = np.maximum(-x.samples, 0.0)
    return Trace(pos, x.rate_hz, x.t0_s), Trace(neg, x.rate_hz, x.t0_s)


def _extract_features_concat(x: Trace, factor: int = 1) -> np.ndarray:
    """Reference oracle for the slope at every step of `upsample(x, factor)`:
    the per-step |diff| * rate of the upsampled trace, after a concatenated zero."""
    u = upsample(x, factor)
    return np.concatenate([[0.0], np.abs(np.diff(u.samples) * u.rate_hz)])


def _held(slope: np.ndarray, factor: int) -> np.ndarray:
    """slope read at every step of the grid `factor` times finer: step s >= 1
    lies in segment (s - 1) // factor and sees slope[(s - 1) // factor + 1]."""
    steps = np.arange((slope.size - 1) * factor + 1)
    return slope[(steps - 1) // factor + 1]


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

    @given(signal_arrays)
    def test_extract_features_matches_rectified_branches(self, x):
        # the slope feature is the sum of the rectified branches of the scaled
        # first difference, bit for bit (signed zeros included)
        trace = Trace(x, 100.0)
        pos, neg = half_wave_rectify(Trace(np.diff(x) * trace.rate_hz, trace.rate_hz))
        expected = np.concatenate([[0.0], pos.samples + neg.samples])
        got = extract_features(trace)
        assert got.tobytes() == expected.tobytes()


class TestExtractFeatures:
    @given(signal_arrays, st.sampled_from([1.0, 100.0, 1e5]))
    def test_matches_concatenate_oracle(self, x, rate):
        got = extract_features(Trace(x, rate))
        ref = _extract_features_concat(Trace(x, rate))
        assert got.tobytes() == ref.tobytes()
        assert got.dtype == np.float64

    def test_constant_signal_zero_slope(self):
        f = extract_features(Trace(np.full(500, 3.3), 1000.0))
        assert np.all(f == 0.0)

    def test_ramp_slope(self):
        rate = 1000.0
        s = 42.0
        x = Trace(s * np.arange(200) / rate, rate)
        f = extract_features(x)
        assert f[0] == 0.0
        assert np.allclose(f[1:], s, rtol=1e-9)

    def test_sine_peak_slope_matches_analytic(self):
        # 50 Hz unit sine on a 100 kHz grid: max |dx/dt| = 2*pi*50
        rate = 100_000.0
        t = np.arange(int(0.05 * rate)) / rate
        x = Trace(np.sin(2 * np.pi * 50.0 * t), rate)
        f = extract_features(x)
        assert np.max(f) == pytest.approx(2 * np.pi * 50.0, rel=0.02)

    @given(signal_arrays)
    def test_sign_flip_invariance(self, x):
        f_pos = extract_features(Trace(x, 100.0))
        f_neg = extract_features(Trace(-x, 100.0))
        assert np.array_equal(f_pos, f_neg)

    @given(normal_arrays, st.integers(min_value=-8, max_value=8))
    def test_scaling_by_powers_of_two_exact(self, x, k):
        # powers of two commute exactly with the difference and the rate,
        # as long as nothing underflows
        c = 2.0**k
        f1 = extract_features(Trace(x, 100.0))
        f2 = extract_features(Trace(c * x, 100.0))
        assert np.array_equal(f2, c * f1)

    def test_scaling_general(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        f1 = extract_features(Trace(x, 100.0))
        f2 = extract_features(Trace(3.7 * x, 100.0))
        assert np.allclose(f2, 3.7 * f1, rtol=1e-12)

    def test_feature_lengths_match_source(self):
        x = Trace(np.arange(100.0), 10.0)
        f = extract_features(x)
        assert len(f) == len(x)
        assert np.all(f >= 0)


def _assert_close_to_upsampled(x: Trace, factor: int) -> None:
    """The slope `extract_features` gives each high-rate step of
    `upsample(x, factor)` against its reference oracle, the per-step slope
    of the upsampled trace itself."""
    got = _held(extract_features(x), factor)
    ref = _extract_features_concat(x, factor)
    assert got.shape == ref.shape == ((len(x) - 1) * factor + 1,)
    assert got[0] == 0.0
    if factor == 1:
        assert got.tobytes() == ref.tobytes()
        return
    # The upsampled steps are rounded to the size of the samples themselves,
    # so their differences are exact only to eps times that, not to eps
    # times the difference.
    atol = 16 * np.finfo(float).eps * float(np.max(np.abs(x.samples))) * x.rate_hz * factor
    assert np.allclose(got, ref, rtol=1e-9, atol=atol)


class TestClosedForm:
    @given(signal_arrays, st.integers(min_value=1, max_value=64),
           st.sampled_from([1.0, 2000.0, 27524.7]))
    def test_matches_upsampled_trace(self, x, factor, rate):
        _assert_close_to_upsampled(Trace(x, rate), factor)

    @pytest.mark.parametrize("factor", [1, 30, 50, 64])
    def test_survey_event_matches_upsampled_trace(self, factor):
        x = Trace(np.random.default_rng(factor).normal(size=2000), 2000.0)
        _assert_close_to_upsampled(x, factor)

    def test_ramp_slope_at_factor(self):
        # a ramp on the ADC grid: every high-rate step has the same slope
        f = _held(extract_features(Trace(7.0 * np.arange(40) / 100.0, 100.0)), 9)
        assert len(f) == 39 * 9 + 1
        assert f[0] == 0.0
        assert np.allclose(f[1:], 7.0, rtol=1e-12)

    def test_too_short_counts_steps(self):
        # no trace is too short: a single sample has the slope 0, and three
        # samples at factor 50 are 101 high-rate steps
        assert extract_features(Trace(np.ones(1), 10.0)).tolist() == [0.0]
        x = Trace(np.arange(3.0), 2000.0)
        assert extract_features(x).tolist() == [0.0, 2000.0, 2000.0]
        assert len(run_activation(x, ActivationConfig(), 50, seed=0, factor=50)) == 101

    @pytest.mark.parametrize("factor", [0, -1, 2.5, 2.0, "2"])
    def test_bad_factor(self, factor):
        with pytest.raises(ValueError, match="factor must be a positive integer"):
            run_activation(Trace(np.arange(10.0), 10.0), ActivationConfig(), 1, 0, factor)


class TestDriveVoltage:
    def _features(self, slope_value):
        rate = 1000.0
        x = Trace(slope_value * np.arange(50) / rate, rate)
        return extract_features(x)

    def test_zero_slope_zero_volts(self):
        f = extract_features(Trace(np.zeros(50), 1000.0))
        assert drive_voltages(f, AfeConfig())[10] == 0.0

    def test_gain_arithmetic(self):
        cfg = AfeConfig(slope_gain=0.01)
        f = self._features(100.0)
        assert drive_voltages(f, cfg)[20] == pytest.approx(1.0, rel=1e-9)

    def test_index_out_of_range(self):
        cfg = AfeConfig()
        f = self._features(1.0)
        with pytest.raises(IndexError):
            drive_voltage(f, cfg, 50)

    def test_vectorized_matches_scalar(self):
        cfg = AfeConfig(slope_gain=0.5)
        f = self._features(10.0)
        assert drive_voltages(f.copy(), cfg)[7] == drive_voltage(f, cfg, 7)

    @given(signal_arrays, st.integers(min_value=1, max_value=8),
           st.floats(min_value=1e-6, max_value=1e3))
    def test_at_steps_matches_indexed_full_drive(self, x, spt, gain):
        # the digital source's drive at its sync ticks, scaled in place
        cfg = AfeConfig(slope_gain=gain)
        f = extract_features(Trace(x, 1000.0))
        ticks = np.arange(0, len(f), spt, dtype=np.int64)
        full = drive_voltages_full(f, cfg)
        at_ticks = f[ticks]
        assert drive_voltages(at_ticks, cfg) is at_ticks
        assert at_ticks.tobytes() == full[ticks].tobytes()


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
