import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from probsense.traces import (
    Trace,
    TraceError,
    load_trace,
    ricker,
    synth_event,
    upsample,
    write_csv,
    write_trace,
)

finite_arrays = arrays(
    np.float64,
    st.integers(min_value=2, max_value=200),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)

# Every finite float64, with signed zero, subnormals and huge magnitudes forced in.
csv_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _write_trace_loop(trace, path, include_time=True):
    """Reference: the per-line writer that `write_trace` replaced."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if include_time:
            fh.write("time_s,value\n")
            for k, v in enumerate(trace.samples.tolist()):
                fh.write(f"{trace.t0_s + k / trace.rate_hz!r},{v!r}\n")
        else:
            fh.write("value\n")
            for v in trace.samples.tolist():
                fh.write(f"{v!r}\n")


# A rate whose ADC stream rate after upsampling by 42, (r * 42) / 42, is not r
# (as for about 9 % of random rates): two grids that differ in the last bits.
ODD_RATE = 27524.72501488567
ODD_FACTOR = 42

grid_rates = st.one_of(
    st.sampled_from([ODD_RATE, ODD_RATE * ODD_FACTOR / ODD_FACTOR, 2000.0]),
    st.floats(min_value=1e-3, max_value=1e9),
)
grid_t0s = st.one_of(st.sampled_from([0.0, 3.7, -1.5]), st.floats(min_value=-1e6, max_value=1e6))


def _upsample_repeat(trace, factor):
    """Reference oracle for `upsample`: repeated and tiled segment arrays."""
    if factor == 1:
        return trace
    x = trace.samples
    n = x.size
    if n == 1:
        return Trace(x, trace.rate_hz * factor, trace.t0_s)
    base = np.repeat(x[:-1], factor)
    delta = np.repeat(np.diff(x), factor)
    frac = np.tile(np.arange(factor) / factor, n - 1)
    seg = base + delta * frac
    lo = np.repeat(np.minimum(x[:-1], x[1:]), factor)
    hi = np.repeat(np.maximum(x[:-1], x[1:]), factor)
    seg = np.clip(seg, lo, hi)
    out = np.concatenate([seg, x[-1:]])
    return Trace(out, trace.rate_hz * factor, trace.t0_s)


class TestTrace:
    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            Trace(np.array([]), 1000.0)

    def test_rejects_nan_with_row(self):
        with pytest.raises(TraceError, match="non-finite value at row 2"):
            Trace(np.array([0.0, 1.0, np.nan, 2.0]), 1000.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(TraceError):
            Trace(np.array([1.0]), 0.0)

    def test_samples_are_read_only(self):
        t = Trace(np.array([1.0, 2.0]), 10.0)
        with pytest.raises(ValueError):
            t.samples[0] = 5.0

    def test_times(self):
        t = Trace(np.array([1.0, 2.0, 3.0]), 10.0, t0_s=1.0)
        assert np.allclose(t.times_s, [1.0, 1.1, 1.2])

    def test_copies_a_writable_array(self):
        x = np.array([1.0, 2.0, 3.0])
        t = Trace(x, 10.0)
        x[0] = 9.0
        assert t.samples[0] == 1.0 and not np.shares_memory(t.samples, x)
        assert x.flags.writeable  # the caller's array is left as it was

    def test_copies_a_read_only_view_of_a_writable_base(self):
        base = np.array([1.0, 2.0, 3.0])
        view = base[1:]
        view.flags.writeable = False
        t = Trace(view, 10.0)
        base[1] = 9.0
        assert t.samples[0] == 2.0 and not np.shares_memory(t.samples, base)

    def test_copies_a_read_only_array_that_owns_its_memory(self):
        # Its owner may make it writable again.
        x = np.array([1.0, 2.0])
        x.flags.writeable = False
        t = Trace(x, 10.0)
        x.flags.writeable = True
        x[0] = 9.0
        assert t.samples[0] == 1.0 and not np.shares_memory(t.samples, x)

    def test_adopt_keeps_the_array_read_only(self):
        x = np.array([1.0, 2.0])
        t = Trace._adopt(x, 10.0, 0.5)
        assert t.samples is x and not x.flags.writeable
        assert (t.rate_hz, t.t0_s) == (10.0, 0.5)

    def test_adopted_array_is_still_checked(self):
        with pytest.raises(TraceError, match="non-finite value at row 1"):
            Trace._adopt(np.array([1.0, np.inf]), 10.0)
        with pytest.raises(TraceError, match="non-empty"):
            Trace._adopt(np.zeros((2, 2)), 10.0)
        with pytest.raises(TraceError, match="rate_hz"):
            Trace._adopt(np.zeros(2), -1.0)


class TestCsvRoundTrip:
    def test_value_only_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        t = Trace(rng.normal(size=777) * 1e-3, 2000.0, t0_s=0.25)
        path = tmp_path / "t.csv"
        write_csv(path, "value", t.samples)
        back = load_trace(path, rate_hz=t.rate_hz, t0_s=t.t0_s)
        assert np.array_equal(back.samples, t.samples)
        assert back.rate_hz == t.rate_hz
        assert back.t0_s == t.t0_s

    def test_time_column_round_trip(self, tmp_path):
        t = synth_event(1.0, 2000.0, 50.0, 0.5, 1.0, 0.01, seed=3)
        path = tmp_path / "t.csv"
        write_trace(t, path)
        back = load_trace(path)
        assert np.array_equal(back.samples, t.samples)
        assert back.rate_hz == pytest.approx(t.rate_hz, rel=1e-9)

    def test_csv_shape(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(Trace(np.array([1.0, 2.0]), 2000.0), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,value"
        assert len(lines) == 3

    def test_2000_rows_at_2khz(self, tmp_path):
        t = synth_event(1.0, 2000.0, 50.0, 0.5, 1.0, 0.0, seed=0)
        path = tmp_path / "t.csv"
        write_trace(t, path)
        back = load_trace(path)
        assert len(back) == 2000
        assert back.rate_hz == pytest.approx(2000.0, rel=1e-9)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("value\n")
        with pytest.raises(TraceError, match="empty"):
            load_trace(path, rate_hz=100.0)

    @pytest.mark.parametrize("body", ["\n", "\n \r\n\t\n"])
    def test_blank_body_is_empty_without_a_warning(self, body, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_bytes(("value\n" + body).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TraceError, match="empty"):
                load_trace(path, rate_hz=100.0)

    def test_blank_lines_and_bom_accepted(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufefftime_s,value\r\n\r\n0.0,1.0\r\n\n0.5,2.0\n".encode())
        t = load_trace(path)
        assert t.samples.tolist() == [1.0, 2.0] and t.rate_hz == 2.0

    def test_unparseable_body_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.0\nabc\n")
        with pytest.raises(TraceError, match="unparseable CSV data in .*bad.csv"):
            load_trace(path, rate_hz=100.0)

    def test_nan_row_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("value\n1.0\nnan\n2.0\n")
        with pytest.raises(TraceError, match="non-finite value at row 1"):
            load_trace(path, rate_hz=100.0)

    def test_jittered_grid_rejected(self, tmp_path):
        # 1 % timestamp jitter is far outside the 1 ppm uniformity tolerance
        rng = np.random.default_rng(4)
        t = np.arange(100) / 1000.0
        t += rng.uniform(-0.01, 0.01, size=t.size) / 1000.0
        t.sort()
        path = tmp_path / "jitter.csv"
        with open(path, "w") as fh:
            fh.write("time_s,value\n")
            for ti in t.tolist():
                fh.write(f"{ti!r},0.5\n")
        with pytest.raises(TraceError, match="non-uniform grid"):
            load_trace(path)

    def test_value_only_needs_rate(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("value\n1.0\n")
        with pytest.raises(TraceError, match="rate_hz"):
            load_trace(path)

    def test_unknown_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(TraceError, match="header"):
            load_trace(path)

    # Each example overwrites the same two files, so a shared tmp_path is fine.
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        arrays(np.float64, st.integers(min_value=1, max_value=60), elements=csv_floats),
        st.floats(min_value=1e-3, max_value=1e9),
        st.floats(min_value=-1e6, max_value=1e6),
        st.booleans(),
    )
    def test_write_trace_matches_line_loop(self, tmp_path, x, rate, t0, include_time):
        t = Trace(x, rate, t0_s=t0)
        if include_time:
            write_trace(t, tmp_path / "new.csv")
        else:
            write_csv(tmp_path / "new.csv", "value", t.samples)
        _write_trace_loop(t, tmp_path / "ref.csv", include_time)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    # Several grids in turn in one process, on repeated and fresh (t0, rate)
    # keys, with n from 1 to 3000 rows.
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=25)
    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=3000), grid_rates, grid_t0s),
                    min_size=1, max_size=4))
    def test_grids_in_turn_match_line_loop(self, tmp_path, grids):
        rng = np.random.default_rng(len(grids))
        for n, rate, t0 in grids:
            t = Trace(rng.normal(size=n), rate, t0_s=t0)
            write_trace(t, tmp_path / "new.csv")
            _write_trace_loop(t, tmp_path / "ref.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_write_csv_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", "a,b", [1.0, 2.0], [1.0])
        assert not (tmp_path / "x.csv").exists()

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"time_s,value\r\n0.0,1.0\r\n0.001,2.0\r\n0.002,3.0\r\n")
        t = load_trace(path)
        assert np.array_equal(t.samples, [1.0, 2.0, 3.0])
        assert t.rate_hz == pytest.approx(1000.0, rel=1e-9)


class TestSynthEvent:
    def test_noiseless_peak_equals_amplitude(self):
        t = synth_event(1.0, 2000.0, 50.0, 0.437, 1.0, 0.0, seed=0)
        assert abs(np.max(np.abs(t.samples)) - 1.0) < 1e-9

    def test_same_seed_identical(self):
        a = synth_event(1.0, 2000.0, 50.0, 0.5, 1.0, 0.02, seed=42)
        b = synth_event(1.0, 2000.0, 50.0, 0.5, 1.0, 0.02, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seed_differs(self):
        a = synth_event(1.0, 2000.0, 50.0, 0.5, 1.0, 0.02, seed=42)
        b = synth_event(1.0, 2000.0, 50.0, 0.5, 1.0, 0.02, seed=43)
        assert not np.array_equal(a.samples, b.samples)

    def test_noiseless_bit_exact_reproducible(self):
        a = synth_event(0.5, 2000.0, 50.0, 0.25, 2.0, 0.0, seed=1)
        b = synth_event(0.5, 2000.0, 50.0, 0.25, 2.0, 0.0, seed=999)
        assert np.array_equal(a.samples, b.samples)  # seed only feeds the noise

    def test_pre_onset_noise_rms(self):
        # pre-onset window is pure noise: sample RMS within 10 % of requested
        t = synth_event(1.0, 2000.0, 50.0, 0.7, 1.0, 0.01, seed=5)
        pre = t.samples[: int(0.6 * 2000)]  # stop 0.1 s before onset
        assert pre.size >= 1000
        rms = np.sqrt(np.mean(pre**2))
        assert 0.009 <= rms <= 0.011

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(onset_s=0.0),
            dict(onset_s=2.0),
            dict(wavelet_f0_hz=1500.0),
            dict(amplitude=0.0),
            dict(noise_rms=-0.1),
            dict(noise_rms=float("nan")),
        ],
    )
    def test_parameter_validation(self, kwargs):
        base = dict(
            duration_s=1.0, rate_hz=2000.0, wavelet_f0_hz=50.0,
            onset_s=0.5, amplitude=1.0, noise_rms=0.0, seed=0,
        )
        with pytest.raises(ValueError):
            synth_event(**{**base, **kwargs})

    def test_ricker_shape(self):
        assert ricker(0.0, 50.0) == 1.0
        # zero crossings at pi^2 f0^2 t^2 = 1/2
        t_zero = np.sqrt(0.5) / (np.pi * 50.0)
        assert abs(ricker(t_zero, 50.0)) < 1e-12


class TestUpsample:
    def test_factor_one_identity(self):
        t = Trace(np.array([1.0, 2.0, 3.0]), 10.0)
        u = upsample(t, 1)
        assert np.array_equal(u.samples, t.samples)
        assert u.rate_hz == t.rate_hz

    @pytest.mark.parametrize("factor", [0, -2, 2.5, 2.0, "2", None])
    def test_factor_must_be_a_positive_integer(self, factor):
        with pytest.raises(ValueError, match="factor must be a positive integer"):
            upsample(Trace(np.array([1.0, 2.0, 3.0]), 10.0), factor)

    def test_factor_two_midpoints(self):
        u = upsample(Trace(np.array([0.0, 1.0]), 1.0), 2)
        assert np.array_equal(u.samples, [0.0, 0.5, 1.0])
        assert u.rate_hz == 2.0

    def test_originals_preserved_exactly(self):
        rng = np.random.default_rng(8)
        t = Trace(rng.normal(size=50), 100.0)
        u = upsample(t, 7)
        assert np.array_equal(u.samples[::7], t.samples)

    def test_sine_against_analytic(self):
        # 50 Hz unit sine at 2 kHz upsampled x10 vs closed-form evaluation.
        # Linear interpolation of a sine has midpoint error (w*dt)^2/8, i.e.
        # 3.08e-3 on this grid; the measurement must match that bound.
        rate = 2000.0
        n = 200
        t = np.arange(n) / rate
        trace = Trace(np.sin(2 * np.pi * 50.0 * t), rate)
        u = upsample(trace, 10)
        t_fine = np.arange(len(u)) / u.rate_hz
        dev = np.max(np.abs(u.samples - np.sin(2 * np.pi * 50.0 * t_fine)))
        bound = (2 * np.pi * 50.0 / rate) ** 2 / 8
        assert dev < bound
        assert dev == pytest.approx(bound, rel=0.05)

    def test_output_is_kept_without_a_copy(self):
        trace = Trace(np.array([0.0, 1.0, -1.0]), 10.0)
        u = upsample(trace, 4)
        assert not u.samples.flags.writeable and u.samples.flags.owndata
        assert not np.shares_memory(u.samples, trace.samples)

    def test_overflowing_segment_still_rejected(self):
        # The slope overflows to inf and the first interpolated point is nan:
        # Trace's finiteness check still runs on the kept output.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TraceError, match="non-finite value at row 0"):
                upsample(Trace(np.array([-1e308, 1e308]), 1.0), 4)

    def test_factor_zero_rejected(self):
        with pytest.raises(ValueError):
            upsample(Trace(np.array([1.0, 2.0]), 1.0), 0)

    @given(
        arrays(np.float64, st.one_of(st.integers(1, 3), st.integers(1, 200)), elements=st.one_of(
            st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310]),
            st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
        )),
        st.one_of(st.sampled_from([1, 2, 3, 50]), st.integers(min_value=1, max_value=64)),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    # subnormal rounding lands on +0.0 past a -0.0 bound: each clip bound acts
    @example(x=np.array([-5e-324, -0.0]), factor=3, t0_s=0.0)
    @example(x=np.array([5e-324, -0.0]), factor=3, t0_s=0.0)
    def test_matches_repeat_oracle(self, x, factor, t0_s):
        # 1- and 2-sample traces, factor 1 (no copy), signed zeros, subnormals
        trace = Trace(x, 100.0, t0_s)
        got, ref = upsample(trace, factor), _upsample_repeat(trace, factor)
        assert got.samples.tobytes() == ref.samples.tobytes()
        assert (got.rate_hz, got.t0_s) == (ref.rate_hz, ref.t0_s)

    @given(finite_arrays, st.integers(min_value=1, max_value=9))
    def test_envelope_property(self, x, factor):
        u = upsample(Trace(x, 100.0), factor)
        assert np.all(u.samples >= x.min())
        assert np.all(u.samples <= x.max())

    @given(finite_arrays, st.integers(min_value=2, max_value=9))
    def test_length_and_rate(self, x, factor):
        u = upsample(Trace(x, 100.0), factor)
        assert len(u) == (x.size - 1) * factor + 1
        assert u.rate_hz == 100.0 * factor
