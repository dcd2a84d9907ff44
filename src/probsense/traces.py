"""Uniformly sampled traces: containers, CSV ingestion, synthetic events, rate conversion.

The "analog" domain of the simulator is a uniform high-rate grid produced by
`upsample`; acquired data lives on the coarser ADC grid. Synthetic survey
events are Ricker wavelets plus white noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

# Relative tolerance for declaring a timestamp column uniform.
UNIFORM_GRID_TOL = 1e-6


class TraceError(ValueError):
    """Malformed trace file or invalid trace parameters."""


class RateMismatchError(TraceError):
    """A timestamped trace file whose grid is not the rate the caller gave."""


@dataclass(frozen=True, eq=False)
class Trace:
    """A uniformly sampled real-valued signal (volts by convention).

    samples are copied into a read-only float64 array, so later writes to the
    caller's array do not reach the trace; all values must be finite and the
    trace non-empty. Only arrays the package has just built and holds nowhere
    else (`upsample`'s and `reconstruct`'s outputs, the slope sweep's ramp)
    are kept without a copy, through `Trace._adopt`, after the same checks.
    """

    samples: np.ndarray
    rate_hz: float
    t0_s: float = 0.0

    def __post_init__(self):
        self._set(np.array(self.samples, dtype=np.float64), self.rate_hz, self.t0_s)

    @classmethod
    def _adopt(cls, arr: np.ndarray, rate_hz: float, t0_s: float = 0.0) -> Trace:
        """A Trace over the float64 array `arr` itself, which the caller has
        just built and holds nowhere else."""
        trace = object.__new__(cls)
        trace._set(arr, rate_hz, t0_s)
        return trace

    def _set(self, arr: np.ndarray, rate_hz: float, t0_s: float) -> None:
        if arr.ndim != 1 or arr.size == 0:
            raise TraceError("trace must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            k = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise TraceError(f"non-finite value at row {k}")
        if not (rate_hz > 0 and np.isfinite(rate_hz)):
            raise TraceError(f"rate_hz must be positive and finite, got {rate_hz}")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "rate_hz", float(rate_hz))
        object.__setattr__(self, "t0_s", float(t0_s))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def times_s(self) -> np.ndarray:
        return self.t0_s + np.arange(len(self)) / self.rate_hz


def load_trace(path, rate_hz: float | None = None, t0_s: float = 0.0) -> Trace:
    """Read a trace from CSV with header ``time_s,value`` or ``value``.

    With a time column the rate is inferred and the grid must be uniform to
    within UNIFORM_GRID_TOL. A value-only file needs an explicit rate_hz;
    this path round-trips `write_csv(path, "value", samples)` bit-exactly.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"trace file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().strip().lstrip("\ufeff")
        cols = [c.strip() for c in header.split(",")]
        if cols == ["time_s", "value"]:
            has_time = True
        elif cols == ["value"]:
            has_time = False
        else:
            raise TraceError(f"unrecognized CSV header {header!r} in {path}")
        # The first non-blank line is read here: a body without one is an
        # error, not loadtxt's "no data" warning. loadtxt reads the rest of
        # the open file, with no copy of the body.
        first = next((line for line in fh if line.strip()), None)
        if first is None:
            raise TraceError(f"empty trace file: {path}")
        try:
            data = np.loadtxt(chain((first,), fh), delimiter=",", ndmin=2, dtype=np.float64)
        except ValueError as exc:
            raise TraceError(f"unparseable CSV data in {path}: {exc}") from None
    if data.size == 0:
        raise TraceError(f"empty trace file: {path}")
    values = data[:, 1] if has_time else data[:, 0]
    if not np.all(np.isfinite(values)):
        k = int(np.flatnonzero(~np.isfinite(values))[0])
        raise TraceError(f"non-finite value at row {k}")
    if has_time:
        t = data[:, 0]
        if not np.all(np.isfinite(t)):
            k = int(np.flatnonzero(~np.isfinite(t))[0])
            raise TraceError(f"non-finite value at row {k}")
        if len(t) < 2:
            raise TraceError("time column needs at least two rows to infer a rate")
        dt = np.diff(t)
        dt_mean = (t[-1] - t[0]) / (len(t) - 1)
        if dt_mean <= 0 or np.any(np.abs(dt - dt_mean) > UNIFORM_GRID_TOL * abs(dt_mean)):
            raise TraceError(f"non-uniform grid in {path}")
        inferred = 1.0 / dt_mean
        if rate_hz is not None and abs(inferred - rate_hz) > UNIFORM_GRID_TOL * rate_hz:
            raise RateMismatchError(f"rate mismatch in {path}: file grid is {inferred:.6g} Hz, "
                                    f"caller said {rate_hz:.6g} Hz")
        return Trace(values, inferred, float(t[0]))
    if rate_hz is None:
        raise TraceError(f"{path} has no time column; pass rate_hz explicitly")
    return Trace(values, rate_hz, t0_s)


# The text of the time grid `write_trace` last wrote, keyed on (t0_s, rate_hz),
# for grids of at most GRID_TEXT_MAX_ROWS rows (about 5 MB of str objects).
# It pays when traces share their start time and rate, as a synthetic survey's
# events and their reconstructions do. Traces that start at different times
# miss and format their own grid, as they would without it.
GRID_TEXT_MAX_ROWS = 1 << 16
_grid_text_kept: dict[tuple[float, float], list[str]] = {}


def _grid_text(t0_s: float, rate_hz: float, n: int) -> list[str]:
    """repr of each time t0_s + k / rate_hz for k < n; the list may be longer."""
    text = _grid_text_kept.get((t0_s, rate_hz))
    if text is None or len(text) < n:
        text = list(_float_text(t0_s + np.arange(n) / rate_hz))
        _grid_text_kept.clear()
        if n <= GRID_TEXT_MAX_ROWS:
            _grid_text_kept[t0_s, rate_hz] = text
    return text


def _float_text(values):
    return map(repr, np.asarray(values, dtype=np.float64).tolist())


def _write_rows(path, header: str, *columns) -> None:
    """Write equal-length columns of text as CSV rows under `header`."""
    text = "\n".join([header, *map(",".join, zip(*columns, strict=True))]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_csv(path, header: str, *columns) -> None:
    """Write equal-length columns as CSV rows under `header`.

    Values are written as float64 with repr, so they survive a round trip.
    """
    _write_rows(path, header, *map(_float_text, columns))


def write_trace(trace: Trace, path) -> None:
    """Write a trace as CSV with header ``time_s,value``.

    The time column's text is formatted once per grid (t0_s, rate_hz) and
    reused while later traces stay on that grid.
    """
    n = len(trace)
    times = _grid_text(trace.t0_s, trace.rate_hz, n)[:n]
    _write_rows(path, "time_s,value", times, _float_text(trace.samples))


def ricker(t, f0_hz: float):
    """Zero-phase Ricker wavelet with peak frequency f0_hz, unit peak at t=0."""
    a = (np.pi * f0_hz * np.asarray(t, dtype=np.float64)) ** 2
    return (1.0 - 2.0 * a) * np.exp(-a)


def synth_event(
    duration_s: float,
    rate_hz: float,
    wavelet_f0_hz: float,
    onset_s: float,
    amplitude: float,
    noise_rms: float,
    seed: int,
) -> Trace:
    """Synthesize one active-source event: a Ricker wavelet in white noise.

    The wavelet center is snapped to the sample grid so the noiseless peak
    equals `amplitude` exactly. Deterministic per seed; a zero noise_rms
    skips the generator entirely and is bit-reproducible across platforms.
    """
    if not 0 < onset_s < duration_s:
        raise ValueError(f"onset_s must lie inside (0, {duration_s}), got {onset_s}")
    if not 0 < wavelet_f0_hz < rate_hz / 2:
        raise ValueError(f"wavelet_f0_hz must lie inside (0, Nyquist), got {wavelet_f0_hz}")
    if amplitude <= 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    if not noise_rms >= 0:
        raise ValueError(f"noise_rms must be non-negative, got {noise_rms}")
    n = int(round(duration_s * rate_hz))
    if n < 2:
        raise ValueError("duration too short for the given rate")
    t = np.arange(n) / rate_hz
    onset_snapped = round(onset_s * rate_hz) / rate_hz
    x = amplitude * ricker(t - onset_snapped, wavelet_f0_hz)
    if noise_rms > 0:
        rng = np.random.default_rng(seed)
        x = x + rng.normal(0.0, noise_rms, n)
    return Trace(x, rate_hz, 0.0)


def _step_count(name: str, value) -> int:
    """value as an int, after checking it is a positive integer (a step count)."""
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return int(value)


def upsample(trace: Trace, factor: int) -> Trace:
    """Linearly interpolate onto a grid `factor` times finer.

    Original samples are preserved exactly at indices k*factor; interior
    points are clipped to each segment's hull so the min/max envelope of the
    input bounds every output value.
    """
    factor = _step_count("factor", factor)
    if factor == 1:
        return trace
    x = trace.samples
    n = x.size
    if n == 1:
        return Trace(x, trace.rate_hz * factor, trace.t0_s)
    # Each row of seg is one segment: base + delta * frac, clipped to the
    # segment's hull, computed in the output array itself. The clip is two
    # masked copies, so a tie with a bound (-0.0 against +0.0) takes the bound
    # whatever loop numpy picks for the broadcast bounds.
    out = np.empty((n - 1) * factor + 1)
    seg = out[:-1].reshape(n - 1, factor)
    np.multiply(np.diff(x)[:, None], np.arange(factor) / factor, out=seg)
    seg += x[:-1, None]
    lo, hi = np.minimum(x[:-1], x[1:])[:, None], np.maximum(x[:-1], x[1:])[:, None]
    np.copyto(seg, lo, where=seg <= lo)
    np.copyto(seg, hi, where=seg >= hi)
    out[-1] = x[-1]
    return Trace._adopt(out, trace.rate_hz * factor, trace.t0_s)
