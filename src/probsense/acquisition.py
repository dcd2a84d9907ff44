"""Gated acquisition, linear-interpolation reconstruction, NMSE and savings.

The P-ADC samples the signal at gated sync ticks of the activation's
high-rate grid; the R-ADC at every sync tick. Both streams carry integer
ticks of the regular ADC grid. Reconstruction interpolates linearly back
onto that grid, holding the nearest sample value beyond the first/last point.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .activation import ActivationTrace
from .traces import Trace


@dataclass(frozen=True, eq=False)
class SampleStream:
    """Samples at integer ticks of a regular ADC grid (tick k is at t0_s + k / rate_hz)."""

    ticks: np.ndarray
    values: np.ndarray
    rate_hz: float  # rate of the ADC grid the ticks count
    t0_s: float = 0.0

    def __post_init__(self):
        if self.ticks.shape != self.values.shape:
            raise ValueError("ticks and values must have identical length")
        if not np.issubdtype(self.ticks.dtype, np.integer):
            raise ValueError(f"ticks must be integers, got {self.ticks.dtype}")
        if self.ticks.size > 1 and np.any(np.diff(self.ticks) <= 0):
            raise ValueError("ticks must be strictly increasing")

    def __len__(self) -> int:
        return self.ticks.size

    @property
    def times_s(self) -> np.ndarray:
        return self.t0_s + self.ticks / self.rate_hz


def _sample(x: Trace, a: ActivationTrace, steps: np.ndarray) -> SampleStream:
    """The values of `x` at high-rate steps of `a`, which was run on `x`.

    `upsample` keeps sample k of `x` at step k * factor, so the value at a
    step is x[step // factor] when every sync tick falls on such a step.
    """
    f = a.factor
    if (len(x) - 1) * f + 1 != len(a) or x.rate_hz * f != a.rate_hz:
        raise ValueError("activation trace was not derived from this grid")
    if a.steps_per_tick % f:
        raise ValueError(f"sync ticks every {a.steps_per_tick} steps fall between the "
                         f"trace's samples, {f} steps apart")
    return SampleStream(
        ticks=steps // a.steps_per_tick,
        values=x.samples[steps // f],
        rate_hz=a.rate_hz / a.steps_per_tick,
        t0_s=x.t0_s,
    )


def sample_gated(x: Trace, a: ActivationTrace) -> SampleStream:
    """P-ADC: capture the signal at every gated sync tick."""
    return _sample(x, a, a.sync_ticks[a.gate[a.sync_ticks] > 0])


def sample_regular(x: Trace, a: ActivationTrace) -> SampleStream:
    """R-ADC: capture the signal at every sync tick."""
    return _sample(x, a, a.sync_ticks)


def reconstruct(s: SampleStream, rate_hz: float, n: int, t0_s: float = 0.0) -> Trace:
    """Linear interpolation onto a regular grid, constant beyond the ends.

    Interpolation runs on the stream's ticks rather than raw times so
    retained samples are reproduced exactly.
    """
    if len(s) < 2:
        raise ValueError(f"need at least 2 samples to reconstruct, got {len(s)}")
    if abs(s.rate_hz - rate_hz) > 1e-9 * rate_hz:
        raise ValueError(
            f"stream grid ({s.rate_hz} Hz) does not match target grid ({rate_hz} Hz)"
        )
    grid = np.arange(n, dtype=np.float64)
    out = np.interp(grid, s.ticks.astype(np.float64), s.values)
    return Trace._adopt(out, rate_hz, t0_s)


def nmse_time(orig: Trace, recon: Trace) -> float:
    """Energy-normalized mean squared error: sum(e^2) / sum(orig^2)."""
    if len(orig) != len(recon) or orig.rate_hz != recon.rate_hz:
        raise ValueError("traces must share length and rate")
    denom = float(np.sum(orig.samples**2))
    if denom == 0.0:
        raise ValueError("all-zero original: NMSE normalization undefined")
    err = orig.samples - recon.samples
    return float(np.sum(err**2) / denom)


def nmse_freq(orig: Trace, recon: Trace, band_hz: tuple[float, float]) -> float:
    """NMSE between DFT magnitude spectra restricted to a frequency band.

    Full-length rectangular-window DFT; bins with low <= f <= high enter the
    same energy normalization as `nmse_time`.
    """
    if len(orig) != len(recon) or orig.rate_hz != recon.rate_hz:
        raise ValueError("traces must share length and rate")
    low, high = band_hz
    nyquist = orig.rate_hz / 2
    if not (0 <= low < high <= nyquist):
        raise ValueError(f"band {band_hz} is empty or exceeds Nyquist ({nyquist} Hz)")
    freqs = np.fft.rfftfreq(len(orig), d=1.0 / orig.rate_hz)
    sel = (freqs >= low) & (freqs <= high)
    if not np.any(sel):
        raise ValueError(f"band {band_hz} contains no DFT bins")
    mag_o = np.abs(np.fft.rfft(orig.samples))[sel]
    mag_r = np.abs(np.fft.rfft(recon.samples))[sel]
    denom = float(np.sum(mag_o**2))
    if denom == 0.0:
        raise ValueError("original has no in-band energy")
    return float(np.sum((mag_o - mag_r) ** 2) / denom)


def savings(p: SampleStream, r: SampleStream) -> tuple[float, float]:
    """(savings_pct, active_time_pct) of the P-ADC relative to the R-ADC.

    One sync period of ADC active time is attributed per sample, so
    active_time_pct is the complement of savings_pct; the two sum to 100
    exactly.
    """
    if len(r) == 0:
        raise ValueError("reference stream is empty")
    sav = 100.0 * (1.0 - len(p) / len(r))
    return sav, 100.0 - sav


@dataclass(frozen=True)
class EventEval:
    """Per-event metrics; `error` is set (and metrics None) on failure."""

    index: int
    nmse_time: float | None = None
    nmse_freq: float | None = None
    n_samples_p: int | None = None
    n_samples_r: int | None = None
    savings_pct: float | None = None
    active_time_pct: float | None = None
    event_window_savings_pct: float | None = None
    detection_latency_s: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class EvalReport:
    """Aggregate survey metrics (means over events; medians alongside)."""

    nmse_time: float
    nmse_freq: float
    n_samples_p: int
    n_samples_r: int
    savings_pct: float
    active_time_pct: float
    nmse_time_median: float
    nmse_freq_median: float
    n_events: int
    n_failed: int
    per_event: tuple[EventEval, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        agg = asdict(self)
        per_event = agg.pop("per_event")
        return {"aggregate": agg, "per_event": list(per_event)}
