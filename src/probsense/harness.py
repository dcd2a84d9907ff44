"""Survey experiment runner: P-ADC vs R-ADC pipelines, sweeps, and reports.

Events are processed independently with derived seeds (base_seed +
event_index), so a survey is reproducible event by event and report files are
byte-identical across runs of the same configuration. The synthetic survey is
fixed but for its energy SNR (`ExperimentConfig.snr_db`): 1 s events at
2 kHz, each a unit 50 Hz Ricker wavelet with its onset drawn from 0.3-0.7 s.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .acquisition import (
    EvalReport,
    EventEval,
    nmse_freq,
    nmse_time,
    reconstruct,
    sample_gated,
    sample_regular,
    savings,
)
from .activation import ActivationConfig, _hold_steps, detection_latency, run_activation
from .pbit import (
    activation_probability,
    iid_decisions,
    lfsr_from_seed,
    telegraph_tick_states,
)
from .traces import (
    RateMismatchError,
    Trace,
    load_trace,
    synth_event,
    write_csv,
    write_trace,
)

# Decouples the p-neuron seed stream from the synthesis noise seed stream.
NEURON_SEED_OFFSET = 499979

DEFAULT_BASE_SEED = 12345

# The synthetic active-source survey.
SYNTH_DURATION_S = 1.0
SYNTH_RATE_HZ = 2000.0
WAVELET_F0_HZ = 50.0
WAVELET_AMPLITUDE = 1.0
ONSET_MIN_S = 0.3
ONSET_MAX_S = 0.7


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: Path | None = None  # directory of event CSVs; None -> synthetic survey
    dataset_rate_hz: float | None = None  # sidecar rate for value-only CSVs
    snr_db: float = 26.0  # energy SNR of the synthetic survey's events
    n_events: int = 50
    activation: ActivationConfig = field(default_factory=ActivationConfig)
    upsample_factor: int = 50
    band_hz: tuple[float, float] = (0.0, 200.0)
    base_seed: int = DEFAULT_BASE_SEED
    output_dir: Path | None = None
    sweep: SweepGrid | None = None  # a sweep's grid; None -> VIN_GRID or SLOPE_GRID

    def __post_init__(self):
        rate = self.dataset_rate_hz
        if rate is not None and not (rate > 0 and np.isfinite(rate)):
            raise ValueError(f"dataset_rate_hz must be positive and finite, got {rate}")
        if rate is not None and self.dataset is None:
            raise ValueError(f"dataset_rate_hz = {rate:g} Hz applies only to a dataset "
                             f"replay; the synthetic survey runs at {SYNTH_RATE_HZ:g} Hz")
        if not np.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        if self.snr_db != ExperimentConfig.snr_db and self.dataset is not None:
            raise ValueError(f"snr_db = {self.snr_db:g} applies only to the synthetic survey, "
                             f"not a replay")
        for name in ("n_events", "upsample_factor", "base_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.n_events < 1:
            raise ValueError(f"n_events must be >= 1, got {self.n_events}")
        if self.upsample_factor < 1:
            raise ValueError(f"upsample_factor must be >= 1, got {self.upsample_factor}")


class GridError(ValueError):
    """A setting that would fail every event or sweep point: one the survey's
    ADC grid cannot work with, a sweep grid that cannot run, a dataset
    directory with no event to run, or an output directory that already
    holds a survey.

    `field` is the dotted ExperimentConfig path of the setting at fault.
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _check_grid(cfg: ExperimentConfig, rate_hz: float) -> None:
    """Reject a band that cannot work at ADC rate rate_hz."""
    low, high = cfg.band_hz
    if not 0 <= low < high <= rate_hz / 2:
        raise GridError("band_hz", f"band {low:g}:{high:g} Hz is empty or exceeds the "
                        f"Nyquist frequency {rate_hz / 2:g} Hz of the {rate_hz:g} Hz ADC grid")


def _survey_onsets(n_events: int, base_seed: int) -> tuple[float, ...]:
    """Per-event wavelet onsets, snapped to the event sample grid."""
    rng = np.random.default_rng((base_seed, 1))
    raw = ONSET_MIN_S + (ONSET_MAX_S - ONSET_MIN_S) * rng.random(n_events)
    return tuple(round(o * SYNTH_RATE_HZ) / SYNTH_RATE_HZ for o in raw.tolist())


def _synth_one(snr_db: float, onset_s: float, seed: int) -> Trace:
    """One survey event at energy SNR snr_db over the whole trace.

    The wavelet is built once: its noise is added as `synth_event` adds it,
    so the event is the one `synth_event` makes at that noise level.
    """
    clean = synth_event(
        SYNTH_DURATION_S, SYNTH_RATE_HZ, WAVELET_F0_HZ, onset_s,
        WAVELET_AMPLITUDE, 0.0, seed=0,
    )
    energy = float(np.sum(clean.samples**2))
    sigma = float(np.sqrt(energy / (10.0 ** (snr_db / 10.0) * len(clean))))
    if sigma == 0.0:
        return clean
    noise = np.random.default_rng(seed).normal(0.0, sigma, len(clean))
    return Trace(clean.samples + noise, SYNTH_RATE_HZ)


def _median(values: list[float]) -> float:
    """np.median of values, without the numpy.ma import np.median makes on
    first use: the middle value, or (a + b) / 2 of the middle two, as
    np.median computes it, and NaN if any value is NaN."""
    if any(math.isnan(v) for v in values):
        return math.nan
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def _event_digits(n_events: int) -> int:
    """Digits of the event number in a survey's file names, at least 3: all
    names are as long, so sorting by name sorts by event."""
    return max(3, len(str(n_events - 1)))


def synth_survey(
    snr_db: float, n_events: int, base_seed: int, directory: Path | str
) -> list[Path]:
    """Write the synthetic survey to directory as event_NNN.csv (N padded to
    `_event_digits`), each event as soon as it is made: the events
    `run_survey` synthesizes for the same seed.

    A directory that already holds CSV files raises FileExistsError before
    anything is written: a replay reads every CSV there, so older events
    would join the new survey. No file is deleted.
    """
    directory = Path(directory)
    existing = sorted(p.name for p in directory.glob("*.csv"))
    if existing:
        raise FileExistsError(f"{directory} already holds {len(existing)} CSV file(s) "
                              f"({existing[0]}, ...), "
                              f"which a replay would read with the new events; "
                              f"write to a new or empty directory")
    directory.mkdir(parents=True, exist_ok=True)
    paths, digits = [], _event_digits(n_events)
    for i, onset in enumerate(_survey_onsets(n_events, base_seed)):
        path = directory / f"event_{i:0{digits}d}.csv"
        write_trace(_synth_one(snr_db, onset, base_seed + i), path)
        paths.append(path)
    return paths


def _name_order(path: Path) -> tuple[list[str | int], str]:
    """Sort key of a file name with each run of digits read as a number, so
    event_9.csv comes before event_10.csv; names that read the same
    (event_9, event_09) fall back to plain name order."""
    parts: list[str | int] = re.split(r"(\d+)", path.name)
    parts[1::2] = [int(d) for d in parts[1::2]]
    return parts, path.name


def _event_paths(directory: Path | str) -> list[Path]:
    """The event CSV files of a survey directory, in `_name_order`."""
    paths = sorted(Path(directory).glob("*.csv"), key=_name_order)
    if not paths:
        raise GridError("dataset", f"no event CSV files in {directory}")
    return paths


def run_event(trace: Trace, cfg: ExperimentConfig, index: int, onset_s: float | None = None):
    """Run one event through activation -> P-ADC -> reconstruction.

    The activation runs on the trace upsampled by upsample_factor without
    building it, and the trace's own grid is the ADC grid: its ticks are
    the trace's samples, every upsample_factor-th high-rate step. With
    the onset of a synthetic event's WAVELET_F0_HZ wavelet, the event window
    savings and the detection latency are measured too.
    Returns (EventEval, p_stream, r_stream, recon).
    """
    factor = cfg.upsample_factor
    seed = cfg.base_seed + NEURON_SEED_OFFSET + index
    act = run_activation(trace, cfg.activation, seed, factor=factor)
    p_stream = sample_gated(trace, act)
    r_stream = sample_regular(trace, act)
    recon = reconstruct(p_stream, trace.rate_hz, len(trace), trace.t0_s)
    sav, active = savings(p_stream, r_stream)

    window_sav = None
    latency = None
    if onset_s is not None:
        half_width = 2.0 / WAVELET_F0_HZ
        lo, hi = onset_s - half_width, onset_s + half_width
        t_p, t_r = p_stream.times_s, r_stream.times_s
        in_win_p = np.sum((t_p >= lo) & (t_p <= hi))
        in_win_r = np.sum((t_r >= lo) & (t_r <= hi))
        if in_win_r > 0:
            window_sav = float(100.0 * (1.0 - in_win_p / in_win_r))
        # latency measured from where the wavelet emerges (half-period early)
        t_emerge = onset_s - 0.5 / WAVELET_F0_HZ
        onset_step = max(0, int(round((t_emerge - trace.t0_s) * act.rate_hz)))
        try:
            latency = detection_latency(act, onset_step)
        except ValueError:
            latency = None

    ev = EventEval(
        index=index,
        nmse_time=nmse_time(trace, recon),
        nmse_freq=nmse_freq(trace, recon, cfg.band_hz),
        n_samples_p=len(p_stream),
        n_samples_r=len(r_stream),
        savings_pct=sav,
        active_time_pct=active,
        event_window_savings_pct=window_sav,
        detection_latency_s=latency,
    )
    return ev, p_stream, r_stream, recon


def run_survey(cfg: ExperimentConfig) -> EvalReport:
    """Evaluate the first n_events of the survey; per-event failures
    (including load/synthesis errors) are recorded without aborting the
    remaining events.

    The survey's ADC rate is the synthetic rate_hz, the sidecar
    dataset_rate_hz, or else the rate of the first event that loads; every
    event must share it. A sidecar rate that event 0's own time column
    contradicts, a dataset directory with no event CSV files, or a band
    that cannot work at the survey's rate, raises `GridError` before any
    event runs.
    """
    if cfg.dataset is not None:
        paths = _event_paths(cfg.dataset)
        n = min(cfg.n_events, len(paths))
        onsets: tuple[float | None, ...] = (None,) * n

        def get_event(i: int) -> Trace:
            return load_trace(paths[i], rate_hz=cfg.dataset_rate_hz)
    else:
        n = cfg.n_events
        onsets = _survey_onsets(n, cfg.base_seed)

        def get_event(i: int) -> Trace:
            return _synth_one(cfg.snr_db, onsets[i], cfg.base_seed + i)

    rate = SYNTH_RATE_HZ if cfg.dataset is None else cfg.dataset_rate_hz
    # Dataset events loaded up front, kept so no file is read twice: event 0
    # checks a sidecar rate; without one, the first event that loads sets it.
    first: list[Trace | Exception] = []
    while cfg.dataset is not None and len(first) < n and (rate is None or not first):
        try:
            first.append(get_event(len(first)))
        except RateMismatchError as exc:
            raise GridError("dataset_rate_hz", str(exc)) from None
        except Exception as exc:  # noqa: BLE001 - recorded as that event's failure
            first.append(exc)
        else:
            if rate is None:
                rate = first[-1].rate_hz
    if rate is not None:
        _check_grid(cfg, rate)

    out_dir = Path(cfg.output_dir) if cfg.output_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    digits = _event_digits(n)

    results: list[EventEval] = []
    for i in range(n):
        try:
            trace = first[i] if i < len(first) else get_event(i)
            if isinstance(trace, Exception):
                raise trace
            if abs(trace.rate_hz - rate) > 1e-6 * rate:
                raise ValueError(
                    f"event rate {trace.rate_hz:.6g} Hz disagrees with survey rate "
                    f"{rate:.6g} Hz"
                )
            ev, p_stream, _, recon = run_event(trace, cfg, i, onsets[i])
            results.append(ev)
            if out_dir is not None:
                write_trace(recon, out_dir / f"recon_event_{i:0{digits}d}.csv")
                write_csv(out_dir / f"samples_event_{i:0{digits}d}.csv", "time_s,value",
                          p_stream.times_s, p_stream.values)
        except Exception as exc:  # noqa: BLE001 - contained per event by contract
            results.append(EventEval(index=i, error=f"{type(exc).__name__}: {exc}"))

    ok = [e for e in results if e.error is None]
    if not ok:
        raise RuntimeError("every event failed: " + "; ".join(e.error or "" for e in results))
    tot_p = sum(e.n_samples_p for e in ok)
    tot_r = sum(e.n_samples_r for e in ok)
    sav = 100.0 * (1.0 - tot_p / tot_r)
    report = EvalReport(
        nmse_time=float(np.mean([e.nmse_time for e in ok])),
        nmse_freq=float(np.mean([e.nmse_freq for e in ok])),
        n_samples_p=int(tot_p),
        n_samples_r=int(tot_r),
        savings_pct=sav,
        active_time_pct=100.0 - sav,
        nmse_time_median=_median([e.nmse_time for e in ok]),
        nmse_freq_median=_median([e.nmse_freq for e in ok]),
        n_events=n,
        n_failed=len(results) - len(ok),
        per_event=tuple(results),
    )
    if out_dir is not None:
        write_report(report, cfg, rate, out_dir / "report.json")
    return report


def _config_echo(cfg: ExperimentConfig, rate_hz: float, n_ticks: int) -> dict:
    """The config as run, with the hold in the steps that an event of n_ticks
    ADC samples, the longest that ran, used."""
    pn = cfg.activation.pneuron
    fe = cfg.activation.afe
    factor = cfg.upsample_factor
    hold = _hold_steps(cfg.activation, rate_hz * factor, (n_ticks - 1) * factor + 1)
    return {
        "dataset": str(cfg.dataset) if cfg.dataset is not None else None,
        "n_events": cfg.n_events,
        "base_seed": cfg.base_seed,
        "upsample_factor": cfg.upsample_factor,
        "band_hz": list(cfg.band_hz),
        "sync_rate_hz": rate_hz,
        "hold_steps": hold,
        "pneuron": {
            "beta": pn.beta, "v_ref_v": pn.v_ref_v, "source": pn.source, "tau_s": pn.tau_s,
        },
        "afe": {
            "slope_gain": fe.slope_gain, "amp_threshold_v": fe.amp_threshold_v,
        },
        "synth": None if cfg.dataset is not None else {
            "duration_s": SYNTH_DURATION_S, "rate_hz": SYNTH_RATE_HZ,
            "wavelet_f0_hz": WAVELET_F0_HZ, "amplitude": WAVELET_AMPLITUDE,
            "snr_db": cfg.snr_db, "onset_min_s": ONSET_MIN_S, "onset_max_s": ONSET_MAX_S,
        },
    }


def write_report(
    report: EvalReport, cfg: ExperimentConfig, rate_hz: float, path: Path | str
) -> None:
    """Write report.json; rate_hz is the survey's ADC rate, echoed as sync_rate_hz."""
    n_ticks = max(e.n_samples_r for e in report.per_event if e.error is None)
    doc = {"config": _config_echo(cfg, rate_hz, n_ticks)} | report.to_dict()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# Characterization sweeps
# --------------------------------------------------------------------------

MIN_TICKS_PER_POINT = 1000


@dataclass(frozen=True)
class SweepGrid:
    """A sweep's grid: `points` values evenly spaced from lo to hi, each run
    for `ticks` sync ticks; the rules both sweeps share raise `GridError`."""

    lo: float
    hi: float
    points: int
    ticks: int

    def __post_init__(self):
        if self.points < 1:
            raise GridError("sweep.points", f"need at least 1 point, got {self.points}")
        if self.ticks < MIN_TICKS_PER_POINT:
            raise GridError("sweep.ticks", f"need at least {MIN_TICKS_PER_POINT} ticks per "
                            f"point, got {self.ticks}")
        for name, value in (("lo", self.lo), ("hi", self.hi)):
            if not np.isfinite(value):
                raise GridError(f"sweep.{name}", f"must be finite, got {value}")
        if not np.isfinite(float(self.hi) - float(self.lo)):  # in Python floats: no warning
            raise GridError("sweep.hi", f"the span {self.lo:g} to {self.hi:g} must be finite")


# The grid each sweep runs when the config sets none: input voltages (V) for
# `sweep_vin`, slopes (V/s) for `sweep_slope`.
VIN_GRID = SweepGrid(-0.1, 0.8, 19, 10_000)
SLOPE_GRID = SweepGrid(0.0, 500.0, 11, 10_000)


def sweep_vin(cfg: ExperimentConfig) -> np.ndarray:
    """Measured sampling rate vs constant p-neuron input voltage.

    The drive is pinned to each voltage of the grid cfg.sweep (VIN_GRID if
    None); zero signal, AFE bypassed. The gated fraction over the grid's
    ticks on the synthetic survey's ADC grid (SYNTH_RATE_HZ) is recorded.
    Returns rows of (v_in, measured_rate, model_probability).
    """
    grid = cfg.sweep or VIN_GRID
    pn = cfg.activation.pneuron
    rows = np.empty((grid.points, 3))
    for i, v in enumerate(np.linspace(grid.lo, grid.hi, grid.points)):
        p_model = activation_probability(float(v), pn)
        seed = cfg.base_seed + i
        if pn.source == "digital_iid":
            bits, _ = iid_decisions(np.full(grid.ticks, p_model), lfsr_from_seed(seed))
        else:
            spt = cfg.upsample_factor
            bits = telegraph_tick_states(p_model, 1.0 / (SYNTH_RATE_HZ * spt), pn, spt,
                                         grid.ticks, np.random.default_rng(seed))
        rows[i] = (v, bits.mean(), p_model)
    return rows


def max_ramp_slope(ticks_per_point: int) -> float:
    """Steepest slope (V/s) `sweep_slope` accepts for a ramp of ticks_per_point
    samples: the one whose last sample or, for a ramp of at most 1 s, whose
    slope is half the largest float64. The factor 2 leaves room for
    rounding, so no sample reaches the largest float64 and the slope that
    `extract_features` recovers stays finite; no product that could
    overflow is formed."""
    t_last = (ticks_per_point - 1) / SYNTH_RATE_HZ
    return float(np.finfo(np.float64).max / 2 / max(t_last, 1.0))


def sweep_slope(cfg: ExperimentConfig) -> np.ndarray:
    """Measured sampling rate vs signal slope through the full AFE chain.

    Each slope s of the grid cfg.sweep (SLOPE_GRID if None) feeds the ramp
    x_k = s * k / SYNTH_RATE_HZ of the grid's ticks on the synthetic
    survey's ADC grid through feature extraction and the p-neuron, run as
    `run_event` runs a survey event: upsampled by cfg.upsample_factor
    without building it. The interpolant of a ramp has slope s on every
    segment and no turning point, so no slope aliases on the step grid. The
    amplitude override is disabled (no finite sample reaches its threshold)
    so the probabilistic path is isolated. A grid bound that is negative or
    above `max_ramp_slope`, or a slope gain whose drive on the grid's
    steepest ramp reaches half the largest float64 (the headroom
    `max_ramp_slope` keeps), raises `GridError` before any point runs.
    Returns rows of (slope_v_per_s, measured_rate, model_probability).
    """
    grid = cfg.sweep or SLOPE_GRID
    s_max = max_ramp_slope(grid.ticks)
    for name, s in (("lo", grid.lo), ("hi", grid.hi)):
        if s < 0:
            raise GridError(f"sweep.{name}", f"a slope magnitude must be >= 0, got {s}")
        if s > s_max:
            raise GridError(f"sweep.{name}", f"slope {s:g} V/s exceeds the maximum {s_max:g} "
                            f"V/s for a ramp of {grid.ticks} ticks, whose samples and slope "
                            f"must stay finite")
    slopes = np.linspace(grid.lo, grid.hi, grid.points)
    gain = cfg.activation.afe.slope_gain
    # in Python floats, so a small gain gives inf here without a warning
    if slopes.max() > float(np.finfo(np.float64).max) / 2 / float(gain):
        raise GridError("activation.afe.slope_gain",
                        f"gain {gain:g} times the slope {slopes.max():g} V/s exceeds half "
                        f"the largest float64: the p-neuron's drive must stay finite")
    factor = cfg.upsample_factor
    no_override = np.finfo(np.float64).max
    act_cfg = replace(cfg.activation,
                      afe=replace(cfg.activation.afe, amp_threshold_v=no_override))
    t = np.arange(grid.ticks) / SYNTH_RATE_HZ
    rows = np.empty((grid.points, 3))
    for i, s in enumerate(slopes):
        act = run_activation(Trace._adopt(t * s, SYNTH_RATE_HZ), act_cfg, cfg.base_seed + i,
                             factor=factor)
        measured = float(act.gate.mean())
        del act  # one point's trace at a time: the next point's run starts without it
        model = activation_probability(act_cfg.afe.slope_gain * float(s), act_cfg.pneuron)
        rows[i] = (s, measured, model)
    return rows
