"""Survey experiment runner: P-ADC vs R-ADC pipelines, sweeps, and reports.

Events are processed independently with derived seeds (base_seed +
event_index), so a survey is reproducible event by event and report files are
byte-identical across runs of the same configuration.
"""

from __future__ import annotations

import json
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
from .activation import ActivationConfig, detection_latency, run_activation
from .pbit import (
    DT_RESOLUTION_FACTOR,
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
    write_ticks,
    write_trace,
)

# Decouples the p-neuron seed stream from the synthesis noise seed stream.
NEURON_SEED_OFFSET = 499979

DEFAULT_BASE_SEED = 12345


@dataclass(frozen=True)
class SynthSurveySpec:
    """Parameters of the default synthetic active-source survey."""

    duration_s: float = 1.0
    rate_hz: float = 2000.0
    wavelet_f0_hz: float = 50.0
    amplitude: float = 1.0
    snr_db: float = 26.0
    onset_min_s: float = 0.3
    onset_max_s: float = 0.7

    def __post_init__(self):
        if not np.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")

    def noise_rms_for(self, signal_energy: float, n: int) -> float:
        """Noise RMS giving the configured energy SNR over an n-sample trace."""
        return float(np.sqrt(signal_energy / (10.0 ** (self.snr_db / 10.0) * n)))


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: Path | None = None  # directory of event CSVs; None -> synthetic survey
    dataset_rate_hz: float | None = None  # sidecar rate for value-only CSVs
    synth: SynthSurveySpec = field(default_factory=SynthSurveySpec)
    n_events: int = 50
    activation: ActivationConfig = field(default_factory=ActivationConfig)
    upsample_factor: int = 50
    band_hz: tuple[float, float] = (0.0, 200.0)
    base_seed: int = DEFAULT_BASE_SEED
    output_dir: Path | None = None

    def __post_init__(self):
        rate = self.dataset_rate_hz
        if rate is not None and not (rate > 0 and np.isfinite(rate)):
            raise ValueError(f"dataset_rate_hz must be positive and finite, got {rate}")
        if rate is not None and self.dataset is None:
            raise ValueError(f"dataset_rate_hz = {rate:g} Hz applies only to a dataset "
                             f"replay; the synthetic survey runs at synth.rate_hz")
        synth_set = ", ".join(f"synth.{k} = {v:g}" for k, v in vars(self.synth).items()
                              if v != getattr(SynthSurveySpec, k))
        if synth_set and self.dataset is not None:
            raise ValueError(f"{synth_set} applies only to the synthetic survey, not a replay")
        if self.n_events < 1:
            raise ValueError(f"n_events must be >= 1, got {self.n_events}")
        if self.upsample_factor < 1:
            raise ValueError(f"upsample_factor must be >= 1, got {self.upsample_factor}")


class GridError(ValueError):
    """A setting that would fail every event on the survey's ADC grid.

    `field` is the dotted ExperimentConfig path of the setting at fault.
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _check_grid(cfg: ExperimentConfig, rate_hz: float) -> None:
    """Reject a band or upsampling factor that cannot work at ADC rate rate_hz."""
    low, high = cfg.band_hz
    if not 0 <= low < high <= rate_hz / 2:
        raise GridError("band_hz", f"band {low:g}:{high:g} Hz is empty or exceeds the "
                        f"Nyquist frequency {rate_hz / 2:g} Hz of the {rate_hz:g} Hz ADC grid")
    _check_telegraph_step(cfg, rate_hz)


def _check_telegraph_step(cfg: ExperimentConfig, rate_hz: float) -> None:
    """Reject an upsampling factor whose step is too coarse for the telegraph."""
    pn = cfg.activation.pneuron
    dt = 1.0 / (rate_hz * cfg.upsample_factor)
    if pn.source == "smtj_telegraph" and dt > pn.tau_s / DT_RESOLUTION_FACTOR:
        raise GridError("upsample_factor", f"factor {cfg.upsample_factor} on the {rate_hz:g} Hz "
                        f"ADC grid gives a {dt:.3g} s step, too coarse for the telegraph "
                        f"(needs <= tau_s / {DT_RESOLUTION_FACTOR} = "
                        f"{pn.tau_s / DT_RESOLUTION_FACTOR:.3g} s)")


def _survey_onsets(spec: SynthSurveySpec, n_events: int, base_seed: int) -> tuple[float, ...]:
    """Per-event wavelet onsets, snapped to the event sample grid."""
    rng = np.random.default_rng((base_seed, 1))
    raw = spec.onset_min_s + (spec.onset_max_s - spec.onset_min_s) * rng.random(n_events)
    return tuple(round(o * spec.rate_hz) / spec.rate_hz for o in raw.tolist())


def _synth_one(spec: SynthSurveySpec, onset_s: float, seed: int) -> Trace:
    """One survey event at the configured energy SNR."""
    clean = synth_event(
        spec.duration_s, spec.rate_hz, spec.wavelet_f0_hz, onset_s,
        spec.amplitude, 0.0, seed=0,
    )
    sigma = spec.noise_rms_for(float(np.sum(clean.samples**2)), len(clean))
    return synth_event(
        spec.duration_s, spec.rate_hz, spec.wavelet_f0_hz, onset_s,
        spec.amplitude, sigma, seed=seed,
    )


def synth_survey(
    spec: SynthSurveySpec, n_events: int, base_seed: int, directory: Path | str
) -> list[Path]:
    """Write the synthetic survey to directory as event_NNN.csv, each event as
    soon as it is made: the events `run_survey` synthesizes for the same seed.

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
    paths = []
    for i, onset in enumerate(_survey_onsets(spec, n_events, base_seed)):
        path = directory / f"event_{i:03d}.csv"
        write_trace(_synth_one(spec, onset, base_seed + i), path)
        paths.append(path)
    return paths


def _event_paths(directory: Path | str) -> list[Path]:
    """The event CSV files of a survey directory, sorted by name."""
    paths = sorted(Path(directory).glob("*.csv"))
    if not paths:
        raise FileNotFoundError(f"no event CSV files in {directory}")
    return paths


def run_event(
    trace: Trace,
    cfg: ExperimentConfig,
    index: int,
    onset_s: float | None = None,
    wavelet_f0_hz: float | None = None,
):
    """Run one event through activation -> P-ADC -> reconstruction.

    The activation runs on the trace upsampled by upsample_factor without
    building it, and the trace's own grid is the ADC grid: the sync ticks
    are every upsample_factor-th high-rate step, the trace's samples.
    Returns (EventEval, p_stream, r_stream, recon).
    """
    factor = cfg.upsample_factor
    seed = cfg.base_seed + NEURON_SEED_OFFSET + index
    act = run_activation(trace, cfg.activation, factor, seed, factor=factor)
    p_stream = sample_gated(trace, act)
    r_stream = sample_regular(trace, act)
    recon = reconstruct(p_stream, trace.rate_hz, len(trace), trace.t0_s)
    sav, active = savings(p_stream, r_stream)

    window_sav = None
    latency = None
    if onset_s is not None and wavelet_f0_hz is not None:
        half_width = 2.0 / wavelet_f0_hz
        lo, hi = onset_s - half_width, onset_s + half_width
        t_p, t_r = p_stream.times_s, r_stream.times_s
        in_win_p = np.sum((t_p >= lo) & (t_p <= hi))
        in_win_r = np.sum((t_r >= lo) & (t_r <= hi))
        if in_win_r > 0:
            window_sav = float(100.0 * (1.0 - in_win_p / in_win_r))
        # latency measured from where the wavelet emerges (half-period early)
        t_emerge = onset_s - 0.5 / wavelet_f0_hz
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
    contradicts, or a band or upsampling factor that cannot work at the
    survey's rate, raises `GridError` before any event runs.
    """
    if cfg.dataset is not None:
        paths = _event_paths(cfg.dataset)
        n = min(cfg.n_events, len(paths))
        onsets: tuple[float | None, ...] = (None,) * n
        f0 = None

        def get_event(i: int) -> Trace:
            return load_trace(paths[i], rate_hz=cfg.dataset_rate_hz)
    else:
        n = cfg.n_events
        onsets = _survey_onsets(cfg.synth, n, cfg.base_seed)
        f0 = cfg.synth.wavelet_f0_hz

        def get_event(i: int) -> Trace:
            return _synth_one(cfg.synth, onsets[i], cfg.base_seed + i)

    rate = cfg.synth.rate_hz if cfg.dataset is None else cfg.dataset_rate_hz
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
            ev, p_stream, r_stream, recon = run_event(trace, cfg, i, onsets[i], f0)
            results.append(ev)
            if out_dir is not None:
                # recon first: its grid's text is kept for the samples' times.
                write_trace(recon, out_dir / f"recon_event_{i:03d}.csv")
                write_ticks(out_dir / f"samples_event_{i:03d}.csv", p_stream.ticks,
                            p_stream.values, p_stream.rate_hz, p_stream.t0_s)
                _write_rate_csv(out_dir / f"rate_event_{i:03d}.csv", p_stream, len(r_stream))
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
        nmse_time_median=float(np.median([e.nmse_time for e in ok])),
        nmse_freq_median=float(np.median([e.nmse_freq for e in ok])),
        n_events=n,
        n_failed=len(results) - len(ok),
        per_event=tuple(results),
    )
    if out_dir is not None:
        write_report(report, cfg, rate, out_dir / "report.json")
    return report


def _config_echo(cfg: ExperimentConfig, rate_hz: float) -> dict:
    pn = cfg.activation.pneuron
    fe = cfg.activation.afe
    return {
        "dataset": str(cfg.dataset) if cfg.dataset is not None else None,
        "n_events": cfg.n_events,
        "base_seed": cfg.base_seed,
        "upsample_factor": cfg.upsample_factor,
        "band_hz": list(cfg.band_hz),
        "sync_rate_hz": rate_hz,
        "hold_steps": cfg.activation.hold_steps,
        "pneuron": {
            "beta": pn.beta, "v_ref_v": pn.v_ref_v, "source": pn.source, "tau_s": pn.tau_s,
        },
        "afe": {
            "smoothing_steps": fe.smoothing_steps, "slope_gain": fe.slope_gain,
            "amp_threshold_v": fe.amp_threshold_v,
        },
        "synth": None if cfg.dataset is not None else {
            "duration_s": cfg.synth.duration_s, "rate_hz": cfg.synth.rate_hz,
            "wavelet_f0_hz": cfg.synth.wavelet_f0_hz, "amplitude": cfg.synth.amplitude,
            "snr_db": cfg.synth.snr_db, "onset_min_s": cfg.synth.onset_min_s,
            "onset_max_s": cfg.synth.onset_max_s,
        },
    }


def write_report(
    report: EvalReport, cfg: ExperimentConfig, rate_hz: float, path: Path | str
) -> None:
    """Write report.json; rate_hz is the survey's ADC rate, echoed as sync_rate_hz."""
    doc = {"config": _config_echo(cfg, rate_hz)} | report.to_dict()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


RATE_TRACE_WINDOW_TICKS = 100


def _write_rate_csv(path: Path, p_stream, n_ticks: int) -> None:
    """Windowed average sampling rate of the gated stream, plot-ready."""
    w = RATE_TRACE_WINDOW_TICKS
    n_win = n_ticks // w
    counts, _ = np.histogram(p_stream.ticks, bins=np.arange(0, n_win * w + 1, w))
    starts = p_stream.t0_s + np.arange(n_win) * w / p_stream.rate_hz
    write_csv(path, "window_start_s,avg_rate", starts, counts / w)


# --------------------------------------------------------------------------
# Characterization sweeps
# --------------------------------------------------------------------------

MIN_TICKS_PER_POINT = 1000


def sweep_vin(
    cfg: ExperimentConfig, v_grid, ticks_per_point: int = 10_000
) -> np.ndarray:
    """Measured sampling rate vs constant p-neuron input voltage.

    The drive is pinned to each grid value (zero signal, AFE bypassed) and
    the gated fraction over ticks_per_point sync ticks, on the synthetic
    survey's ADC grid (cfg.synth.rate_hz), is recorded. An upsampling factor
    too coarse for the telegraph raises `GridError` before any point runs.
    Returns rows of (v_in, measured_rate, model_probability).
    """
    if ticks_per_point < MIN_TICKS_PER_POINT:
        raise ValueError(
            f"ticks_per_point must be >= {MIN_TICKS_PER_POINT}, got {ticks_per_point}")
    v_grid = np.asarray(v_grid, dtype=np.float64)
    if v_grid.size == 0 or not np.all(np.isfinite(v_grid)):
        raise ValueError("v_grid must be non-empty and finite")
    _check_telegraph_step(cfg, cfg.synth.rate_hz)
    pn = cfg.activation.pneuron
    rows = np.empty((v_grid.size, 3))
    for i, v in enumerate(v_grid):
        p_model = activation_probability(float(v), pn)
        seed = cfg.base_seed + i
        if pn.source == "digital_iid":
            bits, _ = iid_decisions(np.full(ticks_per_point, p_model), lfsr_from_seed(seed))
        else:
            spt = cfg.upsample_factor
            dt = 1.0 / (cfg.synth.rate_hz * spt)
            bits = telegraph_tick_states(
                p_model, dt, pn, spt, ticks_per_point, np.random.default_rng(seed)
            )
        measured = float(bits.mean())
        rows[i] = (v, measured, p_model)
    return rows


# The slope sweep's triangle wave swings between -SLOPE_SWEEP_PEAK_V and
# +SLOPE_SWEEP_PEAK_V. Each ramp must span at least MIN_RAMP_STEPS high-rate
# steps: a steeper wave aliases on the step grid (at 1e300 V/s it is constant)
# and its measured rate no longer tracks the slope.
SLOPE_SWEEP_PEAK_V = 0.25
MIN_RAMP_STEPS = 10


def max_sweep_slope(cfg: ExperimentConfig) -> float:
    """Steepest slope (V/s) `sweep_slope` accepts: 5000 V/s at the defaults.

    The limit scales with the high-rate step, so an upsampling factor too
    coarse for the telegraph raises `GridError` first.
    """
    _check_telegraph_step(cfg, cfg.synth.rate_hz)
    rate_high = cfg.synth.rate_hz * cfg.upsample_factor
    return 2.0 * SLOPE_SWEEP_PEAK_V * rate_high / MIN_RAMP_STEPS


# Elements of the triangle wave computed per pass: a block and its floor
# temporary stay in cache, and the temporary is a small fraction of the wave.
TRIANGLE_BLOCK = 1 << 16


def _triangle_wave(n: int, rate_hz: float, slope: float, peak: float) -> np.ndarray:
    """Bounded waveform whose slope magnitude is `slope` everywhere.

    The phase u = t / period + 0.75 is wrapped as u - floor(u), which equals
    fmod(u, 1) and u % 1 bit for bit, at a quarter of fmod's cost: below 1,
    floor(u) is 0; from 1 up, floor(u) <= u <= 2 floor(u), so the subtraction
    is exact (Sterbenz), as fmod is. The work runs in place over blocks of
    TRIANGLE_BLOCK elements, so floor's temporary is a block long, not a
    second wave-length array.
    """
    if slope == 0.0:
        return np.zeros(n)
    period = 4.0 * peak / slope
    u = np.arange(n, dtype=np.float64)
    for start in range(0, n, TRIANGLE_BLOCK):
        seg = u[start:start + TRIANGLE_BLOCK]
        seg /= rate_hz
        seg /= period
        seg += 0.75
        seg -= np.floor(seg)
        seg -= 0.5
        np.abs(seg, out=seg)
        seg *= 4.0
        seg -= 1.0
        seg *= peak
    return u


def sweep_slope(
    cfg: ExperimentConfig, slope_grid, ticks_per_point: int = 10_000
) -> np.ndarray:
    """Measured sampling rate vs signal slope through the full AFE chain.

    Each grid point feeds a triangle wave (constant slope magnitude) through
    feature extraction and the p-neuron, on the synthetic survey's ADC grid
    (cfg.synth.rate_hz) upsampled by cfg.upsample_factor; the amplitude
    override is disabled so the probabilistic path is isolated. An upsampling
    factor too coarse for the telegraph raises `GridError`, and a slope above
    `max_sweep_slope` raises ValueError, before any point runs. Returns rows
    of (slope_v_per_s, measured_rate, model_probability).
    """
    if ticks_per_point < MIN_TICKS_PER_POINT:
        raise ValueError(
            f"ticks_per_point must be >= {MIN_TICKS_PER_POINT}, got {ticks_per_point}")
    slope_grid = np.asarray(slope_grid, dtype=np.float64)
    if slope_grid.size == 0 or np.any(slope_grid < 0) or not np.all(np.isfinite(slope_grid)):
        raise ValueError("slope_grid must be non-empty, finite and non-negative")
    s_max = max_sweep_slope(cfg)
    if np.any(slope_grid > s_max):
        raise ValueError(f"slope {slope_grid.max():g} V/s exceeds the maximum {s_max:g} V/s: "
                         f"each ramp of the {SLOPE_SWEEP_PEAK_V:g} V triangle wave must span "
                         f">= {MIN_RAMP_STEPS} high-rate steps")
    rate_high = cfg.synth.rate_hz * cfg.upsample_factor
    n = ticks_per_point * cfg.upsample_factor
    act_cfg = replace(cfg.activation, afe=replace(cfg.activation.afe, amp_threshold_v=1e9))
    rows = np.empty((slope_grid.size, 3))
    for i, s in enumerate(slope_grid):
        # the wave is passed, not named, so `run_activation` frees it before
        # the telegraph runs
        act = run_activation(
            Trace._adopt(_triangle_wave(n, rate_high, float(s), SLOPE_SWEEP_PEAK_V), rate_high),
            act_cfg, cfg.upsample_factor, cfg.base_seed + i)
        measured = float(np.mean(act.gate[act.sync_ticks]))
        model = activation_probability(act_cfg.afe.slope_gain * float(s), act_cfg.pneuron)
        rows[i] = (s, measured, model)
    return rows


def write_sweep_csv(rows: np.ndarray, path: Path | str, x_name: str) -> None:
    write_csv(path, f"{x_name},measured_rate,model_probability", *rows.T)
