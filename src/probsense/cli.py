"""Command-line experiment runner.

Subcommands: `run` (survey evaluation), `sweep-vin`, `sweep-slope`, and
`synth` (emit a synthetic dataset). A flat key = value config file can set
any common flag (`FLAGS`; keys are the flag names); CLI flags override file
values.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import reduce
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .harness import (
    MIN_RAMP_STEPS,
    MIN_TICKS_PER_POINT,
    ExperimentConfig,
    GridError,
    max_sweep_slope,
    run_survey,
    sweep_slope,
    sweep_vin,
    synth_survey,
    write_survey,
    write_sweep_csv,
)

SOURCE_ALIASES = {"digital": "digital_iid", "smtj": "smtj_telegraph"}


def parse_config_file(path: Path | str) -> dict:
    """Parse a flat `key = value` config file (# comments, quoted strings)."""
    opts: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if val.startswith(("'", '"')) and val.endswith(val[0]) and len(val) >= 2:
            opts[key] = val[1:-1]
        elif val.lower() in ("true", "false"):
            opts[key] = val.lower() == "true"
        else:
            try:
                opts[key] = int(val)
            except ValueError:
                try:
                    opts[key] = float(val)
                except ValueError:
                    opts[key] = val
    return opts


def _parse_band(text: str) -> tuple[float, float]:
    try:
        lo, _, hi = str(text).partition(":")
        return float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"band must be 'low:high', got {text!r}") from None


class Flag(NamedTuple):
    """A common flag: the ExperimentConfig field it sets, as a dotted path."""

    field: str
    type: Callable  # parses the flag's text, or a config-file value
    help: str  # "{default}" is replaced by the field's value in ExperimentConfig()
    to_field: Callable = lambda v: v  # parsed value -> field value
    choices: tuple[str, ...] | None = None


# The common flags of every subcommand, which are also the config-file keys.
FLAGS = {
    "dataset": Flag("dataset", Path, "directory of event CSVs (default: synthetic)"),
    "rate_hz": Flag("dataset_rate_hz", float, "sample rate for value-only dataset CSVs"),
    "n_events": Flag("n_events", int, "number of events to evaluate (default {default})"),
    "seed": Flag("base_seed", int, "base seed; event i uses seed + i (default {default})"),
    "tau_us": Flag("activation.pneuron.tau_s", float, "sMTJ retention time in microseconds",
                   to_field=lambda us: us * 1e-6),
    "vref": Flag("activation.pneuron.v_ref_v", float,
                 "p-neuron reference voltage (sets the minimum rate)"),
    "beta": Flag("activation.pneuron.beta", float, "activation steepness (1/V)"),
    "source": Flag("activation.pneuron.source", str, "entropy source",
                   to_field=lambda s: SOURCE_ALIASES.get(s, s),
                   choices=tuple(sorted(SOURCE_ALIASES))),
    "upsample": Flag("upsample_factor", int,
                     "high-rate steps per ADC sample; the ADC rate is the trace's rate "
                     "(default {default})"),
    "band": Flag("band_hz", _parse_band, "frequency band for NMSE, 'low:high' Hz"),
    "slope_gain": Flag("activation.afe.slope_gain", float, "volts of drive per (V/s) of slope"),
    "amp_threshold": Flag("activation.afe.amp_threshold_v", float,
                          "deterministic override threshold (V)"),
    "hold_steps": Flag("activation.hold_steps", int,
                       "override hold window in high-rate steps (default {default})"),
    "snr_db": Flag("synth.snr_db", float, "synthetic event energy SNR in dB (default {default})"),
    "out": Flag("output_dir", Path, "output directory"),
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="flat key = value config file")
    defaults = ExperimentConfig()
    for name, flag in FLAGS.items():
        default = reduce(getattr, flag.field.split("."), defaults)
        p.add_argument("--" + name.replace("_", "-"), type=flag.type, choices=flag.choices,
                       help=flag.help.format(default=default))


def _merge(args: argparse.Namespace) -> dict:
    """File options first, then any common flag that was actually given."""
    opts: dict[str, object] = {}
    if args.config is not None:
        opts.update(parse_config_file(args.config))
        for key in opts:
            if key not in FLAGS:
                raise ValueError(
                    f"unknown key {key!r} in {args.config}; keys are the flag names "
                    f"{', '.join(FLAGS)}"
                )
    for key in FLAGS:
        if getattr(args, key) is not None:
            opts[key] = getattr(args, key)
    return opts


def _with_field(obj, path: str, value):
    """Copy of dataclass `obj` with the field at dotted `path` set to `value`."""
    name, _, rest = path.partition(".")
    return replace(obj, **{name: _with_field(getattr(obj, name), rest, value) if rest else value})


def build_experiment(opts: dict) -> ExperimentConfig:
    """The default ExperimentConfig with each option set on its flag's field.

    Config-file values (text and numbers) are parsed by the flag's type;
    values argparse already parsed are taken as they are.
    """
    cfg = ExperimentConfig()
    for key, val in opts.items():
        flag = FLAGS[key]
        if isinstance(val, (str, int, float)):
            val = flag.type(val)
        cfg = _with_field(cfg, flag.field, flag.to_field(val))
    return cfg


def _cmd_run(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    try:
        report = run_survey(cfg)
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"events evaluated : {report.n_events} ({report.n_failed} failed)")
    print(f"nmse time        : {report.nmse_time * 100:.4f} % (median {report.nmse_time_median * 100:.4f} %)")
    print(f"nmse freq        : {report.nmse_freq * 100:.4f} % (median {report.nmse_freq_median * 100:.4f} %)")
    print(f"samples P-ADC    : {report.n_samples_p} of {report.n_samples_r} R-ADC")
    print(f"savings          : {report.savings_pct:.2f} % (active {report.active_time_pct:.2f} %)")
    if cfg.output_dir is not None:
        print(f"report           : {Path(cfg.output_dir) / 'report.json'}")
    for ev in report.per_event:
        if ev.error is not None:
            print(f"event {ev.index:03d} FAILED: {ev.error}", file=sys.stderr)
    return 1 if report.n_failed else 0


class _FlagError(ValueError):
    """A flag value that cannot work; `flag` is the flag as typed, e.g. '--points'."""

    def __init__(self, flag: str, message: str):
        super().__init__(message)
        self.flag = flag


def _sweep_grid(args: argparse.Namespace, cfg: ExperimentConfig) -> np.ndarray:
    """The sweep's grid points from its grid flags, each checked before any point runs."""
    if args.points < 1:
        raise _FlagError("--points", f"need at least 1 point, got {args.points}")
    if args.ticks < MIN_TICKS_PER_POINT:
        raise _FlagError("--ticks", f"need at least {MIN_TICKS_PER_POINT} ticks per point, "
                         f"got {args.ticks}")
    slope = args.command == "sweep-slope"
    s_max = max_sweep_slope(cfg) if slope else np.inf
    for flag, value in zip(("--smin", "--smax") if slope else ("--vmin", "--vmax"),
                           (args.lo, args.hi)):
        if not np.isfinite(value):
            raise _FlagError(flag, f"must be finite, got {value}")
        if slope and value < 0:
            raise _FlagError(flag, f"a slope magnitude must be >= 0, got {value}")
        if value > s_max:
            raise _FlagError(flag, f"slope {value:g} V/s exceeds the maximum {s_max:g} V/s "
                             f"at this ADC rate and --upsample; each triangle ramp must span "
                             f">= {MIN_RAMP_STEPS} high-rate steps")
    return np.linspace(args.lo, args.hi, args.points)


def _cmd_sweep(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    if args.command == "sweep-vin":
        sweep, name, x_name = sweep_vin, "sweep_vin", "v_in_v"
    else:
        sweep, name, x_name = sweep_slope, "sweep_slope", "slope_v_per_s"
    rows = sweep(cfg, _sweep_grid(args, cfg), args.ticks)
    out = Path(cfg.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.csv"
    write_sweep_csv(rows, path, x_name)
    print(f"wrote {path} ({len(rows)} points, max |measured - model| = "
          f"{np.max(np.abs(rows[:, 1] - rows[:, 2])):.4f})")
    return 0


def _cmd_synth(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    out = cfg.output_dir or Path("survey_data")
    ds, _ = synth_survey(cfg.synth, cfg.n_events, cfg.base_seed)
    paths = write_survey(ds, out)
    print(f"wrote {len(paths)} event files to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="probsense",
        description="Probabilistic event-driven sampling simulator and evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a survey with the P-ADC vs the R-ADC")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_vin = sub.add_parser("sweep-vin", help="measured sampling rate vs p-neuron input voltage")
    _add_common(p_vin)
    p_vin.add_argument("--vmin", dest="lo", type=float, default=-0.1)
    p_vin.add_argument("--vmax", dest="hi", type=float, default=0.8)
    p_vin.add_argument("--points", type=int, default=19)
    p_vin.add_argument("--ticks", type=int, default=10_000)
    p_vin.set_defaults(func=_cmd_sweep)

    p_slope = sub.add_parser("sweep-slope", help="measured sampling rate vs signal slope")
    _add_common(p_slope)
    p_slope.add_argument("--smin", dest="lo", type=float, default=0.0)
    p_slope.add_argument("--smax", dest="hi", type=float, default=500.0)
    p_slope.add_argument("--points", type=int, default=11)
    p_slope.add_argument("--ticks", type=int, default=10_000)
    p_slope.set_defaults(func=_cmd_sweep)

    p_synth = sub.add_parser("synth", help="emit a synthetic survey as CSV event files")
    _add_common(p_synth)
    p_synth.set_defaults(func=_cmd_synth)

    args = parser.parse_args(argv)
    try:
        cfg = build_experiment(_merge(args))
    except (OSError, TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, cfg)
    except GridError as exc:
        name = next(name for name, f in FLAGS.items() if f.field == exc.field)
        bad = _FlagError("--" + name.replace("_", "-"), str(exc))
    except _FlagError as exc:
        bad = exc
    print(f"error: {bad.flag}: {bad}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
