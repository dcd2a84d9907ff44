"""Command-line experiment runner.

Subcommands: `run` (survey evaluation), `sweep-vin`, `sweep-slope`, and
`synth` (emit a synthetic dataset). Each registers only the common flags
(`FLAGS`) it reads, and a flat key = value config file may set only those
(keys are the flag names); CLI flags override file values.
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
    MIN_TICKS_PER_POINT,
    ExperimentConfig,
    GridError,
    max_ramp_slope,
    run_survey,
    sweep_slope,
    sweep_vin,
    synth_survey,
)
from .traces import write_csv

SOURCE_ALIASES = {"digital": "digital_iid", "smtj": "smtj_telegraph"}


def parse_config_file(path: Path | str) -> dict:
    """Parse a flat `key = value` config file (# comments, quoted strings).

    A value that starts with a quote runs to the matching quote, so a `#`
    inside it is kept; only a comment may follow the closing quote.
    """
    opts: dict[str, object] = {}
    line_of: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        where = f"{path}:{lineno}"
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{where}: expected 'key = value', got {raw!r}")
        key, _, val = raw.partition("=")
        key = key.strip().replace("-", "_")
        if key in line_of:
            raise ValueError(f"{where}: key {key!r} already set on line {line_of[key]}")
        line_of[key] = lineno
        val = val.strip()
        if val.startswith(("'", '"')):
            end = val.find(val[0], 1)
            if end < 0:
                raise ValueError(f"{where}: unterminated {val[0]} quote in {raw!r}")
            rest = val[end + 1:].strip()
            if rest and not rest.startswith("#"):
                raise ValueError(f"{where}: unexpected {rest!r} after the quoted value")
            opts[key] = val[1:end]
        else:
            val = val.split("#", 1)[0].strip()
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
    commands: tuple[str, ...]  # the subcommands that read it
    type: Callable  # parses the flag's text, or a config-file value
    help: str  # "{default}" is replaced by the field's value in ExperimentConfig()
    to_field: Callable = lambda v: v  # parsed value -> field value
    choices: tuple[str, ...] | None = None


# The subcommands that read a flag; `run` reads every flag.
RUN = ("run",)
SYNTH = ("run", "synth")
SWEEPS = ("run", "sweep-vin", "sweep-slope")
SLOPE = ("run", "sweep-slope")
ALL = ("run", "sweep-vin", "sweep-slope", "synth")

# The common flags, which are also the config-file keys.
FLAGS = {
    "dataset": Flag("dataset", RUN, Path, "directory of event CSVs (default: synthetic)"),
    "rate_hz": Flag("dataset_rate_hz", RUN, float, "sample rate for value-only dataset CSVs"),
    "n_events": Flag("n_events", SYNTH, int, "number of events (default {default})"),
    "seed": Flag("base_seed", ALL, int, "base seed; event i uses seed + i (default {default})"),
    "tau_us": Flag("activation.pneuron.tau_s", SWEEPS, float,
                   "sMTJ retention time in microseconds", to_field=lambda us: us * 1e-6),
    "vref": Flag("activation.pneuron.v_ref_v", SWEEPS, float,
                 "p-neuron reference voltage (sets the minimum rate)"),
    "beta": Flag("activation.pneuron.beta", SWEEPS, float, "activation steepness (1/V)"),
    "source": Flag("activation.pneuron.source", SWEEPS, str, "entropy source",
                   to_field=lambda s: SOURCE_ALIASES[s], choices=tuple(sorted(SOURCE_ALIASES))),
    "upsample": Flag("upsample_factor", SWEEPS, int,
                     "high-rate steps per ADC sample; the ADC rate is the trace's rate "
                     "(default {default})"),
    "band": Flag("band_hz", RUN, _parse_band, "frequency band for NMSE, 'low:high' Hz"),
    "slope_gain": Flag("activation.afe.slope_gain", SLOPE, float,
                       "volts of drive per (V/s) of slope"),
    "amp_threshold": Flag("activation.afe.amp_threshold_v", RUN, float,
                          "deterministic override threshold (V)"),
    "hold_ms": Flag("activation.hold_s", RUN, float, "override hold window in milliseconds",
                    to_field=lambda ms: ms * 1e-3),
    "snr_db": Flag("snr_db", SYNTH, float,
                   "synthetic event energy SNR in dB (default {default})"),
    "out": Flag("output_dir", ALL, Path, "output directory"),
}


def _add_common(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument("--config", type=Path, help="flat key = value file of this command's flags")
    defaults = ExperimentConfig()
    for name, flag in FLAGS.items():
        if command in flag.commands:
            default = reduce(getattr, flag.field.split("."), defaults)
            p.add_argument("--" + name.replace("_", "-"), type=flag.type,
                           choices=flag.choices, help=flag.help.format(default=default))


def _merge(args: argparse.Namespace) -> dict:
    """File options first, then any common flag that was actually given."""
    reads = [name for name, flag in FLAGS.items() if args.command in flag.commands]
    opts: dict[str, object] = {}
    if args.config is not None:
        opts.update(parse_config_file(args.config))
        for key in opts:
            if key not in reads:
                raise ValueError(f"{args.config}: {args.command} does not read key {key!r}; "
                                 f"its keys are {', '.join(reads)}")
    for key in reads:
        if getattr(args, key) is not None:
            opts[key] = getattr(args, key)
    return opts


def _with_fields(obj, values: dict):
    """Copy of dataclass `obj` with the field at each dotted path in `values` set.

    Each dataclass is rebuilt once, with all its new values, so a check
    across its fields sees the finished config whatever the option order.
    """
    nested: dict[str, dict] = {}
    top = {}
    for path, value in values.items():
        name, _, rest = path.partition(".")
        if rest:
            nested.setdefault(name, {})[rest] = value
        else:
            top[name] = value
    top.update({name: _with_fields(getattr(obj, name), sub) for name, sub in nested.items()})
    return replace(obj, **top)


def build_experiment(opts: dict) -> ExperimentConfig:
    """The default ExperimentConfig with each option set on its flag's field.

    A config-file value (text or a number) is parsed from its text by the
    flag's type, as the command line parses it, so `n_events = 2.9` is
    rejected rather than truncated; a value the type rejects is an error that
    names the key. Values argparse already parsed come out unchanged.
    """
    values = {}
    for key, val in opts.items():
        flag = FLAGS[key]
        if isinstance(val, (str, int, float)):
            try:
                val = flag.type(str(val))
            except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{key} = {val!r}: {exc}") from None
        if flag.choices and val not in flag.choices:
            raise ValueError(f"{key} = {val!r}: choose from {', '.join(flag.choices)}")
        values[flag.field] = flag.to_field(val)
    return _with_fields(ExperimentConfig(), values)


def _cmd_run(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    try:
        report = run_survey(cfg)
    except RuntimeError as exc:
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
    s_max = max_ramp_slope(args.ticks) if slope else np.inf
    for flag, value in zip(("--smin", "--smax") if slope else ("--vmin", "--vmax"),
                           (args.lo, args.hi)):
        if not np.isfinite(value):
            raise _FlagError(flag, f"must be finite, got {value}")
        if slope and value < 0:
            raise _FlagError(flag, f"a slope magnitude must be >= 0, got {value}")
        if value > s_max:
            raise _FlagError(flag, f"slope {value:g} V/s exceeds the maximum {s_max:g} V/s "
                             f"for a ramp of {args.ticks} ticks, whose samples and slope "
                             f"must stay finite")
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
    write_csv(path, f"{x_name},measured_rate,model_probability", *rows.T)
    print(f"wrote {path} ({len(rows)} points, max |measured - model| = "
          f"{np.max(np.abs(rows[:, 1] - rows[:, 2])):.4f})")
    return 0


def _cmd_synth(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    out = cfg.output_dir or Path("survey_data")
    try:
        paths = synth_survey(cfg.snr_db, cfg.n_events, cfg.base_seed, out)
    except FileExistsError as exc:
        raise _FlagError("--out", str(exc)) from None
    print(f"wrote {len(paths)} event files to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="probsense",
        description="Probabilistic event-driven sampling simulator and evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, func, text, grid in (
        ("run", _cmd_run, "evaluate a survey with the P-ADC vs the R-ADC", None),
        ("sweep-vin", _cmd_sweep, "measured sampling rate vs p-neuron input voltage",
         ("--vmin", -0.1, "--vmax", 0.8, 19)),
        ("sweep-slope", _cmd_sweep, "measured sampling rate vs signal slope",
         ("--smin", 0.0, "--smax", 500.0, 11)),
        ("synth", _cmd_synth, "emit a synthetic survey as CSV event files", None),
    ):
        p = sub.add_parser(command, help=text)
        _add_common(p, command)
        p.set_defaults(func=func)
        if grid is not None:
            lo, lo_default, hi, hi_default, points = grid
            p.add_argument(lo, dest="lo", type=float, default=lo_default)
            p.add_argument(hi, dest="hi", type=float, default=hi_default)
            p.add_argument("--points", type=int, default=points)
            p.add_argument("--ticks", type=int, default=10_000)

    args, extra = parser.parse_known_args(argv)
    if extra:  # the subcommand's usage lists the flags it reads
        sub.choices[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
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
