"""One benchmark child: a fresh single-threaded process that sets probsense
up, runs one workload through `probsense.cli.main` until its time budget is
spent, checks every iteration's outputs, and prints a JSON summary as its
last line of standard output.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``. In
trace mode, untraced and traced iterations alternate so that the tracing
overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

# Passed to the CLI explicitly (both equal its defaults) so the nominal step
# counts below are defined by the benchmark, not by a default that may move.
UPSAMPLE = 50
SWEEP_TICKS = 10_000
SWEEP_VIN_POINTS = 19
SWEEP_SLOPE_POINTS = 11
TINY_EVENTS = 3
TINY_POINTS = 3

# Acceptance bounds the outputs must keep (README and acceptance criteria 1, 2, 4).
NMSE_MAX = 0.01
SAVINGS_MIN_PCT = 90.0
RATE_ERR_MAX = 0.02


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workloads:
    """Argument lists, step counts and checks of the three workloads."""

    def __init__(self, cli, seed: int, workdir: Path, dataset: Path | None, tiny: bool):
        self.cli = cli
        self.seed = str(seed)
        self.workdir = workdir
        self.dataset = dataset
        self.tiny = tiny

    def _main(self, argv: list[str], keep_report: bool = False):
        """Run cli.main(argv); returns (rc, wall_s, report or None)."""
        cli = self.cli
        kept = []
        run_survey = cli.run_survey
        if keep_report:
            def keep(cfg):
                kept.append(run_survey(cfg))
                return kept[-1]
            cli.run_survey = keep
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                rc = cli.main(argv)
                wall = time.perf_counter() - t0
        finally:
            cli.run_survey = run_survey
        return rc, wall, (kept[0] if kept else None)

    def _survey(self, argv: list[str]) -> dict:
        if self.tiny:
            argv = argv + ["--n-events", str(TINY_EVENTS)]
        rc, wall, report = self._main(argv, keep_report=True)
        if report is None:
            return {"wall_s": wall, "steps": 0, "units": 1, "units_failed": 1,
                    "checks": {"rc_zero": rc == 0, "report_returned": False}, "seeded": {}}
        ok = report.n_failed == 0
        return {
            "wall_s": wall,
            "steps": report.n_samples_r * UPSAMPLE,
            "units": report.n_events,
            "units_failed": report.n_failed,
            "checks": {
                "rc_zero": rc == 0,
                "no_failed_events": ok,
                "nmse_time_le_1pct": ok and report.nmse_time <= NMSE_MAX,
                "nmse_freq_le_1pct": ok and report.nmse_freq <= NMSE_MAX,
                "savings_ge_90pct": ok and report.savings_pct >= SAVINGS_MIN_PCT,
            },
            "seeded": {
                "nmse_time_pct": 100.0 * report.nmse_time,
                "nmse_freq_pct": 100.0 * report.nmse_freq,
                "savings_pct": report.savings_pct,
                "n_samples_p": report.n_samples_p,
            },
        }

    def survey_smtj(self) -> dict:
        return self._survey(["run", "--source", "smtj", "--seed", self.seed,
                             "--upsample", str(UPSAMPLE)])

    def replay_digital_io(self) -> dict:
        out = Path(tempfile.mkdtemp(prefix="replay-", dir=self.workdir))
        try:
            res = self._survey(["run", "--dataset", str(self.dataset), "--source", "digital",
                                "--seed", self.seed, "--upsample", str(UPSAMPLE),
                                "--out", str(out)])
            report = out / "report.json"
            res["checks"]["report_written"] = report.is_file()
            if report.is_file():
                res["seeded"]["report_sha256"] = _sha256(report)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return res

    def sweeps(self) -> dict:
        vin_points, slope_points = ((TINY_POINTS, TINY_POINTS) if self.tiny
                                    else (SWEEP_VIN_POINTS, SWEEP_SLOPE_POINTS))
        calls = [
            ("vin_digital", "sweep_vin.csv", vin_points, ["sweep-vin", "--source", "digital"]),
            ("vin_smtj", "sweep_vin.csv", vin_points, ["sweep-vin", "--source", "smtj"]),
            ("slope_smtj", "sweep_slope.csv", slope_points, ["sweep-slope", "--source", "smtj"]),
        ]
        res = {"wall_s": 0.0, "steps": 0, "units": 0, "units_failed": 0,
               "checks": {}, "seeded": {}}
        err = 0.0
        for name, fname, n_points, argv in calls:
            out = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.workdir))
            try:
                rc, wall, _ = self._main(argv + [
                    "--points", str(n_points), "--ticks", str(SWEEP_TICKS), "--seed", self.seed,
                    "--upsample", str(UPSAMPLE), "--out", str(out)])
                path = out / fname
                rows = []
                if path.is_file():
                    with open(path, newline="") as fh:
                        rows = list(csv.DictReader(fh))
                    res["seeded"][f"{name}_sha256"] = _sha256(path)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            res["wall_s"] += wall
            res["steps"] += len(rows) * SWEEP_TICKS * UPSAMPLE
            res["units"] += n_points
            written = rc == 0 and len(rows) == n_points
            res["units_failed"] += 0 if written else n_points
            res["checks"][f"{name}_written"] = written
            for row in rows:
                err = max(err, abs(float(row["measured_rate"]) - float(row["model_probability"])))
        res["checks"]["rate_err_le_0.02"] = err <= RATE_ERR_MAX
        res["seeded"]["rate_err_max"] = err
        return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=("survey_smtj", "replay_digital_io", "sweeps"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True, help="seconds of iterations")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--dataset", type=Path)
    ap.add_argument("--spans", type=Path, help="file the traced spans are written to")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import probsense  # noqa: F401
    from probsense import cli, pbit

    pbit.lfsr_word_uniforms(pbit.lfsr_from_seed(0), 1)  # builds the LFSR cycle table
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy

    from tracer import Tracer

    workloads = Workloads(cli, args.seed, args.workdir, args.dataset, args.tiny)
    run_one = getattr(workloads, args.workload)
    tracer = Tracer() if args.trace else None
    iterations = []
    deadline = time.perf_counter() + args.budget
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
            tracer.begin(i)
        try:
            res = run_one()
        except Exception as exc:  # noqa: BLE001 - a failed iteration is counted, not fatal
            res = {"wall_s": None, "steps": 0, "units": 1, "units_failed": 1,
                   "checks": {}, "seeded": {}, "error": f"{type(exc).__name__}: {exc}"}
        finally:
            if traced:
                tracer.uninstall()
        res["traced"] = traced
        if traced:
            res["layers"], res["run_event_ms"] = tracer.end()
            res["counts"] = {k: v for k, v in res["layers"].items() if not k.endswith(".self_s")}
        iterations.append(res)
        i += 1
        if time.perf_counter() >= deadline and (tracer is None or i % 2 == 0):
            break

    if tracer is not None and args.spans is not None:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "iterations": iterations,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
