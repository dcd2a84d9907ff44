#!/usr/bin/env python3
"""probsense benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload survey_smtj --seed 12345 --seconds 30 --trace 0

The workload runs in CHILDREN fresh single-threaded Python processes, one at
a time, each given an equal share of --seconds. Each child times its own
set-up (import plus the lazy LFSR table build), then repeats the workload
through `probsense.cli.main` and checks every iteration's outputs. With
--trace 0 the run reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it wraps each layer's public functions and reports the per-layer
metrics instead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
CHILDREN = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s, even when a child hangs
DEFAULT_SEED = 12345
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SEEDED = ("nmse_time_pct", "nmse_freq_pct", "savings_pct", "rate_err_max")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "n": len(values)}


def run_children(args, env, workdir: Path, dataset: Path | None,
                 deadline: float) -> tuple[list[dict], list[str]]:
    """Run the children one after another; returns their summaries and errors."""
    summaries, errors = [], []
    for k in range(CHILDREN):
        cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--budget", str(args.seconds / CHILDREN),
               "--trace", str(args.trace), "--workdir", str(workdir)]
        if dataset is not None:
            cmd += ["--dataset", str(dataset)]
        if args.trace:
            cmd += ["--spans", str(WORK / "spans" / f"{args.workload}-seed{args.seed}-child{k}.jsonl")]
        if args.tiny:
            cmd.append("--tiny")
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            errors.append(f"child {k} did not finish within the run's {RUN_LIMIT_S} s")
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            errors.append(f"child {k} exited with code {proc.returncode}")
            continue
        summaries.append(json.loads(lines[-1]))
    return summaries, errors


def make_dataset(args, env, workdir: Path, deadline: float) -> Path:
    """Untimed set-up of replay_digital_io: `probsense synth` at the run's seed.

    The path is relative to the checkout root, so the dataset path that
    report.json echoes, and with it the report's digest, is the same in every
    run and every checkout.
    """
    dataset = (workdir / "dataset").relative_to(ROOT)
    cmd = [sys.executable, "-m", "probsense.cli", "synth", "--seed", str(args.seed),
           "--out", str(dataset)]
    if args.tiny:
        cmd += ["--n-events", "3"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   timeout=max(1.0, deadline - time.monotonic()))
    return dataset


def summarize(args, spec, summaries: list[dict], errors: list[str]) -> dict:
    iters = [it for s in summaries for it in s["iterations"]]
    untraced = [it for it in iters if not it["traced"] and it["wall_s"] is not None]
    traced = [it for it in iters if it["traced"] and it["wall_s"] is not None]

    attempted = failed = 0
    failed_checks: dict[str, int] = {}
    for it in iters:
        attempted += it["units"] + len(it["checks"])
        failed += it["units_failed"]
        for name, ok in it["checks"].items():
            if not ok:
                failed += 1
                failed_checks[name] = failed_checks.get(name, 0) + 1
    # Seeded outputs, and in traced iterations the work counts, must repeat
    # exactly across every iteration of the run.
    reference = dict(iters[0]["seeded"]) if iters else {}
    ref_counts = traced[0]["counts"] if traced else {}
    for it in iters:
        attempted += 1
        if it["seeded"] != reference or (it["traced"] and it["counts"] != ref_counts):
            failed += 1
            failed_checks["deterministic"] = failed_checks.get("deterministic", 0) + 1
    attempted += len(errors)
    failed += len(errors)

    stats: dict[str, list[float]] = {}
    if summaries:
        stats["setup_s"] = [s["setup_s"] for s in summaries]
        stats["peak_rss_mb"] = [s["peak_rss_mb"] for s in summaries]
    if untraced:
        stats["wall_s"] = [it["wall_s"] for it in untraced]
        stats["sim_steps_per_s"] = [it["steps"] / it["wall_s"] for it in untraced]

    layers: dict[str, float] = {}
    if traced:
        for name in spec_units(spec["per_layer"]):
            values = [it["layers"].get(name, 0.0) for it in traced]
            layers[name] = statistics.median(values)
        event_ms = sorted(ms for it in traced for ms in it["run_event_ms"])
        if event_ms:
            qs = statistics.quantiles(event_ms, n=10) if len(event_ms) > 1 else event_ms * 9
            layers["harness.run_event.ms_p50"] = statistics.median(event_ms)
            layers["harness.run_event.ms_p90"] = qs[8]
        else:
            layers["harness.run_event.ms_p50"] = layers["harness.run_event.ms_p90"] = 0.0
        traced_wall = statistics.median(it["wall_s"] for it in traced)
        layers["trace.wall_s"] = traced_wall
        if untraced:
            layers["trace.overhead_s"] = traced_wall - statistics.median(
                it["wall_s"] for it in untraced)
        for name in SEEDED:
            layers[name] = traced[0]["seeded"].get(name, 0.0)

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            **(summaries[0]["versions"] if summaries else {}),
        },
        "children": len(summaries),
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failed_checks": failed_checks,
        "errors": errors + [it["error"] for it in iters if it.get("error")],
        "seeded": reference,
        "stats": {k: describe(v) for k, v in stats.items()},
        "layers": layers,
    }


def spec_units(entries: list[dict]) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def report_lines(spec, doc: dict) -> list[str]:
    host = doc["host"]
    lines = [
        f"workload {doc['workload']}  seed {doc['seed']}  seconds {doc['seconds']}  "
        f"trace {doc['trace']}  children {doc['children']}  "
        f"iterations {doc['iterations']['untraced']} untraced, {doc['iterations']['traced']} traced",
        "host " + "  ".join(f"{k}={v}" for k, v in host.items()),
    ]
    for name, unit in spec_units(spec["end_to_end"]).items():
        if name in doc["stats"]:
            s = doc["stats"][name]
            lines.append(f"{name:<16} {s['median']!r} {unit}  (median of n={s['n']}; "
                         f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, min {s['min']:.6g}, "
                         f"max {s['max']:.6g})")
    units = spec_units(spec["per_layer"])
    for name in SEEDED:
        value = doc["seeded"].get(name)
        shown = "n/a (not produced by this workload)" if value is None else f"{value!r} {units[name]}"
        lines.append(f"{name:<16} {shown}  (seeded)")
    lines.append(f"{'failed_frac':<16} {doc['failed_frac']!r} ratio  "
                 f"({doc['failed']} of {doc['attempted']} events, points and checks)")
    if doc["layers"]:
        for name, unit in spec_units(spec["per_layer"]).items():
            lines.append(f"{name:<40} {doc['layers'][name]:.6g} {unit}")
    for err in doc["errors"]:
        lines.append(f"error: {err}")
    for name, n in doc["failed_checks"].items():
        lines.append(f"check failed: {name} ({n} iterations)")
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="3 events or 3 sweep points per iteration (self-test size)")
    ap.add_argument("--report", type=Path, help="also write the full result document here")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "probsense" / "__init__.py").is_file():
        print(f"error: no probsense sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    workdir = WORK / "run"  # one run at a time per checkout
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        dataset = (make_dataset(args, env, workdir, deadline)
                   if args.workload == "replay_digital_io" else None)
        summaries, errors = run_children(args, env, workdir, dataset, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    doc = summarize(args, spec, summaries, errors)
    for line in report_lines(spec, doc):
        print(line)
    if args.report is not None:
        args.report.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = doc["layers"] if args.trace else {k: v["median"] for k, v in doc["stats"].items()}
    missing = [e["name"] for e in section if e["name"] not in values]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
