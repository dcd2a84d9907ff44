#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (3 events or 3 sweep points).

    python3 bench/selftest.py

For each workload it makes one untraced and two traced runs and asserts
that every metric of BENCHMARK.json is reported with its unit, that every
check passes, and that the seeded outputs and all work counts repeat
exactly across the two traced runs. It also asserts what the traced run must
show: no telegraph spans on replay_digital_io, and pbit.telegraph_run as the
largest self time on survey_smtj. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT_UNITS = ("count", "B", "ratio", "%", "probability")


def run(workload: str, trace: int, report: Path) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "12345",
         "--seconds", "1", "--trace", str(trace), "--tiny", "--report", str(report)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=180,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(report.read_text())


def check_result(result: dict, section: list[dict], what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, what
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {e["name"]: e["unit"] for e in section}
    assert got == want, f"{what}: metrics {got} != {want}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    exact = [e["name"] for e in spec["per_layer"] if e["unit"] in EXACT_UNITS]
    nonzero: set[str] = set()
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        tmp = Path(tmp)
        for w in (w["name"] for w in spec["workloads"]):
            result, _ = run(w, 0, tmp / f"{w}-0.json")
            check_result(result, spec["end_to_end"], f"{w} untraced")
            traced = []
            for k in (1, 2):
                result, doc = run(w, 1, tmp / f"{w}-1-{k}.json")
                check_result(result, spec["per_layer"], f"{w} traced run {k}")
                traced.append((result["metrics"], doc))
            (m1, d1), (m2, d2) = traced
            assert d1["seeded"] == d2["seeded"], f"{w}: seeded outputs differ across runs"
            for name in exact:
                assert m1[name]["value"] == m2[name]["value"], f"{w}: {name} differs across runs"
            nonzero |= {name for name, m in m1.items() if m["value"] != 0}
            if w == "replay_digital_io":
                for name in ("pbit.telegraph_run.calls", "pbit.telegraph_tick_states.calls"):
                    assert m1[name]["value"] == 0, f"{w}: {name} is not 0"
            if w == "survey_smtj":
                self_s = {n: m["value"] for n, m in m1.items() if n.endswith(".self_s")}
                top = max(self_s, key=self_s.get)
                assert top == "pbit.telegraph_run.self_s", f"{w}: largest self time is {top}"
            print(f"ok {w}")
    never = [e["name"] for e in spec["per_layer"] if e["name"] not in nonzero]
    assert not never, f"per-layer metrics 0 on every workload: {never}"
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
