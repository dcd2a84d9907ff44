"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from probsense.acquisition import (
    nmse_freq,
    nmse_time,
    reconstruct,
    sample_gated,
    sample_regular,
    savings,
)
from probsense.activation import ActivationConfig, run_activation
from probsense.afe import AfeConfig
from probsense.cli import main
from probsense.harness import ExperimentConfig, SweepGrid, run_event, run_survey, sweep_vin
from probsense.pbit import (
    LFSR_PERIOD,
    PNeuronConfig,
    _lfsr_step,
    estimate_retention,
    telegraph_run,
    telegraph_tick_states,
    v_ref_for_min_rate,
)
from probsense.traces import synth_event

SYNC_HZ = 2000.0


def _check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def default_survey():
    """Criterion 1/2 share one run of the default 50-event survey."""
    t0 = time.monotonic()
    report = run_survey(ExperimentConfig())
    elapsed = time.monotonic() - t0
    return report, elapsed


def test_criterion_1_survey_fidelity(default_survey):
    report, elapsed = default_survey
    ok = (
        report.n_failed == 0
        and report.nmse_time <= 0.01
        and report.nmse_freq <= 0.01
        and elapsed < 60.0
    )
    _check(
        "criterion 1 (survey fidelity)",
        ok,
        f"nmse_time {report.nmse_time * 100:.3f} % <= 1 %, "
        f"nmse_freq {report.nmse_freq * 100:.3f} % <= 1 % "
        f"(50 events, {elapsed:.1f} s < 60 s)",
    )


def test_criterion_2_sample_savings(default_survey):
    report, _ = default_survey
    ok = report.savings_pct >= 90.0 and report.nmse_time <= 0.01 and report.nmse_freq <= 0.01
    _check(
        "criterion 2 (sample savings)",
        ok,
        f"savings {report.savings_pct:.2f} % >= 90 % with criterion 1 satisfied "
        f"({report.n_samples_p} of {report.n_samples_r} samples)",
    )


def test_criterion_3_oracle_equivalence():
    # saturated activation: v_ref = -5 V pins p to exactly 1.0 in float64
    # run on the ADC trace at the survey's factor
    trace = synth_event(1.0, SYNC_HZ, 50.0, 0.5, 1.0, 0.004, seed=11)
    cfg = ActivationConfig(
        pneuron=PNeuronConfig(v_ref_v=-5.0, source="digital_iid"),
        afe=AfeConfig(amp_threshold_v=1e9),
    )
    act = run_activation(trace, cfg, 0, factor=50)
    p_stream = sample_gated(trace, act)
    r_stream = sample_regular(trace, act)
    identical = np.array_equal(p_stream.times_s, r_stream.times_s) and np.array_equal(
        p_stream.values, r_stream.values
    )
    recon = reconstruct(p_stream, SYNC_HZ, len(trace))
    nt = nmse_time(trace, recon)
    nf = nmse_freq(trace, recon, (0.0, 200.0))
    sav, _ = savings(p_stream, r_stream)
    ok = identical and nt == 0.0 and nf == 0.0 and sav == 0.0
    _check(
        "criterion 3 (oracle equivalence)",
        ok,
        f"streams bit-identical={identical}, nmse_time={nt}, nmse_freq={nf}, savings={sav} %",
    )


@pytest.mark.parametrize("source", ["digital_iid", "smtj_telegraph"])
def test_criterion_4_sigmoid_sweep(source):
    cfg = ExperimentConfig(
        activation=ActivationConfig(pneuron=PNeuronConfig(source=source)),
        sweep=SweepGrid(-0.1, 0.8, 19, ticks=10_000),
    )
    rows = sweep_vin(cfg)
    max_err = float(np.max(np.abs(rows[:, 1] - rows[:, 2])))
    # monotone within the statistical noise bound
    dips = float(np.max(np.maximum.accumulate(rows[:, 1]) - rows[:, 1]))
    ok = max_err <= 0.02 and dips <= 0.02
    _check(
        f"criterion 4 (sigmoid sweep, {source})",
        ok,
        f"max |measured - model| = {max_err:.4f} <= 0.02, "
        f"max monotonicity dip = {dips:.4f}",
    )


def test_criterion_5_retention_statistics():
    cfg = PNeuronConfig(tau_s=500e-6)
    dt = 10e-6
    states = telegraph_run(np.full(6_000_000, 0.5), dt, cfg, np.random.default_rng(5))
    n_dwells = int((np.diff(states) != 0).sum()) + 1
    est = estimate_retention(states, dt)
    frac = telegraph_tick_states(
        0.8, 20e-6, cfg, steps_per_tick=25, n_ticks=1_000_000, rng=np.random.default_rng(7)
    ).mean()
    ok = n_dwells >= 100_000 and abs(est - 500e-6) / 500e-6 <= 0.05 and abs(frac - 0.8) <= 0.01
    _check(
        "criterion 5 (retention statistics)",
        ok,
        f"mean dwell {est * 1e6:.1f} us vs 500 us over {n_dwells} dwells; "
        f"stationary fraction {frac:.4f} vs 0.8 +- 0.01",
    )


def test_criterion_6_lfsr_period():
    t0 = time.monotonic()
    # the scalar oracle: emit the register's LSB, then shift
    r = 0xACE1
    ones = 0
    period = 0
    while True:
        ones += r & 1
        r = _lfsr_step(r)
        period += 1
        if r == 0xACE1 or period > LFSR_PERIOD:
            break
    elapsed = time.monotonic() - t0
    ok = period == 65535 and ones == 32768 and elapsed < 1.0
    _check(
        "criterion 6 (LFSR entropy source)",
        ok,
        f"period {period}, ones {ones} (exhaustive in {elapsed * 1e3:.0f} ms)",
    )


def test_criterion_7_correlation_regimes():
    cfg = PNeuronConfig(tau_s=1.0)  # tau set per regime below
    t_sync = 1.0 / SYNC_HZ

    def lag1(tau_s, dt):
        c = replace(cfg, tau_s=tau_s)
        spt = int(round(t_sync / dt))
        states = telegraph_tick_states(
            0.5, dt, c, steps_per_tick=spt, n_ticks=100_000, rng=np.random.default_rng(42)
        ).astype(np.float64)
        return float(np.corrcoef(states[:-1], states[1:])[0, 1])

    slow = lag1(10.0 * t_sync, 10e-6)  # retention 10x the sampling interval
    fast = lag1(0.1 * t_sync, 1e-6)  # retention 0.1x the sampling interval
    ok = slow > 0.3 and abs(fast) < 0.05
    _check(
        "criterion 7 (correlation regimes)",
        ok,
        f"lag-1 autocorr: tau=10x sync -> {slow:.3f} > 0.3; "
        f"tau=0.1x sync -> {fast:.4f}, |.| < 0.05",
    )


def test_criterion_8_run_determinism(tmp_path):
    args = ["run", "--n-events", "5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    b1 = (tmp_path / "a" / "report.json").read_bytes()
    b2 = (tmp_path / "b" / "report.json").read_bytes()
    ok = b1 == b2
    _check(
        "criterion 8 (determinism)",
        ok,
        f"two `run` invocations: report.json byte-identical ({len(b1)} bytes)",
    )


def test_criterion_9_monotone_fidelity():
    # raising the minimum rate X strictly lowers the median NMSE on a fixed
    # noisy event across 20 seeds
    x_grid = [0.02, 0.05, 0.1, 0.2]
    n_seeds = 20
    medians = []
    for x_min in x_grid:
        vals = []
        for s in range(n_seeds):
            trace = synth_event(1.0, SYNC_HZ, 50.0, 0.5, 1.0, 0.02, seed=7000 + s)
            base = ExperimentConfig(base_seed=7000 + s)
            cfg = replace(
                base,
                activation=replace(
                    base.activation,
                    pneuron=replace(
                        base.activation.pneuron, v_ref_v=v_ref_for_min_rate(x_min, 10.0)
                    ),
                ),
            )
            ev, *_ = run_event(trace, cfg, index=0)
            vals.append(ev.nmse_time)
        medians.append(float(np.median(vals)))
    ok = all(a > b for a, b in zip(medians, medians[1:]))
    _check(
        "criterion 9 (monotone fidelity)",
        ok,
        "median nmse_time strictly decreasing over X grid "
        + " > ".join(f"{m * 100:.2f}%" for m in medians),
    )
