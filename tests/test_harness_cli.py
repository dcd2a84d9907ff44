import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import probsense
from probsense.acquisition import SampleStream, reconstruct
from probsense.activation import ActivationConfig, run_activation
from probsense.afe import AfeConfig, extract_features
from probsense.cli import FLAGS, build_experiment, main, parse_config_file
from probsense.harness import (
    MIN_TICKS_PER_POINT,
    SYNTH_DURATION_S,
    SYNTH_RATE_HZ,
    WAVELET_AMPLITUDE,
    WAVELET_F0_HZ,
    ExperimentConfig,
    GridError,
    SweepGrid,
    _event_paths,
    _survey_onsets,
    _synth_one,
    max_ramp_slope,
    run_event,
    run_survey,
    sweep_slope,
    sweep_vin,
    synth_survey,
)
from probsense.pbit import PNeuronConfig
from probsense.traces import Trace, load_trace, synth_event, write_csv, write_trace

# Every finite float64, with signed zero, subnormals and huge magnitudes forced in.
csv_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


# Reference: the per-line writers that `traces.write_csv` replaced.
def _write_stream_loop(path, stream):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time_s,value\n")
        for t, v in zip(stream.times_s.tolist(), stream.values.tolist()):
            fh.write(f"{t!r},{v!r}\n")


def _assert_recon_rebuilds(out, i, rate_hz, t0_s, n):
    """recon_event_i.csv is `reconstruct` over samples_event_i.csv, on the
    event's own n-tick grid at rate_hz from t0_s."""
    t, v = np.loadtxt(out / f"samples_event_{i:03d}.csv", delimiter=",", skiprows=1,
                      ndmin=2).T
    ticks = np.rint((t - t0_s) * rate_hz).astype(np.int64)
    rebuilt = reconstruct(SampleStream(ticks, v, rate_hz, t0_s), rate_hz, n, t0_s)
    t_r, v_r = np.loadtxt(out / f"recon_event_{i:03d}.csv", delimiter=",", skiprows=1).T
    assert np.array_equal(rebuilt.samples, v_r)
    assert np.array_equal(rebuilt.times_s, t_r)


def _sweep_at(sweep, cfg, xs, ticks):
    """`sweep` at the points xs, row i seeded as a sweep over a grid of xs seeds its point i."""
    return np.vstack([sweep(replace(cfg, base_seed=cfg.base_seed + i,
                                    sweep=SweepGrid(x, x, 1, ticks)))
                      for i, x in enumerate(xs)])


def _write_sweep_loop(rows, path, x_name):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{x_name},measured_rate,model_probability\n")
        for x, m, p in rows.tolist():
            fh.write(f"{x!r},{m!r},{p!r}\n")


SNR_DB = ExperimentConfig.snr_db


def _survey_events(snr_db, n_events, base_seed):
    """The events `run_survey` synthesizes, as `synth_survey` writes them."""
    onsets = _survey_onsets(n_events, base_seed)
    return [_synth_one(snr_db, onset, base_seed + i) for i, onset in enumerate(onsets)]


def _leaf_fields(obj, prefix=""):
    """The dotted paths of the non-dataclass fields of dataclass obj, recursively."""
    leaves = set()
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            leaves |= _leaf_fields(value, f"{prefix}{f.name}.")
        else:
            leaves.add(prefix + f.name)
    return leaves


class TestSynthSurvey:
    def test_counts_and_rate(self, tmp_path):
        paths = synth_survey(SNR_DB, n_events=7, base_seed=1, directory=tmp_path)
        assert [p.name for p in paths] == [f"event_{i:03d}.csv" for i in range(7)]
        assert sorted(tmp_path.iterdir()) == paths
        assert len(_survey_onsets(7, base_seed=1)) == 7
        for p in paths:
            assert load_trace(p).rate_hz == pytest.approx(2000.0, rel=1e-9)

    def test_deterministic(self, tmp_path):
        assert _survey_onsets(3, base_seed=5) == _survey_onsets(3, base_seed=5)
        for ea, eb in zip(_survey_events(SNR_DB, 3, 5), _survey_events(SNR_DB, 3, 5)):
            assert np.array_equal(ea.samples, eb.samples)
        a = synth_survey(SNR_DB, 3, base_seed=5, directory=tmp_path / "a")
        b = synth_survey(SNR_DB, 3, base_seed=5, directory=tmp_path / "b")
        for pa, pb, ev in zip(a, b, _survey_events(SNR_DB, 3, 5)):
            assert pa.read_bytes() == pb.read_bytes()
            # each file holds the event run_survey synthesizes, bit for bit
            assert np.array_equal(load_trace(pa).samples, ev.samples)

    def test_refuses_a_directory_with_csv_files(self, tmp_path):
        synth_survey(SNR_DB, 3, base_seed=1, directory=tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(FileExistsError, match="3 CSV file"):
            synth_survey(SNR_DB, 2, base_seed=7, directory=tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_a_thousand_events_replay_in_order(self, tmp_path, monkeypatch):
        # with 1001 events the names are padded to 4 digits, so event_1000.csv
        # sorts last, not between event_100 and event_101, and a replay runs
        # every file as its own index; each short event is constant at its
        # seed, the override samples it whole, and its samples file shows
        # which event ran under its name
        import probsense.harness as harness_mod

        monkeypatch.setattr(harness_mod, "_synth_one",
                            lambda snr_db, onset_s, seed: Trace(np.full(8, float(seed)), 2000.0))
        n, base = 1001, 3
        paths = synth_survey(SNR_DB, n, base_seed=base, directory=tmp_path / "data")
        assert [p.name for p in paths] == [f"event_{i:04d}.csv" for i in range(n)]
        out = tmp_path / "out"
        rep = run_survey(ExperimentConfig(dataset=tmp_path / "data", n_events=n,
                                          base_seed=base, output_dir=out))
        assert rep.n_failed == 0
        samples = sorted(out.glob("samples_event_*.csv"))
        assert [p.name for p in samples] == [f"samples_event_{i:04d}.csv" for i in range(n)]
        assert len(list(out.glob("recon_event_*.csv"))) == n
        for i, path in enumerate(samples):
            values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]
            assert np.all(values == base + i), path.name

    def test_unpadded_numbers_replay_in_number_order(self, tmp_path):
        # a dataset not written by synth: event_10.csv replays after
        # event_9.csv, not before event_2.csv; each short event is constant
        # at its number, so its samples file shows which event ran
        data = tmp_path / "data"
        data.mkdir()
        numbers = (10, 2, 9, 100, 1)
        for k in numbers:
            write_trace(Trace(np.full(8, float(k)), 2000.0), data / f"event_{k}.csv")
        out = tmp_path / "out"
        rep = run_survey(ExperimentConfig(dataset=data, n_events=len(numbers), output_dir=out))
        assert rep.n_failed == 0
        samples = sorted(out.glob("samples_event_*.csv"))
        ran = [np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)[0, 1] for p in samples]
        assert ran == sorted(numbers)

    def test_event_paths_compare_digit_runs_as_numbers(self, tmp_path):
        names = ["b_2.csv", "a_10_1.csv", "event_9.csv", "a_9_20.csv", "event_09.csv",
                 "event_10.csv", "a_9_3.csv", "event_010.csv", "event.csv"]
        for name in names:
            (tmp_path / name).write_text("value\n0\n")
        assert [p.name for p in _event_paths(tmp_path)] == [
            "a_9_3.csv", "a_9_20.csv", "a_10_1.csv", "b_2.csv", "event.csv",
            "event_09.csv", "event_9.csv", "event_010.csv", "event_10.csv"]

    def test_accepts_a_directory_without_csv_files(self, tmp_path):
        (tmp_path / "notes.txt").write_text("survey notes\n")
        assert len(synth_survey(SNR_DB, 2, base_seed=1, directory=tmp_path)) == 2

    def test_energy_snr_calibration(self):
        onsets = _survey_onsets(1, base_seed=3)
        noisy = _synth_one(26.0, onsets[0], 3)
        clean = synth_event(
            SYNTH_DURATION_S, SYNTH_RATE_HZ, WAVELET_F0_HZ, onsets[0],
            WAVELET_AMPLITUDE, 0.0, seed=0,
        )
        noise = noisy.samples - clean.samples
        snr = 10 * np.log10(np.sum(clean.samples**2) / np.sum(noise**2))
        assert snr == pytest.approx(26.0, abs=1.0)


class TestRunSurvey:
    def test_dataset_dir_round_trip(self, tmp_path):
        paths = synth_survey(SNR_DB, 3, base_seed=2, directory=tmp_path / "data")
        for a, p in zip(_survey_events(SNR_DB, 3, 2), paths, strict=True):
            assert np.array_equal(a.samples, load_trace(p).samples)

        mem = run_survey(ExperimentConfig(n_events=3, base_seed=2))
        disk = run_survey(ExperimentConfig(dataset=tmp_path / "data", n_events=3, base_seed=2))
        assert disk.n_failed == 0
        assert disk.nmse_time == pytest.approx(mem.nmse_time, abs=0.005)
        assert disk.savings_pct == pytest.approx(mem.savings_pct, abs=1.5)

    def test_per_event_failure_contained(self, tmp_path):
        d = tmp_path / "data"
        synth_survey(SNR_DB, 3, base_seed=4, directory=d)
        # corrupt the middle event
        (d / "event_001.csv").write_text("time_s,value\n0.0,nan\n")
        rep = run_survey(ExperimentConfig(dataset=d, n_events=3))
        assert rep.n_failed == 1
        assert rep.per_event[1].error is not None
        assert rep.per_event[0].error is None
        assert rep.per_event[2].error is None
        assert rep.per_event[2].nmse_time is not None

    def test_report_and_stream_files(self, tmp_path):
        out = tmp_path / "out"
        rep = run_survey(ExperimentConfig(n_events=2, output_dir=out))
        assert sorted(p.name for p in out.iterdir()) == [
            "recon_event_000.csv", "recon_event_001.csv", "report.json",
            "samples_event_000.csv", "samples_event_001.csv"]
        doc = json.loads((out / "report.json").read_text())
        assert set(doc) == {"aggregate", "config", "per_event"}
        agg = doc["aggregate"]
        assert agg["nmse_time"] == pytest.approx(rep.nmse_time)
        assert agg["savings_pct"] + agg["active_time_pct"] == pytest.approx(100.0)
        assert len(doc["per_event"]) == 2

    def test_byte_identical_reports(self, tmp_path):
        c1 = ExperimentConfig(n_events=3, output_dir=tmp_path / "a")
        c2 = ExperimentConfig(n_events=3, output_dir=tmp_path / "b")
        run_survey(c1)
        run_survey(c2)
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()

    def test_event_window_savings_reported(self):
        rep = run_survey(ExperimentConfig(n_events=2))
        for ev in rep.per_event:
            assert ev.event_window_savings_pct is not None
            # the event window is densely sampled, so it saves less than the
            # whole trace does
            assert ev.event_window_savings_pct < ev.savings_pct

    def test_savings_invariant(self):
        rep = run_survey(ExperimentConfig(n_events=2))
        assert rep.savings_pct == pytest.approx(
            100.0 * (1 - rep.n_samples_p / rep.n_samples_r)
        )
        assert rep.savings_pct + rep.active_time_pct == 100.0

    def test_saturated_single_event_survey(self):
        # forcing the p-neuron to p = 1.0 makes the survey lossless and free
        cfg = ExperimentConfig(
            n_events=1,
            activation=ActivationConfig(
                pneuron=PNeuronConfig(v_ref_v=-5.0, source="digital_iid"),
                afe=AfeConfig(amp_threshold_v=1e9),
            ),
        )
        rep = run_survey(cfg)
        assert rep.nmse_time == 0.0
        assert rep.nmse_freq == 0.0
        assert rep.savings_pct == 0.0

    def test_value_only_dataset_with_sidecar_rate(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        for i, ev in enumerate(_survey_events(SNR_DB, 2, 8)):
            write_csv(d / f"event_{i:03d}.csv", "value", ev.samples)
        rep = run_survey(
            ExperimentConfig(dataset=d, dataset_rate_hz=2000.0, n_events=2, base_seed=8)
        )
        assert rep.n_failed == 0
        assert rep.nmse_time < 0.01
        # the replay sees bit-identical events, so it matches the in-memory run exactly
        mem = run_survey(ExperimentConfig(n_events=2, base_seed=8))
        for a, b in zip(rep.per_event, mem.per_event):
            assert (a.nmse_time, a.nmse_freq, a.n_samples_p, a.n_samples_r) == \
                (b.nmse_time, b.nmse_freq, b.n_samples_p, b.n_samples_r)

    def test_1khz_dataset_replays_at_its_own_rate(self, tmp_path):
        # the ADC grid is the trace's grid: no flag has to name the rate
        # (noise rms 0.004: about the synthetic survey's 26 dB energy SNR)
        (tmp_path / "data").mkdir()
        for i in range(3):
            write_trace(synth_event(1.0, 1000.0, 50.0, 0.3 + 0.2 * i, 1.0, 0.004, seed=5 + i),
                        tmp_path / "data" / f"event_{i:03d}.csv")
        out = tmp_path / "out"
        rep = run_survey(ExperimentConfig(dataset=tmp_path / "data", n_events=3,
                                          output_dir=out))
        assert rep.n_failed == 0
        assert rep.n_samples_r == 3 * 1000
        assert rep.nmse_time < 0.02
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["sync_rate_hz"] == pytest.approx(1000.0, rel=1e-9)
        times = np.loadtxt(out / "samples_event_000.csv", delimiter=",", skiprows=1)[:, 0]
        assert np.allclose(times * 1000.0, np.round(times * 1000.0))

    def test_grid_checked_before_any_event(self, tmp_path, monkeypatch):
        import probsense.harness as harness_mod

        # no factor is too coarse: the telegraph's law is exact at any step
        coarse = ExperimentConfig(upsample_factor=1, n_events=1)
        pn = replace(coarse.activation.pneuron, source="digital_iid")
        digital = replace(coarse, activation=replace(coarse.activation, pneuron=pn))
        assert run_survey(coarse).n_failed == 0
        assert run_survey(digital).n_failed == 0
        calls = []
        monkeypatch.setattr(harness_mod, "run_event", lambda *a: calls.append(a))
        for cfg, field, match in ((ExperimentConfig(band_hz=(0.0, 2000.0)), "band_hz", "Nyquist"),
                                  (ExperimentConfig(dataset=tmp_path / "missing"), "dataset",
                                   "no event CSV files"),
                                  (ExperimentConfig(dataset=tmp_path), "dataset",
                                   "no event CSV files")):
            with pytest.raises(GridError, match=match) as exc:
                run_survey(cfg)
            assert exc.value.field == field
        assert calls == []

    def test_sidecar_rate_checked_against_event_0(self, tmp_path, monkeypatch):
        import probsense.harness as harness_mod

        synth_survey(SNR_DB, 3, base_seed=8, directory=tmp_path / "data")
        loads = []
        load = harness_mod.load_trace
        monkeypatch.setattr(harness_mod, "load_trace",
                            lambda p, **kw: loads.append(p) or load(p, **kw))
        sidecar = 2000.0 * (1 + 1e-8)  # agrees with the files' grid within its tolerance
        rep = run_survey(ExperimentConfig(dataset=tmp_path / "data", dataset_rate_hz=sidecar,
                                          n_events=3, output_dir=tmp_path / "out"))
        assert rep.n_failed == 0
        assert sorted(loads) == sorted(set(loads)) and len(loads) == 3  # no file read twice
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["config"]["sync_rate_hz"] == sidecar  # the given rate stays the survey's
        calls = []
        monkeypatch.setattr(harness_mod, "run_event", lambda *a: calls.append(a))
        with pytest.raises(GridError, match="rate mismatch .*event_000") as exc:
            run_survey(ExperimentConfig(dataset=tmp_path / "data", dataset_rate_hz=1000.0,
                                        n_events=3))
        assert exc.value.field == "dataset_rate_hz"
        assert calls == []

    def test_savings_do_not_depend_on_the_upsampling_factor(self):
        # the AFE slope is one value per ADC sample and the override hold is
        # a time, not a step count, so a finer step grid leaves the samples
        # taken about the same
        savings = [run_survey(ExperimentConfig(upsample_factor=factor)).savings_pct
                   for factor in (10, 30, 50, 100)]
        assert max(savings) - min(savings) <= 0.5, savings

    def test_mixed_rate_dataset_contained(self, tmp_path):
        d = tmp_path / "data"
        synth_survey(SNR_DB, 2, base_seed=6, directory=d)
        other = Trace(np.zeros(500), 1000.0)
        write_trace(other, d / "event_002.csv")
        rep = run_survey(ExperimentConfig(dataset=d, n_events=3))
        assert rep.n_failed == 1
        assert "disagrees" in rep.per_event[2].error


class TestOutputFiles:
    def test_event_csvs_match_line_loops(self, tmp_path):
        cfg = ExperimentConfig(n_events=2, output_dir=tmp_path / "out")
        run_survey(cfg)
        onsets = _survey_onsets(2, cfg.base_seed)
        for i, trace in enumerate(_survey_events(cfg.snr_db, 2, cfg.base_seed)):
            _, p_stream, _, _ = run_event(trace, cfg, i, onsets[i])
            _write_stream_loop(tmp_path / "samples.csv", p_stream)
            assert (tmp_path / "out" / f"samples_event_{i:03d}.csv").read_bytes() == \
                (tmp_path / "samples.csv").read_bytes()

    @pytest.mark.parametrize("source", ["digital", "smtj"])
    def test_recon_csv_rebuilds_from_samples(self, source, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--n-events", "3", "--source", source, "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        for i, ev in enumerate(doc["per_event"]):
            _assert_recon_rebuilds(out, i, SYNTH_RATE_HZ, 0.0, ev["n_samples_r"])

    @pytest.mark.parametrize("rate_hz, factor, timed", [
        (2000.0, 50, True),
        # (r * 42) / 42 != r: the samples' times are on the stream's own rate
        (27524.72501488567, 42, False),
    ])
    def test_replay_csvs_match_line_loops(self, tmp_path, rate_hz, factor, timed):
        data = tmp_path / "data"
        data.mkdir()
        t0s = (0.0, 3.7) if timed else (0.0, 0.0)
        for i, t0 in enumerate(t0s):
            x = synth_event(1.0, rate_hz, 50.0, 0.3 + 0.2 * i, 1.0, 0.01, seed=i)
            path = data / f"event_{i:03d}.csv"
            if timed:
                write_trace(Trace(x.samples, rate_hz, t0), path)
            else:
                write_csv(path, "value", x.samples)
        cfg = ExperimentConfig(dataset=data, dataset_rate_hz=None if timed else rate_hz,
                               upsample_factor=factor, band_hz=(0.0, 200.0))
        # Twice in one process: the second replay reuses the formatted grids.
        for out in (tmp_path / "a", tmp_path / "b"):
            rep = run_survey(replace(cfg, output_dir=out))
            assert rep.n_failed == 0
        for i in range(len(t0s)):
            trace = load_trace(data / f"event_{i:03d}.csv", cfg.dataset_rate_hz)
            assert trace.t0_s == t0s[i]
            _, p_stream, _, recon = run_event(trace, cfg, i)
            assert p_stream.rate_hz != trace.rate_hz or timed
            _write_stream_loop(tmp_path / "samples.csv", p_stream)
            _write_stream_loop(tmp_path / "recon.csv", SimpleNamespace(
                times_s=recon.t0_s + np.arange(len(recon)) / recon.rate_hz,
                values=recon.samples))
            for out in (tmp_path / "a", tmp_path / "b"):
                assert (out / f"samples_event_{i:03d}.csv").read_bytes() == \
                    (tmp_path / "samples.csv").read_bytes()
                assert (out / f"recon_event_{i:03d}.csv").read_bytes() == \
                    (tmp_path / "recon.csv").read_bytes()
                _assert_recon_rebuilds(out, i, trace.rate_hz, trace.t0_s, len(trace))

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arrays(np.float64, st.tuples(st.integers(0, 30), st.just(3)), elements=csv_floats))
    def test_sweep_csv_matches_line_loop(self, tmp_path, rows):
        write_csv(tmp_path / "new.csv", "v_in_v,measured_rate,model_probability", *rows.T)
        _write_sweep_loop(rows, tmp_path / "ref.csv", "v_in_v")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestSweeps:
    def test_vin_midpoint(self):
        cfg = ExperimentConfig(
            activation=ActivationConfig(pneuron=PNeuronConfig(source="digital_iid"))
        )
        v_ref = cfg.activation.pneuron.v_ref_v
        rows = sweep_vin(replace(cfg, sweep=SweepGrid(v_ref, v_ref, 1, 10_000)))
        assert rows[0, 1] == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("source", ["digital_iid", "smtj_telegraph"])
    def test_vin_matches_model(self, source):
        cfg = ExperimentConfig(
            activation=ActivationConfig(pneuron=PNeuronConfig(source=source)),
            sweep=SweepGrid(-0.1, 0.8, 10, 10_000),
        )
        rows = sweep_vin(cfg)
        assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 0.02

    def test_vin_ticks_validation(self):
        with pytest.raises(GridError, match="1000") as exc:
            sweep_vin(ExperimentConfig(sweep=SweepGrid(0.0, 0.0, 1, 10)))
        assert exc.value.field == "sweep.ticks"

    @pytest.mark.parametrize("lo, hi, points, ticks, field", [
        (0.0, 1.0, 0, 1000, "sweep.points"),
        (0.0, 1.0, 1, MIN_TICKS_PER_POINT - 1, "sweep.ticks"),
        (np.nan, 1.0, 2, 1000, "sweep.lo"),
        (0.0, np.inf, 2, 1000, "sweep.hi"),
        (-1e308, 1e308, 2, 1000, "sweep.hi"),  # the span overflows float64
    ])
    def test_grid_rules(self, lo, hi, points, ticks, field):
        with pytest.raises(GridError) as exc:
            SweepGrid(lo, hi, points, ticks)
        assert exc.value.field == field

    def test_slope_zero_gives_baseline(self):
        cfg = ExperimentConfig(sweep=SweepGrid(0.0, 0.0, 1, 2000))
        rows = sweep_slope(cfg)
        x = cfg.activation.pneuron.min_rate
        assert rows[0, 1] == pytest.approx(x, abs=0.02)

    def test_slope_composition_with_vin(self):
        # slope curve equals the vin curve evaluated at slope_gain * slope
        cfg = ExperimentConfig()
        gain = cfg.activation.afe.slope_gain
        slopes = np.linspace(50.0, 450.0, 5)
        s_rows = sweep_slope(replace(cfg, sweep=SweepGrid(50.0, 450.0, 5, 4000)))
        v_rows = _sweep_at(sweep_vin, cfg, gain * slopes, 4000)
        assert np.max(np.abs(s_rows[:, 1] - v_rows[:, 1])) < 0.03

    def test_slope_saturates(self, monkeypatch):
        # no slope cap: any slope whose ramp is finite runs, and p = 1 once
        # the drive is far above v_ref
        import probsense.harness as harness_mod

        overrides = []

        def spy(*args, **kwargs):
            act = run_activation(*args, **kwargs)
            overrides.append(int(act.det_override.sum()))
            return act

        monkeypatch.setattr(harness_mod, "run_activation", spy)
        steep = [50_000.0, 1e300, max_ramp_slope(2000)]
        rows = _sweep_at(sweep_slope, ExperimentConfig(), [2000.0, 5000.0, *steep], 2000)
        assert np.all(rows[:, 1] > 0.97)
        assert np.all(rows[2:, 2] == 1.0)
        # at p = 1 the p-neuron is ON at every tick after tick 0, which sees
        # the ramp's first sample (slope 0, p = X); the override stays off
        # however large the ramp grows
        assert np.all(rows[2:, 1] >= 1.0 - 1 / 2000)
        assert overrides == [0] * len(rows)

    @pytest.mark.parametrize("slope, ticks", [
        (0.0, 1000), (150.0, 1000), (306.6, 1000), (5000.0, 1000), (1e300, 1000),
        (max_ramp_slope(1000), 1000), (max_ramp_slope(10_000), 10_000),
    ], ids=["0", "150", "306.6", "5000", "1e300", "max-at-1000", "max-at-10000"])
    def test_ramp_has_slope_s_on_every_segment(self, slope, ticks, monkeypatch):
        # the sweep runs its ramp as `run_event` runs a survey event
        import probsense.harness as harness_mod

        seen = []

        def spy(x, cfg, steps_per_tick, seed, factor):
            seen.append((x, steps_per_tick, factor))
            return run_activation(x, cfg, steps_per_tick, seed, factor=factor)

        monkeypatch.setattr(harness_mod, "run_activation", spy)
        sweep_slope(ExperimentConfig(sweep=SweepGrid(slope, slope, 1, ticks)))
        [(x, spt, factor)] = seen
        assert (len(x), x.rate_hz, spt, factor) == (ticks, SYNTH_RATE_HZ, 50, 50)
        g = extract_features(x)
        assert g[0] == 0.0
        # each sample is rounded once in k / rate and once in the product
        np.testing.assert_allclose(g[1:], slope, rtol=4 * ticks * np.finfo(np.float64).eps)

    @given(ticks=st.integers(MIN_TICKS_PER_POINT, 10**9))
    def test_steepest_ramp_stays_below_half_the_largest_float(self, ticks):
        # the sweep's last sample, computed as the sweep computes it
        last = np.float64(ticks - 1) / SYNTH_RATE_HZ * max_ramp_slope(ticks)
        assert last <= np.finfo(np.float64).max / 2 * (1 + 4 * np.finfo(np.float64).eps)

    def test_slope_above_maximum_rejected_before_any_point(self, monkeypatch):
        import probsense.harness as harness_mod

        cfg = ExperimentConfig()
        calls = []
        monkeypatch.setattr(harness_mod, "run_activation", lambda *a, **k: calls.append(a))
        # the ramp's last sample s * 9999 / 2 kHz may reach half the largest
        # float64: about 1.8e307 V/s
        half = np.finfo(np.float64).max / 2
        s_max = max_ramp_slope(10_000)
        assert s_max == half / (9999 / SYNTH_RATE_HZ)
        # up to a 1 s ramp the slope itself binds
        assert max_ramp_slope(1000) == max_ramp_slope(2001) == half
        above = np.nextafter(s_max, np.inf)
        for grid, named, field in ((SweepGrid(0.0, 1e308, 2, 10_000), "1e+308", "sweep.hi"),
                                   (SweepGrid(above, above, 1, 10_000), f"{s_max:g}",
                                    "sweep.lo")):
            with pytest.raises(GridError, match=re.escape(f"slope {named} V/s exceeds the "
                                                          f"maximum {s_max:g} V/s")) as exc:
                sweep_slope(replace(cfg, sweep=grid))
            assert exc.value.field == field
        # a negative slope fails before any point too
        with pytest.raises(GridError, match="must be >= 0") as exc:
            sweep_slope(replace(cfg, sweep=SweepGrid(0.0, -5.0, 2, 1000)))
        assert exc.value.field == "sweep.hi"
        assert calls == []

    def test_slope_gain_overflow_rejected_before_any_point(self, monkeypatch):
        import probsense.harness as harness_mod

        class PointRan(Exception):
            pass

        def first_point(*args, **kwargs):
            raise PointRan

        monkeypatch.setattr(harness_mod, "run_activation", first_point)
        # gain times the grid's steepest slope may reach half the largest
        # float64, the headroom max_ramp_slope keeps, and no more
        limit = np.finfo(np.float64).max / 2 / 500.0
        grid = SweepGrid(0.0, 500.0, 2, 1000)
        for gain in (1e308, np.nextafter(limit, np.inf)):
            cfg = ExperimentConfig(activation=ActivationConfig(afe=AfeConfig(slope_gain=gain)),
                                   sweep=grid)
            with pytest.raises(GridError, match="exceeds half the largest float64") as exc:
                sweep_slope(cfg)
            assert exc.value.field == "activation.afe.slope_gain"
        cfg = ExperimentConfig(activation=ActivationConfig(afe=AfeConfig(slope_gain=limit)),
                               sweep=grid)
        with pytest.raises(PointRan):
            sweep_slope(cfg)

    def test_sweeps_match_oracle_kernels(self, monkeypatch):
        # every row, bit for bit, as computed with the reference kernels: the
        # telegraph's scalar loop and 16-bit-gather words
        import probsense.pbit as pbit_mod
        from test_pbit import _lfsr_word_uniforms_gather, _telegraph_loop

        smtj = ExperimentConfig()
        digital = replace(smtj, activation=replace(
            smtj.activation, pneuron=PNeuronConfig(source="digital_iid")))
        # 306.6 V/s drives p to 0.98; 5000 V/s saturates it
        slopes = [0.0, 150.0, 306.6, 500.0, 5000.0]
        v_grid = SweepGrid(-0.1, 0.8, 4, 1000)

        def rows():
            return (_sweep_at(sweep_slope, smtj, slopes, 1000),
                    sweep_vin(replace(smtj, sweep=v_grid)),
                    sweep_vin(replace(digital, sweep=v_grid)))

        got = rows()
        assert got[0][2, 2] == pytest.approx(0.98, abs=0.002)
        # both telegraph entry points call `pbit._telegraph`
        monkeypatch.setattr(pbit_mod, "_telegraph", _telegraph_loop)
        monkeypatch.setattr(pbit_mod, "lfsr_word_uniforms", _lfsr_word_uniforms_gather)
        for a, b in zip(got, rows()):
            assert a.tobytes() == b.tobytes()


class TestConfigFile:
    def test_parse_types(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text(
            "# comment\n"
            "n_events = 5\n"
            "vref = 0.25\n"
            "source = 'digital'\n"
            "band = 0:150\n"
            "\n"
        )
        opts = parse_config_file(p)
        assert opts == {"n_events": 5, "vref": 0.25, "source": "digital", "band": "0:150"}

    def test_numbers_parse_as_on_the_command_line(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("n_events = 5\nvref = 0.25\nslope_gain = 1e-3\nsnr_db = 20\n")
        cfg = build_experiment(parse_config_file(p))
        assert cfg.n_events == 5
        assert cfg.activation.pneuron.v_ref_v == 0.25
        assert cfg.activation.afe.slope_gain == 1e-3
        assert cfg.snr_db == 20.0

    @pytest.mark.parametrize("text, flags", [
        ("rate_hz = 2000\ndataset = D\n", []),
        ("rate_hz = 2000\n", ["--dataset", "D"]),
    ], ids=["rate-above-dataset", "dataset-flag"])
    def test_dataset_rate_in_any_option_order(self, text, flags, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--n-events", "1", "--out", "D"]) == 0
        (tmp_path / "cfg.txt").write_text(text)
        assert main(["run", "--config", "cfg.txt", "--n-events", "1", *flags]) == 0
        cfg = build_experiment({"rate_hz": 2000.0, "dataset": "D"})
        assert (str(cfg.dataset), cfg.dataset_rate_hz) == ("D", 2000.0)

    def test_dataset_rate_in_file_without_dataset_fails(self, tmp_path, capsys):
        p = tmp_path / "cfg.txt"
        p.write_text("rate_hz = 5000\n")
        assert main(["run", "--config", str(p), "--n-events", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "dataset_rate_hz" in err[0]

    @pytest.mark.parametrize("line", ["n_events = 2.9", "upsample = 50.9", "seed = 2.7",
                                      "source = digital_iid", "source = foo"])
    def test_fractional_value_for_integer_flag_fails(self, line, tmp_path, monkeypatch, capsys):
        p = tmp_path / "cfg.txt"
        p.write_text(line + "\n")
        import probsense.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "run_survey", calls.append)
        assert main(["run", "--config", str(p)]) == 2
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        key = line.partition(" ")[0]
        assert len(err) == 1 and err[0].startswith(f"error: {key} = ")
        # a value outside the flag's choices is rejected as argparse rejects it
        assert ", ".join(FLAGS[key].choices or ()) in err[0]

    def test_repeated_key_fails(self, tmp_path, monkeypatch, capsys):
        p = tmp_path / "cfg.txt"
        p.write_text("n_events = 2\nn-events = 3\n")
        with pytest.raises(ValueError, match=r":2: key 'n_events' already set on line 1$"):
            parse_config_file(p)
        import probsense.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "run_survey", calls.append)
        assert main(["run", "--config", str(p)]) == 2
        assert calls == []
        assert capsys.readouterr().err.splitlines() == [
            f"error: {p}:2: key 'n_events' already set on line 1"]

    def test_bad_line(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("just words\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(p)

    def test_hash_inside_quotes_is_kept(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text('out = "runs#2"  # where the run goes\n'
                     "dataset = 'a # b'\n"
                     "source = digital # the LFSR\n")
        assert parse_config_file(p) == {"out": "runs#2", "dataset": "a # b",
                                        "source": "digital"}

    def test_quoted_out_with_hash_is_the_output_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.txt").write_text('out = "runs#2"\nn_events = 1\n')
        assert main(["run", "--config", "cfg.txt"]) == 0
        assert (tmp_path / "runs#2" / "report.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt", "runs#2"]

    @pytest.mark.parametrize("line", ['out = "runs', "out = 'runs#2", 'out = "a" b'])
    def test_bad_quote_is_one_error_line(self, line, tmp_path, monkeypatch, capsys):
        p = tmp_path / "cfg.txt"
        p.write_text(line + "\n")
        import probsense.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "run_survey", calls.append)
        assert main(["run", "--config", str(p)]) == 2
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {p}:1: ")

    def test_build_experiment_mapping(self):
        cfg = build_experiment(
            {"tau_us": 250.0, "vref": 0.2, "beta": 8.0, "source": "digital",
             "n_events": 7, "upsample": 25, "band": "0:100", "seed": 99}
        )
        pn = cfg.activation.pneuron
        assert pn.tau_s == pytest.approx(250e-6)
        assert pn.v_ref_v == 0.2
        assert pn.beta == 8.0
        assert pn.source == "digital_iid"
        assert cfg.n_events == 7
        assert cfg.upsample_factor == 25
        assert cfg.band_hz == (0.0, 100.0)
        assert cfg.base_seed == 99

    def test_every_config_field_is_one_flag(self):
        # no field that no command can set, and no two flags one command reads
        # for one field (--vmin and --smin both set sweep.lo, each for its sweep)
        every = set()
        for command in COMMON_FLAGS:
            fields = [flag.field for flag in FLAGS.values() if command in flag.commands]
            assert len(set(fields)) == len(fields), command
            every |= set(fields)
        assert _leaf_fields(ExperimentConfig(sweep=SweepGrid(0.0, 1.0, 2, 1000))) == every


# SHA-256 of the default `run --out` survey's report.json and of all its
# per-event CSVs (each file's name, a NUL and its bytes, in name order), per
# source. A seeded output that moves is a behaviour change and must be named.
# (The CSV digests were 0a00f0ee...d90465c5 and 215fb838...1d33f29a while each
# event also wrote a rate_event_NNN.csv. With a 1 ms AFE moving average the
# smtj digests were b86b014d...4424647f and dd0c886e...ff6b6428, the digital
# ones c9ebbb0e...776e414e and cb46900e...14f20f00. The smtj digests were
# da0c9a31...5781d7f8e and c255c0ba...353fd59ae while the telegraph flipped
# with probability dt / dwell per step, before its exact law.)
GOLDEN_RUN = {
    "smtj": ("21785ce8f0d4a06d8bd63f2f19067eeeac50e66375b175833dc0dc335264dee7",
             "1a5cc35752d6a398ab56e093bd578b2b68c996a1ddea2c3b01f89d992821e34e"),
    "digital": ("d8b0a9a08b6df6d3bace172d59762c40a6184c008e133fd2751e5f1e76c0f8dc",
                "15212b514671fe7e1e76ceeac328a76919c6b03afcab743a0bfc2f93d0868051"),
}


@pytest.mark.parametrize("source", sorted(GOLDEN_RUN))
def test_default_run_outputs_are_golden(source, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--source", source, "--out", str(out)]) == 0
    csvs = hashlib.sha256()
    paths = sorted(out.glob("*_event_*.csv"))
    for path in paths:
        csvs.update(path.name.encode() + b"\0" + path.read_bytes())
    assert len(paths) == 2 * ExperimentConfig().n_events
    report = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
    # the digests were recorded with numpy 2.4; a release that rounds exp
    # differently moves them all at once
    assert (report, csvs.hexdigest()) == GOLDEN_RUN[source], f"numpy {np.__version__}"


# SHA-256 over every file a command writes into its --out directory (each
# file's name, a NUL and its bytes, in name order), at the command's defaults.
GOLDEN_OUTPUTS = {
    "sweep-vin --source digital":
        "0c4ca01b357c02e105b1440d47d61270d5211245d34141d668542e71446b1ed8",
    # the telegraph's exact law at tick spacing (was 96bf109a...e1c743ff with
    # geometric dwells of dt / dwell steps, and dff3389f...d1bbf16 when those
    # drew about 15 times more pairs)
    "sweep-vin --source smtj":
        "5f3bb91c6ce3506b8c9416c2f527b04aa8983e1c460da07fced4859f4eb8ae37",
    # (were e703966e...6606976c and abe4c45d...a339d85a with a 1 ms AFE
    # moving average)
    "sweep-slope --source digital":
        "a12ba8f8980b58bdb9f92cc402efeceb8b7cd9026368d3880dcbb8f1e062a690",
    # a ramp on the ADC grid, run at the survey's factor: the telegraph sees
    # no turning step of the 100 kHz triangle wave it ran on before, and the
    # 150 V/s point reads 0.5729 (was 2cb2023a...aab27bee, reading 0.5693).
    # With the telegraph's exact law the high points read p, not about 0.99,
    # and 150 V/s reads 0.5626 (was c0749f20...df8df0ad)
    "sweep-slope --source smtj":
        "630ba2a15a78d33752a1f3d219bdf6b75d3831d7d2e4006d94d771186f9d90bb",
    "synth": "ac60a31589d666d176fb79e305a530cea67f3abbc3e555c4f03dcd90e46c75a3",
    # a factor other than the default: the p-neuron's drive is held over 30
    # steps per ADC sample, and the 10 ms hold is 600 steps. (Were
    # a88a8a44...1000fcb8 and 026d2ffb...4ffe3276 while the AFE window was
    # 100 steps and the hold 1000 steps at any factor, then fd992563...22c5ffd5
    # and 50ab13ca...d51d9bb9 while the window was 1 ms, 30 steps. The smtj
    # digest was eb0a697f...35028074 before the telegraph's exact law.)
    "run --source smtj --upsample 30":
        "01ccaf3a9f168c98e2b5905b614f9d804a5f61e794a77514063f0ffaf47fdafb",
    "run --source digital --upsample 30":
        "586b2781d7c107072a6ff0e7d3deb7c3f967dc3939e95970ef2decaa286bbc38",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_OUTPUTS))
def test_command_outputs_are_golden(command, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*command.split(), "--out", str(out)]) == 0
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == GOLDEN_OUTPUTS[command], f"numpy {np.__version__}"


# The flags each subcommand reads, as read off `run_survey`, the sweeps and
# `synth_survey`; 42 (command, flag) pairs. Every other pair is an error. `run`
# reads every flag but the sweep grid's.
COMMON_FLAGS = {
    "run": {"dataset", "rate_hz", "n_events", "seed", "tau_us", "vref", "beta", "source",
            "upsample", "band", "slope_gain", "amp_threshold", "hold_ms", "snr_db", "out"},
    "sweep-vin": {"seed", "tau_us", "vref", "beta", "source", "upsample", "out",
                  "vmin", "vmax", "points", "ticks"},
    "sweep-slope": {"seed", "tau_us", "vref", "beta", "source", "upsample", "slope_gain", "out",
                    "smin", "smax", "points", "ticks"},
    "synth": {"n_events", "seed", "snr_db", "out"},
}
# A value each flag accepts, so that only the (command, flag) pair is at fault.
FLAG_VALUES = {
    "dataset": "D", "rate_hz": "2000", "n_events": "1", "seed": "1", "tau_us": "500",
    "vref": "0.3", "beta": "10", "source": "digital", "upsample": "50", "band": "0:100",
    "slope_gain": "0.001", "amp_threshold": "0.05", "hold_ms": "5", "snr_db": "20",
    "out": "x", "vmin": "0", "vmax": "0.5", "smin": "0", "smax": "100", "points": "2",
    "ticks": "1000",
}


class TestCli:
    def test_surveys_do_not_import_numpy_ma(self, tmp_path):
        """A survey with either source, and a dataset replay, import no
        numpy.ma (np.median does, on first use). In a fresh process: pytest
        and hypothesis may have imported it into this one."""
        script = """
import contextlib, io, sys
from probsense.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["run", "--n-events", "2", "--source", "smtj"],
                 ["run", "--n-events", "2", "--source", "digital"],
                 ["synth", "--n-events", "2", "--out", "data"],
                 ["run", "--dataset", "data", "--n-events", "2", "--out", "replay"]):
        assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""
        src = str(Path(probsense.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                             capture_output=True, text=True, check=True)
        assert (tmp_path / "replay" / "report.json").exists()
        assert out.stdout.strip() == "[]"

    def test_synth_then_run(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--n-events", "3", "--out", str(data)]) == 0
        assert len(list(data.glob("*.csv"))) == 3
        out = tmp_path / "result"
        code = main([
            "run", "--dataset", str(data), "--n-events", "3", "--out", str(out),
        ])
        assert code == 0
        assert (out / "report.json").exists()
        text = capsys.readouterr().out
        assert "savings" in text

    def test_synth_into_a_survey_directory_is_one_error_line(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--n-events", "3", "--out", str(data)]) == 0
        before = {p.name: p.read_bytes() for p in data.iterdir()}
        capsys.readouterr()
        assert main(["synth", "--n-events", "2", "--seed", "7", "--out", str(data)]) == 2
        cap = capsys.readouterr()
        err = cap.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --out: ")
        assert cap.out == ""
        assert {p.name: p.read_bytes() for p in data.iterdir()} == before

    def test_run_exit_code_on_partial_failure(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", "--n-events", "2", "--out", str(data)])
        (data / "event_000.csv").write_text("time_s,value\n0.0,nan\n")
        code = main(["run", "--dataset", str(data), "--n-events", "2"])
        assert code == 1
        assert "FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("hold", [2**63 - 1, 10**20, 1e300, 1e308])
    def test_huge_hold_latches_to_the_trace_end(self, hold, capsys):
        # as a hold of the trace's length does: no int64 overflow, and at
        # 1e308 ms the hold in steps overflows a float to inf
        assert main(["run", "--n-events", "2", "--hold-ms", str(hold)]) == 0
        out = capsys.readouterr().out
        assert main(["run", "--n-events", "2", "--hold-ms", "2000"]) == 0
        assert capsys.readouterr().out == out
        assert "(0 failed)" in out

    def test_huge_slope_gain_runs(self, capsys):
        # beta times the drive overflows to inf, whose p is 1: no event fails
        assert main(["run", "--slope-gain", "1e305", "--n-events", "2"]) == 0
        assert "(0 failed)" in capsys.readouterr().out

    def test_flag_overrides_config_file(self, tmp_path, monkeypatch):
        p = tmp_path / "cfg.txt"
        p.write_text("n_events = 9\nseed = 7\n")
        import probsense.cli as cli_mod

        captured = {}
        orig = cli_mod.run_survey

        def spy(cfg):
            captured["cfg"] = cfg
            return orig(cfg)

        monkeypatch.setattr(cli_mod, "run_survey", spy)
        main(["run", "--config", str(p), "--n-events", "2"])
        assert captured["cfg"].n_events == 2  # flag wins
        assert captured["cfg"].base_seed == 7  # file value survives

    def test_sweep_vin_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main([
            "sweep-vin", "--points", "3", "--ticks", "1000",
            "--source", "digital", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "sweep_vin.csv").read_text().splitlines()
        assert lines[0] == "v_in_v,measured_rate,model_probability"
        assert len(lines) == 4

    def test_unknown_config_key_fails_before_any_event(self, tmp_path, monkeypatch, capsys):
        p = tmp_path / "cfg.txt"
        p.write_text("sourc = digital\n")
        import probsense.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "run_survey", calls.append)
        assert main(["run", "--config", str(p)]) == 2
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "'sourc'" in err[0] and str(p) in err[0]
        # it names the command and every key the command reads
        keys = ", ".join(name for name, flag in FLAGS.items() if "run" in flag.commands)
        assert err[0].endswith(f"run does not read key 'sourc'; its keys are {keys}")

    def test_bool_config_value_fails_before_any_event(self, tmp_path, monkeypatch, capsys):
        # `true` stays text: int("true") fails, where int(True) would run one event
        p = tmp_path / "cfg.txt"
        p.write_text("n_events = true\n")
        assert parse_config_file(p) == {"n_events": "true"}
        import probsense.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "run_survey", calls.append)
        assert main(["run", "--config", str(p)]) == 2
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: n_events = 'true':")

    @pytest.mark.parametrize("command, lines, flags", [
        ("sweep-vin", ["points = 3", "ticks = 1000", "vmin = -0.05", "vmax = 0.6"],
         ["--points", "3", "--ticks", "1000", "--vmin=-0.05", "--vmax", "0.6"]),
        ("sweep-slope", ["points = 3", "ticks = 1000", "smin = 100", "smax = 400"],
         ["--points", "3", "--ticks", "1000", "--smin", "100", "--smax", "400"]),
    ])
    def test_sweep_grid_from_config_file(self, command, lines, flags, tmp_path, capsys):
        # the grid keys are config like any flag: the same CSV bytes either way
        p = tmp_path / "cfg.txt"
        p.write_text("\n".join(lines) + "\n")
        assert main([command, "--config", str(p), "--out", str(tmp_path / "file")]) == 0
        assert main([command, *flags, "--out", str(tmp_path / "flags")]) == 0
        name = command.replace("-", "_") + ".csv"
        csv = (tmp_path / "file" / name).read_bytes()
        assert csv == (tmp_path / "flags" / name).read_bytes()
        assert len(csv.splitlines()) == 4

    @pytest.mark.parametrize("command", ["sweep-vin", "sweep-slope"])
    def test_bad_grid_in_config_file_is_one_line_before_any_point(self, command, tmp_path,
                                                                  monkeypatch, capsys):
        import probsense.harness as harness_mod

        calls = []
        for name in ("run_activation", "telegraph_tick_states", "iid_decisions"):
            monkeypatch.setattr(harness_mod, name, lambda *a, **k: calls.append(a))
        p = tmp_path / "cfg.txt"
        p.write_text("points = 3\nticks = 10\n")
        out = tmp_path / "sw"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert calls == [] and not out.exists()
        cap = capsys.readouterr()
        err = cap.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --ticks: need at least 1000 ticks")
        assert cap.out == ""

    @pytest.mark.parametrize("flags", [
        ["--beta=-1"], ["--tau-us=0"],
        ["--amp-threshold=nan"], ["--amp-threshold=inf"],
        ["--slope-gain=nan"], ["--slope-gain=inf"],
        ["--snr-db=nan"], ["--snr-db=-inf"],
        ["--dataset=D", "--rate-hz=-5"], ["--dataset=D", "--rate-hz=nan"],
        ["--rate-hz=5000"],  # a dataset's rate, with no dataset to replay
        ["--dataset=D", "--snr-db=-40"],  # a synthetic setting, with a dataset to replay
        ["--seed=-1"], ["--hold-ms=-1"], ["--hold-ms=nan"], ["--hold-ms=inf"],
    ])
    def test_bad_config_value_is_one_error_line(self, flags, monkeypatch, capsys):
        import probsense.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "run_survey", calls.append)
        assert main(["run", "--n-events", "1", *flags]) == 2
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        # the message names the config field the last flag sets
        name = flags[-1].partition("=")[0].removeprefix("--").replace("-", "_")
        assert FLAGS[name].field.rpartition(".")[2] in err[0]

    @pytest.mark.parametrize("flags, flag", [
        (["--band", "0:2000"], "--band"),
        (["--dataset", "{tmp}/missing"], "--dataset"),
        (["--dataset", "{tmp}/empty"], "--dataset"),
    ], ids=["band", "missing-dataset", "empty-dataset"])
    def test_grid_error_is_one_line_before_any_event(self, flags, flag, tmp_path, monkeypatch,
                                                     capsys):
        import probsense.harness as harness_mod

        (tmp_path / "empty").mkdir()
        calls = []
        monkeypatch.setattr(harness_mod, "run_event", lambda *a: calls.append(a))
        out = tmp_path / "out"
        flags = [f.format(tmp=tmp_path) for f in flags]
        assert main(["run", "--n-events", "3", *flags, "--out", str(out)]) == 2
        assert calls == []
        cap = capsys.readouterr()
        err = cap.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag}:")
        assert cap.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run", "--n-events", "2"],
        ["sweep-vin", "--points", "2", "--ticks", "1000"],
        ["sweep-slope", "--points", "2", "--ticks", "1000"],
    ], ids=["run", "sweep-vin", "sweep-slope"])
    def test_smtj_runs_at_upsample_1(self, command, tmp_path, capsys):
        # the telegraph's law is exact at any step, so no factor is too
        # coarse for it (each command used to exit 2 here)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*command, "--source", "smtj", "--upsample", "1",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("source", ["smtj", "digital"])
    def test_sweep_slope_gain_overflow_is_one_line_before_any_point(self, source, tmp_path,
                                                                    monkeypatch, capsys):
        # the drive slope_gain * slope used to overflow at the 500 V/s point
        # and end in a "v_in_v must be finite" traceback
        import probsense.harness as harness_mod

        calls = []
        monkeypatch.setattr(harness_mod, "run_activation", lambda *a, **k: calls.append(a))
        out = tmp_path / "sw"
        code = main(["sweep-slope", "--source", source, "--slope-gain", "1e308", "--points",
                     "2", "--ticks", "1000", "--out", str(out)])
        assert code == 2
        assert calls == [] and not out.exists()
        cap = capsys.readouterr()
        err = cap.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --slope-gain:")
        assert cap.out == ""

    @pytest.mark.parametrize("command, flags, flag", [
        ("sweep-slope", ["--points", "0"], "--points"),
        ("sweep-slope", ["--points", "-1"], "--points"),
        ("sweep-vin", ["--points", "0"], "--points"),
        ("sweep-slope", ["--ticks", "10"], "--ticks"),
        ("sweep-vin", ["--ticks", "999"], "--ticks"),
        ("sweep-slope", ["--smin", "-5"], "--smin"),
        ("sweep-slope", ["--smax", "inf"], "--smax"),
        ("sweep-vin", ["--vmin", "nan"], "--vmin"),
        ("sweep-vin", ["--vmax=-inf"], "--vmax"),
        ("sweep-slope", ["--smax", "1e308"], "--smax"),
        ("sweep-vin", ["--vmin=-1e308", "--vmax", "1e308"], "--vmax"),  # the span overflows
    ], ids=["slope-points-0", "slope-points-neg", "vin-points-0", "slope-ticks", "vin-ticks",
            "smin", "smax", "vmin", "vmax", "smax-1e308", "vin-span"])
    def test_bad_sweep_grid_flag_is_one_line_before_any_point(self, command, flags, flag,
                                                              tmp_path, monkeypatch, capsys):
        import probsense.harness as harness_mod

        calls = []
        for name in ("run_activation", "telegraph_tick_states", "iid_decisions"):
            monkeypatch.setattr(harness_mod, name, lambda *a, **k: calls.append(a))
        out = tmp_path / "sw"
        assert main([command, *flags, "--out", str(out)]) == 2
        assert calls == [] and not out.exists()
        cap = capsys.readouterr()
        err = cap.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag}:")
        assert cap.out == ""

    @pytest.mark.parametrize("flags", [
        ["--smax", "1e300"],
        ["--smax", "50000"],
        ["--smin", "6000", "--smax", "7000"],
        ["--source", "digital", "--upsample", "4"],
        ["--slope-gain", "1e305"],  # beta times the drive overflows to inf: p is 1
    ], ids=["smax-1e300", "smax-50000", "smin-6000", "smax-500-at-upsample-4", "gain-1e305"])
    def test_steep_sweep_slope_runs(self, flags, tmp_path, capsys):
        # no slope cap, and none that scales with --upsample: a ramp does not alias
        out = tmp_path / "sw"
        assert main(["sweep-slope", *flags, "--points", "2", "--ticks", "1000",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out / "sweep_slope.csv", delimiter=",", skiprows=1)
        assert rows.shape == (2, 3)
        assert rows[-1, 2] > 0.99 and rows[-1, 1] > 0.97
        assert capsys.readouterr().err == ""

    def test_sidecar_rate_mismatch_is_one_line(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--n-events", "2", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["run", "--dataset", str(data), "--rate-hz", "1000"]) == 2
        cap = capsys.readouterr()
        err = cap.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --rate-hz: rate mismatch")
        assert cap.out == ""

    def test_sync_hz_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--sync-hz", "2000"])
        assert exc.value.code == 2
        p = tmp_path / "cfg.txt"
        p.write_text("sync_hz = 2000\n")
        assert main(["run", "--config", str(p)]) == 2
        assert "'sync_hz'" in capsys.readouterr().err

    def test_hold_steps_removed(self, tmp_path, capsys):
        # the hold is a time: --hold-ms
        with pytest.raises(SystemExit) as exc:
            main(["run", "--hold-steps", "1000"])
        assert exc.value.code == 2
        p = tmp_path / "cfg.txt"
        p.write_text("hold_steps = 1000\n")
        assert main(["run", "--config", str(p)]) == 2
        assert "'hold_steps'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [
        (command, name) for name, flag in FLAGS.items() for command in COMMON_FLAGS
        if command not in flag.commands])
    def test_flag_the_command_does_not_read_is_an_error(self, command, name, tmp_path,
                                                         monkeypatch, capsys):
        import probsense.cli as cli_mod

        calls = []
        for fn in ("run_survey", "sweep_vin", "sweep_slope", "synth_survey"):
            monkeypatch.setattr(cli_mod, fn, lambda *a: calls.append(a))
        monkeypatch.chdir(tmp_path)
        flag = "--" + name.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main([command, flag, FLAG_VALUES[name]])
        assert exc.value.code == 2
        err = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert err == [f"probsense {command}: error: unrecognized arguments: "
                       f"{flag} {FLAG_VALUES[name]}"]
        (tmp_path / "cfg.txt").write_text(f"{name} = {FLAG_VALUES[name]}\n")
        assert main([command, "--config", "cfg.txt"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{command} does not read key {name!r}" in err[0]
        assert calls == [] and [p.name for p in tmp_path.iterdir()] == ["cfg.txt"]

    @pytest.mark.parametrize("command", sorted(COMMON_FLAGS))
    def test_help_lists_exactly_the_flags_the_command_reads(self, command, monkeypatch,
                                                            capsys):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = {f.replace("-", "_")
                  for f in re.findall(r"^  --([a-z-]+)", capsys.readouterr().out, re.M)}
        assert listed - {"config"} == COMMON_FLAGS[command]

    def test_help_shows_dataclass_defaults(self, monkeypatch, capsys):
        import functools

        import probsense.cli as cli_mod

        monkeypatch.setenv("COLUMNS", "200")
        monkeypatch.setattr(cli_mod, "ExperimentConfig", functools.partial(
            ExperimentConfig, n_events=7, upsample_factor=13, snr_db=19.5))
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        lines = capsys.readouterr().out.splitlines()
        for flag, default in (("--n-events", "7"), ("--upsample", "13"), ("--snr-db", "19.5")):
            line = next(ln for ln in lines if ln.lstrip().startswith(flag))
            assert line.endswith(f"(default {default})")

    def test_sweep_slope_writes_csv(self, tmp_path):
        out = tmp_path / "sw"
        code = main([
            "sweep-slope", "--points", "2", "--ticks", "1000", "--out", str(out),
        ])
        assert code == 0
        assert (out / "sweep_slope.csv").exists()
