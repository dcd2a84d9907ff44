import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from probsense.acquisition import SampleStream
from probsense.activation import ActivationConfig
from probsense.afe import AfeConfig
from probsense.cli import build_experiment, main, parse_config_file
from probsense.harness import (
    RATE_TRACE_WINDOW_TICKS,
    ExperimentConfig,
    GridError,
    SynthSurveySpec,
    _write_rate_csv,
    load_survey,
    run_event,
    run_survey,
    sweep_slope,
    sweep_vin,
    synth_survey,
    write_survey,
    write_sweep_csv,
)
from probsense.pbit import PNeuronConfig

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


def _write_rate_loop(path, p_stream, n_ticks):
    w = RATE_TRACE_WINDOW_TICKS
    n_win = n_ticks // w
    counts, _ = np.histogram(p_stream.ticks, bins=np.arange(0, n_win * w + 1, w))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("window_start_s,avg_rate\n")
        for k, c in enumerate(counts.tolist()):
            t = p_stream.t0_s + k * w / p_stream.rate_hz
            fh.write(f"{t!r},{c / w!r}\n")


def _write_sweep_loop(rows, path, x_name):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{x_name},measured_rate,model_probability\n")
        for x, m, p in rows.tolist():
            fh.write(f"{x!r},{m!r},{p!r}\n")


class TestSynthSurvey:
    def test_counts_and_rate(self):
        ds, onsets = synth_survey(SynthSurveySpec(), n_events=7, base_seed=1)
        assert len(ds) == 7
        assert len(onsets) == 7
        assert ds.rate_hz == 2000.0

    def test_deterministic(self):
        a, oa = synth_survey(SynthSurveySpec(), 3, base_seed=5)
        b, ob = synth_survey(SynthSurveySpec(), 3, base_seed=5)
        assert oa == ob
        for ea, eb in zip(a.events, b.events):
            assert np.array_equal(ea.samples, eb.samples)

    def test_energy_snr_calibration(self):
        spec = SynthSurveySpec(snr_db=26.0)
        ds, onsets = synth_survey(spec, 1, base_seed=3)
        noisy = ds.events[0]
        from probsense.traces import synth_event

        clean = synth_event(
            spec.duration_s, spec.rate_hz, spec.wavelet_f0_hz, onsets[0],
            spec.amplitude, 0.0, seed=0,
        )
        noise = noisy.samples - clean.samples
        snr = 10 * np.log10(np.sum(clean.samples**2) / np.sum(noise**2))
        assert snr == pytest.approx(26.0, abs=1.0)


class TestRunSurvey:
    def test_dataset_dir_round_trip(self, tmp_path):
        ds, _ = synth_survey(SynthSurveySpec(), 3, base_seed=2)
        write_survey(ds, tmp_path / "data")
        loaded = load_survey(tmp_path / "data")
        assert len(loaded) == 3
        for a, b in zip(ds.events, loaded.events):
            assert np.array_equal(a.samples, b.samples)

        mem = run_survey(ExperimentConfig(n_events=3, base_seed=2))
        disk = run_survey(ExperimentConfig(dataset=tmp_path / "data", n_events=3, base_seed=2))
        assert disk.n_failed == 0
        assert disk.nmse_time == pytest.approx(mem.nmse_time, abs=0.005)
        assert disk.savings_pct == pytest.approx(mem.savings_pct, abs=1.5)

    def test_per_event_failure_contained(self, tmp_path):
        ds, _ = synth_survey(SynthSurveySpec(), 3, base_seed=4)
        d = tmp_path / "data"
        write_survey(ds, d)
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
        assert (out / "report.json").exists()
        assert (out / "samples_event_000.csv").exists()
        assert (out / "recon_event_001.csv").exists()
        rate_lines = (out / "rate_event_000.csv").read_text().splitlines()
        assert rate_lines[0] == "window_start_s,avg_rate"
        rates = [float(ln.split(",")[1]) for ln in rate_lines[1:]]
        assert all(0.0 <= r <= 1.0 for r in rates)
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

    def test_quantizer_knob(self):
        # 2-bit steps (LSB = half the peak) visibly damage the wavelet;
        # 24 bits is transparent at this noise floor
        ideal = run_survey(ExperimentConfig(n_events=1))
        coarse = run_survey(ExperimentConfig(n_events=1, quantizer_bits=2))
        fine = run_survey(ExperimentConfig(n_events=1, quantizer_bits=24))
        assert coarse.nmse_time > 5 * ideal.nmse_time
        assert fine.nmse_time == pytest.approx(ideal.nmse_time, rel=1e-3)

    def test_value_only_dataset_with_sidecar_rate(self, tmp_path):
        from probsense.traces import write_trace

        ds, _ = synth_survey(SynthSurveySpec(), 2, base_seed=8)
        d = tmp_path / "data"
        d.mkdir()
        for i, ev in enumerate(ds.events):
            write_trace(ev, d / f"event_{i:03d}.csv", include_time=False)
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

    def test_load_survey_value_only(self, tmp_path):
        from probsense.traces import write_trace

        ds, _ = synth_survey(SynthSurveySpec(), 2, base_seed=3)
        for i, ev in enumerate(ds.events):
            write_trace(ev, tmp_path / f"event_{i:03d}.csv", include_time=False)
        loaded = load_survey(tmp_path, rate_hz=2000.0)
        assert loaded.rate_hz == 2000.0
        for a, b in zip(ds.events, loaded.events):
            assert np.array_equal(a.samples, b.samples)

    def test_1khz_dataset_replays_at_its_own_rate(self, tmp_path):
        # the ADC grid is the trace's grid: no flag has to name the rate
        ds, _ = synth_survey(SynthSurveySpec(rate_hz=1000.0), 3, base_seed=5)
        write_survey(ds, tmp_path / "data")
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

    def test_grid_checked_before_any_event(self, monkeypatch):
        import probsense.harness as harness_mod

        # the digital source has no dwell time to resolve, so upsample 1 works
        coarse = ExperimentConfig(upsample_factor=1, n_events=1)
        pn = replace(coarse.activation.pneuron, source="digital_iid")
        digital = replace(coarse, activation=replace(coarse.activation, pneuron=pn))
        assert run_survey(digital).n_failed == 0
        calls = []
        monkeypatch.setattr(harness_mod, "run_event", lambda *a: calls.append(a))
        for cfg, field, match in ((ExperimentConfig(band_hz=(0.0, 2000.0)), "band_hz", "Nyquist"),
                                  (coarse, "upsample_factor", "too coarse")):
            with pytest.raises(GridError, match=match) as exc:
                run_survey(cfg)
            assert exc.value.field == field
        assert calls == []

    def test_sidecar_rate_checked_against_event_0(self, tmp_path, monkeypatch):
        import probsense.harness as harness_mod

        ds, _ = synth_survey(SynthSurveySpec(), 3, base_seed=8)
        write_survey(ds, tmp_path / "data")
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

    def test_mixed_rate_dataset_contained(self, tmp_path):
        from probsense.traces import Trace, write_trace

        d = tmp_path / "data"
        d.mkdir()
        ds, _ = synth_survey(SynthSurveySpec(), 2, base_seed=6)
        write_trace(ds.events[0], d / "event_000.csv")
        write_trace(ds.events[1], d / "event_001.csv")
        other = Trace(np.zeros(500), 1000.0)
        write_trace(other, d / "event_002.csv")
        rep = run_survey(ExperimentConfig(dataset=d, n_events=3))
        assert rep.n_failed == 1
        assert "disagrees" in rep.per_event[2].error


class TestOutputFiles:
    def test_event_csvs_match_line_loops(self, tmp_path):
        cfg = ExperimentConfig(n_events=2, output_dir=tmp_path / "out")
        run_survey(cfg)
        ds, onsets = synth_survey(cfg.synth, 2, cfg.base_seed)
        for i, trace in enumerate(ds.events):
            _, p_stream, r_stream, _ = run_event(
                trace, cfg, i, onsets[i], cfg.synth.wavelet_f0_hz
            )
            _write_stream_loop(tmp_path / "samples.csv", p_stream)
            _write_rate_loop(tmp_path / "rate.csv", p_stream, len(r_stream))
            out = tmp_path / "out"
            assert (out / f"samples_event_{i:03d}.csv").read_bytes() == \
                (tmp_path / "samples.csv").read_bytes()
            assert (out / f"rate_event_{i:03d}.csv").read_bytes() == \
                (tmp_path / "rate.csv").read_bytes()

    # Each example overwrites the same two files, so a shared tmp_path is fine.
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.integers(min_value=0, max_value=700),
        st.floats(min_value=1.0, max_value=1e5),
        st.floats(min_value=-10.0, max_value=10.0),
        st.data(),
    )
    def test_rate_csv_matches_line_loop(self, tmp_path, n_ticks, rate, t0, data):
        ticks = sorted(data.draw(st.sets(st.integers(0, max(n_ticks - 1, 0)), max_size=n_ticks)))
        values = data.draw(arrays(np.float64, len(ticks), elements=csv_floats))
        stream = SampleStream(np.array(ticks, dtype=np.int64), values, "p_adc", rate, t0)
        _write_rate_csv(tmp_path / "new.csv", stream, n_ticks)
        _write_rate_loop(tmp_path / "ref.csv", stream, n_ticks)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        if n_ticks < RATE_TRACE_WINDOW_TICKS:
            assert new == b"window_start_s,avg_rate\n"

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arrays(np.float64, st.tuples(st.integers(0, 30), st.just(3)), elements=csv_floats))
    def test_sweep_csv_matches_line_loop(self, tmp_path, rows):
        write_sweep_csv(rows, tmp_path / "new.csv", "v_in_v")
        _write_sweep_loop(rows, tmp_path / "ref.csv", "v_in_v")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestSweeps:
    def test_vin_midpoint(self):
        cfg = ExperimentConfig(
            activation=ActivationConfig(pneuron=PNeuronConfig(source="digital_iid"))
        )
        v_ref = cfg.activation.pneuron.v_ref_v
        rows = sweep_vin(cfg, [v_ref], 10_000)
        assert rows[0, 1] == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("source", ["digital_iid", "smtj_telegraph"])
    def test_vin_matches_model(self, source):
        cfg = ExperimentConfig(
            activation=ActivationConfig(pneuron=PNeuronConfig(source=source))
        )
        rows = sweep_vin(cfg, np.linspace(-0.1, 0.8, 10), 10_000)
        assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 0.02

    def test_vin_ticks_validation(self):
        with pytest.raises(ValueError, match="1000"):
            sweep_vin(ExperimentConfig(), [0.0], 10)

    def test_slope_zero_gives_baseline(self):
        cfg = ExperimentConfig()
        rows = sweep_slope(cfg, [0.0], 2000)
        x = cfg.activation.pneuron.min_rate
        assert rows[0, 1] == pytest.approx(x, abs=0.02)

    def test_slope_composition_with_vin(self):
        # slope curve equals the vin curve evaluated at slope_gain * slope
        cfg = ExperimentConfig()
        gain = cfg.activation.afe.slope_gain
        slopes = np.linspace(50.0, 450.0, 5)
        s_rows = sweep_slope(cfg, slopes, 4000)
        v_rows = sweep_vin(cfg, gain * slopes, 4000)
        assert np.max(np.abs(s_rows[:, 1] - v_rows[:, 1])) < 0.03

    def test_slope_saturates(self):
        rows = sweep_slope(ExperimentConfig(), [2000.0], 2000)
        assert rows[0, 1] > 0.97


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

    def test_bad_line(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("just words\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(p)

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


class TestCli:
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

    def test_run_exit_code_on_partial_failure(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", "--n-events", "2", "--out", str(data)])
        (data / "event_000.csv").write_text("time_s,value\n0.0,nan\n")
        code = main(["run", "--dataset", str(data), "--n-events", "2"])
        assert code == 1
        assert "FAILED" in capsys.readouterr().err

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

    def test_sweep_grid_key_in_config_rejected(self, tmp_path, capsys):
        p = tmp_path / "cfg.txt"
        p.write_text("points = 5\n")
        out = tmp_path / "sw"
        code = main(["sweep-vin", "--config", str(p), "--ticks", "1000", "--out", str(out)])
        assert code == 2
        assert not (out / "sweep_vin.csv").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "'points'" in err[0] and str(p) in err[0]

    @pytest.mark.parametrize("flags", [["--beta", "-1"], ["--tau-us", "0"]])
    def test_bad_config_value_is_one_error_line(self, flags, capsys):
        assert main(["run", "--n-events", "1", *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("flags, flag", [
        (["--band", "0:2000"], "--band"),
        (["--upsample", "1", "--source", "smtj"], "--upsample"),
    ], ids=["band", "upsample"])
    def test_grid_error_is_one_line_before_any_event(self, flags, flag, monkeypatch, capsys):
        import probsense.harness as harness_mod

        calls = []
        monkeypatch.setattr(harness_mod, "run_event", lambda *a: calls.append(a))
        assert main(["run", "--n-events", "3", *flags]) == 2
        assert calls == []
        cap = capsys.readouterr()
        err = cap.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag}:")
        assert cap.out == ""

    @pytest.mark.parametrize("command", ["sweep-vin", "sweep-slope"])
    def test_sweep_coarse_step_is_one_line_before_any_point(self, command, tmp_path,
                                                            monkeypatch, capsys):
        import probsense.harness as harness_mod

        calls = []
        for name in ("run_activation", "telegraph_tick_states"):
            monkeypatch.setattr(harness_mod, name, lambda *a: calls.append(a))
        out = tmp_path / "sw"
        code = main([command, "--source", "smtj", "--upsample", "1", "--points", "2",
                     "--ticks", "1000", "--out", str(out)])
        assert code == 2
        assert calls == [] and not out.exists()
        cap = capsys.readouterr()
        err = cap.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --upsample:")
        assert cap.out == ""

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

    def test_help_shows_dataclass_defaults(self, monkeypatch, capsys):
        import functools

        import probsense.cli as cli_mod

        monkeypatch.setenv("COLUMNS", "200")
        monkeypatch.setattr(cli_mod, "ExperimentConfig", functools.partial(
            ExperimentConfig, n_events=7, upsample_factor=13, synth=SynthSurveySpec(snr_db=19.5)))
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
