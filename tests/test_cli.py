import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import convergema
from convergema.cli import _entry, main
from convergema.io import read_observations, write_observations
from convergema import (AnchoringStrategy, GeneratorSpec, LearningTrace,
                        PowerLawCurve, drift_perturbations, generate)


@pytest.fixture
def runner():
    return CliRunner()


def spec_file(tmp_path, **overrides):
    payload = {"a": 300.0, "b": 0.6, "c": 96.0, "levels": 20, "seed": 7}
    payload.update(overrides)
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(payload))
    return path


class TestSimulate:
    def test_deterministic(self, runner, tmp_path):
        spec = spec_file(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(main, ["simulate", str(spec), "--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, ["simulate", str(spec), "--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_noiseless_matches_truth(self, runner, tmp_path):
        spec = spec_file(tmp_path, noise_sd=0.0)
        out = tmp_path / "o.csv"
        runner.invoke(main, ["simulate", str(spec), "--out", str(out)])
        log = read_observations(out)
        assert len(log) == 20
        first = log.entries[0]
        assert first.x == 5000
        assert first.accuracy == pytest.approx(96.0 - 300.0 * 5000 ** -0.6)

    def test_spikes_present(self, runner, tmp_path):
        plain_spec = spec_file(tmp_path)
        spike_path = tmp_path / "spike.json"
        payload = json.loads(plain_spec.read_text())
        payload["perturbations"] = [[5, -0.5]]
        spike_path.write_text(json.dumps(payload))
        p_out, s_out = tmp_path / "p.csv", tmp_path / "s.csv"
        runner.invoke(main, ["simulate", str(plain_spec), "--out", str(p_out)])
        runner.invoke(main, ["simulate", str(spike_path), "--out", str(s_out)])
        plain = read_observations(p_out)
        spiked = read_observations(s_out)
        diff = [s.accuracy - p.accuracy for s, p in zip(spiked, plain)]
        assert diff[4] == pytest.approx(-0.5)

    def test_env_seed_override(self, runner, tmp_path, monkeypatch):
        spec = spec_file(tmp_path, noise_sd=0.1, seed=1)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        runner.invoke(main, ["simulate", str(spec), "--out", str(out1)])
        monkeypatch.setenv("CONVERGEMA_SEED", "99")
        runner.invoke(main, ["simulate", str(spec), "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()


def observations_csv(tmp_path, levels=40, name="obs.csv", strategy_ready=True):
    spec = GeneratorSpec(truth=PowerLawCurve(8 * 5000.0 ** 0.7, 0.7, 97.0),
                         levels=levels, noise_sd=1e-4, seed=1)
    log = generate(spec)
    path = tmp_path / name
    write_observations(log, path)
    return path


class TestAnalyze:
    def test_converged_exit_zero_and_replayable(self, runner, tmp_path):
        obs = observations_csv(tmp_path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = [str(obs), "--strategy", "fixed:100", "--condition", "absolute",
                "--tau", "6.5"]
        r1 = runner.invoke(main, ["analyze", *args, "--out", str(out1)])
        assert r1.exit_code == 0, r1.output
        assert "clevel:" in r1.output
        r2 = runner.invoke(main, ["analyze", *args, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_not_converged_exit_two(self, runner, tmp_path):
        obs = observations_csv(tmp_path, levels=25)
        result = runner.invoke(main, ["analyze", str(obs), "--strategy",
                                      "fixed:100", "--tau", "1e-9"])
        assert result.exit_code == 2
        assert "not converged" in result.output

    def test_too_few_rows(self, runner, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("level,size,accuracy\n1,5000,80.0\n2,10000,85.0\n")
        result = runner.invoke(main, ["analyze", str(path), "--tau", "1.0"])
        assert result.exit_code != 0

    def test_parse_error_carries_line_number(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("level,size,accuracy\n1,5000,80.0\n2,10000,oops\n")
        result = runner.invoke(main, ["analyze", str(path), "--tau", "1.0"])
        assert result.exit_code != 0
        assert ":3:" in str(result.output) + str(result.exception)

    def test_increasing_backbone_not_decreasing_diagnostic(self, runner, tmp_path):
        pert = drift_perturbations(30, -1.0, 0.15)
        spec = GeneratorSpec(truth=PowerLawCurve(5 * 5000.0 ** 0.6, 0.6, 96.0),
                             levels=30, perturbations=pert, seed=0)
        path = tmp_path / "inc.csv"
        write_observations(generate(spec), path)
        result = runner.invoke(main, ["analyze", str(path), "--strategy", "none",
                                      "--condition", "absolute", "--tau", "0.5"])
        assert result.exit_code == 1
        assert "fixed anchoring" in result.output

    def test_unresolved_working_level_gives_no_anchoring_hint(self, runner,
                                                              tmp_path):
        # six levels cannot resolve the working level; the trace is already
        # fixed-anchored, so advice to use fixed anchoring would mislead
        obs = observations_csv(tmp_path, levels=6)
        result = runner.invoke(main, ["analyze", str(obs), "--strategy",
                                      "fixed:100", "--tau", "1.0"])
        assert result.exit_code == 1
        assert "working level" in result.output
        assert "fixed anchoring" not in result.output

    def test_series_csv(self, runner, tmp_path):
        obs = observations_csv(tmp_path)
        series = tmp_path / "series.csv"
        result = runner.invoke(main, ["analyze", str(obs), "--strategy", "fixed:100",
                                      "--tau", "6.5", "--series", str(series)])
        assert result.exit_code == 0
        header = series.read_text().splitlines()[0]
        assert header == "level,epsilon,is_rupture,put"

    def test_series_put_only_where_defined(self, runner, tmp_path):
        # a drift that keeps the first asymptotes above 100, so the
        # prediction level falls past the first epsilon record
        spec = GeneratorSpec(truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85,
                                                 99.5),
                             levels=40, seed=1,
                             perturbations=drift_perturbations(40, 3.0, 0.15))
        obs = tmp_path / "drift.csv"
        write_observations(generate(spec), obs)

        def analyze(*options):
            series, report = tmp_path / "series.csv", tmp_path / "report.json"
            result = runner.invoke(main, ["analyze", str(obs), "--tau", "0.01",
                                          "--series", str(series),
                                          "--out", str(report), *options])
            assert result.exit_code in (0, 2), result.output
            with open(series, newline="") as handle:
                rows = list(csv.DictReader(handle))
            assert rows
            return rows, json.loads(report.read_text())["trace"]

        # PUT is defined past plevel + 1 on a fixed anchoring trace
        rows, trace = analyze("--strategy", "fixed:100")
        plevel = trace["plevel_reference"]
        levels = [int(row["level"]) for row in rows]
        assert min(levels) <= plevel + 1 < max(levels)
        for level, row in zip(levels, rows):
            if level <= plevel + 1:
                assert row["put"] == ""
            else:
                float(row["put"])
        # and nowhere without anchoring, nor for the relative condition
        for options in (["--strategy", "none"],
                        ["--strategy", "fixed:100", "--condition", "relative"]):
            rows, _ = analyze(*options)
            assert all(row["put"] == "" for row in rows)

    def test_validation_rejects_bad_nu(self, runner, tmp_path):
        obs = observations_csv(tmp_path, levels=12)
        result = runner.invoke(main, ["analyze", str(obs), "--tau", "1.0",
                                      "--nu", "2.0"])
        assert result.exit_code != 0


def tune_inputs(tmp_path):
    """Observations, the horizon they are a prefix of, and a tau at which
    the anchor-free baseline converges."""
    from convergema import epsilon_sequence, ObservationLog, TraceParams
    spec = GeneratorSpec(truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3),
                         levels=80, seed=5,
                         perturbations=drift_perturbations(80, 0.8, 0.15))
    log = generate(spec)
    horizon_path = tmp_path / "horizon.csv"
    write_observations(log, horizon_path)
    prefix = ObservationLog(log.entries[:50])
    obs_path = tmp_path / "obs.csv"
    write_observations(prefix, obs_path)

    fixed = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0),
                                   TraceParams())
    records = epsilon_sequence(fixed)
    tau = records[int(len(records) * 0.3)].epsilon
    return obs_path, horizon_path, tau


class TestTune:
    def test_tune_runs_and_reports(self, runner, tmp_path):
        # horizon = longer stream; observations = a prefix
        obs_path, horizon_path, tau = tune_inputs(tmp_path)
        out = tmp_path / "tuning.json"
        result = runner.invoke(main, ["tune", str(obs_path), "--horizon",
                                      str(horizon_path), "--tau", str(tau),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "selected look-ahead" in result.output
        payload = json.loads(out.read_text())
        assert payload["selected"]["look_ahead"] >= 2
        rcs = [c["rc"] for c in payload["candidates"] if c["rc"] is not None]
        assert payload["selected"]["rc"] == pytest.approx(min(rcs))

    def test_anchor_free_trace_replayed_once(self, runner, tmp_path,
                                             monkeypatch):
        obs_path, horizon_path, tau = tune_inputs(tmp_path)
        replays = []
        real = LearningTrace.from_log

        def counting(log, strategy, *args, **kwargs):
            if strategy.kind == "none":
                replays.append(strategy)
            return real(log, strategy, *args, **kwargs)

        monkeypatch.setattr(LearningTrace, "from_log", staticmethod(counting))
        result = runner.invoke(main, ["tune", str(obs_path), "--horizon",
                                      str(horizon_path), "--tau", str(tau)])
        assert result.exit_code == 0, result.output
        assert len(replays) == 1

    def test_missing_horizon_is_error(self, runner, tmp_path):
        obs = observations_csv(tmp_path)
        result = runner.invoke(main, ["tune", str(obs), "--tau", "1.0"])
        assert result.exit_code != 0

    def test_prefix_mismatch_rejected(self, runner, tmp_path):
        obs = observations_csv(tmp_path, name="obs.csv")
        other = GeneratorSpec(truth=PowerLawCurve(9 * 5000.0 ** 0.7, 0.7, 96.0),
                              levels=50, seed=2)
        horizon_path = tmp_path / "other.csv"
        write_observations(generate(other), horizon_path)
        result = runner.invoke(main, ["tune", str(obs), "--horizon",
                                      str(horizon_path), "--tau", "1.0"])
        assert result.exit_code != 0


class TestEvaluate:
    def test_frame_report(self, runner, tmp_path):
        spec = GeneratorSpec(truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3),
                             levels=70, seed=5,
                             perturbations=drift_perturbations(70, 0.8, 0.15))
        log = generate(spec)
        obs_path = tmp_path / "frame_obs.csv"
        write_observations(log, obs_path)
        plain = LearningTrace.from_log(log, AnchoringStrategy.none())
        entries = plain.backbone()
        gaps = sorted(abs(cur.alpha - prev.alpha)
                      for prev, cur in zip(entries, entries[1:]))
        frame = {"observations": str(obs_path), "tau_r": gaps[int(len(gaps) * 0.6)],
                 "strategies": ["none", "canonical", "fixed:100"],
                 "conditions": ["absolute", "relative"]}
        frame_path = tmp_path / "frame.json"
        frame_path.write_text(json.dumps(frame))
        prefix = tmp_path / "report"
        result = runner.invoke(main, ["evaluate", str(frame_path), "--out",
                                      str(prefix)])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "report.json").read_text())
        assert len(payload["rows"]) == 6
        csv_lines = (tmp_path / "report.csv").read_text().splitlines()
        assert csv_lines[0].startswith("strategy,condition,tau,plevel,clevel")
        assert len(csv_lines) == 7

    def test_negative_horizon_len_is_error(self, tmp_path, monkeypatch,
                                           capsys):
        log = generate(GeneratorSpec(
            truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3), levels=30,
            seed=5))
        obs_path = tmp_path / "obs.csv"
        write_observations(log, obs_path)
        frame_path = tmp_path / "frame.json"
        frame_path.write_text(json.dumps({
            "observations": str(obs_path), "tau_r": 0.1,
            "strategies": ["none"], "horizon_len": -5}))
        monkeypatch.setattr("sys.argv",
                            ["convergema", "evaluate", str(frame_path)])
        with pytest.raises(SystemExit) as stop:
            _entry()
        assert stop.value.code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "horizon length must be at least 1, got -5" in err


@pytest.mark.parametrize("command,payload,key", [
    ("simulate", {"a": None, "b": 0.6, "c": 96.0, "levels": 20}, "a"),
    ("simulate", {"a": 300.0, "b": 0.6, "c": 96.0, "levels": 20,
                  "perturbations": [5]}, "perturbations"),
    ("evaluate", {"observations": "obs.csv", "tau_r": [1],
                  "strategies": ["none"]}, "tau_r"),
    ("evaluate", {"observations": "obs.csv", "tau_r": 0.1,
                  "strategies": 5}, "strategies"),
])
def test_bad_spec_value_is_error_naming_key(tmp_path, monkeypatch, capsys,
                                            command, payload, key):
    code, out, err = run_on_spec(tmp_path, monkeypatch, capsys, command,
                                 payload)
    assert code == 1
    assert "Traceback" not in err
    assert repr(key) in err


def run_on_spec(tmp_path, monkeypatch, capsys, command, payload):
    """(exit code, stdout, stderr) of the console entry point running
    `command` on a spec file holding `payload` as JSON."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload))
    args = [command, str(spec)]
    if command == "simulate":
        args += ["--out", str(tmp_path / "out.csv")]
    monkeypatch.setattr("sys.argv", ["convergema"] + args)
    with pytest.raises(SystemExit) as stop:
        _entry()
    return (stop.value.code,) + tuple(capsys.readouterr())


_FRAME = {"observations": "obs.csv", "tau_r": 0.1, "strategies": ["none"]}
_GENERATOR = {"a": 300.0, "b": 0.6, "c": 96.0, "levels": 20}


@pytest.mark.parametrize("command,payload,message", [
    ("evaluate", [1, 2], "must hold a JSON object, not list"),
    ("simulate", [1, 2], "must hold a JSON object, not list"),
    ("evaluate", "none", "must hold a JSON object, not str"),
    ("simulate", None, "must hold a JSON object, not NoneType"),
    ("evaluate", dict(_FRAME, strategies="none"),
     "spec key 'strategies' has a bad value 'none': expected a list, got str"),
    ("evaluate", dict(_FRAME, conditions="absolute"),
     "spec key 'conditions' has a bad value 'absolute': expected a list"),
    ("evaluate", dict(_FRAME, strategies={"none": 1}),
     "spec key 'strategies' has a bad value {'none': 1}: expected a list"),
    ("simulate", dict(_GENERATOR, perturbations="5"),
     "spec key 'perturbations' has a bad value '5': expected a list"),
    ("evaluate", dict(_FRAME, plevel_source=5),
     "plevel_source must be 'reference' or 'anchored'"),
    ("evaluate", dict(_FRAME, strategies=[]),
     "frame needs the anchor-free strategy 'none'"),
    ("evaluate", dict(_FRAME, strategies=["fixed:100"]),
     "frame needs the anchor-free strategy 'none'"),
    ("evaluate", dict(_FRAME, conditions=[]),
     "frame needs at least one condition"),
])
def test_malformed_spec_is_error_not_traceback(tmp_path, monkeypatch, capsys,
                                               command, payload, message):
    code, out, err = run_on_spec(tmp_path, monkeypatch, capsys, command,
                                 payload)
    assert code == 1
    assert "Traceback" not in out + err
    assert message in err


def test_import_pulls_no_scipy():
    # scipy is a test-only dependency: neither the package nor its CLI loads it
    src = str(Path(convergema.__file__).resolve().parents[1])
    code = ("import sys, convergema, convergema.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
