import csv
import gc
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import convergema
from convergema import cli
from convergema.cli import _entry
from convergema.io import read_observations, write_observations
from convergema import (AnchoringStrategy, ConvergemaError, FrameSpec,
                        GeneratorSpec, LearningTrace, PowerLawCurve,
                        accuracy, build_frame, drift_perturbations, generate)


def spec_file(tmp_path, **overrides):
    payload = {"a": 300.0, "b": 0.6, "c": 96.0, "levels": 20, "seed": 7}
    payload.update(overrides)
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(payload))
    return path


class TestSimulate:
    def test_deterministic(self, tmp_path, monkeypatch, capsys):
        spec = spec_file(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(monkeypatch, capsys,
                       ["simulate", str(spec), "--out", str(out1)])[0] == 0
        assert run_cli(monkeypatch, capsys,
                       ["simulate", str(spec), "--out", str(out2)])[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_whole_floats_are_ints(self, tmp_path, monkeypatch, capsys):
        # 20.0 levels are 20, as a size of 5000.0 in a CSV is 5000
        outs = {}
        for number in (int, float):
            spec = spec_file(tmp_path, levels=number(20), kernel=number(5000),
                             step=number(5000), seed=number(7),
                             perturbations=[[number(5), 0.5]])
            outs[number] = tmp_path / f"{number.__name__}.csv"
            code, _, err = run_cli(monkeypatch, capsys, [
                "simulate", str(spec), "--out", str(outs[number])])
            assert code == 0, err
        assert outs[int].read_bytes() == outs[float].read_bytes()

    def test_noiseless_matches_truth(self, tmp_path, monkeypatch, capsys):
        spec = spec_file(tmp_path, noise_sd=0.0)
        out = tmp_path / "o.csv"
        run_cli(monkeypatch, capsys, ["simulate", str(spec), "--out", str(out)])
        log = read_observations(out)
        assert len(log) == 20
        first = log.entries[0]
        assert first.x == 5000
        assert first.accuracy == pytest.approx(96.0 - 300.0 * 5000 ** -0.6)

    def test_spikes_present(self, tmp_path, monkeypatch, capsys):
        plain_spec = spec_file(tmp_path)
        spike_path = tmp_path / "spike.json"
        payload = json.loads(plain_spec.read_text())
        payload["perturbations"] = [[5, -0.5]]
        spike_path.write_text(json.dumps(payload))
        p_out, s_out = tmp_path / "p.csv", tmp_path / "s.csv"
        run_cli(monkeypatch, capsys,
                ["simulate", str(plain_spec), "--out", str(p_out)])
        run_cli(monkeypatch, capsys,
                ["simulate", str(spike_path), "--out", str(s_out)])
        plain = read_observations(p_out)
        spiked = read_observations(s_out)
        diff = [s.accuracy - p.accuracy for s, p in zip(spiked, plain)]
        assert diff[4] == pytest.approx(-0.5)

    def test_spec_seed_sets_the_noise(self, tmp_path, monkeypatch, capsys):
        outs = {}
        for seed in (1, 99):
            spec = spec_file(tmp_path, noise_sd=0.1, seed=seed)
            outs[seed] = tmp_path / f"{seed}.csv"
            run_cli(monkeypatch, capsys,
                    ["simulate", str(spec), "--out", str(outs[seed])])
        assert outs[1].read_bytes() != outs[99].read_bytes()



def observations_csv(tmp_path, levels=40, name="obs.csv", strategy_ready=True):
    spec = GeneratorSpec(truth=PowerLawCurve(8 * 5000.0 ** 0.7, 0.7, 97.0),
                         levels=levels, noise_sd=1e-4, seed=1)
    log = generate(spec)
    path = tmp_path / name
    write_observations(log, path)
    return path


class TestAnalyze:
    def test_converged_exit_zero_and_replayable(self, tmp_path, monkeypatch,
                                                capsys):
        obs = observations_csv(tmp_path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = [str(obs), "--strategy", "fixed:100", "--condition", "absolute",
                "--tau", "6.5"]
        code, out, err = run_cli(monkeypatch, capsys,
                                 ["analyze", *args, "--out", str(out1)])
        assert code == 0, err
        assert "clevel:" in out
        run_cli(monkeypatch, capsys, ["analyze", *args, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_out_path_starting_with_a_dash(self, tmp_path, monkeypatch,
                                           capsys):
        # `--out -r.json` would read -r.json as an option
        obs = observations_csv(tmp_path)
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(monkeypatch, capsys, [
            "analyze", str(obs), "--strategy", "fixed:100", "--tau", "6.5",
            "--out=-r.json"])
        assert code == 0, err
        assert "clevel" in json.loads((tmp_path / "-r.json").read_text())

    def test_not_converged_exit_two(self, tmp_path, monkeypatch, capsys):
        obs = observations_csv(tmp_path, levels=25)
        code, out, _ = run_cli(monkeypatch, capsys,
                               ["analyze", str(obs), "--strategy", "fixed:100",
                                "--tau", "1e-9"])
        assert code == 2
        assert "not converged" in out

    def test_too_few_rows(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("level,size,accuracy\n1,5000,80.0\n2,10000,85.0\n")
        code, _, _ = run_cli(monkeypatch, capsys,
                             ["analyze", str(path), "--tau", "1.0"])
        assert code != 0

    def test_parse_error_carries_line_number(self, tmp_path, monkeypatch,
                                             capsys):
        path = tmp_path / "bad.csv"
        path.write_text("level,size,accuracy\n1,5000,80.0\n2,10000,oops\n")
        code, _, err = run_cli(monkeypatch, capsys,
                               ["analyze", str(path), "--tau", "1.0"])
        assert code != 0
        assert ":3:" in err

    def test_increasing_backbone_not_decreasing_diagnostic(self, tmp_path,
                                                           monkeypatch, capsys):
        pert = drift_perturbations(30, -1.0, 0.15)
        spec = GeneratorSpec(truth=PowerLawCurve(5 * 5000.0 ** 0.6, 0.6, 96.0),
                             levels=30, perturbations=pert, seed=0)
        path = tmp_path / "inc.csv"
        write_observations(generate(spec), path)
        code, _, err = run_cli(monkeypatch, capsys,
                               ["analyze", str(path), "--strategy", "none",
                                "--condition", "absolute", "--tau", "0.5"])
        assert code == 1
        assert "fixed anchoring" in err

    def test_unresolved_working_level_gives_no_anchoring_hint(
            self, tmp_path, monkeypatch, capsys):
        # six levels cannot resolve the working level; the trace is already
        # fixed-anchored, so advice to use fixed anchoring would mislead
        obs = observations_csv(tmp_path, levels=6)
        code, _, err = run_cli(monkeypatch, capsys,
                               ["analyze", str(obs), "--strategy", "fixed:100",
                                "--tau", "1.0"])
        assert code == 2
        assert "working level" in err
        assert "fixed anchoring" not in err

    def test_series_csv(self, tmp_path, monkeypatch, capsys):
        obs = observations_csv(tmp_path)
        series = tmp_path / "series.csv"
        code, _, _ = run_cli(monkeypatch, capsys,
                             ["analyze", str(obs), "--strategy", "fixed:100",
                              "--tau", "6.5", "--series", str(series)])
        assert code == 0
        header = series.read_text().splitlines()[0]
        assert header == "level,epsilon,is_rupture,put"

    def test_series_put_only_where_defined(self, tmp_path, monkeypatch, capsys):
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
            code, _, err = run_cli(monkeypatch, capsys,
                                   ["analyze", str(obs), "--tau", "0.01",
                                    "--series", str(series),
                                    "--out", str(report), *options])
            assert code in (0, 2), err
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

    def test_validation_rejects_bad_nu(self, tmp_path, monkeypatch, capsys):
        obs = observations_csv(tmp_path, levels=12)
        code, _, _ = run_cli(monkeypatch, capsys,
                             ["analyze", str(obs), "--tau", "1.0",
                              "--nu", "2.0"])
        assert code != 0


def tune_inputs(tmp_path):
    """A stream and a tau at which its anchor-free baseline converges."""
    from convergema import epsilon_sequence, TraceParams
    spec = GeneratorSpec(truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3),
                         levels=80, seed=5,
                         perturbations=drift_perturbations(80, 0.8, 0.15))
    log = generate(spec)
    stream_path = tmp_path / "stream.csv"
    write_observations(log, stream_path)

    fixed = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0),
                                   TraceParams())
    records = epsilon_sequence(fixed)
    tau = records[int(len(records) * 0.3)].epsilon
    return stream_path, tau


class TestTune:
    def test_tune_runs_and_reports(self, tmp_path, monkeypatch, capsys):
        stream_path, tau = tune_inputs(tmp_path)
        out = tmp_path / "tuning.json"
        code, stdout, err = run_cli(monkeypatch, capsys,
                                    ["tune", str(stream_path), "--tau",
                                     str(tau), "--out", str(out)])
        assert code == 0, err
        assert "selected look-ahead" in stdout
        payload = json.loads(out.read_text())
        assert payload["selected"]["look_ahead"] >= 2
        rcs = [c["rc"] for c in payload["candidates"] if c["rc"] is not None]
        assert payload["selected"]["rc"] == pytest.approx(min(rcs))

    def test_anchor_free_trace_replayed_once(self, tmp_path, monkeypatch,
                                             capsys):
        stream_path, tau = tune_inputs(tmp_path)
        replays = []
        real = LearningTrace.from_log

        def counting(log, strategy, *args, **kwargs):
            if strategy.kind == "none":
                replays.append(strategy)
            return real(log, strategy, *args, **kwargs)

        monkeypatch.setattr(LearningTrace, "from_log", staticmethod(counting))
        code, _, err = run_cli(monkeypatch, capsys,
                               ["tune", str(stream_path), "--tau", str(tau)])
        assert code == 0, err
        assert len(replays) == 1

    def test_unconverged_baseline_is_error(self, tmp_path, monkeypatch,
                                           capsys):
        stream_path, _ = tune_inputs(tmp_path)
        code, out, err = run_cli(monkeypatch, capsys,
                                 ["tune", str(stream_path), "--tau", "1e-9"])
        assert code == 1
        assert "Traceback" not in out + err
        assert "anchor-free baseline did not converge" in err

    def test_second_stream_is_a_usage_error(self, tmp_path, monkeypatch,
                                            capsys):
        # tune sweeps the one stream it is given; a call that still names
        # a second one fails rather than sweep something else
        stream_path, tau = tune_inputs(tmp_path)
        code, _, err = run_cli(monkeypatch, capsys,
                               ["tune", str(stream_path), "--horizon",
                                str(stream_path), "--tau", str(tau)])
        assert code == 1
        assert "unrecognized arguments: --horizon" in err


class TestEvaluate:
    def test_frame_report(self, tmp_path, monkeypatch, capsys):
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
        code, _, err = run_cli(monkeypatch, capsys,
                               ["evaluate", str(frame_path), "--out",
                                str(prefix)])
        assert code == 0, err
        payload = json.loads((tmp_path / "report.json").read_text())
        assert len(payload["rows"]) == 6
        csv_lines = (tmp_path / "report.csv").read_text().splitlines()
        assert csv_lines[0].startswith("strategy,condition,tau,plevel,clevel")
        assert len(csv_lines) == 7

    def test_rising_reference_leaves_tau_a_empty(self, tmp_path, monkeypatch,
                                                 capsys):
        # the relative runs of a frame whose anchor-free backbone rises are
        # reported; its absolute threshold is empty, not an error
        gen = spec_file(tmp_path, a=5 * 5000 ** 0.6, b=0.6, c=96.0,
                        levels=60, seed=0,
                        perturbations=drift_perturbations(60, -1.0, 0.15))
        obs_path = tmp_path / "obs.csv"
        assert run_cli(monkeypatch, capsys, ["simulate", str(gen), "--out",
                                             str(obs_path)])[0] == 0
        frame_path = tmp_path / "frame.json"
        frame_path.write_text(json.dumps({
            "observations": str(obs_path), "tau_r": 0.0003,
            "strategies": ["none", "fixed:100"], "conditions": ["relative"]}))
        prefix = tmp_path / "report"
        code, out, err = run_cli(monkeypatch, capsys,
                                 ["evaluate", str(frame_path), "--out",
                                  str(prefix)])
        assert code == 0, err
        assert out.splitlines()[0] == "tau_a (normalised): "
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["tau_a"] is None
        assert [row["clevel"] for row in payload["rows"]] == [37, None]

    def test_fitted_error_target_on_a_short_horizon(self, tmp_path,
                                                    monkeypatch, capsys):
        # --error-target fitted and a horizon_len below the log's length:
        # each row's A^e is accuracy(run, horizon, "error", "fitted") of the
        # same frame built in-process
        log = generate(GeneratorSpec(
            truth=PowerLawCurve(2.0 * 5000.0 ** 0.85, 0.85, 99.3), levels=70,
            seed=5, perturbations=drift_perturbations(70, 0.8, 0.15)))
        obs_path = tmp_path / "obs.csv"
        write_observations(log, obs_path)
        frame_path = tmp_path / "frame.json"
        frame_path.write_text(json.dumps({
            "observations": str(obs_path), "tau_r": 0.0003,
            "strategies": ["none", "fixed:100", "fixed:100+5"],
            "horizon_len": 60}))
        prefix = tmp_path / "report"
        code, _, err = run_cli(monkeypatch, capsys,
                               ["evaluate", str(frame_path), "--out",
                                str(prefix), "--error-target", "fitted"])
        assert code == 0, err
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]

        frame = build_frame(read_observations(obs_path), FrameSpec(
            tau_r=0.0003, horizon_len=60, error_target="fitted",
            strategies=tuple(AnchoringStrategy.parse(s)
                             for s in ("none", "fixed:100", "fixed:100+5"))))
        assert len(frame.horizon.observations) == 60
        assert len(rows) == len(frame.runs) == 6
        checked = 0
        for row, run in zip(rows, frame.runs):
            assert (row["strategy"], row["condition"]) == (
                run.strategy.spec_string(), run.condition.kind)
            try:
                want = accuracy(run, frame.horizon, "error", "fitted")
            except ConvergemaError:
                want = None
            assert row["a_e"] == want
            checked += want is not None
        assert checked >= 3

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


@pytest.mark.parametrize("command", ["analyze", "evaluate"])
@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_nan_tau_is_error(tmp_path, monkeypatch, capsys, command, tau):
    obs_path = observations_csv(tmp_path)
    if command == "analyze":
        args = [str(obs_path), "--strategy", "fixed:100", "--tau", tau]
    else:
        frame_path = tmp_path / "frame.json"
        frame_path.write_text(json.dumps({
            "observations": str(obs_path), "tau_r": float(tau),
            "strategies": ["none", "fixed:100"]}))
        args = [str(frame_path)]
    monkeypatch.setattr("sys.argv", ["convergema", command, *args])
    with pytest.raises(SystemExit) as stop:
        _entry()
    assert stop.value.code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "tau must be finite and positive" in err


@pytest.mark.parametrize("strategy", ["fixed:nan", "fixed:1e400+3"])
def test_non_finite_beta_is_error(tmp_path, monkeypatch, capsys, strategy):
    # rejected as the strategy is parsed, before the log is replayed
    obs_path = observations_csv(tmp_path)
    monkeypatch.setattr("sys.argv", ["convergema", "analyze", str(obs_path),
                                     "--strategy", strategy, "--tau", "0.5"])
    with pytest.raises(SystemExit) as stop:
        _entry()
    assert stop.value.code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "fixed anchoring needs a finite beta >= 100" in err


@pytest.mark.parametrize("option", [
    ["--strategy", "fixed:1e200"],
    ["--strategy", "fixed:100", "--anchor-weight", "1e308"],
])
def test_overflowing_anchor_is_error(tmp_path, monkeypatch, capsys, option):
    obs_path = observations_csv(tmp_path)
    code, out, err = run_cli(monkeypatch, capsys,
                             ["analyze", str(obs_path), *option, "--tau", "0.5"])
    assert code == 1
    assert "Traceback" not in out + err
    assert "anchored residual would overflow" in err


@pytest.mark.parametrize("command,payload,key", [
    ("simulate", {"a": None, "b": 0.6, "c": 96.0, "levels": 20}, "a"),
    ("simulate", {"a": 300.0, "b": 0.6, "c": 96.0, "levels": 20,
                  "perturbations": [5]}, "perturbations"),
    ("evaluate", {"observations": "obs.csv", "tau_r": [1],
                  "strategies": ["none"]}, "tau_r"),
    ("evaluate", {"observations": "obs.csv", "tau_r": 0.1,
                  "strategies": 5}, "strategies"),
    # an integer key takes a whole number only, not a truncated fraction
    ("simulate", {"a": 300.0, "b": 0.6, "c": 96.0, "levels": 20.9}, "levels"),
    ("simulate", {"a": 300.0, "b": 0.6, "c": 96.0, "levels": float("inf")},
     "levels"),
    ("simulate", {"a": 300.0, "b": 0.6, "c": 96.0, "levels": 20,
                  "kernel": 5000.5}, "kernel"),
    ("simulate", {"a": 300.0, "b": 0.6, "c": 96.0, "levels": 20,
                  "step": 2.5}, "step"),
    ("simulate", {"a": 300.0, "b": 0.6, "c": 96.0, "levels": 20,
                  "seed": 1.5}, "seed"),
    ("simulate", {"a": 300.0, "b": 0.6, "c": 96.0, "levels": 20,
                  "perturbations": [[5.5, 0.1]]}, "perturbations"),
    ("evaluate", {"observations": "obs.csv", "tau_r": 0.1,
                  "strategies": ["none"], "lambda": 2.7}, "lambda"),
    ("evaluate", {"observations": "obs.csv", "tau_r": 0.1,
                  "strategies": ["none"], "slowdown": 1.5}, "slowdown"),
    ("evaluate", {"observations": "obs.csv", "tau_r": 0.1,
                  "strategies": ["none"], "horizon_len": 15.9}, "horizon_len"),
    # a key takes a JSON number, not a bool or a string that float() reads
    ("simulate", {"a": 300.0, "b": 0.6, "c": 96.0, "levels": True}, "levels"),
    ("simulate", {"a": 300.0, "b": 0.6, "c": 96.0, "levels": "12"}, "levels"),
    ("simulate", {"a": True, "b": 0.6, "c": 96.0, "levels": 20}, "a"),
    ("simulate", {"a": 10 ** 400, "b": 0.6, "c": 96.0, "levels": 20}, "a"),
    ("simulate", {"a": 300.0, "b": 0.6, "c": 96.0, "levels": 20,
                  "noise_sd": True}, "noise_sd"),
    ("simulate", {"a": 300.0, "b": 0.6, "c": 96.0, "levels": 20,
                  "perturbations": [[5, "0.5"]]}, "perturbations"),
    ("evaluate", {"observations": "obs.csv", "tau_r": "0.1",
                  "strategies": ["none"]}, "tau_r"),
    ("evaluate", {"observations": "obs.csv", "tau_r": 0.1,
                  "strategies": ["none"], "nu": True}, "nu"),
    ("evaluate", {"observations": "obs.csv", "tau_r": 0.1,
                  "strategies": ["none"], "lambda": False}, "lambda"),
])
def test_bad_spec_value_is_error_naming_key(tmp_path, monkeypatch, capsys,
                                            command, payload, key):
    code, out, err = run_on_spec(tmp_path, monkeypatch, capsys, command,
                                 payload)
    assert code == 1
    assert "Traceback" not in err
    assert repr(key) in err


def test_missing_spec_key_is_error(tmp_path, monkeypatch, capsys):
    code, out, err = run_on_spec(tmp_path, monkeypatch, capsys, "simulate",
                                 {"b": 0.6, "c": 96.0, "levels": 20})
    assert code == 1
    assert "Traceback" not in out + err
    assert err == "error: spec missing key 'a'\n"


def run_on_spec(tmp_path, monkeypatch, capsys, command, payload):
    """(exit code, stdout, stderr) of the console entry point running
    `command` on a spec file holding `payload` as JSON."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload))
    args = [command, str(spec)]
    if command == "simulate":
        args += ["--out", str(tmp_path / "out.csv")]
    return run_cli(monkeypatch, capsys, args)


def run_cli(monkeypatch, capsys, args):
    """(exit code, stdout, stderr) of the console entry point run with
    `args`; a run that returns is exit code 0."""
    monkeypatch.setattr("sys.argv", ["convergema"] + args)
    try:
        _entry()
    except SystemExit as stop:
        return (stop.code,) + tuple(capsys.readouterr())
    return (0,) + tuple(capsys.readouterr())


class TestInputPaths:
    """The declared scheme, the CSV reader and the strategy grammar reject
    bad input with exit code 1 and a message that says where."""

    def test_kernel_without_step_is_error(self, tmp_path, monkeypatch,
                                          capsys):
        obs = observations_csv(tmp_path)
        code, _, err = run_cli(monkeypatch, capsys,
                               ["analyze", str(obs), "--tau", "0.5",
                                "--kernel", "5000"])
        assert code == 1
        assert "--kernel and --step must be given together" in err

    def test_mismatched_kernel_names_the_line(self, tmp_path, monkeypatch,
                                              capsys):
        # the stream starts at 5000 in steps of 5000, so the second
        # observation (line 3) is the first a 4000 step disagrees with
        obs = observations_csv(tmp_path)
        code, _, err = run_cli(monkeypatch, capsys,
                               ["analyze", str(obs), "--tau", "0.5",
                                "--kernel", "5000", "--step", "4000"])
        assert code == 1
        assert "Traceback" not in err
        assert (f"{obs}:3: size 10000 at level 2 disagrees with the "
                "declared scheme (expected 9000)") in err

    def test_step_below_one_is_named(self, tmp_path, monkeypatch, capsys):
        # refused as declared, not blamed on the CSV's third line
        obs = observations_csv(tmp_path)
        code, _, err = run_cli(monkeypatch, capsys,
                               ["analyze", str(obs), "--tau", "0.5",
                                "--kernel", "5000", "--step", "-5000"])
        assert code == 1
        assert err == "error: uniform scheme needs step >= 1, got -5000\n"

    def test_matching_scheme_reads_the_stream(self, tmp_path, monkeypatch,
                                              capsys):
        obs = observations_csv(tmp_path)
        args = ["analyze", str(obs), "--strategy", "fixed:100", "--tau", "6.5"]
        plain = run_cli(monkeypatch, capsys, args)
        declared = run_cli(monkeypatch, capsys,
                           args + ["--kernel", "5000", "--step", "5000"])
        assert plain[0] == 0
        assert declared == plain

    @pytest.mark.parametrize("text,message", [
        ("level,size\n1,5000,80.0\n", ":1: expected header"),
        ("size,level,accuracy\n1,5000,80.0\n", ":1: expected header"),
        ("", ":1: expected header"),
        ("level,size,accuracy\n1,5000,80.0\n2,10000\n",
         ":3: expected 3 fields, got 2"),
        ("level,size,accuracy\n1,5000,80.0,1\n", ":2: expected 3 fields, got 4"),
        ("level,size,accuracy\n", ": no observations"),
        ("level,size,accuracy\n\n , ,\n", ": no observations"),
    ])
    def test_bad_csv_is_error(self, tmp_path, text, message):
        path = tmp_path / "obs.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}{message}")):
            read_observations(path)

    @pytest.mark.parametrize("sizes,message", [
        ((5000, 4000, 15000), "dec.csv:3: sizes must be strictly increasing"),
        ((0, 5000, 10000), "dec.csv:2: size must be positive"),
    ], ids=["falling", "zero"])
    def test_bad_size_exits_one(self, tmp_path, monkeypatch, capsys, sizes,
                                message):
        path = tmp_path / "dec.csv"
        path.write_text("level,size,accuracy\n" + "".join(
            f"{level},{size},{80.0 + level}\n"
            for level, size in enumerate(sizes, start=1)))
        code, out, err = run_cli(monkeypatch, capsys,
                                 ["analyze", str(path), "--tau", "0.5"])
        assert code == 1
        assert "Traceback" not in out + err
        assert err == f"error: {tmp_path / message}\n"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("level,size,accuracy\n1,5000,80.0\n\n"
                        "2,10000,85.0\n,,\n3,15000,87.5\n")
        log = read_observations(path)
        assert [(o.level, o.x, o.accuracy) for o in log] == [
            (1, 5000, 80.0), (2, 10000, 85.0), (3, 15000, 87.5)]

    @pytest.mark.parametrize("strategy,message", [
        ("fixed:", "cannot parse anchoring strategy 'fixed:'"),
        ("fixed:100+", "cannot parse anchoring strategy 'fixed:100+'"),
        ("fixed:100+2.5", "cannot parse anchoring strategy 'fixed:100+2.5'"),
        ("fixed:abc", "cannot parse anchoring strategy 'fixed:abc'"),
        ("anchored", "cannot parse anchoring strategy 'anchored'"),
        ("fixed:99", "fixed anchoring needs a finite beta >= 100"),
        ("fixed:100+-1", "fixed_look_ahead needs a nonnegative look-ahead"),
    ])
    def test_bad_strategy_is_error(self, tmp_path, monkeypatch, capsys,
                                   strategy, message):
        obs = observations_csv(tmp_path)
        code, _, err = run_cli(monkeypatch, capsys,
                               ["analyze", str(obs), "--strategy", strategy,
                                "--tau", "0.5"])
        assert code == 1
        assert err == f"error: {message}\n"


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
    ("evaluate", dict(_FRAME, strategies=["none", "fixed:nan"]),
     "fixed anchoring needs a finite beta"),
    ("simulate", dict(_GENERATOR, noise_sd=float("nan")),
     "noise_sd must be finite"),
    ("simulate", dict(_GENERATOR, noise_sd=float("inf")),
     "noise_sd must be finite"),
    ("simulate", dict(_GENERATOR, kernel=0),
     "uniform scheme needs kernel >= 1, got 0"),
    ("evaluate", dict(_FRAME, conditions=["bogus"]),
     "condition kind must be 'absolute' or 'relative'"),
])
def test_malformed_spec_is_error_not_traceback(tmp_path, monkeypatch, capsys,
                                               command, payload, message):
    code, out, err = run_on_spec(tmp_path, monkeypatch, capsys, command,
                                 payload)
    assert code == 1
    assert "Traceback" not in out + err
    assert message in err


class TestExitCodes:
    """Exit 0 is a stop or a command's success and 2 only "not converged
    yet": a usage error and an unreadable input or output path exit 1
    with a message on stderr and no traceback, and help exits 0."""

    @pytest.mark.parametrize("args", [
        ["analyze", "{obs}"],
        ["analyze", "{obs}", "--tau", "x"],
        ["analyze", "{obs}", "--tau", "0.5", "--condition", "foo"],
        ["bogus"],
        [],
        ["analyze", "{missing}", "--tau", "0.5"],
        ["analyze", "{obs}", "--tau", "0.5", "--out", "{dir}"],
        ["evaluate", "{frame}", "--error-target", "bogus"],
    ], ids=["no-tau", "bad-tau", "bad-condition", "unknown-command",
            "no-command", "missing-input", "out-is-a-directory",
            "bad-error-target"])
    def test_usage_error_exits_one(self, tmp_path, monkeypatch, capsys, args):
        obs = observations_csv(tmp_path)
        frame = tmp_path / "frame.json"
        frame.write_text(json.dumps(dict(_FRAME, observations=str(obs))))
        paths = {"obs": obs, "missing": tmp_path / "missing.csv",
                 "dir": tmp_path, "frame": frame}
        code, out, err = run_cli(monkeypatch, capsys,
                                 [arg.format(**paths) for arg in args])
        assert code == 1
        assert err.strip()
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("command", ["", "analyze", "tune", "evaluate",
                                         "simulate"])
    def test_help_exits_zero(self, monkeypatch, capsys, command):
        code, out, _ = run_cli(monkeypatch, capsys,
                               [command, "--help"] if command else ["--help"])
        assert code == 0
        assert "usage" in out.lower()


def cold_python(*argv):
    """The finished `python <argv>` process, run on this package."""
    src = str(Path(convergema.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))


def test_import_pulls_no_scipy():
    # scipy is a test-only dependency: neither the package nor its CLI loads it
    code = ("import sys, convergema, convergema.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = cold_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_only_what_analyze_runs():
    # a cold `convergema analyze` pays for no module it does not run
    code = ("import sys, convergema.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'click' or m in "
            "('convergema.evaluation', 'convergema.synth')))")
    done = cold_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestLazyNamespace:
    """The package resolves each public name from its submodule on first
    access."""

    def test_every_public_name_is_its_submodules_object(self):
        assert convergema.build_frame is convergema.evaluation.build_frame
        for name in convergema.__all__:
            value = getattr(convergema, name)
            owner = importlib.import_module(value.__module__)
            assert value is getattr(owner, name), name

    def test_dir_lists_every_public_name(self):
        assert set(convergema.__all__) <= set(dir(convergema))

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            convergema.no_such_name
        assert not hasattr(convergema, "no_such_name")


def test_main_dispatches_through_the_command_record(tmp_path, monkeypatch):
    # the traced benchmark child replaces `analyze.callback` and then calls
    # main(args, standalone_mode=False), where errors propagate
    obs = observations_csv(tmp_path)
    real, seen = cli.analyze.callback, []

    def traced(**options):
        seen.append(options["tau"])
        return real(**options)

    monkeypatch.setattr(cli.analyze, "callback", traced)
    cli.main(args=["analyze", str(obs), "--strategy", "fixed:100",
                   "--tau", "6.5"], standalone_mode=False)
    assert seen == [6.5]
    with pytest.raises(ValueError, match="must be given together"):
        cli.main(args=["analyze", str(obs), "--tau", "6.5", "--kernel", "5"],
                 standalone_mode=False)
    assert seen == [6.5, 6.5]


class TestColdProcess:
    """A cold CLI process freezes its heap at exit, so that the collections
    of the interpreter's teardown skip it; no exit code or output byte
    moves, and a process that calls `_entry` and goes on is not frozen."""

    @pytest.mark.parametrize("levels,strategy,tau,want", [
        (40, "fixed:100", "6.5", 0),        # stops
        (25, "fixed:100", "1e-9", 2),       # not yet
        (40, "fixed:1e200", "0.5", 1),      # fails
        (40, "fixed:100", "x", 1),          # a usage error
        (6, "fixed:100", "1.0", 2),         # no working level yet
    ])
    def test_exit_codes(self, tmp_path, levels, strategy, tau, want):
        obs = observations_csv(tmp_path, levels=levels)
        done = cold_python("-m", "convergema.cli", "analyze", str(obs),
                           "--strategy", strategy, "--tau", tau)
        assert done.returncode == want, done.stderr
        assert "Traceback" not in done.stderr

    def test_reports_match_in_process(self, tmp_path, monkeypatch, capsys):
        obs = observations_csv(tmp_path)

        def args(tag):
            return ["analyze", str(obs), "--strategy", "fixed:100",
                    "--tau", "6.5", "--out", str(tmp_path / f"{tag}.json"),
                    "--series", str(tmp_path / f"{tag}.csv")]
        for tag in ("cold1", "cold2"):
            done = cold_python("-m", "convergema.cli", *args(tag))
            assert done.returncode == 0, done.stderr
        assert run_cli(monkeypatch, capsys, args("warm"))[0] == 0
        assert gc.get_freeze_count() == 0
        for ext in ("json", "csv"):
            want = (tmp_path / f"warm.{ext}").read_bytes()
            assert (tmp_path / f"cold1.{ext}").read_bytes() == want
            assert (tmp_path / f"cold2.{ext}").read_bytes() == want

    def test_heap_frozen_at_exit(self, tmp_path):
        # exit handlers run last in, first out: this one runs after _entry's
        obs = observations_csv(tmp_path)
        code = ("import atexit, gc, sys\n"
                "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
                "from convergema.cli import _entry\n"
                f"sys.argv = ['convergema', 'analyze', {str(obs)!r},\n"
                "            '--strategy', 'fixed:100', '--tau', '6.5']\n"
                "_entry()\n")
        done = cold_python("-c", code)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout.split()[-1]) > 0
