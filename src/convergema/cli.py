"""Command line front end: analyze, tune, evaluate, simulate.

Exit codes: 0 converged / success, 2 analyzed but not converged yet,
1 error.  CSV in, JSON + CSV out; no timestamps in reports so identical
inputs produce byte-identical outputs.  A command imports only what it
runs: `evaluation` and `synth` load inside `evaluate` and `simulate`.
"""
from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from dataclasses import fields
from types import SimpleNamespace

from .anchoring import AnchoringStrategy
from .convergence import (CONDITION_KINDS, ERROR_TARGETS, ProximityCondition,
                          clevel, epsilon_sequence, find_optimal_look_ahead,
                          put)
from .curves import ACCURACY_CEILING, PowerLawCurve
from .errors import ConvergemaError, NotDecreasing
from .io import (EPSILON_COLUMNS, FRAME_COLUMNS, epsilon_row,
                 read_observations, tuning_payload, write_json,
                 write_observations, write_series_csv)
from .traces import PLEVEL_SOURCES, LearningScheme, LearningTrace, TraceParams


def _command(*options):
    """The decorated function as a command record: `main` adds `options`,
    the (flags, keywords) of `add_argument` calls, and calls `callback`."""
    return lambda callback: SimpleNamespace(callback=callback, options=options)


def _arg(*flags, **keywords):
    return flags, keywords


def _output_path(value: str) -> str:
    # checked before the analysis, not after it; inputs fail as read
    if os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value!r} is a directory")
    return value


def _scheme(kernel, step):
    if kernel is None and step is None:
        return None
    if kernel is None or step is None:
        raise ValueError("--kernel and --step must be given together")
    return LearningScheme.uniform(kernel, step)


def _read_spec(path) -> dict:
    """The JSON object in the spec file at `path`; a file that holds any
    other JSON value is a ValueError."""
    with open(path) as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError(
            f"spec {path} must hold a JSON object, not {type(raw).__name__}")
    return raw


def _items(convert):
    """A converter of a JSON list, `convert` applied item by item; any
    other value (a string too, which would split into letters) fails."""
    def items(value):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        return tuple(convert(item) for item in value)
    return items


def _whole(value) -> int:
    """`value` as an int if it is a whole number (5000.0 is, 20.9 is not)."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _perturbation(pair):
    level, delta = pair
    return _whole(level), float(delta)


def _spec_value(raw: dict, key: str, convert, *default):
    """`convert` applied to a JSON spec's value for `key`, or to the default
    when the key is absent; a missing key that has no default, or a value
    `convert` rejects, becomes a ValueError that names the key."""
    if key not in raw and not default:
        raise ValueError(f"spec missing key {key!r}")
    try:
        return convert(raw[key] if key in raw else default[0])
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"spec key {key!r} has a bad value {raw.get(key)!r}: {exc}") from None


_TRACE_OPTIONS = (
    _arg("--kernel", type=int, help="Declared kernel size; with --step, input "
         "sizes are validated against the uniform scheme."),
    _arg("--step", type=int, help="Declared uniform step size."),
    _arg("--nu", type=float, default=TraceParams.nu,
         help="Verticality threshold (0 < nu < 1)."),
    _arg("--slowdown", type=int, default=TraceParams.slowdown,
         help="Slowdown exponent for the verticality threshold."),
    _arg("--lambda", dest="look_ahead", type=int, default=TraceParams.look_ahead,
         help="Look-ahead window for level detection."),
    _arg("--anchor-weight", type=float, default=TraceParams.anchor_weight,
         help="Weight of the infinity point."),
    _arg("--plevel-source", choices=PLEVEL_SOURCES,
         default=TraceParams.plevel_source,
         help="Whose prediction level gates anchor switches."))


@_command(
    _arg("observations", metavar="OBSERVATIONS"),
    _arg("--strategy", default="none",
         help="none | canonical | fixed:<beta> | fixed:<beta>+<lookahead>"),
    _arg("--condition", choices=CONDITION_KINDS, default="absolute",
         help="Proximity condition."),
    _arg("--tau", type=float, required=True, help="Proximity threshold."),
    _arg("--out", type=_output_path, help="Write the JSON analysis report "
         "here (give a path that starts with '-' as --out=PATH)."),
    _arg("--series", type=_output_path, help="Write the epsilon/PUT series "
         "CSV here (give a path that starts with '-' as --series=PATH)."),
    *_TRACE_OPTIONS)
def analyze(observations, strategy, condition, tau, out, series, kernel, step,
            nu, slowdown, look_ahead, anchor_weight, plevel_source):
    """Stream a CSV of observations through a trace and report the stop
    decision.  Exits 0 when converged, 2 when not yet."""
    params = TraceParams(nu, slowdown, look_ahead, anchor_weight, plevel_source)
    strat = AnchoringStrategy.parse(strategy)
    cond = ProximityCondition(condition, tau)
    log = read_observations(observations, scheme=_scheme(kernel, step))
    trace = LearningTrace.from_log(log, strat, params)

    print(f"observations: {len(log)}")
    print(f"wlevel: {trace.wlevel}")
    print(f"plevel: {trace.plevel} (reference={trace.plevel_reference}, "
          f"anchored={trace.plevel_anchored})")

    records = []
    eps_error = None
    try:
        records = epsilon_sequence(trace)
    except ConvergemaError as exc:
        eps_error = exc

    # the absolute condition reads the epsilon sequence that just failed;
    # the relative one reads only the backbone
    stop = None
    if eps_error is None or cond.kind == "relative":
        stop = clevel(trace, cond)

    for entry in trace.backbone():
        print(f"  level {entry.level:>4}  x {entry.x:>10}  "
              f"alpha {entry.alpha:.6f}")
    if records:
        print("epsilon sequence:")
        for rec in records:
            mark = " (rupture)" if rec.is_rupture else ""
            print(f"  level {rec.level:>4}  eps {rec.epsilon:.6f}{mark}")

    report = {
        "strategy": strat.spec_string(),
        "condition": {"kind": cond.kind, "tau": cond.tau},
        "trace": trace.snapshot(),
        "epsilon": [
            {"level": r.level, "epsilon": r.epsilon, "is_rupture": r.is_rupture}
            for r in records
        ],
        "clevel": stop,
        "error": None if eps_error is None else str(eps_error),
    }
    if out:
        write_json(report, out)
    if series:
        rows = []
        for rec in records:
            put_val = ""
            if cond.kind == "absolute":
                try:
                    put_val = put(trace, cond, rec.level, records)
                except (ValueError, ConvergemaError):
                    pass    # PUT is not defined at this level
            rows.append({**epsilon_row(rec), "put": put_val})
        write_series_csv(rows, EPSILON_COLUMNS + ("put",), series)

    if eps_error is not None and stop is None and cond.kind == "absolute":
        print(f"error: {eps_error}", file=sys.stderr)
        if isinstance(eps_error, NotDecreasing):
            print("hint: use fixed anchoring for absolute thresholds",
                  file=sys.stderr)
        sys.exit(1)
    if stop is None:
        print("not converged yet")
        sys.exit(2)
    print(f"clevel: {stop}")


@_command(
    _arg("observations", metavar="OBSERVATIONS"),
    _arg("--horizon", dest="horizon_path", required=True,
         help="Oracle observation stream (a superset of OBSERVATIONS)."),
    _arg("--tau", type=float, required=True, help="Absolute threshold."),
    _arg("--beta", type=float, default=ACCURACY_CEILING,
         help="Fixed anchor of the swept traces."),
    _arg("--out", type=_output_path, help="Write the JSON tuning report "
         "here (give a path that starts with '-' as --out=PATH)."),
    *_TRACE_OPTIONS)
def tune(observations, horizon_path, tau, beta, out, kernel, step, nu,
         slowdown, look_ahead, anchor_weight, plevel_source):
    """Sweep tentative PUT values (100 down to 0, step 10) and pick the
    look-ahead with the turning-point relative cost.  OBSERVATIONS is only
    checked to be a prefix of the horizon: the anchor-free baseline and
    every sweep candidate run on the horizon stream."""
    params = TraceParams(nu, slowdown, look_ahead, anchor_weight, plevel_source)
    scheme = _scheme(kernel, step)
    obs_log = read_observations(observations, scheme=scheme)
    hor_log = read_observations(horizon_path, scheme=scheme)
    for mine, oracle in zip(obs_log, hor_log):
        if mine != oracle:
            raise ValueError(
                "observations are not a prefix of the horizon stream")
    if len(obs_log) > len(hor_log):
        raise ValueError("horizon shorter than the observations")

    cond = ProximityCondition("absolute", tau)
    baseline = LearningTrace.from_log(hor_log, AnchoringStrategy.none(), params)
    base_stop = clevel(baseline, cond)
    if base_stop is None:
        raise ValueError("anchor-free baseline did not converge")
    result = find_optimal_look_ahead(hor_log, params, tau, beta, base_stop,
                                     reference=baseline)

    print(f"baseline clevel: {base_stop}")
    print("zeta  lambda  clevel  rc")
    for cand in result.candidates:
        print(f"{cand.zeta:>4.0f}  {cand.look_ahead!s:>6}  "
              f"{cand.clevel!s:>6}  "
              f"{'-' if cand.rc is None else format(cand.rc, '.4f')}")
    print(f"selected look-ahead: {result.look_ahead} "
          f"(zeta {result.zeta:.0f}, PUT {result.put_at_switch:.2f}, "
          f"RC {result.rc:.4f})")
    if out:
        write_json({"baseline_clevel": base_stop, **tuning_payload(result)}, out)


@_command(
    _arg("frame_spec", metavar="FRAME_SPEC"),
    _arg("--out", dest="out_prefix", help="Write <prefix>.json and "
         "<prefix>.csv reports (give a prefix that starts with '-' as "
         "--out=PREFIX)."),
    _arg("--error-target", choices=ERROR_TARGETS, default="raw",
         help="What A^e compares each error with."))
def evaluate(frame_spec, out_prefix, error_target):
    """Evaluate a local testing frame described by a JSON spec with keys:
    observations (CSV path), tau_r, strategies, conditions, and optional
    nu/slowdown/lambda/horizon_len/anchor_weight/plevel_source."""
    raw = _read_spec(frame_spec)
    # a key per trace parameter ("lambda" for look_ahead), typed as its default
    params = TraceParams(**{
        f.name: _spec_value(raw, "lambda" if f.name == "look_ahead" else f.name,
                            _whole if type(f.default) is int
                            else type(f.default), f.default)
        for f in fields(TraceParams)})
    from .evaluation import FrameSpec, build_frame
    spec = FrameSpec(
        tau_r=_spec_value(raw, "tau_r", float),
        strategies=_spec_value(
            raw, "strategies",
            _items(lambda s: AnchoringStrategy.parse(str(s)))),
        conditions=_spec_value(raw, "conditions", _items(str),
                               CONDITION_KINDS),
        params=params,
        horizon_len=_spec_value(raw, "horizon_len",
                                lambda v: None if v is None else _whole(v), None),
        error_target=error_target)
    log = read_observations(_spec_value(raw, "observations", os.fspath))
    frame = build_frame(log, spec)

    def fmt(value, digits=6):
        return "" if value is None else f"{value:.{digits}f}"

    print(f"tau_a (normalised): {fmt(frame.tau_a)}")
    print("strategy        condition  plevel  clevel  A^c      RC      RP^c     A^e      RP^e     PUT     lookahead")
    rows = frame.rows()
    for row in rows:
        print(f"{row.strategy:<15} {row.condition:<9} "
              f"{row.plevel!s:>6}  {row.clevel!s:>6}  "
              f"{fmt(row.a_c, 2):>7}  {fmt(row.rc, 2):>6}  "
              f"{fmt(row.rp_c, 2):>7}  {fmt(row.a_e, 2):>7}  "
              f"{fmt(row.rp_e, 2):>7}  {fmt(row.put, 2):>6}  "
              f"{row.look_ahead!s:>9}")
    if out_prefix:
        payload = {
            "tau_a": frame.tau_a,
            "tau_r": spec.tau_r,
            "baseline": {"strategy": frame.baseline.strategy.spec_string(),
                         "condition": frame.baseline.condition.kind,
                         "clevel": frame.baseline.clevel},
            "rows": [vars(r) for r in rows],
        }
        write_json(payload, f"{out_prefix}.json")
        write_series_csv(map(vars, rows), FRAME_COLUMNS, f"{out_prefix}.csv")


@_command(
    _arg("spec_path", metavar="SPEC_PATH"),
    _arg("--out", type=_output_path, required=True, help="Observation CSV "
         "to write (give a path that starts with '-' as --out=PATH)."))
def simulate(spec_path, out):
    """Generate a synthetic observation stream from a JSON generator spec
    with keys a, b, c, levels and optional kernel/step/noise_sd/
    perturbations/seed."""
    from .synth import GeneratorSpec, generate
    raw = _read_spec(spec_path)
    scheme = LearningScheme.uniform(_spec_value(raw, "kernel", _whole, 5000),
                                    _spec_value(raw, "step", _whole, 5000))
    spec = GeneratorSpec(
        truth=PowerLawCurve(a=_spec_value(raw, "a", float),
                            b=_spec_value(raw, "b", float),
                            c=_spec_value(raw, "c", float)),
        levels=_spec_value(raw, "levels", _whole),
        scheme=scheme,
        noise_sd=_spec_value(raw, "noise_sd", float, 0.0),
        perturbations=_spec_value(raw, "perturbations",
                                  _items(_perturbation), ()),
        seed=_spec_value(raw, "seed", _whole, 0))
    write_observations(generate(spec), out)
    print(f"wrote {spec.levels} observations to {out}")


class _Parser(argparse.ArgumentParser):
    # click's command lines: no abbreviated option, no -h, usage errors exit 1
    def __init__(self, **keywords):
        super().__init__(add_help=False, allow_abbrev=False, **keywords,
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        self.add_argument("--help", action="help", help="Show this help.")

    def error(self, message):     # exit 2 means "not converged yet"
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(args=None, standalone_mode=True):
    """Run the command `args` (by default `sys.argv[1:]`) names; an error of
    its input or analysis exits 1, or propagates if not `standalone_mode`."""
    commands = {"analyze": analyze, "tune": tune, "evaluate": evaluate,
                "simulate": simulate}
    parser = _Parser(prog="convergema", description=
                     "Anchored learning-curve convergence thresholds.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in commands.items():
        sub = subparsers.add_parser(name, description=command.callback.__doc__)
        for flags, keywords in command.options:
            sub.add_argument(*flags, **keywords)
    values = vars(parser.parse_args(args))
    command = commands[values.pop("command")]
    errors = ((ConvergemaError, ValueError, OSError, KeyboardInterrupt)
              if standalone_mode else ())
    try:
        return command.callback(**values)
    except errors as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


def _entry():
    # Every object alive at exit moves to the permanent generation, which
    # the full collections of the interpreter's teardown skip (about
    # 23,000 objects after the import, a few ms per collection); the OS
    # takes the memory back either way.  Registered rather than called, so
    # that a process that goes on after `_entry` (a test) is not frozen.
    atexit.unregister(gc.freeze)    # once per process, however often called
    atexit.register(gc.freeze)
    main()


if __name__ == "__main__":
    _entry()
