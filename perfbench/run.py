#!/usr/bin/env python3
"""Benchmark of the convergema stop decision.

    python3 perfbench/run.py --workload monitor-noisy-180 --seed 7 \
        --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each exists):

* monitor-noisy-180  online use: extend + clevel after each of 180 noisy
                     observations, fixed:100 anchoring, absolute tau.
* study-drift-90     scripts/run_synthetic_study.py at its defaults,
                     in-process and without file writes.
* cli-analyze-cold   one cold ``python -m convergema.cli analyze`` process
                     per repetition on a 120-level noisy CSV.

Every workload is a closed loop in one process and one thread: the next
input is handed over only after the previous decision came back.  Outputs
are checked against perfbench/snapshot.json when the generated input is the
frozen one, else against a cross-check that needs no snapshot.

``--trace 0`` prints the end-to-end metrics, timed in reference-speed
seconds: the host's speed is sampled while the program runs and each timed
stretch is rescaled by it (speed.py).  ``--trace 1`` alternates untraced
and traced repetitions and prints the per-layer metrics in wall seconds.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("monitor-noisy-180", "study-drift-90", "cli-analyze-cold")
SETUP_CHILDREN = 4          # set-up samples besides the in-process one
CHILD_TIMEOUT_S = 120.0
# One process, one thread: keep numerical libraries from starting pools.
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str], log_path: Path,
              probe=None) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, start and end perf_counter
    times, peak RSS MB).  The parent's speed probe, if any, pauses while
    the parent only waits, so that one process runs at a time."""
    if probe is not None:
        probe.stop()
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.perf_counter()
    if probe is not None:
        probe.start()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (the 'inclusive' method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def machine_facts() -> dict:
    from importlib.metadata import PackageNotFoundError, version
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
             "python": platform.python_version()}
    for dist in ("numpy", "scipy", "click"):
        try:
            facts[dist] = version(dist)
        except PackageNotFoundError:
            facts[dist] = None
    return facts


class Bench:
    """One workload at one seed: its input, the reference outputs, the
    repetitions run so far and how many checked outputs failed."""

    def __init__(self, workload: str, seed: int, workdir: Path, log, probe):
        import workloads
        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.log = log
        self.probe = probe      # speed.Speed while it runs, else None
        self.expected, self.source = workloads.expected_outputs(
            workload, log, workdir)
        self.attempted = 0
        self.failed = 0
        self.cli_rss: list[float] = []
        self.samples: dict[str, list] = {}   # per-rep values, for the record

    def check(self, outputs: dict) -> None:
        attempted, failed = self.wl.check(outputs, self.expected)
        self.attempted += attempted
        self.failed += failed

    def seconds(self, start: float, end: float, probe=None) -> float:
        """Reference-speed seconds of [start, end] while a speed probe runs
        (``probe``, else this process's own), wall seconds otherwise."""
        probe = probe or self.probe
        if probe is None:
            return end - start
        return probe.normalised(start, end)

    def rep(self, tracer=None) -> tuple[float, list]:
        """One repetition of the timed body: (its seconds, decision
        seconds)."""
        if self.workload == "cli-analyze-cold":
            return self.cli_rep(tracer)
        decisions: list = []
        start = time.perf_counter()
        if tracer is None:
            outputs = self.body(decisions)
        else:
            with tracer.installed(), tracer.span("rep"):
                outputs = self.body(decisions)
            tracer.finish()
        end = time.perf_counter()
        self.check(outputs)
        wall = self.seconds(start, end)
        # The study's decision is its whole output: one sample per rep.
        return wall, [self.seconds(*d) for d in decisions] or [wall]

    def body(self, decisions: list) -> dict:
        if self.workload == "monitor-noisy-180":
            return self.wl.monitor_pass(self.log, decisions)
        return self.wl.study_rep(self.log)

    def cli_rep(self, tracer) -> tuple[float, list]:
        for name in ("report.json", "series.csv", "cli-trace.json",
                     "cli-speed.json"):
            (self.workdir / name).unlink(missing_ok=True)
        args = self.wl.cli_args(self.workdir)
        if tracer is not None:
            mode = ["cli-trace", str(self.workdir)]
        elif self.probe is not None:
            mode = ["cli", str(self.workdir)]
        else:
            mode = None
        argv = [sys.executable] + (
            [str(HERE / "child.py")] + mode if mode
            else ["-m", "convergema.cli"]) + args
        code, start, end, rss = run_child(argv, self.workdir / "cli.log",
                                          self.probe)
        # A child that died before its first probe is timed by the
        # parent's probe; its outputs are missing and count as failed.
        child_probe = None
        speed_file = self.workdir / "cli-speed.json"
        if mode and mode[0] == "cli" and speed_file.exists():
            probes = json.loads(speed_file.read_text())
            if probes["starts"]:
                child_probe = speed.Speed(probes["starts"], probes["ends"])
        wall = self.seconds(start, end, child_probe)
        if tracer is not None:
            traced = json.loads((self.workdir / "cli-trace.json").read_text())
            code = traced["exit_code"]
            tracer.spans = [tuple(span) for span in traced["spans"]]
            tracer.counts = traced["counts"]
            tracer.import_s = traced["import_s"]
        else:
            self.cli_rss.append(rss)
        self.check(self.wl.cli_outputs(code, self.workdir))
        return wall, [wall]


def setup_samples(bench: Bench) -> list[float]:
    """Set-up times of fresh interpreters (import + corpus), in
    reference-speed seconds."""
    samples = []
    log_path = bench.workdir / "setup-child.log"
    for _ in range(SETUP_CHILDREN):
        code, *_ = run_child([sys.executable, str(HERE / "child.py"), "setup",
                              bench.workload, str(bench.seed),
                              str(bench.workdir / "setup-probe")],
                             log_path, bench.probe)
        if code != 0:
            raise SystemExit(f"set-up child failed:\n{log_path.read_text()}")
        samples.append(float(log_path.read_text().split()[-1]))
    return samples


def spread(name: str, values: list) -> None:
    print(f"{name} per rep: p25 {quantile(values, .25):.4f}  "
          f"median {statistics.median(values):.4f}  "
          f"p75 {quantile(values, .75):.4f}  n={len(values)}")


def end_to_end(bench: Bench, seconds: float, setup_inproc: float) -> dict:
    setups = [setup_inproc] + setup_samples(bench)
    walls, decide = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        wall, samples = bench.rep()
        walls.append(wall)
        decide.extend(samples)
    if bench.workload == "cli-analyze-cold":
        rss = statistics.median(bench.cli_rss)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_s = bench.probe.probe_s()
    bench.samples = {"wall_s": walls, "setup_s": setups, "decide_s": decide,
                     "probe_s": probe_s}
    print(f"reps: {len(walls)}  decide samples: {len(decide)}  "
          f"(reference-speed seconds)")
    print(f"host speed: {len(probe_s)} probes, median "
          f"{statistics.median(probe_s) * 1e3:.3f} ms, fastest "
          f"{min(probe_s) * 1e3:.3f} ms, reference "
          f"{speed.REF_PROBE_S * 1e3:.3f} ms")
    spread("wall_s", walls)
    spread("setup_s", setups)
    spread("decide_ms", [d * 1e3 for d in decide])
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "decide_p50_ms": (statistics.median(decide) * 1e3, "ms"),
        "decide_p90_ms": (quantile(decide, 0.90) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(bench: Bench, seconds: float, setup_tracer,
              trace_path: Path) -> dict:
    """Alternate untraced and traced reps; per-layer metrics of the traced
    ones (counts from the first, times as medians) and the overhead."""
    import tracer as tracing
    bench.rep()                 # warm-up: checked, not timed
    untraced, traced, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        rec = tracing.Tracer()
        if len(traced) % 2:     # alternate which side of a pair runs first
            traced.append(bench.rep(rec)[0])
            untraced.append(bench.rep()[0])
        else:
            untraced.append(bench.rep()[0])
            traced.append(bench.rep(rec)[0])
        tracers.append(rec)

    with open(trace_path, "w") as handle:
        for i, rec in enumerate([setup_tracer] + tracers):
            for sid, parent, name, start, end, raised in rec.spans:
                handle.write(json.dumps({"rep": i, "id": sid, "parent": parent,
                                         "name": name, "start": start,
                                         "end": end, "raised": raised}) + "\n")

    per_rep = []
    for rec, wall in zip(tracers, traced):
        m = tracing.layer_metrics(rec)
        covered = tracing.covered_s(rec.spans)
        if hasattr(rec, "import_s"):
            m["cli.import_s"] = rec.import_s
            covered += rec.import_s
        m["trace.uncovered_share"] = 1.0 - covered / wall
        per_rep.append(m)

    metrics = {}
    for key in sorted(per_rep[0]):
        values = [m[key] for m in per_rep]
        if key.endswith((".calls", ".raised", ".skipped", ".ruptures")):
            if len(set(values)) != 1:
                print(f"warning: {key} differs between traced reps: {values}")
            metrics[key] = (values[0], "count")
        else:
            unit = "us" if key.endswith("_us") else (
                "share" if key.endswith("share") else "s")
            metrics[key] = (statistics.median(values), unit)
    generate = tracing.aggregate(setup_tracer.spans)["synth.generate"]
    metrics["synth.generate.calls"] = (generate["calls"], "count")
    metrics["synth.generate.self_s"] = (generate["self_s"], "s")
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    bench.samples = {"untraced_wall_s": untraced, "traced_wall_s": traced}
    print(f"traced reps: {len(traced)}")
    spread("untraced wall_s", untraced)
    spread("traced wall_s", traced)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "convergema" / "__init__.py").is_file():
        print(f"error: no convergema package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    # The speed probe runs through every untraced run; traced runs time
    # their spans in wall seconds, without it.
    probe = None if args.trace else speed.Speed()
    if probe is not None:
        probe.start()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import convergema
    if Path(convergema.__file__).resolve().parent != SRC / "convergema":
        print(f"error: imported {convergema.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads
    setup_tracer = tracing.Tracer()
    if args.trace:
        with setup_tracer.installed():
            log = workloads.prepare(args.workload, args.seed, workdir)
    else:
        log = workloads.prepare(args.workload, args.seed, workdir)
    end = time.perf_counter()

    bench = Bench(args.workload, args.seed, workdir, log, probe)
    setup_inproc = bench.seconds(start, end)
    facts = machine_facts()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"checks against: {bench.source}")
    print("machine: " + json.dumps(facts))
    if args.trace:
        trace_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        metrics = per_layer(bench, args.seconds, setup_tracer, trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        reported = tracing.COUNT_METRICS + tracing.TIME_METRICS + (
            "trace.uncovered_share",)
    else:
        metrics = end_to_end(bench, args.seconds, setup_inproc)
        probe.stop()
        reported = tuple(metrics)

    failed_frac = bench.failed / bench.attempted
    print(f"failed_frac = {failed_frac:.6g} ({bench.failed} of "
          f"{bench.attempted} checked outputs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in reported},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "machine": facts,
                    "checks": bench.source, "failed_frac": failed_frac,
                    "samples": bench.samples,
                    "metrics": {k: {"value": v, "unit": u}
                                for k, (v, u) in metrics.items()},
                    "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
