"""Fresh-interpreter helpers of the benchmark.

    python3 perfbench/child.py setup <workload> <seed> <workdir>
        Times one set-up (import convergema, build the corpus) and prints
        the reference-speed seconds it took (see speed.py).
    python3 perfbench/child.py cli <workdir> <analyze args...>
        Runs ``python -m convergema.cli <args>`` as ``-m`` does (runpy), with
        the speed probe running, and writes the probe times to
        <workdir>/cli-speed.json when the CLI exits.
    python3 perfbench/child.py cli-trace <workdir> <analyze args...>
        Runs one ``convergema analyze`` in-process with the layer spans
        installed and writes <workdir>/cli-trace.json.

Only the standard library's start-up modules are imported at the top, so
that a cold CLI process loads nothing before the CLI's own imports.
"""
import os
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def setup(workload: str, seed: str, workdir: str) -> None:
    probe = speed.Speed()
    probe.start()
    start = time.perf_counter()
    import convergema  # noqa: F401  (the import is what is timed)
    import workloads
    from pathlib import Path
    workloads.prepare(workload, int(seed), Path(workdir))
    end = time.perf_counter()
    probe.stop()
    print(probe.normalised(start, end))


def cli(workdir: str, args: list[str]) -> None:
    import runpy
    probe = speed.Speed()
    probe.start()
    sys.argv = ["convergema.cli"] + args
    try:
        runpy.run_module("convergema.cli", run_name="__main__", alter_sys=True)
    finally:
        probe.stop()
        import json
        with open(os.path.join(workdir, "cli-speed.json"), "w") as handle:
            json.dump({"starts": probe.starts, "ends": probe.ends}, handle)


def cli_trace(workdir: str, args: list[str]) -> None:
    import json
    from pathlib import Path
    import tracer
    rec = tracer.Tracer()
    start = time.perf_counter()
    import convergema.cli
    import_s = time.perf_counter() - start
    exit_code = 0
    with rec.installed(), rec.span("rep"):
        try:
            convergema.cli.main(args=args, standalone_mode=False)
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:    # what _entry would print as an error
            print(f"error: {exc!r}", file=sys.stderr)
            exit_code = 1
    rec.finish()
    Path(workdir, "cli-trace.json").write_text(json.dumps({
        "exit_code": exit_code, "import_s": import_s, "counts": rec.counts,
        "spans": rec.spans}))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(*sys.argv[2:5])
    elif sys.argv[1] == "cli":
        cli(sys.argv[2], sys.argv[3:])
    elif sys.argv[1] == "cli-trace":
        cli_trace(sys.argv[2], sys.argv[3:])
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
