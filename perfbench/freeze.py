#!/usr/bin/env python3
"""Freeze perfbench/snapshot.json: the checked outputs of every workload at
its default seed, as the current code produces them.

    python3 perfbench/freeze.py

Run it only on the code whose decisions are the reference; later changes
are checked against the file it writes.
"""
import json
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs src/ on the path)


def main() -> int:
    frozen = {}
    for workload in run.WORKLOADS:
        workdir = run.OUT / f"freeze-{workload}"
        log = workloads.prepare(workload, workloads.DEFAULT_SEED, workdir)
        if workload == "monitor-noisy-180":
            outputs = workloads.monitor_pass(log, [])
        elif workload == "study-drift-90":
            outputs = workloads.study_rep(log)
        else:
            code = subprocess.run(
                [sys.executable, "-m", "convergema.cli"]
                + workloads.cli_args(workdir), cwd=run.ROOT,
                env=run.child_env(), stdout=subprocess.DEVNULL).returncode
            outputs = workloads.cli_outputs(code, workdir)
        raised = [k for k, v in outputs.items()
                  if isinstance(v, str) and v.startswith("raised:")]
        if raised:
            print(f"{workload}: layer calls raised at {raised}; not frozen",
                  file=sys.stderr)
            return 1
        frozen[workload] = {"seed": workloads.DEFAULT_SEED,
                            "input_sha256": workloads.digest(log),
                            "outputs": outputs}
        print(f"{workload}: {len(outputs)} outputs")
    workloads.SNAPSHOT.write_text(
        json.dumps({"workloads": frozen}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
