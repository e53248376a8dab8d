#!/usr/bin/env python3
"""End-to-end synthetic study.

Generates a learning-curve stream with known final accuracy, compares the
anchoring strategies on it (working/prediction levels, epsilon bounds, stop
decisions), tunes the fixed-anchor look-ahead through the PUT sweep, and
evaluates a local testing frame against the oracle horizon.  Artifacts land
in --outdir as CSV/JSON.

    python scripts/run_synthetic_study.py --outdir out/
"""
import argparse
import json
from pathlib import Path

from convergema import (AnchoringStrategy, FrameSpec, GeneratorSpec,
                        LearningTrace, PowerLawCurve, ProximityCondition,
                        TraceParams, build_frame, clevel, drift_perturbations,
                        epsilon_sequence, find_optimal_look_ahead, generate)
from convergema.convergence import backbone_gaps
from convergema.io import (EPSILON_COLUMNS, FRAME_COLUMNS, epsilon_row,
                           tuning_payload, write_json, write_observations,
                           write_series_csv)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", type=Path)
    parser.add_argument("--levels", default=90, type=int)
    parser.add_argument("--seed", default=7, type=int)
    parser.add_argument("--final-accuracy", default=99.3, type=float)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    truth = PowerLawCurve(a=2.0 * 5000.0 ** 0.85, b=0.85, c=args.final_accuracy)
    pert = drift_perturbations(args.levels, 0.8, 0.15)
    spec = GeneratorSpec(truth=truth, levels=args.levels, perturbations=pert,
                         seed=args.seed)
    log = generate(spec)
    write_observations(log, args.outdir / "observations.csv")

    params = TraceParams()
    reference = LearningTrace.from_log(log, AnchoringStrategy.none(), params)
    print(f"reference trace: wlevel={reference.wlevel} "
          f"plevel={reference.plevel_reference} "
          f"final asymptote estimate={reference.backbone()[-1].alpha:.4f} "
          f"(truth {truth.c})")

    fixed = LearningTrace.from_log(log, AnchoringStrategy.fixed(100.0), params,
                                   reference=reference)
    records = epsilon_sequence(fixed)
    write_series_csv([epsilon_row(r) for r in records], EPSILON_COLUMNS,
                     args.outdir / "epsilon_fixed.csv")

    tau = records[int(len(records) * 0.3)].epsilon
    condition = ProximityCondition("absolute", tau)
    base_stop = clevel(reference, condition)
    print(f"absolute threshold tau={tau:.4f}: anchor-free stop at {base_stop}, "
          f"fixed:100 stop at {clevel(fixed, condition)}")

    tuning = find_optimal_look_ahead(log, params, tau, 100.0, base_stop,
                                     reference=reference)
    print(f"tuned look-ahead: {tuning.look_ahead} (tentative PUT "
          f"{tuning.zeta:.0f}, PUT at switch {tuning.put_at_switch:.2f}, "
          f"RC {tuning.rc:.3f})")
    write_json({"tau": tau, **tuning_payload(tuning)},
               args.outdir / "tuning.json")

    gaps = sorted(gap for _, gap in backbone_gaps(reference))
    frame_spec = FrameSpec(
        tau_r=gaps[int(len(gaps) * 0.6)],
        strategies=(AnchoringStrategy.none(), AnchoringStrategy.canonical(),
                    AnchoringStrategy.fixed(100.0),
                    AnchoringStrategy.fixed_with_look_ahead(
                        100.0, tuning.look_ahead)))
    frame = build_frame(log, frame_spec)
    rows = frame.rows()
    write_json({"tau_a": frame.tau_a, "rows": [vars(r) for r in rows]},
               args.outdir / "frame.json")
    write_series_csv(map(vars, rows), FRAME_COLUMNS, args.outdir / "frame.csv")

    print(f"frame written: tau_a={frame.tau_a:.4f}, baseline "
          f"{frame.baseline.strategy.spec_string()}+{frame.baseline.condition.kind} "
          f"clevel={frame.baseline.clevel}")
    print("columns: strategy condition plevel clevel RC A^c RP^c A^e RP^e")
    for row in rows:
        def fmt(v):
            return "-" if v is None else f"{v:.2f}"
        print(f"  {row.strategy:<13} {row.condition:<9} {row.plevel!s:>4} "
              f"{row.clevel!s:>5} {fmt(row.rc):>6} {fmt(row.a_c):>7} "
              f"{fmt(row.rp_c):>7} {fmt(row.a_e):>7} {fmt(row.rp_e):>7}")
    print(f"artifacts in {args.outdir}/")


if __name__ == "__main__":
    main()
