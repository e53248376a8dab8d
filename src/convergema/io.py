"""CSV and JSON readers/writers for observation streams and reports."""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Optional

from .traces import LearningScheme, Observation, ObservationLog

CSV_HEADER = ("level", "size", "accuracy")
EPSILON_COLUMNS = ("level", "epsilon", "is_rupture")      # `epsilon_row`
# the columns of a frame report, one line per `FrameRow`
FRAME_COLUMNS = ("strategy", "condition", "tau", "plevel", "clevel", "a_c",
                 "a_e", "rc", "rp_c", "rp_e", "put", "look_ahead", "note")


def read_observations(path, scheme: Optional[LearningScheme] = None) -> ObservationLog:
    """Read `level,size,accuracy` CSV; parse errors carry line numbers."""
    log = ObservationLog(scheme=scheme)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise ValueError(f"{path}:1: expected header 'level,size,accuracy'")
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{line_no}: expected 3 fields, got {len(row)}")
            try:
                log.append(Observation(level=int(row[0]), x=int(row[1]),
                                       accuracy=float(row[2])))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
    if len(log) == 0:
        raise ValueError(f"{path}: no observations")
    return log


def write_observations(log: ObservationLog, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for obs in log:
            writer.writerow([obs.level, obs.x, repr(obs.accuracy)])


def write_json(payload: dict, path) -> None:
    """Stable serialisation: sorted keys, no timestamps, trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_series_csv(rows: Iterable[dict], fieldnames: tuple[str, ...], path) -> None:
    """One line per row; csv writes a None value as an empty field."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def epsilon_row(record) -> dict:
    """An `EpsilonRecord` as a series row; repr keeps the epsilon exact."""
    return {"level": record.level, "epsilon": repr(record.epsilon),
            "is_rupture": int(record.is_rupture)}


def tuning_payload(result) -> dict:
    """The selected look-ahead and the candidates of a `TuningResult`."""
    return {"selected": {"look_ahead": result.look_ahead, "zeta": result.zeta,
                         "put": result.put_at_switch, "rc": result.rc},
            "candidates": [{"zeta": c.zeta, "look_ahead": c.look_ahead,
                            "clevel": c.clevel, "rc": c.rc}
                           for c in result.candidates]}
