"""CSV and JSON writers with byte-stable output.

csv and json both render a float, numpy float64 included, with float's
repr (shortest round-trip form), so identical data always produces
identical bytes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

FORMATS = ("csv", "json")

EXPERIMENT_COLUMNS = ("k", "trials", "mean_iterations", "capped_fraction")


def trace_columns(width: int) -> list[str]:
    return ["iteration", "deviation_max", "deviation_l2"] + [f"v_{i}" for i in range(width)]


def trace_records(steps, target) -> list[dict]:
    """Per-iteration records from any iterable of step vectors (a list, or a
    run's replay): deviations against `target`, then the vector."""
    target = np.asarray(target, dtype=float)
    records = []
    for iteration, vec in enumerate(steps):
        vec = np.asarray(vec, dtype=float)
        dev = vec - target
        record = {
            "iteration": iteration,
            "deviation_max": float(np.max(np.abs(dev))),
            "deviation_l2": float(np.linalg.norm(dev)),
        }
        for i, x in enumerate(vec):
            record[f"v_{i}"] = float(x)
        records.append(record)
    return records


def experiment_records(rows) -> list[dict]:
    return [asdict(row) for row in rows]


def write_records(path, records: list[dict], columns: list[str], fmt: str = "csv") -> None:
    """Write records as CSV (given column order) or JSON (list of objects)."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    path = Path(path)
    if fmt == "json":
        path.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
        return
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for record in records:
            writer.writerow([record[c] for c in columns])


def write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
