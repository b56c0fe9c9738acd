"""CSV and JSON writers with byte-stable output.

Both render a float, numpy float64 included, with float's repr (shortest
round-trip form), so identical data always produces identical bytes; all
JSON comes from one encoder, `dumps`, the bytes of json.dumps(..., indent=2).
CSV fields are numbers and column names are identifiers: none needs
quoting, so a row is its fields' str joined by commas, the bytes
csv.writer(lineterminator="\n") gives without its 128 KiB record buffer.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

FORMATS = ("csv", "json")

EXPERIMENT_COLUMNS = ("k", "trials", "mean_iterations", "capped_fraction")


_LEAVES = {str: encode_basestring_ascii, float: float.__repr__, int: int.__repr__,
           bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def dumps(obj, prefix: str = "\n") -> str:
    """The bytes of json.dumps(obj, indent=2, allow_nan=False) for str-keyed values
    at the depth `prefix` (newline, indent); leaf subclasses go by isinstance."""
    leaf = _LEAVES.get(type(obj))
    if leaf is None and not isinstance(obj, (dict, list, tuple)):
        leaf = next((_LEAVES[b] for b in (str, int, float) if isinstance(obj, b)), None)
        if leaf is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if leaf is not None:
        if (text := leaf(obj))[-1] in "nf":  # of all leaves only nan, inf and -inf end so
            raise ValueError("Out of range float values are not JSON compliant: " + repr(obj))
        return text
    inner = prefix + "  "  # each part list is unbound, so it is freed before the brackets go on
    if isinstance(obj, dict):
        return "{" + inner + ("," + inner).join([encode_basestring_ascii(k) + ": " + dumps(v, inner)
                                                 for k, v in obj.items()]) + prefix + "}" if obj else "{}"
    return "[" + inner + ("," + inner).join([dumps(v, inner) for v in obj]) + prefix + "]" if obj else "[]"


def trace_columns(width: int) -> list[str]:
    return ["iteration", "deviation_max", "deviation_l2"] + [f"v_{i}" for i in range(width)]


def trace_rows(steps, target) -> Iterator[list]:
    """Trace rows in `trace_columns` order from any iterable of step vectors
    (a list, or a run's replay): iteration, deviations against `target`,
    then the vector.  Steps are stacked into one array per block of about
    1024 values, so memory stays O(n + 1024) however long the run."""
    target = np.asarray(target, dtype=float)
    steps, block, iteration = iter(steps), max(1, 1024 // target.size), 0
    while chunk := list(islice(steps, block)):
        vecs = np.array(chunk, dtype=float)
        dev = vecs - target
        # d @ d is the dot np.linalg.norm takes of a 1-D vector; norm(axis=1)
        # sums in another order and can differ in the last bit
        for d, dev_max, vec in zip(dev, np.max(np.abs(dev), axis=1).tolist(), vecs.tolist()):
            yield [iteration, dev_max, math.sqrt(d @ d), *vec]
            iteration += 1


def experiment_records(rows) -> list[dict]:
    return [asdict(row) for row in rows]


def _write(path, fmt: str, columns: Sequence[str], rows: Iterable[list], records: Iterable[dict]) -> None:
    """JSON of `records` (the bytes of dumps(list(records)))
    or CSV of `rows` under `columns`: only the one `fmt` names is read, each
    item written as it arrives."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        if fmt == "json":
            separator = "[\n  "
            for record in records:
                handle.write(separator + dumps(record, "\n  "))
                separator = ",\n  "
            handle.write("[]\n" if separator == "[\n  " else "\n]\n")
            return
        handle.write(",".join(columns) + "\n")
        handle.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_records(path, records: Iterable[dict], columns: Sequence[str], fmt: str = "csv") -> None:
    """Write records as they arrive, as CSV (given column order) or JSON (a
    list of objects, the bytes of dumps(list(records)))."""
    _write(path, fmt, columns, ([record[c] for c in columns] for record in records), records)


def write_trace(path, steps, target, fmt: str = "csv") -> None:
    """Write the `trace_rows` of `steps` against `target` as CSV, or as JSON
    objects keyed by `trace_columns`: the bytes `write_records` gives the
    same records, in O(n + 1024) memory."""
    columns = trace_columns(np.size(target))
    rows = trace_rows(steps, target)
    _write(path, fmt, columns, rows, (dict(zip(columns, row)) for row in rows))
