"""polyreg benchmark: runs one workload against the package in ./src.

    python3 bench/run.py --workload {table1,regularize,cli} --seed N --seconds S --trace {0,1}

Run from the repository root.  Each run is one closed-loop client in one
process.  With --trace 0 it prints the end-to-end metrics, with --trace 1
the per-layer metrics of a separate traced pass; the last line of stdout
is always one JSON object {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import os

# One BLAS thread: the ops are small and a single client must not compete
# with itself for the cores.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 3  # fresh processes timed per run for setup_s
MIN_OPS = 100  # so that op_ms_p90 has at least ten samples beyond it
# Times are reported at reference speed: the host's speed drifts by up to
# 1.5x within seconds, so every raw time is scaled by the workload's
# kernel_ref_s over its calibration kernel's time measured right around it
# (at most CAL_EVERY_S of op time apart).  The kernels are benchmark code
# only, so a change to polyreg cannot move them.
CAL_EVERY_S = 0.1


def speed_scale(wl, before: float, after: float) -> float:
    """Factor taking a time measured between two calibrations to reference speed."""
    return 2 * wl.kernel_ref_s / (before + after)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("table1", "regularize", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time setup_s)")
    return parser.parse_args(argv)


def load_polyreg():
    """Import polyreg from this checkout's src/, never from anywhere else."""
    if not (SRC / "polyreg" / "__init__.py").is_file():
        raise SystemExit(f"bench: no polyreg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyreg

    if Path(polyreg.__file__).resolve().parent != SRC / "polyreg":
        raise SystemExit(f"bench: imported polyreg from {polyreg.__file__}, not {SRC}")


def run_ops(wl, ops, out: Path) -> list[tuple]:
    """(op, raw output or None, error or None, seconds) for each op, in order."""
    records = []
    for op in ops:
        start = time.perf_counter()
        try:
            raw, error = wl.run(op, out), None
        except Exception as exc:  # a failed op is counted, never fatal
            raw, error = None, (type(exc).__name__, str(exc))
        records.append((op, raw, error, time.perf_counter() - start))
    return records


def same(a, b) -> bool:
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if hasattr(a, "shape") or hasattr(b, "shape"):
        import numpy as np

        return np.array_equal(a, b)
    return a == b


class Bench:
    def __init__(self, args, workdir: Path):
        import workloads

        self.args = args
        self.workloads = workloads
        self.workdir = workdir
        self.wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        self.blocks: list[list] = []
        self.problems: list[str] = []  # reasons the run is not correct

    def out(self, name: str) -> Path:
        path = self.workdir / name
        path.mkdir(exist_ok=True)
        return path

    def block(self, b: int) -> list:
        while len(self.blocks) <= b:
            self.blocks.append(self.wl.block(len(self.blocks)))
        return self.blocks[b]

    def warm_up(self) -> None:
        run_ops(self.wl, self.wl.warmup_ops(), self.out("warm"))

    def timed_pass(self):
        """Whole blocks until --seconds of op time and MIN_OPS ops have passed.

        Returns the op records and, per record, the factor that takes its
        time to reference speed: the calibration kernel runs whenever
        CAL_EVERY_S of op time has passed, and each op uses the mean of
        the calibrations before and after it.
        """
        records, scales, pending = [], [], []
        out = self.out("timed")
        before, op_seconds, b = self.wl.calibrate(), 0.0, 0
        while op_seconds < self.args.seconds or len(records) + len(pending) < MIN_OPS:
            for op in self.block(b):
                pending += run_ops(self.wl, [op], out)
                op_seconds += pending[-1][3]
                if sum(r[3] for r in pending) >= CAL_EVERY_S:
                    after = self.wl.calibrate()
                    scales += [speed_scale(self.wl, before, after)] * len(pending)
                    records += pending
                    before, pending = after, []
            b += 1
        if pending:
            scales += [speed_scale(self.wl, before, self.wl.calibrate())] * len(pending)
            records += pending
        return records, scales

    def evaluate(self, records, out: Path):
        """Finish and check every op: (outputs, ok flags, failure counts by (kind, error))."""
        outputs, oks, failures = [], [], Counter()
        for op, raw, error, _ in records:
            output = None
            if error is None:
                output = self.wl.finish(op, raw, out)
                reason = self.wl.check(op, output)
                if reason is not None:
                    error = ("wrong output", reason)
                    self.problems.append(f"{op.kind} ({op.shape}): {reason}")
            else:
                self.problems.append(f"{op.kind} ({op.shape}) raised {error[0]}: {error[1]}")
            outputs.append(output)
            oks.append(error is None)
            if error is not None:
                failures[(op.kind, error[0])] += 1
        return outputs, oks, failures

    def same_as_timed(self, label: str, records, out: Path, timed_outputs) -> None:
        for (op, raw, error, _), expected in zip(records, timed_outputs):
            output = None if error else self.wl.finish(op, raw, out)
            if not same(output, expected):
                self.problems.append(f"{label} pass: {op.kind} ({op.shape}) output differs from timed pass")

    def defect_probe(self, traced: bool) -> tuple[int, int, Counter]:
        """Run the workload's probe ops once, outside the timed and counted ops.

        Returns how many raised a known failure, how many ran, and the
        tracer's counts when traced.  A probe op that succeeds is checked
        like any other; any other exception marks the run incorrect.
        """
        import tracing

        ops, out = self.wl.probe_ops(), self.out("probe")
        tracer = tracing.Tracer()
        if traced:
            tracer.install()
        try:
            records = run_ops(self.wl, ops, out)
        finally:
            tracer.uninstall()
        known = 0
        for op, raw, error, _ in records:
            if error is None:
                reason = self.wl.check(op, self.wl.finish(op, raw, out))
                if reason is not None:
                    self.problems.append(f"probe {op.kind} ({op.shape}): {reason}")
            elif (op.kind, error[0]) in self.workloads.KNOWN_FAILURES:
                known += 1
            else:
                self.problems.append(f"probe {op.kind} ({op.shape}) raised {error[0]}: {error[1]}")
        return known, len(ops), tracer.counts

    def memory_pass(self, timed_outputs) -> tuple[float, int]:
        """Largest tracemalloc peak of one op of the first block, above what
        was live before it.

        Garbage is collected before each op, so the figure does not depend
        on where the collector happened to run in earlier ops.
        """
        ops = self.block(0)
        out = self.out("memory")
        records, peak = [], 0
        tracemalloc.start()
        try:
            for op in ops:
                gc.collect()
                tracemalloc.reset_peak()
                live = tracemalloc.get_traced_memory()[0]
                records += run_ops(self.wl, [op], out)
                peak = max(peak, tracemalloc.get_traced_memory()[1] - live)
        finally:
            tracemalloc.stop()
        self.same_as_timed("memory", records, out, timed_outputs)
        return peak / 1e6, len(ops)

    def traced_pass(self, timed_outputs):
        """Traced run of the first trace_blocks blocks and its overhead.

        Each op runs untraced and then traced, back to back, so drifts in
        machine speed cancel out of the overhead.
        """
        import tracing

        ops = [op for b in range(self.wl.trace_blocks) for op in self.block(b)]
        out = self.out("traced")
        tracer, records, untraced, traced = tracing.Tracer(), [], 0.0, 0.0
        for op in ops:
            untraced += run_ops(self.wl, [op], out)[0][3]
            tracer.install()
            try:
                records += run_ops(self.wl, [op], out)
            finally:
                tracer.uninstall()
            traced += records[-1][3]
        self.same_as_timed("traced", records, out, timed_outputs)
        return tracer, len(ops), 1.0 - untraced / traced


def setup_seconds(args, wl) -> tuple[list[float], list[float]]:
    """Start-to-ready times of fresh processes that import polyreg and warm
    up: (raw seconds, reference-speed seconds) per process."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = wl.calibrate()
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        raw.append(ready - start)
        scaled.append(raw[-1] * speed_scale(wl, before, wl.calibrate()))
    return raw, scaled


def percentile(values, q: int) -> float:
    """q-th percentile by statistics.quantiles' default (exclusive) method."""
    return statistics.quantiles(values, n=100)[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    load_polyreg()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.probe:
            Bench(args, workdir).warm_up()
            print("ready", flush=True)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    phases = [time.perf_counter()]
    bench = Bench(args, workdir)
    setup_raw, setup = ([], []) if args.trace else setup_seconds(args, bench.wl)
    bench.warm_up()
    phases.append(time.perf_counter())
    records, scales = bench.timed_pass()
    phases.append(time.perf_counter())
    outputs, oks, failures = bench.evaluate(records, bench.out("timed"))
    phases.append(time.perf_counter())
    attempted, ok = len(records), sum(oks)
    wall = sum(r[3] for r in records)
    wall_ref = sum(r[3] * scale for r, scale in zip(records, scales))
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
        f"timed pass: {attempted} ops in blocks of {len(bench.blocks[0])}, {wall:.3f} s of op time "
        f"({wall_ref:.3f} s at reference speed; calibration kernel "
        f"{bench.wl.kernel_ref_s / statistics.median(scales) * 1e3:.2f} ms median, "
        f"reference {bench.wl.kernel_ref_s * 1e3:g} ms)",
        f"failed_frac  {(attempted - ok) / attempted:.6f} frac  ({attempted - ok} of {attempted} attempted)",
    ]
    lines += [f"  {count} x {kind} {error}" for (kind, error), count in sorted(failures.items())]
    known, probed, probe_counts = bench.defect_probe(traced=bool(args.trace))
    if probed:
        lines.append(f"known-defect probe: {known} of {probed} ops raised a known failure "
                     "(not counted in attempted or failed)")
        lines += [f"  {kind} {error}: {why}" for (kind, error), why
                  in bench.workloads.KNOWN_FAILURES.items()]
    if args.trace:
        tracer, traced_ops, overhead = bench.traced_pass(outputs)
        tracer.counts.update({c: v for c, v in probe_counts.items() if c.endswith(".errors")})
        spans = OUT / f"{args.workload}-seed{args.seed}-spans.csv"
        tracer.write_spans(spans)
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = (overhead, "frac")
        lines.append(f"per-layer metrics: traced pass over the first {bench.wl.trace_blocks} "
                     f"block(s), {traced_ops} ops; spans in {spans.relative_to(ROOT)}")
    else:
        peak_mb, mem_ops = bench.memory_pass(outputs)
        good = [(r[3], scale) for r, scale, ok_ in zip(records, scales, oks) if ok_]
        n = f"n={len(good)} successful ops"
        if len(good) < 2:  # a broken run still reports, over every op
            good, n = [(r[3], scale) for r, scale in zip(records, scales)], f"n={attempted} ops, too few succeeded"
        latencies = [dt * scale * 1e3 for dt, scale in good]
        raw_latencies = [dt * 1e3 for dt, _ in good]
        rows = [
            ("setup_s", statistics.median(setup), statistics.median(setup_raw), "s",
             f"median of {len(setup)} fresh processes"),
            ("ops_per_s", ok / wall_ref, ok / wall, "1/s", f"{ok} successful ops"),
            ("op_ms_p50", statistics.median(latencies), statistics.median(raw_latencies), "ms", n),
            ("op_ms_p90", percentile(latencies, 90), percentile(raw_latencies, 90), "ms", n),
            ("peak_mem_mb", peak_mb, None, "MB", f"largest tracemalloc peak of {mem_ops} ops"),
            ("ok_frac", ok / attempted, None, "frac", f"{ok} of {attempted} attempted"),
        ]
        metrics = {name: (value, unit) for name, value, _, unit, _ in rows}
        lines.append("metric       value at reference speed (raw value)  unit  (samples)")
        lines += [f"{name:<12} {value:.6g}" + (f" ({raw:.6g})" if raw is not None else "")
                  + f" {unit}  ({note})" for name, value, raw, unit, note in rows]
    phases.append(time.perf_counter())
    lines.append("phase seconds: setup and warm-up {:.1f}, timed {:.1f}, checks {:.1f}, {} {:.1f}".format(
        *(b - a for a, b in zip(phases[:3], phases[1:4])), "traced pass" if args.trace else "memory pass",
        phases[4] - phases[3]))
    correct = not bench.problems
    lines += ["correct" if correct else "NOT CORRECT:"] + [f"  {p}" for p in bench.problems[:20]]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"lines": lines, **result}, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
