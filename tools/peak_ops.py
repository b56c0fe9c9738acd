"""Per-op tracemalloc peaks of a benchmark workload's first block.

    python3 tools/peak_ops.py --workload W --seed S

Run from the repository root.  Prints the peak of every block-0 op of
`bench/run.py --workload W --seed S`, largest first, with the op's shape,
so that a change in `peak_mem_mb` (the largest of them) can be traced to
the op that sets it.  Each op is measured the way bench/run.py's memory
pass measures it: garbage is collected, the peak is reset, and the peak
above the memory live before the op is taken.  As in a benchmark run, the
warm-up ops and one untraced pass over the block run first, so no op's
peak holds a lazily built cache.  bench/ is imported, never written.
A stdout closed early (`| head`) ends the run quietly, with exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("table1", "regularize", "cli")


def op_peaks(workload: str, seed: int) -> list[tuple[float, str]]:
    """(peak in MB, op shape) of every block-0 op, largest peak first;
    raises RuntimeError if an op fails."""
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import run as bench_run  # sets the one-thread BLAS environment before numpy loads

    bench_run.load_polyreg()
    import workloads

    peaks = []
    with tempfile.TemporaryDirectory(prefix="peak-ops-") as tmp:
        wl = workloads.WORKLOADS[workload](seed, Path(tmp))
        ops = wl.block(0)
        bench_run.run_ops(wl, wl.warmup_ops() + ops, Path(tmp))
        tracemalloc.start()
        try:
            for op in ops:
                gc.collect()
                tracemalloc.reset_peak()
                live = tracemalloc.get_traced_memory()[0]
                [(_, _, error, _)] = bench_run.run_ops(wl, [op], Path(tmp))
                if error:  # a failed op's peak says nothing of the op
                    raise RuntimeError(f"{op.kind} ({op.shape}) failed: {error}")
                peaks.append(((tracemalloc.get_traced_memory()[1] - live) / 1e6, op.shape))
        finally:
            tracemalloc.stop()
    return sorted(peaks, reverse=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for peak_mb, shape in op_peaks(args.workload, args.seed):
        print(f"{peak_mb:.6f} MB  {shape}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe fails here, inside the try
    except BrokenPipeError:  # stdout closed early, as by `| head`
        # as Python's SIGPIPE note does: devnull takes stdout's place, so
        # the flush at exit does not fail again, and the exit code is 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
