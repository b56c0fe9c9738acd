"""Block 0 of each benchmark workload through the benchmark's own run,
finish and check: a change to the package that breaks a name or an output
the benchmark relies on fails here, not first in a benchmark run.

Op outputs go to a temporary directory; nothing under bench/ is written.
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TOOLS = BENCH.parent / "tools"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under bench/
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads


@pytest.mark.parametrize("name", ["table1", "regularize", "cli"])
def test_block_zero_checks_out(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    ops = workload.block(0)
    assert ops
    for op in ops:
        output = workload.finish(op, workload.run(op, out), out)
        assert workload.check(op, output) is None, f"{op.kind} ({op.shape})"


def traced_block_zero(workloads, tmp_path, name):
    """Block 0 of a workload run under the benchmark's tracer, every op
    checked; returns the tracer."""
    import tracing

    workload = workloads.WORKLOADS[name](1, tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    ops = workload.block(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        raws = [workload.run(op, out) for op in ops]
    finally:
        tracer.uninstall()
    for op, raw in zip(ops, raws):
        assert workload.check(op, workload.finish(op, raw, out)) is None, f"{op.kind} ({op.shape})"
    return tracer


def test_cli_block_zero_checks_out_traced(workloads, tmp_path):
    """The benchmark's traced pass wraps every public polyreg function and
    reads counters off their arguments (emit's row count takes len() of
    write_records' records), so a call that only the wrappers trip on
    fails here."""
    traced_block_zero(workloads, tmp_path, "cli")


def test_table1_extracts_one_frame_per_trial(workloads, tmp_path):
    """The draw's validating frame is the one each trial regularizes, and
    every trial draws through the public random_spherical_triangle, so the
    benchmark's draw metrics see each draw."""
    tracer = traced_block_zero(workloads, tmp_path, "table1")
    trials = tracer.counts["experiment.run_table1.trials"]
    assert trials > 0
    assert tracer.frames_per_trial() == 1.0
    assert tracer.stat("experiment.random_spherical_triangle", "calls") == trials


@pytest.fixture
def peak_ops(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(TOOLS))
    import peak_ops

    return peak_ops


def test_table1_peak_below_bound(peak_ops):
    """The table1 op's peak_mem_mb, per tools/peak_ops.py: a CSV write of
    four rows must not cost a fixed 128 KiB buffer."""
    peaks = peak_ops.op_peaks("table1", 1)
    assert peaks and peaks[0][0] < 0.08


def test_cli_peak_below_bound(peak_ops):
    """The cli op's peak_mem_mb, per tools/peak_ops.py, is set by eigen at
    n=256: its JSON must not cost the stdlib indent encoder's list of one
    string per token (0.372 MB with it)."""
    peaks = peak_ops.op_peaks("cli", 1)
    assert peaks and peaks[0][0] < 0.25


def test_peak_ops_ends_quietly_on_closed_stdout():
    """`tools/peak_ops.py ... | head` must not end in a BrokenPipeError
    traceback: the tool's first write here meets a pipe with no reader."""
    proc = subprocess.Popen(
        [sys.executable, str(TOOLS / "peak_ops.py"), "--workload", "table1", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=300)
    assert stderr == b""
    assert proc.returncode == 1
