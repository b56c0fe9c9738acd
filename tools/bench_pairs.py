"""Alternating benchmark pairs: a base commit against the working tree.

    python3 tools/bench_pairs.py --base REF --workload W --seed0 S --out FILE

Run from the repository root.  W is one of BENCHMARK.json's workloads.
Pair i of PAIRS runs `bench/run.py --workload W --seed S+i --seconds T`,
T being BENCHMARK.json's run_seconds, once on each side, one run at a
time; the base runs first in even pairs and the working tree first in odd
ones.  The base side
is a `git archive` copy of REF, the change side a copy of the working
tree's tracked and unignored files, each in a temporary directory, so the
runs never write under this checkout's bench/.

FILE holds one entry per workload under "workloads"; an entry already there
for another workload is kept.  Per end-to-end metric of BENCHMARK.json it
records each side's median, the base's quartiles, the pairs the change won
(ties count for neither), the relative change and whether that stays
within the metric's bound; per run, `correct`, `failed` and the run's
`phase seconds` line, whose `timed` and `checks` seconds are summarized by
their median per side and printed after the last pair.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PHASES = ("timed", "checks")  # the phases summarized per side
PAIRS = 10  # the fewest pairs a gain may be claimed on


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", required=True, help="JSON file to write or update")
    return parser.parse_args(argv)


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_base(ref: str, dest: Path) -> str:
    """Extract REF's tree into dest; returns the full commit id."""
    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
        tar.extractall(dest, filter="data")
    return sha


def export_working_tree(dest: Path) -> None:
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        src = ROOT / name.decode()
        if name and src.is_file():
            (dest / name.decode()).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name.decode())


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run: its result line plus its phase seconds line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    phases = next((line for line in lines if line.startswith("phase seconds:")), "")
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "phases": phases.removeprefix("phase seconds: "),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Pairwise comparison of one metric; parent[i] and change[i] form pair i."""
    sign = 1.0 if better == "higher" else -1.0
    base, new = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    relative = (new - base) / base if base else math.copysign(math.inf, new) if new else 0.0
    return {
        "parent_median": base,
        "change_median": new,
        "parent_iqr": [q1, q3],
        "parent_iqr_width": q3 - q1,
        "median_difference": new - base,
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "relative_change": relative,
        "within_bound": sign * relative >= -bound,
    }


def phase_seconds(line: str) -> dict[str, float]:
    """A `phase seconds` line by phase: "timed 21.2, checks 10.1" gives
    {"timed": 21.2, "checks": 10.1}."""
    parts = (part.rpartition(" ") for part in line.split(", "))
    return {name: float(value) for name, _, value in parts if name}


def phase_medians(runs: dict[str, list[dict]]) -> dict[str, dict]:
    """Per side, the median seconds of each of PHASES over the runs that report it."""
    medians = {}
    for side in SIDES:
        parsed = [phase_seconds(run["phases"]) for run in runs[side]]
        values = {phase: [p[phase] for p in parsed if phase in p] for phase in PHASES}
        # The line has tenths of a second; rounding drops the float noise of a two-value median.
        medians[side] = {phase: round(statistics.median(v), 3) if v else None for phase, v in values.items()}
    return medians


def compare(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Per-metric summaries of the paired runs, in BENCHMARK.json's order."""
    metrics = {}
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [run["metrics"][name] for run in runs[side]] for side in SIDES}
        metrics[name] = summarize(values["parent"], values["change"], metric["better"], metric["bound"])
        metrics[name].update({f"{side}_runs": values[side] for side in SIDES})
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    seconds = spec["run_seconds"]
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    runs = {side: [] for side in SIDES}
    first = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        sha = export_base(args.base, trees["parent"])
        export_working_tree(trees["change"])
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                run = run_once(trees[side], args.workload, args.seed0 + i, seconds)
                runs[side].append(run)
                print(f"pair {i + 1}/{PAIRS} {side}: correct={run['correct']} failed={run['failed']} "
                      f"ops_per_s={run['metrics'].get('ops_per_s')} phases: {run['phases']}", flush=True)
    phases = phase_medians(runs)
    for side in SIDES:
        print(f"{side} median seconds: " + ", ".join(f"{k} {v}" for k, v in phases[side].items()), flush=True)
    doc.setdefault("workloads", {})[args.workload] = {
        "base": sha,
        "command": f"python3 bench/run.py --workload {args.workload} --seed S --seconds {seconds:g}",
        "pairs": PAIRS,
        "seeds": [args.seed0 + i for i in range(PAIRS)],
        "first_side": first,
        "all_correct": all(run["correct"] for side in SIDES for run in runs[side]),
        "failed_ops": {side: sum(run["failed"] for run in runs[side]) for side in SIDES},
        "metrics": compare(runs, spec["end_to_end"]),
        "phase_medians": phases,
        "runs": {side: [{k: run[k] for k in ("seed", "correct", "attempted", "failed", "phases")}
                        for run in runs[side]] for side in SIDES},
    }
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
