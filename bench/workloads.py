"""The three benchmark workloads: how each builds its ops, runs one op
through polyreg's public API, and checks the op's output.

An op is one unit of user work.  Ops come in blocks of a fixed mix: every
block of a workload has the same kinds and sizes, only the random shapes
differ, so runs with different seeds do the same amount of work.  Block b
of seed s is drawn from the generator seeded with (s, b, 0).

No op of a block is expected to fail.  The package's known failures are
exercised by a fixed set of defect-probe ops per seed instead, drawn from
the stream (s, 0, 2) and run outside the timed and counted ops, so that the
failure shows on every run without making the failed-op count depend on
how many blocks fit into the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from polyreg import circulant, cli, emit, experiment, hyperbolic, spherical

TWO_PI = ref.TWO_PI
NO_CAP = 100_000  # far above the step count of any op here
TABLE1_K = (2, 3, 4, 5)
# Failures the seed commit is known to have, by (op kind, exception).  The
# defect-probe ops expect them; an exception of any other kind, or any of
# them on an op of a block, marks the run incorrect.
KNOWN_FAILURES = {
    ("hyperbolic-even", "ZeroDivisionError"): (
        "even n: points i and i+n end within ~1e-8 of antipodal, "
        "geodesic_from_boundary divides by 1 + cos(separation) == 0"
    ),
}


@dataclass
class Op:
    kind: str
    shape: str  # ops of one shape share lazily built caches
    inputs: dict = field(repr=False)


class CliExit(Exception):
    """cli.main returned a non-zero exit code."""


TIMED, WARM, PROBE = 0, 1, 2  # generator streams


def block_rng(seed: int, block: int, stream: int = TIMED) -> np.random.Generator:
    return np.random.default_rng([seed, block, stream])


def _kernel_steps() -> None:
    """Direct stepping of an n=8, k=3 gap vector to 1e-6 (about 130 steps)."""
    wave = np.cos(np.arange(8.0))
    g = TWO_PI / 8 + 0.1 * (wave - wave.mean())
    ref.Run(g, ref.sphere_step(3), np.full(8, TWO_PI / 8), 1e-6, 10_000)


def _kernel_sweep() -> None:
    """Ten passes over a fresh 1 MB array."""
    big = np.arange(1 << 17, dtype=float)
    for _ in range(10):
        big = big[::-1] * 0.5 + 1.0


def _kernel_table1() -> None:
    """One reference table1 trial per k."""
    ref.table1_rows(0, TABLE1_K, 1, 0.005, 20)


class Workload:
    name = ""
    trace_blocks = 1  # blocks run under tracing; fixed so counts repeat exactly
    # Calibration: polyreg-free code of the same character as the ops, and
    # its time in seconds when the 2-CPU reference machine runs fast.
    kernels = ()
    kernel_ref_s = 0.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def calibrate(self) -> float:
        """Current kernel time: the faster of two runs, in seconds."""
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            for kernel in self.kernels:
                kernel()
            best = min(best, time.perf_counter() - start)
        return best

    def block(self, b: int, warm: bool = False) -> list[Op]:
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        """One op of each shape, drawn from a stream the timed blocks never use."""
        first = {}
        for op in self.block(0, warm=True):
            first.setdefault(op.shape, op)
        return list(first.values())

    def probe_ops(self) -> list[Op]:
        """Ops that show the known failures: the same ones on every run of a seed."""
        return []

    def run(self, op: Op, out: Path):
        """The timed part of one op."""
        raise NotImplementedError

    def finish(self, op: Op, raw, out: Path):
        """Collect the op's full output (files included), outside the timer."""
        return raw

    def check(self, op: Op, output) -> str | None:
        """None when the output matches the reference, else the reason."""
        raise NotImplementedError


# ---------------------------------------------------------------- shared checks


def _sphere_op(rng, n: int, k: int, tol: float, max_iter: int, kind: str) -> Op:
    axis, cos_radius, vertices = ref.sphere_polygon(rng, n)
    deviation = float(np.max(np.abs(ref.sphere_gaps(axis, vertices) - TWO_PI / n)))
    return Op(kind, f"{kind}:{n}", dict(axis=axis, cos_radius=cos_radius, vertices=vertices,
                                        deviation=deviation, n=n, k=k, tol=tol, max_iter=max_iter))


def _check_sphere(x: dict, converged: bool, iterations: int, final) -> str | None:
    n, k, tol, axis = x["n"], x["k"], x["tol"], x["axis"]
    run = ref.Run(ref.sphere_gaps(axis, x["vertices"]), ref.sphere_step(k),
                  np.full(n, TWO_PI / n), tol, x["max_iter"])
    if not run.accepts(converged, iterations):
        return f"converged={converged} iterations={iterations} disagree with direct stepping"
    final = np.asarray(final, dtype=float)
    if final.shape != (n, 3) or np.max(np.abs(final @ axis - x["cos_radius"])) > 1e-9:
        return "final vertices left the circumcircle"
    gaps = ref.sphere_gaps(axis, final)
    if abs(math.fsum(gaps) - TWO_PI) > 1e-9:
        return "final gaps do not sum to 2*pi"
    if converged and np.max(np.abs(gaps - TWO_PI / n)) > tol + 1e-12:
        return "converged but final gaps are not within tol of 2*pi/n"
    if np.max(np.abs(gaps - run.at(iterations))) > 1e-9:
        return "final gaps differ from direct stepping"
    start = ref.azimuths(axis, x["vertices"][:1])[0] + run.lead[iterations] / k
    turn = (ref.azimuths(axis, final[:1])[0] - start) % TWO_PI
    if min(turn, TWO_PI - turn) > 1e-8:
        return "vertex 0 is not where the rotation step puts it"
    return None


def _hyperbolic_op(rng, n: int, tol: float, max_iter: int) -> Op:
    kind = "hyperbolic-even" if n % 2 == 0 else "hyperbolic-odd"
    return Op(kind, f"{kind}:{n}", dict(points=ref.boundary_points(rng, n), n=n, tol=tol,
                                        max_iter=max_iter))


def _check_hyperbolic(x: dict, converged: bool, iterations: int, boundary, vertices) -> str | None:
    b0 = ref.boundary_gaps(x["points"])
    limit = ref.hyperbolic_limit(b0)
    run = ref.Run(b0, ref.hyperbolic_step, limit, x["tol"], x["max_iter"])
    if not run.accepts(converged, iterations):
        return f"converged={converged} iterations={iterations} disagree with direct stepping"
    if len(boundary) != 2 * x["n"] or boundary[0] != x["points"][0]:
        return "final boundary lost its anchor point"
    gaps = ref.boundary_gaps(boundary)
    if abs(math.fsum(gaps) - 1.0) > 1e-9:
        return "final boundary gaps do not sum to 1"
    if converged and np.max(np.abs(gaps - limit)) > x["tol"] + 1e-12:
        return "converged but final gaps are not within tol of the limit"
    if np.max(np.abs(gaps - run.at(iterations))) > 1e-9:
        return "final gaps differ from direct stepping"
    z = np.asarray(vertices, dtype=complex)
    if z.shape != (x["n"],) or np.max(np.abs(z)) >= 1.0:
        return "vertices are not n points inside the disk"
    return None


def _close(a, b, tol: float) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


# ---------------------------------------------------------------- table1


class Table1(Workload):
    """experiment.run_table1 at the CLI defaults plus its CSV, one seed per op."""

    name = "table1"
    ops_per_block = 8
    kernels = (_kernel_table1,)
    kernel_ref_s = 0.0020
    trace_blocks = 4

    def block(self, b: int, warm: bool = False) -> list[Op]:
        ops = []
        for i in range(self.ops_per_block):
            index = 2 * (b * self.ops_per_block + i) + int(warm)
            seed = (self.seed * 2_000_003 + index) % 2**64
            ops.append(Op("table1", "table1", dict(seed=seed, name=str(index))))
        return ops

    def run(self, op: Op, out: Path):
        config = experiment.ExperimentConfig(TABLE1_K, 20, 0.005, 20, op.inputs["seed"])
        rows = experiment.run_table1(config)
        path = out / f"table1-{op.inputs['name']}.csv"
        emit.write_records(path, emit.experiment_records(rows), list(emit.EXPERIMENT_COLUMNS), "csv")
        return rows, path

    def finish(self, op: Op, raw, out: Path):
        rows, path = raw
        return [(r.k, r.trials, r.mean_iterations, r.capped_fraction) for r in rows], path.read_bytes()

    def check(self, op: Op, output) -> str | None:
        rows, csv_bytes = output
        expected = ref.table1_rows(op.inputs["seed"], TABLE1_K, 20, 0.005, 20)
        if rows != expected:
            return f"rows {rows} differ from direct stepping {expected}"
        if csv_bytes != ref.table1_csv(expected):
            return "CSV bytes differ from the reference rendering"
        return None


# ---------------------------------------------------------------- regularize


class Regularize(Workload):
    """Long gap iterations: sphere n 3..1024 and hyperbolic odd n 3..17."""

    name = "regularize"
    trace_blocks = 2
    kernels = (_kernel_steps, _kernel_sweep)
    kernel_ref_s = 0.0037

    def block(self, b: int, warm: bool = False) -> list[Op]:
        rng = block_rng(self.seed, b, WARM if warm else TIMED)
        ops = [_sphere_op(rng, n, k, 1e-9, NO_CAP, "sphere-small")
               for n in range(3, 13) for k in (2, 3, 4, 5)]
        ops += [_sphere_op(rng, 64, 2, 1e-6, NO_CAP, "sphere-64") for _ in range(2)]
        ops.append(_sphere_op(rng, 1024, 2, 1e-9, 200, "sphere-1024"))
        ops += [_hyperbolic_op(rng, n, 1e-9, NO_CAP) for n in range(3, 18, 2) for _ in range(2)]
        return ops

    def probe_ops(self) -> list[Op]:
        rng = block_rng(self.seed, 0, PROBE)
        return [_hyperbolic_op(rng, n, 1e-9, NO_CAP) for n in range(4, 18, 2)]

    def run(self, op: Op, out: Path):
        x = op.inputs
        if op.kind.startswith("sphere"):
            polygon = spherical.SphericalPolygon(x["vertices"])
            bound = circulant.predict_iterations(
                spherical.step_spec(x["n"], x["k"]), x["deviation"], x["tol"])
            result = spherical.regularize(polygon, k=x["k"], tol=x["tol"], max_iter=x["max_iter"])
            return bound, result.converged, result.iterations, result.final.vertices
        result = hyperbolic.regularize_hyperbolic(
            hyperbolic.BoundaryPoints(x["points"]), tol=x["tol"], max_iter=x["max_iter"])
        vertices = hyperbolic.polygon_from_boundary(result.final)
        return result.converged, result.iterations, result.final.points, vertices

    def check(self, op: Op, output) -> str | None:
        x = op.inputs
        if op.kind.startswith("hyperbolic"):
            return _check_hyperbolic(x, *output)
        bound, converged, iterations, final = output
        factor = float(np.max(np.abs(ref.eigenvalues(
            [(x["k"] - 1) / x["k"], 1 / x["k"]] + [0.0] * (x["n"] - 2))[1:])))
        expected = math.ceil(math.log(x["tol"] / x["deviation"]) / math.log(factor) - 1e-12)
        if abs(bound - max(0, expected)) > 1:
            return f"predict_iterations gave {bound}, closed form gives {expected}"
        return _check_sphere(x, converged, iterations, final)


# ---------------------------------------------------------------- cli


class Cli(Workload):
    """Every subcommand through cli.main(argv), stdout captured, files in a temp dir."""

    name = "cli"
    trace_blocks = 4
    kernels = (_kernel_table1, _kernel_steps)
    kernel_ref_s = 0.0039

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.indir = self.workdir / "inputs"
        self.indir.mkdir(parents=True, exist_ok=True)

    def _add(self, ops: list[Op], tag: str, kind: str, size: int, data, argv: list[str],
             outputs: tuple[str, ...] = (), **x) -> None:
        """Append a cli op: its input file is written now, its outputs go to {out}."""
        name = f"{tag}-{len(ops)}"
        path = self.indir / f"{name}.json"
        if data is not None:
            path.write_text(json.dumps(data), encoding="utf-8")
        files = {o: f"{name}.{o}" for o in outputs}
        argv = [a.format(input=path, **{o: "{out}/" + f for o, f in files.items()}) for a in argv]
        ops.append(Op(kind, f"{kind}:{size}", dict(argv=argv, files=files, **x)))

    def _add_hyperbolic(self, ops: list[Op], tag: str, rng, n: int) -> None:
        op = _hyperbolic_op(rng, n, 1e-9, 2000)
        self._add(ops, tag, op.kind, n, list(op.inputs["points"]),
                  ["regularize", "--geometry", "hyperbolic", "--input", "{input}",
                   "--max-iter", "2000", "--trace", "{trace}"], ("trace",), **op.inputs)

    def probe_ops(self) -> list[Op]:
        rng, ops = block_rng(self.seed, 0, PROBE), []
        for n in (4, 6, 8):
            self._add_hyperbolic(ops, "probe", rng, n)
        return ops

    def block(self, b: int, warm: bool = False) -> list[Op]:
        rng = block_rng(self.seed, b, WARM if warm else TIMED)
        tag = f"{b}-{int(warm)}"
        ops: list[Op] = []

        def add(*args, **x):
            self._add(ops, tag, *args, **x)

        for _ in range(2):
            center, radius, z = ref.plane_triangle(rng)
            add("regularize-plane", 3, [[w.real, w.imag] for w in z],
                ["regularize", "--geometry", "plane", "--input", "{input}", "--trace", "{trace}"],
                ("trace",), center=center, radius=radius, vertices=z)
        for n, k in ((3, 2), (5, 3), (8, 2), (12, 4), (16, 2)):
            op = _sphere_op(rng, n, k, 1e-9, 200, "")
            add("regularize-sphere", n, op.inputs["vertices"].tolist(),
                ["regularize", "--geometry", "sphere", "--input", "{input}", "--k", str(k),
                 "--trace", "{trace}"], ("trace",), **op.inputs)
        for n in (3, 5, 7) * 2:
            self._add_hyperbolic(ops, tag, rng, n)
        for n in (64, 256):
            row = ref.stochastic_row(rng, n)
            add("eigen", n, row.tolist(), ["eigen", "--spec", "{input}", "--out", "{json}"],
                ("json",), row=row)
        _, _, z = ref.plane_triangle(rng)
        add("napoleon-plane", 3, [[w.real, w.imag] for w in z],
            ["napoleon", "--geometry", "plane", "--input", "{input}", "--out", "{json}"],
            ("json",), vertices=z)
        _, _, z3 = ref.sphere_polygon(rng, 3, 0.2, 0.9, signed=False)
        add("napoleon-sphere", 3, z3.tolist(),
            ["napoleon", "--geometry", "sphere", "--input", "{input}", "--out", "{json}"],
            ("json",), vertices=z3)
        _, _, pts = ref.sphere_polygon(rng, 8, 0.2, 0.9)
        pts = pts + 1e-3 * rng.standard_normal(pts.shape)
        pts = pts / np.linalg.norm(pts, axis=1)[:, None]
        add("fit", 8, pts.tolist(), ["fit", "--input", "{input}", "--out", "{json}"],
            ("json",), points=pts)
        for n in range(3, 9):
            matrix = ref.circulant_matrix(ref.stochastic_row(rng, n))
            add("analyze", n, matrix.tolist(), ["analyze", "--matrix", "{input}", "--out", "{json}"],
                ("json",), matrix=matrix)
        seed = int(rng.integers(2**32))
        add("table1", 5, None, ["experiment", "table1", "--trials", "5", "--seed", str(seed),
                                "--out", "{csv}"], ("csv",), seed=seed)
        return ops

    def run(self, op: Op, out: Path):
        argv = [a.format(out=out) for a in op.inputs["argv"]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        if code != 0:
            raise CliExit(f"exit {code}: {stderr.getvalue().strip()}")
        return stdout.getvalue()

    def finish(self, op: Op, raw, out: Path):
        return raw, {o: (out / f).read_bytes() for o, f in op.inputs["files"].items()}

    def check(self, op: Op, output) -> str | None:
        stdout, files = output
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        if "json" in files and json.loads(files["json"]) != payload:
            return "--out file differs from stdout"
        try:
            return getattr(self, "_check_" + op.kind.replace("-", "_"))(op.inputs, payload, files)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed output: {exc!r}"

    @staticmethod
    def _trace_rows(files, iterations: int) -> str | None:
        rows = files["trace"].decode("utf-8").splitlines()
        if len(rows) != iterations + 2:
            return f"trace has {len(rows) - 1} rows, expected iterations + 1 = {iterations + 1}"
        return None

    def _check_regularize_plane(self, x, payload, files):
        it, converged = payload["iterations"], payload["converged"]
        z0, center = x["vertices"], x["center"]
        run = ref.Run(ref.circle_gaps(center, z0), ref.sphere_step(2), np.full(3, TWO_PI / 3), 1e-9, 200)
        if not run.accepts(converged, it):
            return f"converged={converged} iterations={it} disagree with direct stepping"
        final = [complex(a, b) for a, b in payload["final"]]
        if max(abs(abs(w - center) - x["radius"]) for w in final) > 1e-9 * x["radius"]:
            return "final triangle left the circumcircle"
        gaps = ref.circle_gaps(center, final)
        if converged and np.max(np.abs(gaps - TWO_PI / 3)) > 1e-9 + 1e-12:
            return "converged but final gaps are not within tol"
        if np.max(np.abs(gaps - run.at(it))) > 1e-9:
            return "final gaps differ from direct stepping"
        return self._trace_rows(files, it)

    def _check_regularize_sphere(self, x, payload, files):
        it = payload["iterations"]
        return _check_sphere(x, payload["converged"], it, payload["final"]) or self._trace_rows(files, it)

    def _check_hyperbolic_odd(self, x, payload, files):
        it = payload["iterations"]
        vertices = [complex(a, b) for a, b in payload["final_vertices"]]
        return (_check_hyperbolic(x, payload["converged"], it, payload["final_boundary"], vertices)
                or self._trace_rows(files, it))

    _check_hyperbolic_even = _check_hyperbolic_odd

    def _check_eigen(self, x, payload, files):
        lam = ref.eigenvalues(x["row"])
        got = np.array([complex(r["real"], r["imag"]) for r in payload])
        polar = np.array([r["modulus"] * complex(math.cos(r["angle"]), math.sin(r["angle"]))
                          for r in payload])
        if [r["index"] for r in payload] != list(range(len(lam))):
            return "eigenvalue indices are not 0..n-1"
        if not (_close(got, lam, 1e-9) and _close(polar, lam, 1e-9)):
            return "eigenvalues differ from the FFT of the first row"
        return None

    def _check_napoleon_plane(self, x, payload, files):
        apices, centers = ref.napoleon_plane(x["vertices"])
        scale = max(abs(w) for w in x["vertices"])
        got_a = [complex(a, b) for a, b in payload["apices"]]
        got_c = [complex(a, b) for a, b in payload["centers"]]
        if not (_close(got_a, apices, 1e-12 * scale) and _close(got_c, centers, 1e-12 * scale)):
            return "apices or centers differ from the closed form"
        return None

    def _check_napoleon_sphere(self, x, payload, files):
        if not _close(payload["vertices"], ref.napoleon_sphere(x["vertices"]), 1e-10):
            return "vertices differ from the chordal construction"
        return None

    def _check_fit(self, x, payload, files):
        axis, cos_radius = ref.fit_circle(x["points"])
        if not (_close(payload["axis"], axis, 1e-8) and abs(payload["cos_radius"] - cos_radius) <= 1e-9):
            return "fit differs from the least-squares plane"
        return None

    def _check_analyze(self, x, payload, files):
        a = x["matrix"]
        n = a.shape[0]
        lam = np.linalg.eigvals(a)
        rest = np.delete(lam, int(np.argmin(np.abs(lam - 1.0))))
        expected = dict(preserves_sum=True, fixes_regular=True,
                        attracting=bool(np.max(np.abs(rest)) < 1.0 - 1e-10))
        if any(payload[key] != value for key, value in expected.items()):
            return f"flags {payload} differ from {expected}"
        if n == 3:
            mu = rest[int(np.argmax(rest.imag))]
            if payload["jordan_class"] != "complex-rotation" or not _close(
                    payload["rotation_params"], [abs(mu), abs(np.angle(mu))], 1e-9):
                return "n=3 circulant is not reported as its rotation"
        elif payload["jordan_class"] != ("mixed" if np.max(np.abs(rest.imag)) > 1e-9 else "real-diagonal"):
            return f"jordan class {payload['jordan_class']} is wrong"
        return None

    def _check_table1(self, x, payload, files):
        expected = ref.table1_rows(x["seed"], TABLE1_K, 5, 0.005, 20)
        got = [(r["k"], r["trials"], r["mean_iterations"], r["capped_fraction"]) for r in payload]
        if got != expected:
            return "rows differ from direct stepping"
        if files["csv"] != ref.table1_csv(expected):
            return "CSV bytes differ from the reference rendering"
        return None


WORKLOADS = {w.name: w for w in (Table1, Regularize, Cli)}
