import csv
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyreg import circulant, cli, emit, euclid, experiment, hyperbolic, spherical
from polyreg.euclid import PlaneTriangle


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def reference_trace_records(steps, target):
    """One trace record per step: the per-step builder the block-wise
    emit.trace_rows replaced, kept as the byte reference."""
    target = np.asarray(target, dtype=float)
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
        yield record


def reference_write_trace(path, steps, target, fmt="csv"):
    """The per-record trace writer emit.write_trace replaced."""
    records = reference_trace_records(steps, target)
    columns = emit.trace_columns(len(target))
    with path.open("w", newline="", encoding="utf-8") as handle:
        if fmt == "json":
            encoder = json.JSONEncoder(indent=2, allow_nan=False)
            separator = "[\n  "
            for record in records:
                handle.write(separator + encoder.encode(record).replace("\n", "\n  "))
                separator = ",\n  "
            handle.write("[]\n" if separator == "[\n  " else "\n]\n")
            return
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for record in records:
            writer.writerow([record[c] for c in columns])


# recursive JSON values as cli payloads hold them: str keys, lists and tuples,
# any text (non-ASCII and control characters), big ints, finite floats
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=40,
)


class TestEmit:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_dumps_is_json_dumps_indent_2(self, value):
        assert emit.dumps(value) == json.dumps(value, indent=2, allow_nan=False)

    @pytest.mark.parametrize(
        "value",
        [-0.0, 5e-324, 1e16, 1e22, np.float64(0.1), [0, True, False, None], [], {}, (),
         [[], {}, ()], {"a": [], "b": {}, "c": ((),)}],
        ids=["minus-zero", "subnormal", "1e16", "1e22", "np-float64", "bools-in-list",
             "empty-list", "empty-dict", "empty-tuple", "nested-empty-list", "nested-empty-dict"],
    )
    def test_dumps_named_cases(self, value):
        assert emit.dumps(value) == json.dumps(value, indent=2, allow_nan=False)

    @pytest.mark.parametrize(
        "value, error",
        [(math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError),
         ([1.0, {"x": np.float64(math.inf)}], ValueError), (object(), TypeError),
         (np.int64(3), TypeError), ({"a": [object()]}, TypeError)],
        ids=["nan", "inf", "-inf", "nested-np-inf", "object", "np-int64", "nested-object"],
    )
    def test_dumps_raises_as_json_does(self, value, error):
        with pytest.raises(error) as want:
            json.dumps(value, indent=2, allow_nan=False)
        with pytest.raises(error) as got:
            emit.dumps(value)
        assert str(got.value) == str(want.value)

    def test_trace_rows_include_step_zero(self):
        history = [np.array([1.0, 2.0, 3.0]), np.array([1.5, 2.0, 2.5]),
                   np.array([1.75, 2.0, 2.25]), np.array([1.9, 2.0, 2.1])]
        rows = list(emit.trace_rows(history, np.full(3, 2.0)))
        columns = emit.trace_columns(3)
        assert len(rows) == 4
        assert rows[0][columns.index("iteration")] == 0
        assert rows[0][columns.index("deviation_max")] == 1.0
        assert rows[0][columns.index("v_0")] == 1.0

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit.write_records(path, [], ["a", "b"], "csv")
        assert path.read_text() == "a,b\n"

    def test_json_round_trip(self, tmp_path):
        records = [{"k": 2, "mean_iterations": 7.25}]
        path = tmp_path / "rows.json"
        emit.write_records(path, records, ["k", "mean_iterations"], "json")
        assert json.loads(path.read_text()) == records
        three = [{"k": 2, "rows": [[0.1, -0.0]]}, {}, {"k": 4, "name": "a\nb"}]
        for rows in ([], three):
            emit.write_records(path, iter(rows), ["k"], "json")
            assert path.read_text() == json.dumps(rows, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", emit.FORMATS)
    def test_trace_written_in_bounded_memory(self, tmp_path, fmt):
        rng = np.random.default_rng(5)
        gaps = rng.dirichlet(np.ones(16)) * 2 * math.pi
        run = circulant.iterate(spherical.step_spec(16, 2), gaps, np.full(16, math.pi / 8), 1e-12, 10**6)
        assert run.converged and run.iterations >= 1000
        # a wide run: one step per block of trace rows
        gaps = rng.dirichlet(np.ones(1024)) * 2 * math.pi
        wide = circulant.iterate(spherical.step_spec(1024, 2), gaps, np.full(1024, math.pi / 512), 1e-12, 199)
        assert wide.iterations == 199
        for traced in (run, wide):
            path = tmp_path / f"trace.{fmt}"
            tracemalloc.start()
            try:
                emit.write_trace(path, traced.steps(), traced.target, fmt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6
            assert len(path.read_text().splitlines()) > traced.iterations

    @pytest.mark.parametrize("fmt", emit.FORMATS)
    @pytest.mark.parametrize("n", [3, 16, 1024])
    def test_trace_byte_identical_at_block_boundaries(self, tmp_path, n, fmt):
        block = max(1, 1024 // n)
        rng = np.random.default_rng(n)
        spec, target = spherical.step_spec(n, 3), np.full(n, 2 * math.pi / n)
        steps = [rng.dirichlet(np.ones(n)) * 2 * math.pi]
        for _ in range(2 * block):
            steps.append(circulant.apply(spec, steps[-1]))
        for count in sorted({1, block - 1, block, block + 1, 2 * block + 1}):
            got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
            emit.write_trace(got, iter(steps[:count]), target, fmt)
            reference_write_trace(want, steps[:count], target, fmt)
            assert got.read_bytes() == want.read_bytes(), count

    def test_numpy_float_written_as_repr(self, tmp_path):
        path = tmp_path / "np.csv"
        emit.write_records(path, [{"a": np.float64(0.1)}], ["a"], "csv")
        assert path.read_text() == "a\n0.1\n"
        # edge numbers: the bytes csv.writer writes for the same row
        row = [0, -7, np.int64(3), -0.0, 5e-324, 1e-300, 0.1, 1 / 3, 1e16, 1e22,
               math.nan, math.inf, -math.inf, np.float64(0.1)]
        columns = [f"c_{i}" for i in range(len(row))]
        emit.write_records(path, [dict(zip(columns, row))], columns, "csv")
        want = tmp_path / "want.csv"
        with want.open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows([columns, row])
        assert path.read_bytes() == want.read_bytes()

    def test_csv_write_peak_memory(self, tmp_path):
        """A CSV write holds a row at a time: no fixed buffer far larger
        than the rows themselves."""
        config = experiment.ExperimentConfig((2, 3, 4, 5), 20, 0.005, 20, 0)
        records = emit.experiment_records(experiment.run_table1(config))
        rng = np.random.default_rng(5)  # the long run of test_trace_written_in_bounded_memory
        gaps = rng.dirichlet(np.ones(16)) * 2 * math.pi
        run = circulant.iterate(spherical.step_spec(16, 2), gaps, np.full(16, math.pi / 8), 1e-12, 10**6)
        assert run.iterations == 1364
        writes = [
            (32_000, lambda path: emit.write_records(path, records, list(emit.EXPERIMENT_COLUMNS), "csv")),
            (160_000, lambda path: emit.write_trace(path, run.steps(), run.target, "csv")),
        ]
        for bound, write in writes:
            tracemalloc.start()
            try:
                write(tmp_path / "out.csv")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit.write_records(tmp_path / "x", [], ["a"], "yaml")


class TestRegularizeCommand:
    def test_plane(self, capsys, tmp_path):
        inp = write_json(tmp_path / "t.json", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        trace = tmp_path / "trace.csv"
        code, out = run_cli(
            capsys, "regularize", "--geometry", "plane", "--input", inp,
            "--tol", "1e-8", "--max-iter", "100", "--trace", str(trace),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["converged"] is True
        lines = trace.read_text().splitlines()
        assert lines[0] == "iteration,deviation_max,deviation_l2,v_0,v_1,v_2"
        assert len(lines) == summary["iterations"] + 2

    def test_plane_k3_steps_like_the_two_thirds_circulant(self, capsys, tmp_path):
        vertices = [[0.3, 0.1], [-2.0, 0.5], [0.7, -1.9]]
        inp = write_json(tmp_path / "t.json", vertices)
        code, out = run_cli(capsys, "regularize", "--geometry", "plane", "--input", inp,
                            "--k", "3", "--tol", "1e-9", "--max-iter", "200")
        assert code == 0
        summary = json.loads(out)
        gaps = euclid.circle_frame(PlaneTriangle(tuple(complex(x, y) for x, y in vertices)))[3]
        spec, steps = circulant.CirculantSpec((2 / 3, 1 / 3, 0.0)), 0
        while np.max(np.abs(gaps - 2 * math.pi / 3)) >= 1e-9:
            gaps, steps = circulant.apply(spec, gaps), steps + 1
        assert summary["converged"] is True
        assert summary["iterations"] == steps > 0

    def test_sphere(self, capsys, tmp_path):
        s = math.sin(0.7)
        c = math.cos(0.7)
        pts = [[s, 0.0, c], [-s, 0.0, c], [0.0, -s, c]]
        inp = write_json(tmp_path / "s.json", pts)
        code, out = run_cli(
            capsys, "regularize", "--geometry", "sphere", "--input", inp,
            "--k", "2", "--tol", "1e-9", "--max-iter", "100",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["converged"] is True
        final = np.asarray(summary["final"])
        assert np.allclose(np.linalg.norm(final, axis=1), 1.0, atol=1e-9)

    def test_sphere_long_run_decodes_drifted_gap_sum(self, capsys, tmp_path):
        # each k=3 step moves the gap sum by ~4e-16; after 300 000 steps it is
        # off by more than a caller-built CyclicFrame accepts (1e-10), and the
        # decode must not re-validate the run's own gaps against that bound
        gaps = np.random.default_rng(0).dirichlet(np.ones(200)) * 2 * math.pi
        frame = spherical.CyclicFrame(axis=np.array([0.0, 0.0, 1.0]), cos_radius=0.3, gaps=gaps)
        inp = write_json(tmp_path / "s.json", spherical.from_cyclic_frame(frame).vertices.tolist())
        code, out = run_cli(
            capsys, "regularize", "--geometry", "sphere", "--input", inp,
            "--k", "3", "--tol", "1e-14", "--max-iter", "300000",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["converged"] is False and summary["iterations"] == 300000
        final = np.asarray(summary["final"])
        assert np.max(np.abs(np.linalg.norm(final, axis=1) - 1.0)) <= 1e-9
        assert np.max(np.abs(final[:, 2] - 0.3)) <= 1e-9

    def test_hyperbolic(self, capsys, tmp_path):
        inp = write_json(tmp_path / "h.json", [0.0, 0.3, 0.4, 0.6, 0.7, 0.9])
        trace = tmp_path / "trace.json"
        code, out = run_cli(
            capsys, "regularize", "--geometry", "hyperbolic", "--input", inp,
            "--tol", "1e-9", "--max-iter", "200",
            "--trace", str(trace), "--format", "json",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["converged"] is True
        assert summary["final_boundary"][0] == 0.0
        records = json.loads(trace.read_text())
        assert records[0]["iteration"] == 0
        assert len(records) == summary["iterations"] + 1

    def test_plane_matches_direct_stepping(self, capsys, tmp_path):
        rng = np.random.default_rng(41)
        for trial in range(5):
            zs = rng.normal(size=3) + 1j * rng.normal(size=3)
            if ((zs[1] - zs[0]).conjugate() * (zs[2] - zs[0])).imag < 0:
                zs = zs[::-1]
            inp = write_json(tmp_path / f"t{trial}.json", [[z.real, z.imag] for z in zs])
            code, out = run_cli(capsys, "regularize", "--geometry", "plane", "--input", inp)
            assert code == 0
            summary = json.loads(out)
            gaps = euclid.angle_gaps(PlaneTriangle(tuple(zs)))[2]
            steps = 0
            while np.max(np.abs(gaps - 2 * math.pi / 3)) >= 1e-9 and steps < 200:
                gaps = (gaps + np.roll(gaps, -1)) / 2
                steps += 1
            assert summary["converged"] is True
            assert summary["iterations"] == steps
            final = PlaneTriangle(tuple(complex(x, y) for x, y in summary["final"]))
            assert np.allclose(euclid.angle_gaps(final)[2], gaps, atol=1e-9)

    def test_plane_clockwise_converges_to_equilateral(self, capsys, tmp_path):
        # the mirror image of TRIANGLE: same circumcircle, clockwise order
        inp = write_json(tmp_path / "cw.json", [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        code, out = run_cli(capsys, "regularize", "--geometry", "plane", "--input", inp)
        assert code == 0
        summary = json.loads(out)
        assert summary["converged"] is True
        mirror = write_json(tmp_path / "ccw.json", TRIANGLE)
        assert summary["iterations"] == json.loads(
            run_cli(capsys, "regularize", "--geometry", "plane", "--input", mirror)[1]
        )["iterations"]
        final = PlaneTriangle(tuple(complex(x, y) for x, y in summary["final"]))
        assert abs(euclid.equilateral_defect(final)) < 1e-8
        for z in final.vertices:
            assert abs(z - (0.5 + 0.5j)) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert euclid.circle_frame(final)[2] == -1

    def test_hyperbolic_even_n(self, capsys, tmp_path):
        # points i and i+n end up nearly antipodal; this used to divide by zero
        inp = write_json(tmp_path / "h4.json", [0.0, 0.1, 0.25, 0.3, 0.5, 0.65, 0.7, 0.9])
        code, out = run_cli(capsys, "regularize", "--geometry", "hyperbolic", "--input", inp)
        assert code == 0
        summary = json.loads(out)
        assert summary["converged"] is True
        assert len(summary["final_vertices"]) == 4

    def test_missing_input_is_error(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "regularize", "--geometry", "plane", "--input",
            str(tmp_path / "nope.json"),
        )
        assert code == 2


TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
HEXAGON = [0.0, 0.3, 0.4, 0.6, 0.7, 0.9]
SPHERE_TRIANGLE = [[0.6, 0.0, 0.8], [-0.6, 0.0, 0.8], [0.0, -0.6, 0.8]]


@pytest.mark.parametrize(
    "payload, argv",
    [
        ([[1], [2], [3]], ["regularize", "--geometry", "plane", "--input"]),
        ([[1], [2], [3]], ["napoleon", "--geometry", "plane", "--input"]),
        ([[1], [2], [3]], ["regularize", "--geometry", "hyperbolic", "--input"]),
        ([[0.5, 0.5], [0.0, 0.0]], ["eigen", "--spec"]),
        ({"rows": [[1.0, 0.0], [0.0, 1.0]]}, ["analyze", "--matrix"]),
        (TRIANGLE, ["regularize", "--max-iter", "-1", "--geometry", "plane", "--input"]),
        (SPHERE_TRIANGLE, ["regularize", "--max-iter", "-1", "--geometry", "sphere", "--input"]),
        (HEXAGON, ["regularize", "--max-iter", "-1", "--geometry", "hyperbolic", "--input"]),
        (TRIANGLE, ["regularize", "--tol", "nan", "--geometry", "plane", "--input"]),
        (HEXAGON, ["regularize", "--tol", "nan", "--geometry", "hyperbolic", "--input"]),
        ([1e308, 1e308], ["eigen", "--spec"]),
        ([[1e200, 0], [0, 1e200], [-1e200, 0]], ["regularize", "--geometry", "plane", "--input"]),
        ([[1e308, 1e308], [1e308, 1e308]], ["analyze", "--matrix"]),
        ([[1e200, 0, 0], [0, 1, 0], [0, 0, 1]], ["regularize", "--geometry", "sphere", "--input"]),
        (SPHERE_TRIANGLE + [[0.0, 0.6, 0.8]], ["napoleon", "--geometry", "sphere", "--input"]),
        (HEXAGON, ["regularize", "--k", "3", "--geometry", "hyperbolic", "--input"]),
        ("[" * 100_000 + "]" * 100_000, ["eigen", "--spec"]),
        (["1", "2"], ["eigen", "--spec"]),
        ([True, False, True], ["eigen", "--spec"]),
        ([["0.6", "0", "0.8"]] + SPHERE_TRIANGLE[1:], ["regularize", "--geometry", "sphere", "--input"]),
    ],
    ids=["plane-column", "napoleon-column", "hyperbolic-column", "eigen-nested",
         "analyze-object", "plane-max-iter", "sphere-max-iter", "hyperbolic-max-iter",
         "plane-tol-nan", "hyperbolic-tol-nan", "eigen-overflow", "plane-overflow",
         "analyze-overflow", "sphere-overflow", "napoleon-sphere-four", "hyperbolic-k3",
         "deep-json", "eigen-strings", "eigen-bools", "sphere-strings"],
)
def test_malformed_input_exits_2_with_error(capsys, tmp_path, payload, argv):
    path = tmp_path / "in.json"
    if isinstance(payload, str):  # raw JSON text, for documents json.dumps cannot write
        path.write_text(payload, encoding="utf-8")
    else:
        write_json(path, payload)
    code = cli.main(argv + [str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("fmt", emit.FORMATS)
def test_eigen_overflow_leaves_out_untouched(capsys, tmp_path, fmt):
    inp = write_json(tmp_path / "spec.json", [1e308, 1e308])
    fresh, kept = tmp_path / f"fresh.{fmt}", tmp_path / f"kept.{fmt}"
    kept.write_bytes(b"earlier output\n")
    for out in (fresh, kept):
        code = cli.main(["eigen", "--spec", inp, "--out", str(out), "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.err.startswith("error:") and captured.out == ""
    assert not fresh.exists()
    assert kept.read_bytes() == b"earlier output\n"


class TestParserReuse:
    def test_format_does_not_carry_over(self, capsys, tmp_path):
        inp = write_json(tmp_path / "spec.json", [0.5, 0.5, 0.0])
        a, b = tmp_path / "a.csv", tmp_path / "b.json"
        assert run_cli(capsys, "eigen", "--spec", inp, "--out", str(a), "--format", "csv")[0] == 0
        code, out = run_cli(capsys, "eigen", "--spec", inp, "--out", str(b))
        assert code == 0
        assert a.read_text().startswith("index,real,imag,modulus,angle\n")
        assert json.loads(b.read_text()) == json.loads(out)

    def test_trace_does_not_carry_over(self, capsys, tmp_path):
        inp = write_json(tmp_path / "t.json", TRIANGLE)
        trace = tmp_path / "t.csv"
        base = ["regularize", "--geometry", "plane", "--input", inp]
        assert run_cli(capsys, *base, "--trace", str(trace))[0] == 0
        trace.unlink()
        assert run_cli(capsys, *base)[0] == 0
        assert list(tmp_path.iterdir()) == [tmp_path / "t.json"]

    def test_usage_error_leaves_parser_usable(self, capsys, tmp_path):
        inp = write_json(tmp_path / "t.json", TRIANGLE)
        argv = ["regularize", "--geometry", "plane", "--input", inp]
        first = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            cli.main(["regularize", "--geometry", "plane", "--k", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, *argv) == first

    def test_parser_built_once(self, capsys, tmp_path):
        inp = write_json(tmp_path / "spec.json", [0.5, 0.5, 0.0])
        cli.build_parser.cache_clear()
        for _ in range(3):
            assert run_cli(capsys, "eigen", "--spec", inp)[0] == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestEigenCommand:
    def test_stdout_spectrum(self, capsys, tmp_path):
        inp = write_json(tmp_path / "spec.json", [0.5, 0.5, 0.0])
        code, out = run_cli(capsys, "eigen", "--spec", inp)
        assert code == 0
        records = json.loads(out)
        assert records[0] == {"index": 0, "real": 1.0, "imag": 0.0, "modulus": 1.0, "angle": 0.0}
        assert records[1]["modulus"] == pytest.approx(0.5, abs=1e-14)

    def test_polar_fields(self, capsys, tmp_path):
        inp = write_json(tmp_path / "spec.json", [0.5, 0.5, 0.0])
        for record in json.loads(run_cli(capsys, "eigen", "--spec", inp)[1]):
            assert record["modulus"] == pytest.approx(abs(complex(record["real"], record["imag"])), abs=1e-16)
            assert -math.pi < record["angle"] <= math.pi

    def test_minus_one_at_angle_pi(self, capsys, tmp_path):
        # the eigenvalue -1 of a swap and of the 4-cycle shift sits at +pi,
        # never at -pi from a -0.0 imaginary part
        for coeffs, j in (([0.0, 1.0], 1), ([0.0, 1.0, 0.0, 0.0], 2)):
            inp = write_json(tmp_path / "spec.json", coeffs)
            record = json.loads(run_cli(capsys, "eigen", "--spec", inp)[1])[j]
            assert (record["real"], record["imag"]) == (-1.0, 0.0)
            assert record["angle"] == math.pi

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
    def test_indices_count_up(self, capsys, tmp_path, n):
        row = np.random.default_rng(n).dirichlet(np.ones(n)).tolist()
        inp = write_json(tmp_path / "spec.json", row)
        records = json.loads(run_cli(capsys, "eigen", "--spec", inp)[1])
        assert [r["index"] for r in records] == list(range(n))

    def test_csv_output(self, capsys, tmp_path):
        inp = write_json(tmp_path / "spec.json", [0.5, 0.0, 0.5, 0.0, 0.0, 0.0])
        out_path = tmp_path / "eigen.csv"
        code, _ = run_cli(capsys, "eigen", "--spec", inp, "--out", str(out_path), "--format", "csv")
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "index,real,imag,modulus,angle"
        assert len(lines) == 7


class TestNapoleonCommand:
    def test_plane(self, capsys, tmp_path):
        inp = write_json(tmp_path / "t.json", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        code, out = run_cli(capsys, "napoleon", "--geometry", "plane", "--input", inp)
        assert code == 0
        payload = json.loads(out)
        assert payload["apices"][0] == pytest.approx([0.5, -math.sqrt(3) / 2], abs=1e-12)
        assert len(payload["centers"]) == 3

    def test_sphere_equilateral(self, capsys, tmp_path):
        s, c = math.sin(0.7), math.cos(0.7)
        pts = [
            [s * math.cos(2 * math.pi * j / 3), s * math.sin(2 * math.pi * j / 3), c]
            for j in range(3)
        ]
        inp = write_json(tmp_path / "s.json", pts)
        code, out = run_cli(capsys, "napoleon", "--geometry", "sphere", "--input", inp)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["vertices"]) == 3


class TestFitCommand:
    def test_recovers_axis(self, capsys, tmp_path):
        s, c = math.sin(0.7), math.cos(0.7)
        pts = [
            [s * math.cos(a), s * math.sin(a), c]
            for a in (0.1, 1.0, 2.2, 3.3, 4.8)
        ]
        inp = write_json(tmp_path / "pts.json", pts)
        code, out = run_cli(capsys, "fit", "--input", inp)
        assert code == 0
        payload = json.loads(out)
        assert payload["axis"] == pytest.approx([0.0, 0.0, 1.0], abs=1e-9)
        assert payload["cos_radius"] == pytest.approx(c, abs=1e-12)


class TestAnalyzeCommand:
    def test_rotation_report(self, capsys, tmp_path):
        mat = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
        inp = write_json(tmp_path / "m.json", mat)
        code, out = run_cli(capsys, "analyze", "--matrix", inp)
        assert code == 0
        payload = json.loads(out)
        assert payload["jordan_class"] == "complex-rotation"
        assert payload["rotation_params"][0] == pytest.approx(0.5, abs=1e-12)
        assert payload["rotation_params"][1] == pytest.approx(math.pi / 3, abs=1e-12)


class TestExperimentCommand:
    def test_table1_csv(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, out = run_cli(
            capsys, "experiment", "table1", "--k", "2,3", "--trials", "10",
            "--tol", "0.005", "--cap", "20", "--seed", "4", "--out", str(out_path),
            "--format", "csv",
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "k,trials,mean_iterations,capped_fraction"
        assert len(lines) == 3
        records = json.loads(out)
        assert [r["k"] for r in records] == [2, 3]


# sha256 of `experiment table1 --seed S --sampler X --out t.csv` at the CLI
# defaults, seeds 0-9: how a trial reaches its frame must not move a byte.
TABLE1_CSV_SHA256 = {
    "sphere": [
        "f9f1717f0d9966aaebb97a290bcef8d4aac17949ca9efd19cd8e8ec53d72e11e",
        "d1199a4ba057ff52acad5987ad20badd3c55bbc40f680f038e4b2ce965392795",
        "c5a1b08bccc42b017ed1f410374f577461bd19f94d16e54f7f07e1c1edbeb1a0",
        "3b4ca352f95752080aa2acfd7ef52b22c35e1b2b37d05d5bd8ce06788e5118d0",
        "ee18baba45eb88e6a0ac35ee51962a3a151e10e4acac23314204f9dbca9311ca",
        "fc25b6ed7bebf8a1b6f27195469f316c2c2de89be0d8ccbcc52d2cebf2bfe921",
        "a17fd4216ad983124534455b6f2c0398f0399bc8ae86aa2577c5a6e18e45129b",
        "bdc8a6385b80e59877dc718fd690aca2328ef2e0dc3f636263e3bdb61021a4bc",
        "7a04aa67177da836db6ece6961a5e277ee93e1ff45b705a356105cd9b11127e4",
        "65a1a6da39893a5a34d9bd2ef3c1132b06eee2bd4707e9e335ce2e9db016ce6f",
    ],
    "cube": [
        "bd8c5a57d53659d194134228644604f3981f6954a7aff7243f2e9de66b9b188e",
        "eaaa26384b917ed9793bd171a9ead1364dc8ed3792cb10b28925b39359b38ed7",
        "77c10f11e23d4b03010805fdc756e20aea3e4cae51ae8c18928f6499a3fa122e",
        "21d32daf78751dcb3e33fdc14cca0afd0962365358f64828c1c11ffb52da6e41",
        "f54a2c580a7150bb845124c08c583db292674133424534cccd2a1146abdd956c",
        "b41f398374e15aa616483a2bdb64483ab54cd892887708d90fb3103362459276",
        "ca915da9286f17d20f581ad810633fc0bf1dd626699b415d038d990ea2947cf4",
        "ad0e2c236d1ed6a956267f97878cd984409e5552c16593aa965b3eba1aa902f6",
        "0a84e87547887641339cefff10ec7b3b55966597976856cfaaba617e9b44c52a",
        "f3c92298e481a5338909a9949eee90fa50a076f982a22c44355aa69cc284d8f4",
    ],
}


class TestDeterminism:
    @pytest.mark.parametrize("sampler", sorted(TABLE1_CSV_SHA256))
    def test_table1_csv_pinned(self, capsys, tmp_path, sampler):
        path = tmp_path / "t.csv"
        digests = []
        for seed in range(10):
            args = ["experiment", "table1", "--seed", str(seed), "--sampler", sampler, "--out", str(path)]
            assert run_cli(capsys, *args)[0] == 0
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests == TABLE1_CSV_SHA256[sampler]

    def test_table1_byte_identical(self, capsys, tmp_path):
        args = [
            "experiment", "table1", "--k", "2,3", "--trials", "15", "--tol", "0.005",
            "--cap", "20", "--seed", "31415", "--format", "csv",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "geometry, payload",
        [("plane", TRIANGLE), ("sphere", SPHERE_TRIANGLE), ("hyperbolic", HEXAGON)],
        ids=["plane", "sphere", "hyperbolic"],
    )
    def test_trace_byte_identical(self, capsys, tmp_path, geometry, payload):
        inp = write_json(tmp_path / "in.json", payload)
        a, b, direct = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "direct.csv"
        base = ["regularize", "--geometry", geometry, "--input", inp, "--tol", "1e-9"]
        code, out = run_cli(capsys, *base, "--trace", str(a))
        assert code == 0
        assert run_cli(capsys, *base, "--trace", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        # the replayed trace equals a direct chain of circulant.apply
        if geometry == "plane":
            gaps = euclid.circle_frame(PlaneTriangle(tuple(complex(x, y) for x, y in payload)))[3]
            spec, target = spherical.step_spec(3, 2), np.full(3, 2 * math.pi / 3)
        elif geometry == "sphere":
            gaps = spherical.to_cyclic_frame(spherical.SphericalPolygon(payload)).gaps
            spec, target = spherical.step_spec(3, 2), np.full(3, 2 * math.pi / 3)
        else:
            gaps = hyperbolic.gaps_from_points(hyperbolic.BoundaryPoints(tuple(payload)))
            spec, target = hyperbolic.gap_step_spec(6), hyperbolic.limit_gaps(gaps)
        steps = [gaps]
        for _ in range(json.loads(out)["iterations"]):
            steps.append(circulant.apply(spec, steps[-1]))
        reference_write_trace(direct, steps, target)
        assert a.read_bytes() == direct.read_bytes()


EIGEN_ROW_256 = np.random.default_rng(256).dirichlet(np.ones(256)).tolist()


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["regularize", "--geometry", "plane", "--input"], TRIANGLE),
        (["regularize", "--geometry", "sphere", "--input"], SPHERE_TRIANGLE),
        (["regularize", "--geometry", "hyperbolic", "--input"], HEXAGON),
        (["eigen", "--spec"], EIGEN_ROW_256),
        (["napoleon", "--geometry", "plane", "--input"], TRIANGLE),
        (["napoleon", "--geometry", "sphere", "--input"], SPHERE_TRIANGLE),
        (["fit", "--input"], SPHERE_TRIANGLE + [[0.0, 0.6, 0.8]]),
        (["analyze", "--matrix"], [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        (["experiment", "table1", "--trials", "4", "--format", "json", "--k"], None),
    ],
    ids=["regularize-plane", "regularize-sphere", "regularize-hyperbolic", "eigen-256",
         "napoleon-plane", "napoleon-sphere", "fit", "analyze", "table1"],
)
def test_stdout_is_json_dumps_indent_2(capsys, tmp_path, argv, payload):
    """Every subcommand prints the bytes json.dumps(..., indent=2) gives
    its payload, plus a newline."""
    source = "2,3" if payload is None else write_json(tmp_path / "in.json", payload)
    code, out = run_cli(capsys, *argv, source)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestOutFile:
    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["eigen", "--spec"], [0.5, 0.25, 0.0, 0.25]),
            (["napoleon", "--geometry", "plane", "--input"], TRIANGLE),
            (["napoleon", "--geometry", "sphere", "--input"], SPHERE_TRIANGLE),
            (["fit", "--input"], SPHERE_TRIANGLE + [[0.0, 0.6, 0.8]]),
            (["analyze", "--matrix"], [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
            (["experiment", "table1", "--trials", "4", "--format", "json", "--k"], None),
        ],
        ids=["eigen", "napoleon-plane", "napoleon-sphere", "fit", "analyze", "table1"],
    )
    def test_json_out_is_stdout(self, capsys, tmp_path, argv, payload):
        source = "2,3" if payload is None else write_json(tmp_path / "in.json", payload)
        out_path = tmp_path / "out.json"
        code, out = run_cli(capsys, *argv, source, "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize(
        "argv, columns",
        [
            (["eigen", "--spec", "{input}"], ["index", "real", "imag", "modulus", "angle"]),
            (["experiment", "table1", "--trials", "4", "--k", "2,3"], list(emit.EXPERIMENT_COLUMNS)),
        ],
        ids=["eigen", "table1"],
    )
    def test_csv_out_renders_stdout_records(self, capsys, tmp_path, argv, columns):
        inp = write_json(tmp_path / "in.json", [0.5, 0.25, 0.0, 0.25])
        out_path = tmp_path / "out.csv"
        argv = [a.format(input=inp) for a in argv]
        code, out = run_cli(capsys, *argv, "--out", str(out_path), "--format", "csv")
        assert code == 0
        lines = [",".join(columns)] + [
            ",".join(repr(record[c]) for c in columns) for record in json.loads(out)
        ]
        assert out_path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"
