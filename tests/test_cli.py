import json
import math
import tracemalloc

import numpy as np
import pytest

from polyreg import circulant, cli, emit, euclid, hyperbolic, spherical
from polyreg.euclid import PlaneTriangle


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestEmit:
    def test_trace_rows_include_step_zero(self):
        history = [np.array([1.0, 2.0, 3.0]), np.array([1.5, 2.0, 2.5]),
                   np.array([1.75, 2.0, 2.25]), np.array([1.9, 2.0, 2.1])]
        records = list(emit.trace_records(history, np.full(3, 2.0)))
        assert len(records) == 4
        assert records[0]["iteration"] == 0
        assert records[0]["deviation_max"] == 1.0
        assert records[0]["v_0"] == 1.0

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
        gaps = np.random.default_rng(5).dirichlet(np.ones(16)) * 2 * math.pi
        run = circulant.iterate(spherical.step_spec(16, 2), gaps, np.full(16, math.pi / 8), 1e-12, 10**6)
        assert run.converged and run.iterations >= 1000
        path = tmp_path / f"trace.{fmt}"
        tracemalloc.start()
        try:
            emit.write_records(path, emit.trace_records(run.steps(), run.target), emit.trace_columns(16), fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert len(path.read_text().splitlines()) > run.iterations

    def test_numpy_float_written_as_repr(self, tmp_path):
        path = tmp_path / "np.csv"
        emit.write_records(path, [{"a": np.float64(0.1)}], ["a"], "csv")
        assert path.read_text() == "a\n0.1\n"

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
    ],
    ids=["plane-column", "napoleon-column", "hyperbolic-column", "eigen-nested",
         "analyze-object", "plane-max-iter", "sphere-max-iter", "hyperbolic-max-iter",
         "plane-tol-nan", "hyperbolic-tol-nan", "eigen-overflow", "plane-overflow",
         "analyze-overflow", "sphere-overflow", "napoleon-sphere-four", "hyperbolic-k3"],
)
def test_malformed_input_exits_2_with_error(capsys, tmp_path, payload, argv):
    code = cli.main(argv + [write_json(tmp_path / "in.json", payload)])
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


class TestDeterminism:
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
        emit.write_records(direct, emit.trace_records(steps, target), emit.trace_columns(len(gaps)))
        assert a.read_bytes() == direct.read_bytes()
