import json
import re
import shlex
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusflow import (
    EventThresholds,
    PeriodicCurve,
    ScenarioResult,
    experiments,
    interpolate,
    run,
    run_scenario,
    torus_circle,
)
from torusflow.cli import (
    _build_parser,
    main,
    read_snapshot_csv,
    write_evolution_bundle,
    write_snapshot_csv,
    write_surface_obj,
)

from oracles import loop_surface_obj, random_admissible_positions

README = Path(__file__).resolve().parent.parent / "README.md"


def small_curve():
    return interpolate(torus_circle(0.6), 8)


@pytest.fixture(scope="module")
def result():
    return run_scenario("torus:0.6", "bdf1", 16, 1e-3, 0.01, snapshot_times=(0.0, 0.01))


@pytest.fixture(scope="module")
def bdf2_result():
    return run_scenario("rose", "bdf2", 24, 1e-3, 0.01, snapshot_times=(0.0, 0.005, 0.01))


class TestSnapshotCsv:
    def test_round_trip_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        curve = small_curve()
        write_snapshot_csv(first, curve)
        back = read_snapshot_csv(first)
        assert np.array_equal(back.positions, curve.positions)
        write_snapshot_csv(second, back)
        assert first.read_bytes() == second.read_bytes()

    def test_header_and_row_layout(self, tmp_path):
        path = tmp_path / "c.csv"
        write_snapshot_csv(path, PeriodicCurve(np.array([[1.5, 0.0], [2.0, 0.25], [1.0, -1.0]])))
        lines = path.read_text().splitlines()
        assert lines[0] == "j,r,z"
        assert lines[1] == "0,1.5,0.0"
        assert lines[2] == "1,2.0,0.25"
        assert len(lines) == 4

    def test_read_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError):
            read_snapshot_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("j,r,z\n0,1.5,0.0\n1,2.0\n",
             "line 3: not enough values to unpack (expected 3, got 2)"),
            ("j,r,z\n0,1.5,0.0\n1,abc,0.0\n",
             "line 3: could not convert string to float: 'abc'"),
            ("j,r,z\n0,1.5,0.0\n1,2.0,0.25,7\n", "line 3: too many values to unpack"),
            ("j,r,z\n1,1.5,0.0\n0,2.0,0.25\n2,1.0,-1.0\n", "line 2: expected j = 0, got 1"),
            ("j,r,z\n0,1.5,0.0\n1,2.0,0.25\n1,1.0,-1.0\n", "line 4: expected j = 2, got 1"),
            ("j,r,z\n", "no rows after the header"),
            ("j,r,z\n0,1.5,0.0\n1,nan,0.25\n2,1.0,-1.0\n", "line 3: r and z must be finite"),
            ("j,r,z\n0,1.5,0.0\n1,2.0,0.25\n2,1.0,-inf\n", "line 4: r and z must be finite"),
            ("j,r,z\n0,1.5,0.0\n1,2.0,0.25\n", "a closed polygon needs at least 3 nodes, got 2"),
        ],
        ids=[
            "short-row", "non-number", "long-row", "j-out-of-order", "j-repeated", "header-only",
            "nan", "inf", "two-rows",
        ],
    )
    def test_read_names_file_and_line_of_bad_rows(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_snapshot_csv(path)
        assert str(info.value).startswith(f"{path}")
        assert message in str(info.value)


class TestSurfaceObj:
    def test_mesh_counts_and_index_range(self, tmp_path):
        path = tmp_path / "m.obj"
        J, segments = 8, 12
        write_surface_obj(path, small_curve(), segments=segments)
        verts, faces = [], []
        for line in path.read_text().splitlines():
            kind, *rest = line.split()
            if kind == "v":
                verts.append([float(x) for x in rest])
            else:
                assert kind == "f"
                faces.append([int(x) for x in rest])
        assert len(verts) == J * segments
        assert len(faces) == 2 * J * segments
        flat = [i for face in faces for i in face]
        assert min(flat) == 1 and max(flat) == J * segments
        # a closed torus grid: every undirected edge is shared by two faces
        edges = set()
        for a, b, c in faces:
            for u, v in ((a, b), (b, c), (c, a)):
                edges.add((min(u, v), max(u, v)))
        assert len(edges) == 3 * J * segments

    def test_vertices_lie_on_revolved_circles(self, tmp_path):
        path = tmp_path / "m.obj"
        curve = small_curve()
        segments = 6
        write_surface_obj(path, curve, segments=segments)
        rows = [
            [float(x) for x in line.split()[1:]]
            for line in path.read_text().splitlines()
            if line.startswith("v ")
        ]
        for j in range(curve.node_count):
            r, z = curve.positions[j]
            for k in range(segments):
                x, y, w = rows[j * segments + k]
                assert np.hypot(x, w) == pytest.approx(r, abs=1e-12)
                assert y == z

    @pytest.mark.parametrize("segments", [3, 4, 7, 64])
    def test_bytes_match_loop_writer(self, tmp_path, segments):
        path = tmp_path / "m.obj"
        curve = small_curve()
        write_surface_obj(path, curve, segments=segments)
        assert path.read_text() == loop_surface_obj(curve, segments)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        J=st.integers(3, 40),
        # multiples of 4 and 8 give exact repeats in the cos/sin table
        segments=st.one_of(
            st.integers(3, 130),
            st.integers(1, 32).map(lambda n: 4 * n),
            st.integers(1, 16).map(lambda n: 8 * n),
        ),
    )
    @example(seed=0, J=3, segments=4)
    @example(seed=1, J=40, segments=8)
    @example(seed=2, J=17, segments=128)
    def test_random_curves_match_loop_writer(self, tmp_path_factory, seed, J, segments):
        curve = PeriodicCurve(random_admissible_positions(np.random.default_rng(seed), J))
        path = tmp_path_factory.mktemp("obj") / "m.obj"
        write_surface_obj(path, curve, segments=segments)
        assert path.read_text() == loop_surface_obj(curve, segments)

    @pytest.mark.parametrize("segments", [3, 4, 7, 8, 64, 128])
    def test_negative_and_signed_zero_radii_match_loop_writer(self, tmp_path, segments):
        # each magnitude is formatted once and negated as text: r * f
        # takes the sign of r xor f, zeros included
        # (random_admissible_positions draws none of these radii)
        r = [1.5, -1.5, 0.0, -0.0, -2.0e-300, 3.0e300, -0.125]
        z = [0.0, -0.0, 1.0, -2.5, 0.5, -1.0e-5, 7.0]
        curve = PeriodicCurve(np.column_stack([r, z]))
        path = tmp_path / "m.obj"
        write_surface_obj(path, curve, segments=segments)
        assert path.read_text() == loop_surface_obj(curve, segments)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        J=st.integers(3, 20),
        segments=st.sampled_from([3, 5, 8, 12, 64]),
    )
    def test_random_signed_radii_match_loop_writer(self, tmp_path_factory, seed, J, segments):
        rng = np.random.default_rng(seed)
        pos = rng.normal(size=(J, 2))
        zeros = rng.random(J) < 0.3
        pos[zeros, 0] = rng.choice([0.0, -0.0], size=zeros.sum())
        curve = PeriodicCurve(pos)
        path = tmp_path_factory.mktemp("obj") / "m.obj"
        write_surface_obj(path, curve, segments=segments)
        assert path.read_text() == loop_surface_obj(curve, segments)

    def test_evolved_curve_matches_loop_writer(self, bdf2_result, tmp_path):
        curve = bdf2_result.snapshots[-1].curve
        path = tmp_path / "m.obj"
        write_surface_obj(path, curve, segments=16)
        assert path.read_text() == loop_surface_obj(curve, 16)

    def test_memory_stays_per_row(self, tmp_path):
        # Bound: the 65 536 coordinates of J = 512, S = 64 held as a list of
        # Python floats would take about 2.1 MB, and the file text 3.2 MB;
        # one node row of text is about 6 kB.
        curve = interpolate(torus_circle(0.7), 512)
        tracemalloc.start()
        try:
            write_surface_obj(tmp_path / "m.obj", curve, segments=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_rejects_degenerate_revolution(self, tmp_path):
        with pytest.raises(ValueError, match="^segments must be at least 3, got 2$"):
            write_surface_obj(tmp_path / "m.obj", small_curve(), segments=2)

    @pytest.mark.parametrize("segments", [8.5, float("nan"), "8"])
    def test_rejects_fractional_segments(self, tmp_path, segments):
        message = f"segments must be an integer of at least 3, got {segments!r}"
        with pytest.raises(ValueError) as info:
            write_surface_obj(tmp_path / "m.obj", small_curve(), segments=segments)
        assert str(info.value) == message
        assert not (tmp_path / "m.obj").exists()

    @pytest.mark.parametrize("segments", [8.0, np.int64(8)])
    def test_integral_segments_pass(self, tmp_path, segments):
        path = tmp_path / "m.obj"
        write_surface_obj(path, small_curve(), segments=segments)
        assert path.read_text() == loop_surface_obj(small_curve(), 8)


class TestEvolutionBundle:
    def test_file_inventory(self, result, tmp_path):
        bundle = write_evolution_bundle(result, tmp_path / "out", export_obj=True, obj_segments=8)
        assert bundle.diagnostics.name == "diagnostics.csv"
        assert bundle.metadata.name == "metadata.json"
        assert [p.name for p in bundle.snapshots] == ["snapshot_t0.csv", "snapshot_t0.01.csv"]
        assert [p.name for p in bundle.meshes] == ["snapshot_t0.obj", "snapshot_t0.01.obj"]
        for path in [bundle.diagnostics, bundle.metadata, *bundle.snapshots, *bundle.meshes]:
            assert path.is_file()

    def test_meshes_share_face_rows_and_match_loop_writer(self, bdf2_result, tmp_path):
        bundle = write_evolution_bundle(bdf2_result, tmp_path / "out", export_obj=True,
                                        obj_segments=12)
        assert len(bundle.meshes) == 3
        faces = set()
        for snap, path in zip(bdf2_result.snapshots, bundle.meshes):
            text = path.read_text()
            assert text == loop_surface_obj(snap.curve, 12)
            faces.add(text[text.index("\nf ") + 1:])
        assert len(faces) == 1

    def test_bad_obj_segments_fail_before_writing(self, result, tmp_path):
        with pytest.raises(ValueError, match="segments must be an integer of at least 3, got 8.5"):
            write_evolution_bundle(result, tmp_path / "out", export_obj=True, obj_segments=8.5)
        assert not (tmp_path / "out").exists()

    def test_diagnostics_table(self, result, tmp_path):
        bundle = write_evolution_bundle(result, tmp_path / "out")
        lines = bundle.diagnostics.read_text().splitlines()
        assert lines[0] == "m,t,mesh_ratio,min_r,diameter"
        assert len(lines) == 12  # initial state plus ten steps
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0
        for line in lines[1:]:
            m, t, ratio, min_r, diam = line.split(",")
            assert float(ratio) >= 1.0
            assert 0.0 < float(min_r) < 1.0
            assert 0.0 < float(diam) < 2.0

    def test_metadata_contents(self, result, tmp_path):
        bundle = write_evolution_bundle(
            result, tmp_path / "out", command_args={"subcommand": "evolve"}
        )
        meta = json.loads(bundle.metadata.read_text())
        assert meta["tool"]["name"] == "torusflow"
        assert meta["event"]["kind"] == "reached_T"
        assert meta["event"]["time"] == pytest.approx(0.01)
        assert meta["command"] == {"subcommand": "evolve"}
        assert [s["file"] for s in meta["snapshots"]] == ["snapshot_t0.csv", "snapshot_t0.01.csv"]
        assert [s["step"] for s in meta["snapshots"]] == [0, 10]
        assert set(meta["thresholds"]) == {"axis", "collapse", "edge_fraction"}
        assert "LDL^T (dpttrf)" in meta["numerics"]["linear_solver"]

    def test_metadata_records_thresholds_of_the_run(self, tmp_path):
        used = EventThresholds(axis=0.25, collapse=2e-3, edge_fraction=1e-7)
        report = run(torus_circle(0.6), "bdf1", 16, 1e-3, 0.01, thresholds=used)
        assert report.thresholds == used
        bundle = write_evolution_bundle(ScenarioResult(report, []), tmp_path / "out")
        meta = json.loads(bundle.metadata.read_text())
        assert meta["thresholds"] == asdict(used)

    def test_snapshots_round_trip(self, result, tmp_path):
        bundle = write_evolution_bundle(result, tmp_path / "out")
        for snap, path in zip(result.snapshots, bundle.snapshots):
            assert np.array_equal(read_snapshot_csv(path).positions, snap.curve.positions)


class TestConvergeCommand:
    ARGS = [
        "converge",
        "--scheme",
        "bdf2",
        "--axis",
        "spatial",
        "--levels",
        "8,16",
        "--t-end",
        "0.1",
        "--fixed-steps",
        "50",
    ]

    def test_writes_table(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(self.ARGS + ["--out", str(out), "--verbose"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "resolution,err_l2,order_l2,err_h1,order_h1"
        assert len(lines) == 3
        first, second = lines[1].split(","), lines[2].split(",")
        assert first[0] == "8" and second[0] == "16"
        assert first[2] == "" and first[4] == ""  # no orders on the first row
        assert 1.8 <= float(second[2]) <= 2.2
        assert 0.9 <= float(second[4]) <= 1.1
        assert float(second[1]) < float(first[1])
        progress = ["bdf2 spatial level 8: J=8 steps=50", "bdf2 spatial level 16: J=16 steps=50"]
        assert capsys.readouterr().err.splitlines() == progress
        # a second command in the same process prints its lines once, and
        # a command without --verbose prints none
        assert main(self.ARGS + ["--out", str(out), "--verbose"]) == 0
        assert capsys.readouterr().err.splitlines() == progress
        assert main(self.ARGS + ["--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_stdout_output_and_determinism(self, tmp_path, capsys):
        assert main(self.ARGS + ["--out", "-"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--out", "-"]) == 0
        assert capsys.readouterr().out == first


class TestEvolveCommand:
    def test_bundle_and_status_line(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "evolve",
                "--scenario",
                "torus:0.6",
                "--scheme",
                "cn",
                "--nodes",
                "16",
                "--dt",
                "1e-3",
                "--t-end",
                "0.01",
                "--snapshots",
                "0,0.01",
                "--out",
                str(out),
                "--export-obj",
                "--obj-segments",
                "8",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("reached_T at t=0.01; wrote ")
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "diagnostics.csv",
            "metadata.json",
            "snapshot_t0.01.csv",
            "snapshot_t0.01.obj",
            "snapshot_t0.csv",
            "snapshot_t0.obj",
        ]
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["command"]["scenario"] == "torus:0.6"
        assert meta["command"]["export_obj"] is True
        # the default event thresholds, as the run used them
        assert meta["thresholds"] == {"axis": 1e-3, "collapse": 1e-3, "edge_fraction": 1e-6}

    @pytest.mark.parametrize(
        "extra, given",
        [
            (
                ["--snapshots", "0,0.01", "--export-obj", "--obj-segments", "8"],
                {"snapshots": "0,0.01", "export_obj": True, "obj_segments": 8},
            ),
            ([], {"snapshots": "", "export_obj": False, "obj_segments": 64}),
        ],
        ids=["snapshots-and-meshes", "defaults"],
    )
    def test_metadata_records_the_whole_command(self, tmp_path, capsys, extra, given):
        argv = ["--scenario", "torus:0.6", "--scheme", "cn", "--nodes", "16", "--dt", "1e-3", "--t-end", "0.01"]
        out = tmp_path / "run"
        assert main(["evolve", *argv, *extra, "--out", str(out)]) == 0
        command = json.loads((out / "metadata.json").read_text())["command"]
        want = {
            "subcommand": "evolve",
            "scenario": "torus:0.6",
            "scheme": "cn",
            "nodes": 16,
            "dt": 1e-3,
            "t_end": 0.01,
            **given,
        }
        assert command == want
        assert {k: type(v) for k, v in command.items()} == {k: type(v) for k, v in want.items()}


class TestBisectCommand:
    def test_stdout_log_and_bracket(self, capsys):
        code = main(
            [
                "bisect",
                "--lower",
                "0.5",
                "--upper",
                "0.7",
                "--tol",
                "0.1",
                "--scheme",
                "cn",
                "--nodes",
                "48",
                "--dt",
                "1e-3",
                "--out",
                "-",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "r,event,t_event"
        assert lines[1].startswith("0.5,curve_collapse,")
        assert lines[2].startswith("0.7,axis_touch,")
        tail = lines[-1].split(",")
        assert tail[0] == "bracket"
        low, high = float(tail[1]), float(tail[2])
        assert 0.5 <= low < high <= 0.7
        assert high - low <= 0.1 + 1e-12

    def test_file_output_and_bracket_line(self, capsys, tmp_path):
        argv = ["bisect", "--lower", "0.5", "--upper", "0.7", "--tol", "0.1", "--scheme", "cn",
                "--nodes", "48", "--dt", "1e-3", "--out"]
        assert main(argv + ["-"]) == 0
        table = capsys.readouterr().out
        out = tmp_path / "sub" / "bisect.csv"
        assert main(argv + [str(out)]) == 0
        assert out.read_text() == table
        _, low, high = table.splitlines()[-1].split(",")
        assert capsys.readouterr().out == f"bracket [{low}, {high}]\n"


class TestErrorHandling:
    def test_domain_errors_exit_nonzero(self, capsys, tmp_path):
        cases = [
            ["converge", "--scheme", "bdf2", "--axis", "spatial", "--levels", "16,8", "--out", "-"],
            ["evolve", "--scenario", "banana", "--scheme", "cn", "--nodes", "16",
             "--dt", "1e-3", "--t-end", "0.01", "--out", str(tmp_path / "x")],
            ["evolve", "--scenario", "torus:0.6", "--scheme", "cn", "--nodes", "16",
             "--dt", "1e-3", "--t-end", "0.0015", "--out", str(tmp_path / "y")],
            ["bisect", "--lower", "0.7", "--upper", "0.5", "--tol", "0.01", "--scheme", "cn"],
        ]
        for argv in cases:
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "flag, value", [("--dt", "nan"), ("--dt", "inf"), ("--t-end", "nan"), ("--t-end", "inf")]
    )
    def test_nonfinite_step_inputs_are_named(self, capsys, tmp_path, flag, value):
        argv = ["evolve", "--scenario", "torus:0.6", "--scheme", "cn", "--nodes", "16",
                "--dt", "1e-3", "--t-end", "0.01", "--out", str(tmp_path / "z")]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 1
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(f"error: {name} must be ")
        assert not (tmp_path / "z").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--snapshots", "nan", "snapshot_times must be finite"),
            ("--snapshots", "0,inf", "snapshot_times must be finite"),
            ("--nodes", "2", "node_count must be at least 3"),
            ("--nodes", "0", "node_count must be at least 3"),
            ("--scenario", "spiral:x", "scenario 'spiral:x': layers "),
            ("--scenario", "torus:abc", "scenario 'torus:abc': radius "),
        ],
    )
    def test_bad_evolve_inputs_are_named(self, capsys, tmp_path, flag, value, message):
        argv = ["evolve", "--scenario", "torus:0.6", "--scheme", "cn", "--nodes", "16",
                "--dt", "1e-3", "--t-end", "0.01", "--snapshots", "0",
                "--out", str(tmp_path / "z")]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not (tmp_path / "z").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["converge", "--scheme", "cn", "--axis", "spatial", "--levels", "8,16",
              "--fixed-steps", "0", "--out", "-"],
             "error: fixed_steps must be at least 1, got 0"),
            (["converge", "--scheme", "cn", "--axis", "spatial", "--levels", "8,16",
              "--fixed-steps", "-3", "--out", "-"],
             "error: fixed_steps must be at least 1, got -3"),
            (["converge", "--scheme", "cn", "--axis", "temporal", "--levels", "8,16",
              "--fixed-nodes", "2", "--out", "-"],
             "error: fixed_nodes must be at least 3, got 2"),
            (["converge", "--scheme", "cn", "--axis", "spatial", "--levels", "8,16",
              "--t-end", "0", "--out", "-"],
             "error: t_end must be positive and finite, got 0.0"),
            (["bisect", "--lower", "0.5", "--upper", "0.7", "--tol", "0.01", "--scheme", "cn",
              "--dt", "nan"],
             "error: dt must be positive and finite, got nan"),
            (["bisect", "--lower", "0.5", "--upper", "0.7", "--tol", "0.01", "--scheme", "cn",
              "--t-max", "nan"],
             "error: t_max must be positive and finite, got nan"),
            (["bisect", "--lower", "0.5", "--upper", "0.7", "--tol", "0.01", "--scheme", "cn",
              "--nodes", "16", "--dt", "1e-300", "--t-max", "1e300"],
             "error: t_max / dt overflows: t_max 1e+300, dt 1e-300"),
        ],
    )
    def test_bad_study_inputs_are_named(self, capsys, monkeypatch, argv, message):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(experiments, "run", no_run)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [message]
        assert captured.out == ""

    def test_bad_bisect_tol_is_named(self, capsys):
        argv = ["bisect", "--lower", "0.5", "--upper", "0.7", "--tol", "nan", "--scheme", "cn"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: tol must be positive and finite, got nan"]
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evolve", "--scenario", "torus:0.6", "--scheme", "cn", "--nodes", "16",
              "--dt", "1e-3", "--t-end", "0.01", "--snapshots", "0,abc", "--out", "z"],
             "error: --snapshots: 'abc' is not a number"),
            (["converge", "--scheme", "cn", "--axis", "spatial", "--levels", "8,x", "--out", "-"],
             "error: --levels: 'x' is not an integer"),
            (["converge", "--scheme", "cn", "--axis", "spatial", "--levels", " , ", "--out", "-"],
             "error: --levels: empty level list"),
        ],
    )
    def test_bad_list_items_are_named(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [message]
        assert captured.out == ""
        assert not (tmp_path / "z").exists()

    @pytest.mark.parametrize("snapshots", ["0", ""])
    def test_bad_obj_segments_fail_before_the_run(self, capsys, tmp_path, monkeypatch, snapshots):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr("torusflow.cli.run_scenario", no_run)
        out = tmp_path / "bundle"
        argv = ["evolve", "--scenario", "torus:0.6", "--scheme", "cn", "--nodes", "16",
                "--dt", "1e-3", "--t-end", "0.01", "--snapshots", snapshots,
                "--export-obj", "--obj-segments", "2", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --obj-segments must be at least 3, got 2"
        ]
        assert not out.exists()

    def test_usage_errors_exit_via_argparse(self):
        with pytest.raises(SystemExit):
            main([])
        with pytest.raises(SystemExit):
            main(["converge", "--scheme", "bdf1", "--axis", "spatial", "--levels", "8", "--out", "-"])


def readme_commands():
    """The torusflow command lines of the README's shell blocks."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("torusflow "):
                commands.append(shlex.split(line)[1:])
    return commands


# appended to each README command so that it runs in a few seconds; at
# J = 128, dt = 5e-4 the CN bracket still straddles 0.6415
README_SIZES = {
    "converge": ["--fixed-steps", "20", "--t-end", "0.01"],
    "evolve": ["--nodes", "64", "--dt", "1e-3"],
    "bisect": ["--nodes", "128", "--dt", "5e-4"],
}


class TestReadme:
    def test_library_snippet_prints_its_comment(self, capsys):
        (snippet,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
        expected = snippet.rsplit("# ", 1)[1].strip()
        exec(snippet, {})
        assert capsys.readouterr().out == expected + "\n"

    def test_commands_parse(self):
        commands = readme_commands()
        assert [argv[0] for argv in commands] == ["converge", "evolve", "bisect"]
        parser = _build_parser()
        for argv in commands:
            args = parser.parse_args(argv)
            assert args.subcommand == argv[0]

    def test_commands_run_at_small_sizes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        converge, evolve, bisect = readme_commands()

        assert main(converge + README_SIZES["converge"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "resolution,err_l2,order_l2,err_h1,order_h1"
        assert [int(row.split(",")[0]) for row in rows] == [32, 64, 128, 256, 512]
        assert all(float(row.split(",")[4]) > 0.99 for row in rows[1:])

        assert main(evolve + README_SIZES["evolve"]) == 0
        out = tmp_path / evolve[evolve.index("--out") + 1]
        assert capsys.readouterr().out == f"axis_touch at t=0.083; wrote {out.relative_to(tmp_path)}\n"
        labels = ("0", "0.04", "0.08")
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["diagnostics.csv", "metadata.json"]
            + [f"snapshot_t{label}.{ext}" for label in labels for ext in ("csv", "obj")]
        )
        assert json.loads((out / "metadata.json").read_text())["event"]["kind"] == "axis_touch"

        assert main(bisect + README_SIZES["bisect"]) == 0
        header, *probes, last = capsys.readouterr().out.splitlines()
        assert header == "r,event,t_event"
        assert probes[0].startswith("0.5,curve_collapse,")
        assert probes[1].startswith("0.7,axis_touch,")
        tag, low, high = last.split(",")
        assert tag == "bracket"
        assert float(low) < 0.6415 < float(high) <= float(low) + 0.01
