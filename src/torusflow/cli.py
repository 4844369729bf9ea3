"""Command line entry points: convergence tables, scenario evolution and
the critical-radius search.

All numeric output is written with full round-trip precision (repr of
the Python float), so re-reading a file and writing it again is byte
identical.  The solver uses no random numbers anywhere; rerunning a
command reproduces its output bit for bit.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import operator
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .assembly import _SOURCE_POINTS
from .curves import PeriodicCurve, _count
from .experiments import (
    TABLE_ERROR_RULE,
    bisect_critical_radius,
    run_convergence,
    run_scenario,
)

__all__ = [
    "main",
    "OutputBundle",
    "write_evolution_bundle",
    "write_snapshot_csv",
    "read_snapshot_csv",
    "write_surface_obj",
]


def _fmt(x: float) -> str:
    """Full-precision decimal form that round-trips through float()."""
    return repr(float(x))


def _fmt_or_empty(x: float) -> str:
    return "" if x is None or (isinstance(x, float) and math.isnan(x)) else _fmt(x)


@dataclass(frozen=True)
class OutputBundle:
    """Paths written by one evolve command."""

    directory: Path
    diagnostics: Path
    metadata: Path
    snapshots: list[Path]
    meshes: list[Path]


def write_snapshot_csv(path, curve: PeriodicCurve) -> None:
    lines = ["j,r,z"]
    for j in range(curve.node_count):
        lines.append(f"{j},{_fmt(curve.positions[j, 0])},{_fmt(curve.positions[j, 1])}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_snapshot_csv(path) -> PeriodicCurve:
    """Read back a snapshot CSV; rows must be j,r,z with j = 0, 1, 2, ..."""
    lines = Path(path).read_text().rstrip().splitlines()
    if not lines or lines[0] != "j,r,z":
        raise ValueError(f"{path}: not a snapshot CSV")
    if len(lines) == 1:
        raise ValueError(f"{path}: no rows after the header")
    rows = []
    for j, line in enumerate(lines[1:]):
        try:
            index, r, z = line.split(",")
            if int(index) != j:
                raise ValueError(f"expected j = {j}, got {index}")
            rows.append((float(r), float(z)))
            if not all(map(math.isfinite, rows[-1])):
                raise ValueError(f"r and z must be finite, got {r}, {z}")
        except ValueError as exc:
            raise ValueError(f"{path}, line {j + 2}: {exc}") from None
    if len(rows) < 3:
        raise ValueError(f"{path}: a closed polygon needs at least 3 nodes, got {len(rows)}")
    return PeriodicCurve(np.array(rows))


def _face_rows(J: int, segments: int):
    """OBJ face text of the J x segments torus grid, one node row at a time:
    quad (j, k) gives triangles (a, b, c) and (a, c, d), a = (j, k),
    b = (j + 1, k), c = (j + 1, k + 1), d = (j, k + 1)."""
    k = np.arange(segments)
    k1 = (k + 1) % segments
    # per quad: the six corner columns, and which of them lie on row j + 1
    columns = np.stack([k, k, k1, k, k1, k1], axis=-1).ravel()
    on_next = np.tile([0, 1, 1, 0, 1, 0], segments)
    template = "f %d %d %d\n" * (2 * segments)
    for j in range(J):
        here, after = 1 + j * segments, 1 + (j + 1) % J * segments
        yield template % tuple((columns + here + on_next * (after - here)).tolist())


def _write_obj(path, curve: PeriodicCurve, segments: int, face_rows) -> None:
    phi = [2.0 * math.pi * k / segments for k in range(segments)]
    # interleaved (cos, sin) factors f.  In IEEE arithmetic r * f is
    # |r| * |f| with the sign bit of r xor that of f, and repr(-x) is
    # "-" + repr(x), so each distinct magnitude |f| (by bit pattern) is
    # formatted once per node row and negated as text where needed
    factors = np.array([(math.cos(p), math.sin(p)) for p in phi]).ravel()
    bits, index = np.unique(np.abs(factors).view(np.int64), return_inverse=True)
    magnitudes = bits.view(np.float64)
    # for rows with r >= 0 and r < 0 (sign bit set): the magnitudes whose
    # text is negated, and where each factor finds its text among the
    # magnitudes' texts followed by the negated ones
    layouts = {}
    for r_negative in (False, True):
        flips = (np.signbit(factors) != r_negative).tolist()
        negated = sorted({m for m, flip in zip(index.tolist(), flips) if flip})
        slot = {m: len(magnitudes) + i for i, m in enumerate(negated)}
        where = [slot[m] if flip else m for m, flip in zip(index.tolist(), flips)]
        layouts[r_negative] = negated, operator.itemgetter(*where)
    with open(path, "w") as out:
        for r, z in curve.positions.tolist():
            texts = list(map(repr, (abs(r) * magnitudes).tolist()))
            negated, expand = layouts[math.copysign(1.0, r) < 0.0]
            texts += ["-" + texts[i] for i in negated]
            out.write((f"v %s {z!r} %s\n" * segments) % expand(texts))
        out.writelines(face_rows)


def write_surface_obj(path, curve: PeriodicCurve, segments: int = 64) -> None:
    """Revolve the generating curve into a closed triangulated surface.

    Vertex (j, k) is node j rotated by angle 2 pi k / segments about the
    z axis, laid out in OBJ coordinates (x, y, z) = (r cos, z, r sin)
    with 1-based index 1 + j * segments + k.  Each quad of the torus
    grid is split into two triangles.  Coordinates are repr round-trip
    floats, each distinct magnitude formatted once per node row.
    """
    segments = _count("segments", segments, 3)
    _write_obj(path, curve, segments, _face_rows(curve.node_count, segments))


def _snapshot_label(t: float) -> str:
    return f"{t:g}".replace("-", "m")


def write_evolution_bundle(
    result,
    directory,
    *,
    export_obj: bool = False,
    obj_segments: int = 64,
    command_args: dict | None = None,
) -> OutputBundle:
    """Write diagnostics CSV, snapshot CSVs, metadata JSON and optional
    OBJ meshes for a ScenarioResult."""
    if export_obj:
        obj_segments = _count("segments", obj_segments, 3)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    report = result.report

    diag_path = directory / "diagnostics.csv"
    lines = ["m,t,mesh_ratio,min_r,diameter"]
    for rec in report.records:
        lines.append(
            f"{rec.step},{_fmt(rec.time)},{_fmt(rec.mesh_ratio)},"
            f"{_fmt(rec.min_radius)},{_fmt_or_empty(rec.diameter)}"
        )
    diag_path.write_text("\n".join(lines) + "\n")

    snapshot_paths = []
    mesh_paths = []
    faces = ()  # one run has one J, so every mesh has the same faces
    if export_obj and result.snapshots:
        faces = tuple(_face_rows(report.node_count, obj_segments))
    for snap in result.snapshots:
        label = _snapshot_label(snap.requested_time)
        snap_path = directory / f"snapshot_t{label}.csv"
        write_snapshot_csv(snap_path, snap.curve)
        snapshot_paths.append(snap_path)
        if export_obj:
            mesh_path = directory / f"snapshot_t{label}.obj"
            _write_obj(mesh_path, snap.curve, obj_segments, faces)
            mesh_paths.append(mesh_path)

    meta = {
        "tool": {"name": "torusflow", "version": __version__},
        "command": command_args or {},
        "event": asdict(report.event),
        "snapshots": [
            {
                "requested_time": snap.requested_time,
                "time": snap.time,
                "step": snap.step,
                "file": path.name,
            }
            for snap, path in zip(result.snapshots, snapshot_paths)
        ],
        "thresholds": asdict(report.thresholds),
        "numerics": {
            "assembly": "exact closed-form element integrals",
            "source_quadrature": f"gauss{_SOURCE_POINTS} per element",
            "linear_solver": (
                "cyclic tridiagonal via Sherman-Morrison: LDL^T (dpttrf) for the "
                "symmetric positive definite step matrices, pivoted LU (dgttrf) otherwise"
            ),
        },
        "determinism": "no randomness; identical inputs reproduce identical bytes",
    }
    meta_path = directory / "metadata.json"
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return OutputBundle(
        directory=directory,
        diagnostics=diag_path,
        metadata=meta_path,
        snapshots=snapshot_paths,
        meshes=mesh_paths,
    )


def _parse_list(text: str, convert, option: str, kind: str) -> list:
    """Comma list of values, naming the option and item that fail to parse."""
    items = [p.strip() for p in text.split(",") if p.strip()]
    out = []
    for item in items:
        try:
            out.append(convert(item))
        except ValueError:
            raise ValueError(f"{option}: {item!r} is not {kind}") from None
    return out


def _parse_levels(text: str) -> list[int]:
    levels = _parse_list(text, int, "--levels", "an integer")
    if not levels:
        raise ValueError("--levels: empty level list")
    return levels


def _parse_times(text: str) -> list[float]:
    return _parse_list(text, float, "--snapshots", "a number")


def _write_output(out: str, text: str) -> None:
    """Write ``text`` to the file ``out``, creating its directory, or to
    stdout when ``out`` is '-'."""
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text)


def cmd_converge(args) -> int:
    # progress lines go to stderr for this command only, not to later calls
    logger = logging.getLogger("torusflow")
    handler, level = logging.StreamHandler(sys.stderr), logger.level
    if args.verbose:
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        study = run_convergence(
            args.scheme,
            args.axis,
            _parse_levels(args.levels),
            t_end=args.t_end,
            fixed_steps=args.fixed_steps,
            fixed_nodes=args.fixed_nodes,
            error_rule=args.error_rule,
        )
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    lines = ["resolution,err_l2,order_l2,err_h1,order_h1"]
    for row in study.rows:
        lines.append(
            f"{row.resolution},{_fmt(row.err_l2)},{_fmt_or_empty(row.order_l2)},"
            f"{_fmt(row.err_h1)},{_fmt_or_empty(row.order_h1)}"
        )
    _write_output(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_evolve(args) -> int:
    _count("--obj-segments", args.obj_segments, 3)
    result = run_scenario(
        args.scenario,
        args.scheme,
        args.nodes,
        args.dt,
        args.t_end,
        snapshot_times=_parse_times(args.snapshots) if args.snapshots else (),
    )
    bundle = write_evolution_bundle(
        result,
        args.out,
        export_obj=args.export_obj,
        obj_segments=args.obj_segments,
        command_args={k: v for k, v in vars(args).items() if k not in ("out", "handler")},
    )
    event = result.report.event
    print(f"{event.kind.value} at t={event.time:g}; wrote {bundle.directory}")
    return 0


def cmd_bisect(args) -> int:
    result = bisect_critical_radius(
        args.lower,
        args.upper,
        args.tol,
        args.scheme,
        node_count=args.nodes,
        dt=args.dt,
        t_max=args.t_max,
    )
    lines = ["r,event,t_event"]
    for radius, event in result.probes:
        lines.append(f"{_fmt(radius)},{event.kind.value},{_fmt(event.time)}")
    lines.append(f"bracket,{_fmt(result.lower)},{_fmt(result.upper)}")
    _write_output(args.out, "\n".join(lines) + "\n")
    if args.out != "-":
        print(f"bracket [{_fmt(result.lower)}, {_fmt(result.upper)}]")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusflow",
        description="Finite element evolution of torus-type generating curves",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("converge", help="error table for the forced benchmark")
    p.add_argument("--scheme", choices=["cn", "bdf2"], required=True)
    p.add_argument("--axis", choices=["spatial", "temporal"], required=True)
    p.add_argument("--levels", required=True, help="comma list, e.g. 32,64,128")
    p.add_argument("--out", required=True, help="CSV path, or - for stdout")
    p.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    p.add_argument("--fixed-steps", dest="fixed_steps", type=int, default=10000,
                   help="time steps used on the spatial axis")
    p.add_argument("--fixed-nodes", dest="fixed_nodes", type=int, default=50000,
                   help="node count used on the temporal axis")
    p.add_argument("--error-rule", dest="error_rule", choices=["nodal", "gauss5"],
                   default=TABLE_ERROR_RULE)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(handler=cmd_converge)

    p = sub.add_parser("evolve", help="evolve a scenario and write a bundle")
    p.add_argument("--scenario", required=True,
                   help="torus:R, ellipse, rose, or spiral[:layers]")
    p.add_argument("--scheme", choices=["bdf1", "cn", "bdf2"], required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--t-end", dest="t_end", type=float, required=True)
    p.add_argument("--snapshots", default="", help="comma list of times")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--export-obj", dest="export_obj", action="store_true",
                   help="also write revolved surface meshes")
    p.add_argument("--obj-segments", dest="obj_segments", type=int, default=64)
    p.set_defaults(handler=cmd_evolve)

    p = sub.add_parser("bisect", help="bracket the critical torus radius")
    p.add_argument("--lower", type=float, required=True)
    p.add_argument("--upper", type=float, required=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--scheme", choices=["cn", "bdf2"], required=True)
    p.add_argument("--nodes", type=int, default=512)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--t-max", dest="t_max", type=float, default=0.5)
    p.add_argument("--out", default="-", help="CSV path, or - for stdout")
    p.set_defaults(handler=cmd_bisect)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
