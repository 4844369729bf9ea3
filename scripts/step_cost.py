"""Per-step cost of the stacked step kernel, against its NumPy floor.

Times ``stepping._STEPPERS[kind](current, previous, t, dt, source, t_new)``,
one stacked step as every run takes it, for stacks of B torus circles
(tube radii 0.60, 0.61, ...) on J nodes at dt = 2e-4: CN unforced,
BDF2 unforced and CN with the manufactured forcing.  An unforced step
repeats the step from t = dt.  The forced case times consecutive steps
on the grid t_m = m dt, from t_1 on, as a run takes them, so each CN
step is handed the load of its old level that the step before left on
the field (``assembly.source_load``); a tree whose kernel takes no
``t_new`` forms its new level as t + dt.  Beside it, the CN
unforced step written as straight-line NumPy with the same operations
in the same order, the same coefficient check and the same residual
audit against ``RESIDUAL_RTOL``; its new positions are checked equal,
bit for bit, to the kernel's.  The ``record`` column is the cost of one
member's record of the kernel's new states as a recording run makes it
(the stack's mesh ratios and smallest radii, shared by its B members,
then for each member its view, the three nodal norms against the
manufactured solution and its ``ErrorRecord``), per member; every
record is checked equal, bit for bit, to the same quantities of a
checked copy of the member.

Each source tree is timed in a child process of its own, the trees in
alternating rounds, and every figure is the least over the rounds of
the minimum of 7 repeats of N steps (in-process ``timeit``).  A child
times the cases, the floor and the record of one shape in turn, repeat
by repeat, so that a change in the machine's speed within the child
reaches all of them alike.  The CPU speed of a child can differ from
the next one's by more than the gap between two trees, while the floor,
the script's own code, is the same for every tree.  So beside its
microseconds, each kernel and record column is also given as a ratio
to the floor of the same shape measured in the same child, the median
over the rounds (JSON key ``per_floor``):

    python3 scripts/step_cost.py                      # this checkout
    python3 scripts/step_cost.py OLD/src NEW/src      # two trees, one session
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import os
import statistics
import subprocess
import sys
import timeit

SHAPES = [(1, 32), (1, 256), (1, 512), (5, 256), (9, 256)]
CASES = [("cn", False), ("bdf2", False), ("cn", True)]
DT = 2e-4


def straight_cn(x, x_prev, dt, lapack, rtol):
    """The CN unforced step of a stack, component-major (2, B, J) in and
    out, or None when any member would fail its step."""
    import numpy as np

    J = x.shape[2]
    w = 1.5 * x + -0.5 * x_prev
    left = np.concatenate((w[..., -1:], w[..., :-1]), axis=-1)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        dr, dz = w - left
        hw = (dr * dr + dz * dz) * J
        pairs = hw + np.concatenate((hw[..., 1:], hw[..., :1]), axis=-1)
        a = left[0] + w[0]
        # the coefficient check
        if not (np.isfinite(pairs.max()) and w[0].min() > 0.0 and hw.min() > 0.0):
            return None
        mass = 1.0 / dt
        m = (mass / 12.0) * hw
        k = 0.5 * J * 0.5
        extra = (mass / 6.0) * w[0] * pairs
        off = np.empty((2,) + a.shape)
        np.subtract(m, k, out=off[0])
        np.add(m, k, out=off[1])
        off *= a
        off_next = np.concatenate((off[..., 1:], off[..., :1]), axis=-1)
        diags = off + off_next
        diags += extra
        diag, sub, sup = diags[1], off[0], off_next[0]
        # the right side: (1/dt) M - K/2 applied to X^m, minus (L, 0)
        wrapped = np.concatenate((x[..., -1:], x, x[..., :1]), axis=-1)
        rhs = diags[0] * x + off[1] * wrapped[..., :-2] + off_next[1] * wrapped[..., 2:]
        rhs[0] -= 0.5 * pairs
        # Sherman-Morrison split with gamma = -diag[0], block LDL^T
        gamma = -diag[:, 0]
        alpha, beta = sup[:, -1], sub[:, 0]
        B = len(gamma)
        d = diag.copy()
        d[:, 0] = diag[:, 0] - gamma
        d[:, -1] = diag[:, -1] - alpha * beta / gamma
        e = sup.copy()
        e[:, -1] = 0.0
        df, ef, info = lapack.dpttrf(d.ravel(), e.ravel()[:-1])
        if info:
            return None
        cols = np.zeros((3, B, J))
        cols[:2] = rhs
        cols[2, :, 0] = gamma
        cols[2, :, -1] = alpha
        y = lapack.dpttrs(df, ef, cols.reshape(3, B * J).T, overwrite_b=1)[0].T.reshape(3, B, J)
        z, y = y[2], y[:2]
        ratio = beta / gamma
        q = 1.0 + z[:, 0] + ratio * z[:, -1]
        denom = q * (q / q)
        new = y - z * ((y[:, :, 0] + ratio * y[:, :, -1]) / denom)[:, :, None]
        # each member's audit, its first bound
        wrapped = np.concatenate((new[..., -1:], new, new[..., :1]), axis=-1)
        residual = diag * new + sub * wrapped[..., :-2] + sup * wrapped[..., 2:] - rhs
        if not (np.abs(residual).max(axis=(0, 2)) <= rtol * np.abs(rhs).max(axis=(0, 2))).all():
            return None
        # the new states' squared edges and bounds
        vectors = new - np.concatenate((new[..., -1:], new[..., :-1]), axis=-1)
        squares = vectors[0] * vectors[0] + vectors[1] * vectors[1]
        if not squares.min(axis=-1).all():
            return None
        new[0].min(axis=-1).tolist(), np.sqrt(squares.min(axis=-1)).tolist()
    return new


def records(stack, exact, t):
    """The records of the members of ``stack`` at time t, as ``_run_stack``
    makes them when it records every step against ``exact``."""
    from torusflow import stepping

    ratios, rmin = stepping.mesh_ratio(stack), stepping.min_radial(stack)
    return [
        stepping._record(stack.member(row), 1, t, exact, "nodal", ratios[row], rmin[row], False)
        for row in range(len(ratios))
    ]


def check_records(stack, exact, t) -> bool:
    """Whether every record of ``stack`` holds, bit for bit, what a checked
    copy of its member gives."""
    import numpy as np

    from torusflow import PeriodicCurve, diagnostics

    for row, record in enumerate(records(stack, exact, t)):
        copy = PeriodicCurve(np.array(stack.member(row).positions))
        expected = (
            diagnostics.l2_error(copy, exact, t, "nodal"),
            diagnostics.h1_seminorm_error(copy, exact, t, "nodal"),
            diagnostics.superconvergence_error(copy, exact, t),
            diagnostics.mesh_ratio(copy),
            diagnostics.min_radial(copy),
        )
        got = (record.err_l2, record.err_h1, record.superconv_h1, record.mesh_ratio, record.min_radius)
        if [x.hex() for x in got] != [x.hex() for x in expected]:
            return False
    return True


def new_level(t: float) -> tuple:
    """``(t,)``, the ``t_new`` argument of the step that ends at t, for a
    kernel that takes it; ``()`` for a tree whose kernel forms t + dt."""
    from torusflow import stepping

    return (t,) if "t_new" in inspect.signature(stepping._advance).parameters else ()


def stepper(scheme: str, forced: bool, current, previous):
    """One step of ``scheme`` from the states (current, previous): an
    unforced step repeats the step from t = dt, a forced one takes step
    m of a run, from t_{m-1} to t_m = m dt, for m = 2, 3, ..."""
    from torusflow import manufactured_forcing, stepping

    step = stepping._STEPPERS[stepping.SchemeKind(scheme)]
    if not forced:
        level = new_level(2 * DT)
        return lambda: step(current, previous, DT, DT, None, *level)
    source, grid = manufactured_forcing(), itertools.count(2)
    takes_new_level = bool(new_level(0.0))

    def consecutive():
        m = next(grid)
        level = (m * DT,) if takes_new_level else ()
        return step(current, previous, (m - 1) * DT, DT, source, *level)

    return consecutive


def measure(number: int) -> dict:
    """Microseconds per step of every case and of the straight-line CN
    step, for the torusflow importable in this process."""
    import numpy as np

    from torusflow import interpolate, manufactured_solution, torus_circle
    from torusflow import cyclic_solver, stepping
    from torusflow.curves import CurveStack

    out = {}
    for B, J in SHAPES:
        start = np.stack([interpolate(torus_circle(0.6 + 0.01 * i), J).positions for i in range(B)])
        # the kernel's component-major form, (2, B, J)
        previous = CurveStack(np.ascontiguousarray(start.transpose(2, 0, 1)))
        bootstrap = stepping._STEPPERS[stepping.SchemeKind.BDF1]
        current, failures = bootstrap(previous, None, 0.0, DT, None, *new_level(DT))
        if failures:
            raise RuntimeError(f"the bootstrap step failed: {failures}")
        runs = {
            f"{scheme}{'_forced' if forced else ''} {B}x{J}": stepper(scheme, forced, current, previous)
            for scheme, forced in CASES
        }
        x, x_prev = current._components, previous._components
        floor = straight_cn(x, x_prev, DT, cyclic_solver.lapack, cyclic_solver.RESIDUAL_RTOL)
        kernel = stepping._STEPPERS[stepping.SchemeKind.CN](current, previous, DT, DT, None, *new_level(2 * DT))[0]
        if floor is None or not np.array_equal(floor, kernel._components):
            raise RuntimeError(f"the straight-line CN step differs from the kernel at {B} x {J}")
        runs[f"floor {B}x{J}"] = lambda: straight_cn(
            x, x_prev, DT, cyclic_solver.lapack, cyclic_solver.RESIDUAL_RTOL
        )
        exact = manufactured_solution()
        if not check_records(current, exact, DT):
            raise RuntimeError(f"a member's record differs from its checked copy's at {B} x {J}")
        runs[f"record {B}x{J}"] = lambda: records(current, exact, DT)
        # every run of this shape in turn, repeat by repeat
        timers = {key: timeit.Timer(run) for key, run in runs.items()}
        for _ in range(7):
            for key, timer in timers.items():
                seconds = timer.timeit(number)
                out[key] = min(out.get(key, seconds), seconds)
        for key in timers:
            out[key] *= 1e6 / number
        out[f"record {B}x{J}"] /= B
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="*", help="source trees (directories holding torusflow)")
    parser.add_argument("--number", type=int, default=2000, help="steps per repeat")
    parser.add_argument("--rounds", type=int, default=3, help="alternating rounds over the trees")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.number)))
        return
    trees = args.src or [os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")]
    best: list[dict] = [{} for _ in trees]
    ratios: list[dict] = [{} for _ in trees]
    for round_ in range(args.rounds):
        order = list(zip(trees, best, ratios))
        for tree, seen, seen_ratios in order if round_ % 2 == 0 else order[::-1]:
            env = {**os.environ, "PYTHONPATH": os.path.abspath(tree)}
            command = [sys.executable, os.path.abspath(__file__), "--child", "--number", str(args.number)]
            result = json.loads(subprocess.run(command, env=env, capture_output=True, check=True).stdout)
            for key, value in result.items():
                seen[key] = min(seen.get(key, value), value)
                name, shape = key.split()
                if name != "floor":
                    seen_ratios.setdefault(key, []).append(value / result[f"floor {shape}"])
    per_floor = [{key: statistics.median(r) for key, r in tree.items()} for tree in ratios]
    names = [f"{scheme}{'_forced' if forced else ''}" for scheme, forced in CASES] + ["floor", "record"]
    print("us per step (per floor); [i] is tree i")
    print(" | ".join(["B x J"] + [f"{name} [{i}]" for name in names for i in range(len(trees))]))
    for B, J in SHAPES:
        row = [f"{B} x {J}"]
        for name in names:
            for i in range(len(trees)):
                key = f"{name} {B}x{J}"
                ratio = f" ({per_floor[i][key]:.3f})" if key in per_floor[i] else ""
                row.append(f"{best[i][key]:.1f}{ratio}")
        print(" | ".join(row))
    trees = [os.path.abspath(t) for t in trees]
    print(json.dumps({"trees": trees, "us_per_step": best, "per_floor": per_floor}))


if __name__ == "__main__":
    main()
