"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow way: dense matrices,
per-element Python loops and generic Gauss quadrature on the piecewise
linear integrands, sharing no code path with the vectorized closed-form
assembly under test.
"""

import math

import numpy as np

GAUSS5_NODES, GAUSS5_WEIGHTS = np.polynomial.legendre.leggauss(5)
GAUSS5_NODES = 0.5 * (GAUSS5_NODES + 1.0)
GAUSS5_WEIGHTS = 0.5 * GAUSS5_WEIGHTS


def dense_mass(positions):
    """Dense matrix of integrals r(rho) * |W_rho|^2 * phi_a * phi_b."""
    J = len(positions)
    h = 1.0 / J
    out = np.zeros((J, J))
    for j in range(J):
        a = (j - 1) % J  # left node of element j
        b = j
        ra, rb = positions[a, 0], positions[b, 0]
        edge = positions[b] - positions[a]
        speed_sq = (edge @ edge) / h**2
        for s, w in zip(GAUSS5_NODES, GAUSS5_WEIGHTS):
            rad = ra * (1.0 - s) + rb * s
            basis = np.array([1.0 - s, s])
            for ia, na in ((0, a), (1, b)):
                for ib, nb in ((0, a), (1, b)):
                    out[na, nb] += h * w * rad * speed_sq * basis[ia] * basis[ib]
    return out


def dense_stiffness(positions):
    """Dense matrix of integrals r(rho) * phi_a' * phi_b'."""
    J = len(positions)
    h = 1.0 / J
    out = np.zeros((J, J))
    for j in range(J):
        a = (j - 1) % J
        b = j
        ra, rb = positions[a, 0], positions[b, 0]
        grad = np.array([-1.0 / h, 1.0 / h])
        for s, w in zip(GAUSS5_NODES, GAUSS5_WEIGHTS):
            rad = ra * (1.0 - s) + rb * s
            for ia, na in ((0, a), (1, b)):
                for ib, nb in ((0, a), (1, b)):
                    out[na, nb] += h * w * rad * grad[ia] * grad[ib]
    return out


def dense_radial_load(positions):
    """Dense load of integrals |W_rho|^2 * phi_a, radial component only."""
    J = len(positions)
    h = 1.0 / J
    out = np.zeros((J, 2))
    for j in range(J):
        a = (j - 1) % J
        b = j
        edge = positions[b] - positions[a]
        speed_sq = (edge @ edge) / h**2
        for s, w in zip(GAUSS5_NODES, GAUSS5_WEIGHTS):
            out[a, 0] += h * w * speed_sq * (1.0 - s)
            out[b, 0] += h * w * speed_sq * s
    return out


def dense_source_load(f, J, t, npts=10):
    """Hat moments of a source field by high-order Gauss per element."""
    nodes, weights = np.polynomial.legendre.leggauss(npts)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    h = 1.0 / J
    out = np.zeros((J, 2))
    for j in range(J):
        a = (j - 1) % J
        b = j
        for s, w in zip(nodes, weights):
            rho = ((j - 1) + s) * h
            val = np.asarray(f(np.array([rho % 1.0]), t), dtype=float)[0]
            out[a] += h * w * (1.0 - s) * val
            out[b] += h * w * s * val
    return out


def _hat_moments(vals, s, wts):
    """Hat-function moments of field values at the Gauss points of each
    element, vals of shape (..., J, npts, 2) -> (..., J, 2), the whole
    grid in one piece: node j takes the rising moment of element j and
    the falling one of element j + 1.  Written with the package's einsum
    on purpose, it is the one-shot reference that the blocked load build
    must equal bit for bit."""
    h = 1.0 / vals.shape[-3]
    falling = h * np.einsum("g,...jgc->...jc", wts * (1.0 - s), vals)
    rising = h * np.einsum("g,...jgc->...jc", wts * s, vals)
    return rising + np.roll(falling, -1, axis=-2)


def dense_step(scheme, cur, prev, dt, t, source=None):
    """End-to-end reference step built from the dense oracles.

    scheme is 'bdf1', 'cn' or 'bdf2'; cur/prev are (J, 2) position
    arrays (prev may be None for bdf1); returns the new positions.
    """
    J = len(cur)
    if scheme == "bdf1":
        weight = cur
        mass = dense_mass(weight)
        stiff = dense_stiffness(weight)
        matrix = mass / dt + stiff
        rhs = mass @ cur / dt - dense_radial_load(weight)
        t_src = t + dt
    elif scheme == "cn":
        weight = 1.5 * cur - 0.5 * prev
        mass = dense_mass(weight)
        stiff = dense_stiffness(weight)
        matrix = mass / dt + 0.5 * stiff
        rhs = mass @ cur / dt - 0.5 * (stiff @ cur) - dense_radial_load(weight)
        t_src = None
    elif scheme == "bdf2":
        weight = 2.0 * cur - prev
        mass = dense_mass(weight)
        stiff = dense_stiffness(weight)
        matrix = 1.5 * mass / dt + stiff
        rhs = mass @ (4.0 * cur - prev) / (2.0 * dt) - dense_radial_load(weight)
        t_src = t + dt
    else:
        raise ValueError(scheme)
    if source is not None:
        if t_src is None:
            rhs = rhs + 0.5 * (
                dense_source_load(source, J, t)
                + dense_source_load(source, J, t + dt)
            )
        else:
            rhs = rhs + dense_source_load(source, J, t_src)
    return np.linalg.solve(matrix, rhs)


def diameter_pairwise(pts):
    """Largest distance over all O(J^2) node pairs."""
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(float((diff * diff).sum(axis=2).max()))


def loop_surface_obj(curve, segments):
    """OBJ text of the revolved surface, one vertex and face at a time."""
    J = curve.node_count
    lines = []
    for j in range(J):
        r = float(curve.positions[j, 0])
        z = float(curve.positions[j, 1])
        for k in range(segments):
            phi = 2.0 * math.pi * k / segments
            lines.append(f"v {r * math.cos(phi)!r} {z!r} {r * math.sin(phi)!r}")

    def vid(j, k):
        return 1 + (j % J) * segments + (k % segments)

    for j in range(J):
        for k in range(segments):
            a, b, c, d = vid(j, k), vid(j + 1, k), vid(j + 1, k + 1), vid(j, k + 1)
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    return "\n".join(lines) + "\n"


def thomas_like_dense_solve(dense, rhs):
    """Plain dense LU with partial pivoting, the solver cross-check route."""
    return np.linalg.solve(dense, rhs)


def random_admissible_positions(rng, J, r_min=0.3, r_max=3.0, z_span=1.0):
    """Random closed polygon staying in r > 0 with distinct nodes."""
    for _ in range(100):
        r = rng.uniform(r_min, r_max, size=J)
        z = rng.uniform(-z_span, z_span, size=J)
        pos = np.column_stack([r, z])
        edges = pos - np.roll(pos, 1, axis=0)
        if np.hypot(edges[:, 0], edges[:, 1]).min() > 1e-3:
            return pos
    raise AssertionError("failed to draw an admissible polygon")


def polygon_winding(points, about=None):
    """Winding number of a closed polygon about a point."""
    pts = np.asarray(points, dtype=float)
    if about is None:
        about = pts.mean(axis=0)
    rel = pts - about
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    dist = np.diff(np.concatenate([ang, ang[:1]]))
    dist = (dist + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(dist.sum() / (2.0 * np.pi)))


def plain_bisection(lower, upper, tol, classify):
    """Serial bisection: classify both endpoints, then one midpoint at a
    time until the bracket is no wider than tol.  ``classify`` maps a
    radius to its StopEvent; returns (lower, upper, probes)."""
    probes = [(lower, classify(lower)), (upper, classify(upper))]
    while upper - lower > tol:
        mid = 0.5 * (lower + upper)
        event = classify(mid)
        probes.append((mid, event))
        if event.kind.value == "axis_touch":
            upper = mid
        else:
            lower = mid
    return lower, upper, probes


def l2_error_gauss5_roll(positions, exact, t):
    """The gauss5 L2 error with element left endpoints taken by np.roll."""
    J = len(positions)
    h = 1.0 / J
    s, w = GAUSS5_NODES, GAUSS5_WEIGHTS
    rho = (np.arange(J)[:, None] - 1.0 + s[None, :]) * h
    vals = exact(rho.ravel() % 1.0, t).reshape(J, len(s), 2)
    left = np.roll(positions, 1, axis=0)
    poly = left[:, None, :] * (1.0 - s)[None, :, None] + positions[:, None, :] * s[None, :, None]
    diff = poly - vals
    return math.sqrt(h * float(np.einsum("g,jgc->", w, diff * diff)))


def h1_error_nodal_roll(positions, exact, t):
    """The nodal H1 seminorm error with left endpoints taken by np.roll."""
    J = len(positions)
    h = 1.0 / J
    slope = (positions - np.roll(positions, 1, axis=0)) / h
    dx = exact.d_rho(np.arange(J, dtype=float) / J, t)
    a = np.roll(dx, 1, axis=0) - slope
    b = dx - slope
    return math.sqrt(0.5 * h * float((a * a).sum() + (b * b).sum()))


def superconvergence_error_roll(positions, exact, t):
    """The closed-form superconvergence distance with np.roll."""
    J = len(positions)
    h = 1.0 / J
    gap = exact(np.arange(J, dtype=float) / J, t) - positions
    left = np.roll(gap, 1, axis=0)
    l2_sq = h / 3.0 * float((left * left + left * gap + gap * gap).sum())
    jump = gap - left
    return math.sqrt(l2_sq + float((jump * jump).sum()) / h)
