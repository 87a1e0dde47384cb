"""Reference computations the workloads check the library against.

Each one is written here, apart from the library, from the method's
definition: the GRU rollout from the stored weights, the responsible
mixture component, a brute-force signed distance field, the
nearest-valid-cell placement baseline over all cells at once, and
central differences.  Each check returns a list of messages, empty when
the output passes.
"""

from __future__ import annotations

import numpy as np

# -- predict ---------------------------------------------------------------


def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def gru_rollout(weights, observed, delta):
    """(horizon, D) states of the residual GRU predictor under controls.

    ``weights`` maps the predictor's parameter names to arrays.  The 20
    observed frames warm the hidden state up with (state, velocity)
    inputs; each predicted step adds the output residual and the step's
    control to the previous state.
    """
    w = weights

    def step(x, h):
        z = _sigmoid(x @ w["gru/wz"] + h @ w["gru/uz"] + w["gru/bz"])
        r = _sigmoid(x @ w["gru/wr"] + h @ w["gru/ur"] + w["gru/br"])
        c = np.tanh(x @ w["gru/wh"] + (r * h) @ w["gru/uh"] + w["gru/bh"])
        return (1.0 - z) * h + z * c

    obs = np.asarray(observed, dtype=float)
    h = np.zeros(w["gru/uz"].shape[0])
    vel = np.zeros(obs.shape[1])
    for i in range(len(obs)):
        vel = obs[i] - obs[i - 1] if i else np.zeros(obs.shape[1])
        h = step(np.concatenate([obs[i], vel]), h)
    s = obs[-1]
    out = []
    for d in np.asarray(delta, dtype=float):
        h = step(np.concatenate([s, vel]), h)
        nxt = s + (h @ w["out/w"] + w["out/b"]) + d
        vel, s = nxt - s, nxt
        out.append(s)
    return np.array(out)


def responsible_component(alpha, mu, sigma, x, spread):
    """argmax_k log alpha_k + log N(x; mu_k, diag(sigma_k^2 + spread^2))."""
    var = sigma ** 2 + spread ** 2
    with np.errstate(divide="ignore"):
        log_alpha = np.log(alpha)
    score = log_alpha - 0.5 * np.sum(
        (x - mu) ** 2 / var + np.log(2.0 * np.pi * var), axis=1)
    return int(np.argmax(score))


ROLLOUT_TOL = 1e-9


def check_prediction(weights, observed, goal, traj, delta, diag, dist, table,
                     wrist, hover, spread, alpha1, alpha2):
    """Messages for one goal-constrained place prediction, and the
    zero-control rollout they were checked against."""
    bad = []
    free = gru_rollout(weights, observed, np.zeros_like(delta))
    ours = gru_rollout(weights, observed, delta)
    lo = 3 * wrist
    if np.max(np.abs(ours - traj)) > ROLLOUT_TOL:
        bad.append("returned trajectory differs from the GRU rollout "
                   "under the returned controls")
    if np.any(np.diff(diag["objective"]) > 0):
        bad.append("objective history increases")
    target = np.array([goal[0], goal[1], goal[2] + hover])
    d0 = np.sum((free[-1, lo:lo + 3] - target) ** 2)
    d_star = np.sum((ours[-1, lo:lo + 3] - target) ** 2)
    cost = alpha1 * np.sum(delta ** 2) + alpha2 * d_star
    if cost > alpha2 * d0 * (1 + 1e-12):
        bad.append(f"optimised cost {cost} above the zero-control cost "
                   f"{alpha2 * d0}")
    origin = np.asarray(table.frame_origin)
    k = responsible_component(dist.alpha, dist.mu, dist.sigma,
                              free[-1, lo:lo + 2] - origin, spread)
    want = np.append(dist.mu[k] + origin, table.height)
    if not np.array_equal(np.asarray(goal), want):
        bad.append(f"goal {goal} is not the responsible component's mean "
                   f"at table height {want}")
    return bad, free


# -- train -----------------------------------------------------------------


def central_difference_check(loss_fn, params, picks, eps=1e-6, rtol=1e-5,
                             atol=1e-7):
    """Compare tape gradients with central differences at sampled entries.

    ``loss_fn()`` rebuilds the scalar loss tensor; ``params`` maps names
    to tensors whose ``grad`` holds the tape gradient; ``picks`` lists
    (name, flat index) pairs.
    """
    bad = []
    for name, i in picks:
        t = params[name]
        flat = t.values.reshape(-1)
        old = flat[i]
        flat[i] = old + eps
        up = loss_fn().item()
        flat[i] = old - eps
        down = loss_fn().item()
        flat[i] = old
        fd = (up - down) / (2 * eps)
        g = t.grad.reshape(-1)[i]
        if abs(fd - g) > atol + rtol * max(abs(fd), abs(g)):
            bad.append(f"{name}[{i}]: tape {g!r}, central difference {fd!r}")
    return bad


def top_component_mse(dists, labels):
    """Mean squared distance from each label to its top-weight mean."""
    se = [float(np.sum((d.mu[int(np.argmax(d.alpha))] - y) ** 2))
          for d, y in zip(dists, labels)]
    return float(np.mean(se))


# -- dataset ---------------------------------------------------------------


def brute_sdf(occupancy):
    """Signed distance in cells by scanning every cell pair.

    Free cells: distance to the nearest occupied cell or to the nearest
    cell of the ring just outside the grid.  Occupied cells: minus the
    distance to the nearest free cell (0 free cells: minus 2 * side).
    """
    occ = np.asarray(occupancy) != 0
    n = occ.shape[0]
    ii, jj = np.meshgrid(np.arange(-1, n + 1), np.arange(-1, n + 1),
                         indexing="ij")
    ring = (ii < 0) | (jj < 0) | (ii >= n) | (jj >= n)
    inner = ~ring
    blocked = ring.copy()
    blocked[inner] = occ.ravel()
    cells = np.stack([ii[inner], jj[inner]], axis=1).astype(float)

    def nearest(mask_points):
        if len(mask_points) == 0:
            return np.full(len(cells), 2.0 * n)
        diff = cells[:, None, :] - mask_points[None, :, :]
        return np.sqrt((diff ** 2).sum(axis=-1)).min(axis=1)

    to_blocked = nearest(np.stack([ii[blocked], jj[blocked]], axis=1).astype(float))
    free_pts = cells[~occ.ravel()]
    to_free = nearest(free_pts)
    sdf = np.where(occ.ravel(), -to_free, to_blocked)
    return sdf.reshape(n, n)


def occupancy(plane, objects, tol=0.02):
    """Cells whose center lies in an object footprint resting on the plane."""
    n = plane.grid_resolution[0]
    w, d = plane.extent
    xs = -w / 2 + (w / n) * (np.arange(n) + 0.5)
    ys = -d / 2 + (d / n) * (np.arange(n) + 0.5)
    cx, cy = np.meshgrid(xs, ys, indexing="ij")
    occ = np.zeros((n, n), dtype=bool)
    for o in objects:
        if abs(o.position[2] - plane.height) > tol:
            continue
        dx = cx - (o.position[0] - plane.frame_origin[0])
        dy = cy - (o.position[1] - plane.frame_origin[1])
        c, s = np.cos(o.yaw), np.sin(o.yaw)
        occ |= (np.abs(c * dx + s * dy) <= o.half_extents[0]) & \
               (np.abs(-s * dx + c * dy) <= o.half_extents[1])
    return occ


def bilinear(sdf, cell_size, points):
    """Bilinear SDF lookup at plane-frame points (M, 2), minus the
    Euclidean overshoot past the outermost cell centers."""
    n = sdf.shape[0]
    p = np.atleast_2d(np.asarray(points, dtype=float))
    u = (p[:, 0] + cell_size[0] * n / 2) / cell_size[0] - 0.5
    v = (p[:, 1] + cell_size[1] * n / 2) / cell_size[1] - 0.5
    uc, vc = np.clip(u, 0, n - 1), np.clip(v, 0, n - 1)
    over = np.hypot(u - uc, v - vc)
    i0 = np.clip(np.floor(uc).astype(int), 0, n - 2)
    j0 = np.clip(np.floor(vc).astype(int), 0, n - 2)
    fu, fv = uc - i0, vc - j0
    val = ((1 - fu) * (1 - fv) * sdf[i0, j0] + (1 - fu) * fv * sdf[i0, j0 + 1]
           + fu * (1 - fv) * sdf[i0 + 1, j0] + fu * fv * sdf[i0 + 1, j0 + 1])
    return val - over


def check_place_contact(plane, objects, contact_xy, radius):
    """Messages when a place contact lacks ``radius`` of clearance."""
    rel = np.asarray(contact_xy) - np.asarray(plane.frame_origin)
    w, d = plane.extent
    if abs(rel[0]) > w / 2 - radius or abs(rel[1]) > d / 2 - radius:
        return [f"contact {contact_xy} within {radius} m of the rim"]
    cell = (w / plane.grid_resolution[0], d / plane.grid_resolution[1])
    sdf = brute_sdf(occupancy(plane, objects))
    have = bilinear(sdf, cell, rel)[0]
    if have < radius / min(cell):
        return [f"contact {contact_xy} clearance {have:.3f} cells, "
                f"needs {radius / min(cell):.3f}"]
    return []


def nearest_valid_cell_mse(data):
    """The SDF placement baseline's MSE, every cell of a sample at once.

    Per sample: keep cell centers inside the extent shrunk by the object
    radius whose interpolated SDF is at least the radius in cells, pick
    the one nearest the pelvis (first in row-major order on ties) and
    score it against the label.
    """
    se = []
    for i in range(len(data)):
        half = data.half_extent[i]
        cell = data.cell_size[i]
        n = data.features.shape[1]
        xs = -half[0] + cell[0] * (np.arange(n) + 0.5)
        ys = -half[1] + cell[1] * (np.arange(n) + 0.5)
        px, py = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([px.ravel(), py.ravel()], axis=1)
        r = data.radius[i]
        ok = (np.abs(pts[:, 0]) <= half[0] - r) & (np.abs(pts[:, 1]) <= half[1] - r)
        ok &= bilinear(data.features[i, ..., 3], cell, pts) >= r / min(cell)
        dist = np.hypot(pts[:, 0] - data.pelvis_plane[i, 0],
                        pts[:, 1] - data.pelvis_plane[i, 1])
        k = int(np.argmin(np.where(ok, dist, np.inf)))
        if not ok[k]:
            raise ValueError(f"sample {i}: no valid cell")
        se.append(float(np.sum((pts[k] - data.label[i]) ** 2)))
    return float(np.mean(se))
