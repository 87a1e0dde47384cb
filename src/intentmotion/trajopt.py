"""Goal-constrained full-body motion prediction.

A small GRU predictor (hidden width 64) consumes the previous state,
the previous state difference (velocity channel), and an additive
control vector per predicted step, and emits a residual added to the
previous state.  With zero controls the unroll is the network's
unconstrained prediction; optimizing the controls with L-BFGS against

    L = a1 * ||delta||^2  +  a2 * ||wrist(final state) - target||^2

bends the rollout so the right wrist ends at the goal while staying
close to the learned dynamics.  Place goals target a hover point a
fixed offset above the predicted place position; grasp goals target
the point itself.

The optimizer runs on plain numpy: ``warm_start`` runs the observed
frames once per problem, ``rollout`` steps the cell over the horizon and
``rollout_adjoint`` back-propagates through time to d(loss)/d(controls).
The tape version (``unroll``, ``c_goalset``, ``c_lowlevel``) computes the
same states, bit for bit, and is the reference the numpy path is tested
against; predictor training still runs on the tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import scene as sc
from .autodiff import ParamStore, Tensor

STATE_DIM = 3 * sc.NUM_JOINTS  # 39
HIDDEN = 64
OBSERVED_FRAMES = 20
HORIZON = 30
FRAME_DT = 0.05  # 20 Hz
HOVER_OFFSET = 0.05  # meters above a place goal: the wrist height at release


class TrajoptError(RuntimeError):
    """Non-finite states or optimizer failure."""


@dataclass
class ShortTermPredictor:
    store: ParamStore
    hidden: int = HIDDEN
    state_dim: int = STATE_DIM


@dataclass
class PredictionProblem:
    """One goal-constrained prediction instance."""
    observed: np.ndarray  # (t, 39)
    goal: np.ndarray  # p*, 3D world point
    goal_mode: str = "place"  # "place" hovers above p*, "grasp" targets it
    horizon: int = HORIZON
    alpha1: float = 1.0
    alpha2: float = 10.0
    wrist_index: int = sc.R_WRIST

    def __post_init__(self):
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ValueError("objective weights must be >= 0")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.goal_mode not in ("place", "grasp"):
            raise ValueError(f"unknown goal_mode {self.goal_mode!r}")

    @property
    def target(self):
        t = np.asarray(self.goal, dtype=float).copy()
        if self.goal_mode == "place":
            t[2] += HOVER_OFFSET
        return t


def build_predictor(seed=0, hidden=HIDDEN, state_dim=STATE_DIM):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    n_in = 2 * state_dim
    for gate in ("z", "r", "h"):
        store.glorot(f"gru/w{gate}", (n_in, hidden), n_in, hidden, rng)
        store.glorot(f"gru/u{gate}", (hidden, hidden), hidden, hidden, rng)
        store.add(f"gru/b{gate}", np.zeros(hidden))
    # small residual head: the initial rollout stays close to constant
    # extrapolation, which keeps early self-fed training stable
    w = store.glorot("out/w", (hidden, state_dim), hidden, state_dim, rng)
    w.values *= 0.02
    store.add("out/b", np.zeros(state_dim))
    return ShortTermPredictor(store=store, hidden=hidden, state_dim=state_dim)


def _gru_step(store, x, h):
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, store["gru/wz"]),
                                 ad.matmul(h, store["gru/uz"])), store["gru/bz"]))
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, store["gru/wr"]),
                                 ad.matmul(h, store["gru/ur"])), store["gru/br"]))
    hh = ad.tanh(ad.add(ad.add(ad.matmul(x, store["gru/wh"]),
                               ad.matmul(ad.mul(r, h), store["gru/uh"])),
                        store["gru/bh"]))
    return ad.add(ad.mul(ad.sub(1.0, z), h), ad.mul(z, hh))


def _warmup(predictor, observed, batch=1):
    """Run the observed frames through the cell; returns (h, s, v) tensors."""
    store = predictor.store
    obs = np.asarray(observed, dtype=float)
    if obs.ndim == 2:
        obs = obs[None]  # (B, t, D)
    b, t, d_ = obs.shape
    h = Tensor(np.zeros((b, predictor.hidden)), requires_grad=False)
    prev = obs[:, 0]
    vel = np.zeros_like(prev)
    for i in range(t):
        vel = obs[:, i] - prev if i > 0 else np.zeros_like(prev)
        x = np.concatenate([obs[:, i], vel], axis=-1)
        h = _gru_step(store, x, h)
        prev = obs[:, i]
    return h, Tensor(obs[:, -1], requires_grad=False), Tensor(vel, requires_grad=False)


def unroll(predictor, observed, delta):
    """Predicted future states as a (horizon, 39) tape tensor.

    ``delta`` is a Tensor or array of shape (horizon, 39); each step's
    control is added to the predicted state update, so the perturbed
    state feeds back into the following steps and the rollout stays
    differentiable with respect to the controls.
    """
    store = predictor.store
    delta = delta if isinstance(delta, Tensor) else Tensor(np.asarray(delta, dtype=float))
    horizon = delta.values.shape[0]
    h, s, v = _warmup(predictor, observed)
    outputs = []
    for k in range(horizon):
        dstep = ad.reshape(delta[k], (1, predictor.state_dim))
        x = ad.concat([s, v], axis=-1)
        h = _gru_step(store, x, h)
        residual = ad.add(ad.matmul(h, store["out/w"]), store["out/b"])
        s_next = ad.add(ad.add(s, residual), dstep)
        if not np.all(np.isfinite(s_next.values)):
            raise TrajoptError(f"non-finite state at prediction step {k}")
        v = ad.sub(s_next, s)
        s = s_next
        outputs.append(s)
    stacked = ad.concat([ad.reshape(o, (1, predictor.state_dim)) for o in outputs],
                        axis=0)
    return stacked


def c_lowlevel(delta):
    """Squared norm of the controls, as a tape scalar."""
    delta = delta if isinstance(delta, Tensor) else Tensor(np.asarray(delta, dtype=float))
    return ad.sum_sq(delta)


def c_goalset(predictor, observed, delta, target, wrist_index=sc.R_WRIST):
    """Squared distance of the final-frame wrist to the target point."""
    traj = unroll(predictor, observed, delta)
    lo = 3 * wrist_index
    wrist = traj[traj.values.shape[0] - 1, lo:lo + 3]
    return ad.sum_sq(ad.sub(wrist, Tensor(np.asarray(target, dtype=float))))


# ---------------------------------------------------------------------------
# plain-numpy rollout and its adjoint (backpropagation through time)
#
# The forward computes the sums of ``_gru_step`` and ``unroll`` in the
# same order on the same (1, n) shapes, so its states equal the tape's
# bit for bit.

_GRU_NAMES = ("gru/wz", "gru/uz", "gru/bz", "gru/wr", "gru/ur", "gru/br",
              "gru/wh", "gru/uh", "gru/bh", "out/w", "out/b")


def _np_gru_step(w, x, h):
    """One cell step on arrays: (h_new, z, r, c)."""
    wz, uz, bz, wr, ur, br, wh, uh, bh = w[:9]
    z = 1.0 / (1.0 + np.exp(-np.clip(x @ wz + h @ uz + bz, -500, 500)))
    r = 1.0 / (1.0 + np.exp(-np.clip(x @ wr + h @ ur + br, -500, 500)))
    c = np.tanh(x @ wh + (r * h) @ uh + bh)
    return (1.0 - z) * h + z * c, z, r, c


def warm_start(predictor, observed):
    """(h, s, v) after the observed frames, each a (1, n) array.

    The observed frames do not depend on the controls, so one warm start
    serves every rollout of a problem.
    """
    w = [predictor.store[n].values for n in _GRU_NAMES]
    obs = np.asarray(observed, dtype=float)
    h = np.zeros((1, predictor.hidden))
    vel = np.zeros((1, obs.shape[1]))
    for i in range(len(obs)):
        vel = obs[i:i + 1] - obs[i - 1:i] if i > 0 else np.zeros_like(vel)
        h = _np_gru_step(w, np.concatenate([obs[i:i + 1], vel], axis=-1), h)[0]
    return h, obs[-1:], vel


def rollout(predictor, start, delta):
    """Predicted states (horizon, D) from a warm start under controls.

    Returns (states, steps); ``steps`` holds each step's previous hidden
    state and gate activations (h, z, r, c) for ``rollout_adjoint``.
    """
    w = [predictor.store[n].values for n in _GRU_NAMES]
    out_w, out_b = w[9], w[10]
    h, s, v = start
    delta = np.asarray(delta, dtype=float)
    states = np.empty((delta.shape[0], predictor.state_dim))
    steps = []
    for k in range(delta.shape[0]):
        x = np.concatenate([s, v], axis=-1)
        h_new, z, r, c = _np_gru_step(w, x, h)
        s_next = s + (h_new @ out_w + out_b) + delta[k:k + 1]
        if not np.all(np.isfinite(s_next)):
            raise TrajoptError(f"non-finite state at prediction step {k}")
        steps.append((h, z, r, c))
        h, v, s = h_new, s_next - s, s_next
        states[k] = s[0]
    return states, steps


def rollout_adjoint(predictor, steps, grad_states):
    """d(loss)/d(controls), shape (horizon, D), given d(loss)/d(states).

    Walks the steps of ``rollout`` backward.  ``gs``, ``gv`` and ``gh``
    carry the loss gradient with respect to the state, velocity and
    hidden state that enter the next step.
    """
    wz, uz, _, wr, ur, _, wh, uh, _, out_w, _ = (
        predictor.store[n].values for n in _GRU_NAMES)
    d = predictor.state_dim
    grad_states = np.asarray(grad_states, dtype=float)
    grad = np.empty_like(grad_states)
    gs = np.zeros((1, d))
    gv = np.zeros((1, d))
    gh = np.zeros((1, predictor.hidden))
    for k in range(len(steps) - 1, -1, -1):
        h, z, r, c = steps[k]
        # s_next = s + residual + delta[k] and v_next = s_next - s
        g_next = gs + gv + grad_states[k:k + 1]
        grad[k] = g_next[0]
        gh = gh + g_next @ out_w.T
        # h_new = (1 - z) * h + z * c
        g_c = gh * z * (1.0 - c * c)
        g_rh = g_c @ uh.T
        g_z = gh * (c - h) * z * (1.0 - z)
        g_r = g_rh * h * r * (1.0 - r)
        g_x = g_z @ wz.T + g_r @ wr.T + g_c @ wh.T
        gh = gh * (1.0 - z) + g_rh * r + g_z @ uz.T + g_r @ ur.T
        gs = g_next - gv + g_x[:, :d]
        gv = g_x[:, d:]
    return grad


def goal_objective(predictor, start, delta, target, alpha1=1.0, alpha2=10.0,
                   wrist_index=sc.R_WRIST):
    """alpha1 * c_lowlevel + alpha2 * c_goalset from a warm start, and its
    gradient with respect to the controls: (value, (horizon, D) array)."""
    traj, steps = rollout(predictor, start, delta)
    lo = 3 * wrist_index
    miss = traj[-1, lo:lo + 3] - target
    value = np.sum(delta * delta) * alpha1 + np.sum(miss * miss) * alpha2
    grad_traj = np.zeros_like(traj)
    grad_traj[-1, lo:lo + 3] = 2.0 * alpha2 * miss
    grad = rollout_adjoint(predictor, steps, grad_traj)
    return float(value), grad + 2.0 * alpha1 * delta


# ---------------------------------------------------------------------------
# L-BFGS with two-loop recursion and Armijo backtracking


def lbfgs_minimize(objective, x0, memory=10, max_iters=100, tol=1e-6,
                   armijo_c1=1e-4, shrink=0.5, max_backtracks=30):
    """Minimize a differentiable objective over a flat vector.

    ``objective(x) -> (value, gradient)``.  Returns (x_best, history)
    where history carries the monotone objective sequence, iteration
    count, and a status flag ("converged", "max_iters",
    "line_search_failure").
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = objective(x)
    if not np.isfinite(f):
        raise TrajoptError("non-finite objective at the starting point")
    s_hist, y_hist = [], []
    values = [float(f)]
    status = "max_iters"
    iters = 0
    for iters in range(1, max_iters + 1):
        if np.max(np.abs(g)) < tol:
            status = "converged"
            iters -= 1
            break
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y in zip(reversed(s_hist), reversed(y_hist)):
            rho = 1.0 / (y @ s)
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if s_hist:
            s, y = s_hist[-1], y_hist[-1]
            q *= (s @ y) / (y @ y)
        for (s, y), a in zip(zip(s_hist, y_hist), reversed(alphas)):
            rho = 1.0 / (y @ s)
            b = rho * (y @ q)
            q += (a - b) * s
        d = -q
        if d @ g >= 0:  # fall back to steepest descent on a bad direction
            d = -g
            s_hist, y_hist = [], []
        # backtracking line search (Armijo)
        t = 1.0
        gd = g @ d
        accepted = False
        for _ in range(max_backtracks):
            f_new, g_new = objective(x + t * d)
            if np.isfinite(f_new) and f_new <= f + armijo_c1 * t * gd:
                accepted = True
                break
            t *= shrink
        if not accepted:
            status = "line_search_failure"
            break
        step = t * d
        x_new = x + step
        y_vec = g_new - g
        curv = step @ y_vec
        if curv > 1e-10 * np.linalg.norm(step) * np.linalg.norm(y_vec):
            s_hist.append(step)
            y_hist.append(y_vec)
            if len(s_hist) > memory:
                s_hist.pop(0)
                y_hist.pop(0)
        else:
            # negative curvature: the quasi-Newton model is unusable, so
            # restart from steepest descent instead of creeping on it
            s_hist, y_hist = [], []
        x, f, g = x_new, f_new, g_new
        values.append(float(f))
    else:
        iters = max_iters
    if status == "max_iters" and np.max(np.abs(g)) < tol:
        status = "converged"
    return x, {"values": values, "iterations": iters, "status": status}


def predict_fullbody(predictor, observed, goal, goal_mode="place", alpha1=1.0,
                     alpha2=10.0, horizon=HORIZON, wrist_index=sc.R_WRIST,
                     max_iters=60, tol=1e-6):
    """Optimize controls so the rollout's wrist ends at the goal.

    Returns (trajectory (horizon, 39), delta*, diagnostics).  With
    alpha2 = 0 the controls stay at zero and the output equals the
    unconstrained rollout.
    """
    problem = PredictionProblem(observed=np.asarray(observed, dtype=float),
                                goal=np.asarray(goal, dtype=float),
                                goal_mode=goal_mode, horizon=horizon,
                                alpha1=alpha1, alpha2=alpha2,
                                wrist_index=wrist_index)
    target = problem.target
    shape = (horizon, predictor.state_dim)
    lo = 3 * wrist_index
    start = warm_start(predictor, problem.observed)

    def objective(x):
        value, grad = goal_objective(predictor, start, x.reshape(shape),
                                     target, alpha1, alpha2, wrist_index)
        return value, grad.ravel()

    x_star, history = lbfgs_minimize(objective, np.zeros(shape).ravel(),
                                     max_iters=max_iters, tol=tol)
    delta_star = x_star.reshape(shape)
    traj, _ = rollout(predictor, start, delta_star)
    final_goal_dist = float(np.linalg.norm(traj[-1, lo:lo + 3] - target))
    diagnostics = {"c_goalset": final_goal_dist**2,
                   "goal_distance": final_goal_dist,
                   "delta_norm": float(np.linalg.norm(delta_star)),
                   "iterations": history["iterations"],
                   "status": history["status"],
                   "objective": history["values"]}
    return traj, delta_star, diagnostics


def zero_velocity_baseline(observed, horizon):
    """Repeat the last observed state for the whole horizon."""
    obs = np.asarray(observed, dtype=float)
    return np.repeat(obs[-1][None], horizon, axis=0)


# ---------------------------------------------------------------------------
# predictor training (scheduled sampling on 50-frame windows)


def _clip_gradients(store, max_norm):
    """Scale all gradients down when their global norm exceeds max_norm."""
    total = 0.0
    grads = [t.grad for n, t in store.params.items()
             if store.trainable[n] and t.grad is not None]
    for g in grads:
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def train_predictor(windows, epochs, lr=1e-3, seed=0, batch=32,
                    observed=OBSERVED_FRAMES, ramp_epochs=None,
                    clip_norm=1.0):
    """Train the recurrent predictor on (N, 50, 39) windows.

    The first ``observed`` frames warm up the hidden state; the rest are
    predicted.  Scheduled sampling feeds the model its own prediction
    with a probability ramping linearly from 0 (teacher forced) to 1
    (self-fed) over ``ramp_epochs`` (default: half the epochs).
    Returns (predictor, per-epoch MSE curve).
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 3 or windows.shape[2] != STATE_DIM:
        raise TrajoptError(f"windows must be (N, T, {STATE_DIM})")
    n, t, d_ = windows.shape
    horizon = t - observed
    predictor = build_predictor(seed)
    store = predictor.store
    rng = np.random.default_rng(seed)
    ramp = ramp_epochs if ramp_epochs is not None else max(1, epochs // 2)
    curve = []
    for epoch in range(epochs):
        p_self = min(1.0, epoch / ramp)
        order = rng.permutation(n)
        total, count = 0.0, 0
        for lo_i in range(0, n, batch):
            idx = order[lo_i:lo_i + batch]
            obs = windows[idx, :observed]
            future = windows[idx, observed:]
            b = len(idx)
            h, s, v = _warmup(predictor, obs)
            losses = []
            for k in range(horizon):
                x = ad.concat([s, v], axis=-1)
                h = _gru_step(store, x, h)
                residual = ad.add(ad.matmul(h, store["out/w"]), store["out/b"])
                s_next = ad.add(s, residual)
                diff = ad.sub(s_next, future[:, k])
                losses.append(ad.sum_(ad.mul(diff, diff)))
                # scheduled sampling: self-fed rows keep gradient flow,
                # teacher-forced rows take the ground-truth frame
                use_self = rng.random(b) < p_self
                s_mixed = ad.add(ad.mul(s_next, use_self[:, None].astype(float)),
                                 future[:, k] * (~use_self)[:, None])
                v = ad.sub(s_mixed, s)
                s = s_mixed
            loss = ad.mul(_sum_list(losses), 1.0 / (b * horizon * d_))
            if not np.isfinite(loss.item()):
                raise TrajoptError(f"training diverged at epoch {epoch}")
            store.zero_grad()
            ad.backward(loss)
            _clip_gradients(store, clip_norm)
            store.adam_step(lr)
            total += loss.item() * b
            count += b
        curve.append(total / count)
    return predictor, curve


def _sum_list(tensors):
    total = tensors[0]
    for t in tensors[1:]:
        total = ad.add(total, t)
    return total


# ---------------------------------------------------------------------------
# evaluation (per-timestep error table)

EVAL_OFFSETS_MS = (250, 500, 750, 1000, 1250, 1500)
METHODS = ("zerovel", "unconstrained", "ours", "oracle")


def _errors(pred, truth):
    """(body, wrist) error per frame: 9-key-joint sum and wrist distance."""
    pred = pred.reshape(pred.shape[0], sc.NUM_JOINTS, 3)
    truth = truth.reshape(truth.shape[0], sc.NUM_JOINTS, 3)
    dists = np.linalg.norm(pred - truth, axis=2)  # (T, 13)
    body = dists[:, list(sc.KEY_JOINTS)].sum(axis=1)
    wrist = dists[:, sc.R_WRIST]
    return body, wrist


def evaluate_prediction(predictor, problems, methods=METHODS, alpha1=1.0,
                        alpha2=10.0, max_iters=60):
    """Per-timestep error table over goal-constrained place episodes.

    Each problem dict needs: observed (20, 39), future (30, 39), and
    goals: "affordance" (predicted place point, world) and "oracle"
    (true final wrist position).  The oracle targets that wrist point
    exactly (grasp mode, no hover offset), so its 1500 ms wrist error is
    zero by construction, up to the optimizer's residual goal distance,
    and no goal source can beat it on that error.  The body error has no
    such floor.  Episodes shorter than the
    horizon are skipped and counted.  Returns {"table": {method: {"body":
    {ms: err}, "wrist": ...}}, "skipped": int, "episodes": int}.
    """
    sums = {m: {"body": np.zeros(len(EVAL_OFFSETS_MS)),
                "wrist": np.zeros(len(EVAL_OFFSETS_MS))} for m in methods}
    used = 0
    skipped = 0
    frame_idx = [int(ms / 1000 / FRAME_DT) - 1 for ms in EVAL_OFFSETS_MS]
    for prob in problems:
        future = np.asarray(prob["future"], dtype=float)
        if future.shape[0] < HORIZON:
            skipped += 1
            continue
        observed = np.asarray(prob["observed"], dtype=float)
        preds = {}
        if "zerovel" in methods:
            preds["zerovel"] = zero_velocity_baseline(observed, HORIZON)
        if "unconstrained" in methods:
            preds["unconstrained"], _ = rollout(
                predictor, warm_start(predictor, observed),
                np.zeros((HORIZON, predictor.state_dim)))
        if "ours" in methods:
            preds["ours"], _, _ = predict_fullbody(
                predictor, observed, prob["goals"]["affordance"],
                goal_mode="place", alpha1=alpha1, alpha2=alpha2,
                max_iters=max_iters)
        if "oracle" in methods:
            preds["oracle"], _, _ = predict_fullbody(
                predictor, observed, prob["goals"]["oracle"],
                goal_mode="grasp", alpha1=alpha1, alpha2=alpha2,
                max_iters=max_iters)
        for m in methods:
            body, wrist = _errors(preds[m], future[:HORIZON])
            sums[m]["body"] += body[frame_idx]
            sums[m]["wrist"] += wrist[frame_idx]
        used += 1
    if used == 0:
        raise TrajoptError("no usable evaluation episodes")
    table = {m: {"body": dict(zip(EVAL_OFFSETS_MS, sums[m]["body"] / used)),
                 "wrist": dict(zip(EVAL_OFFSETS_MS, sums[m]["wrist"] / used))}
             for m in methods}
    return {"table": table, "skipped": skipped, "episodes": used}


def export_trajectory_csv(trajectory, path):
    """CSV with columns (frame, joint, x, y, z)."""
    traj = np.asarray(trajectory, dtype=float).reshape(-1, sc.NUM_JOINTS, 3)
    with open(path, "w") as f:
        f.write("frame,joint,x,y,z\n")
        for t in range(traj.shape[0]):
            for j in range(sc.NUM_JOINTS):
                x, y, z = traj[t, j]
                f.write(f"{t},{sc.JOINT_NAMES[j]},{x:.9g},{y:.9g},{z:.9g}\n")
