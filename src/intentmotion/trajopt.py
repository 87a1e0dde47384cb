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

The optimizer and predictor training run on plain numpy.  For the
optimizer, ``warm_start`` runs the observed frames once per problem,
``rollout`` steps the cell over the horizon and ``rollout_adjoint``
back-propagates through time to d(loss)/d(controls), all on 1-D vectors
(a vector times a matrix is the same BLAS gemv call as a (1, n) row and
gives the same bits).  ``goal_objective``, the one numpy form of the
objective, hands L-BFGS its gradient as a function over the kept rollout
steps; the line search judges trial points by value alone, so the adjoint
runs only at the start and at each accepted step.  It computes the
control cost ``alpha1 * ||delta||^2`` first and skips the rollout when
that exceeds its ``bound``, the value at the last accepted point.
That keeps the bits: the full value ``fl(control + goal)`` with
``goal >= 0`` is at least ``control``, because rounding is monotone, and
the Armijo threshold ``f + c1 * t * (g . d)`` is at most ``f`` on a
descent direction, so the full evaluation would reject the trial too and
the iterates, counts and objective history do not change.  Training is one
``autodiff.minibatch_adam`` loop, the one every model trains through: each
step runs a batch of windows forward with scheduled sampling
(``_batch_forward``), and its deferred gradient goes back through time to
every parameter (``_batch_backward``); the loop clips the gradients
(``ParamStore.clip_grad_norm``) and applies the Adam update.  Both
backward passes go through one cell adjoint,
``_cell_adjoint``, and every sum runs in the order of the tape's backward
pass, so states, losses and gradients equal the tape's bit for bit.  The
tape version (``unroll``, ``c_goalset``, ``c_lowlevel``) is the reference
the numpy path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _warmup(predictor, observed):
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
# same order, on 1-D vectors where the tape has (1, n) rows, so its
# states equal the tape's bit for bit.  The adjoint adds the terms of
# each gradient in the order the tape's reverse topological walk adds
# them.

_GRU_NAMES = ("gru/wz", "gru/uz", "gru/bz", "gru/wr", "gru/ur", "gru/br",
              "gru/wh", "gru/uh", "gru/bh", "out/w", "out/b")


def _np_sigmoid(a):
    """The tape's ``sigmoid`` on arrays.  The clamp is ``np.clip``'s own
    formula, called without ``np.clip``'s Python wrapper, which costs more
    than the clamp itself on one GRU step's rows."""
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(a, -500.0), 500.0)))


def _np_gru_step(w, x, h):
    """One cell step on arrays: (h_new, z, r, c).

    ``x`` and ``h`` are (B, n) batches or, for one sequence, 1-D vectors;
    a vector times a matrix makes the same BLAS gemv call as a (1, n) row
    and gives the same bits.  The update and reset pre-activations share
    one buffer, so one sigmoid covers both gates; ``z`` and ``r`` are
    views of its halves.  ``np.dot`` makes the same BLAS call as ``@``
    without the gufunc dispatch.
    """
    wz, uz, bz, wr, ur, br, wh, uh, bh = w[:9]
    n = uz.shape[0]
    zr = np.empty(x.shape[:-1] + (2 * n,))
    np.add(np.dot(x, wz) + np.dot(h, uz), bz, out=zr[..., :n])
    np.add(np.dot(x, wr) + np.dot(h, ur), br, out=zr[..., n:])
    zr = _np_sigmoid(zr)
    z, r = zr[..., :n], zr[..., n:]
    c = np.tanh(np.dot(x, wh) + np.dot(r * h, uh) + bh)
    return (1.0 - z) * h + z * c, z, r, c


def warm_start(predictor, observed):
    """(h, s, v) after the observed frames: the hidden state, the last
    frame and the last velocity, each a 1-D array.

    The observed frames do not depend on the controls, so one warm start
    serves every rollout of a problem.  Each step's input [frame, velocity]
    is written into one reused vector of length 2D.
    """
    w = [predictor.store[n].values for n in _GRU_NAMES]
    obs = np.asarray(observed, dtype=float)
    d = obs.shape[1]
    h = np.zeros(predictor.hidden)
    x = np.zeros(2 * d)
    for i in range(len(obs)):
        x[:d] = obs[i]
        if i > 0:
            np.subtract(obs[i], obs[i - 1], out=x[d:])
        h = _np_gru_step(w, x, h)[0]
    return h, obs[-1], x[d:].copy()


def rollout(predictor, start, delta):
    """Predicted states (horizon, D) from a warm start under controls.

    ``start`` is ``warm_start``'s 1-D (h, s, v).  Returns (states, steps);
    ``steps`` holds each step's previous hidden state and gate activations
    (h, z, r, c), all 1-D, for ``rollout_adjoint``.  Step k reads its
    input [s, s - s_prev] from row k of one (horizon + 1, 2D) buffer and
    writes the next state and velocity into row k + 1, so no step
    concatenates or splits.  The states are checked once, after the loop:
    a non-finite state runs on through the remaining steps with
    floating-point warnings silenced, and the error names the first step
    whose state is not finite.
    """
    w = [predictor.store[n].values for n in _GRU_NAMES]
    out_w, out_b = w[9], w[10]
    h, s, v = start
    d = predictor.state_dim
    delta = np.asarray(delta, dtype=float)
    xs = np.empty((delta.shape[0] + 1, 2 * d))
    xs[0, :d] = s
    xs[0, d:] = v
    s = xs[0, :d]
    steps = []
    with np.errstate(all="ignore"):
        for k in range(delta.shape[0]):
            h_new, z, r, c = _np_gru_step(w, xs[k], h)
            steps.append((h, z, r, c))
            s_next = xs[k + 1, :d]
            np.add(s + (np.dot(h_new, out_w) + out_b), delta[k], out=s_next)
            np.subtract(s_next, s, out=xs[k + 1, d:])
            h, s = h_new, s_next
    states = xs[1:, :d].copy()
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise TrajoptError(f"non-finite state at prediction step {k}")
    return states, steps


def _cell_adjoint(w, step, g_new, with_x=True):
    """Back through one ``_np_gru_step``, in the tape's summation order.

    ``step`` is the step's (h, z, r, c) and ``g_new`` is d(loss)/d(h_new).
    Returns ((g_z, g_r, g_c), g_x, g_h, g_hr): the gradients at the
    pre-activations of the update gate, the reset gate and the candidate;
    d(loss)/dx (None without ``with_x``); and d(loss)/dh in two parts.
    The tape sums d/dh as ``(g_h + g_out) + g_hr``, where ``g_out``
    reaches h from the output head of the step before and ``g_hr`` is the
    reset gate's recurrent term.
    """
    wz, uz, _, wr, ur, _, wh, uh, _ = w[:9]
    h, z, r, c = step
    # h_new = (1 - z) * h + z * c
    one_minus_z = 1.0 - z
    g_z = (g_new * c - g_new * h) * z * one_minus_z
    g_c = g_new * z * (1.0 - c**2)
    g_rh = np.dot(g_c, uh.T)
    g_r = g_rh * h * r * (1.0 - r)
    g_x = (np.dot(g_z, wz.T) + np.dot(g_c, wh.T) + np.dot(g_r, wr.T)
           if with_x else None)
    g_h = g_new * one_minus_z + np.dot(g_z, uz.T) + g_rh * r
    return (g_z, g_r, g_c), g_x, g_h, np.dot(g_r, ur.T)


def rollout_adjoint(predictor, steps, grad_states):
    """d(loss)/d(controls), shape (horizon, D), given d(loss)/d(states).

    Walks the steps of ``rollout`` backward on 1-D vectors.  ``gs`` and
    ``gv`` carry the loss gradient with respect to the state and velocity
    that enter the next step, ``g_h`` and ``g_hr`` the next cell's two
    parts of the gradient at the hidden state.  Step 0's cell gets no
    adjoint: what enters it comes from the observed frames, which do not
    depend on the controls.
    """
    w = [predictor.store[n].values for n in _GRU_NAMES]
    out_w = w[9]
    d = predictor.state_dim
    grad_states = np.asarray(grad_states, dtype=float)
    grad = np.empty_like(grad_states)
    gs = np.zeros(d)
    gv = np.zeros(d)
    g_h = g_hr = None
    for k in range(len(steps) - 1, 0, -1):
        # s_next = s + residual + delta[k] and v_next = s_next - s
        g_next = gs + gv + grad_states[k]
        grad[k] = g_next
        g_out = np.dot(g_next, out_w.T)
        g_new = g_out if g_h is None else g_h + g_out + g_hr
        _, g_x, g_h, g_hr = _cell_adjoint(w, steps[k], g_new)
        gs = g_next - gv + g_x[:d]
        gv = g_x[d:]
    grad[0] = gs + gv + grad_states[0]
    return grad


def goal_objective(predictor, start, delta, target, alpha1=1.0, alpha2=10.0,
                   wrist_index=sc.R_WRIST, bound=np.inf):
    """alpha1 * c_lowlevel + alpha2 * c_goalset from a warm start, its
    gradient with respect to the controls, and the rolled-out states:
    (value, gradient, (horizon, D) states).  The gradient is a zero-argument
    function that runs ``rollout_adjoint`` over the kept rollout steps and
    returns a (horizon, D) array.  When the control cost alone exceeds
    ``bound``, the result is (control cost, None, None) and no rollout runs.
    """
    control = np.sum(delta * delta) * alpha1
    if control > bound:
        return float(control), None, None
    traj, steps = rollout(predictor, start, delta)
    lo = 3 * wrist_index
    miss = traj[-1, lo:lo + 3] - target
    value = control + np.sum(miss * miss) * alpha2

    def gradient():
        grad_traj = np.zeros_like(traj)
        grad_traj[-1, lo:lo + 3] = 2.0 * alpha2 * miss
        grad = rollout_adjoint(predictor, steps, grad_traj)
        return grad + 2.0 * alpha1 * delta

    return float(value), gradient, traj


# ---------------------------------------------------------------------------
# L-BFGS with two-loop recursion and Armijo backtracking


def _gradient(g):
    """An objective's gradient: the array itself, or the array a deferred
    gradient function returns."""
    return g() if callable(g) else g


def lbfgs_minimize(objective, x0, max_iters=100, tol=1e-6):
    """Minimize a differentiable objective over a flat vector.

    ``objective(x) -> (value, gradient)``.  The gradient is an array or a
    zero-argument function returning it.  The backtracking line search
    needs only the value at a trial point, so a function is called only
    at the starting point and at each accepted step, never at a rejected
    trial, and the gradient of a trial the objective knows the search
    rejects may be None.  Both forms give the same iterates.  The method
    keeps 10 curvature pairs; the line search halves the step from 1 up
    to 30 times until the Armijo condition with c1 = 1e-4 holds.

    Returns (x_best, history) where history carries the monotone
    objective sequence, iteration count, the number of objective calls
    ("evaluations"), and a status flag ("converged", "max_iters",
    "line_search_failure").
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = objective(x)
    evaluations = 1
    if not np.isfinite(f):
        raise TrajoptError("non-finite objective at the starting point")
    g = _gradient(g)
    pairs = []  # (s, y, 1 / (y . s)) of the kept curvature pairs, oldest first
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
        for s, y, rho in reversed(pairs):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if pairs:
            s, y, _ = pairs[-1]
            q *= (s @ y) / (y @ y)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        d = -q
        if d @ g >= 0:  # fall back to steepest descent on a bad direction
            d = -g
            pairs = []
        # backtracking line search (Armijo)
        t = 1.0
        gd = g @ d
        accepted = False
        for _ in range(30):
            f_new, g_new = objective(x + t * d)
            evaluations += 1
            if np.isfinite(f_new) and f_new <= f + 1e-4 * t * gd:
                accepted = True
                break
            t *= 0.5
        if not accepted:  # no step taken: count accepted steps only
            status = "line_search_failure"
            iters -= 1
            break
        g_new = _gradient(g_new)
        step = t * d
        x_new = x + step
        y_vec = g_new - g
        curv = step @ y_vec
        if curv > 1e-10 * np.linalg.norm(step) * np.linalg.norm(y_vec):
            pairs.append((step, y_vec, 1.0 / (y_vec @ step)))
            if len(pairs) > 10:
                pairs.pop(0)
        else:
            # negative curvature: the quasi-Newton model is unusable, so
            # restart from steepest descent instead of creeping on it
            pairs = []
        x, f, g = x_new, f_new, g_new
        values.append(float(f))
    else:
        iters = max_iters
    if status == "max_iters" and np.max(np.abs(g)) < tol:
        status = "converged"
    return x, {"values": values, "iterations": iters, "status": status,
               "evaluations": evaluations}


def predict_fullbody(predictor, observed, goal, goal_mode="place", alpha1=1.0,
                     alpha2=10.0, horizon=HORIZON, max_iters=60):
    """Optimize controls so the rollout's wrist ends at the goal.

    A place goal is aimed at ``HOVER_OFFSET`` above ``goal``, a grasp goal
    at ``goal`` itself.  Negative weights, a horizon below 1 or an unknown
    ``goal_mode`` raise ValueError before any rollout.  Returns (trajectory
    (horizon, 39), delta*, diagnostics).  With alpha2 = 0 the controls stay
    at zero and the output equals the unconstrained rollout.

    The diagnostics count the objective calls as ``evaluations`` and those
    that rolled out the GRU as ``rollouts``; the others are line-search
    trials whose control cost alone exceeds the value at the last accepted
    point, so they neither roll out nor raise on a non-finite state.
    """
    if alpha1 < 0 or alpha2 < 0:
        raise ValueError("objective weights must be >= 0")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if goal_mode not in ("place", "grasp"):
        raise ValueError(f"unknown goal_mode {goal_mode!r}")
    target = np.array(goal, dtype=float)
    if goal_mode == "place":
        target[2] += HOVER_OFFSET
    shape = (horizon, predictor.state_dim)
    lo = 3 * sc.R_WRIST
    start = warm_start(predictor, observed)

    # the value and states at the last point whose gradient L-BFGS asked
    # for, which is the point it accepted last and returns
    last = {"rollouts": 0, "value": np.inf}

    def objective(x):
        value, grad, traj = goal_objective(predictor, start, x.reshape(shape),
                                           target, alpha1, alpha2, sc.R_WRIST,
                                           last["value"])
        if traj is None:
            return value, None
        last["rollouts"] += 1

        def gradient():
            last["value"], last["traj"] = value, traj
            return grad().ravel()
        return value, gradient

    x_star, history = lbfgs_minimize(objective, np.zeros(shape).ravel(),
                                     max_iters=max_iters)
    delta_star = x_star.reshape(shape)
    traj = last["traj"]
    final_goal_dist = float(np.linalg.norm(traj[-1, lo:lo + 3] - target))
    diagnostics = {"c_goalset": final_goal_dist**2,
                   "goal_distance": final_goal_dist,
                   "delta_norm": float(np.linalg.norm(delta_star)),
                   "iterations": history["iterations"],
                   "evaluations": history["evaluations"],
                   "rollouts": last["rollouts"],
                   "status": history["status"],
                   "objective": history["values"]}
    return traj, delta_star, diagnostics


def zero_velocity_baseline(observed, horizon):
    """Repeat the last observed state for the whole horizon."""
    obs = np.asarray(observed, dtype=float)
    return np.repeat(obs[-1][None], horizon, axis=0)


# ---------------------------------------------------------------------------
# predictor training (scheduled sampling on 50-frame windows)


def self_fed_probability(epoch, epochs, ramp_epochs=None):
    """Scheduled sampling's probability of feeding the model its own
    prediction in epoch ``epoch`` (from 0) of ``epochs``: a linear ramp
    from 0 to 1 over ``ramp_epochs`` (default: half the epochs)."""
    ramp = ramp_epochs if ramp_epochs is not None else max(1, epochs // 2)
    return min(1.0, epoch / ramp)


def train_predictor(windows, epochs, lr=1e-3, seed=0, batch=32,
                    observed=OBSERVED_FRAMES, ramp_epochs=None):
    """Train the recurrent predictor on (N, 50, 39) windows.

    The first ``observed`` frames warm up the hidden state; the rest are
    predicted.  Scheduled sampling feeds the model its own prediction
    with a probability ramping linearly from 0 (teacher forced) to 1
    (self-fed) over ``ramp_epochs`` (default: half the epochs).  The
    batches run through ``autodiff.minibatch_adam`` with the gradients
    clipped to the global norm 1; a non-finite loss raises
    TrainingError.  Returns (predictor, per-epoch MSE curve); the
    predictor's store ends without gradients or Adam moments
    (``ParamStore.end_training``).
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 3 or windows.shape[2] != STATE_DIM:
        raise TrajoptError(f"windows must be (N, T, {STATE_DIM})")
    n, t, _ = windows.shape
    if not 1 <= observed < t:
        raise TrajoptError(f"windows must hold more than observed={observed} frames")
    horizon = t - observed
    predictor = build_predictor(seed)
    store = predictor.store

    def step(idx, epoch, rng):
        p_self = self_fed_probability(epoch, epochs, ramp_epochs)
        use_self = np.array([rng.random(len(idx)) < p_self for _ in range(horizon)])
        w = [store[name].values for name in _GRU_NAMES]
        loss, cache = _batch_forward(w, windows[idx, :observed],
                                     windows[idx, observed:], use_self)

        def write_grads():
            for name, g in zip(_GRU_NAMES, _batch_backward(w, cache)):
                store[name].grad = g
        return float(loss), write_grads

    curve = ad.minibatch_adam(store, n, step, epochs, lr, seed, batch, 1.0)
    return predictor, curve


def _batch_forward(w, obs, future, use_self):
    """Scheduled-sampling loss of one training batch, and the cache
    ``_batch_backward`` takes.

    ``w`` holds the ``_GRU_NAMES`` arrays.  ``obs`` (B, t, D) warm the
    cell up and each frame of ``future`` (B, horizon, D) is predicted from
    the state before it.  Row i starts step k + 1 from its own prediction
    of frame k where ``use_self[k, i]`` holds and from the true frame
    elsewhere.  The loss is the mean squared error over all predicted
    frames, summed as the tape sums it, so it equals the tape's bit for
    bit.
    """
    out_w, out_b = w[9], w[10]
    b, t, d = obs.shape
    horizon = future.shape[1]
    h = np.zeros((b, w[1].shape[0]))
    steps = []  # per cell: (x, h, z, r, c)
    for i in range(t):
        vel = obs[:, i] - obs[:, i - 1] if i > 0 else np.zeros_like(obs[:, 0])
        x = np.concatenate([obs[:, i], vel], axis=-1)
        h_new, z, r, c = _np_gru_step(w, x, h)
        steps.append((x, h, z, r, c))
        h = h_new
    s, v = obs[:, -1], vel
    losses, diffs, keeps, heads = [], [], [], []
    for k in range(horizon):
        x = np.concatenate([s, v], axis=-1)
        h_new, z, r, c = _np_gru_step(w, x, h)
        s_next = s + (h_new @ out_w + out_b)
        diff = s_next - future[:, k]
        losses.append(np.sum(diff * diff))
        keep = use_self[k][:, None].astype(float)
        s_mixed = s_next * keep + future[:, k] * (~use_self[k])[:, None]
        steps.append((x, h, z, r, c))
        diffs.append(diff)
        keeps.append(keep)
        heads.append(h_new)
        h, v, s = h_new, s_mixed - s, s_mixed
    scale = 1.0 / (b * horizon * d)
    return sum(losses) * scale, (steps, diffs, keeps, heads, scale)


def _batch_backward(w, cache):
    """Gradients of ``_batch_forward``'s loss for the ``_GRU_NAMES`` tensors.

    Backpropagation through time over the warm-up and predicted steps.
    Every sum runs in the order and on the operand shapes of the tape's
    backward pass, and each parameter takes its per-step terms last step
    first, so the gradients equal the tape's bit for bit.
    """
    steps, diffs, keeps, heads, scale = cache
    out_w = w[9]
    horizon = len(heads)
    t = len(steps) - horizon
    d = diffs[0].shape[1]
    grads = [None] * len(_GRU_NAMES)

    def acc(i, g):
        if grads[i] is None:
            grads[i] = g + 0.0
        else:
            grads[i] += g

    g_state = g_vel = None  # d/d(state, velocity) entering the step after
    g_h = g_hr = None  # the step after's two parts of d/d(hidden state)
    for j in range(t + horizon - 1, -1, -1):
        k = j - t
        x, h, z, r, c = steps[j]
        if k >= 0:
            # loss_k = sum(diff^2) * scale with diff = s_next - future[k],
            # s_next = s + h_new @ out_w + out_b, and the next step's
            # state s_next * keep + future[k] * (1 - keep)
            g_sn = scale * diffs[k]
            g_sn = g_sn + g_sn
            if g_state is not None:
                g_sn = g_sn + g_state * keeps[k]
            acc(9, heads[k].T @ g_sn)
            acc(10, g_sn.sum(axis=0))
            g_out = g_sn @ out_w.T
            g_new = g_out if g_h is None else g_h + g_out + g_hr
        else:
            g_new = g_h + g_hr
        gates, g_x, g_h, g_hr = _cell_adjoint(w, (h, z, r, c), g_new, with_x=k > 0)
        for i, (g, h_in) in enumerate(zip(gates, (h, h, r * h))):
            acc(3 * i, x.T @ g)
            acc(3 * i + 1, h_in.T @ g)
            acc(3 * i + 2, g.sum(axis=0))
        if k > 0:
            # the tape adds the terms of the state entering step k in this
            # order: from the velocity after step k (negated), s_next,
            # the input x, and the velocity entering step k
            g_s = g_sn if g_vel is None else g_sn - g_vel
            g_vel = g_x[:, d:]
            g_state = g_s + g_x[:, :d] + g_vel
    return grads


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


def evaluate_prediction(predictor, problems, methods=METHODS):
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
                goal_mode="place")
        if "oracle" in methods:
            preds["oracle"], _, _ = predict_fullbody(
                predictor, observed, prob["goals"]["oracle"],
                goal_mode="grasp")
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
