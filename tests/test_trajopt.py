"""Tests for the recurrent predictor and goal-constrained optimizer."""

import warnings

import numpy as np
import pytest

import intentmotion.autodiff as ad
import intentmotion.scene as sc
import intentmotion.trajopt as tj
from intentmotion.autodiff import Tensor


def slow_motion(rng, frames, scale=0.01):
    """Smooth low-amplitude state sequence for unroll tests."""
    base = 0.2 * rng.normal(size=tj.STATE_DIM)
    drift = scale * rng.normal(size=tj.STATE_DIM)
    return base + np.outer(np.arange(frames), drift)


# ---------------------------------------------------------------------------
# predictor construction and unroll


def test_build_predictor_is_deterministic():
    a = tj.build_predictor(seed=3)
    b = tj.build_predictor(seed=3)
    for name in a.store.params:
        assert np.array_equal(a.store[name].values, b.store[name].values)
    assert a.store.names() == b.store.names()
    c = tj.build_predictor(seed=4)
    assert not np.array_equal(a.store["out/w"].values, c.store["out/w"].values)


def test_unroll_shape_and_determinism():
    rng = np.random.default_rng(0)
    p = tj.build_predictor(0)
    obs = slow_motion(rng, 6)
    t1 = tj.unroll(p, obs, np.zeros((5, tj.STATE_DIM))).values
    t2 = tj.unroll(p, obs, np.zeros((5, tj.STATE_DIM))).values
    assert t1.shape == (5, tj.STATE_DIM)
    assert np.array_equal(t1, t2)


def test_controls_change_the_rollout():
    rng = np.random.default_rng(1)
    p = tj.build_predictor(1)
    obs = slow_motion(rng, 6)
    base = tj.unroll(p, obs, np.zeros((4, tj.STATE_DIM))).values
    delta = np.zeros((4, tj.STATE_DIM))
    delta[0, 0] = 0.5
    bent = tj.unroll(p, obs, delta).values
    assert not np.allclose(base, bent)


def test_nonfinite_observation_rejected():
    p = tj.build_predictor(0)
    obs = np.zeros((5, tj.STATE_DIM))
    obs[2, 7] = np.nan
    with pytest.raises(tj.TrajoptError):
        tj.unroll(p, obs, np.zeros((3, tj.STATE_DIM)))


def test_unroll_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    p = tj.build_predictor(2)
    obs = slow_motion(rng, 5)
    target = rng.normal(size=3)
    horizon = 3

    def objective(x):
        delta = Tensor(x.reshape(horizon, tj.STATE_DIM))
        loss = ad.add(ad.sum_sq(delta),
                      tj.c_goalset(p, obs, delta, target))
        ad.backward(loss)
        return loss.item(), delta.grad.ravel().copy()

    x = 0.1 * rng.normal(size=horizon * tj.STATE_DIM)
    _, g = objective(x)
    step = 1e-6
    for i in rng.choice(x.size, size=6, replace=False):
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        numeric = (objective(xp)[0] - objective(xm)[0]) / (2 * step)
        rel = abs(g[i] - numeric) / max(abs(g[i]), abs(numeric), 1e-8)
        assert rel < 1e-4, f"coordinate {i}: {g[i]} vs {numeric}"


# ---------------------------------------------------------------------------
# objective terms


def test_c_lowlevel_is_squared_norm():
    rng = np.random.default_rng(3)
    delta = rng.normal(size=(4, tj.STATE_DIM))
    assert abs(tj.c_lowlevel(delta).item() - (delta ** 2).sum()) < 1e-12


def test_c_goalset_matches_manual_distance():
    rng = np.random.default_rng(4)
    p = tj.build_predictor(4)
    obs = slow_motion(rng, 5)
    delta = 0.05 * rng.normal(size=(3, tj.STATE_DIM))
    target = rng.normal(size=3)
    value = tj.c_goalset(p, obs, delta, target).item()
    traj = tj.unroll(p, obs, delta).values
    lo = 3 * sc.R_WRIST
    oracle = ((traj[-1, lo:lo + 3] - target) ** 2).sum()
    assert abs(value - oracle) < 1e-12


def test_predict_fullbody_validation_and_hover_target(monkeypatch):
    p = tj.build_predictor(0)
    obs = np.zeros((5, tj.STATE_DIM))
    goal = np.array([1.0, 2.0, 0.7])
    lo = 3 * sc.R_WRIST
    for mode, lift in (("place", tj.HOVER_OFFSET), ("grasp", 0.0)):
        traj, _, diag = tj.predict_fullbody(p, obs, goal, goal_mode=mode,
                                            max_iters=2)
        target = goal + np.array([0.0, 0.0, lift])
        assert diag["goal_distance"] == np.linalg.norm(traj[-1, lo:lo + 3] - target)

    def no_rollout(*args):
        raise AssertionError("rolled out before the arguments were checked")

    monkeypatch.setattr(tj, "warm_start", no_rollout)
    monkeypatch.setattr(tj, "rollout", no_rollout)
    for kwargs in ({"goal_mode": "teleport"}, {"alpha1": -1.0},
                   {"alpha2": -1.0}, {"horizon": 0}):
        with pytest.raises(ValueError):
            tj.predict_fullbody(p, obs, goal, **kwargs)


# ---------------------------------------------------------------------------
# numpy rollout and adjoint against the tape

KERNEL_SHAPES = [
    pytest.param({}, sc.R_WRIST, id="default"),
    pytest.param({"hidden": 6, "state_dim": 6}, 1, id="small"),
]


def kernel_case(shape_kw, seed):
    """Predictor with random biases, 20 observed frames and random 30-step
    controls.  Non-zero biases make the order of each sum matter."""
    rng = np.random.default_rng(seed)
    p = tj.build_predictor(seed, **shape_kw)
    for name in ("gru/bz", "gru/br", "gru/bh", "out/b"):
        p.store[name].values[...] = 0.1 * rng.normal(size=p.store[name].values.shape)
    d = p.state_dim
    obs = 0.2 * rng.normal(size=d) + np.outer(np.arange(tj.OBSERVED_FRAMES),
                                              0.02 * rng.normal(size=d))
    delta = 0.1 * rng.normal(size=(tj.HORIZON, d))
    return p, obs, delta, rng.normal(size=3)


@pytest.mark.parametrize("shape_kw,wrist", KERNEL_SHAPES)
def test_rollout_equals_tape_unroll_bit_for_bit(shape_kw, wrist):
    p, obs, delta, _ = kernel_case(shape_kw, 20)
    for controls in (np.zeros_like(delta), delta):
        states, _ = tj.rollout(p, tj.warm_start(p, obs), controls)
        assert np.array_equal(states, tj.unroll(p, obs, controls).values)


@pytest.mark.parametrize("shape_kw,wrist,horizon", [
    *(pytest.param(*c.values, tj.HORIZON, id=c.id) for c in KERNEL_SHAPES),
    *(pytest.param(*c.values, h, id=f"{c.id}-horizon{h}")
      for c in KERNEL_SHAPES for h in (1, 2))])
def test_adjoint_matches_tape_gradient(shape_kw, wrist, horizon):
    # rollout_adjoint writes step 0's gradient after its loop, which runs
    # no step at horizon 1 and one step at horizon 2
    p, obs, delta, target = kernel_case(shape_kw, 21)
    delta = delta[:horizon]
    alpha2 = 10.0
    value, grad, _ = tj.goal_objective(p, tj.warm_start(p, obs), delta, target,
                                       alpha1=1.0, alpha2=alpha2,
                                       wrist_index=wrist)
    d = Tensor(delta.copy())
    loss = ad.add(tj.c_lowlevel(d),
                  ad.mul(tj.c_goalset(p, obs, d, target, wrist_index=wrist),
                         alpha2))
    ad.backward(loss)
    assert value == pytest.approx(loss.item(), rel=1e-12)
    # the cell adjoint sums in the tape's order, so the gradients agree
    # bit for bit
    assert np.array_equal(grad(), d.grad)


@pytest.mark.parametrize("shape_kw,wrist", KERNEL_SHAPES)
def test_adjoint_matches_central_differences(shape_kw, wrist):
    p, obs, delta, target = kernel_case(shape_kw, 22)
    start = tj.warm_start(p, obs)

    def f(x):
        return tj.goal_objective(p, start, x, target, wrist_index=wrist)

    grad = f(delta)[1]()
    rng = np.random.default_rng(23)
    step = 1e-6
    # the last step's controls move the wrist directly; earlier ones only
    # through the recurrence, so sample both
    picks = [(tj.HORIZON - 1, 3 * wrist), (tj.HORIZON - 1, 3 * wrist + 2)]
    picks += [(int(rng.integers(tj.HORIZON - 1)), int(rng.integers(p.state_dim)))
              for _ in range(6)]
    for k, j in picks:
        up, down = delta.copy(), delta.copy()
        up[k, j] += step
        down[k, j] -= step
        numeric = (f(up)[0] - f(down)[0]) / (2 * step)
        assert grad[k, j] == pytest.approx(numeric, rel=1e-5, abs=1e-7), (k, j)


def test_predict_fullbody_returns_the_rollout_of_its_controls(monkeypatch):
    p, obs, _, _ = kernel_case({}, 25)
    goal = np.array([0.3, 0.2, 0.6])
    start = tj.warm_start(p, obs)
    calls = {"rollout": 0}
    rollouts = 0

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(tj, "rollout", counted("rollout", tj.rollout))
    for mode in ("place", "grasp"):
        traj, delta, diag = tj.predict_fullbody(p, obs, goal, goal_mode=mode,
                                                max_iters=15)
        rollouts += diag["rollouts"]
        assert np.any(delta != 0.0)
        assert np.array_equal(traj, tj.rollout(p, start, delta)[0])
    # the returned states are an evaluation's: the counted rollouts are the
    # optimizer's and the two checks above
    assert calls["rollout"] == rollouts + 2


def test_predict_fullbody_returns_the_states_of_the_accepted_point(monkeypatch):
    # an optimizer whose last evaluation is a trial it rejects, as after a
    # failed line search; the trial's control cost is below the accepted
    # value, so it rolls out, but its gradient is never asked for
    p, obs, _, _ = kernel_case({}, 26)
    real_lbfgs, real_rollout = tj.lbfgs_minimize, tj.rollout
    after = []

    def lbfgs(objective, x0, **kwargs):
        x, history = real_lbfgs(objective, x0, **kwargs)
        assert objective(x * 0.5)[1] is not None  # it rolled out
        after.append(0)
        return x, history

    def rollout(*args):
        if after:
            after[0] += 1
        return real_rollout(*args)

    monkeypatch.setattr(tj, "lbfgs_minimize", lbfgs)
    monkeypatch.setattr(tj, "rollout", rollout)
    traj, delta, diag = tj.predict_fullbody(p, obs, [0.3, 0.2, 0.6], max_iters=5)
    # no rollout ran once the optimizer had returned
    assert after == [0]
    assert np.any(delta != 0.0)
    assert np.array_equal(traj, real_rollout(p, tj.warm_start(p, obs), delta)[0])
    assert diag["objective"][-1] == tj.goal_objective(
        p, tj.warm_start(p, obs), delta, np.array([0.3, 0.2, 0.6 + tj.HOVER_OFFSET]))[0]


def test_goal_objective_skips_the_rollout_above_the_bound(monkeypatch):
    p, obs, delta, target = kernel_case({}, 29)
    start = tj.warm_start(p, obs)
    value = tj.goal_objective(p, start, delta, target, alpha1=2.0)[0]
    control = np.sum(delta * delta) * 2.0
    assert control < value
    # a control cost at the bound is not above it: the rollout runs
    assert tj.goal_objective(p, start, delta, target, alpha1=2.0,
                             bound=control)[0] == value

    def rollout(*args):
        raise AssertionError("rolled out above the bound")

    monkeypatch.setattr(tj, "rollout", rollout)
    assert tj.goal_objective(p, start, delta, target, alpha1=2.0,
                             bound=np.nextafter(control, 0.0)) == \
        (float(control), None, None)


def test_predict_fullbody_rejects_nonfinite_observation():
    p = tj.build_predictor(0)
    obs = slow_motion(np.random.default_rng(24), tj.OBSERVED_FRAMES)
    obs[5, 2] = np.nan
    with pytest.raises(tj.TrajoptError):
        tj.predict_fullbody(p, obs, [0.3, 0.2, 0.6])


def test_predict_fullbody_runs_the_adjoint_only_at_accepted_points(monkeypatch):
    p, obs, _, _ = kernel_case({}, 25)
    calls = {"adjoint": 0, "rollout": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(tj, "rollout_adjoint", counted("adjoint", tj.rollout_adjoint))
    monkeypatch.setattr(tj, "rollout", counted("rollout", tj.rollout))
    _, _, diag = tj.predict_fullbody(p, obs, [0.3, 0.2, 0.6], max_iters=15)
    assert diag["status"] != "line_search_failure"
    # one gradient at the start and one per accepted step
    assert calls["adjoint"] == diag["iterations"] + 1 == len(diag["objective"])
    # trials the control cost alone rejects skip the rollout too
    assert calls["rollout"] == diag["rollouts"] < diag["evaluations"]
    # the problem has rejected line-search trials, which skip the adjoint
    assert diag["evaluations"] > diag["iterations"] + 1


@pytest.mark.parametrize("seed,mode,alpha1", [(25, "place", 1.0),
                                               (26, "grasp", 1.0),
                                               (27, "place", 5.0)])
def test_control_cost_skip_keeps_the_iterates(seed, mode, alpha1):
    # the reference rolls out every trial, as the objective did before
    # trials whose control cost alone exceeds the accepted value were
    # skipped
    p, obs, _, _ = kernel_case({}, seed)
    goal = np.array([0.3, 0.2, 0.6])
    target = goal + [0.0, 0.0, tj.HOVER_OFFSET if mode == "place" else 0.0]
    start = tj.warm_start(p, obs)
    shape = (tj.HORIZON, p.state_dim)

    def every_trial_rolls_out(x):
        value, grad, _ = tj.goal_objective(p, start, x.reshape(shape), target,
                                           alpha1=alpha1)
        return value, lambda: grad().ravel()

    x, hist = tj.lbfgs_minimize(every_trial_rolls_out, np.zeros(shape).ravel(),
                                max_iters=60)
    traj, delta, diag = tj.predict_fullbody(p, obs, goal, goal_mode=mode,
                                            alpha1=alpha1, max_iters=60)
    assert delta.tobytes() == x.tobytes()
    assert np.asarray(diag["objective"]).tobytes() == \
        np.asarray(hist["values"]).tobytes()
    assert [diag[k] for k in ("iterations", "evaluations", "status")] == \
        [hist[k] for k in ("iterations", "evaluations", "status")]
    assert np.array_equal(traj, tj.rollout(p, start, delta)[0])
    assert diag["rollouts"] < diag["evaluations"]


def test_rollout_names_the_first_nonfinite_step_without_warnings():
    p, obs, delta, _ = kernel_case({}, 28)
    start = tj.warm_start(p, obs)
    delta[7, 4] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tj.TrajoptError, match="prediction step 7$"):
            tj.rollout(p, start, delta)
        with pytest.raises(tj.TrajoptError, match="prediction step 7$"):
            tj.goal_objective(p, start, delta, np.zeros(3))
    # the tape reference stops at the same step
    with pytest.raises(tj.TrajoptError, match="prediction step 7$"):
        tj.unroll(p, obs, delta)
    bad_obs = obs.copy()
    bad_obs[-1, 3] = np.nan
    with pytest.raises(tj.TrajoptError, match="prediction step 0$"):
        tj.rollout(p, tj.warm_start(p, bad_obs), np.zeros_like(delta))


# ---------------------------------------------------------------------------
# L-BFGS


def test_lbfgs_identity_quadratic_exact():
    c = np.array([1.0, -2.0, 3.0])

    def f(x):
        return 0.5 * ((x - c) ** 2).sum(), x - c

    x, hist = tj.lbfgs_minimize(f, np.zeros(3))
    assert hist["status"] == "converged"
    assert hist["iterations"] <= 2
    assert np.allclose(x, c, atol=1e-8)


def test_lbfgs_general_quadratic():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6))
    a = m @ m.T + 6 * np.eye(6)
    b = rng.normal(size=6)
    solution = np.linalg.solve(a, b)

    def f(x):
        return 0.5 * x @ a @ x - b @ x, a @ x - b

    x, hist = tj.lbfgs_minimize(f, np.zeros(6))
    assert hist["status"] == "converged"
    assert np.allclose(x, solution, atol=1e-5)


def rosenbrock(x):
    v = 100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
    g = np.array([-400 * x[0] * (x[1] - x[0] ** 2) - 2 * (1 - x[0]),
                  200 * (x[1] - x[0] ** 2)])
    return v, g


def test_lbfgs_rosenbrock():
    x, hist = tj.lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), max_iters=200)
    assert hist["status"] == "converged"
    assert np.allclose(x, [1.0, 1.0], atol=1e-5)


def test_lbfgs_values_monotone():
    def f(x):
        return float((x ** 4).sum() + (x ** 2).sum()), 4 * x ** 3 + 2 * x

    _, hist = tj.lbfgs_minimize(f, np.full(4, 2.0), max_iters=50)
    values = hist["values"]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_lbfgs_line_search_failure_flag():
    # inconsistent gradient: claims descent while the value rises
    def f(x):
        return float(x[0] ** 2), np.array([-2.0 * x[0]])

    _, hist = tj.lbfgs_minimize(f, np.array([1.0]))
    assert hist["status"] == "line_search_failure"
    # the failed search took no step: 0 iterations, the starting value
    # only, and the start plus 30 rejected trials
    assert hist["iterations"] == 0
    assert len(hist["values"]) == 1
    assert hist["evaluations"] == 31


def deferred(objective, calls):
    """``objective`` with its gradient returned as a function, counting
    the calls of that function.  ``objective`` may defer its gradient
    itself."""
    def f(x):
        value, grad = objective(x)

        def gradient():
            calls.append(x.copy())
            return grad() if callable(grad) else grad
        return value, gradient
    return f


def goal_problem_objective(lazy):
    """The objective of one ``predict_fullbody`` problem; with ``lazy``
    its gradient is ``goal_objective``'s function, not the array it
    returns."""
    p, obs, _, target = kernel_case({}, 27)
    start = tj.warm_start(p, obs)
    shape = (tj.HORIZON, p.state_dim)

    def f(x):
        value, grad, _ = tj.goal_objective(p, start, x.reshape(shape), target)
        return value, (lambda: grad().ravel()) if lazy else grad().ravel()
    return f


@pytest.mark.parametrize("case", ["rosenbrock", "goal"])
def test_lbfgs_deferred_gradient_gives_the_same_bytes(case):
    calls = []
    if case == "rosenbrock":
        eager, lazy = rosenbrock, deferred(rosenbrock, calls)
        x0, iters = np.array([-1.2, 1.0]), 200
    else:
        eager = goal_problem_objective(False)
        lazy = deferred(goal_problem_objective(True), calls)
        x0, iters = np.zeros(tj.HORIZON * tj.STATE_DIM), 25
    x_a, hist_a = tj.lbfgs_minimize(eager, x0, max_iters=iters)
    x_d, hist_d = tj.lbfgs_minimize(lazy, x0, max_iters=iters)
    assert x_a.tobytes() == x_d.tobytes()
    assert np.asarray(hist_a["values"]).tobytes() == np.asarray(hist_d["values"]).tobytes()
    assert hist_a == hist_d
    # the gradient is asked for at the start and at each accepted point only
    assert len(calls) == len(hist_d["values"]) < hist_d["evaluations"]
    assert calls[-1].tobytes() == x_d.tobytes()


def test_lbfgs_counts_objective_evaluations():
    calls = []

    def f(x):
        calls.append(x)
        return rosenbrock(x)

    _, hist = tj.lbfgs_minimize(f, np.array([-1.2, 1.0]), max_iters=200)
    assert hist["evaluations"] == len(calls) > hist["iterations"] + 1


def test_lbfgs_nonfinite_start_raises():
    def f(x):
        return np.nan, x

    with pytest.raises(tj.TrajoptError):
        tj.lbfgs_minimize(f, np.zeros(2))


# ---------------------------------------------------------------------------
# goal-constrained prediction


def test_zero_goal_weight_reproduces_unconstrained_rollout():
    rng = np.random.default_rng(6)
    p = tj.build_predictor(6)
    obs = slow_motion(rng, 5)
    traj, delta, diag = tj.predict_fullbody(p, obs, [0.4, 0.1, 0.8],
                                            alpha2=0.0, horizon=4, max_iters=5)
    assert np.allclose(delta, 0.0)
    free = tj.unroll(p, obs, np.zeros((4, tj.STATE_DIM))).values
    assert np.allclose(traj, free)


def test_goal_term_pulls_wrist_toward_target():
    rng = np.random.default_rng(7)
    p = tj.build_predictor(7)
    obs = slow_motion(rng, 5)
    goal = np.array([0.3, 0.2, 0.6])
    traj, delta, diag = tj.predict_fullbody(p, obs, goal, goal_mode="grasp",
                                            horizon=6, max_iters=40)
    lo = 3 * sc.R_WRIST
    free = tj.unroll(p, obs, np.zeros((6, tj.STATE_DIM))).values
    d_free = np.linalg.norm(free[-1, lo:lo + 3] - goal)
    assert diag["goal_distance"] < d_free
    assert diag["goal_distance"] < 0.05
    assert diag["delta_norm"] > 0


def test_place_mode_targets_hover_point():
    rng = np.random.default_rng(8)
    p = tj.build_predictor(8)
    obs = slow_motion(rng, 5)
    goal = np.array([0.2, -0.1, 0.72])
    traj, _, diag = tj.predict_fullbody(p, obs, goal, goal_mode="place",
                                        horizon=6, max_iters=40)
    lo = 3 * sc.R_WRIST
    hover = goal + [0.0, 0.0, tj.HOVER_OFFSET]
    assert np.linalg.norm(traj[-1, lo:lo + 3] - hover) == \
        pytest.approx(diag["goal_distance"], abs=1e-12)
    assert diag["goal_distance"] < 0.05


def test_zero_velocity_baseline_repeats_last_frame():
    rng = np.random.default_rng(9)
    obs = rng.normal(size=(7, tj.STATE_DIM))
    out = tj.zero_velocity_baseline(obs, 4)
    assert out.shape == (4, tj.STATE_DIM)
    for row in out:
        assert np.array_equal(row, obs[-1])


# ---------------------------------------------------------------------------
# training


def make_windows(n, frames, seed):
    rng = np.random.default_rng(seed)
    return np.stack([slow_motion(rng, frames, scale=0.02) for _ in range(n)])


def tape_batch_loss(predictor, obs, future, masks):
    """The tape's scheduled-sampling loss of one batch, as train_predictor
    built it before the numpy backward pass; ``masks`` yields each
    predicted step's self-fed rows after that step's loss."""
    store = predictor.store
    b, _, d = obs.shape
    h, s, v = tj._warmup(predictor, obs)
    losses = []
    for k in range(future.shape[1]):
        x = ad.concat([s, v], axis=-1)
        h = tj._gru_step(store, x, h)
        residual = ad.add(ad.matmul(h, store["out/w"]), store["out/b"])
        s_next = ad.add(s, residual)
        diff = ad.sub(s_next, future[:, k])
        losses.append(ad.sum_(ad.mul(diff, diff)))
        use_self = next(masks)
        s_mixed = ad.add(ad.mul(s_next, use_self[:, None].astype(float)),
                         future[:, k] * (~use_self)[:, None])
        v = ad.sub(s_mixed, s)
        s = s_mixed
    total = losses[0]
    for loss in losses[1:]:
        total = ad.add(total, loss)
    return ad.mul(total, 1.0 / (b * future.shape[1] * d))


def tape_train_predictor(windows, epochs, lr=1e-3, seed=0, batch=32,
                         observed=tj.OBSERVED_FRAMES, ramp_epochs=None,
                         clip_norm=1.0):
    """The tape training loop: the oracle for train_predictor."""
    n, t, _ = windows.shape
    predictor = tj.build_predictor(seed)
    store = predictor.store
    rng = np.random.default_rng(seed)
    ramp = ramp_epochs if ramp_epochs is not None else max(1, epochs // 2)
    curve = []
    for epoch in range(epochs):
        p_self = min(1.0, epoch / ramp)
        order = rng.permutation(n)
        total, count = 0.0, 0
        for lo in range(0, n, batch):
            idx = order[lo:lo + batch]
            b = len(idx)
            masks = (rng.random(b) < p_self for _ in range(t - observed))
            loss = tape_batch_loss(predictor, windows[idx, :observed],
                                   windows[idx, observed:], masks)
            store.zero_grad()
            ad.backward(loss)
            store.clip_grad_norm(clip_norm)
            store.adam_step(lr)
            total += loss.item() * b
            count += b
        curve.append(total / count)
    return predictor, curve


def training_batch(seed, b=6, frames=tj.OBSERVED_FRAMES + tj.HORIZON,
                   observed=tj.OBSERVED_FRAMES):
    """A predictor with random biases and a batch of smooth windows."""
    p, *_ = kernel_case({}, seed)
    windows = make_windows(b, frames, seed)
    return p, windows[:, :observed], windows[:, observed:]


@pytest.mark.parametrize("mask", ["teacher", "self", "mixed"])
def test_batch_loss_and_gradients_equal_the_tape(mask):
    p, obs, future = training_batch(30)
    horizon, b = future.shape[1], future.shape[0]
    use_self = {"teacher": np.zeros((horizon, b), bool),
                "self": np.ones((horizon, b), bool),
                "mixed": np.random.default_rng(31).random((horizon, b)) < 0.5}[mask]
    w = [p.store[n].values for n in tj._GRU_NAMES]
    loss, cache = tj._batch_forward(w, obs, future, use_self)
    grads = tj._batch_backward(w, cache)
    tape = tape_batch_loss(p, obs, future, iter(use_self))
    ad.backward(tape)
    assert loss == tape.item()
    for name, g in zip(tj._GRU_NAMES, grads):
        assert np.array_equal(g, p.store[name].grad), name


@pytest.mark.parametrize("epochs", [1, 3])
def test_train_predictor_equals_the_tape_loop(epochs):
    # ramp_epochs=1: epoch 0 is teacher forced, later epochs self-fed
    windows = make_windows(11, 16, seed=32)
    kwargs = dict(epochs=epochs, lr=3e-3, seed=3, batch=4, observed=6,
                  ramp_epochs=1)
    p, curve = tj.train_predictor(windows, **kwargs)
    oracle, oracle_curve = tape_train_predictor(windows, **kwargs)
    assert curve == oracle_curve
    for name in tj._GRU_NAMES:
        assert np.array_equal(p.store[name].values, oracle.store[name].values), name
    # training ends holding neither gradients nor Adam moments
    assert all(t.grad is None for t in p.store.params.values())
    assert not p.store._m and not p.store._v and p.store._t == 0


def test_batch_gradients_match_central_differences():
    p, obs, future = training_batch(33, b=4, frames=14, observed=6)
    # an undamped output head gives every weight a gradient well above the
    # differences' rounding error
    p.store["out/w"].values *= 50
    use_self = np.random.default_rng(34).random((future.shape[1], 4)) < 0.5
    w = [p.store[n].values for n in tj._GRU_NAMES]
    grads = tj._batch_backward(w, tj._batch_forward(w, obs, future, use_self)[1])
    rng = np.random.default_rng(35)
    step = 1e-6
    for _ in range(8):
        i = int(rng.integers(len(w)))
        j = int(rng.integers(w[i].size))
        flat = w[i].reshape(-1)
        orig = flat[j]
        flat[j] = orig + step
        up = tj._batch_forward(w, obs, future, use_self)[0]
        flat[j] = orig - step
        down = tj._batch_forward(w, obs, future, use_self)[0]
        flat[j] = orig
        numeric = (up - down) / (2 * step)
        assert grads[i].reshape(-1)[j] == pytest.approx(numeric, rel=1e-5, abs=1e-10), \
            (tj._GRU_NAMES[i], j)


def test_train_predictor_reduces_loss():
    # ramp_epochs=1 makes every epoch after the first fully self-fed, so
    # the per-epoch losses are comparable from epoch 1 on
    windows = make_windows(12, 12, seed=10)
    _, curve = tj.train_predictor(windows, epochs=8, lr=3e-3, seed=0,
                                  observed=4, ramp_epochs=1)
    assert curve[-1] < curve[1]


def test_train_predictor_deterministic():
    windows = make_windows(8, 10, seed=11)
    _, c1 = tj.train_predictor(windows, epochs=3, seed=5, observed=4)
    _, c2 = tj.train_predictor(windows, epochs=3, seed=5, observed=4)
    assert c1 == c2


def test_train_predictor_rejects_bad_shapes():
    with pytest.raises(tj.TrajoptError):
        tj.train_predictor(np.zeros((4, 10, 7)), epochs=1)


def test_train_predictor_rejects_windows_without_a_horizon():
    with pytest.raises(tj.TrajoptError):
        tj.train_predictor(make_windows(4, 6, seed=13), epochs=1, observed=6)


def test_train_predictor_aborts_on_nan():
    windows = make_windows(6, 10, seed=12)
    windows[2, 5, 3] = np.nan
    with pytest.raises(ad.TrainingError, match="diverged at epoch 0"):
        tj.train_predictor(windows, epochs=1, observed=4, batch=6)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_prediction_zerovel_oracle():
    rng = np.random.default_rng(13)
    p = tj.build_predictor(13)
    problems = []
    for _ in range(2):
        seq = slow_motion(rng, tj.OBSERVED_FRAMES + tj.HORIZON, scale=0.02)
        problems.append({"observed": seq[:tj.OBSERVED_FRAMES],
                         "future": seq[tj.OBSERVED_FRAMES:],
                         "goals": {}})
    report = tj.evaluate_prediction(p, problems,
                                    methods=("zerovel", "unconstrained"))
    assert report["episodes"] == 2
    assert report["skipped"] == 0
    table = report["table"]["zerovel"]
    # manual zero-velocity error at the 500 ms offset (frame 9)
    idx = int(0.5 / tj.FRAME_DT) - 1
    wrist_err = []
    for prob in problems:
        last = prob["observed"][-1].reshape(sc.NUM_JOINTS, 3)
        truth = prob["future"][idx].reshape(sc.NUM_JOINTS, 3)
        wrist_err.append(np.linalg.norm(last[sc.R_WRIST] - truth[sc.R_WRIST]))
    assert table["wrist"][500] == pytest.approx(np.mean(wrist_err), abs=1e-12)
    assert set(table["body"]) == set(tj.EVAL_OFFSETS_MS)


def test_evaluate_prediction_skips_short_futures():
    rng = np.random.default_rng(14)
    p = tj.build_predictor(14)
    seq = slow_motion(rng, tj.OBSERVED_FRAMES + tj.HORIZON, scale=0.02)
    good = {"observed": seq[:tj.OBSERVED_FRAMES],
            "future": seq[tj.OBSERVED_FRAMES:], "goals": {}}
    short = {"observed": seq[:tj.OBSERVED_FRAMES],
             "future": seq[tj.OBSERVED_FRAMES:tj.OBSERVED_FRAMES + 5],
             "goals": {}}
    report = tj.evaluate_prediction(p, [good, short], methods=("zerovel",))
    assert report["episodes"] == 1
    assert report["skipped"] == 1
    with pytest.raises(tj.TrajoptError):
        tj.evaluate_prediction(p, [short], methods=("zerovel",))


def test_export_trajectory_csv(tmp_path):
    rng = np.random.default_rng(15)
    traj = rng.normal(size=(4, tj.STATE_DIM))
    path = tmp_path / "traj.csv"
    tj.export_trajectory_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "frame,joint,x,y,z"
    assert len(lines) == 1 + 4 * sc.NUM_JOINTS
    frame, joint, x, y, z = lines[1].split(",")
    assert (frame, joint) == ("0", "pelvis")
    assert float(x) == pytest.approx(traj[0, 0], rel=1e-6)
