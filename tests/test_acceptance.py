"""Acceptance gate: one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary
lines.  Criteria 1-4 and 9 are self-contained; criteria 5-8 share one
trained benchmark bundle (module-scoped fixture) so the full gate stays
inside the training and end-to-end time budgets it asserts.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import roots_legendre

import intentmotion.affordance as af
import intentmotion.autodiff as ad
import intentmotion.densities as dn
import intentmotion.scene as sc
import intentmotion.trajopt as tj
from intentmotion.autodiff import Tensor, grad_check
from intentmotion.harness import benchmark as bm
from intentmotion.harness import cli
from intentmotion.harness import datasets as ds
from intentmotion.harness import generator as gen


def _report(num, title, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " -- " + "; ".join(failures)
    print(f"\n[criterion {num}] {title}: {status}{detail}")
    assert not failures, f"criterion {num} ({title}):{detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient integrity


PRIMITIVES = [
    ("add", lambda ts: ad.sum_sq(ad.add(ts[0], ts[1])), [(3, 2), (3, 2)]),
    ("sub", lambda ts: ad.sum_sq(ad.sub(ts[0], ts[1])), [(4,), (4,)]),
    ("mul", lambda ts: ad.sum_(ad.mul(ts[0], ts[1])), [(3, 2), (3, 2)]),
    ("div", lambda ts: ad.sum_(ad.div(ts[0], ad.add(ad.mul(ts[1], ts[1]), 1.0))),
     [(4,), (4,)]),
    ("matmul", lambda ts: ad.sum_sq(ad.matmul(ts[0], ts[1])), [(3, 4), (4, 2)]),
    ("relu", lambda ts: ad.sum_sq(ad.relu(ts[0])), [(5,)]),
    ("tanh", lambda ts: ad.sum_(ad.tanh(ts[0])), [(5,)]),
    ("sigmoid", lambda ts: ad.sum_(ad.sigmoid(ts[0])), [(5,)]),
    ("exp", lambda ts: ad.sum_(ad.exp(ts[0])), [(5,)]),
    ("softplus", lambda ts: ad.sum_(ad.softplus(ts[0])), [(5,)]),
    ("softmax", lambda ts: ad.sum_sq(ad.softmax(ts[0])), [(2, 4)]),
    ("concat", lambda ts: ad.sum_sq(ad.concat([ts[0], ts[1]], axis=-1)),
     [(2, 3), (2, 2)]),
    ("take", lambda ts: ad.sum_sq(ts[0][1:, :2]), [(3, 4)]),
    ("reshape", lambda ts: ad.sum_sq(ad.reshape(ts[0], (6,))), [(2, 3)]),
    ("pow", lambda ts: ad.sum_(ad.pow_const(ad.add(ad.mul(ts[0], ts[0]), 1.0), 1.5)),
     [(4,)]),
    ("sum_axis", lambda ts: ad.sum_sq(ad.sum_(ts[0], axis=1)), [(3, 4)]),
    ("mean", lambda ts: ad.sum_sq(ad.mean(ts[0], axis=0)), [(3, 4)]),
    ("logsumexp", lambda ts: ad.sum_(ad.logsumexp(ts[0], axis=-1)), [(3, 4)]),
    ("log_sinh", lambda ts: ad.sum_(ad.log_sinh(ad.softplus(ts[0]))), [(4,)]),
    ("bilinear2d", lambda ts: ad.sum_sq(
        ad.bilinear2d(np.arange(25.0).reshape(1, 5, 5), ts[0])), [(1, 3, 2)]),
    ("conv2d_same", lambda ts: ad.sum_sq(ad.conv2d_same(
        ad.reshape(ts[0], (1, 4, 4, 2)), ad.reshape(ts[1], (3, 3, 2, 2)))),
     [(4, 4, 2), (3, 3, 2, 2)]),
    ("maxpool2", lambda ts: ad.sum_sq(ad.maxpool2(ad.reshape(ts[0], (1, 4, 4, 2)))),
     [(4, 4, 2)]),
    ("upsample2", lambda ts: ad.sum_sq(
        ad.upsample2_nearest(ad.reshape(ts[0], (1, 2, 2, 2)))), [(2, 2, 2)]),
]

N_INSTANCES = 10
TOL_GRAD = 1e-4


def _make_place_set(n, seed):
    rng = np.random.default_rng(seed)
    plane = sc.SupportPlane("table", (0.0, 0.0), (1.2, 1.2), 0.72)
    objects = [sc.SceneObject("cup0", "cup", (0.2, 0.1, 0.72), 0.0, (0.06, 0.06))]
    stack = sc.plane_feature_stack(plane, objects).stack()
    return af.PlaceabilitySet(
        traj=0.1 * rng.normal(size=(n, af.TRAJ_DIM)),
        onehot=np.tile(sc.onehot_code("cup", "table"), (n, 1)),
        features=np.tile(stack, (n, 1, 1, 1)),
        label=rng.uniform(-0.4, 0.4, size=(n, 2)),
        cell_size=np.tile(plane.cell_size, (n, 1)),
        half_extent=np.tile((0.6, 0.6), (n, 1)),
        radius=np.full(n, 0.05),
        offset=np.ones(n),
        persona=np.arange(n) % 3,
        pelvis_plane=rng.uniform(-0.5, 0.5, size=(n, 2)),
    )


def _penalty_param_check(seed):
    """Worst rel error of the penalty-variant loss gradient on a random
    parameter subset, against central differences."""
    data = _make_place_set(4, seed)
    model = af.assemble_placeability("penalty", seed=seed)
    loss = af.placeability_loss(model, data)
    model.store.zero_grad()
    ad.backward(loss)
    rng = np.random.default_rng(seed)
    step = 1e-5
    worst = 0.0
    for name in ("trunk/out/b", "trunk/l1/b", "enc/c2/b", "enc/proj/b"):
        tensor = model.store[name]
        flat = tensor.values.ravel()
        gflat = tensor.grad.ravel()
        for i in rng.choice(flat.size, size=3, replace=False):
            orig = flat[i]
            flat[i] = orig + step
            fp = af.placeability_loss(model, data).item()
            flat[i] = orig - step
            fm = af.placeability_loss(model, data).item()
            flat[i] = orig
            numeric = (fp - fm) / (2 * step)
            worst = max(worst, abs(gflat[i] - numeric)
                        / max(abs(gflat[i]), abs(numeric), 1e-8))
    return worst


def test_criterion_1_gradient_integrity():
    t0 = time.time()
    failures = []

    for name, builder, shapes in PRIMITIVES:
        worst = 0.0
        for k in range(N_INSTANCES):
            rng = np.random.default_rng(1000 * k + (hash(name) % 1000))
            inputs = [rng.normal(size=s) for s in shapes]
            if name == "bilinear2d":
                inputs = [rng.uniform(0.6, 3.4, size=shapes[0])]
            worst = max(worst, grad_check(builder, inputs))
        if worst >= TOL_GRAD:
            failures.append(f"primitive {name} rel err {worst:.2e}")

    # density losses: mixture NLL, diagonal Gaussian NLL, direction+distance
    density_cases = {
        "mdn_nll": lambda ts: dn.mdn_nll_graph(ts[0], _LABELS2),
        "gaussian_nll": lambda ts: dn.gaussian_nll_graph(ts[0], _LABELS3),
        "vmf_loss": lambda ts: dn.vmf_loss_graph(ts[0], _DIRS, _DISTS),
    }
    shapes = {"mdn_nll": (4, 15), "gaussian_nll": (4, 6), "vmf_loss": (4, 5)}
    for name, builder in density_cases.items():
        worst = 0.0
        for k in range(N_INSTANCES):
            rng = np.random.default_rng(77 + k)
            worst = max(worst, grad_check(builder,
                                          [0.5 * rng.normal(size=shapes[name])]))
        if worst >= TOL_GRAD:
            failures.append(f"density loss {name} rel err {worst:.2e}")

    worst = max(_penalty_param_check(seed) for seed in range(N_INSTANCES))
    if worst >= TOL_GRAD:
        failures.append(f"penalty loss rel err {worst:.2e}")

    # full trajectory objective with respect to the controls
    worst = 0.0
    for k in range(N_INSTANCES):
        rng = np.random.default_rng(500 + k)
        pred = tj.build_predictor(seed=k, hidden=6, state_dim=6)
        observed = 0.05 * rng.normal(size=(4, 6))
        target = rng.normal(size=3)

        def objective(ts):
            return ad.add(tj.c_lowlevel(ts[0]),
                          ad.mul(tj.c_goalset(pred, observed, ts[0], target,
                                              wrist_index=1), 3.0))

        worst = max(worst, grad_check(objective,
                                      [0.1 * rng.normal(size=(3, 6))]))
    if worst >= TOL_GRAD:
        failures.append(f"trajectory objective rel err {worst:.2e}")

    elapsed = time.time() - t0
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.0f}s >= 120s")
    _report(1, "gradient integrity", failures)


_LBL_RNG = np.random.default_rng(9)
_LABELS2 = _LBL_RNG.uniform(-0.4, 0.4, size=(4, 2))
_LABELS3 = _LBL_RNG.uniform(-0.4, 0.4, size=(4, 3))
_DIRS = _LBL_RNG.normal(size=(4, 3))
_DIRS /= np.linalg.norm(_DIRS, axis=1, keepdims=True)
_DISTS = _LBL_RNG.uniform(0.2, 0.6, size=4)


# ---------------------------------------------------------------------------
# criterion 2: density normalization and Bessel series


def _mdn_quadrature(dist, n=300):
    lo = (dist.mu - 8 * dist.sigma).min(axis=0)
    hi = (dist.mu + 8 * dist.sigma).max(axis=0)
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx, gy], axis=-1)[:, :, None, :]  # (n, n, 1, 2)
    z = (pts - dist.mu) / dist.sigma
    comp = np.exp(-0.5 * (z ** 2).sum(axis=-1)) / (
        2 * np.pi * dist.sigma.prod(axis=-1))
    vals = (dist.alpha * comp).sum(axis=-1)
    return np.trapezoid(np.trapezoid(vals, ys, axis=1), xs)


def _vmf_sphere_quadrature(kappa, n=200):
    dist = dn.VmfDistribution(mu=np.array([0.0, 0.0, 1.0]), kappa=kappa)
    nodes, weights = roots_legendre(n)
    vals = np.array([math.exp(dn.vmf_logpdf(
        dist, np.array([math.sqrt(max(0.0, 1 - u ** 2)), 0.0, u])))
        for u in nodes])
    return 2 * math.pi * float(weights @ vals)


def test_criterion_2_density_normalization():
    t0 = time.time()
    failures = []

    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 8))
        dist = dn.MixtureDensity2D(
            alpha=rng.dirichlet(np.ones(m)),
            mu=rng.normal(scale=0.5, size=(m, 2)),
            sigma=rng.uniform(0.05, 0.4, size=(m, 2)))
        worst = max(worst, abs(_mdn_quadrature(dist) - 1.0))
    if worst >= 1e-3:
        failures.append(f"mixture integral off by {worst:.2e}")

    worst = max(abs(_vmf_sphere_quadrature(k) - 1.0)
                for k in (0.0, 0.5, 2.0, 10.0, 50.0))
    if worst >= 1e-2:
        failures.append(f"sphere integral off by {worst:.2e}")

    worst = 0.0
    for kappa in np.linspace(0.01, 50.0, 600):
        series = dn.bessel_i(0.5, kappa)
        closed = math.sqrt(2.0 / (math.pi * kappa)) * math.sinh(kappa)
        worst = max(worst, abs(series - closed) / abs(closed))
    if worst >= 1e-10:
        failures.append(f"half-order Bessel series rel err {worst:.2e}")

    elapsed = time.time() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.0f}s >= 60s")
    _report(2, "density normalization", failures)


# ---------------------------------------------------------------------------
# criterion 3: signed distance field vs brute-force oracle


def _brute_force_sdf(occ):
    n = occ.shape[0]
    out = np.zeros_like(occ, dtype=float)
    occ_cells = np.argwhere(occ != 0)
    free_cells = np.argwhere(occ == 0)
    for i in range(n):
        for j in range(n):
            if occ[i, j]:
                d = np.sqrt(((free_cells - (i, j)) ** 2).sum(axis=1))
                out[i, j] = -d.min() if len(free_cells) else -(2 * n)
            else:
                border = min(i + 1, j + 1, n - i, n - j)
                d = border
                if len(occ_cells):
                    d = min(d, np.sqrt(
                        ((occ_cells - (i, j)) ** 2).sum(axis=1)).min())
                out[i, j] = d
    return out


def test_criterion_3_sdf_oracle_equivalence():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 17))
        # density spans empty through near-full; the degenerate grid with
        # no free cell at all uses a documented sentinel, not a distance
        p = rng.choice([0.0, float(rng.uniform(0.05, 0.5)),
                        float(rng.uniform(0.5, 0.95))], p=[0.05, 0.75, 0.2])
        occ = (rng.random((n, n)) < p).astype(float)
        if not (occ == 0).any():
            occ[int(rng.integers(n)), int(rng.integers(n))] = 0.0
        diff = np.abs(sc.signed_distance_field(occ) - _brute_force_sdf(occ))
        worst = max(worst, float(diff.max()))
    if worst >= 1e-9:
        failures.append(f"max abs deviation {worst:.2e}")
    elapsed = time.time() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.0f}s >= 60s")
    _report(3, "signed distance field oracle equivalence", failures)


# ---------------------------------------------------------------------------
# criterion 4: L-BFGS behavior


def test_criterion_4_lbfgs():
    t0 = time.time()
    failures = []
    histories = []

    rng = np.random.default_rng(4)
    for _ in range(5):
        center = rng.normal(size=6)

        def quad(x):
            return float(0.5 * ((x - center) ** 2).sum()), x - center

        x, hist = tj.lbfgs_minimize(quad, rng.normal(size=6))
        histories.append(hist)
        if hist["iterations"] > 2 or np.abs(x - center).max() > 1e-8:
            failures.append(
                f"quadratic took {hist['iterations']} iters, "
                f"err {np.abs(x - center).max():.1e}")
            break

    def rosenbrock(x):
        a, b = x
        f = (1 - a) ** 2 + 100.0 * (b - a * a) ** 2
        g = np.array([-2 * (1 - a) - 400.0 * a * (b - a * a),
                      200.0 * (b - a * a)])
        return f, g

    x, hist = tj.lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]),
                                max_iters=200, tol=1e-10)
    histories.append(hist)
    err = np.abs(x - 1.0).max()
    if err > 1e-5:
        failures.append(f"Rosenbrock ended {err:.1e} from the optimum "
                        f"after {hist['iterations']} iters")

    for hist in histories:
        vals = np.asarray(hist["values"])
        if np.any(np.diff(vals) > 1e-12):
            failures.append("non-monotone objective sequence")
            break

    elapsed = time.time() - t0
    if elapsed >= 10:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(4, "L-BFGS", failures)


# ---------------------------------------------------------------------------
# criteria 5-8: shared trained benchmark


@pytest.fixture(scope="module")
def benchmark_run():
    cfg = bm.BenchmarkConfig()
    t0 = time.time()
    train_eps, test_eps = gen.generate_dataset(cfg.generator())
    bundle = bm.train_all(cfg, train_eps, test_eps)
    train_time = time.time() - t0

    place_test, _ = ds.extract_training_pairs(test_eps, "placeability")
    grasp_train, _ = ds.extract_training_pairs(train_eps, "graspability")
    grasp_test, _ = ds.extract_training_pairs(test_eps, "graspability")
    place = bm.placeability_report(bundle, place_test)
    grasp = bm.graspability_report(bundle, grasp_train, grasp_test)
    rates = bm.valid_region_report(bundle, place_test)
    motion = bm.motion_report(bundle, cfg, test_eps)
    total_time = time.time() - t0
    return {"config": cfg, "bundle": bundle, "test_eps": test_eps,
            "place": place, "grasp": grasp, "rates": rates, "motion": motion,
            "train_time": train_time, "total_time": total_time}


@pytest.mark.slow
def test_criterion_5_placeability_ordering(benchmark_run):
    failures = []
    place = benchmark_run["place"]
    baseline = place["baseline_mse"]
    mse = {v: place["variants"][v]["test"]["mse"] for v in af.PLACE_VARIANTS}
    for v, value in mse.items():
        if not baseline > value:
            failures.append(f"baseline {baseline:.4f} <= {v} {value:.4f}")
    best = min(mse.values())
    if not mse["transfer"] <= 1.05 * best:
        failures.append(f"transfer {mse['transfer']:.4f} not within 5% of "
                        f"best {best:.4f}")
    if benchmark_run["train_time"] >= 900:
        failures.append(f"training took {benchmark_run['train_time']:.0f}s "
                        ">= 900s")
    _report(5, "placeability test MSE ordering", failures)


@pytest.mark.slow
def test_criterion_6_valid_region_ordering(benchmark_run):
    failures = []
    rates = benchmark_run["rates"]
    for variant in ("transfer", "penalty"):
        for offset in (4.0, 3.0, 2.0, 1.0, 0.5):
            if rates[variant][offset] < rates["plain"][offset]:
                failures.append(
                    f"{variant} {rates[variant][offset]:.3f} < plain "
                    f"{rates['plain'][offset]:.3f} at {offset:g}s")
    _report(6, "valid-region rate ordering", failures)


@pytest.mark.slow
def test_criterion_7_graspability_ordering(benchmark_run):
    failures = []
    grasp = benchmark_run["grasp"]
    g, v, b = grasp["gaussian_mse"], grasp["vmf_mse"], grasp["baseline_mse"]
    if not g < b:
        failures.append(f"gaussian {g:.4f} not below baseline {b:.4f}")
    if not v < b:
        failures.append(f"vmf {v:.4f} not below baseline {b:.4f}")
    if not g <= 1.25 * v:
        failures.append(f"gaussian {g:.4f} above 1.25 x vmf {v:.4f}")
    _report(7, "graspability test MSE ordering", failures)


@pytest.mark.slow
def test_criterion_8_motion_ordering(benchmark_run):
    failures = []
    motion = benchmark_run["motion"]
    if motion["episodes"] < 20:
        failures.append(f"only {motion['episodes']} episodes")
    for metric in ("wrist", "body"):
        zv, un, ours, oracle = (motion["table"][m][metric][1500]
                                for m in tj.METHODS)
        if not zv >= 1.10 * un:
            failures.append(f"{metric}: zerovel {zv:.4f} not 10% above "
                            f"unconstrained {un:.4f}")
        if not un >= 1.10 * ours:
            failures.append(f"{metric}: unconstrained {un:.4f} not 10% above "
                            f"ours {ours:.4f}")
        if not ours <= 1.05 * oracle:
            failures.append(f"{metric}: ours {ours:.4f} reverses oracle "
                            f"{oracle:.4f} beyond 5%")

    # with zero goal weight the optimum is zero controls: the solution must
    # reproduce the unconstrained rollout exactly
    predictor = benchmark_run["bundle"].predictor
    problems = ds.prediction_problems(benchmark_run["test_eps"])
    prob = problems[0]
    goal = prob["goals"]["oracle"]
    traj0, delta0, _ = tj.predict_fullbody(predictor, prob["observed"], goal,
                                           goal_mode="place", alpha2=0.0)
    free = tj.unroll(predictor, prob["observed"],
                     np.zeros((tj.HORIZON, tj.STATE_DIM))).values
    if not (np.linalg.norm(delta0) == 0.0 and np.allclose(traj0, free)):
        failures.append("alpha2=0 does not reproduce the zero-control rollout")

    dists = []
    for alpha2 in (0.1, 1.0, 10.0, 100.0):
        _, _, diag = tj.predict_fullbody(predictor, prob["observed"], goal,
                                         goal_mode="place", alpha2=alpha2)
        dists.append(diag["goal_distance"])
    if np.any(np.diff(dists) > 1e-8):
        failures.append(f"goal distance not non-increasing in alpha2: {dists}")

    if benchmark_run["total_time"] >= 1200:
        failures.append(f"end-to-end took {benchmark_run['total_time']:.0f}s "
                        ">= 1200s")
    _report(8, "goal-constrained motion ordering", failures)


# ---------------------------------------------------------------------------
# criterion 9: byte-identical determinism


def test_criterion_9_determinism(tmp_path):
    failures = []
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "personas": 2, "episodes_per_persona": 2, "autoencoder_epochs": 2,
        "place_epochs": 2, "grasp_epochs": 2, "predictor_epochs": 2,
        "eval_episode_cap": 2}))
    stages = ([["gen-data"], ["train-autoencoder"]]
              + [["train-place", "--variant", v] for v in af.PLACE_VARIANTS]
              + [["train-grasp"], ["train-predictor"],
                 ["predict", "--goal-source", "affordance"], ["eval"]])
    for run in ("a", "b"):
        out = str(tmp_path / run)
        for stage in stages:
            code = cli.main(stage + ["--seed", "11", "--out", out,
                                     "--config", str(cfg_path)])
            if code != 0:
                failures.append(f"{stage[0]} exited {code} in run {run}")
    if not failures:
        files_a = sorted(p.relative_to(tmp_path / "a")
                         for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b")
                         for p in (tmp_path / "b").rglob("*") if p.is_file())
        if files_a != files_b:
            failures.append("run outputs list different files")
        for rel in files_a:
            if (tmp_path / "a" / rel).read_bytes() != \
                    (tmp_path / "b" / rel).read_bytes():
                failures.append(f"{rel} differs between repeat runs")
    _report(9, "byte-identical determinism", failures)
