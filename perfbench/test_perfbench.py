"""Self-tests of the benchmark: every check passes on the library's own
output and fails on a corrupted one, every workload finishes at a tiny
size, and the tracer records and removes its wrappers."""

import numpy as np
import pytest

import intentmotion.affordance as af
import intentmotion.scene as sc
import intentmotion.trajopt as tj
from intentmotion.harness import benchmark as bm
from intentmotion.harness import datasets as ds
from intentmotion.harness import generator as gen

import oracles
import spans
import workloads


@pytest.fixture(scope="module")
def tiny():
    cfg = bm.BenchmarkConfig(seed=3, personas=3, episodes_per_persona=2)
    train_eps, test_eps = gen.generate_dataset(cfg.generator())
    return cfg, train_eps, test_eps


@pytest.fixture(scope="module")
def prediction(tiny):
    _, _, test_eps = tiny
    prob = ds.prediction_problems(test_eps)[0]
    model = af.assemble_placeability("no-cnn", seed=0)
    predictor = tj.build_predictor(seed=0)
    goal = bm.affordance_place_goal(model, predictor, prob)
    traj, delta, diag = tj.predict_fullbody(predictor, prob["observed"], goal,
                                            goal_mode="place", max_iters=5)
    ep = prob["episode"]
    window, _ = ds._traj_window(ep, prob["query_frame"])
    dist = af.placeability_predict(model, window,
                                   sc.onehot_code(ep.target_type, "table"))[0]
    weights = {n: t.values for n, t in predictor.store.params.items()}
    return weights, prob, goal, traj, delta, diag, dist


def _check(prediction, **override):
    weights, prob, goal, traj, delta, diag, dist = prediction
    args = dict(goal=goal, traj=traj, delta=delta, diag=diag)
    args.update(override)
    bad, _ = oracles.check_prediction(
        weights, prob["observed"], dist=dist, table=gen.TABLE,
        wrist=sc.R_WRIST, hover=tj.HOVER_OFFSET, spread=bm.GOAL_SPREAD,
        alpha1=1.0, alpha2=10.0, **args)
    return bad


def test_prediction_check_passes_on_library_output(prediction):
    weights, prob, _, _, delta, _, _ = prediction
    assert _check(prediction) == []
    free = tj.unroll(tj.build_predictor(seed=0), prob["observed"],
                     np.zeros_like(delta)).values
    np.testing.assert_allclose(
        oracles.gru_rollout(weights, prob["observed"], np.zeros_like(delta)),
        free, rtol=0, atol=oracles.ROLLOUT_TOL)


def test_prediction_check_fails_on_perturbed_trajectory(prediction):
    traj = prediction[3].copy()
    traj[17, 5] += 1e-6
    assert any("trajectory" in m for m in _check(prediction, traj=traj))


def test_prediction_check_fails_on_runner_up_goal(prediction):
    weights, prob, goal, _, delta, _, dist = prediction
    free = oracles.gru_rollout(weights, prob["observed"], np.zeros_like(delta))
    lo = 3 * sc.R_WRIST
    x = free[-1, lo:lo + 2] - np.asarray(gen.TABLE.frame_origin)
    var = dist.sigma ** 2 + bm.GOAL_SPREAD ** 2
    score = np.log(dist.alpha) - 0.5 * np.sum((x - dist.mu) ** 2 / var
                                              + np.log(var), axis=1)
    runner_up = np.argsort(score)[-2]
    wrong = np.append(dist.mu[runner_up] + gen.TABLE.frame_origin,
                      gen.TABLE.height)
    assert any("responsible component" in m
               for m in _check(prediction, goal=wrong))


def test_roundtrip_check_fails_on_changed_digit(tiny):
    _, train_eps, _ = tiny
    ep = train_eps[0]
    lines = gen.episode_to_jsonl(ep).split("\n")
    assert workloads.check_roundtrip(
        [ep], [gen.episode_from_jsonl("\n".join(lines))]) == []
    k = next(i for i, line in enumerate(lines) if '"type": "frame"' in line)
    at = lines[k].index('"joints": [[') + len('"joints": [[') + 3
    digit = lines[k][at]
    assert digit.isdigit()
    lines[k] = lines[k][:at] + str((int(digit) + 1) % 10) + lines[k][at + 1:]
    bad = workloads.check_roundtrip([ep], [gen.episode_from_jsonl("\n".join(lines))])
    assert bad and "round trip" in bad[0]


def test_baseline_check_fails_on_moved_point(tiny, monkeypatch):
    _, _, test_eps = tiny
    place, _ = ds.extract_training_pairs(test_eps, "placeability")
    want = oracles.nearest_valid_cell_mse(place)
    assert af.baseline_place_mse(place) == want
    original = af._place_baseline_on_grid
    calls = []

    def moved(*args):
        point = original(*args)
        calls.append(1)
        return point + (0.05 if len(calls) == 1 else 0.0)

    monkeypatch.setattr(af, "_place_baseline_on_grid", moved)
    assert abs(af.baseline_place_mse(place) - want) > 1e-12 * want


def test_brute_sdf_matches_library(tiny):
    _, train_eps, _ = tiny
    for ep in train_eps:
        occ = oracles.occupancy(gen.TABLE, ep.objects)
        grid = sc.plane_feature_stack(gen.TABLE, ep.objects)
        assert np.array_equal(occ, grid.occupancy != 0)
        np.testing.assert_allclose(oracles.brute_sdf(occ), grid.sdf, atol=1e-12)


def test_clearance_check_rejects_a_contact_inside_an_object(tiny):
    _, train_eps, _ = tiny
    ep = next(e for e in train_eps if e.objects)
    obj = ep.objects[0]
    assert oracles.check_place_contact(gen.TABLE, ep.objects, obj.position[:2],
                                       0.04)


@pytest.fixture
def tiny_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "PERSONAS", 5)
    monkeypatch.setattr(workloads, "EPISODES_PER_PERSONA", 2)
    monkeypatch.setattr(workloads, "PREDICT_PROBLEMS", 2)
    monkeypatch.setattr(workloads, "SETUP_REPEATS",
                        {"predict": 1, "train": 1, "dataset": 1})
    monkeypatch.setattr(workloads, "PREDICT_EPOCHS",
                        {"autoencoder_epochs": 1, "place_epochs": 1,
                         "predictor_epochs": 1})
    monkeypatch.setattr(workloads, "TRAIN_EPOCHS",
                        {"autoencoder_epochs": 2, "place_epochs": 2,
                         "grasp_epochs": 2, "predictor_epochs": 1})


@pytest.mark.parametrize("name", ["predict", "train", "dataset"])
def test_workload_completes_at_tiny_size(name, tiny_sizes, tmp_path):
    kwargs = {"out_dir": str(tmp_path)} if name == "dataset" else {}
    tracer = spans.Tracer()
    run = workloads.WORKLOADS[name](2, 0.0, tracer, min_ops=1, **kwargs)
    assert run.problems == [] and run.failed == 0 and len(run.op_s) == 1
    assert run.quality
    metrics = spans.layer_metrics(spans.summarize(tracer.spans, {0}))
    assert all(np.isfinite(v) for v, _ in metrics.values())
    busy = {"predict": "trajopt.lbfgs.evals_per_problem",
            "train": "autodiff.conv2d_same.bwd_ms",
            "dataset": "harness.generator.episodes_per_attempt"}[name]
    assert metrics[busy][0] > 0
    assert not hasattr(tj.unroll, "__wrapped__")


def test_tracer_self_time_and_restore():
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.item = 0
        tj.zero_velocity_baseline(np.zeros((2, tj.STATE_DIM)), 3)
        x = tj.Tensor(np.ones(3))
        tj.ad.backward(tj.ad.sum_sq(x))
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert "trajopt.zero_velocity_baseline" in names
    assert "autodiff.backward" in names and "autodiff.sum_sq" in names
    summary = spans.summarize(tracer.spans, {0})
    assert summary["autodiff.backward"]["n"] == 3  # x, x * x, the sum
    sq = summary["autodiff.sum_sq"]
    assert 0 <= sq["self"] <= sq["total"]
    assert not hasattr(tj.ad.backward, "__wrapped__")
