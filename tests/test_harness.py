"""Tests for the episode generator, dataset extraction, and the CLI."""

import dataclasses
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.ndimage import uniform_filter1d

import intentmotion.affordance as af
import intentmotion.scene as sc
import intentmotion.trajopt as tj
from intentmotion.autodiff import ParamStore
from intentmotion.harness import benchmark as bm
from intentmotion.harness import cli
from intentmotion.harness import datasets as ds
from intentmotion.harness import generator as gen


@pytest.fixture(scope="module")
def small_world():
    config = gen.GeneratorConfig(seed=11, personas=3, episodes_per_persona=2)
    train, test = gen.generate_dataset(config)
    return config, train, test


# ---------------------------------------------------------------------------
# generator contracts


def test_config_validation():
    with pytest.raises(gen.GeneratorError):
        gen.GeneratorConfig(personas=1)
    with pytest.raises(gen.GeneratorError):
        gen.GeneratorConfig(episodes_per_persona=0)


def test_same_seed_identical_bytes(small_world):
    config, train, _ = small_world
    again = gen.generate_episode(config, train[0].persona, train[0].index)
    assert gen.episode_to_jsonl(again) == gen.episode_to_jsonl(train[0])


def test_sampling_rate_and_length(small_world):
    _, train, test = small_world
    for ep in train + test:
        dt = np.diff(ep.timestamps)
        assert np.allclose(dt, 1.0 / gen.HZ, atol=1e-12)
        assert 8.0 <= len(ep) * gen.DT <= 15.0


def test_events_ordered_and_contacts_valid(small_world):
    _, train, test = small_world
    for ep in train + test:
        times = [e.time for e in ep.events]
        assert times == sorted(times)
        place = [e for e in ep.events if e.kind == "place"][0]
        point = gen.TABLE.to_plane_frame(np.asarray(place.point[:2]))
        radius = max(gen.OBJECT_EXTENTS[ep.target_type])
        assert sc.is_valid_placement(point, gen.TABLE, ep.objects, radius)


def test_object_track_follows_script(small_world):
    _, train, _ = small_world
    ep = train[0]
    grasp, place = ep.events
    gf, pf = ep.frame_at(grasp.time), ep.frame_at(place.time)
    assert np.allclose(ep.object_track[0], ep.object_track[gf])
    assert np.allclose(ep.object_track[pf], place.point)
    held = ep.object_track[gf + 2]
    wrist = ep.joints[gf + 2, sc.R_WRIST]
    assert np.linalg.norm(held - wrist) < 0.15


def _sample_place_point_loop(rng, seat, distractors, radius):
    """The place-point search written cell by cell: wide clearance first,
    the nearest valid cell by strict ``<`` in (x, y) order."""
    side = np.sign(gen.SEATS[seat][1])
    anchor = np.array([gen.SEATS[seat][0] + rng.normal(0, 0.04),
                       side * (0.20 + rng.normal(0, 0.03))])
    grid = sc.plane_feature_stack(gen.TABLE, distractors)
    margin = max(gen.TABLE.cell_size)
    xs, ys = gen.TABLE.cell_centers()
    best, best_d = None, np.inf
    for wide in (True, False):
        for x in xs:
            for y in np.compress(np.sign(ys) == side, ys):
                p = np.array([x, y])
                d = np.linalg.norm(p - anchor)
                r = radius + margin if wide else radius
                if d < best_d and sc.is_valid_placement(p, gen.TABLE, distractors,
                                                        r, grid=grid):
                    best, best_d = p, d
        if best is not None:
            break
    if best is None or best_d > 0.45:
        return None
    jitter = best + rng.uniform(-0.015, 0.015, size=2)
    if sc.is_valid_placement(jitter, gen.TABLE, distractors, radius, grid=grid):
        return jitter
    return best


def test_sample_place_point_matches_cell_loop():
    outcomes = set()
    for seed in range(200):
        rng = np.random.default_rng([seed, 99])
        distractors = gen._place_distractors(rng, int(rng.integers(3, 6)))
        seat = int(rng.integers(4))
        radius = max(gen.OBJECT_EXTENTS[sc.MOVABLE_TYPES[seed % 4]]) + 0.005
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = gen._sample_place_point(a, seat, distractors, radius)
        want = _sample_place_point_loop(b, seat, distractors, radius)
        if want is None:
            assert got is None
        else:
            assert got.tobytes() == want.tobytes()
        assert a.random() == b.random()  # same draws consumed
        outcomes.add(want is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("width", [7, 9])
def test_moving_average_bits_equal_uniform_filter1d(width):
    rng = np.random.default_rng(width)
    for length in range(1, 41):
        for shape in ((length,), (length, 3)):
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
            want = uniform_filter1d(x, width, axis=0, mode="nearest")
            assert gen._moving_average(x, width).tobytes() == want.tobytes()


RUNTIME_IMPORTS = """
import sys
import intentmotion
import intentmotion.harness.benchmark
import intentmotion.harness.cli
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runtime_does_not_import_scipy():
    src = str(pathlib.Path(bm.__file__).parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", RUNTIME_IMPORTS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_distractor_grid_built_once_per_object(monkeypatch):
    calls = []
    build = sc.plane_feature_stack

    def counted(plane, objects):
        calls.append(len(objects))
        return build(plane, objects)

    monkeypatch.setattr(sc, "plane_feature_stack", counted)
    gen._place_distractors(np.random.default_rng(3), 5)
    # one grid per object to place (5 in the middle, 2 in the side bands),
    # not one per candidate position
    assert calls == list(range(7))


def test_seat_choice_follows_persona_bias():
    config = gen.GeneratorConfig(seed=5, personas=2, episodes_per_persona=1)
    persona = 0
    profile = gen.persona_profile(config, persona)
    counts = np.zeros(4)
    n = 300
    for index in range(n):
        ep = gen.generate_episode(config, persona, index)
        place = [e for e in ep.events if e.kind == "place"][0]
        rel = gen.TABLE.to_plane_frame(np.asarray(place.point[:2]))
        side = 0 if rel[1] < 0 else 2
        seat = side + (0 if rel[0] < 0 else 1)
        counts[seat] += 1
    for k in range(4):
        p = profile.seat_bias[k]
        sigma = np.sqrt(n * p * (1 - p))
        # +2 count slack: infeasible-scene retries resample the seat, which
        # perturbs near-zero probabilities beyond the pure binomial bound
        assert abs(counts[k] - n * p) <= 3 * sigma + 2, \
            f"seat {k}: {counts[k]} vs expected {n * p:.1f}"


def test_jsonl_roundtrip_byte_identical(small_world):
    _, train, _ = small_world
    text = gen.episode_to_jsonl(train[0])
    assert gen.episode_to_jsonl(gen.episode_from_jsonl(text)) == text


def test_jsonl_without_scene_record_rejected(small_world):
    _, train, _ = small_world
    lines = gen.episode_to_jsonl(train[0]).split("\n")
    with pytest.raises(ValueError, match="no scene record"):
        gen.episode_from_jsonl("\n".join(lines[1:]))


def test_split_hygiene(small_world):
    _, train, test = small_world
    assert not ({ep.persona for ep in train} & {ep.persona for ep in test})


# ---------------------------------------------------------------------------
# dataset extraction


def test_pair_counts_per_episode(small_world):
    _, train, _ = small_world
    one = [train[0]]
    place, skipped = ds.extract_training_pairs(one, "placeability")
    assert len(place) == 5 and skipped == 0
    grasp, skipped = ds.extract_training_pairs(one, "graspability")
    assert len(grasp) == 1 and skipped == 0
    auto, _ = ds.extract_training_pairs(one, "autoencoder")
    assert len(auto) == 1
    windows, _ = ds.extract_training_pairs(one, "predictor")
    expected = (len(train[0]) - ds.WINDOW) // ds.STRIDE + 1
    assert windows.shape == (expected, ds.WINDOW, tj.STATE_DIM)


def test_unknown_task_rejected(small_world):
    _, train, _ = small_world
    with pytest.raises(ValueError):
        ds.extract_training_pairs(train, "telepathy")


def test_events_too_early_are_skipped(small_world):
    _, train, _ = small_world
    ep = train[0]
    early = dataclasses.replace(ep.events[1], time=2.0)
    doctored = dataclasses.replace(ep, events=[ep.events[0], early])
    place, skipped = ds.extract_training_pairs([doctored], "placeability")
    # offsets 4, 3, 2 s leave less than one second of history
    assert skipped == 3 and len(place) == 2


def test_traj_windows_are_pelvis_relative(small_world):
    _, train, _ = small_world
    place, _ = ds.extract_training_pairs(train, "placeability")
    window = place.traj[0].reshape(20, 14, 3)
    assert np.allclose(window[-1, sc.PELVIS], 0.0, atol=1e-12)


def test_autoencoder_target_includes_placed_object(small_world):
    _, train, _ = small_world
    auto, _ = ds.extract_training_pairs(train, "autoencoder")
    ep = train[0]
    place = [e for e in ep.events if e.kind == "place"][0]
    rel = gen.TABLE.to_plane_frame(np.asarray(place.point[:2]))
    cell = np.round((rel + np.asarray(gen.TABLE.extent) / 2)
                    / gen.TABLE.cell_size - 0.5).astype(int)
    assert auto.target[0][cell[0], cell[1]] == 1.0
    # the target adds occupancy on top of the pre-place grid
    assert auto.target[0].sum() >= auto.features[0, ..., 0].sum()


def test_placeability_labels_in_plane_frame(small_world):
    _, train, _ = small_world
    place, _ = ds.extract_training_pairs(train, "placeability")
    w, d = gen.TABLE.extent
    assert np.all(np.abs(place.label[:, 0]) <= w / 2)
    assert np.all(np.abs(place.label[:, 1]) <= d / 2)
    assert set(place.offset) == set(ds.PLACE_OFFSETS)


def test_prediction_problems_alignment(small_world):
    _, _, test = small_world
    problems = ds.prediction_problems(test)
    assert problems
    for prob in problems:
        assert prob["observed"].shape == (tj.OBSERVED_FRAMES, tj.STATE_DIM)
        assert prob["future"].shape == (tj.HORIZON, tj.STATE_DIM)
        ep = prob["episode"]
        pf = ep.frame_at(prob["event"].time)
        truth = ep.joints[pf, sc.R_WRIST]
        assert np.allclose(prob["future"][-1].reshape(13, 3)[sc.R_WRIST], truth)
        assert np.allclose(prob["goals"]["oracle"], truth)


# ---------------------------------------------------------------------------
# CLI


def tiny_config(tmp_path):
    cfg = {"personas": 2, "episodes_per_persona": 1, "autoencoder_epochs": 1,
           "place_epochs": 1, "grasp_epochs": 1, "predictor_epochs": 1,
           "eval_episode_cap": 1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_gen_data_deterministic(tmp_path):
    cfg = tiny_config(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert cli.main(["gen-data", "--seed", "7", "--out", out,
                         "--config", cfg]) == 0
    m1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert m1 == m2
    assert m1["data_hash"] == m2["data_hash"]
    assert m1["seed"] == 7


def test_cli_usage_errors(tmp_path, capsys):
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["gen-data", "--no-such-flag"]) == 1
    bad = tmp_path / "bad.json"
    for key, value in (("flux_capacitor", 1), ("goal_variant", "bogus"),
                       ("eval_episode_cap", 0), ("eval_episode_cap", -1)):
        capsys.readouterr()
        bad.write_text(json.dumps({key: value}))
        assert cli.main(["gen-data", "--out", str(tmp_path / "o"),
                         "--config", str(bad)]) == 1
        assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


EPOCH_KEY_COMMANDS = {"autoencoder_epochs": ["train-autoencoder"],
                      "place_epochs": ["train-place", "--variant", "plain"],
                      "grasp_epochs": ["train-grasp"],
                      "predictor_epochs": ["train-predictor"]}


@pytest.mark.parametrize("key", list(EPOCH_KEY_COMMANDS))
def test_cli_zero_epochs_is_a_usage_error(tmp_path, capsys, key):
    cfg = tiny_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["gen-data", "--seed", "1", "--out", out,
                     "--config", cfg]) == 0
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps(dict(json.loads(pathlib.Path(cfg).read_text()),
                                   **{key: 0})))
    assert cli.main(EPOCH_KEY_COMMANDS[key] + ["--seed", "1", "--out", out,
                                               "--config", str(bad)]) == 1
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out" / "checkpoints").exists()


def test_cli_export_heatmap_without_place_event_exits_2(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    base = ["--seed", "5", "--out", str(out), "--config", cfg]
    assert cli.main(["gen-data"] + base) == 0
    assert cli.main(["train-place", "--variant", "plain"] + base) == 0
    path = sorted((out / "episodes" / "test").glob("*.jsonl"))[0]
    lines = path.read_text().splitlines()
    events = json.loads(lines[-1])
    events["events"] = [e for e in events["events"] if e["kind"] != "place"]
    path.write_text("\n".join(lines[:-1] + [json.dumps(events)]) + "\n")
    assert cli.main(["export-heatmap", "--variant", "plain"] + base) == 2
    err = capsys.readouterr().err
    assert "has no place event" in err and "Traceback" not in err
    # eval's report reaches the same export through run_benchmark
    episode = cli.load_episodes(str(out), "test")[0]
    model = cli._load_place_model(str(out), "plain")
    with pytest.raises(ValueError, match=f"episode {episode.index} of persona "
                                         f"{episode.persona} has no place"):
        bm.export_heatmaps(model, episode, str(tmp_path / "h"))


def test_cli_eval_without_checkpoints(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["gen-data", "--seed", "1", "--out", out,
                     "--config", cfg]) == 0
    assert cli.main(["eval", "--seed", "1", "--out", out,
                     "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "place_plain" in err and "predictor" in err


def test_cli_transfer_requires_autoencoder(tmp_path):
    cfg = tiny_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["gen-data", "--seed", "2", "--out", out,
                     "--config", cfg]) == 0
    assert cli.main(["train-place", "--variant", "transfer", "--seed", "2",
                     "--out", out, "--config", cfg]) == 2


def test_cli_truncated_checkpoint_exits_2(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    base = ["--seed", "2", "--out", str(out), "--config", cfg]
    assert cli.main(["gen-data"] + base) == 0
    assert cli.main(["train-autoencoder"] + base) == 0
    path = out / "checkpoints" / "autoencoder.ckpt"
    full = ParamStore.load(path)
    path.write_bytes(path.read_bytes()[:20])
    assert cli.main(["train-place", "--variant", "transfer"] + base) == 2
    assert "truncated checkpoint" in capsys.readouterr().err
    # a well-formed checkpoint whose kernel has the wrong shape
    wrong = ParamStore()
    for n in full.names():
        wrong.add(n, full[n].values[..., :7] if n == "enc/c1/k" else full[n].values)
    wrong.save(path)
    assert cli.main(["train-place", "--variant", "transfer"] + base) == 2
    err = capsys.readouterr().err
    assert "autoencoder.ckpt: encoder parameter 'enc/c1/k' has shape" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, model, cut", [
    ("place_plain", lambda: af.assemble_placeability("plain").store, "trunk/l1/w"),
    ("grasp_vmf", lambda: af.assemble_graspability("vmf").store, "trunk/l1/w"),
    ("predictor", lambda: tj.build_predictor().store, "gru/wz"),
])
def test_cli_wrong_layout_checkpoint_exits_2(tmp_path, capsys, name, model, cut):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    base = ["--seed", "2", "--out", str(out), "--config", cfg]
    assert cli.main(["gen-data"] + base) == 0
    store, wrong = model(), ParamStore()
    for n in store.names():
        wrong.add(n, store[n].values[..., :-1] if n == cut else store[n].values)
    (out / "checkpoints").mkdir()
    wrong.save(out / "checkpoints" / f"{name}.ckpt")
    assert cli.main(["eval"] + base) == 2
    err = capsys.readouterr().err
    assert f"{name}.ckpt: " in err and f"parameter {cut!r} has shape" in err
    assert "Traceback" not in err


def test_cli_jsonl_without_scene_record_exits_2(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "out"
    base = ["--seed", "3", "--out", str(out), "--config", cfg]
    assert cli.main(["gen-data"] + base) == 0
    path = sorted((out / "episodes" / "train").glob("*.jsonl"))[0]
    path.write_text("".join(path.read_text().splitlines(True)[1:]))
    assert cli.main(["train-predictor"] + base) == 2
    assert "no scene record" in capsys.readouterr().err


def test_cli_smoke_pipeline(tmp_path):
    """gen -> train x4 -> predict -> eval produces the report files."""
    cfg = tiny_config(tmp_path)
    out = str(tmp_path / "out")
    base = ["--seed", "4", "--out", out, "--config", cfg]
    assert cli.main(["gen-data"] + base) == 0
    assert cli.main(["train-autoencoder"] + base) == 0
    for variant in af.PLACE_VARIANTS:
        assert cli.main(["train-place", "--variant", variant] + base) == 0
    assert cli.main(["train-grasp"] + base) == 0
    assert cli.main(["train-predictor"] + base) == 0
    assert cli.main(["predict", "--goal-source", "oracle"] + base) == 0
    assert cli.main(["export-heatmap"] + base) == 0
    assert cli.main(["eval"] + base) == 0
    report = tmp_path / "out" / "report"
    for name in ("placeability.csv", "placeability.txt", "graspability.csv",
                 "graspability.txt", "valid_region.csv", "motion.csv",
                 "motion.txt", "metrics.csv", "manifest.json"):
        assert (report / name).exists(), name
    header = (report / "motion.csv").read_text().split("\n")[0]
    assert header == "method,metric,ms250,ms500,ms750,ms1000,ms1250,ms1500"
    assert (report / "heatmap_t1s.pgm").exists()


# ---------------------------------------------------------------------------
# train_all's two stage lanes: forked beside each other, or one after the other

# Trains a small bundle and writes every model's checkpoint bytes and the
# curves and metrics, in their dict order, to the directory argv[1].
# With argv[2] == "serial" the process is limited to one CPU, which makes
# train_all run its lanes in order; otherwise lane A runs in a forked
# child.  Prints whether the lanes ran side by side and the number of
# child processes left afterwards.
LANE_RUN = """
import json, multiprocessing, os, sys
out, mode = sys.argv[1:]
if mode == "serial":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from intentmotion.harness import benchmark as bm, generator as gen
cfg = bm.BenchmarkConfig(seed=3, personas=2, episodes_per_persona=2,
                         autoencoder_epochs=1, place_epochs=2, grasp_epochs=2,
                         predictor_epochs=1)
bundle = bm.train_all(cfg, *gen.generate_dataset(cfg.generator()))
stores = {"encoder": bundle.encoder_store, "predictor": bundle.predictor.store}
stores.update({"place-" + v: m.store for v, m in bundle.place_models.items()})
stores.update({"grasp-" + p: m.store for p, m in bundle.grasp_models.items()})
for name, store in stores.items():
    store.save(os.path.join(out, name + ".ckpt"))
with open(os.path.join(out, "record.json"), "w") as f:
    json.dump([list(bundle.curves.items()), list(bundle.place_metrics.items()),
               list(bundle.grasp_metrics.items())], f)
print(json.dumps([bm._lanes_side_by_side(), len(multiprocessing.active_children())]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="side-by-side lanes need two CPUs")
def test_forked_lanes_equal_serial_lanes_byte_for_byte(tmp_path):
    src = str(pathlib.Path(bm.__file__).parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.update({v: "1" for v in bm.BLAS_THREAD_VARS})
    dirs = {}
    for mode in ("serial", "forked"):
        dirs[mode] = tmp_path / mode
        dirs[mode].mkdir()
        run = subprocess.run([sys.executable, "-c", LANE_RUN, str(dirs[mode]),
                              mode], env=env, capture_output=True, text=True,
                             timeout=600)
        assert run.returncode == 0, run.stderr
        side_by_side, children = json.loads(run.stdout.strip().split("\n")[-1])
        assert side_by_side == (mode == "forked")
        assert children == 0
    names = sorted(p.name for p in dirs["serial"].iterdir())
    assert names == sorted(p.name for p in dirs["forked"].iterdir())
    assert len(names) == 10  # encoder, 5 place, 2 grasp, predictor, record
    for name in names:
        # checkpoints, and curves and metrics in their key order
        assert (dirs["serial"] / name).read_bytes() == \
            (dirs["forked"] / name).read_bytes(), name


def lanes_forced(monkeypatch):
    monkeypatch.setattr(bm, "_lanes_side_by_side", lambda: True)


def tiny_bundle_config():
    return bm.BenchmarkConfig(seed=11, personas=3, episodes_per_persona=2,
                              autoencoder_epochs=1, place_epochs=1,
                              grasp_epochs=1, predictor_epochs=1)


def test_child_lane_error_reaches_parent(small_world, monkeypatch):
    _, train, test = small_world
    lanes_forced(monkeypatch)

    def explode(config, train_eps):
        raise af.TrainingError("autoencoder diverged in the child")

    monkeypatch.setattr(bm, "train_autoencoder", explode)
    with pytest.raises(af.TrainingError, match="autoencoder diverged in the child"):
        bm.train_all(tiny_bundle_config(), train, test)
    assert multiprocessing.active_children() == []


def test_parent_lane_error_terminates_child(small_world, monkeypatch):
    _, train, test = small_world
    lanes_forced(monkeypatch)

    def fail(*args):
        raise af.TrainingError("parent lane failed")

    monkeypatch.setattr(bm, "_lane_a", lambda *args: time.sleep(600))
    monkeypatch.setattr(bm, "_lane_b", fail)
    t0 = time.perf_counter()
    with pytest.raises(af.TrainingError, match="parent lane failed"):
        bm.train_all(tiny_bundle_config(), train, test)
    assert time.perf_counter() - t0 < 60
    assert multiprocessing.active_children() == []


def test_child_dying_without_result_names_exit_code(small_world, monkeypatch):
    _, train, test = small_world
    lanes_forced(monkeypatch)
    monkeypatch.setattr(bm, "_lane_a", lambda *args: os._exit(3))
    monkeypatch.setattr(bm, "_lane_b", lambda *args: {})
    with pytest.raises(af.TrainingError, match="exited with code 3"):
        bm.train_all(tiny_bundle_config(), train, test)
    assert multiprocessing.active_children() == []
