"""Tests for the episode generator, dataset extraction, and the CLI."""

import dataclasses
import json

import numpy as np
import pytest

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
    cell = np.round(gen.TABLE.point_to_cell(rel)).astype(int)
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


def test_cli_usage_errors(tmp_path):
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["gen-data", "--no-such-flag"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"flux_capacitor": 1}))
    assert cli.main(["gen-data", "--out", str(tmp_path / "o"),
                     "--config", str(bad)]) == 1


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
