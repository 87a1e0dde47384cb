"""Property tests: malformed checkpoints, episode files and command lines
fail with the documented error and exit code, never with a stray one.

Examples are derandomized and few, so the suite stays deterministic and
quick.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import intentmotion.scene as sc
from intentmotion.autodiff import OptimizerError, ParamStore
from intentmotion.harness import cli
from intentmotion.harness import generator as gen

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=60,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    store = ParamStore()
    store.add("enc/k", np.arange(6.0).reshape(2, 3), trainable=False)
    store.add("b", np.ones(2))
    store.add("s", np.array(2.5))
    path = tmp_path_factory.mktemp("ckpt") / "good.ckpt"
    store.save(path)
    return path.read_bytes()


def load_or_optimizer_error(tmp_path, data):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(data)
    try:
        store = ParamStore.load(path)
    except OptimizerError as exc:
        assert "fuzz.ckpt" in str(exc)
        return
    for n in store.names():
        assert store[n].requires_grad == store.trainable[n]


@FUZZ
@given(data=st.binary(max_size=64))
def test_load_random_bytes(tmp_path, data):
    load_or_optimizer_error(tmp_path, data)


@FUZZ
@given(data=st.data())
def test_load_mutated_checkpoint(tmp_path, checkpoint_bytes, data):
    raw = bytearray(checkpoint_bytes)
    for _ in range(data.draw(st.integers(1, 4))):
        pos = data.draw(st.integers(0, len(raw) - 1))
        op = data.draw(st.sampled_from(["flip", "insert", "delete"]))
        if op == "flip":
            raw[pos] = data.draw(st.integers(0, 255))
        elif op == "insert":
            raw[pos:pos] = data.draw(st.binary(min_size=1, max_size=4))
        else:
            del raw[pos:pos + data.draw(st.integers(1, 4))]
    load_or_optimizer_error(tmp_path, bytes(raw))


# ---------------------------------------------------------------------------
# episode JSONL


@pytest.fixture(scope="module")
def episode_records():
    config = gen.GeneratorConfig(seed=11, personas=3, episodes_per_persona=1)
    text = gen.episode_to_jsonl(gen.generate_episode(config, 0, 0))
    return [json.loads(line) for line in text.strip().split("\n")]


def mutate_records(records, data):
    """One random structural change to a parsed episode; returns its text."""
    records = json.loads(json.dumps(records))
    op = data.draw(st.sampled_from(
        ["drop_key", "set_value", "drop_record", "set_nested", "drop_nested",
         "cut_text"]))
    i = data.draw(st.sampled_from([0, 1, len(records) - 1]))
    rec = records[i]
    if op == "drop_key":
        del rec[data.draw(st.sampled_from(sorted(rec)))]
    elif op == "set_value":
        rec[data.draw(st.sampled_from(sorted(rec)))] = data.draw(json_values)
    elif op == "drop_record":
        del records[i]
    elif op in ("set_nested", "drop_nested"):
        # walk from the record's payload down to a random container, e.g.
        # scene -> objects -> 0 -> pose -> position, and change one entry
        payload = {"scene": "scene", "frame": "joints", "events": "events"}
        target = rec[payload[rec["type"]]]
        while True:
            keys = sorted(target) if isinstance(target, dict) else range(len(target))
            key = data.draw(st.sampled_from(keys))
            child = target[key]
            if not (isinstance(child, (list, dict)) and child) or \
                    data.draw(st.booleans()):
                break
            target = child
        if op == "drop_nested":
            del target[key]
        else:
            target[key] = data.draw(json_values)
    text = "\n".join(json.dumps(r) for r in records)
    if op == "cut_text":
        text = text[:data.draw(st.integers(0, len(text)))]
    return text


@FUZZ
@given(data=st.data())
def test_episode_from_jsonl_mutated(episode_records, data):
    text = mutate_records(episode_records, data)
    try:
        ep = gen.episode_from_jsonl(text)
    except ValueError:
        return
    n = len(ep.timestamps)
    assert ep.joints.shape == (n, sc.NUM_JOINTS, 3)
    assert ep.object_track.shape == (n, 3)
    assert np.isfinite(ep.joints).all() and np.isfinite(ep.timestamps).all()
    for e in ep.events:
        assert len(e.point) == 3 and np.isfinite((e.time,) + e.point).all()
    for obj in ep.objects:
        assert len(obj.position) == 3 and len(obj.half_extents) == 2
    assert ep.target_type in sc.MOVABLE_TYPES
    assert ep.source_surface in sc.SUPPORT_TYPES


def test_episode_from_jsonl_named_faults(episode_records):
    def text(records):
        return "\n".join(json.dumps(r) for r in records)

    frame = dict(episode_records[1])
    del frame["joints"]
    head = dict(episode_records[0])
    del head["persona"]
    nan = json.loads(json.dumps(episode_records[1]))
    nan["joints"][0][0] = math.nan
    ragged = json.loads(json.dumps(episode_records[1]))
    ragged["joints"][0] = ragged["joints"][0][:2]

    def edited(i, edit):
        records = json.loads(json.dumps(episode_records))
        edit(records[i])
        return records

    def obj(rec):
        return rec["scene"]["objects"][0]

    def place(rec):
        return rec["events"][-1]
    cases = [
        ([episode_records[0], frame] + episode_records[2:], "no 'joints' field"),
        ([head] + episode_records[1:], "no 'persona' field"),
        (episode_records[:-1], "no events record"),
        ([episode_records[0], nan] + episode_records[2:], "non-finite"),
        ([episode_records[0], ragged] + episode_records[2:], "malformed record"),
        ([episode_records[0], 5] + episode_records[2:], "line 2: malformed"),
        ([episode_records[0], dict(episode_records[1], type="x")]
         + episode_records[2:], "line 2: unknown record type 'x'"),
        (episode_records[:2] + [dict(episode_records[2], type=None)]
         + episode_records[3:], "line 3: unknown record type None"),
        (edited(0, lambda r: obj(r)["pose"].update(position=[0.1, 0.2])),
         "position must be 3-d"),
        (edited(0, lambda r: obj(r).update(footprint=[0.04])),
         "half extents 2-d"),
        (edited(-1, lambda r: place(r).update(point=[0.5, -0.1])),
         "3-d point"),
        (edited(-1, lambda r: place(r).update(time=math.inf)), "finite time"),
        # frame_at(len * DT) is len, one past the last frame
        (edited(-1, lambda r: place(r).update(
            time=(len(episode_records) - 2) * gen.DT)), "falls outside the"),
        (edited(-1, lambda r: place(r).update(time=-1.0)), "falls outside the"),
        (edited(-1, lambda r: place(r).update(time=1e308)), "falls outside the"),
        (edited(0, lambda r: r.update(target_type="spoon")),
         "unknown target type 'spoon'"),
        (edited(0, lambda r: r.update(persona="3")), "must be integers"),
        # integers too large for a float
        (edited(0, lambda r: obj(r)["pose"].update(position=[10 ** 400, 0, 0])),
         "malformed record"),
        (edited(1, lambda r: r["joints"][0].__setitem__(0, 10 ** 400)),
         "malformed record"),
        (edited(-1, lambda r: place(r).update(time=10 ** 400)),
         "malformed record"),
    ]
    for records, match in cases:
        with pytest.raises(ValueError, match=match):
            gen.episode_from_jsonl(text(records))


# ---------------------------------------------------------------------------
# CLI exit codes


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's --help
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    return code


COMMANDS = ["train-autoencoder", "train-place", "train-grasp", "train-predictor",
            "predict", "eval", "export-heatmap"]
TOKENS = ["--seed", "--variant", "transfer", "no-cnn", "--posterior", "vmf",
          "--episode", "-1", "--goal-source", "oracle", "--config", ".",
          "--out", "--help-me", "7"]


@FUZZ
@given(cmd=st.sampled_from(COMMANDS + ["gen-data-x", ""]),
       tail=st.lists(st.sampled_from(TOKENS) | st.text(max_size=6), max_size=5))
def test_cli_argv_exit_codes(tmp_path, capsys, cmd, tail):
    # the working directory holds no episodes, so a well-formed command
    # stops at loading them (exit 2) and never writes outside tmp_path
    empty = str(tmp_path / "empty")
    assert run_cli([cmd, "--out", empty] + tail + ["--out", empty], capsys) in (0, 1, 2)


@FUZZ
@given(doc=json_values | st.dictionaries(
    st.sampled_from(["seed", "personas", "place_lr", "goal_variant", "flux"]),
    json_values, max_size=3))
def test_cli_config_exit_codes(tmp_path, capsys, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = run_cli(["train-predictor", "--out", str(tmp_path / "empty"),
                    "--config", str(path)], capsys)
    if not isinstance(doc, dict) or "flux" in doc:
        assert code == 1
    elif doc == {}:
        assert code == 2


def test_cli_config_not_an_object_is_usage_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    for text, key in (("5", ""), ("[1, 2]", ""), ("{not json", ""),
                      ('{"seed": "x"}', "seed"), ('{"personas": 2.5}', "personas"),
                      ('{"path_jitter": NaN}', "path_jitter"),
                      ('{"place_lr": -Infinity}', "place_lr"),
                      ('{"seed": -1}', "seed")):
        path.write_text(text)
        assert cli.main(["gen-data", "--out", str(tmp_path / "o"),
                         "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
    assert cli.main(["gen-data", "--out", str(tmp_path / "o"), "--seed", "-3"]) == 1
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    cfg = out / "config.json"
    cfg.write_text(json.dumps({"personas": 2, "episodes_per_persona": 1,
                               "autoencoder_epochs": 1}))
    assert cli.main(["gen-data", "--seed", "3", "--out", str(out),
                     "--config", str(cfg)]) == 0
    return out


@FUZZ
@given(data=st.data())
def test_cli_mutated_episode_exit_codes(data_dir, episode_records, capsys, data):
    # train-autoencoder rasterizes every train scene with its place events
    # and trains on them: a malformed file exits 2, a loadable one trains
    path = sorted((data_dir / "episodes" / "train").glob("*.jsonl"))[0]
    original = path.read_text()
    try:
        path.write_text(mutate_records(episode_records, data))
        assert run_cli(["train-autoencoder", "--out", str(data_dir),
                        "--config", str(data_dir / "config.json")], capsys) in (0, 2)
    finally:
        path.write_text(original)
