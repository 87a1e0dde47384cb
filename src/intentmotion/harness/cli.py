"""Command-line interface.

Subcommands cover the full pipeline: data generation, training of each
model family, goal-constrained prediction, evaluation, and heatmap
export.  Every run writes a manifest (seed, config hash, library
versions) beside its outputs so results can be regenerated exactly.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .. import __version__
from .. import affordance as af
from .. import trajopt as tj
from ..autodiff import OptimizerError, ParamStore
from . import benchmark as bm
from . import datasets as ds
from . import generator as gen


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def load_config(args):
    """BenchmarkConfig from ``--config`` and ``--seed``; a config file that
    is not a JSON object of known keys with finite values of the defaults'
    types, that sets an ``*_epochs`` key or ``eval_episode_cap`` below 1,
    or that names a ``goal_variant`` outside ``affordance.PLACE_VARIANTS``,
    and a negative seed from either source, raise UsageError."""
    values = {}
    if args.config:
        with open(args.config) as f:
            try:
                values = json.load(f)
            except ValueError as exc:
                raise UsageError(f"config {args.config} is not JSON: {exc}") from None
        if not isinstance(values, dict):
            raise UsageError(f"config {args.config} must hold a JSON object, "
                             f"not {type(values).__name__}")
        types = {f.name: type(f.default) for f in fields(bm.BenchmarkConfig)}
        unknown = set(values) - set(types)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in values.items():
            want = (int, float) if types[key] is float else types[key]
            if not isinstance(value, want) or isinstance(value, bool):
                raise UsageError(f"config key {key!r} must be "
                                 f"{types[key].__name__}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"config key {key!r} must be finite, "
                                 f"got {value!r}")
            if (key.endswith("_epochs") or key == "eval_episode_cap") \
                    and value < 1:
                raise UsageError(f"config key {key!r} must be at least 1, "
                                 f"got {value!r}")
            if key == "goal_variant" and value not in af.PLACE_VARIANTS:
                raise UsageError(f"config key 'goal_variant' must be one of "
                                 f"{af.PLACE_VARIANTS}, got {value!r}")
    if args.seed is not None:
        values["seed"] = args.seed
    if values.get("seed", 0) < 0:
        raise UsageError(f"seed must be at least 0, got {values['seed']}")
    return bm.BenchmarkConfig(**values)


def config_hash(config):
    blob = json.dumps(asdict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def write_manifest(directory, config, extra=None):
    """Write ``directory/manifest.json``, keeping the ``episodes`` and
    ``data_hash`` of the manifest it replaces unless ``extra`` sets them."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "manifest.json")
    try:
        with open(path) as f:
            old = json.load(f)
    except (OSError, ValueError):
        old = {}
    manifest = {
        "seed": config.seed,
        "config": asdict(config),
        "config_hash": config_hash(config),
        "versions": {
            "intentmotion": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    if isinstance(old, dict):
        manifest.update({k: old[k] for k in ("episodes", "data_hash") if k in old})
    if extra:
        manifest.update(extra)
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def episode_dir(out, split):
    return os.path.join(out, "episodes", split)


def ckpt_path(out, name):
    return os.path.join(out, "checkpoints", f"{name}.ckpt")


def load_episodes(out, split):
    directory = episode_dir(out, split)
    if not os.path.isdir(directory):
        raise FileNotFoundError(
            f"no {split} episodes in {directory}; run gen-data first")
    episodes = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".jsonl"):
            path = os.path.join(directory, name)
            try:
                with open(path) as f:
                    episodes.append(gen.episode_from_jsonl(f.read()))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
    if not episodes:
        raise FileNotFoundError(f"no episode files in {directory}")
    return episodes


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args):
    config = load_config(args)
    train, test = gen.generate_dataset(config.generator())
    hasher = hashlib.sha256()
    for split, episodes in (("train", train), ("test", test)):
        directory = episode_dir(args.out, split)
        os.makedirs(directory, exist_ok=True)
        for ep in episodes:
            text = gen.episode_to_jsonl(ep)
            hasher.update(text.encode())
            path = os.path.join(directory,
                                f"ep_{ep.persona:02d}_{ep.index:03d}.jsonl")
            with open(path, "w") as f:
                f.write(text)
    write_manifest(args.out, config, {
        "episodes": {"train": len(train), "test": len(test)},
        "data_hash": hasher.hexdigest(),
    })
    print(f"wrote {len(train)} train / {len(test)} test episodes to {args.out}")
    return 0


def cmd_train_autoencoder(args):
    config = load_config(args)
    train = load_episodes(args.out, "train")
    store, curve = bm.train_autoencoder(config, train)
    os.makedirs(os.path.join(args.out, "checkpoints"), exist_ok=True)
    store.save(ckpt_path(args.out, "autoencoder"))
    write_manifest(os.path.join(args.out, "checkpoints"), config)
    print(f"autoencoder trained: MSE {curve[0]:.5f} -> {curve[-1]:.5f}")
    return 0


def cmd_train_place(args):
    config = load_config(args)
    train = load_episodes(args.out, "train")
    test = load_episodes(args.out, "test")
    encoder = None
    if args.variant in ("transfer", "transfer-penalty"):
        path = ckpt_path(args.out, "autoencoder")
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"variant {args.variant} needs {path}; run train-autoencoder")
        encoder = _load_checkpoint(path, af.encoder_layout(), "encoder")
    place_train, _ = ds.extract_training_pairs(train, "placeability")
    place_test, _ = ds.extract_training_pairs(test, "placeability")
    model, curve, metrics = bm.train_place_variant(
        config, args.variant, place_train, place_test, encoder)
    os.makedirs(os.path.join(args.out, "checkpoints"), exist_ok=True)
    model.store.save(ckpt_path(args.out, f"place_{args.variant}"))
    write_manifest(os.path.join(args.out, "checkpoints"), config)
    print(f"placeability[{args.variant}] test NLL {metrics['test']['nll']:.4f} "
          f"MSE {metrics['test']['mse']:.4f}")
    return 0


def cmd_train_grasp(args):
    config = load_config(args)
    train = load_episodes(args.out, "train")
    test = load_episodes(args.out, "test")
    grasp_train, _ = ds.extract_training_pairs(train, "graspability")
    grasp_test, _ = ds.extract_training_pairs(test, "graspability")
    posteriors = ("gaussian", "vmf") if args.posterior == "both" \
        else (args.posterior,)
    os.makedirs(os.path.join(args.out, "checkpoints"), exist_ok=True)
    for posterior in posteriors:
        model, _, metrics = bm.train_grasp_posterior(
            config, posterior, grasp_train, grasp_test)
        model.store.save(ckpt_path(args.out, f"grasp_{posterior}"))
        print(f"graspability[{posterior}] test MSE "
              f"{metrics['test']['mse']:.5f}")
    write_manifest(os.path.join(args.out, "checkpoints"), config)
    return 0


def cmd_train_predictor(args):
    config = load_config(args)
    train = load_episodes(args.out, "train")
    windows, _ = ds.extract_training_pairs(train, "predictor")
    predictor, curve = tj.train_predictor(
        windows, epochs=config.predictor_epochs, lr=config.predictor_lr,
        seed=config.seed)
    os.makedirs(os.path.join(args.out, "checkpoints"), exist_ok=True)
    predictor.store.save(ckpt_path(args.out, "predictor"))
    write_manifest(os.path.join(args.out, "checkpoints"), config)
    # epochs are scored under different scheduled-sampling mixes, so only
    # the last one is reported, with the mix it was scored at
    p_self = tj.self_fed_probability(config.predictor_epochs - 1,
                                     config.predictor_epochs)
    print(f"predictor trained: last epoch MSE {curve[-1]:.5f} "
          f"at self-fed probability {p_self:.2f}")
    return 0


def _load_checkpoint(path, layout, kind):
    """The checkpoint at ``path``; OptimizerError naming the path unless it
    holds every parameter of the store ``layout`` in its shape."""
    store = ParamStore.load(path)
    try:
        af.check_layout(store, layout, kind)
    except af.TrainingError as exc:
        raise OptimizerError(f"{path}: {exc}") from None
    return store


def _load_predictor(path):
    return tj.ShortTermPredictor(
        store=_load_checkpoint(path, tj.build_predictor().store, "predictor"))


def _load_place_model(out, variant):
    path = ckpt_path(out, f"place_{variant}")
    if not os.path.exists(path):
        return None
    layout = af.assemble_placeability(variant, af.encoder_layout()).store
    return af.PlaceabilityModel(
        variant=variant, store=_load_checkpoint(path, layout, "placeability"))


def cmd_predict(args):
    config = load_config(args)
    test = load_episodes(args.out, "test")
    pred_path = ckpt_path(args.out, "predictor")
    if not os.path.exists(pred_path):
        raise FileNotFoundError(f"missing checkpoint {pred_path}")
    predictor = _load_predictor(pred_path)
    problems = ds.prediction_problems(test)
    if not problems:
        raise RuntimeError("no evaluable place episodes in the test set")
    prob = problems[args.episode % len(problems)]
    if args.goal_source == "oracle":
        goal = prob["goals"]["oracle"]
        goal_mode = "grasp"  # target the true wrist point exactly
    else:
        model = _load_place_model(args.out, config.goal_variant)
        if model is None:
            raise FileNotFoundError(
                f"missing checkpoint for variant {config.goal_variant}")
        goal = bm.affordance_place_goal(model, predictor, prob)
        goal_mode = args.goal_mode
    traj, delta, diag = tj.predict_fullbody(predictor, prob["observed"], goal,
                                            goal_mode=goal_mode)
    out_csv = os.path.join(args.out, f"prediction_{args.episode}.csv")
    tj.export_trajectory_csv(traj, out_csv)
    write_manifest(args.out, config)
    print(f"goal distance {diag['goal_distance']:.4f} m after "
          f"{diag['iterations']} iterations -> {out_csv}")
    return 0


def cmd_eval(args):
    config = load_config(args)
    train = load_episodes(args.out, "train")
    test = load_episodes(args.out, "test")
    missing = []
    bundle = bm.TrainedBundle()
    for variant in af.PLACE_VARIANTS:
        model = _load_place_model(args.out, variant)
        if model is None:
            missing.append(f"place_{variant}")
        else:
            bundle.place_models[variant] = model
    for posterior in ("gaussian", "vmf"):
        path = ckpt_path(args.out, f"grasp_{posterior}")
        if os.path.exists(path):
            layout = af.assemble_graspability(posterior).store
            bundle.grasp_models[posterior] = af.GraspabilityModel(
                posterior=posterior,
                store=_load_checkpoint(path, layout, "graspability"))
        else:
            missing.append(f"grasp_{posterior}")
    pred_path = ckpt_path(args.out, "predictor")
    if os.path.exists(pred_path):
        bundle.predictor = _load_predictor(pred_path)
    else:
        missing.append("predictor")
    if missing:
        raise FileNotFoundError("missing checkpoints: " + ", ".join(missing))

    place_train, _ = ds.extract_training_pairs(train, "placeability")
    place_test, _ = ds.extract_training_pairs(test, "placeability")
    grasp_train, _ = ds.extract_training_pairs(train, "graspability")
    grasp_test, _ = ds.extract_training_pairs(test, "graspability")
    for variant, model in bundle.place_models.items():
        bundle.place_metrics[variant] = {
            "train": af.evaluate_placeability(model, place_train),
            "test": af.evaluate_placeability(model, place_test)}
    for posterior, model in bundle.grasp_models.items():
        bundle.grasp_metrics[posterior] = {
            "train": af.evaluate_graspability(model, grasp_train),
            "test": af.evaluate_graspability(model, grasp_test)}

    report_dir = os.path.join(args.out, "report")
    bm.run_benchmark(bundle, config, test, place_test, grasp_train, grasp_test,
                     report_dir, progress=lambda m: print(m, file=sys.stderr))
    write_manifest(report_dir, config)
    print(f"report written to {report_dir}")
    return 0


def cmd_export_heatmap(args):
    config = load_config(args)
    test = load_episodes(args.out, "test")
    model = _load_place_model(args.out, args.variant)
    if model is None:
        raise FileNotFoundError(f"missing checkpoint place_{args.variant}")
    episode = test[args.episode % len(test)]
    prefix = os.path.join(args.out, f"heatmap_ep{args.episode}")
    paths = bm.export_heatmaps(model, episode, prefix)
    write_manifest(args.out, config)
    print("heatmaps: " + ", ".join(p + ".pgm" for p in paths))
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = _Parser(prog="intentmotion",
                     description="intention-aware motion prediction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--config", default=None, help="JSON config file")

    common(sub.add_parser("gen-data", help="generate synthetic episodes"))
    common(sub.add_parser("train-autoencoder",
                          help="pre-train the occupancy autoencoder"))
    p = sub.add_parser("train-place", help="train a placeability variant")
    common(p)
    p.add_argument("--variant", required=True, choices=af.PLACE_VARIANTS)
    p = sub.add_parser("train-grasp", help="train graspability posteriors")
    common(p)
    p.add_argument("--posterior", default="both",
                   choices=("gaussian", "vmf", "both"))
    common(sub.add_parser("train-predictor",
                          help="train the motion predictor"))
    p = sub.add_parser("predict", help="goal-constrained full-body prediction")
    common(p)
    p.add_argument("--goal-source", default="affordance",
                   choices=("affordance", "oracle"))
    p.add_argument("--goal-mode", default="place", choices=("grasp", "place"))
    p.add_argument("--episode", type=int, default=0)
    common(sub.add_parser("eval", help="run the full evaluation report"))
    p = sub.add_parser("export-heatmap", help="export pre-place density maps")
    common(p)
    p.add_argument("--variant", default="transfer", choices=af.PLACE_VARIANTS)
    p.add_argument("--episode", type=int, default=0)
    return parser


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-autoencoder": cmd_train_autoencoder,
    "train-place": cmd_train_place,
    "train-grasp": cmd_train_grasp,
    "train-predictor": cmd_train_predictor,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "export-heatmap": cmd_export_heatmap,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError, OptimizerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
