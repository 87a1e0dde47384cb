"""End-to-end training and evaluation report assembly.

`train_all` fits every model (occupancy autoencoder, five placeability
variants, two graspability posteriors, the motion predictor) on the
persona-split synthetic dataset, as two lanes of independent stages
that run side by side in a forked child and this process when BLAS is
pinned to one thread and two CPUs are free.  `run_benchmark` turns a
trained bundle into report files: placeability and graspability summary
tables, the valid-region-rate-over-time CSV, the per-timestep motion
error table, and pre-place density heatmaps.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from dataclasses import dataclass, field

import numpy as np

from .. import affordance as af
from .. import densities as dn
from .. import scene as sc
from .. import trajopt as tj
from . import datasets as ds
from . import generator as gen


@dataclass(frozen=True)
class BenchmarkConfig:
    seed: int = 1
    personas: int = 5
    episodes_per_persona: int = 60
    path_jitter: float = 0.008
    timing_jitter: float = 0.1
    autoencoder_epochs: int = 50
    place_epochs: int = 100
    grasp_epochs: int = 300
    predictor_epochs: int = 25
    place_lr: float = 1e-3
    penalty_weight: float = 3.25
    grasp_lr: float = 1e-3
    predictor_lr: float = 2e-3
    eval_episode_cap: int = 24
    goal_variant: str = "transfer"  # placeability model feeding the optimizer

    def generator(self):
        return gen.GeneratorConfig(
            seed=self.seed, personas=self.personas,
            episodes_per_persona=self.episodes_per_persona,
            path_jitter=self.path_jitter, timing_jitter=self.timing_jitter)


@dataclass
class TrainedBundle:
    encoder_store: object = None
    place_models: dict = field(default_factory=dict)
    grasp_models: dict = field(default_factory=dict)
    predictor: object = None
    place_metrics: dict = field(default_factory=dict)
    grasp_metrics: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)


def train_autoencoder(config, train_eps):
    data, _ = ds.extract_training_pairs(train_eps, "autoencoder")
    store, curve = af.train_occupancy_autoencoder(
        data, epochs=config.autoencoder_epochs, seed=config.seed)
    return store, curve


def train_place_variant(config, variant, train_set, test_set, encoder_store,
                        conv_maps=None):
    """Assemble and train one placeability variant.  ``conv_maps`` is the
    (train, test) ``encoder_conv_map`` pair of ``encoder_store``, for the
    transfer variants only."""
    enc = encoder_store if variant in af.TRANSFER_VARIANTS else None
    model = af.assemble_placeability(variant, encoder_store=enc,
                                     seed=config.seed)
    curve, metrics = af.train_placeability(
        model, train_set, test_set, epochs=config.place_epochs,
        lr=config.place_lr, seed=config.seed,
        penalty_weight=config.penalty_weight, conv_maps=conv_maps)
    return model, curve, metrics


def train_grasp_posterior(config, posterior, train_set, test_set):
    model = af.assemble_graspability(posterior, seed=config.seed)
    curve, metrics = af.train_graspability(
        model, train_set, test_set, epochs=config.grasp_epochs,
        lr=config.grasp_lr, seed=config.seed, augment_reflect=True)
    return model, curve, metrics


def _lane_a(config, train_eps, test_eps, place):
    """autoencoder -> transfer -> transfer-penalty -> plain.  ``place`` is
    the (train, test) placeability pair sets; returns the stages' results
    by curve name."""
    encoder, curve = train_autoencoder(config, train_eps)
    out = {"autoencoder": (encoder, curve)}
    # the frozen encoder's conv maps of both splits, shared by both
    # transfer variants
    maps = tuple(af.encoder_conv_map(encoder, d.features) for d in place)
    for variant in af.TRANSFER_VARIANTS:
        out[f"place/{variant}"] = train_place_variant(config, variant, *place,
                                                      encoder, maps)
    del maps
    out["place/plain"] = train_place_variant(config, "plain", *place, None)
    return out


def _lane_b(config, train_eps, test_eps, place):
    """penalty -> predictor -> no-cnn -> vmf -> gaussian; see ``_lane_a``."""
    out = {"place/penalty": train_place_variant(config, "penalty", *place, None)}
    windows, _ = ds.extract_training_pairs(train_eps, "predictor")
    out["predictor"] = tj.train_predictor(
        windows, epochs=config.predictor_epochs, lr=config.predictor_lr,
        seed=config.seed)
    del windows
    out["place/no-cnn"] = train_place_variant(config, "no-cnn", *place, None)
    grasp = tuple(ds.extract_training_pairs(eps, "graspability")[0]
                  for eps in (train_eps, test_eps))
    for posterior in ("vmf", "gaussian"):
        out[f"grasp/{posterior}"] = train_grasp_posterior(config, posterior,
                                                          *grasp)
    return out


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _lanes_side_by_side():
    """True when this process may use two CPUs and BLAS is pinned to one
    thread.  A forked lane inherits the parent's BLAS configuration, so
    either answer gives the same bits; at more BLAS threads two lanes
    oversubscribe the cores and run slower than one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return cpus >= 2 and all(os.environ.get(v) == "1" for v in BLAS_THREAD_VARS)


def _child_lane(writer, args):
    try:
        result = ("ok", _lane_a(*args))
    except Exception as exc:  # reported to the parent, which raises it
        traceback.print_exc()
        result = ("error", exc)
    writer.send(result)
    writer.close()


def _forked_lanes(args):
    """Lane A in a forked child while lane B runs here; both lanes'
    results.  The child exits before this returns or raises.

    ``fork``, not ``spawn``: a fresh interpreter spends about 0.67 s
    importing numpy and this package, half of a small training run.
    Forking is safe here because BLAS runs no threads at one thread.
    """
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_lane, args=(writer, args), daemon=True)
    child.start()
    writer.close()
    try:
        results = _lane_b(*args)
        try:
            status, payload = reader.recv()
        except EOFError:
            status, payload = "died", None
    except BaseException:
        child.terminate()
        raise
    finally:
        reader.close()
        child.join()
    if status == "died":
        raise af.TrainingError(f"the forked training lane exited with code "
                               f"{child.exitcode} without sending its result")
    if status == "error":
        raise payload
    return {**payload, **results}


def train_all(config, train_eps, test_eps):
    """Train every model; the bundle's dicts are in a fixed order.

    The stages run as two lanes of independent stages (``_lane_a``,
    ``_lane_b``).  With two CPUs and BLAS at one thread, lane A runs in a
    forked child beside lane B; otherwise the lanes run one after the
    other in this process.  Each stage seeds its own generator, and both
    processes share one BLAS configuration, so both ways give the same
    bytes.
    """
    place = tuple(ds.extract_training_pairs(eps, "placeability")[0]
                  for eps in (train_eps, test_eps))
    args = (config, train_eps, test_eps, place)
    if _lanes_side_by_side():
        results = _forked_lanes(args)
    else:
        results = {**_lane_a(*args), **_lane_b(*args)}

    bundle = TrainedBundle()
    bundle.encoder_store, bundle.curves["autoencoder"] = results["autoencoder"]
    for variant in af.PLACE_VARIANTS:
        model, curve, metrics = results[f"place/{variant}"]
        bundle.place_models[variant] = model
        bundle.place_metrics[variant] = metrics
        bundle.curves[f"place/{variant}"] = curve
    for posterior in ("gaussian", "vmf"):
        model, curve, metrics = results[f"grasp/{posterior}"]
        bundle.grasp_models[posterior] = model
        bundle.grasp_metrics[posterior] = metrics
        bundle.curves[f"grasp/{posterior}"] = curve
    bundle.predictor, bundle.curves["predictor"] = results["predictor"]
    return bundle


# ---------------------------------------------------------------------------
# goal extraction for the trajectory evaluation


# Standard deviation (meters) of the predictor's own final-wrist estimate,
# used when matching the unconstrained rollout to a placeability mode.  It
# is of the order of the unconstrained rollout's mean wrist error at the
# 1500 ms horizon (0.18 m on the default benchmark).  It was chosen on the
# default benchmark's 24 scored motion problems, where 0.1, 0.2 and 0.3 m
# all pick the same components (no wrong-seat goal) and 0 m, which trusts
# the rollout endpoint exactly, still picks the wrong seat in 2 of 24.  On
# the 180 problems of the training episodes, which are not scored, 0.2 and
# 0.3 m pick a wrong seat in 1, 0.1 and 0.5 m in 3, 0 m in 25 and the
# highest-weight mode in 12.
GOAL_SPREAD = 0.2


def affordance_place_goal(model, predictor, problem):
    """World-frame 3D place prediction at the problem's query frame.

    The placeability mixture is a density over candidate seats, so the
    goal is the mean of the component that best explains where the learned
    dynamics already carry the wrist: the final right-wrist xy of the
    zero-control rollout, weighed against the mixture weights (see
    ``densities.mdn_responsible_component``).  The highest-weight mode alone
    is a different seat often enough to drag the whole body off course.
    """
    dist, = _place_densities(model, problem["episode"], [problem["query_frame"]])
    free, _ = tj.rollout(predictor, tj.warm_start(predictor, problem["observed"]),
                         np.zeros((tj.HORIZON, predictor.state_dim)))
    lo = 3 * sc.R_WRIST
    wrist_xy = gen.TABLE.to_plane_frame(free[-1, lo:lo + 2])
    k = dn.mdn_responsible_component(dist, wrist_xy, GOAL_SPREAD)
    point = gen.TABLE.to_world(dist.mu[k])
    return np.array([point[0], point[1], gen.TABLE.height])


def _place_densities(model, episode, query_frames):
    """The placeability mixture of ``episode`` at each of ``query_frames``,
    all read off one feature stack of its table."""
    onehot = sc.onehot_code(episode.target_type, "table")
    features = sc.plane_feature_stack(gen.TABLE, episode.objects).stack()[None]
    return [af.placeability_predict(model, ds._traj_window(episode, qf)[0],
                                    onehot, features)[0]
            for qf in query_frames]


# ---------------------------------------------------------------------------
# report assembly


def placeability_report(bundle, place_test):
    rows = {v: bundle.place_metrics[v] for v in af.PLACE_VARIANTS}
    return {"variants": rows, "baseline_mse": af.baseline_place_mse(place_test)}


def graspability_report(bundle, grasp_train, grasp_test):
    stats = af.compute_grasp_stats(grasp_train)
    # combinations unseen in training fall back to the pooled mean so the
    # baseline stays defined on small datasets
    pooled = float(np.mean(list(stats.values())))
    for key in set(zip(grasp_test.object_type, grasp_test.surface)):
        stats.setdefault((str(key[0]), str(key[1])), pooled)
    return {
        "gaussian_mse": bundle.grasp_metrics["gaussian"]["test"]["mse"],
        "vmf_mse": bundle.grasp_metrics["vmf"]["test"]["mse"],
        "baseline_mse": af.baseline_grasp_mse(stats, grasp_test),
    }


def valid_region_report(bundle, place_test):
    """Each variant's valid-region rates per offset, read from the test
    metrics ``evaluate_placeability`` computed on ``place_test``; the set
    stays a parameter for the callers that pass it (``run_benchmark``,
    the acceptance tests, perfbench's ``train`` operation)."""
    return {v: bundle.place_metrics[v]["test"]["valid_region"]
            for v in af.PLACE_VARIANTS}


def motion_report(bundle, config, test_eps):
    problems = ds.prediction_problems(test_eps)[:config.eval_episode_cap]
    model = bundle.place_models[config.goal_variant]
    for prob in problems:
        prob["goals"]["affordance"] = affordance_place_goal(
            model, bundle.predictor, prob)
    return tj.evaluate_prediction(bundle.predictor, problems)


def run_benchmark(bundle, config, test_eps, place_test, grasp_train, grasp_test,
                  out_dir, progress=None):
    """Full evaluation; writes report files and returns the report dict.

    ``place_test``, ``grasp_train`` and ``grasp_test`` are the pair sets
    the caller extracted from the episodes."""
    def note(msg):
        if progress:
            progress(msg)

    os.makedirs(out_dir, exist_ok=True)

    note("evaluating placeability")
    table1 = placeability_report(bundle, place_test)
    note("evaluating graspability")
    table2 = graspability_report(bundle, grasp_train, grasp_test)
    note("evaluating valid-region rates")
    fig5 = valid_region_report(bundle, place_test)
    note("evaluating motion prediction")
    table3 = motion_report(bundle, config, test_eps)

    write_place_table(table1, os.path.join(out_dir, "placeability"))
    write_grasp_table(table2, os.path.join(out_dir, "graspability"))
    write_valid_region_csv(fig5, os.path.join(out_dir, "valid_region.csv"))
    write_motion_table(table3, os.path.join(out_dir, "motion"))
    write_metrics_csv(bundle, os.path.join(out_dir, "metrics.csv"))
    export_heatmaps(bundle.place_models[config.goal_variant], test_eps[0],
                    os.path.join(out_dir, "heatmap"))
    return {"placeability": table1, "graspability": table2,
            "valid_region": fig5, "motion": table3}


def write_place_table(report, path_prefix):
    with open(path_prefix + ".csv", "w") as f:
        f.write("variant,split,nll,mse\n")
        for variant, m in report["variants"].items():
            for split in ("train", "test"):
                f.write(f"{variant},{split},{m[split]['nll']:.6f},"
                        f"{m[split]['mse']:.6f}\n")
        f.write(f"baseline,test,,{report['baseline_mse']:.6f}\n")
    with open(path_prefix + ".txt", "w") as f:
        f.write("Placeability models (NLL / MSE per split)\n")
        f.write(f"{'variant':<18}{'train NLL':>10}{'train MSE':>10}"
                f"{'test NLL':>10}{'test MSE':>10}\n")
        for variant, m in report["variants"].items():
            f.write(f"{variant:<18}{m['train']['nll']:>10.4f}"
                    f"{m['train']['mse']:>10.4f}{m['test']['nll']:>10.4f}"
                    f"{m['test']['mse']:>10.4f}\n")
        f.write(f"{'baseline':<18}{'':>10}{'':>10}{'':>10}"
                f"{report['baseline_mse']:>10.4f}\n")


def write_grasp_table(report, path_prefix):
    with open(path_prefix + ".csv", "w") as f:
        f.write("model,split,mse\n")
        f.write(f"gaussian,test,{report['gaussian_mse']:.6f}\n")
        f.write(f"vmf,test,{report['vmf_mse']:.6f}\n")
        f.write(f"baseline,test,{report['baseline_mse']:.6f}\n")
    with open(path_prefix + ".txt", "w") as f:
        f.write("Graspability models (test MSE, 1 s before grasp)\n")
        for name in ("gaussian", "vmf", "baseline"):
            f.write(f"{name:<10}{report[name + '_mse']:>10.4f}\n")


def write_valid_region_csv(report, path):
    offsets = sorted(next(iter(report.values())), reverse=True)
    with open(path, "w") as f:
        f.write("variant," + ",".join(f"t{o:g}s" for o in offsets) + "\n")
        for variant, rates in report.items():
            f.write(variant + "," +
                    ",".join(f"{rates[o]:.4f}" for o in offsets) + "\n")


def write_motion_table(report, path_prefix):
    table = report["table"]
    with open(path_prefix + ".csv", "w") as f:
        f.write("method,metric," +
                ",".join(f"ms{o}" for o in tj.EVAL_OFFSETS_MS) + "\n")
        for method, metrics in table.items():
            for metric in ("body", "wrist"):
                f.write(f"{method},{metric}," + ",".join(
                    f"{metrics[metric][o]:.4f}" for o in tj.EVAL_OFFSETS_MS)
                    + "\n")
    with open(path_prefix + ".txt", "w") as f:
        f.write(f"Per-timestep prediction error "
                f"({report['episodes']} episodes, {report['skipped']} skipped)\n")
        f.write(f"{'method':<15}{'metric':<8}" +
                "".join(f"{o:>8}" for o in tj.EVAL_OFFSETS_MS) + "\n")
        for method, metrics in table.items():
            for metric in ("body", "wrist"):
                f.write(f"{method:<15}{metric:<8}" + "".join(
                    f"{metrics[metric][o]:>8.3f}" for o in tj.EVAL_OFFSETS_MS)
                    + "\n")


def write_metrics_csv(bundle, path):
    with open(path, "w") as f:
        f.write("variant,epoch,split,nll,mse\n")
        for name, curve in bundle.curves.items():
            for epoch, value in enumerate(curve):
                f.write(f"{name},{epoch},train,{value:.6f},\n")
        for variant, m in bundle.place_metrics.items():
            for split in ("train", "test"):
                f.write(f"place/{variant},final,{split},"
                        f"{m[split]['nll']:.6f},{m[split]['mse']:.6f}\n")
        for posterior, m in bundle.grasp_metrics.items():
            for split in ("train", "test"):
                f.write(f"grasp/{posterior},final,{split},,"
                        f"{m[split]['mse']:.6f}\n")


def export_heatmaps(model, episode, path_prefix):
    """Pre-place mixture density heatmaps (PGM + CSV) for one episode, 4, 1
    and 0.5 s before its first place event; ValueError if it has none."""
    place = next((e for e in episode.events if e.kind == "place"), None)
    if place is None:
        raise ValueError(f"episode {episode.index} of persona {episode.persona} "
                         f"has no place event to export heatmaps for")
    frames = {}  # offset: query frame, for the offsets with a full window
    for offset in (4.0, 1.0, 0.5):
        qf = episode.frame_at(place.time - offset)
        if qf - ds.OBS_FRAMES + 1 >= 0:
            frames[offset] = qf
    paths = []
    for offset, dist in zip(frames, _place_densities(model, episode, frames.values())):
        prefix = f"{path_prefix}_t{offset:g}s"
        dn.export_heatmap(dist, gen.TABLE.extent, prefix)
        paths.append(prefix)
    return paths
