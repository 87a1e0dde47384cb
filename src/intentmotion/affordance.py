"""Placeability and graspability affordance models.

Placeability predicts a 7-component 2-D mixture over place locations
on a support plane, conditioned on one second (20 frames) of skeleton
and held-object motion, a 14-dim object/surface code, and the 4-channel
plane feature grid.  Five variants share the trunk and differ in their
environment encoder and loss:

  plain             conv encoder, mixture NLL
  penalty           conv encoder, NLL + SDF hinge penalty on the means
  transfer          frozen pre-trained autoencoder encoder, NLL
  transfer-penalty  frozen encoder, NLL + penalty
  no-cnn            no environment features at all

Graspability predicts the right-wrist position for grasping a target
object, with either a diagonal Gaussian head (6 outputs) or a vMF
direction head plus distance (5 outputs).

Trunks are two 128-wide tanh layers; conv stages are 3x3 kernels with
8 then 16 channels and 2x2 maxpooling (24 -> 12 -> 6), followed by a
dense projection to a 32-dim latent.  Trajectory
inputs are translation-normalized to the pelvis at the last observed
frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import densities as dn
from . import scene as sc
from .autodiff import ParamStore, TrainingError

TRAJ_DIM = 20 * 14 * 3  # 20 frames x (13 joints + held object) x 3
ENC_MAP = 6 * 6 * 16  # flattened conv map before the latent projection
ENC_DIM = 32
PLACE_VARIANTS = ("plain", "penalty", "transfer", "transfer-penalty", "no-cnn")
TRANSFER_VARIANTS = ("transfer", "transfer-penalty")  # frozen pre-trained encoder
MDN_COMPONENTS = 7
TRUNK_WIDTH = 128
DEFAULT_PENALTY_WEIGHT = 1.0


class SurfaceFullError(RuntimeError):
    """No valid placement cell exists on the plane."""


class GraspStatsError(KeyError):
    """Missing (object type, surface) entry in the baseline stats table."""


# ---------------------------------------------------------------------------
# datasets (flat arrays; one row per training pair)


@dataclass
class PlaceabilitySet:
    traj: np.ndarray  # (N, 840)
    onehot: np.ndarray  # (N, 14)
    features: np.ndarray  # (N, 24, 24, 4)
    label: np.ndarray  # (N, 2) place point, plane frame
    cell_size: np.ndarray  # (N, 2)
    half_extent: np.ndarray  # (N, 2)
    radius: np.ndarray  # (N,) object clearance radius, meters
    offset: np.ndarray  # (N,) seconds before the place event
    persona: np.ndarray  # (N,)
    pelvis_plane: np.ndarray  # (N, 2) pelvis in plane frame at query time

    def __len__(self):
        return len(self.label)

    @property
    def sdf(self):
        return self.features[..., 3]

    def subset(self, idx):
        return PlaceabilitySet(*(getattr(self, f)[idx] for f in (
            "traj", "onehot", "features", "label", "cell_size",
            "half_extent", "radius", "offset", "persona", "pelvis_plane")))


@dataclass
class AutoencoderSet:
    features: np.ndarray  # (N, 24, 24, 4)
    onehot: np.ndarray  # (N, 14)
    target: np.ndarray  # (N, 24, 24) post-placement occupancy

    def __len__(self):
        return len(self.target)


@dataclass
class GraspabilitySet:
    traj: np.ndarray  # (N, 840)
    onehot: np.ndarray  # (N, 14)
    obj_rel: np.ndarray  # (N, 3) target object, pelvis-relative
    wrist_rel: np.ndarray  # (N, 3) label wrist, pelvis-relative
    direction: np.ndarray  # (N, 3) unit object -> wrist
    distance: np.ndarray  # (N,)
    object_pos: np.ndarray  # (N, 3) world
    wrist_now: np.ndarray  # (N, 3) world wrist at query time
    pelvis: np.ndarray  # (N, 3) world pelvis at query time
    wrist_label: np.ndarray  # (N, 3) world wrist at grasp
    object_type: np.ndarray  # (N,) strings
    surface: np.ndarray  # (N,) strings
    persona: np.ndarray  # (N,)

    def __len__(self):
        return len(self.distance)


# ---------------------------------------------------------------------------
# model containers and assembly


@dataclass
class PlaceabilityModel:
    variant: str
    store: ParamStore
    m: int = MDN_COMPONENTS

    @property
    def uses_cnn(self):
        return self.variant != "no-cnn"


@dataclass
class GraspabilityModel:
    posterior: str  # "gaussian" or "vmf"
    store: ParamStore


def _add_encoder(store, rng):
    store.conv_layer("enc/c1", 3, 3, 4, 8, rng)
    store.conv_layer("enc/c2", 3, 3, 8, 16, rng)
    store.dense_layer("enc/proj", ENC_MAP, ENC_DIM, rng)


# per-channel input scales for the occupancy stack (occ, pos_x, pos_y, sdf):
# the signed distance channel is in cell units with magnitudes up to the
# grid size, which would otherwise swamp the O(1) channels and saturate
# the downstream tanh trunk
FEATURE_SCALE = np.array([1.0, 1.0, 1.0, 1.0 / sc.GRID])


def _conv_map(store, features):
    """The encoder's two conv stages: pooled map (N, ENC_MAP) as a tape tensor."""
    x = ad.mul(features, FEATURE_SCALE)
    x = ad.maxpool2(ad.relu(ad.add(ad.conv2d_same(x, store["enc/c1/k"]),
                                   store["enc/c1/b"])))
    x = ad.maxpool2(ad.relu(ad.add(ad.conv2d_same(x, store["enc/c2/k"]),
                                   store["enc/c2/b"])))
    return ad.reshape(x, (x.values.shape[0], ENC_MAP))


def _encode(store, features, conv_map=None):
    """Latent (N, ENC_DIM); ``conv_map`` rows, when given, replace the conv
    stages computed from ``features``."""
    x = _conv_map(store, features) if conv_map is None else conv_map
    # learned low-dimensional latent: the raw 6x6 map has enough degrees of
    # freedom for the downstream trunk to memorize individual scenes
    return ad.tanh(ad.dense(x, store["enc/proj/w"], store["enc/proj/b"]))


# Rows per pass of encoder_conv_map, chosen by timing alone since the bits
# do not depend on it: on 180 rows at one BLAS thread the map took 58 ms
# in one pass and 22-26 ms at 16, 32 or 64 rows, 32 the fastest.
CONV_MAP_CHUNK = 32


def encoder_conv_map(store, features):
    """Forward-only conv-stage map (N, ENC_MAP) of a feature set.

    Every forward-only evaluation runs the conv stages through this
    function.  A row does not depend on the rows computed with it, so
    while the encoder is frozen one map stands in for the conv stages of
    every training batch, and the map is built ``CONV_MAP_CHUNK`` rows
    at a time with the bits of one pass.  32 rows keep the working set
    small: the first stage's im2col columns take 5.3 MB at 32 rows
    against 42 MB at 256.  The latent projection is not included: its
    K = 576 GEMM rounds differently with the batch size.
    """
    features = np.asarray(features).reshape(-1, 24, 24, 4)
    n = CONV_MAP_CHUNK
    return np.concatenate([np.empty((0, ENC_MAP))] +
                          [_conv_map(store, features[lo:lo + n]).values
                           for lo in range(0, len(features), n)])


def check_layout(store, layout, kind):
    """Raise TrainingError unless ``store`` holds every parameter of the
    freshly assembled store ``layout`` in its shape; ``kind`` names the
    model in the message."""
    for n, t in layout.params.items():
        if n not in store:
            raise TrainingError(f"{kind} parameter {n!r} is missing")
        if store[n].values.shape != t.values.shape:
            raise TrainingError(f"{kind} parameter {n!r} has shape "
                                f"{store[n].values.shape}, not {t.values.shape}")


def encoder_layout():
    """A freshly initialised store of the encoder's parameters."""
    store = ParamStore()
    _add_encoder(store, np.random.default_rng(0))
    return store


def _add_trunk(store, rng, n_in, n_out):
    store.dense_layer("trunk/l1", n_in, TRUNK_WIDTH, rng)
    store.dense_layer("trunk/l2", TRUNK_WIDTH, TRUNK_WIDTH, rng)
    store.dense_layer("trunk/out", TRUNK_WIDTH, n_out, rng)


def _trunk(store, x):
    h = ad.tanh(ad.dense(x, store["trunk/l1/w"], store["trunk/l1/b"]))
    h = ad.tanh(ad.dense(h, store["trunk/l2/w"], store["trunk/l2/b"]))
    return ad.dense(h, store["trunk/out/w"], store["trunk/out/b"])


def assemble_placeability(variant, encoder_store=None, seed=0):
    if variant not in PLACE_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected {PLACE_VARIANTS}")
    rng = np.random.default_rng(seed)
    store = ParamStore()
    n_in = TRAJ_DIM + sc.ONEHOT_DIM
    if variant in TRANSFER_VARIANTS:
        if encoder_store is None:
            raise TrainingError(f"variant {variant!r} requires a pre-trained encoder")
        check_layout(encoder_store, encoder_layout(), "encoder")
        store.merge_from(encoder_store, prefix="enc/", trainable=False)
        n_in += ENC_DIM
    elif variant in ("plain", "penalty"):
        _add_encoder(store, rng)
        n_in += ENC_DIM
    _add_trunk(store, rng, n_in, 5 * MDN_COMPONENTS)
    return PlaceabilityModel(variant=variant, store=store)


def placeability_forward(model, traj, onehot, features=None, conv_map=None):
    """Raw mixture head outputs (N, 5m) as a tape tensor.

    ``conv_map``, the rows' ``encoder_conv_map``, replaces ``features``.
    """
    parts = [np.atleast_2d(traj), np.atleast_2d(onehot)]
    if model.uses_cnn:
        if conv_map is None:
            features = np.asarray(features).reshape(-1, 24, 24, 4)
        parts.append(_encode(model.store, features, conv_map))
    return _trunk(model.store, ad.concat(parts, axis=-1))


def placeability_heads(model, traj, onehot, features=None, conv_map=None):
    """Mixture parameters of each row, as the ``densities.mdn_heads`` arrays
    (alpha (N, m), mu (N, m, 2), sigma (N, m, 2)).

    Forward only: the conv stages run through ``encoder_conv_map`` of
    ``features`` unless ``conv_map``, the rows' map, is given.
    """
    if model.uses_cnn and conv_map is None:
        conv_map = encoder_conv_map(model.store, features)
    return dn.mdn_heads(placeability_forward(model, traj, onehot,
                                             conv_map=conv_map).values)


def placeability_predict(model, traj, onehot, features=None):
    """One MixtureDensity2D per row; see ``placeability_heads``."""
    return [dn.MixtureDensity2D(*row) for row in
            zip(*placeability_heads(model, traj, onehot, features))]


def _top_means(alpha, mu):
    """Mean (N, 2) of each row's most probable component, the lowest
    index on ties (``densities.mdn_top_component``)."""
    return mu[np.arange(len(mu)), alpha.argmax(axis=-1)]


def placeability_loss(model, data, idx=None, penalty_weight=DEFAULT_PENALTY_WEIGHT,
                      conv_map=None):
    """Scalar training loss over (a subset of) a PlaceabilitySet.

    ``conv_map``, when given, is ``encoder_conv_map`` of all of ``data``'s
    rows and stands in for their features in the encoder.

    Plain/transfer variants: mixture NLL.  Penalty variants add
    lambda_p * mean_i min(max(0, r_c - sdf(mu_i)), r_c + 2)^2 with the
    clearance r_c in cell units, differentiated through the bilinear
    SDF lookup.  The
    hinge is deliberately independent of the mixture weights: weighting
    by alpha lets the optimizer satisfy the penalty by silencing the
    offending component instead of moving it, which corrupts mode
    selection; the unweighted mean only ever relocates means.
    """
    d = data if idx is None else data.subset(idx)
    if conv_map is not None and idx is not None:
        conv_map = conv_map[idx]
    raw = placeability_forward(model, d.traj, d.onehot, d.features, conv_map)
    loss = dn.mdn_nll_graph(raw, d.label)
    if model.variant in ("penalty", "transfer-penalty"):
        mu = ad.reshape(raw, (len(d), MDN_COMPONENTS, 5))[:, :, 1:3]
        inv_cell = 1.0 / d.cell_size
        uv = ad.sub(ad.mul(ad.add(mu, d.half_extent[:, None, :]),
                           inv_cell[:, None, :]), 0.5)
        sdf_vals = ad.bilinear2d(d.sdf, uv)
        r_cells = d.radius / d.cell_size.min(axis=1)
        hinge = ad.relu(ad.sub(r_cells[:, None], sdf_vals))
        # cap the hinge depth: a mean deep inside clutter gets a bounded
        # push, so it climbs out locally instead of being flung across the
        # plane into an unrelated free region
        cap = r_cells[:, None] + 2.0
        hinge = ad.sub(cap, ad.relu(ad.sub(cap, hinge)))
        pen = ad.mean(ad.mean(ad.mul(hinge, hinge), axis=-1))
        loss = ad.add(loss, ad.mul(pen, penalty_weight))
    return loss


def _tape_step(batch_loss):
    """A ``minibatch_adam`` step over ``batch_loss(idx)``, the tape scalar of
    rows ``idx``."""
    def step(idx, epoch, rng):
        loss = batch_loss(idx)
        return loss.item(), lambda: ad.backward(loss)
    return step


def train_placeability(model, train, test, epochs, lr=1e-3, seed=0, batch=32,
                       penalty_weight=DEFAULT_PENALTY_WEIGHT, conv_maps=None):
    """Adam training; returns per-epoch train NLL curve and final metrics.

    Penalty variants carry the full ``penalty_weight`` from the first
    epoch: a from-scratch encoder memorises the training scenes early, so
    a hinge that only arrives later teaches clearance on memorised scenes
    alone and does not carry over to unseen ones.  That reason does not
    hold for ``transfer-penalty``, whose encoder is pre-trained: there the
    early hinge trades test accuracy for clearance (default benchmark:
    test MSE 0.311 -> 0.347, valid-region rate higher at every offset).

    When no ``enc/`` parameter requires a gradient (the transfer
    variants), the encoder's conv stages run once over the training rows
    and once over the test rows: each batch reads its rows of the
    training map, and the final metrics read both maps.  ``conv_maps``,
    the (train, test) pair of ``encoder_conv_map`` under this frozen
    encoder, stands in for them, so models sharing one encoder share one
    pair.
    """
    if len(train) == 0:
        raise TrainingError("empty training set")
    frozen = model.uses_cnn and not any(
        t.requires_grad for n, t in model.store.params.items() if n.startswith("enc/"))
    if conv_maps is not None and not frozen:
        raise TrainingError(f"variant {model.variant!r} has no frozen encoder "
                            "to read conv maps for")
    if frozen and conv_maps is None:
        conv_maps = tuple(encoder_conv_map(model.store, d.features)
                          for d in (train, test))
    train_map, test_map = (None, None) if conv_maps is None else conv_maps
    curve = ad.minibatch_adam(
        model.store, len(train),
        _tape_step(lambda idx: placeability_loss(model, train, idx,
                                                 penalty_weight, train_map)),
        epochs, lr, seed, batch)
    metrics = {"train": evaluate_placeability(model, train, conv_map=train_map),
               "test": evaluate_placeability(model, test, conv_map=test_map)}
    return curve, metrics


def _set_heads(model, data, batch, conv_map=None):
    """The ``placeability_heads`` arrays of every row of a PlaceabilitySet,
    computed ``batch`` rows at a time (an empty set as one empty batch).
    ``conv_map``, when given, is ``encoder_conv_map`` of all of ``data``'s
    rows."""
    heads = [placeability_heads(model, data.traj[lo:lo + batch],
                                data.onehot[lo:lo + batch],
                                data.features[lo:lo + batch],
                                None if conv_map is None else conv_map[lo:lo + batch])
             for lo in range(0, max(len(data), 1), batch)]
    return [np.concatenate(h) for h in zip(*heads)]


def evaluate_placeability(model, data, batch=256, conv_map=None):
    """Mean NLL, MSE (predicted placement vs ground truth) and valid-region
    rate over a set.

    The predicted placement is the mean of the most probable mixture
    component: when the posterior is still multimodal (e.g. several
    candidate seats), the weighted average of the modes falls between
    them and is not a placement anyone would choose.  ``valid_region``
    maps each value of the ``offset`` column (seconds before the place
    event) to the fraction of its rows whose predicted placement is valid
    with the row's object radius of clearance.

    ``conv_map``, when given, is ``encoder_conv_map`` of all of ``data``'s
    rows and stands in for their features in the encoder; the latent
    projection still runs on ``batch`` rows at a time, so the metrics do
    not change.
    """
    alpha, mu, sigma = _set_heads(model, data, batch, conv_map)
    nll = dn.mdn_nlls(alpha, mu, sigma, data.label)
    top = _top_means(alpha, mu)
    se = ((top - data.label) ** 2).sum(axis=-1)
    ok = sc.valid_placement_rows(top, data.half_extent, data.radius, data.sdf,
                                 data.cell_size)
    return {"nll": float(np.mean(nll)), "mse": float(np.mean(se)),
            "valid_region": {float(o): float(np.mean(ok[data.offset == o]))
                             for o in np.unique(data.offset)}}


# ---------------------------------------------------------------------------
# occupancy autoencoder (transfer-learning pre-training)


def build_autoencoder(seed=0):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    _add_encoder(store, rng)
    store.dense_layer("dec/latent", ENC_DIM + sc.ONEHOT_DIM, ENC_MAP, rng)
    store.conv_layer("dec/c1", 3, 3, 16, 16, rng)
    store.conv_layer("dec/c2", 3, 3, 16, 8, rng)
    store.conv_layer("dec/c3", 3, 3, 8, 1, rng)
    return store


def autoencoder_forward(store, features, onehot):
    """Predicted post-placement occupancy (N, 24, 24), values in (0, 1)."""
    latent = _encode(store, features)
    mixed = ad.relu(ad.dense(ad.concat([latent, np.atleast_2d(onehot)], axis=-1),
                             store["dec/latent/w"], store["dec/latent/b"]))
    x = ad.reshape(mixed, (-1, 6, 6, 16))
    x = ad.upsample2_nearest(x)
    x = ad.relu(ad.add(ad.conv2d_same(x, store["dec/c1/k"]), store["dec/c1/b"]))
    x = ad.upsample2_nearest(x)
    x = ad.relu(ad.add(ad.conv2d_same(x, store["dec/c2/k"]), store["dec/c2/b"]))
    x = ad.sigmoid(ad.add(ad.conv2d_same(x, store["dec/c3/k"]), store["dec/c3/b"]))
    return ad.reshape(x, (-1, 24, 24))


def autoencoder_loss(store, data, idx):
    """Reconstruction MSE of an AutoencoderSet's rows ``idx``, as a tape scalar."""
    pred = autoencoder_forward(store, data.features[idx], data.onehot[idx])
    diff = ad.sub(pred, data.target[idx])
    return ad.mean(ad.mul(diff, diff))


def train_occupancy_autoencoder(dataset, epochs, seed=0, lr=1e-3):
    """Train encoder+decoder on post-placement occupancy reconstruction.

    Returns (store, per-epoch MSE curve); the placeability transfer
    variants consume the "enc/" parameters of the returned store.
    """
    if len(dataset) == 0:
        raise TrainingError("empty autoencoder dataset")
    store = build_autoencoder(seed)
    curve = ad.minibatch_adam(
        store, len(dataset),
        _tape_step(lambda idx: autoencoder_loss(store, dataset, idx)),
        epochs, lr, seed, 32)
    return store, curve


# ---------------------------------------------------------------------------
# graspability


def assemble_graspability(posterior, seed=0):
    if posterior not in ("gaussian", "vmf"):
        raise ValueError(f"unknown posterior {posterior!r}")
    rng = np.random.default_rng(seed)
    store = ParamStore()
    n_out = 6 if posterior == "gaussian" else 5
    _add_trunk(store, rng, TRAJ_DIM + sc.ONEHOT_DIM + 3, n_out)
    return GraspabilityModel(posterior=posterior, store=store)


def graspability_forward(model, traj, onehot, obj_rel):
    x = ad.concat([np.atleast_2d(traj), np.atleast_2d(onehot),
                   np.atleast_2d(obj_rel)], axis=-1)
    return _trunk(model.store, x)


def graspability_predict_points(model, data):
    """World-frame 3D prediction points for MSE evaluation."""
    raw = graspability_forward(model, data.traj, data.onehot,
                               data.obj_rel).values
    points = np.zeros((len(raw), 3))
    for i, r in enumerate(raw):
        if model.posterior == "gaussian":
            points[i] = dn.gaussian_head(r).mu + data.pelvis[i]
        else:
            dist, d = dn.vmf_head(r)
            points[i] = dn.vmf_point(data.object_pos[i], dist, d)
    return points


def _reflect_grasp_set(data):
    """Mirror a GraspabilitySet about the x-z plane (y negated)."""
    flip3 = np.array([1.0, -1.0, 1.0])
    traj = data.traj.reshape(-1, 20, 14, 3) * flip3
    return GraspabilitySet(
        traj=traj.reshape(-1, TRAJ_DIM), onehot=data.onehot.copy(),
        obj_rel=data.obj_rel * flip3, wrist_rel=data.wrist_rel * flip3,
        direction=data.direction * flip3, distance=data.distance.copy(),
        object_pos=data.object_pos * flip3, wrist_now=data.wrist_now * flip3,
        pelvis=data.pelvis * flip3, wrist_label=data.wrist_label * flip3,
        object_type=data.object_type.copy(), surface=data.surface.copy(),
        persona=data.persona.copy())


def _concat_grasp_sets(a, b):
    fields = ("traj", "onehot", "obj_rel", "wrist_rel", "direction", "distance",
              "object_pos", "wrist_now", "pelvis", "wrist_label",
              "object_type", "surface", "persona")
    return GraspabilitySet(*(np.concatenate([getattr(a, f), getattr(b, f)])
                             for f in fields))


def train_graspability(model, train, test, epochs, lr=1e-3, seed=0,
                       augment_reflect=False):
    """Train a graspability posterior; returns (curve, metrics).

    Metrics report the MSE between the predicted 3D point (Gaussian
    mean, or object + distance * vMF mean direction) and the true wrist.
    """
    if len(train) == 0:
        raise TrainingError("empty training set")
    if augment_reflect:
        train = _concat_grasp_sets(train, _reflect_grasp_set(train))

    def batch_loss(idx):
        raw = graspability_forward(model, train.traj[idx], train.onehot[idx],
                                   train.obj_rel[idx])
        if model.posterior == "gaussian":
            return dn.gaussian_nll_graph(raw, train.wrist_rel[idx])
        return dn.vmf_loss_graph(raw, train.direction[idx], train.distance[idx])

    curve = ad.minibatch_adam(model.store, len(train), _tape_step(batch_loss),
                              epochs, lr, seed, 32)
    metrics = {"train": evaluate_graspability(model, train),
               "test": evaluate_graspability(model, test)}
    return curve, metrics


def evaluate_graspability(model, data):
    points = graspability_predict_points(model, data)
    return {"mse": float(((points - data.wrist_label) ** 2).sum(axis=1).mean())}


# ---------------------------------------------------------------------------
# heuristic baselines and the valid-region metric


def baseline_place_mse(data):
    """MSE of the SDF-heuristic placement baseline over a PlaceabilitySet."""
    points = _place_baseline_on_grid(data.sdf, data.half_extent, data.cell_size,
                                     data.pelvis_plane, data.radius)
    return float(np.mean(((points - data.label) ** 2).sum(axis=1)))


def _place_baseline_on_grid(sdf, half_extent, cell_size, pelvis_plane, radius):
    """Per row, the valid cell center nearest a plane-frame point, first in
    row-major order on ties: row i's plane has half extents
    ``half_extent[i]``, SDF grid ``sdf[i]`` and cells of ``cell_size[i]``,
    and ``pelvis_plane[i]`` is the point.  All rows' cells are tested in
    one ``valid_placement_rows`` lookup."""
    cells = np.stack([sc.cell_geometry(tuple(2 * h)).cells for h in half_extent])
    ok = sc.valid_placement_rows(cells, half_extent, radius, sdf, cell_size)
    dist = np.where(ok, np.hypot(cells[..., 0] - pelvis_plane[:, :1],
                                 cells[..., 1] - pelvis_plane[:, 1:]), np.inf)
    rows = np.arange(len(dist))
    k = np.argmin(dist, axis=1)
    full = ~(dist[rows, k] < np.inf)
    if full.any():
        raise SurfaceFullError(
            f"no valid cell on table at radius {radius[np.argmax(full)]}")
    return cells[rows, k]


def compute_grasp_stats(data):
    """Mean wrist-object distance per (object type, surface) combination."""
    table = {}
    for key in set(zip(data.object_type, data.surface)):
        mask = (data.object_type == key[0]) & (data.surface == key[1])
        dists = np.linalg.norm(data.wrist_label[mask] - data.object_pos[mask],
                               axis=1)
        table[key] = float(dists.mean())
    return table


def grasp_baseline(stats, object_type, surface, object_pos, wrist_now):
    """object position + mean distance along the current wrist direction."""
    key = (object_type, surface)
    if key not in stats:
        raise GraspStatsError(f"no stats for combination {key}")
    direction = np.asarray(wrist_now, dtype=float) - np.asarray(object_pos, dtype=float)
    norm = np.linalg.norm(direction)
    if norm > 0:
        direction = direction / norm
    return np.asarray(object_pos, dtype=float) + stats[key] * direction


def baseline_grasp_mse(stats, data):
    se = []
    for i in range(len(data)):
        point = grasp_baseline(stats, data.object_type[i], data.surface[i],
                               data.object_pos[i], data.wrist_now[i])
        se.append(((point - data.wrist_label[i]) ** 2).sum())
    return float(np.mean(se))
