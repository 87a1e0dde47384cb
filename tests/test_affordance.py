"""Tests for the placeability and graspability affordance models."""

import copy
import math

import numpy as np
import pytest

import intentmotion.affordance as af
import intentmotion.autodiff as ad
import intentmotion.densities as dn
import intentmotion.scene as sc
from intentmotion.autodiff import ParamStore, Tensor


# ---------------------------------------------------------------------------
# fixtures


def make_plane_and_grid(obstacle=True):
    plane = sc.SupportPlane("table", (0.0, 0.0), (1.2, 1.2), 0.72)
    objects = []
    if obstacle:
        objects.append(sc.SceneObject("cup0", "cup", (0.2, 0.1, 0.72), 0.0,
                                      (0.06, 0.06)))
    return plane, sc.plane_feature_stack(plane, objects)


def sdf_oracle(sdf, cell_size, point):
    """The bilinear SDF at one plane-frame point, in cell units, written
    out on scalars: the interpolation clamped to the cell-center hull,
    minus the overshoot past it.  ``sdf`` is a 24x24 array or nested list."""
    cw, cd = cell_size
    u = (point[0] + cw * sc.GRID / 2) / cw - 0.5
    v = (point[1] + cd * sc.GRID / 2) / cd - 0.5
    uc, vc = min(max(u, 0.0), 23.0), min(max(v, 0.0), 23.0)
    i0, j0 = min(int(uc), 22), min(int(vc), 22)
    fu, fv = uc - i0, vc - j0
    interp = ((1 - fu) * (1 - fv) * sdf[i0][j0] + (1 - fu) * fv * sdf[i0][j0 + 1]
              + fu * (1 - fv) * sdf[i0 + 1][j0] + fu * fv * sdf[i0 + 1][j0 + 1])
    return interp - math.sqrt((u - uc) ** 2 + (v - vc) ** 2)


def valid_oracle(point, half_extent, radius, sdf, cell_size):
    """Placement validity of one point written out: inside the extent
    shrunk by the radius, and the SDF there at least the radius in units
    of the smaller cell side."""
    x, y = map(float, point)
    if not (abs(x) <= half_extent[0] - radius and abs(y) <= half_extent[1] - radius):
        return False
    return sdf_oracle(sdf, cell_size, (x, y)) >= radius / min(cell_size)


def make_place_set(n=8, seed=0, obstacle=True):
    rng = np.random.default_rng(seed)
    plane, grid = make_plane_and_grid(obstacle)
    stack = grid.stack()
    return af.PlaceabilitySet(
        traj=0.1 * rng.normal(size=(n, af.TRAJ_DIM)),
        onehot=np.tile(sc.onehot_code("cup", "table"), (n, 1)),
        features=np.tile(stack, (n, 1, 1, 1)),
        label=rng.uniform(-0.4, 0.4, size=(n, 2)),
        cell_size=np.tile(plane.cell_size, (n, 1)),
        half_extent=np.tile((0.6, 0.6), (n, 1)),
        radius=np.full(n, 0.05),
        offset=np.where(np.arange(n) % 2 == 0, 1.0, 2.0),
        persona=np.arange(n) % 3,
        pelvis_plane=rng.uniform(-0.5, 0.5, size=(n, 2)),
    )


def make_grasp_set(n=10, seed=0):
    rng = np.random.default_rng(seed)
    obj_rel = rng.uniform(-0.5, 0.5, size=(n, 3))
    wrist_rel = obj_rel + 0.1 * rng.normal(size=(n, 3))
    diff = wrist_rel - obj_rel
    distance = np.linalg.norm(diff, axis=1)
    direction = diff / distance[:, None]
    pelvis = rng.uniform(-1, 1, size=(n, 3))
    types = np.array(["cup", "plate"] * (n // 2) + ["cup"] * (n % 2))
    return af.GraspabilitySet(
        traj=0.1 * rng.normal(size=(n, af.TRAJ_DIM)),
        onehot=np.tile(sc.onehot_code("cup", "table"), (n, 1)),
        obj_rel=obj_rel, wrist_rel=wrist_rel, direction=direction,
        distance=distance, object_pos=obj_rel + pelvis,
        wrist_now=pelvis + wrist_rel + 0.2 * rng.normal(size=(n, 3)),
        pelvis=pelvis, wrist_label=pelvis + wrist_rel,
        object_type=types[:n], surface=np.array(["table"] * n),
        persona=np.arange(n) % 5,
    )


# ---------------------------------------------------------------------------
# input validation and assembly


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        af.assemble_placeability("fancy")
    with pytest.raises(ValueError):
        af.assemble_graspability("laplace")


def test_transfer_requires_encoder():
    with pytest.raises(af.TrainingError):
        af.assemble_placeability("transfer")
    with pytest.raises(af.TrainingError):
        af.assemble_placeability("transfer-penalty", encoder_store=None)
    # an encoder missing a parameter, or with one of another shape
    full = af.build_autoencoder(seed=3)
    for drop, cut in (("enc/c2/b", None), (None, "enc/proj/w")):
        store = ParamStore()
        for n in full.names():
            if n != drop:
                v = full[n].values
                store.add(n, v[..., :-1] if n == cut else v)
        with pytest.raises(af.TrainingError, match=repr(drop or cut)):
            af.assemble_placeability("transfer", encoder_store=store)


def test_no_cnn_has_no_encoder_parameters():
    def encoder_names(variant):
        return [n for n in af.assemble_placeability(variant).store.names()
                if n.startswith("enc/")]

    assert encoder_names("no-cnn") == []
    assert encoder_names("plain") == af.encoder_layout().names()


def test_forward_output_shapes():
    data = make_place_set(4)
    for variant in ("plain", "no-cnn"):
        model = af.assemble_placeability(variant, seed=1)
        raw = af.placeability_forward(model, data.traj, data.onehot,
                                      data.features)
        assert raw.values.shape == (4, 5 * af.MDN_COMPONENTS)
        dists = af.placeability_predict(model, data.traj, data.onehot,
                                        data.features)
        assert len(dists) == 4
        for d in dists:
            assert abs(d.alpha.sum() - 1.0) < 1e-12
            assert np.all(d.sigma > 0)


def test_loss_matches_numpy_nll():
    data = make_place_set(6, seed=3)
    model = af.assemble_placeability("plain", seed=2)
    loss = af.placeability_loss(model, data).item()
    raw = af.placeability_forward(model, data.traj, data.onehot,
                                  data.features).values
    oracle = np.mean([dn.mdn_nll(dn.mdn_head(r), y)
                      for r, y in zip(raw, data.label)])
    assert abs(loss - oracle) < 1e-10


def test_penalty_matches_bilinear_oracle():
    # plain and penalty assemble identical parameters from the same seed,
    # so the loss difference isolates the penalty term
    data = make_place_set(6, seed=4)
    plain = af.assemble_placeability("plain", seed=5)
    pen_model = af.assemble_placeability("penalty", seed=5)
    weight = 0.7
    gap = af.placeability_loss(pen_model, data, penalty_weight=weight).item() \
        - af.placeability_loss(plain, data).item()

    _, grid = make_plane_and_grid()
    raw = af.placeability_forward(plain, data.traj, data.onehot,
                                  data.features).values
    per_sample = []
    for i, r in enumerate(raw):
        dist = dn.mdn_head(r)
        r_cells = data.radius[i] / min(data.cell_size[i])
        pen = 0.0
        for mu in dist.mu:
            s = sdf_oracle(grid.sdf, grid.cell_size, mu)
            pen += min(max(0.0, r_cells - s), r_cells + 2.0) ** 2
        per_sample.append(pen / dist.m)
    assert abs(gap - weight * np.mean(per_sample)) < 1e-9


def test_penalty_loss_gradient_finite_difference():
    data = make_place_set(5, seed=6)
    model = af.assemble_placeability("penalty", seed=7)

    def loss_value():
        return af.placeability_loss(model, data).item()

    loss = af.placeability_loss(model, data)
    model.store.zero_grad()
    import intentmotion.autodiff as ad
    ad.backward(loss)
    rng = np.random.default_rng(0)
    step = 1e-5
    for name in ("trunk/out/b", "trunk/l1/b", "enc/c2/b"):
        tensor = model.store[name]
        flat = tensor.values.ravel()
        gflat = tensor.grad.ravel()
        for i in rng.choice(flat.size, size=3, replace=False):
            orig = flat[i]
            flat[i] = orig + step
            fp = loss_value()
            flat[i] = orig - step
            fm = loss_value()
            flat[i] = orig
            numeric = (fp - fm) / (2 * step)
            rel = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-8)
            assert rel < 1e-4, f"{name}[{i}]: {gflat[i]} vs {numeric}"


# ---------------------------------------------------------------------------
# training behavior


def test_training_reduces_loss():
    data = make_place_set(16, seed=8)
    model = af.assemble_placeability("plain", seed=8)
    curve, metrics = af.train_placeability(model, data, data, epochs=8,
                                           lr=3e-3, seed=0)
    assert curve[-1] < curve[0]
    assert np.isfinite(metrics["test"]["nll"])
    assert metrics["test"]["mse"] >= 0


def test_transfer_encoder_stays_frozen():
    enc = af.build_autoencoder(seed=11)
    before = {n: enc[n].values.copy() for n in enc.params if n.startswith("enc/")}
    data = make_place_set(12, seed=9)
    model = af.assemble_placeability("transfer", encoder_store=enc, seed=9)
    af.train_placeability(model, data, data, epochs=3, lr=1e-2, seed=0)
    for name, values in before.items():
        assert np.array_equal(model.store[name].values, values)
    assert not model.store.trainable[list(before)[0]]


def test_empty_training_set_rejected():
    data = make_place_set(4)
    model = af.assemble_placeability("no-cnn")
    with pytest.raises(af.TrainingError):
        af.train_placeability(model, data.subset(np.array([], dtype=int)),
                              data, epochs=1)


def test_nan_labels_abort_training():
    data = make_place_set(8, seed=10)
    data.label[3] = np.nan
    model = af.assemble_placeability("no-cnn", seed=10)
    with pytest.raises(af.TrainingError):
        af.train_placeability(model, data, data, epochs=1, batch=8)


def test_training_determinism(tmp_path):
    data = make_place_set(10, seed=12)
    paths = []
    for run in range(2):
        model = af.assemble_placeability("plain", seed=13)
        af.train_placeability(model, data, data, epochs=2, seed=42)
        p = tmp_path / f"run{run}.ckpt"
        model.store.save(p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# occupancy autoencoder


def test_autoencoder_output_range_and_shape():
    data = make_place_set(5)
    store = af.build_autoencoder(seed=0)
    out = af.autoencoder_forward(store, data.features, data.onehot).values
    assert out.shape == (5, 24, 24)
    assert np.all((out > 0) & (out < 1))
    latent = af._encode(store, data.features).values
    assert latent.shape == (5, af.ENC_DIM)


def test_autoencoder_training_reduces_mse():
    rng = np.random.default_rng(14)
    base = make_place_set(12, seed=14)
    dataset = af.AutoencoderSet(features=base.features, onehot=base.onehot,
                                target=(rng.random((12, 24, 24)) < 0.1).astype(float))
    store, curve = af.train_occupancy_autoencoder(dataset, epochs=6, seed=0,
                                                  lr=3e-3)
    assert curve[-1] < curve[0]
    af.check_layout(store, af.encoder_layout(), "encoder")


# ---------------------------------------------------------------------------
# graspability


def test_grasp_forward_head_widths():
    data = make_grasp_set(4)
    for posterior, width in (("gaussian", 6), ("vmf", 5)):
        model = af.assemble_graspability(posterior, seed=1)
        raw = af.graspability_forward(model, data.traj, data.onehot,
                                      data.obj_rel)
        assert raw.values.shape == (4, width)


def test_gaussian_points_are_pelvis_relative_means():
    data = make_grasp_set(5, seed=2)
    model = af.assemble_graspability("gaussian", seed=2)
    points = af.graspability_predict_points(model, data)
    raw = af.graspability_forward(model, data.traj, data.onehot,
                                  data.obj_rel).values
    for i in range(5):
        expect = dn.gaussian_head(raw[i]).mu + data.pelvis[i]
        assert np.allclose(points[i], expect, atol=1e-12)


def test_vmf_points_sit_at_predicted_distance():
    data = make_grasp_set(5, seed=3)
    model = af.assemble_graspability("vmf", seed=3)
    points = af.graspability_predict_points(model, data)
    raw = af.graspability_forward(model, data.traj, data.onehot,
                                  data.obj_rel).values
    for i in range(5):
        _, distance = dn.vmf_head(raw[i])
        gap = np.linalg.norm(points[i] - data.object_pos[i])
        assert abs(gap - distance) < 1e-9


@pytest.mark.parametrize("posterior", ["gaussian", "vmf"])
def test_grasp_training_reduces_loss(posterior):
    data = make_grasp_set(16, seed=4)
    model = af.assemble_graspability(posterior, seed=4)
    curve, metrics = af.train_graspability(model, data, data, epochs=8,
                                           lr=3e-3, seed=0)
    assert curve[-1] < curve[0]
    assert np.isfinite(metrics["test"]["mse"])


def test_reflection_is_an_involution():
    data = make_grasp_set(6, seed=5)
    back = af._reflect_grasp_set(af._reflect_grasp_set(data))
    for f in ("traj", "obj_rel", "direction", "wrist_label"):
        assert np.allclose(getattr(back, f), getattr(data, f))


def test_reflection_augmentation_doubles_data():
    data = make_grasp_set(6, seed=6)
    both = af._concat_grasp_sets(data, af._reflect_grasp_set(data))
    assert len(both) == 12
    assert np.allclose(both.wrist_rel[6:, 1], -data.wrist_rel[:, 1])


# ---------------------------------------------------------------------------
# baselines


def baseline_rows(data):
    return (data.sdf, data.half_extent, data.cell_size, data.pelvis_plane,
            data.radius)


def test_place_baseline_nearest_valid_property():
    plane, grid = make_plane_and_grid()
    data = make_place_set(4, seed=3)
    radius = 0.05
    points = af._place_baseline_on_grid(*baseline_rows(data))
    xs, ys = sc.cell_geometry(plane.extent)[:2]
    for point, rel in zip(points, data.pelvis_plane):
        assert sc.is_valid_placement(point, plane, radius, grid)
        best_d = np.hypot(*(point - rel))
        for x in xs:
            for y in ys:
                if sc.is_valid_placement((x, y), plane, radius, grid):
                    assert np.hypot(x - rel[0], y - rel[1]) >= best_d - 1e-12


def test_place_baseline_full_surface_raises():
    data = make_mixed_place_set(6, seed=2)
    plane = sc.SupportPlane("table", (0.0, 0.0), (1.0, 1.0), 0.72)
    block = sc.SceneObject("slab", "plate", (0.0, 0.0, 0.72), 0.0, (0.6, 0.6))
    data.features[4] = sc.plane_feature_stack(plane, [block]).stack()
    data.cell_size[4] = plane.cell_size
    data.half_extent[4] = (0.5, 0.5)
    with pytest.raises(af.SurfaceFullError, match=f"radius {data.radius[4]}"):
        af.baseline_place_mse(data)


def test_place_baseline_non_positive_extent_raises():
    data = make_mixed_place_set(6, seed=2)
    data.half_extent[2] = (0.0, 0.4)
    with pytest.raises(sc.SceneError):
        af.baseline_place_mse(data)


def per_row_baseline_mse(data):
    """The oracle: each row's cell centers, tested one by one with
    ``valid_oracle``."""
    se = []
    for i in range(len(data)):
        xs, ys = sc.cell_geometry(tuple(2 * data.half_extent[i]))[:2]
        cells = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        sdf = data.sdf[i].tolist()
        ok = np.array([valid_oracle(c, data.half_extent[i], data.radius[i], sdf,
                                    data.cell_size[i]) for c in cells])
        p = data.pelvis_plane[i]
        dist = np.where(ok, np.hypot(cells[:, 0] - p[0], cells[:, 1] - p[1]), np.inf)
        se.append(((cells[np.argmin(dist)] - data.label[i]) ** 2).sum())
    return float(np.mean(se))


@pytest.mark.parametrize("seed", range(4))
def test_batched_baseline_equals_per_row_oracle(seed):
    data = make_mixed_place_set(40, seed=seed)
    data.radius = np.random.default_rng(seed).uniform(0.0, 0.12, size=len(data))
    # points on the planes' axes of symmetry give ties between cells
    data.pelvis_plane[::5] = 0.0
    data.pelvis_plane[1::5, 0] = 0.0
    assert af.baseline_place_mse(data) == per_row_baseline_mse(data)


def test_baseline_place_mse_zero_on_own_predictions():
    data = make_place_set(6, seed=7)
    data.label[:] = af._place_baseline_on_grid(*baseline_rows(data))
    assert af.baseline_place_mse(data) == 0.0


def test_valid_region_rate_shape_and_range():
    data = make_place_set(8, seed=15)
    model = af.assemble_placeability("no-cnn", seed=15)
    rates = af.evaluate_placeability(model, data)["valid_region"]
    assert set(rates) == {1.0, 2.0}
    for v in rates.values():
        assert 0.0 <= v <= 1.0


def make_mixed_place_set(n, seed):
    """Rows on three planes of different sizes, layouts and radii."""
    rng = np.random.default_rng(seed)
    planes = [
        (sc.SupportPlane("table", (0.0, 0.0), (1.2, 1.2), 0.72),
         [sc.SceneObject("cup0", "cup", (0.2, 0.1, 0.72), 0.0, (0.06, 0.06))]),
        (sc.SupportPlane("table", (0.0, 0.0), (1.6, 0.8), 0.72),
         [sc.SceneObject("plate0", "plate", (-0.3, 0.0, 0.72), 0.0, (0.12, 0.12)),
          sc.SceneObject("cup1", "cup", (0.5, -0.2, 0.72), 0.0, (0.05, 0.05))]),
        (sc.SupportPlane("table", (0.0, 0.0), (0.9, 0.6), 0.72), []),
    ]
    rows = [planes[i % 3] for i in range(n)]
    return af.PlaceabilitySet(
        traj=0.1 * rng.normal(size=(n, af.TRAJ_DIM)),
        onehot=np.tile(sc.onehot_code("cup", "table"), (n, 1)),
        features=np.stack([sc.plane_feature_stack(p, objs).stack() for p, objs in rows]),
        label=rng.uniform(-0.4, 0.4, size=(n, 2)),
        cell_size=np.array([p.cell_size for p, _ in rows]),
        half_extent=np.array([np.asarray(p.extent) / 2 for p, _ in rows]),
        radius=np.array([0.0, 0.03, 0.05, 0.12])[np.arange(n) % 4],
        offset=np.array([0.5, 1.0, 2.0])[rng.integers(3, size=n)],
        persona=np.arange(n) % 3,
        pelvis_plane=rng.uniform(-0.5, 0.5, size=(n, 2)),
    )


def crafted_points(data, seed):
    """Plane-frame points over and past each row's extent, some non-finite."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.2, 1.2, size=(len(data), 2)) * data.half_extent
    points[3] = (np.nan, 0.0)
    points[7] = (np.inf, -np.inf)
    points[11] = data.half_extent[11] - data.radius[11]  # on the shrunk border
    points[13] = (-0.0, 0.0)
    return points


def per_row_flags(points, data, radius):
    """The oracle: ``valid_oracle`` on each row's point and plane."""
    return [valid_oracle(point, data.half_extent[k], radius[k], data.sdf[k],
                         data.cell_size[k]) for k, point in enumerate(points)]


def per_row_valid_region_rate(model, data, batch=256,
                              predict=af.placeability_predict):
    """``evaluate_placeability``'s valid-region rates with one
    ``valid_oracle`` test per row; ``predict`` gives each batch's
    mixtures."""
    hits = {o: [] for o in np.unique(data.offset)}
    for lo in range(0, len(data), batch):
        d = data.subset(np.arange(lo, min(lo + batch, len(data))))
        dists = predict(model, d.traj, d.onehot, d.features)
        points = [dist.mu[dn.mdn_top_component(dist)] for dist in dists]
        for offset, flag in zip(d.offset, per_row_flags(points, d, d.radius)):
            hits[offset].append(flag)
    return {float(o): float(np.mean(v)) for o, v in hits.items()}


def test_valid_placement_rows_equal_per_row_calls():
    data = make_mixed_place_set(30, seed=40)
    for seed in range(5):
        points = crafted_points(data, seed)
        flags = sc.valid_placement_rows(points, data.half_extent, data.radius,
                                        data.sdf, data.cell_size)
        expected = per_row_flags(points, data, data.radius)
        assert flags.tolist() == expected
        assert any(expected) and not all(expected)
    with pytest.raises(sc.SceneError):
        sc.valid_placement_rows(points, data.half_extent, -data.radius - 0.01,
                                data.sdf, data.cell_size)


def test_valid_region_rate_equals_per_row_oracle(monkeypatch):
    data = make_mixed_place_set(30, seed=41)
    model = af.assemble_placeability("no-cnn", seed=41)
    for batch in (256, 7):
        assert af.evaluate_placeability(model, data, batch)["valid_region"] == \
            per_row_valid_region_rate(model, data, batch)

    # crafted predictions: the top component sits at the row's crafted point
    points = {tuple(row[:3]): p for row, p in zip(data.traj, crafted_points(data, 9))}

    def heads(model, traj, onehot, features=None, conv_map=None):
        n = len(traj)
        top = np.array([points[tuple(row[:3])] for row in traj])
        return (np.tile([0.25, 0.75], (n, 1)),
                np.stack([np.zeros((n, 2)), top], axis=1), np.ones((n, 2, 2)))

    # the oracle's placeability_predict reads the same crafted heads
    monkeypatch.setattr(af, "placeability_heads", heads)
    for batch in (256, 7):
        rates = af.evaluate_placeability(None, data, batch=batch)["valid_region"]
        assert rates == per_row_valid_region_rate(None, data, batch=batch)
        assert 0.0 < min(rates.values()) and max(rates.values()) < 1.0


def test_grasp_stats_oracle():
    data = make_grasp_set(12, seed=8)
    stats = af.compute_grasp_stats(data)
    for (otype, surface), value in stats.items():
        dists = [np.linalg.norm(data.wrist_label[i] - data.object_pos[i])
                 for i in range(len(data))
                 if data.object_type[i] == otype and data.surface[i] == surface]
        assert abs(value - np.mean(dists)) < 1e-12


def test_grasp_baseline_missing_combination():
    data = make_grasp_set(8, seed=9)
    stats = af.compute_grasp_stats(data)
    with pytest.raises(af.GraspStatsError):
        af.grasp_baseline(stats, "jug", "small_shelf", np.zeros(3), np.ones(3))


def test_grasp_baseline_exact_when_wrist_at_mean_distance():
    stats = {("cup", "table"): 0.25}
    obj = np.array([1.0, 2.0, 0.7])
    wrist_now = obj + np.array([0.3, 0.4, 0.0])  # distance 0.5 from object
    point = af.grasp_baseline(stats, "cup", "table", obj, wrist_now)
    assert np.allclose(point, obj + 0.25 * np.array([0.6, 0.8, 0.0]))


# ---------------------------------------------------------------------------
# gradient work skipped by requires_grad: trainable gradients stay bitwise


def varied_place_set(n, seed):
    """A PlaceabilitySet whose feature stacks differ row by row."""
    data = make_place_set(n, seed=seed)
    rng = np.random.default_rng(seed)
    data.features = data.features + 0.05 * rng.normal(size=data.features.shape)
    return data


def all_leaf_gradients(store, loss_fn, monkeypatch):
    """Loss and parameter gradients of a copy of ``store`` on a reference
    tape that skips no gradient work: every tensor requires a gradient and
    keeps all of its parents."""
    init = Tensor.__init__

    def init_all(self, values, parents=(), op="leaf", requires_grad=True):
        init(self, values, (), op)
        self.parents = tuple(parents)

    store = copy.deepcopy(store)
    store.zero_grad()
    for t in store.params.values():
        t.requires_grad = True
    with monkeypatch.context() as m:
        m.setattr(Tensor, "__init__", init_all)
        loss = loss_fn(store)
        ad.backward(loss)
    return loss.values.tobytes(), {n: t.grad for n, t in store.params.items()}


def assert_same_trainable_grads(store, loss, ref):
    ref_loss, ref_grads = ref
    assert loss.values.tobytes() == ref_loss
    for n, t in store.params.items():
        if store.trainable[n]:
            assert t.grad.tobytes() == ref_grads[n].tobytes(), n
        else:
            assert t.grad is None, n


@pytest.mark.parametrize("variant", af.PLACE_VARIANTS)
def test_placeability_grads_bitwise_equal_all_leaf_graph(
        variant, monkeypatch):
    data = varied_place_set(40, seed=21)
    enc = af.build_autoencoder(seed=3)
    model = af.assemble_placeability(variant, encoder_store=enc, seed=4)
    idx = np.random.default_rng(5).permutation(40)[:32]
    # the training loop's inputs: the frozen encoder's map, when it has one
    frozen = variant.startswith("transfer")
    conv_map = af.encoder_conv_map(model.store, data.features) if frozen else None
    loss = af.placeability_loss(model, data, idx, 3.25, conv_map)
    ad.backward(loss)
    ref = all_leaf_gradients(
        model.store,
        lambda s: af.placeability_loss(af.PlaceabilityModel(variant, s), data,
                                       idx, 3.25),
        monkeypatch)
    assert_same_trainable_grads(model.store, loss, ref)


def test_autoencoder_grads_bitwise_equal_all_leaf_graph(monkeypatch):
    base = varied_place_set(40, seed=22)
    rng = np.random.default_rng(23)
    data = af.AutoencoderSet(features=base.features, onehot=base.onehot,
                             target=(rng.random((40, 24, 24)) < 0.1).astype(float))
    store = af.build_autoencoder(seed=6)
    idx = rng.permutation(40)[:32]
    loss = af.autoencoder_loss(store, data, idx)
    ad.backward(loss)
    ref = all_leaf_gradients(store, lambda s: af.autoencoder_loss(s, data, idx),
                             monkeypatch)
    assert_same_trainable_grads(store, loss, ref)


def test_conv_map_rows_do_not_depend_on_batch():
    # the reference is one conv pass over all rows, never chunked
    store = af.build_autoencoder(seed=7)
    for n in (1, 31, 32, 33, 100):
        data = varied_place_set(n, seed=24)
        chunked = af.encoder_conv_map(store, data.features)
        assert chunked.shape == (n, af.ENC_MAP)
        assert chunked.tobytes() == af._conv_map(store, data.features).values.tobytes()


@pytest.mark.parametrize("variant", ["transfer", "transfer-penalty"])
def test_conv_map_gives_identical_loss_and_grads(variant):
    data = varied_place_set(40, seed=25)
    model = af.assemble_placeability(variant, encoder_store=af.build_autoencoder(8),
                                     seed=9)
    idx = np.arange(3, 35)
    conv_map = af.encoder_conv_map(model.store, data.features)
    results = []
    for cm in (None, conv_map):
        model.store.zero_grad()
        loss = af.placeability_loss(model, data, idx, 3.25, cm)
        ad.backward(loss)
        results.append([loss.values.tobytes()] + [
            None if t.grad is None else t.grad.tobytes()
            for t in model.store.params.values()])
    assert results[0] == results[1]


def test_data_leaves_and_frozen_params_end_without_grad(monkeypatch):
    data = varied_place_set(12, seed=26)
    model = af.assemble_placeability("transfer-penalty",
                                     encoder_store=af.build_autoencoder(10), seed=11)
    made = []
    init = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    with_grad = []
    adam_step = ParamStore.adam_step

    def recording_step(store, lr):
        with_grad.append({n for n, t in store.params.items() if t.grad is not None})
        adam_step(store, lr)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    monkeypatch.setattr(ParamStore, "adam_step", recording_step)
    af.train_placeability(model, data, data, epochs=1, seed=0)
    monkeypatch.undo()
    params = {id(t) for t in model.store.params.values()}
    leaves = [t for t in made if t.op == "leaf" and id(t) not in params]
    assert leaves and all(t.grad is None and not t.requires_grad for t in leaves)
    # every step saw gradients on the trainable parameters alone
    trainable = {n for n in model.store.names() if not n.startswith("enc/")}
    assert with_grad and all(names == trainable for names in with_grad)
    # and training ends holding neither gradients nor Adam moments
    assert all(t.grad is None for t in model.store.params.values())
    assert not model.store._m and not model.store._v and model.store._t == 0


@pytest.mark.parametrize("variant", ["transfer", "plain"])
def test_evaluate_with_conv_map_equals_features(variant):
    # more rows than one 256-row evaluation batch, so the map is sliced
    data = varied_place_set(300, seed=27)
    model = af.assemble_placeability(variant, encoder_store=af.build_autoencoder(12),
                                     seed=13)
    conv_map = af.encoder_conv_map(model.store, data.features)
    with_map = af.evaluate_placeability(model, data, conv_map=conv_map)
    assert with_map == af.evaluate_placeability(model, data)
    assert with_map == af.evaluate_placeability(model, data, batch=256,
                                                conv_map=conv_map)


def test_shared_conv_maps_give_identical_training():
    train, test = varied_place_set(40, seed=28), varied_place_set(20, seed=29)
    enc = af.build_autoencoder(14)
    maps = tuple(af.encoder_conv_map(enc, d.features) for d in (train, test))
    runs = []
    for conv_maps in (None, maps):
        model = af.assemble_placeability("transfer-penalty", encoder_store=enc,
                                         seed=15)
        curve, metrics = af.train_placeability(model, train, test, epochs=2,
                                               seed=1, conv_maps=conv_maps)
        runs.append((curve, metrics, [t.values.tobytes()
                                      for t in model.store.params.values()]))
    assert runs[0] == runs[1]


def test_conv_maps_need_a_frozen_encoder():
    data = make_place_set(8)
    model = af.assemble_placeability("plain", seed=0)
    maps = (np.zeros((8, af.ENC_MAP)), np.zeros((8, af.ENC_MAP)))
    with pytest.raises(af.TrainingError, match="no frozen encoder"):
        af.train_placeability(model, data, data, epochs=1, conv_maps=maps)


def test_conv_map_of_no_rows_is_empty():
    store = af.build_autoencoder(0)
    assert af.encoder_conv_map(store, np.zeros((0, 24, 24, 4))).shape == (0, af.ENC_MAP)


# ---------------------------------------------------------------------------
# batched evaluation against the per-row path: the tape forward of each
# batch's features, then mdn_head, mdn_nll and mdn_top_component per row


def per_row_dists(model, traj, onehot, features):
    raw = af.placeability_forward(model, traj, onehot, features).values
    return [dn.mdn_head(r) for r in raw]


def per_row_evaluate(model, data, batch):
    nll, se = [], []
    for lo in range(0, len(data), batch):
        d = data.subset(slice(lo, lo + batch))
        for dist, label in zip(per_row_dists(model, d.traj, d.onehot, d.features),
                               d.label):
            nll.append(dn.mdn_nll(dist, label))
            point = dist.mu[dn.mdn_top_component(dist)]
            se.append(((point - label) ** 2).sum())
    return {"nll": float(np.mean(nll)), "mse": float(np.mean(se))}


@pytest.mark.parametrize("variant", ["plain", "no-cnn"])
@pytest.mark.parametrize("batch", [256, 7])
def test_batched_evaluation_equals_per_row_oracle(variant, batch):
    # more rows than one 256-row batch, on three planes
    data = make_mixed_place_set(260, seed=42)
    data.traj = data.traj * 10.0  # spread the top components apart
    model = af.assemble_placeability(variant, seed=43)
    metrics = af.evaluate_placeability(model, data, batch)
    rates = metrics.pop("valid_region")
    assert metrics == per_row_evaluate(model, data, batch)
    assert rates == per_row_valid_region_rate(model, data, batch, per_row_dists)
    assert 0.0 < min(rates.values()) and max(rates.values()) < 1.0
    for lo in range(0, len(data), batch):
        rows = slice(lo, lo + batch)
        args = (data.traj[rows], data.onehot[rows], data.features[rows])
        for have, want in zip(af.placeability_predict(model, *args),
                              per_row_dists(model, *args), strict=True):
            for field in ("alpha", "mu", "sigma"):
                assert getattr(have, field).tobytes() == \
                    getattr(want, field).tobytes()
