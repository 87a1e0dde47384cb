import numpy as np
import pytest
from scipy import ndimage

from intentmotion import scene as sc


def scipy_edt_sdf(occupancy):
    """The SDF formula on scipy's exact EDT (Maurer et al., 2003)."""
    occ = np.asarray(occupancy) != 0
    free = ~occ
    blocked = np.pad(occ, 1, constant_values=True)
    d_free = ndimage.distance_transform_edt(~blocked)[1:-1, 1:-1]
    if free.any():
        d_occ = ndimage.distance_transform_edt(~free)
    else:
        d_occ = np.full(occ.shape, 48.0)
    return np.where(free, d_free, -d_occ)


def brute_force_sdf(occ):
    """O(N^4) nearest-cell oracle, border treated as occupied ring."""
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
                    d = min(d, np.sqrt(((occ_cells - (i, j)) ** 2).sum(axis=1)).min())
                out[i, j] = d
    return out


@pytest.fixture
def table():
    return sc.SupportPlane("table", frame_origin=(0.0, 0.0),
                           extent=(1.6, 0.8), height=0.72)


def cup(x, y, z=0.72, yaw=0.0, half=0.04):
    return sc.SceneObject("cup0", "cup", (x, y, z), yaw, (half, half))


class TestTypes:
    def test_bad_half_extents(self):
        with pytest.raises(sc.SceneError):
            sc.SceneObject("o", "cup", (0, 0, 0), 0.0, (0.0, 0.1))

    def test_bad_grid_resolution(self):
        with pytest.raises(sc.SceneError):
            sc.SupportPlane("table", (0, 0), (1, 1), 0.7, grid_resolution=(16, 16))

    def test_key_joints_are_nine(self):
        assert len(sc.KEY_JOINTS) == 9
        assert sc.PELVIS in sc.KEY_JOINTS

    def test_onehot_two_ones(self):
        code = sc.onehot_code("jug", "small_shelf")
        assert code.sum() == 2
        assert code.shape == (14,)
        assert code[2] == 1 and code[9] == 1


class TestRasterize:
    def test_empty_scene(self, table):
        occ = sc.rasterize_occupancy(table, [])
        assert occ.shape == (24, 24)
        assert occ.sum() == 0

    def test_centered_cup_matches_pointwise_oracle(self, table):
        obj = cup(0.0, 0.0)
        occ = sc.rasterize_occupancy(table, [obj])
        xs, ys = table.cell_centers()
        for i in range(24):
            for j in range(24):
                inside = abs(xs[i]) <= 0.04 and abs(ys[j]) <= 0.04
                assert occ[i, j] == (1.0 if inside else 0.0)

    def test_rotated_footprint_matches_oracle(self, table):
        obj = sc.SceneObject("p", "plate", (0.2, -0.1, 0.72), 0.7, (0.12, 0.08))
        occ = sc.rasterize_occupancy(table, [obj])
        xs, ys = table.cell_centers()
        c, s = np.cos(0.7), np.sin(0.7)
        for i in range(24):
            for j in range(24):
                dx, dy = xs[i] - 0.2, ys[j] + 0.1
                lx, ly = c * dx + s * dy, -s * dx + c * dy
                inside = abs(lx) <= 0.12 and abs(ly) <= 0.08
                assert occ[i, j] == (1.0 if inside else 0.0)

    def test_far_object_ignored(self, table):
        occ = sc.rasterize_occupancy(table, [cup(10.0, 0.0)])
        assert occ.sum() == 0

    def test_object_above_plane_ignored(self, table):
        occ = sc.rasterize_occupancy(table, [cup(0.0, 0.0, z=0.90)])
        assert occ.sum() == 0

    def test_nonfinite_pose_rejected(self, table):
        with pytest.raises(sc.SceneError):
            cup(np.nan, 0.0)


class TestSDF:
    def test_all_free_grid(self):
        sdf = sc.signed_distance_field(np.zeros((24, 24)))
        assert sdf[0, 0] == pytest.approx(1.0)
        assert sdf[11, 11] == pytest.approx(12.0)
        assert sdf[12, 12] == pytest.approx(12.0)

    def test_single_occupied_cell(self):
        occ = np.zeros((24, 24))
        occ[12, 12] = 1
        sdf = sc.signed_distance_field(occ)
        assert sdf[12, 12] == pytest.approx(-1.0)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert sdf[12 + di, 12 + dj] == pytest.approx(1.0)

    def test_all_occupied_nonpositive(self):
        sdf = sc.signed_distance_field(np.ones((24, 24)))
        assert np.all(sdf <= 0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            occ = (rng.random((24, 24)) < rng.uniform(0.02, 0.3)).astype(float)
            np.testing.assert_allclose(sc.signed_distance_field(occ),
                                       brute_force_sdf(occ), atol=1e-9)

    def test_bits_equal_scipy_edt(self):
        rng = np.random.default_rng(18)
        grids = [(rng.random((24, 24)) < rng.uniform(0.0, 0.6)).astype(float)
                 for _ in range(1000)]
        single_free = np.ones((24, 24))
        single_free[7, 16] = 0
        border = np.zeros((24, 24))
        border[0, 3:9] = border[10:15, 23] = border[23, 20:] = border[:2, 0] = 1
        grids += [np.zeros((24, 24)), np.ones((24, 24)), single_free, border]
        # other shapes, up to sizes whose squared distances need int32
        grids += [(rng.random(shape) < 0.3).astype(float)
                  for shape in rng.integers(1, 60, size=(100, 2))]
        for occ in grids:
            assert sc.signed_distance_field(occ).tobytes() == \
                scipy_edt_sdf(occ).tobytes()

    def test_lipschitz_and_sign(self):
        # The two-sided cell-center convention (+1 / -1 across a free-
        # occupied boundary) is 1-Lipschitz within each sign region and
        # 2-Lipschitz across the boundary.
        rng = np.random.default_rng(5)
        ii, jj = np.meshgrid(np.arange(24), np.arange(24), indexing="ij")
        coords = np.stack([ii.ravel(), jj.ravel()], axis=1).astype(float)
        dists = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))
        for _ in range(5):
            occ = (rng.random((24, 24)) < 0.15).astype(float)
            sdf = sc.signed_distance_field(occ)
            assert np.all((sdf > 0) == (occ == 0))
            flat = sdf.ravel()
            diff = np.abs(flat[:, None] - flat[None])
            same_sign = (flat[:, None] > 0) == (flat[None] > 0)
            assert np.all(diff[same_sign] <= dists[same_sign] + 1e-9)
            assert np.all(diff <= 2 * dists + 1e-9)


class TestFeatureStack:
    def test_empty_table_channels(self, table):
        grid = sc.plane_feature_stack(table, [])
        assert grid.stack().shape == (24, 24, 4)
        assert grid.occupancy.sum() == 0
        assert np.all(grid.sdf > 0)

    def test_pos_channel_cell_centers(self, table):
        grid = sc.plane_feature_stack(table, [])
        cw, cd = table.cell_size
        assert grid.pos_x[0, 0] == pytest.approx(-0.8 + cw / 2)
        assert grid.pos_y[0, 0] == pytest.approx(-0.4 + cd / 2)

    def test_object_order_invariance(self, table):
        a = cup(0.1, 0.1)
        b = sc.SceneObject("b", "bowl", (-0.3, 0.0, 0.72), 0.3, (0.07, 0.07))
        g1 = sc.plane_feature_stack(table, [a, b]).stack()
        g2 = sc.plane_feature_stack(table, [b, a]).stack()
        np.testing.assert_array_equal(g1, g2)


class TestBilinear:
    def test_cell_center_exact(self, table):
        grid = sc.plane_feature_stack(table, [cup(0.2, 0.1)])
        xs, ys = table.cell_centers()
        for i, j in ((0, 0), (5, 17), (23, 23)):
            assert sc.sdf_bilinear(grid, (xs[i], ys[j])) == pytest.approx(
                grid.sdf[i, j], abs=1e-12)

    def test_midpoint_is_mean(self, table):
        grid = sc.plane_feature_stack(table, [cup(0.2, 0.1)])
        xs, ys = table.cell_centers()
        mid = ((xs[3] + xs[4]) / 2, ys[7])
        expected = 0.5 * (grid.sdf[3, 7] + grid.sdf[4, 7])
        assert sc.sdf_bilinear(grid, mid) == pytest.approx(expected, abs=1e-12)

    def test_random_queries_vs_dense_oracle(self, table):
        grid = sc.plane_feature_stack(table, [cup(0.2, 0.1), cup(-0.4, -0.2)])
        rng = np.random.default_rng(2)
        xs, ys = table.cell_centers()
        for _ in range(200):
            # query strictly inside the cell-center hull
            x = rng.uniform(xs[0], xs[-1])
            y = rng.uniform(ys[0], ys[-1])
            cw, cd = table.cell_size
            u = (x + 0.8) / cw - 0.5
            v = (y + 0.4) / cd - 0.5
            i0, j0 = int(u), int(v)
            fu, fv = u - i0, v - j0
            g = grid.sdf
            oracle = ((1 - fu) * (1 - fv) * g[i0, j0]
                      + (1 - fu) * fv * g[i0, j0 + 1]
                      + fu * (1 - fv) * g[i0 + 1, j0]
                      + fu * fv * g[i0 + 1, j0 + 1])
            assert sc.sdf_bilinear(grid, (x, y)) == pytest.approx(oracle, abs=1e-12)


class TestValidPlacement:
    def test_center_of_empty_table(self, table):
        assert sc.is_valid_placement((0.0, 0.0), table, [], 0.04)

    def test_outside_extent(self, table):
        assert not sc.is_valid_placement((0.801, 0.0), table, [], 0.0)

    def test_occupied_footprint_center(self, table):
        objs = [cup(0.2, 0.1)]
        assert not sc.is_valid_placement((0.2, 0.1), table, objs, 0.0)

    def test_monotone_in_radius(self, table):
        objs = [cup(0.3, 0.0)]
        rng = np.random.default_rng(8)
        grid = sc.plane_feature_stack(table, objs)
        for _ in range(100):
            p = rng.uniform((-0.8, -0.4), (0.8, 0.4))
            radii = sorted(rng.uniform(0.0, 0.2, size=3))
            flags = [sc.is_valid_placement(p, table, objs, r, grid=grid)
                     for r in radii]
            # once invalid at a small radius, invalid at all larger radii
            for small, large in zip(flags, flags[1:]):
                assert small or not large


class TestVectorisedGeometry:
    """Array queries against per-point calls and the dense overshoot formula."""

    def queries(self, table):
        xs, ys = table.cell_centers()
        centers = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
        rng = np.random.default_rng(21)
        scattered = rng.uniform((-0.9, -0.5), (0.9, 0.5), size=(300, 2))
        return centers, scattered

    def test_sdf_array_matches_point_calls(self, table):
        grid = sc.plane_feature_stack(table, [cup(0.2, 0.1), cup(-0.4, -0.2)])
        for points in self.queries(table):
            values = sc.sdf_bilinear(grid, points)
            assert values.shape == points.shape[:-1]
            flat = points.reshape(-1, 2)
            expected = np.array([sc.sdf_bilinear(grid, p) for p in flat])
            assert np.array_equal(values.ravel(), expected)
        assert isinstance(sc.sdf_bilinear(grid, (0.1, 0.1)), float)

    def test_validity_array_matches_point_calls(self, table):
        objs = [cup(0.2, 0.1), cup(-0.4, -0.2, half=0.08)]
        grid = sc.plane_feature_stack(table, objs)
        for points in self.queries(table):
            for r in (0.0, 0.045, 0.1):
                flags = sc.is_valid_placement(points, table, objs, r, grid=grid)
                assert flags.shape == points.shape[:-1] and flags.dtype == bool
                expected = [bool(sc.is_valid_placement(p, table, objs, r, grid=grid))
                            for p in points.reshape(-1, 2)]
                assert flags.ravel().tolist() == expected
                # the grid built on demand gives the same mask
                assert np.array_equal(
                    sc.is_valid_placement(points, table, objs, r), flags)

    def test_non_finite_points_are_invalid(self, table):
        points = np.array([[np.nan, 0.0], [0.0, np.inf], [0.0, 0.0]])
        with np.errstate(all="raise"):
            flags = sc.is_valid_placement(points, table, [], 0.05)
        assert flags.tolist() == [False, False, True]

    def test_overshoot_outside_hull_vs_dense_oracle(self, table):
        grid = sc.plane_feature_stack(table, [cup(0.2, 0.1)])
        cw, cd = table.cell_size
        rng = np.random.default_rng(5)
        # beyond the cell-center hull on one or both axes
        points = np.concatenate([
            rng.uniform((-1.2, -0.6), (-0.78, 0.6), size=(50, 2)),
            rng.uniform((0.78, 0.39), (1.2, 0.8), size=(50, 2)),
            rng.uniform((-0.7, 0.39), (0.7, 0.9), size=(50, 2))])
        values = sc.sdf_bilinear(grid, points)
        g = grid.sdf
        for (x, y), value in zip(points, values):
            u = (x + 0.8) / cw - 0.5
            v = (y + 0.4) / cd - 0.5
            uc, vc = min(max(u, 0.0), 23.0), min(max(v, 0.0), 23.0)
            i0, j0 = min(int(uc), 22), min(int(vc), 22)
            fu, fv = uc - i0, vc - j0
            oracle = ((1 - fu) * (1 - fv) * g[i0, j0]
                      + (1 - fu) * fv * g[i0, j0 + 1]
                      + fu * (1 - fv) * g[i0 + 1, j0]
                      + fu * fv * g[i0 + 1, j0 + 1]) - np.hypot(u - uc, v - vc)
            assert value == pytest.approx(oracle, abs=1e-12)


class TestSerialization:
    def test_roundtrip(self, table):
        objs = [cup(0.1, -0.1), sc.SceneObject("j", "jug", (1.6, 0.5, 1.0),
                                               0.2, (0.06, 0.06))]
        text = sc.scene_to_json([table], objs)
        planes2, objs2 = sc.scene_from_json(text)
        assert planes2[0] == table
        assert objs2 == objs
