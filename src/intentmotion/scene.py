"""Geometric world model: support planes, movable objects, skeletons.

Every support plane carries a fixed 24x24 feature grid with four
channels: binary occupancy, cell-center x/y coordinates in the plane
frame, and an exact Euclidean signed distance field.  The SDF is
expressed in cell units; the plane border counts as invalid region, so
free cells near the edge take small positive values and placements are
repelled from both obstacles and the plane rim.

Cell units convert to meters per axis as extent/24; with non-square
planes the two factors differ.  Metric clearances are converted
conservatively with the smaller factor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

GRID = 24

MOVABLE_TYPES = ("cup", "plate", "jug", "bowl")
SUPPORT_TYPES = ("table", "big_shelf", "small_shelf")
ONEHOT_DIM = 14  # slots 0-6 movable (4 used), 7-13 supports (3 used)


class SceneError(ValueError):
    """Rejected scene input (non-finite pose, bad extents, ...)."""


def onehot_code(object_type, surface_type):
    """14-dim code with exactly two ones: held/target object and surface."""
    code = np.zeros(ONEHOT_DIM)
    code[MOVABLE_TYPES.index(object_type)] = 1.0
    code[7 + SUPPORT_TYPES.index(surface_type)] = 1.0
    return code


@dataclass(frozen=True)
class SceneObject:
    id: str
    object_type: str
    position: tuple  # (x, y, z) meters, world frame
    yaw: float
    half_extents: tuple  # (hx, hy) meters, object frame

    def __post_init__(self):
        if self.object_type not in MOVABLE_TYPES + SUPPORT_TYPES:
            raise SceneError(f"unknown object_type {self.object_type!r}")
        if len(self.position) != 3 or len(self.half_extents) != 2:
            raise SceneError(f"object {self.id!r}: position must be 3-d and "
                             f"half extents 2-d")
        if not np.all(np.isfinite(self.position)) or not np.isfinite(self.yaw):
            raise SceneError(f"object {self.id!r}: non-finite pose")
        if not np.all(np.isfinite(self.half_extents)) or min(self.half_extents) <= 0:
            raise SceneError(f"object {self.id!r}: half extents must be finite and > 0")

    @property
    def radius(self):
        """Clearance radius: the larger footprint half extent."""
        return float(max(self.half_extents))


@dataclass(frozen=True)
class SupportPlane:
    surface_type: str
    frame_origin: tuple  # (x, y) world, plane center
    extent: tuple  # (width, depth) meters
    height: float  # z of the support surface
    grid_resolution: tuple = (GRID, GRID)

    def __post_init__(self):
        if self.surface_type not in SUPPORT_TYPES:
            raise SceneError(f"unknown surface_type {self.surface_type!r}")
        if min(self.extent) <= 0:
            raise SceneError("plane extent must be > 0")
        if tuple(self.grid_resolution) != (GRID, GRID):
            raise SceneError(f"grid_resolution must be {GRID}x{GRID}")

    @property
    def cell_size(self):
        return (self.extent[0] / GRID, self.extent[1] / GRID)

    def cell_centers(self):
        """(24,) x and (24,) y cell-center coordinates in the plane frame."""
        w, d = self.extent
        cw, cd = self.cell_size
        xs = -w / 2 + cw * (np.arange(GRID) + 0.5)
        ys = -d / 2 + cd * (np.arange(GRID) + 0.5)
        return xs, ys

    def to_plane_frame(self, xy_world):
        return np.asarray(xy_world, dtype=float) - np.asarray(self.frame_origin)

    def to_world(self, xy_plane):
        return np.asarray(xy_plane, dtype=float) + np.asarray(self.frame_origin)

    def point_to_cell(self, xy_plane):
        """Continuous (row, col) cell coordinates of a plane-frame point."""
        w, d = self.extent
        cw, cd = self.cell_size
        p = np.asarray(xy_plane, dtype=float)
        u = (p[..., 0] + w / 2) / cw - 0.5
        v = (p[..., 1] + d / 2) / cd - 0.5
        return np.stack([u, v], axis=-1)


JOINT_NAMES = (
    "pelvis", "spine", "head",
    "l_shoulder", "r_shoulder", "l_elbow", "r_elbow", "l_wrist", "r_wrist",
    "l_knee", "r_knee", "l_ankle", "r_ankle",
)
NUM_JOINTS = 13
KEY_JOINTS = tuple(JOINT_NAMES.index(n) for n in (
    "pelvis", "l_elbow", "r_elbow", "l_wrist", "r_wrist",
    "l_knee", "r_knee", "l_ankle", "r_ankle"))
PELVIS = JOINT_NAMES.index("pelvis")
R_WRIST = JOINT_NAMES.index("r_wrist")


@dataclass(frozen=True)
class SkeletonFrame:
    joints: np.ndarray  # (13, 3) meters
    timestamp: float

    def __post_init__(self):
        j = np.asarray(self.joints, dtype=float)
        if j.shape != (NUM_JOINTS, 3) or not np.all(np.isfinite(j)):
            raise SceneError("skeleton frame must be 13 finite 3D joints")
        object.__setattr__(self, "joints", j)


@dataclass(frozen=True)
class PlaneFeatureGrid:
    occupancy: np.ndarray  # (24, 24) in {0, 1}
    pos_x: np.ndarray  # (24, 24) cell-center x, plane frame (m)
    pos_y: np.ndarray
    sdf: np.ndarray  # (24, 24) cell units
    cell_size: tuple = (0.0, 0.0)

    def stack(self):
        """(24, 24, 4) channel stack in fixed order (occ, x, y, sdf)."""
        return np.stack([self.occupancy, self.pos_x, self.pos_y, self.sdf],
                        axis=-1)


# ---------------------------------------------------------------------------


def rasterize_occupancy(plane, objects):
    """Binary 24x24 grid: 1 where a cell center lies inside a retained
    object's yaw-rotated footprint.  Objects farther than 2 cm from the
    plane height are ignored (e.g. held in the hand above the table).
    """
    occ = np.zeros((GRID, GRID))
    xs, ys = plane.cell_centers()
    cx, cy = np.meshgrid(xs, ys, indexing="ij")
    for obj in objects:
        if abs(obj.position[2] - plane.height) > 0.02:
            continue
        rel = plane.to_plane_frame(obj.position[:2])
        dx, dy = cx - rel[0], cy - rel[1]
        c, s = np.cos(obj.yaw), np.sin(obj.yaw)
        local_x = c * dx + s * dy
        local_y = -s * dx + c * dy
        inside = (np.abs(local_x) <= obj.half_extents[0]) & \
                 (np.abs(local_y) <= obj.half_extents[1])
        occ[inside] = 1.0
    return occ


def signed_distance_field(occupancy):
    """Exact Euclidean SDF in cell units.

    Free cells: +distance to the nearest occupied cell or to the
    nearest cell beyond the grid border (border counts as invalid).
    Occupied cells: -distance to the nearest free in-bounds cell.
    """
    occ = np.asarray(occupancy) != 0
    free = ~occ
    # distance to occupied-or-out-of-bounds: pad with an occupied ring
    blocked = np.pad(occ, 1, constant_values=True)
    d_free = ndimage.distance_transform_edt(~blocked)[1:-1, 1:-1]
    if free.any():
        d_occ = ndimage.distance_transform_edt(~free)
    else:
        d_occ = np.full(occ.shape, float(GRID + GRID))
    return np.where(free, d_free, -d_occ)


def plane_feature_stack(plane, objects):
    """Assemble the 4-channel plane feature grid (occ, pos_x, pos_y, sdf)."""
    occ = rasterize_occupancy(plane, objects)
    xs, ys = plane.cell_centers()
    px, py = np.meshgrid(xs, ys, indexing="ij")
    return PlaneFeatureGrid(occupancy=occ, pos_x=px, pos_y=py,
                            sdf=signed_distance_field(occ),
                            cell_size=plane.cell_size)


def sdf_bilinear(grid, point):
    """Continuous SDF lookup at a plane-frame point, in cell units.

    Outside the cell-center range the value is the clamped border
    interpolation minus the Euclidean overshoot in cells, so the field
    keeps decreasing smoothly past the rim.
    """
    cw, cd = grid.cell_size
    w, d = cw * GRID, cd * GRID
    p = np.asarray(point, dtype=float)
    u = (p[0] + w / 2) / cw - 0.5
    v = (p[1] + d / 2) / cd - 0.5
    uc, vc = np.clip(u, 0, GRID - 1), np.clip(v, 0, GRID - 1)
    over = np.hypot(u - uc, v - vc)
    i0 = int(np.clip(np.floor(uc), 0, GRID - 2))
    j0 = int(np.clip(np.floor(vc), 0, GRID - 2))
    fu, fv = uc - i0, vc - j0
    g = grid.sdf
    interp = ((1 - fu) * (1 - fv) * g[i0, j0] + (1 - fu) * fv * g[i0, j0 + 1]
              + fu * (1 - fv) * g[i0 + 1, j0] + fu * fv * g[i0 + 1, j0 + 1])
    return float(interp - over)


def clearance_cells(radius_m, cell_size):
    """Metric clearance radius in cell units (conservative: smaller cell)."""
    return radius_m / min(cell_size)


def is_valid_placement(point, plane, objects, clearance_radius, grid=None):
    """True iff the point sits on the plane with the required clearance.

    The point must lie inside the extent shrunk by the radius and the
    interpolated SDF must be at least the radius in cell units.
    """
    if clearance_radius < 0:
        raise SceneError("clearance_radius must be >= 0")
    p = np.asarray(point, dtype=float)
    w, d = plane.extent
    if abs(p[0]) > w / 2 - clearance_radius or abs(p[1]) > d / 2 - clearance_radius:
        return False
    if grid is None:
        grid = plane_feature_stack(plane, objects)
    return sdf_bilinear(grid, p) >= clearance_cells(clearance_radius, grid.cell_size)


# ---------------------------------------------------------------------------
# serialization


def scene_to_json(planes, objects):
    doc = {
        "planes": [
            {
                "surface_type": pl.surface_type,
                "frame_origin": list(pl.frame_origin),
                "extent": list(pl.extent),
                "height": pl.height,
                "grid_resolution": list(pl.grid_resolution),
            }
            for pl in planes
        ],
        "objects": [
            {
                "id": o.id,
                "object_type": o.object_type,
                "pose": {"position": list(o.position), "yaw": o.yaw},
                "footprint": list(o.half_extents),
            }
            for o in objects
        ],
    }
    return json.dumps(doc, sort_keys=True)


def scene_from_json(text):
    doc = json.loads(text)
    planes = [
        SupportPlane(surface_type=p["surface_type"],
                     frame_origin=tuple(p["frame_origin"]),
                     extent=tuple(p["extent"]), height=p["height"],
                     grid_resolution=tuple(p["grid_resolution"]))
        for p in doc["planes"]
    ]
    objects = [
        SceneObject(id=o["id"], object_type=o["object_type"],
                    position=tuple(o["pose"]["position"]),
                    yaw=o["pose"]["yaw"],
                    half_extents=tuple(o["footprint"]))
        for o in doc["objects"]
    ]
    return planes, objects


def export_grid_csv(grid, path_prefix):
    """One CSV per channel, 24 rows by 24 comma-separated values."""
    paths = []
    for name, channel in (("occupancy", grid.occupancy), ("pos_x", grid.pos_x),
                          ("pos_y", grid.pos_y), ("sdf", grid.sdf)):
        path = f"{path_prefix}_{name}.csv"
        np.savetxt(path, channel, delimiter=",", fmt="%.9g")
        paths.append(path)
    return paths
