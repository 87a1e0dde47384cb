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

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad

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
        if not all(map(math.isfinite, (*self.position, self.yaw))):
            raise SceneError(f"object {self.id!r}: non-finite pose")
        if not all(map(math.isfinite, self.half_extents)) or min(self.half_extents) <= 0:
            raise SceneError(f"object {self.id!r}: half extents must be finite and > 0")

    @property
    def radius(self):
        """Clearance radius: the larger footprint half extent."""
        return float(max(self.half_extents))


class CellGeometry(NamedTuple):
    """A plane's cell centers in its frame: per axis (``xs``, ``ys``, each
    (24,)), as "ij" meshgrids (``x``, ``y``, each (24, 24)) and as the
    row-major list of (x, y) pairs (``cells``, (576, 2))."""
    xs: np.ndarray
    ys: np.ndarray
    x: np.ndarray
    y: np.ndarray
    cells: np.ndarray


@functools.lru_cache(maxsize=64)
def cell_geometry(extent):
    """The read-only, cached ``CellGeometry`` of a plane of ``extent``
    (width, depth) meters; a non-positive extent raises SceneError."""
    w, d = map(float, extent)
    if min(w, d) <= 0:
        raise SceneError("plane extent must be > 0")
    xs = -w / 2 + w / GRID * (np.arange(GRID) + 0.5)
    ys = -d / 2 + d / GRID * (np.arange(GRID) + 0.5)
    x, y = np.meshgrid(xs, ys, indexing="ij")
    geometry = CellGeometry(xs, ys, x, y, np.stack([x, y], axis=-1).reshape(-1, 2))
    for a in geometry:
        a.flags.writeable = False
    return geometry


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

    def to_plane_frame(self, xy_world):
        return np.asarray(xy_world, dtype=float) - np.asarray(self.frame_origin)

    def to_world(self, xy_plane):
        return np.asarray(xy_plane, dtype=float) + np.asarray(self.frame_origin)


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
    geometry = cell_geometry(tuple(plane.extent))
    cx, cy = geometry.x, geometry.y
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


@functools.lru_cache(maxsize=16)
def _sdf_tables(rows, cols):
    """Constants of the SDF's sweeps on a ``rows x cols`` grid inside a
    one-cell ring: ``far``, the gap that stands for "no target in this
    row" (its square exceeds every in-grid squared distance), the ringed
    column index, and the squared offset between each ringed row and each
    inner row.  The smallest integer type that holds every sum is used."""
    far = 2 * (rows + cols + 2)
    dtype = np.int16 if far * far + (rows + 1) ** 2 <= np.iinfo(np.int16).max \
        else np.int32
    col = np.arange(cols + 2, dtype=dtype)
    row = np.arange(rows + 2, dtype=dtype)
    row_offset_sq = ((row[:, None] - row[None, 1:-1]) ** 2)[..., None]
    col.flags.writeable = row_offset_sq.flags.writeable = False
    return far, col, row_offset_sq


def signed_distance_field(occupancy):
    """Exact Euclidean SDF in cell units.

    Free cells: +distance to the nearest occupied cell or to the
    nearest cell beyond the grid border (border counts as invalid).
    Occupied cells: -distance to the nearest free in-bounds cell.

    Both distance fields run as one batch on the grid inside a one-cell
    ring: field 0 targets occupied and ring cells, field 1 free cells.
    Separable exact transform (Felzenszwalb & Huttenlocher, 2012): a
    sweep along each row gives every cell's gap to the nearest target
    column, then a min-plus over rows adds the squared row offsets.  The
    integer squared distances are exact, so their square roots carry the
    bits of ``scipy.ndimage.distance_transform_edt``.
    """
    free = np.asarray(occupancy) == 0
    rows, cols = free.shape
    far, col, row_offset_sq = _sdf_tables(rows, cols)
    target = np.zeros((2, rows + 2, cols + 2), dtype=bool)
    target[0] = True
    target[0, 1:-1, 1:-1] = ~free
    target[1, 1:-1, 1:-1] = free
    left = np.maximum.accumulate(np.where(target, col, -far), axis=-1)
    right = np.minimum.accumulate(
        np.where(target, col, far)[..., ::-1], axis=-1)[..., ::-1]
    gap = np.minimum(col - left, right - col)[..., 1:-1]
    dist = np.sqrt((row_offset_sq + (gap * gap)[:, :, None]).min(axis=1),
                   dtype=float)
    if not free.any():
        dist[1] = GRID + GRID
    return np.where(free, dist[0], -dist[1])


def plane_feature_stack(plane, objects):
    """Assemble the 4-channel plane feature grid (occ, pos_x, pos_y, sdf)."""
    return feature_grid(plane, rasterize_occupancy(plane, objects))


def feature_grid(plane, occupancy):
    """The plane feature grid of a 24x24 occupancy grid, which it keeps;
    the position channels are the plane's read-only cell meshgrids."""
    geometry = cell_geometry(tuple(plane.extent))
    return PlaneFeatureGrid(occupancy=occupancy, pos_x=geometry.x,
                            pos_y=geometry.y,
                            sdf=signed_distance_field(occupancy),
                            cell_size=plane.cell_size)


def _sdf_lookup(sdf, cell_size, points):
    """Bilinear lookup, in cell units, in SDF grids (N, 24, 24) with cells
    of ``cell_size`` (N, 2) at plane-frame points (N, M, 2).

    Outside the cell-center range the value is the clamped border
    interpolation minus the Euclidean overshoot in cells, so the field
    keeps decreasing smoothly past the rim.  The lookup is the tape's
    ``bilinear2d`` on constant coordinates.
    """
    cs = cell_size[:, None]
    return ad.bilinear2d(sdf, (points + cs * GRID / 2) / cs - 0.5).values


def is_valid_placement(points, plane, clearance_radius, grid):
    """Which plane-frame points (..., 2) sit on ``plane``, whose feature
    grid is ``grid``, with the required clearance, as a boolean array:
    ``valid_placement_rows`` on one plane."""
    p = np.asarray(points, dtype=float)
    flags = valid_placement_rows(p.reshape(1, -1, 2), np.array([plane.extent]) / 2,
                                 [clearance_radius], grid.sdf[None],
                                 np.array([grid.cell_size]))
    return flags.reshape(p.shape[:-1])


def valid_placement_rows(points, half_extent, clearance_radius, sdf, cell_size):
    """Which points sit on their plane with the required clearance.

    Row i of ``points`` ((N, 2), or (N, M, 2) for M points a row) is
    tested on a plane of half extents ``half_extent[i]`` whose SDF grid
    is ``sdf[i]`` (N, 24, 24), with cells of ``cell_size[i]``, at
    clearance ``clearance_radius[i]``.  A point must lie inside the
    extent shrunk by the radius, and the interpolated SDF there must be
    at least the radius in cell units, converted conservatively with the
    smaller cell side.  When no point passes the extent test, no SDF is
    looked up.
    """
    r = np.asarray(clearance_radius, dtype=float)[:, None]
    if (r < 0).any():
        raise SceneError("clearance_radius must be >= 0")
    p = np.asarray(points, dtype=float)
    rows = p.reshape(len(p), -1, 2)
    ok = (np.abs(rows) <= (half_extent - r)[:, None]).all(axis=-1)
    if ok.any():
        # rejected points, non-finite ones among them, are looked up at the center
        values = _sdf_lookup(sdf, cell_size, np.where(ok[..., None], rows, 0.0))
        ok &= values >= r / cell_size.min(axis=1, keepdims=True)
    return ok.reshape(p.shape[:-1])


# ---------------------------------------------------------------------------
# serialization


def scene_to_dict(planes, objects):
    """The scene as a JSON-ready dict of lists, strings and numbers;
    ``scene_from_dict`` reads it back."""
    return {
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


def scene_from_dict(doc):
    """(planes, objects) of a ``scene_to_dict`` dict; a missing field
    raises KeyError, a value of the wrong kind TypeError."""
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
