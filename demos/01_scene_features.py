"""Support-plane feature grids: occupancy, coordinates, signed distance.

Builds a small table scene with a few objects, computes the 24x24
feature stack, and shows how placement validity follows the SDF.
"""

import os
import tempfile

import numpy as np

import intentmotion.scene as sc

table = sc.SupportPlane("table", (0.0, 0.0), (1.6, 0.8), 0.72)
objects = [
    sc.SceneObject("mug", "cup", (0.3, 0.1, 0.72), 0.0, (0.04, 0.04)),
    sc.SceneObject("platter", "plate", (-0.35, -0.05, 0.72), 0.4, (0.11, 0.11)),
]

grid = sc.plane_feature_stack(table, objects)
print(f"occupied cells: {int(grid.occupancy.sum())} of {sc.GRID * sc.GRID}")
print(f"SDF range: [{grid.sdf.min():.2f}, {grid.sdf.max():.2f}] cell units")

# the SDF is positive in free space and negative inside footprints
for label, point in [("free corner", (-0.7, 0.3)),
                     ("inside the plate", (-0.35, -0.05)),
                     ("next to the mug", (0.2, 0.1))]:
    print(f"sdf at {label}: {sc.sdf_bilinear(grid, point):+.2f}")

# validity requires clearance from both obstacles and the table rim
radius = 0.06
for point in [(0.0, -0.25), (0.3, 0.12), (0.79, 0.0)]:
    ok = sc.is_valid_placement(point, table, objects, radius)
    print(f"place a {radius:.2f} m object at {point}: "
          f"{'valid' if ok else 'invalid'}")

paths = sc.export_grid_csv(
    grid, os.path.join(tempfile.gettempdir(), "table_features"))
print("feature channels written to:")
for p in paths:
    print(" ", p)
