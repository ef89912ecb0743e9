"""Vectorized Point-to-Point test over struct-of-arrays float64 data.

The scalar :func:`repro.geometry.intersect.point_distance_below` models
the Algorithm-2 datapath one point at a time; the functions here
evaluate the *same* datapath over a whole point cloud with numpy.  The
RTNN golden oracle uses them for its brute-force sweep.  Inputs are
struct-of-arrays: coordinates as ``(..., 3)`` float64 arrays, scalars
broadcast.

Every kernel is **bit-identical** to its scalar reference: arithmetic
uses the exact operation order of the scalar code, and numpy float64
ops are IEEE-754 like Python floats, so same order means same bits.
"""

import numpy as np

__all__ = [
    "point_distance_below_batch",
    "point_distance_squared_batch",
    "points_soa",
]


def points_soa(points) -> np.ndarray:
    """Pack a sequence of :class:`~repro.geometry.vec.Vec3` into (N, 3)."""
    return np.array([(p.x, p.y, p.z) for p in points], dtype=np.float64)


# -- Point-to-Point (Algorithm 2) ----------------------------------------------
def point_distance_squared_batch(a, b):
    """Batched squared distance with the scalar dot-fold order."""
    d = np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64)
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    return dx * dx + dy * dy + dz * dz


def point_distance_below_batch(a, b, threshold):
    """Batched Algorithm 2: ``|b - a| < threshold`` without sqrt."""
    dis2 = point_distance_squared_batch(a, b)
    threshold = np.asarray(threshold, dtype=np.float64)
    return dis2 < threshold * threshold
