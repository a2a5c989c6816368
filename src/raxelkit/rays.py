"""Dense camera-ray encodings over a half-resolution pixel grid.

Three encodings of one camera frame, all sharing the same unprojected ray
field. Each is a ``RayGrid`` whose ``GridKind`` names the layout and fixes
the channel count:

* raxel image  -- 3 channels per pixel: world ray direction plus camera
  origin, ``R @ d_cam + T``. Lossless for poses and (up to the principal
  point) focal lengths; see ``decode``.
* Plucker map  -- 6 channels: ``[R @ d_cam, (R @ d_cam) x T]``. A line
  representation, invariant to sliding the origin along the ray.
* raymap       -- 6 channels: ``[T, R @ d_cam]`` with the origin repeated
  at every pixel.

The ray grid lives at half the frame resolution: raxel pixel (i, j)
corresponds to the full-resolution continuous coordinate (u, v) =
(2j + 1, 2i + 1), the center of each 2x2 block of full-resolution pixels.
Odd dimensions are floored; the final row/column goes unrepresented.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import CameraFrame, Intrinsics, Pose, Trajectory, canonicalize


class GridKind(enum.Enum):
    """Which encoding a ray grid holds; owns the channel count."""

    RAXEL = "raxel"
    PLUCKER = "plucker"
    RAYMAP = "raymap"

    @property
    def channels(self) -> int:
        return 3 if self is GridKind.RAXEL else 6


@dataclass(frozen=True, eq=False)
class RayGrid:
    """Immutable half-resolution grid of ray vectors; ``kind`` fixes the
    layout and the channel count."""

    data: np.ndarray
    kind: GridKind = GridKind.RAXEL

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        c = self.kind.channels
        if d.ndim != 3 or d.shape[2] != c or d.shape[0] < 1 or d.shape[1] < 1:
            raise ValueError(
                f"{self.kind.value} data must have shape (H_r, W_r, {c}), got {d.shape}"
            )
        if d.flags.writeable:
            d = d.copy()
            d.flags.writeable = False
        object.__setattr__(self, "data", d)

    @property
    def height_r(self) -> int:
        return self.data.shape[0]

    @property
    def width_r(self) -> int:
        return self.data.shape[1]


# earlier names of the merged grid type and its kind, kept importable
RaxelImage = RayGrid
RayMap6 = RayGrid
RayMapKind = GridKind


def _frozen_grid(data: np.ndarray, kind: GridKind = GridKind.RAXEL) -> RayGrid:
    """Wrap a freshly computed array, sparing RayGrid's defensive copy."""
    data.flags.writeable = False
    return RayGrid(data, kind)


def grid_pixel_coordinates(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-resolution continuous (u, v) coordinates of the half-resolution grid.

    Returns 1-D arrays: u over columns (length floor(width/2)) and v over rows
    (length floor(height/2)).
    """
    u = 2.0 * np.arange(width // 2) + 1.0
    v = 2.0 * np.arange(height // 2) + 1.0
    return u, v


def unit_ray_grid(intrinsics: Intrinsics) -> np.ndarray:
    """Unit camera-space ray directions K^-1 u / ||K^-1 u|| on the raxel grid.

    Returns a fresh, writable array of shape (floor(H/2), floor(W/2), 3).
    The norm is separable, ``sqrt(x[None, :]**2 + y[:, None]**2 + 1)``, so
    it is formed on the 2-D grid once, not per 3-vector. ``ray_grid`` is
    the cached, read-only form; use this one for one-shot intrinsics such
    as decoded focal lengths, which would only fill the cache.
    """
    u, v = grid_pixel_coordinates(intrinsics.width, intrinsics.height)
    x = (u - intrinsics.cx) / intrinsics.fx
    y = (v - intrinsics.cy) / intrinsics.fy
    norm = np.sqrt((x * x)[None, :] + (y * y)[:, None] + 1.0)
    dirs = np.empty((v.size, u.size, 3))
    np.divide(x[None, :], norm, out=dirs[:, :, 0])
    np.divide(y[:, None], norm, out=dirs[:, :, 1])
    np.divide(1.0, norm, out=dirs[:, :, 2])
    return dirs


@lru_cache(maxsize=64)
def ray_grid(intrinsics: Intrinsics) -> np.ndarray:
    """``unit_ray_grid``, cached per intrinsics and read-only."""
    dirs = unit_ray_grid(intrinsics)
    dirs.flags.writeable = False
    return dirs


def _world_directions(dirs: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """``R @ d`` at every pixel of an (H, W, 3) ray grid, as one 2-D gemm."""
    return (dirs.reshape(-1, 3) @ rotation.T).reshape(dirs.shape)


def _raxel_data(dirs: np.ndarray, pose: Pose) -> np.ndarray:
    """``R @ d + T`` at every pixel of an (H, W, 3) ray grid, freshly
    allocated. T is tiled across whole grid rows, so the add runs over
    rows of 3W numbers instead of one 3-vector at a time."""
    data = _world_directions(dirs, pose.rotation)
    rows = data.reshape(data.shape[0], -1)
    rows += np.tile(pose.translation, data.shape[1])
    return data


def encode_raxel(frame: CameraFrame, pose_rel: Pose) -> RayGrid:
    """Raxel image of ``frame`` at relative pose ``pose_rel``: per pixel,
    world direction R_rel @ d_cam plus origin T_rel."""
    return _frozen_grid(_raxel_data(ray_grid(frame.intrinsics), pose_rel))


def encode_plucker(frame: CameraFrame, pose_rel: Pose) -> RayGrid:
    """Plucker line map: channels [direction, direction x origin]."""
    d = _world_directions(ray_grid(frame.intrinsics), pose_rel.rotation)
    moment = np.cross(d, np.broadcast_to(pose_rel.translation, d.shape))
    return _frozen_grid(np.concatenate([d, moment], axis=2), GridKind.PLUCKER)


def encode_raymap(frame: CameraFrame, pose_rel: Pose) -> RayGrid:
    """Raymap: channels [origin, direction] with the origin constant per frame."""
    d = _world_directions(ray_grid(frame.intrinsics), pose_rel.rotation)
    origin = np.broadcast_to(pose_rel.translation, d.shape)
    return _frozen_grid(np.concatenate([origin, d], axis=2), GridKind.RAYMAP)


def encode_trajectory_raxels(trajectory: Trajectory) -> list[RayGrid]:
    """Canonicalize to the trajectory's reference index and encode every frame."""
    canonical = canonicalize(trajectory, trajectory.reference_index)
    return [encode_raxel(f, f.pose) for f in canonical.frames]
