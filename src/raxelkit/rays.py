"""Dense camera-ray encodings over a half-resolution pixel grid.

Three encodings of one camera frame, each one affine map of the camera
rays ``d_cam`` of ``ray_grid`` (which caches one grid). Each is a
``RayGrid`` whose ``GridKind`` names the layout and fixes the channel count:

* raxel image  -- 3 channels per pixel: world ray direction plus camera
  origin, ``R @ d_cam + T``. Lossless for poses and (up to the principal
  point) focal lengths; see ``decode``.
* Plucker map  -- 6 channels: ``[R @ d_cam, (R @ d_cam) x T]``. A line
  representation, invariant to sliding the origin along the ray.
* raymap       -- 6 channels: ``[T, R @ d_cam]`` with the origin repeated
  at every pixel.

``RayGrid`` stores its data by ``geometry``'s array rule; the encoders,
``evaluation.perturb`` and ``io.load_raxel`` hand it frozen arrays, which
it keeps uncopied.

``encode_trajectory_raxels`` returns a trajectory's raxel images as a
``TrajectoryRaxels`` sequence, which encodes frame k each time element k
is read, so a reader that takes one frame at a time holds one grid.

The ray grid lives at half the frame resolution: raxel pixel (i, j)
corresponds to the full-resolution continuous coordinate (u, v) =
(2j + 1, 2i + 1), the center of each 2x2 block of full-resolution pixels.
Odd dimensions are floored; the final row/column goes unrepresented.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (
    CameraFrame,
    Intrinsics,
    Pose,
    Trajectory,
    _freeze,
    _PickledAsConstructorCall,
    _read_only,
    canonicalize,
)


class GridKind(enum.Enum):
    """Which encoding a ray grid holds; owns the channel count."""

    RAXEL = "raxel"
    PLUCKER = "plucker"
    RAYMAP = "raymap"

    @property
    def channels(self) -> int:
        return 3 if self is GridKind.RAXEL else 6


@dataclass(frozen=True, eq=False)
class RayGrid(_PickledAsConstructorCall):
    """Immutable half-resolution grid of ray vectors; ``kind`` fixes the
    layout and the channel count. The data is stored read-only; memory the
    library did not freeze is copied."""

    data: np.ndarray
    kind: GridKind = GridKind.RAXEL

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        c = self.kind.channels
        if d.ndim != 3 or d.shape[2] != c or d.shape[0] < 1 or d.shape[1] < 1:
            raise ValueError(
                f"{self.kind.value} data must have shape (H_r, W_r, {c}), got {d.shape}"
            )
        object.__setattr__(self, "data", _read_only(d))

    @property
    def height_r(self) -> int:
        return self.data.shape[0]

    @property
    def width_r(self) -> int:
        return self.data.shape[1]


def grid_pixel_coordinates(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-resolution continuous (u, v) coordinates of the half-resolution grid.

    Returns 1-D arrays: u over columns (length floor(width/2)) and v over rows
    (length floor(height/2)).
    """
    u = 2.0 * np.arange(width // 2) + 1.0
    v = 2.0 * np.arange(height // 2) + 1.0
    return u, v


def _ray_factors(intrinsics: Intrinsics) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The separable factors of the raxel grid's camera rays: ray (i, j) is
    ``(x[j], y[i], 1) / norm[i, j]``. Returns ``x`` over columns, ``y`` over
    rows and ``norm = sqrt(x[None, :]**2 + y[:, None]**2 + 1)``, a fresh
    writeable (H_r, W_r) array."""
    u, v = grid_pixel_coordinates(intrinsics.width, intrinsics.height)
    x = (u - intrinsics.cx) / intrinsics.fx
    y = (v - intrinsics.cy) / intrinsics.fy
    norm = (x * x)[None, :] + (y * y)[:, None]
    norm += 1.0
    return x, y, np.sqrt(norm, out=norm)


@lru_cache(maxsize=1)
def ray_grid(intrinsics: Intrinsics) -> np.ndarray:
    """Unit camera-space ray directions K^-1 u / ||K^-1 u|| on the raxel grid.

    Returns a read-only array of shape (floor(H/2), floor(W/2), 3). The
    norm is separable (``_ray_factors``), so it is formed on the 2-D grid
    once, not per 3-vector. The cache holds one grid: a trajectory's frames
    share it; one-shot intrinsics cannot grow it.
    """
    x, y, norm = _ray_factors(intrinsics)
    dirs = np.empty((y.size, x.size, 3))
    np.divide(x[None, :], norm, out=dirs[:, :, 0])
    np.divide(y[:, None], norm, out=dirs[:, :, 1])
    np.divide(1.0, norm, out=dirs[:, :, 2])
    return _freeze(dirs)


def _encode(dirs: np.ndarray, pose: Pose, kind: GridKind) -> np.ndarray:
    """``kind``'s channels over an (H, W, 3) ray grid, freshly allocated, as
    ``d @ A + b`` for each row-vector ray d: raxel ``A = R^T, b = T``;
    Plucker ``A = [R^T | R^T [T]x], b = 0`` with ``d @ [T]x = d x T``;
    raymap ``A = [0 | R^T], b = [T, 0]``. One gemm, then b is tiled across
    whole grid rows, so the add runs over rows of C*W numbers."""
    r_t, t = pose.rotation.T, pose.translation
    h, w, _ = dirs.shape
    a = np.zeros((3, kind.channels))
    if kind is GridKind.PLUCKER:
        a[:, :3] = r_t
        a[:, 3:] = r_t @ np.array([[0.0, -t[2], t[1]], [t[2], 0.0, -t[0]], [-t[1], t[0], 0.0]])
        return (dirs.reshape(-1, 3) @ a).reshape(h, w, 6)
    a[:, -3:] = r_t
    b = np.zeros(kind.channels)
    b[:3] = t
    data = (dirs.reshape(-1, 3) @ a).reshape(h, w, kind.channels)
    rows = data.reshape(h, -1)
    rows += np.tile(b, w)
    return data


def encode_raxel(frame: CameraFrame, pose_rel: Pose) -> RayGrid:
    """Raxel image of ``frame`` at relative pose ``pose_rel``: per pixel,
    world direction R_rel @ d_cam plus origin T_rel."""
    return RayGrid(_freeze(_encode(ray_grid(frame.intrinsics), pose_rel, GridKind.RAXEL)))


def encode_plucker(frame: CameraFrame, pose_rel: Pose) -> RayGrid:
    """Plucker line map: channels [direction, direction x origin]."""
    kind = GridKind.PLUCKER
    return RayGrid(_freeze(_encode(ray_grid(frame.intrinsics), pose_rel, kind)), kind)


def encode_raymap(frame: CameraFrame, pose_rel: Pose) -> RayGrid:
    """Raymap: channels [origin, direction] with the origin constant per frame."""
    kind = GridKind.RAYMAP
    return RayGrid(_freeze(_encode(ray_grid(frame.intrinsics), pose_rel, kind)), kind)


class TrajectoryRaxels(Sequence):
    """The raxel images of canonical frames as a read-only sized sequence:
    element k is frame k encoded at its own pose when it is read, so no
    grid outlives its reader's use of it. Each read encodes again, and
    ``list(...)`` holds every grid."""

    def __init__(self, frames: Sequence[CameraFrame]):
        self._frames = tuple(frames)

    def __len__(self) -> int:
        return len(self._frames)

    def __getitem__(self, k: int) -> RayGrid:
        frame = self._frames[operator.index(k)]
        return encode_raxel(frame, frame.pose)


def encode_trajectory_raxels(trajectory: Trajectory) -> TrajectoryRaxels:
    """Canonicalize to the trajectory's reference index, now, and return
    the frames' raxel images, each encoded when it is read."""
    canonical = canonicalize(trajectory, trajectory.reference_index)
    return TrajectoryRaxels(canonical.frames)
