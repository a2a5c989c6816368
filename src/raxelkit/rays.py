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

``LazyGrids`` is the sequence of grids made on read, which
``encode_trajectory_raxels``, the CLI's decode and the cycle harness use:
a reader that takes one frame at a time holds one grid.

The ray grid lives at half the frame resolution: raxel pixel (i, j)
corresponds to the full-resolution continuous coordinate (u, v) =
(2j + 1, 2i + 1), the center of each 2x2 block of full-resolution pixels.
Odd dimensions are floored; the final row/column goes unrepresented.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteInputError
from .geometry import (
    CameraFrame,
    Intrinsics,
    Pose,
    Trajectory,
    _DOT_ONE_THREAD,
    _freeze,
    _one_thread_blocks,
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
    writeable (H_r, W_r) array. Focal lengths so small against the image
    that the norm overflows are a NonFiniteInputError."""
    u, v = grid_pixel_coordinates(intrinsics.width, intrinsics.height)
    with np.errstate(over="ignore"):  # refused below, not warned about
        x = (u - intrinsics.cx) / intrinsics.fx
        y = (v - intrinsics.cy) / intrinsics.fy
        norm = (x * x)[None, :] + (y * y)[:, None]
    if np.isinf(norm).any():
        raise NonFiniteInputError(
            f"focal lengths {intrinsics.fx:g}/{intrinsics.fy:g} are too small for a "
            f"{intrinsics.width}x{intrinsics.height} image: its ray directions overflow"
        )
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
    raymap ``A = [0 | R^T], b = [T, 0]``. One gemm per row block, then its
    add of b, which Plucker skips; the blocks are registration's."""
    r_t, t = pose.rotation.T, pose.translation
    h, w, _ = dirs.shape
    a = np.zeros((3, kind.channels))
    b = np.zeros(kind.channels)
    if kind is GridKind.PLUCKER:
        a[:, :3] = r_t
        a[:, 3:] = r_t @ np.array([[0.0, -t[2], t[1]], [t[2], 0.0, -t[0]], [-t[1], t[0], 0.0]])
    else:
        a[:, -3:] = r_t
        b[:3] = t
    rays = dirs.reshape(-1, 3)
    data = np.empty((rays.shape[0], kind.channels))
    blocks = _one_thread_blocks(rays.shape[0], (3, _DOT_ONE_THREAD))
    # b repeated over a block, so each add runs over one flat block; an
    # empty grid has no block, and RayGrid refuses its shape
    offsets = np.tile(b, blocks[0].stop if blocks else 0)
    for rows in blocks:
        block = np.matmul(rays[rows], a, out=data[rows]).reshape(-1)
        if kind is not GridKind.PLUCKER:
            block += offsets[: block.size]
    return data.reshape(h, w, kind.channels)


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


class LazyGrids(Sequence):
    """A read-only sized sequence of ``count`` grids whose element k is
    ``read(k)``, called on every read with k in ``range(count)`` (negative
    indices counted from the end), so no grid outlives its reader's use of
    it. Each read makes the grid again, and ``list(...)`` holds every grid."""

    def __init__(self, count: int, read: Callable[[int], RayGrid]):
        self._positions = range(count)
        self._read = read

    def __len__(self) -> int:
        return len(self._positions)

    def __getitem__(self, k: int) -> RayGrid:
        return self._read(self._positions[operator.index(k)])


def _frame_raxels(frames: Sequence[CameraFrame]) -> LazyGrids:
    """The raxel images of canonical ``frames``, each encoded when read."""
    return LazyGrids(len(frames), lambda k: encode_raxel(frames[k], frames[k].pose))


def encode_trajectory_raxels(trajectory: Trajectory) -> LazyGrids:
    """Canonicalize to the trajectory's reference index, now, and return
    the frames' raxel images, each encoded when it is read."""
    return _frame_raxels(canonicalize(trajectory, trajectory.reference_index).frames)
