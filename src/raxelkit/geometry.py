"""Rigid camera geometry: poses, pinhole intrinsics, frames, and trajectories.

Poses are camera-to-world throughout; world-to-camera is derived via
``inverse`` and never stored. Rotations are kept as 3x3 matrices. All types
are immutable after construction and every operation is a pure function.

It also holds the package's one rule for every value type that holds
arrays: ``_freeze`` marks a fresh array read-only and records the memory
it froze; ``_read_only`` keeps an array uncopied only when it is a
read-only view down to memory ``_freeze`` froze, and otherwise stores a
frozen copy, since a caller that owns read-only memory can make it
writeable again; ``_PickledAsConstructorCall`` unpickles and deep-copies
through the constructor, which applies the rule again. Both store a view
over the frozen memory, never the array that owns it, so setting a stored
array's ``writeable`` flag raises rather than reopening it to writes.

It holds the package's one rule for BLAS calls too: every product runs
on the calling thread, so OpenBLAS never wakes its thread pool. A call too
large for that is cut into row blocks, and every blocked loop takes them
from ``_one_thread_blocks``, which sizes them from the calls' shapes
against the measured limits ``_GEMM_ONE_THREAD``, ``_GEMM_T_ONE_THREAD``
and ``_DOT_ONE_THREAD``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

# Stored rotations must satisfy R^T R = I to this drift; anything worse, up to
# MAX_POSE_DRIFT (what file deserialization may carry), is polar-projected.
ORTHONORMALITY_DRIFT = 1e-9
MAX_POSE_DRIFT = 1e-6


# the arrays _freeze froze, by id. A weak reference's callback drops the
# entry when its array dies, so an id found here names a live frozen array
_FROZEN: dict[int, weakref.ref] = {}


def _freeze(fresh: np.ndarray) -> np.ndarray:
    """Mark an array that nothing else holds, and the fresh arrays it
    views, read-only; returns a view over that frozen memory, whose flag
    numpy then refuses to set back to writeable."""
    arr = fresh
    arr.flags.writeable = False
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
        arr.flags.writeable = False
    _FROZEN[id(arr)] = weakref.ref(arr, partial(_FROZEN.pop, id(arr)))
    return _pinned(fresh)


def _pinned(arr: np.ndarray) -> np.ndarray:
    """``arr`` when it is a view, else a view of it: an array that owns
    its memory can always be made writeable again, a view over frozen
    memory cannot."""
    return arr if arr.base is not None else arr.view()


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` (as a view) when it is a read-only view down to memory that
    ``_freeze`` froze, otherwise a frozen copy."""
    base = arr
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        if id(base) in _FROZEN:
            return _pinned(arr)
        base = base.base
    return _freeze(arr.copy())


class _PickledAsConstructorCall:
    """Unpickles and deep-copies a dataclass through its constructor: numpy
    arrays come back writeable, so they must be frozen again, and a
    sequence's kept attention state holds a weak reference, which cannot
    be pickled and is not carried over."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


# The largest BLAS calls OpenBLAS runs on the calling thread. Above them it
# wakes its thread pool, which then spins on the other cores for about 0.1 s
# after the call and takes them from any other thread. Measured with 2 threads
# (OpenBLAS 0.3.31, SkylakeX core), one fresh process per shape:
# - a gemm with a C-contiguous right operand stays up to 1.0M multiply-adds
#   (100x100x100 and 27x96x384 stay; 101x100x100 and 28x96x384 thread);
# - a gemm with a transposed right operand, such as ``k[h].T``, only up to
#   about 0.52M (56x24x384 and 3x3x57000 stay; 57x24x384, 64x32x256 and
#   3x3x60000 thread), so ``attention`` copies its keys to give the score
#   product a C-contiguous one;
# - a dot or a vector norm up to 10000 elements (10001 threads).
_GEMM_ONE_THREAD = 1_000_000
_GEMM_T_ONE_THREAD = 500_000
_DOT_ONE_THREAD = 10_000


def _one_thread_blocks(n: int, *products: tuple[int, int]) -> list[slice]:
    """Row blocks covering ``range(n)`` for BLAS calls that each stay on the
    calling thread.

    ``products`` holds one ``(cost per row, limit)`` pair, the cost a
    positive integer, per call made on every block, such as ``(inner * cols,
    _GEMM_ONE_THREAD)`` for a gemm: a block has at most ``limit // cost``
    rows for each pair. It takes as few blocks as that allows, of equal size
    but a smaller last one; a row whose cost alone passes a limit is a block
    of its own. Per-block partial sums keep a reduction's rounding
    independent of the pool's size.
    """
    most = max(1, min(limit // cost for cost, limit in products))
    count = max(1, -(-n // most))
    rows = max(1, -(-n // count))
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def nearest_rotation(matrix: np.ndarray) -> np.ndarray:
    """Polar projection onto SO(3): the closest proper rotation in Frobenius norm."""
    u, _, vt = np.linalg.svd(np.asarray(matrix, dtype=float))
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def axis_angle_rotation(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a right-handed turn of ``angle`` radians about ``axis``."""
    a = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(a)
    if norm < 1e-12:
        raise ValueError("rotation axis must be nonzero")
    a = a / norm
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotation_angle(rotation: np.ndarray) -> float | np.ndarray:
    """Geodesic angle of a rotation matrix, in [0, pi]: a float for one 3x3
    matrix, an array of angles for a ``(..., 3, 3)`` stack.

    Evaluates arccos((trace - 1)/2) in the atan2 form, taking sin from the
    skew-symmetric part: identical for well-separated rotations but accurate
    to machine precision near 0 and pi, where the bare arccos saturates at
    ~sqrt(eps), and immune to traces marginally outside [-1, 3].
    """
    r = np.asarray(rotation)
    sin_angle = 0.5 * np.sqrt(
        (r[..., 2, 1] - r[..., 1, 2]) ** 2
        + (r[..., 0, 2] - r[..., 2, 0]) ** 2
        + (r[..., 1, 0] - r[..., 0, 1]) ** 2
    )
    cos_angle = (np.trace(r, axis1=-2, axis2=-1) - 1.0) / 2.0
    angle = np.arctan2(sin_angle, cos_angle)
    return float(angle) if r.ndim == 2 else angle


@dataclass(frozen=True, eq=False, repr=False)
class Pose(_PickledAsConstructorCall):
    """SE(3) rigid transform: x_world = rotation @ x_camera + translation.

    The rotation is validated at construction: orthonormality drift up to
    ``MAX_POSE_DRIFT`` is repaired by polar projection; improper or badly
    non-orthonormal matrices are rejected. Instances are immutable.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if t.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got {t.shape}")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ValueError("pose entries must be finite")
        drift = np.abs(r.T @ r - np.eye(3)).max()
        if drift > MAX_POSE_DRIFT:
            raise ValueError(
                f"rotation drift {drift:.3e} exceeds tolerance {MAX_POSE_DRIFT:.3e}"
            )
        if np.linalg.det(r) <= 0.0:
            raise ValueError("rotation must be proper (det = +1), got a reflection")
        if drift > ORTHONORMALITY_DRIFT:
            r = nearest_rotation(r)
        object.__setattr__(self, "rotation", _read_only(r))
        object.__setattr__(self, "translation", _read_only(t))

    def __repr__(self) -> str:
        return f"Pose(rotation={self.rotation.tolist()}, translation={self.translation.tolist()})"

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))


def compose(a: Pose, b: Pose) -> Pose:
    """Rigid transform equal to applying ``b`` first, then ``a``."""
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def inverse(p: Pose) -> Pose:
    """Transform q with compose(p, q) = identity."""
    rt = p.rotation.T
    return Pose(rt, -(rt @ p.translation))


def geodesic_rotation_distance(a: Pose, b: Pose) -> float:
    """Angle in radians of the rotation taking ``a``'s orientation to ``b``'s."""
    return rotation_angle(a.rotation.T @ b.rotation)


def random_pose(rng_seed: int, rotation_scale: float, translation_scale: float) -> Pose:
    """Seeded random pose: uniform rotation axis, angle uniform in [0, rotation_scale],
    translation components uniform in [-translation_scale, translation_scale]."""
    if rotation_scale < 0.0 or translation_scale < 0.0:
        raise ValueError("scales must be non-negative")
    rng = np.random.default_rng(rng_seed)
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-12:
        axis = rng.normal(size=3)
    angle = rng.uniform(0.0, rotation_scale)
    translation = rng.uniform(-translation_scale, translation_scale, size=3)
    return Pose(axis_angle_rotation(axis, angle), translation)


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole parameters in pixels, plus the image dimensions they refer to.

    The continuous pixel coordinate system spans [0, width] x [0, height];
    pixel (column, row) covers the unit square with center (column + 0.5,
    row + 0.5).
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0.0 < self.fx < np.inf and 0.0 < self.fy < np.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (isinstance(self.width, int) and isinstance(self.height, int)):
            raise ValueError("image dimensions must be integers")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if not (0.0 < self.cx < self.width and 0.0 < self.cy < self.height):
            raise ValueError("principal point must lie strictly inside the image")

    def matrix(self) -> np.ndarray:
        """Upper-triangular pinhole matrix [[fx,0,cx],[0,fy,cy],[0,0,1]]."""
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


@dataclass(frozen=True, eq=False)
class CameraFrame:
    """One camera sample: intrinsics, camera-to-world pose, and sequence index."""

    intrinsics: Intrinsics
    pose: Pose
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("frame index must be non-negative")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered camera frames with a designated reference frame."""

    frames: tuple[CameraFrame, ...]
    reference_index: int

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if len(self.frames) < 1:
            raise ValueError("trajectory needs at least one frame")
        if not 0 <= self.reference_index < len(self.frames):
            raise IndexError(
                f"reference_index {self.reference_index} out of range for "
                f"{len(self.frames)} frames"
            )
        indices = [f.index for f in self.frames]
        if len(set(indices)) != len(indices):
            raise ValueError("frame indices must be unique within a trajectory")

    def __len__(self) -> int:
        return len(self.frames)


def canonicalize(t: Trajectory, reference: int) -> Trajectory:
    """Re-express every pose relative to ``frames[reference]``.

    The reference frame's pose becomes the exact identity; all pairwise
    relative transforms are unchanged.
    """
    if not 0 <= reference < len(t.frames):
        raise IndexError(f"reference {reference} out of range for {len(t.frames)} frames")
    ref_inv = inverse(t.frames[reference].pose)
    frames = tuple(
        replace(f, pose=Pose.identity() if k == reference else compose(ref_inv, f.pose))
        for k, f in enumerate(t.frames)
    )
    return Trajectory(frames, reference)
