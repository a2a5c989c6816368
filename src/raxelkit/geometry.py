"""Rigid camera geometry: poses, pinhole intrinsics, frames, and trajectories.

Poses are camera-to-world throughout; world-to-camera is derived via
``inverse`` and never stored. Rotations are kept as 3x3 matrices. All types
are immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# Stored rotations must satisfy R^T R = I to this drift; anything worse, up to
# MAX_POSE_DRIFT (what file deserialization may carry), is polar-projected.
ORTHONORMALITY_DRIFT = 1e-9
MAX_POSE_DRIFT = 1e-6


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


class Pose:
    """SE(3) rigid transform: x_world = rotation @ x_camera + translation.

    The rotation is validated at construction: orthonormality drift up to
    ``MAX_POSE_DRIFT`` is repaired by polar projection; improper or badly
    non-orthonormal matrices are rejected. Instances are immutable.
    """

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation, translation):
        r = np.array(rotation, dtype=float)
        t = np.array(translation, dtype=float)
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
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def __setattr__(self, name, value):
        raise AttributeError("Pose is immutable")

    def __repr__(self) -> str:
        return f"Pose(rotation={self.rotation.tolist()}, translation={self.translation.tolist()})"

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def as_matrix(self) -> np.ndarray:
        """Homogeneous 4x4 form of the transform."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


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
    if rotation_scale == 0.0:
        return Pose(np.eye(3), translation)
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
