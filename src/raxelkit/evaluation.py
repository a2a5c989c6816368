"""Pose-accuracy metrics, synthetic trajectories, perturbation models, and
the encode-perturb-decode-re-encode consistency harness.

The harness measures how well the closed-form decoders survive controlled
damage to the raxel images: additive Gaussian noise, uniform quantization
(a stand-in for storing raxels at reduced precision), and pixel dropout.
Clean inputs round-trip to within floating-point error; the perturbed
error curves are what the benchmark sweep records. The re-encode residual,
the distance between the decoded frames' raxel images and the clean ones,
is computed in closed form from the two poses and the separable ray grids,
without building either image.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .decode import decode_trajectory, decoded_trajectory, recover_pose
from .errors import (
    DegenerateGeometryError,
    LengthMismatchError,
    NonFiniteInputError,
    RaxelkitError,
    ReferenceMismatchError,
    TooFewFramesError,
)
from .geometry import (
    CameraFrame,
    Intrinsics,
    Pose,
    Trajectory,
    _freeze,
    _PickledAsConstructorCall,
    _read_only,
    axis_angle_rotation,
    canonicalize,
    rotation_angle,
)
from .rays import RayGrid, TrajectoryRaxels, _ray_factors

Y_AXIS = np.array([0.0, 1.0, 0.0])
X_AXIS = np.array([1.0, 0.0, 0.0])


@dataclass(frozen=True, eq=False)
class PoseErrorReport(_PickledAsConstructorCall):
    """Per-frame and mean pose errors of a predicted trajectory.

    Means are taken over the non-reference frames only (the reference is
    identity by construction on both sides). The per-frame arrays are
    stored read-only; memory the library did not freeze is copied.
    """

    rotation_error: np.ndarray
    translation_error: np.ndarray
    mean_rotation_error: float
    mean_translation_error: float

    def __post_init__(self):
        for name in ("rotation_error", "translation_error"):
            object.__setattr__(self, name, _read_only(np.asarray(getattr(self, name))))


class PerturbationKind(enum.Enum):
    GAUSSIAN_PER_PIXEL = "gaussian"
    UNIFORM_QUANTIZE = "quantize"
    PIXEL_DROPOUT = "dropout"


class TrajectoryKind(enum.Enum):
    ARC_LEFT = "arcleft"
    ARC_RIGHT = "arcright"
    ORBIT = "orbit"
    LINE = "line"
    STILL = "still"


@dataclass(frozen=True)
class PerturbationSpec:
    """What to do to a raxel image: noise sigma, bit depth, or dropout
    fraction, depending on kind. Deterministic per seed."""

    kind: PerturbationKind
    magnitude: float
    seed: int = 0

    def __post_init__(self):
        m = self.magnitude
        if not math.isfinite(m):
            raise ValueError(f"perturbation magnitude must be finite, got {m}")
        if self.kind is PerturbationKind.GAUSSIAN_PER_PIXEL:
            if m < 0:
                raise ValueError(f"noise sigma must be >= 0, got {m}")
        elif self.kind is PerturbationKind.UNIFORM_QUANTIZE:
            if m != int(m) or not 1 <= m <= 16:
                raise ValueError(f"bit depth must be an integer in [1, 16], got {m}")
        else:
            if not 0.0 <= m < 1.0:
                raise ValueError(f"dropout fraction must lie in [0, 1), got {m}")


def _stacked_poses(t: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """The frames' rotations, (F, 3, 3), and translations, (F, 3)."""
    poses = [f.pose for f in t.frames]
    return np.stack([p.rotation for p in poses]), np.stack([p.translation for p in poses])


def pose_errors(predicted: Trajectory, ground_truth: Trajectory) -> PoseErrorReport:
    """Per-frame geodesic rotation error and translation distance.

    Both trajectories must be canonicalized to the same reference index so
    the per-frame poses are directly comparable.
    """
    if len(predicted) != len(ground_truth):
        raise LengthMismatchError(
            f"trajectory lengths differ: {len(predicted)} vs {len(ground_truth)}"
        )
    if predicted.reference_index != ground_truth.reference_index:
        raise ReferenceMismatchError(
            f"reference indices differ: {predicted.reference_index} "
            f"vs {ground_truth.reference_index}"
        )
    n = len(predicted)
    rot_p, trans_p = _stacked_poses(predicted)
    rot_g, trans_g = _stacked_poses(ground_truth)
    rot = rotation_angle(np.swapaxes(rot_p, 1, 2) @ rot_g)
    diff = trans_p - trans_g
    # a vector-vector matmul is the BLAS dot np.linalg.norm takes of one
    # 3-vector, so each row matches it bit for bit (norm(axis=1) does not)
    trans = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    keep = np.arange(n) != predicted.reference_index
    mean_rot = float(rot[keep].mean()) if keep.any() else 0.0
    mean_trans = float(trans[keep].mean()) if keep.any() else 0.0
    return PoseErrorReport(
        rotation_error=_freeze(rot),
        translation_error=_freeze(trans),
        mean_rotation_error=mean_rot,
        mean_translation_error=mean_trans,
    )


def mrra(predicted: Trajectory, ground_truth: Trajectory, tau: float = 30.0) -> float:
    """Fraction of unordered frame pairs whose relative-rotation error is
    at most tau degrees. Insensitive to the choice of reference frame."""
    if len(predicted) != len(ground_truth):
        raise LengthMismatchError(
            f"trajectory lengths differ: {len(predicted)} vs {len(ground_truth)}"
        )
    n = len(predicted)
    if n < 2:
        raise TooFewFramesError(f"mrra needs at least 2 frames, got {n}")
    # the pair error angle(rel_p^T rel_g) is the angle of its conjugate
    # D_i D_j^T, with D_k = Rp_k Rg_k^T
    d = _stacked_poses(predicted)[0] @ np.swapaxes(_stacked_poses(ground_truth)[0], 1, 2)
    i, j = np.triu_indices(n, 1)
    errors = rotation_angle(d[i] @ np.swapaxes(d[j], 1, 2))
    return float(np.mean(errors <= np.deg2rad(tau)))


def generate_trajectory(
    kind: TrajectoryKind,
    frame_count: int,
    intrinsics: Intrinsics,
    scale: float = 2.0,
) -> Trajectory:
    """Synthetic camera path of the requested kind, canonicalized to frame 0.

    ``scale`` is the circle radius for the arc and orbit kinds and the total
    path length for the line kind; the still kind ignores it, but a
    non-finite scale is a ValueError for every kind. The arcs sweep
    a quarter circle at uniform angular speed while looking at the scene
    center; the orbit is a full uniform circle. All kinds are closed-form.
    """
    if frame_count < 1:
        raise ValueError(f"frame_count must be >= 1, got {frame_count}")
    if not np.isfinite(scale):
        raise ValueError(f"radius or path length {scale} is not finite")

    def look_at_center(phi):
        # camera on the circle, +z axis pointing at the origin
        rot = axis_angle_rotation(Y_AXIS, -phi)
        pos = scale * np.array([np.sin(phi), 0.0, -np.cos(phi)])
        return Pose(rot, pos)

    poses = []
    for k in range(frame_count):
        if kind is TrajectoryKind.STILL:
            poses.append(Pose.identity())
        elif kind is TrajectoryKind.LINE:
            step = 0.0 if frame_count == 1 else scale * k / (frame_count - 1)
            poses.append(Pose(np.eye(3), step * X_AXIS))
        elif kind is TrajectoryKind.ORBIT:
            poses.append(look_at_center(2.0 * np.pi * k / frame_count))
        else:
            sweep = 0.0 if frame_count == 1 else (np.pi / 2.0) * k / (frame_count - 1)
            sign = -1.0 if kind is TrajectoryKind.ARC_LEFT else 1.0
            poses.append(look_at_center(sign * sweep))

    frames = tuple(
        CameraFrame(intrinsics=intrinsics, pose=p, index=k) for k, p in enumerate(poses)
    )
    return canonicalize(Trajectory(frames=frames, reference_index=0), 0)


def reverse_trajectory(t: Trajectory) -> Trajectory:
    """Same physical camera path traversed backwards.

    Frames keep their poses and intrinsics but are renumbered by their new
    position; the reference index follows its frame. Applying this twice
    restores a trajectory whose indices were positional to begin with.
    """
    n = len(t)
    frames = tuple(
        CameraFrame(intrinsics=f.intrinsics, pose=f.pose, index=k)
        for k, f in enumerate(reversed(t.frames))
    )
    return Trajectory(frames=frames, reference_index=n - 1 - t.reference_index)


def perturb(image: RayGrid, spec: PerturbationSpec) -> RayGrid:
    """Damaged copy of a ray grid, of its kind, per the given perturbation settings."""
    rng = np.random.default_rng(spec.seed)
    data, kind = image.data, image.kind
    if spec.kind is PerturbationKind.GAUSSIAN_PER_PIXEL:
        # the same values as rng.normal(0.0, sigma, shape), without its extra pass
        noisy = rng.standard_normal(data.shape)
        with np.errstate(over="ignore"):  # a huge sigma gives inf, which decoding reports
            noisy *= spec.magnitude
        noisy += data
        return RayGrid(_freeze(noisy), kind)
    if spec.kind is PerturbationKind.UNIFORM_QUANTIZE:
        lo = float(data.min())
        span = float(data.max()) - lo
        if span == 0.0:
            return RayGrid(_freeze(data.copy()), kind)
        levels = 2 ** int(spec.magnitude)
        step = span / levels
        bins = np.clip(np.floor((data - lo) / step), 0, levels - 1)
        return RayGrid(_freeze(lo + (bins + 0.5) * step), kind)
    # pixel dropout: a seeded pixel subset collapses to the image mean
    flat = data.reshape(-1, kind.channels).copy()
    count = int(round(spec.magnitude * flat.shape[0]))
    if count:
        chosen = rng.choice(flat.shape[0], size=count, replace=False)
        flat[chosen] = data.reshape(-1, kind.channels).mean(axis=0)
    return RayGrid(_freeze(flat.reshape(data.shape)), kind)


class _DamagedFrames:
    """The damaged raxel grids of a canonical trajectory as a sized sequence:
    element k is frame k's clean grid, read from a ``TrajectoryRaxels`` of
    the frames, perturbed with its own seed, so no grid outlives its
    reader's use of it."""

    def __init__(self, canonical: Trajectory, spec: PerturbationSpec):
        self._clean = TrajectoryRaxels(canonical.frames)
        self._seeds = np.random.SeedSequence(spec.seed).generate_state(len(self._clean))
        self._spec = spec

    def __len__(self) -> int:
        return len(self._clean)

    def __getitem__(self, k: int) -> RayGrid:
        return perturb(self._clean[k], replace(self._spec, seed=int(self._seeds[k])))


def _clean_frame_overflows(canonical: Trajectory, pos: int) -> bool:
    """Whether frame ``pos``'s clean grid is too large to register against
    the clean reference grid."""
    clean = TrajectoryRaxels(canonical.frames)
    try:
        recover_pose(clean[pos], clean[canonical.reference_index])
    except NonFiniteInputError:
        return True
    except DegenerateGeometryError:
        pass  # it does not overflow
    return False


def cycle_consistency_run(
    ground_truth: Trajectory, spec: PerturbationSpec
) -> tuple[PoseErrorReport, float, float]:
    """Encode, perturb, decode, and re-encode one trajectory.

    Each frame's perturbation seed is derived from ``spec.seed``, so the
    run is deterministic regardless of evaluation order. The run holds one
    frame at a time: each damaged grid is encoded and perturbed as decoding
    reads it. Returns the pose error report against the ground truth, mRRA
    at 30 degrees, and the mean per-pixel distance between the raxel images
    of the decoded frames (pose and intrinsics) and the clean ones, which
    is computed in closed form from the poses and the separable ray grids,
    without encoding either image again. Decode failures are
    raised with their frame index; pixels that the perturbation made
    non-finite, or too large to register, are reported first and name it,
    unless the clean grid is already too large, which names the trajectory.
    """
    intr = ground_truth.frames[0].intrinsics
    for f in ground_truth.frames:
        if f.intrinsics != intr:
            raise ValueError("cycle consistency requires shared intrinsics")

    canonical = canonicalize(ground_truth, ground_truth.reference_index)
    # the clean grids are finite, so non-finite pixels come from the
    # perturbation; they explain any other failure, so they go first
    damage = f"the {spec.kind.value} perturbation of magnitude {spec.magnitude:g}"
    image = (intr.width, intr.height, intr.cx, intr.cy)
    try:
        decoded, failures = decode_trajectory(
            _DamagedFrames(canonical, spec), canonical.reference_index, *image
        )
    except NonFiniteInputError as err:
        raise NonFiniteInputError(f"{damage} produced non-finite pixels: {err}") from err
    if failures:
        non_finite = [f for f in failures if isinstance(f.error, NonFiniteInputError)]
        first = (non_finite or failures)[0]
        cause = ""
        if isinstance(first.error, NonFiniteInputError):
            # a clean grid can itself overflow registration: blame it, not the damage
            cause = ("the trajectory's coordinates are too large to register: "
                     if _clean_frame_overflows(canonical, first.position)
                     else f"{damage} produced non-finite or overflowing pixels: ")
        raise RaxelkitError(
            f"frame {canonical.frames[first.position].index} failed to decode: "
            f"{cause}{first.error}"
        ) from first.error

    predicted = decoded_trajectory(
        decoded, failures, [f.index for f in canonical.frames], canonical.reference_index, *image
    )

    report = pose_errors(predicted, canonical)
    mrra30 = mrra(predicted, canonical, tau=30.0)

    # the predicted poses are already canonical
    return report, mrra30, _reencode_residual(predicted, canonical)


def _reencode_residual(predicted: Trajectory, truth: Trajectory) -> float:
    """Mean over frames of the mean per-pixel distance between each
    predicted frame's raxel image and its true one, in closed form.

    Rotated into the true camera frame, the distance at a pixel is
    ``||M d_hat + t - d||`` with ``M = R^T R_hat`` and ``t = R^T (T_hat - T)``,
    where ``d`` is the unit ray at the true intrinsics and ``d_hat`` the one
    at the decoded intrinsics. Both are separable, ``d = (x_j, y_i, 1) / n_ij``,
    so channel k of that vector, times ``n_hat``, is
    ``M_k . (x_hat_j, y_hat_i, 1) - (e_k / n - t_k) n_hat`` with
    ``e = (x_j, y_i, 1)``, and the distance is the norm of the three
    channels over ``n_hat``. A frame takes three single-channel (H_r, W_r)
    arrays; no raxel image and no ray grid at the decoded intrinsics is
    built. The true frames share one set of intrinsics.
    """
    x, y, norm = _ray_factors(truth.frames[0].intrinsics)
    inv_norm = np.divide(1.0, norm, out=norm)
    per_frame = []
    for frame, true in zip(predicted.frames, truth.frames):
        r_t = true.pose.rotation.T
        m = r_t @ frame.pose.rotation
        t = r_t @ (frame.pose.translation - true.pose.translation)
        x_hat, y_hat, norm_hat = _ray_factors(frame.intrinsics)
        total = np.zeros_like(norm_hat)
        channel = np.empty_like(norm_hat)
        for k, e in enumerate((x[None, :], y[:, None], 1.0)):
            np.multiply(e, inv_norm, out=channel)
            channel -= t[k]
            channel *= norm_hat
            np.subtract((m[k, 0] * x_hat + m[k, 2])[None, :], channel, out=channel)
            channel += (m[k, 1] * y_hat)[:, None]
            channel *= channel
            total += channel
        np.sqrt(total, out=total)
        total /= norm_hat
        per_frame.append(float(total.mean()))
    return float(np.mean(per_frame))
