"""Recover camera poses and focal lengths from raxel images.

Inverts the raxel encoding in two closed-form steps per frame:

1. pose: the target raxel grid is a rigid transform of the reference
   grid (shared intrinsics), so flattening both to corresponded point
   sets and solving orthogonal Procrustes recovers the relative pose.
2. focal: rotate the rays back into the camera frame, then each pixel
   votes u*z/x for fx (and v*z/y for fy); the median of the votes is
   the estimate. The median makes the estimator immune to up to half
   the pixels being corrupted.

``decode_trajectory`` reads its sequence of grids once, reference first,
and reduces the reference bundle for registration once per trajectory
(its centroid and centred x/y/z rows) before any frame is decoded, so
each frame costs one registration against it and one focal pass over the
frame's camera-frame rays (x/y/z rows, ``R^T (p - T)``); the reference
grid itself is dropped once its own position is decoded. Registration
and the camera-frame rays run their BLAS products in row blocks that stay
on the calling thread (``geometry._row_blocks``). ``recover_pose`` is the
pose step for a single frame pair. Only ``GridKind.RAXEL`` grids decode.

The principal point is taken as the image center unless the caller
supplies one; ``decoded_trajectory`` turns decoded frames into a
``Trajectory`` with the same principal point.

Only the errors in ``FRAME_FAILURES`` (degenerate geometry, too few or
non-positive focal votes, non-finite pixels) fail a single frame; a
``ShapeMismatchError`` fails the whole decode.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometryError,
    InsufficientInliersError,
    NonFiniteInputError,
    RaxelkitError,
    ShapeMismatchError,
)
from .geometry import CameraFrame, Intrinsics, Pose, Trajectory
from .rays import GridKind, RayGrid, grid_pixel_coordinates
from .registration import (
    RegistrationResult,
    _prepare_source,
    _source_frame_rows,
    register,
)

INLIER_EPS = 1e-6
MIN_INLIER_FRACTION = 0.1
FRAME_FAILURES = (DegenerateGeometryError, InsufficientInliersError, NonFiniteInputError)


@dataclass(frozen=True)
class DecodedFrame:
    """One frame's recovered pose and focal lengths, with fit diagnostics."""

    pose: Pose
    fx_hat: float
    fy_hat: float
    pose_residual: float
    inlier_fraction: float


@dataclass(frozen=True)
class DecodeFailure:
    """A frame that could not be decoded: its position and the error, one of
    ``FRAME_FAILURES``."""

    position: int
    error: RaxelkitError


def _require_raxel(grid: RayGrid, name: str) -> None:
    if grid.kind is not GridKind.RAXEL:
        raise ShapeMismatchError(
            f"{name} is a {grid.kind.value} grid; only raxel grids decode"
        )


def recover_pose(target: RayGrid, reference: RayGrid) -> RegistrationResult:
    """Rigid transform taking the reference raxel bundle onto the target's.

    When the reference image is the canonical frame (identity pose), the
    recovered pose is the target frame's relative pose. Raises
    ShapeMismatchError on differing or non-raxel grids and
    DegenerateGeometryError when the bundles do not pin down a rotation.
    """
    _require_raxel(target, "the target")
    _require_raxel(reference, "the reference")
    if target.data.shape != reference.data.shape:
        raise ShapeMismatchError(
            f"raxel grids differ: {target.data.shape} vs {reference.data.shape}"
        )
    return register(target.data.reshape(-1, 3), reference.data.reshape(-1, 3))


def _lower_median(values: np.ndarray) -> float:
    """Lower median of a fresh 1-D array, which it partitions in place."""
    k = (values.size - 1) // 2
    values.partition(k)
    return float(values[k])


def recover_focal(
    target: RayGrid,
    pose: Pose,
    width: int,
    height: int,
    cx: float | None = None,
    cy: float | None = None,
) -> tuple[float, float, float]:
    """Median-of-ratios focal estimate from one raxel image and its pose.

    Subtracts the pose translation, rotates the rays back to the camera
    frame, and takes per-pixel ratios u*z/x and v*z/y with (u, v) measured
    from the principal point (image center by default). Pixels whose
    denominator or z component is within INLIER_EPS of zero are excluded.

    Returns (fx_hat, fy_hat, inlier_fraction) where the fraction is the
    smaller of the two axes' inlier shares. Raises InsufficientInliersError
    if either axis keeps fewer than MIN_INLIER_FRACTION of the pixels or
    has a median vote at or below zero, and
    ShapeMismatchError for a grid that is not a raxel image or does not
    match the image dimensions.
    """
    _require_raxel(target, "the target")
    if cx is None:
        cx = width / 2.0
    if cy is None:
        cy = height / 2.0
    u, v = grid_pixel_coordinates(width, height)
    if (v.size, u.size) != (target.height_r, target.width_r):
        raise ShapeMismatchError(
            f"image dimensions {width}x{height} map to a "
            f"{v.size}x{u.size} grid, but the raxel grid is "
            f"{target.height_r}x{target.width_r}"
        )
    u_c, v_c = u - cx, v - cy

    # camera-frame rays as contiguous x/y/z rows
    local = _source_frame_rows(target.data.reshape(-1, 3), pose)
    x, y, z = (row.reshape(v.size, u.size) for row in local)
    z_ok = z > INLIER_EPS
    mask_x = (x > INLIER_EPS) | (x < -INLIER_EPS)
    mask_x &= z_ok
    mask_y = (y > INLIER_EPS) | (y < -INLIER_EPS)
    mask_y &= z_ok
    total = x.size
    frac_x = np.count_nonzero(mask_x) / total
    frac_y = np.count_nonzero(mask_y) / total
    if frac_x < MIN_INLIER_FRACTION or frac_y < MIN_INLIER_FRACTION:
        raise InsufficientInliersError(
            f"focal inlier fractions {frac_x:.3f}/{frac_y:.3f} below "
            f"{MIN_INLIER_FRACTION}"
        )
    # votes are formed everywhere, in one buffer shared by both axes, and
    # masked once; excluded pixels may be inf/nan
    votes = np.empty_like(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(u_c[None, :], z, out=votes)
        votes /= x
        fx_hat = _lower_median(votes[mask_x])
        np.multiply(v_c[:, None], z, out=votes)
        votes /= y
        fy_hat = _lower_median(votes[mask_y])
    if fx_hat <= 0.0 or fy_hat <= 0.0:
        raise InsufficientInliersError(
            f"focal estimates {fx_hat:.6g}/{fy_hat:.6g} are not positive: "
            "at least half the votes disagree with the pose"
        )
    return fx_hat, fy_hat, min(frac_x, frac_y)


def decode_trajectory(
    images: Sequence[RayGrid],
    reference_index: int,
    width: int,
    height: int,
    cx: float | None = None,
    cy: float | None = None,
) -> tuple[list[DecodedFrame | None], list[DecodeFailure]]:
    """Decode every raxel image against the reference frame's image.

    ``images`` is any sized sequence of grids. Each element is read exactly
    once, the reference first, then the other positions in ascending order,
    and no grid is kept past its own frame, the reference included, so a
    sequence that builds its grids on demand is decoded one frame at a
    time. The reference bundle is reduced for registration once, when it
    is read, and shared by every frame. Frames are solved independently;
    a frame that is degenerate, has too few focal inliers, a focal that is
    not positive or non-finite pixels (``FRAME_FAILURES``) is reported in the
    failure list (with its position) and leaves a None placeholder, without
    aborting the rest. The reference frame's pose is set to the exact
    identity, not solved; a non-finite reference raises NonFiniteInputError,
    since no frame can be registered against it. ShapeMismatchError fails
    the whole call at the first frame that shows it: a grid that is not a
    raxel image or whose shape differs from the reference's, image
    dimensions that do not map to the grid, or a grid with fewer than 3
    pixels to register.

    Returns (decoded, failures) where decoded matches the input order.
    """
    n = len(images)
    if not 0 <= reference_index < n:
        raise IndexError(f"reference_index {reference_index} out of range for {n} images")
    ref_image = images[reference_index]
    _require_raxel(ref_image, f"image {reference_index}")
    ref_shape = ref_image.data.shape
    if not np.all(np.isfinite(ref_image.data)):
        raise NonFiniteInputError(
            f"reference image {reference_index} contains non-finite pixels"
        )

    # reduced for registration here; the reference grid itself is dropped
    # once its own position is decoded
    reference = _prepare_source(ref_image.data.reshape(-1, 3)) if n > 1 else None
    decoded: list[DecodedFrame | None] = [None] * n
    failures: list[DecodeFailure] = []
    for pos in range(n):
        if pos == reference_index:
            img, ref_image = ref_image, None
        else:
            img = images[pos]
        _require_raxel(img, f"image {pos}")
        if img.data.shape != ref_shape:
            raise ShapeMismatchError(
                f"image {pos} grid {img.data.shape} differs from reference grid {ref_shape}"
            )
        try:
            if pos == reference_index:
                pose, residual = Pose.identity(), 0.0
            else:
                result = register(img.data.reshape(-1, 3), reference)
                pose, residual = result.pose, result.rms_residual
            fx_hat, fy_hat, inlier_fraction = recover_focal(
                img, pose, width, height, cx=cx, cy=cy
            )
        except FRAME_FAILURES as err:
            # kept without its traceback, whose frames would hold this grid
            failures.append(DecodeFailure(position=pos, error=err.with_traceback(None)))
            continue
        decoded[pos] = DecodedFrame(
            pose=pose,
            fx_hat=fx_hat,
            fy_hat=fy_hat,
            pose_residual=residual,
            inlier_fraction=inlier_fraction,
        )
    return decoded, failures


def decoded_trajectory(
    decoded: list[DecodedFrame | None],
    failures: list[DecodeFailure],
    indices: list[int],
    reference_position: int,
    width: int,
    height: int,
    cx: float | None = None,
    cy: float | None = None,
) -> Trajectory:
    """The decoded frames as a trajectory, with the principal point at
    (cx, cy), the image center by default, as ``decode_trajectory`` takes it.

    ``decoded`` and ``failures`` are what ``decode_trajectory`` returned.
    Failed frames (None) are dropped; the others keep their frame indices,
    and the reference index follows the reference frame. When the reference
    frame itself failed, raises a RaxelkitError chained from its failure.
    """
    cx = width / 2.0 if cx is None else cx
    cy = height / 2.0 if cy is None else cy
    for failure in failures:
        if failure.position == reference_position:
            raise RaxelkitError(
                f"reference frame {indices[reference_position]} failed: {failure.error}"
            ) from failure.error
    frames = tuple(
        CameraFrame(
            intrinsics=Intrinsics(fx=d.fx_hat, fy=d.fy_hat, cx=cx, cy=cy,
                                  width=width, height=height),
            pose=d.pose,
            index=index,
        )
        for d, index in zip(decoded, indices)
        if d is not None
    )
    failed_before = decoded[:reference_position].count(None)
    return Trajectory(frames=frames, reference_index=reference_position - failed_before)
