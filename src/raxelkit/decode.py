"""Recover camera poses and focal lengths from raxel images.

Inverts the raxel encoding in two closed-form steps per frame:

1. pose: the target raxel grid is a rigid transform of the reference
   grid (shared intrinsics), so flattening both to corresponded point
   sets and solving orthogonal Procrustes recovers the relative pose.
2. focal: rotate the rays back into the camera frame, then each pixel
   votes u*z/x for fx (and v*z/y for fy); the median of the votes is
   the estimate. The median makes the estimator immune to up to half
   the pixels being corrupted.

``decode_trajectory`` reads its grids once, in ``_read_order``: the
reference first, then the other positions in ascending order, and decodes
each in one loop step as it reads it. The reference's step also reduces
its bundle for registration (its centroid and centred x/y/z rows), so
each other frame costs one registration against it and one focal pass
over the frame's camera-frame rays (x/y/z rows, ``R^T (p - T)``, which
``registration._camera_rows`` forms for both). Every grid, the reference
too, is released before the next one is read. The focal pass forms the
camera-frame rays, inlier masks and votes a tenth of the grid at a time,
in blocks of whole image rows, in scratch that every block reuses, and
keeps only the inlier votes. Registration and the focal pass take their
row blocks from ``geometry._one_thread_blocks``, so every BLAS product
stays on the calling thread. Only ``GridKind.RAXEL`` grids decode.

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
from .geometry import (
    _GEMM_T_ONE_THREAD,
    CameraFrame,
    Intrinsics,
    Pose,
    Trajectory,
    _one_thread_blocks,
)
from .rays import GridKind, RayGrid, grid_pixel_coordinates
from .registration import _camera_rows, _prepare_source, register

INLIER_EPS = 1e-6
MIN_INLIER_FRACTION = 0.1
FRAME_FAILURES = (DegenerateGeometryError, InsufficientInliersError, NonFiniteInputError)
# recover_focal takes a grid in at most this many blocks of whole image
# rows. A block's scratch and kept votes (camera-frame rows, one axis's
# ratios and mask, the kept votes: about 41 bytes a pixel, against a grid's
# 24) stay under a fifth of a grid, which keeps a sweep cycle under four
# grids at any frame size; each block costs some twenty numpy calls, so
# more blocks would be slower
_FOCAL_BLOCKS = 10


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


def _lower_median(values: np.ndarray) -> float:
    """Lower median of a 1-D array that nothing else reads, which it
    partitions in place."""
    k = (values.size - 1) // 2
    values.partition(k)
    return float(values[k])


def _add_votes(votes, filled, offsets, axis, z, ratios, inlier) -> int:
    """Write one block's inlier votes ``offsets * z / axis`` into ``votes``
    after its first ``filled`` entries, in pixel order, and return the new
    count. A pixel is an inlier when ``axis`` is more than INLIER_EPS from
    zero and ``z`` is above INLIER_EPS; the other votes may be inf or nan
    and are never written. ``axis`` is overwritten; ``ratios`` and
    ``inlier`` are scratch of its shape."""
    # the offsets are broadcast by a copy: numpy buffers a broadcast
    # operand of an arithmetic ufunc over short rows
    np.copyto(ratios, offsets)
    ratios *= z
    ratios /= axis
    # min(|axis|, z) > eps holds exactly when both do; nan fails either way
    np.abs(axis, out=axis)
    np.minimum(axis, z, out=axis)
    kept = ratios[np.greater(axis, INLIER_EPS, out=inlier)]
    votes[filled:filled + kept.size] = kept
    return filled + kept.size


def _focal_scratch(rays, ratios, inlier, rows: int) -> tuple:
    """Views of recover_focal's scratch for a block of ``rows`` image rows:
    the camera-frame rays as (3, pixels) for the gemm, then as x, y and z
    rows, the ratios and the inlier mask."""
    xyz = rays[:, :rows]
    return (xyz.reshape(3, -1), *xyz, ratios[:rows], inlier[:rows])


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
    The grid is taken in at most ``_FOCAL_BLOCKS`` equal blocks of whole
    image rows, or in more where a block's one gemm would leave the calling
    thread. Each block's camera-frame rays, ratios and masks are formed in
    scratch that every block reuses, and only its inlier votes are kept, in
    pixel order, in two arrays as long as the grid, one per axis. The
    estimates are the lower medians of the filled parts.

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

    # the pixels' x/y/z rows, the right operand of each block's gemm
    points_t = target.data.reshape(-1, 3).T
    total = points_t.shape[1]
    rt = pose.rotation.T
    shift = rt @ pose.translation
    # image rows per block: at most ten blocks, of few enough rows that the
    # block's gemm, 9 multiply-adds a pixel, stays on the calling thread
    blocks = _one_thread_blocks(v.size, (9 * u.size, _GEMM_T_ONE_THREAD),
                                (1, -(-v.size // _FOCAL_BLOCKS)))
    block = blocks[0].stop
    # one block's scratch, reused by every block
    rays = np.empty((3, block, u.size))
    ratios = np.empty((block, u.size))
    inlier = np.empty((block, u.size), dtype=bool)
    # each axis's inlier votes in pixel order, filled block by block; one
    # allocation for both, since glibc trims two freed halves at the top of
    # its heap back to the system and the next call faults them in again
    fx_votes, fy_votes = np.empty((2, total))
    n_x = n_y = 0
    v_c = v_c[:, None]
    scratch = _focal_scratch(rays, ratios, inlier, block)
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows in blocks:
            if rows.stop - rows.start < block:  # the last block may be shorter
                scratch = _focal_scratch(rays, ratios, inlier, rows.stop - rows.start)
            flat, x, y, z, ratio, keep = scratch
            # camera-frame rays R^T p - R^T T
            _camera_rows(rt, shift, points_t[:, rows.start * u.size:rows.stop * u.size], flat)
            n_x = _add_votes(fx_votes, n_x, u_c, x, z, ratio, keep)
            n_y = _add_votes(fy_votes, n_y, v_c[rows], y, z, ratio, keep)
    frac_x = n_x / total
    frac_y = n_y / total
    if frac_x < MIN_INLIER_FRACTION or frac_y < MIN_INLIER_FRACTION:
        raise InsufficientInliersError(
            f"focal inlier fractions {frac_x:.3f}/{frac_y:.3f} below "
            f"{MIN_INLIER_FRACTION}"
        )
    fx_hat = _lower_median(fx_votes[:n_x])
    fy_hat = _lower_median(fy_votes[:n_y])
    if fx_hat <= 0.0 or fy_hat <= 0.0:
        raise InsufficientInliersError(
            f"focal estimates {fx_hat:.6g}/{fy_hat:.6g} are not positive: "
            "at least half the votes disagree with the pose"
        )
    return fx_hat, fy_hat, min(frac_x, frac_y)


def _read_order(n: int, reference_index: int) -> list[int]:
    """The positions of ``n`` frames in the order ``decode_trajectory``
    reads them: the reference, then the others in ascending order."""
    return [reference_index] + [k for k in range(n) if k != reference_index]


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
    once and decoded as it is read: the reference first, then the other
    positions in ascending order. No grid is kept past its own frame, the
    reference and failed frames included: each is released before the next
    element is read, so a sequence that builds its grids on demand holds
    one of them at a time, besides the reduced reference. The reference
    bundle is reduced for registration once, when it is read, and shared
    by every frame. Frames are solved independently; a frame that is
    degenerate, has too few focal inliers, a focal that is not positive or
    non-finite pixels (``FRAME_FAILURES``) is reported in the failure list
    (with its position; the list is in order of position) and leaves a
    None placeholder, without aborting the rest.
    The reference frame's pose is set to the exact identity, not solved; a
    non-finite reference raises NonFiniteInputError, since no frame can be
    registered against it. ShapeMismatchError fails the whole call at the
    first frame that shows it: a grid that is not a raxel image or whose
    shape differs from the reference's, image dimensions that do not map to
    the grid, or a grid with fewer than 3 pixels to register.

    Returns (decoded, failures) where decoded matches the input order.
    """
    n = len(images)
    if not 0 <= reference_index < n:
        raise IndexError(f"reference_index {reference_index} out of range for {n} images")
    decoded: list[DecodedFrame | None] = [None] * n
    failures: list[DecodeFailure] = []
    for pos in _read_order(n, reference_index):
        img = None  # the previous frame's grid goes before this one is read
        img = images[pos]
        _require_raxel(img, f"image {pos}")
        if pos == reference_index:
            if not np.all(np.isfinite(img.data)):
                raise NonFiniteInputError(f"reference image {pos} contains non-finite pixels")
            ref_shape = img.data.shape
            # reduced once for every frame; a lone frame registers nothing
            reference = _prepare_source(img.data.reshape(-1, 3)) if n > 1 else None
        elif img.data.shape != ref_shape:
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
    failures.sort(key=lambda failure: failure.position)
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
