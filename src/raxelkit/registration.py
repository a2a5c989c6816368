"""Closed-form least-squares rigid alignment of corresponded 3D point sets.

Solves argmin over SE(3) of sum_i ||target_i - (R @ source_i + T)||^2 via
the Kabsch construction: centroid subtraction, SVD of the cross-covariance,
and a determinant correction that excludes reflections.

The source side is reduced once (``_prepare_source``): its centroid, and
its centred points as contiguous x/y/z rows with their row sums and norm;
the source itself is not kept. Every per-point product runs over row
blocks from ``geometry._one_thread_blocks`` whose tightest call, a dot
over a block's coordinates, stays on the calling thread. Per block, a
target costs one gemv towards its centroid, one gemm towards the
cross-covariance ``src_c^T @ tgt - outer(sum(src_c), centroid_t)`` (the
target is never centred explicitly) and one dot towards its norm; after
the 3x3 SVD, ``_camera_rows`` (which the decode's focal pass also uses)
maps the block back into the source frame, ``R^T (p - T)``, by one gemm
into one block's scratch, the source ``centroid + src_c`` is subtracted
and one dot adds the block's squared residual. ``register`` also accepts
an already prepared source, so a trajectory decode reduces it once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometryError,
    NonFiniteInputError,
    ShapeMismatchError,
)
from .geometry import _DOT_ONE_THREAD, Pose, _one_thread_blocks

# Smallest-to-largest singular value ratio of the cross-covariance below which
# the rotation about the weak axis is unobservable.
DEGENERACY_THRESHOLD = 1e-9
_EPS = np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class RegistrationResult:
    """Recovered transform plus fit diagnostics.

    ``condition`` is the smallest-to-largest singular value ratio of the
    cross-covariance; values near zero mean the geometry barely constrains
    the rotation.
    """

    pose: Pose
    rms_residual: float
    condition: float


@dataclass(frozen=True, eq=False)
class _PreparedSource:
    """A source point set reduced once for registering many targets.

    ``centred`` holds the centred points ``s_i - centroid`` as a contiguous
    (3, n) array of x/y/z rows, with their row sums and Frobenius norm. The
    points themselves are not kept: the residual takes them as
    ``centroid + centred``.
    """

    centroid: np.ndarray
    centred: np.ndarray
    centred_sum: np.ndarray
    centred_norm: float


def _as_point_set(points, name: str) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ShapeMismatchError(f"{name} must have shape (n, 3), got {pts.shape}")
    if pts.shape[0] < 3:
        raise ShapeMismatchError(f"{name} needs at least 3 points, got {pts.shape[0]}")
    return pts


def _require_finite(pts: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(pts)):
        raise NonFiniteInputError(f"{name} contains non-finite coordinates")


def _centroid(points: np.ndarray) -> np.ndarray:
    """Mean of the (n, 3) ``points``: one gemv with the uniform weights
    ``1 / n`` per row block, summed in block order."""
    n = points.shape[0]
    blocks = _one_thread_blocks(n, (3, _DOT_ONE_THREAD))
    weights = np.full(blocks[0].stop, 1.0 / n)
    total = np.zeros(3)
    for rows in blocks:
        total += weights[: rows.stop - rows.start] @ points[rows]
    return total


def _prepare_source(source) -> _PreparedSource:
    """Reduce ``source`` for ``_register_prepared``. Raises as ``register``
    does for a bad source."""
    src = _as_point_set(source, "source")
    _require_finite(src, "source")
    centroid = _centroid(src)
    centred = np.empty((3, src.shape[0]))
    norm_sq = 0.0
    for rows in _one_thread_blocks(src.shape[0], (3, _DOT_ONE_THREAD)):
        block = src[rows] - centroid
        centred[:, rows] = block.T
        norm_sq += np.vdot(block, block)
    return _PreparedSource(
        centroid=centroid,
        centred=centred,
        centred_sum=centred.sum(axis=1),
        centred_norm=float(np.sqrt(norm_sq)),
    )


def _camera_rows(rt, shift, points_t, out: np.ndarray) -> np.ndarray:
    """``rt @ points_t - shift`` into ``out``, all (3, m) x/y/z rows: with
    ``rt = R^T`` and ``shift = R^T T``, the camera-frame rows ``R^T (p - T)``.
    One gemm, then each row's shift subtracted as a scalar, since numpy
    buffers a (3, 1) broadcast."""
    np.matmul(rt, points_t, out=out)
    for row, s in zip(out, shift):
        row -= s
    return out


def _register_prepared(target, prepared: _PreparedSource) -> RegistrationResult:
    """Best rigid transform taking the prepared source onto ``target``.

    Raises ShapeMismatchError on a length mismatch, NonFiniteInputError on
    non-finite target coordinates or ones large enough to overflow the
    cross-covariance, and DegenerateGeometryError when the geometry cannot
    pin down a rotation.
    """
    tgt = _as_point_set(target, "target")
    n = prepared.centred.shape[1]
    if tgt.shape[0] != n:
        raise ShapeMismatchError(
            f"point sets must have equal lengths, got {tgt.shape[0]} and {n}"
        )
    tgt_centroid = _centroid(tgt)
    # a non-finite coordinate always reaches the centroid (0 * inf is nan)
    if not np.all(np.isfinite(tgt_centroid)):
        _require_finite(tgt, "target")

    blocks = _one_thread_blocks(n, (3, _DOT_ONE_THREAD))
    cross_cov = np.zeros((3, 3))
    tgt_sq = 0.0
    # finite but huge coordinates can overflow these sums
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in blocks:
            cross_cov += prepared.centred[:, rows] @ tgt[rows]
            tgt_sq += np.vdot(tgt[rows], tgt[rows])
        cross_cov -= np.outer(prepared.centred_sum, tgt_centroid)
        tgt_norm = np.sqrt(tgt_sq)
    if not (np.all(np.isfinite(cross_cov)) and np.isfinite(tgt_norm)):
        raise NonFiniteInputError(
            "target coordinates are too large: their cross-covariance or norm overflows"
        )
    u, sing, vt = np.linalg.svd(cross_cov)
    # The uncentred product rounds with error up to about n * eps * |src_c| |tgt|;
    # singular values at that floor are noise, not geometry (a constant target).
    floor = n * _EPS * prepared.centred_norm * tgt_norm
    condition = float(sing[2] / sing[0]) if sing[0] > floor else 0.0
    if condition < DEGENERACY_THRESHOLD:
        raise DegenerateGeometryError(
            f"cross-covariance condition {condition:.3e} below {DEGENERACY_THRESHOLD:.0e}; "
            "source points are (near-)collinear or coincident"
        )
    v = vt.T
    d = np.sign(np.linalg.det(v @ u.T))
    rotation = v @ np.diag([1.0, 1.0, d]) @ u.T
    pose = Pose(rotation, tgt_centroid - rotation @ prepared.centroid)

    # the residual R^T (p - T) - s, s = centroid + centred, per block in scratch
    rt = pose.rotation.T
    shift = rt @ pose.translation + prepared.centroid
    scratch = np.empty(3 * blocks[0].stop)
    sum_sq = 0.0
    for rows in blocks:
        out = scratch[: 3 * (rows.stop - rows.start)].reshape(3, -1)
        residual = _camera_rows(rt, shift, tgt[rows].T, out)
        residual -= prepared.centred[:, rows]
        sum_sq += np.vdot(residual, residual)
    return RegistrationResult(pose, float(np.sqrt(float(sum_sq) / n)), condition)


def register(target, source) -> RegistrationResult:
    """Best rigid transform taking ``source`` onto ``target``.

    Points correspond index-wise. Returns the global minimizer of
    sum_i ||target_i - (R @ source_i + T)||^2 with det(R) = +1.

    Raises ShapeMismatchError for unequal lengths,
    NonFiniteInputError (a ValueError) for non-finite coordinates, and
    DegenerateGeometryError when the source geometry (collinear or
    coincident points) cannot pin down a unique rotation.

    ``source`` may also be a source already reduced by ``_prepare_source``,
    for registering many targets against one source.
    """
    if not isinstance(source, _PreparedSource):
        source = _prepare_source(source)
    return _register_prepared(target, source)
