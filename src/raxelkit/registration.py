"""Closed-form least-squares rigid alignment of corresponded 3D point sets.

Solves argmin over SE(3) of sum_i w_i ||target_i - (R @ source_i + T)||^2 via
the Kabsch construction: centroid subtraction, SVD of the cross-covariance,
and a determinant correction that excludes reflections.

The source side is reduced once (``_prepare_source``): its centroid, its
weight-scaled centred points as contiguous x/y/z rows, and their row sums.
Each target then costs one gemv for its centroid, one gemm for the
cross-covariance ``src_c^T @ tgt - outer(sum(src_c), centroid_t)`` (the
target is never centred explicitly), a 3x3 SVD, and one gemm mapping the
target back into the source frame, from which the residual is a single dot
product. ``register`` also accepts an already prepared source, so a
trajectory decode reduces its reference once for all frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometryError,
    NonFiniteInputError,
    NonPositiveWeightSumError,
    ShapeMismatchError,
)
from .geometry import Pose

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

    ``rows`` is the source as a contiguous (3, n) array of x/y/z rows,
    ``centred`` the weight-scaled centred rows ``w_i (s_i - centroid)``
    with their row sums and Frobenius norm, ``averaging`` the gemv vector
    ``w / sum(w)`` that yields a weighted centroid, and ``weighted``
    whether per-point weights were given.
    """

    rows: np.ndarray
    centroid: np.ndarray
    centred: np.ndarray
    centred_sum: np.ndarray
    centred_norm: float
    averaging: np.ndarray
    weighted: bool


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


def _prepare_source(source, weights=None) -> _PreparedSource:
    """Reduce ``source`` (and optional per-point ``weights``) for
    ``_register_prepared``. Raises as ``register_weighted`` does for a bad
    source or bad weights."""
    src = _as_point_set(source, "source")
    _require_finite(src, "source")
    n = src.shape[0]
    if weights is None:
        w = None
        averaging = np.full(n, 1.0 / n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ShapeMismatchError(f"weights must have shape ({n},), got {w.shape}")
        if np.any(w < 0.0):
            raise ValueError("weights must be non-negative")
        w_sum = float(w.sum())
        if w_sum <= 0.0:
            raise NonPositiveWeightSumError("weights must sum to a positive value")
        averaging = w / w_sum
    centroid = averaging @ src
    rows = np.ascontiguousarray(src.T)
    centred = rows - centroid[:, None]
    if w is not None:
        centred *= w
    return _PreparedSource(
        rows=rows,
        centroid=centroid,
        centred=centred,
        centred_sum=centred.sum(axis=1),
        centred_norm=float(np.sqrt(np.vdot(centred, centred))),
        averaging=averaging,
        weighted=w is not None,
    )


def _source_frame_rows(points: np.ndarray, pose: Pose) -> np.ndarray:
    """``R^T (p - T)`` for every row of the (n, 3) ``points``, returned as a
    contiguous (3, n) array of x/y/z rows."""
    rt = pose.rotation.T
    rows = rt @ points.T
    rows -= (rt @ pose.translation)[:, None]
    return rows


def _register_prepared(target, prepared: _PreparedSource) -> RegistrationResult:
    """Best rigid transform taking the prepared source onto ``target``.

    Raises ShapeMismatchError on a length mismatch, NonFiniteInputError on
    non-finite target coordinates and DegenerateGeometryError when the
    geometry cannot pin down a rotation.
    """
    tgt = _as_point_set(target, "target")
    n = prepared.rows.shape[1]
    if tgt.shape[0] != n:
        raise ShapeMismatchError(
            f"point sets must have equal lengths, got {tgt.shape[0]} and {n}"
        )
    tgt_centroid = prepared.averaging @ tgt
    # a non-finite coordinate always reaches the centroid (0 * inf is nan)
    if not np.all(np.isfinite(tgt_centroid)):
        _require_finite(tgt, "target")

    cross_cov = prepared.centred @ tgt - np.outer(prepared.centred_sum, tgt_centroid)
    u, sing, vt = np.linalg.svd(cross_cov)
    # The uncentred product rounds with error up to about n * eps * |src_c| |tgt|;
    # singular values at that floor are noise, not geometry (a constant target).
    floor = n * _EPS * prepared.centred_norm * np.sqrt(np.vdot(tgt, tgt))
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

    residuals = _source_frame_rows(tgt, pose)
    residuals -= prepared.rows
    if prepared.weighted:
        mean_sq = float(np.vdot(residuals * prepared.averaging, residuals))
    else:
        mean_sq = float(np.vdot(residuals, residuals)) / n
    return RegistrationResult(pose, float(np.sqrt(mean_sq)), condition)


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


def register_weighted(target, source, weights) -> RegistrationResult:
    """As ``register`` but minimizing the ``weights``-weighted squared error.

    ``weights=None`` means uniform. With uniform weights the result matches
    ``register`` to floating-point precision.
    """
    return _register_prepared(target, _prepare_source(source, weights))
