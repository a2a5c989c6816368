"""Linear flow-matching paths, the combined MSE + cosine objective, and an
Euler sampler with per-group freezing.

States are flat 1-D vectors. The path between a noise endpoint x0 and a
data endpoint x1 is the straight line x_t = (1 - t) x0 + t x1, whose
conditional velocity is the constant x1 - x0. The training objective adds
a direction-only cosine penalty to the squared error so that predictions
with the right direction but wrong magnitude are penalized less than
predictions pointing the wrong way.

The sampler integrates a caller-supplied velocity field with uniform
explicit Euler steps. Groups of state entries can be frozen: they are
re-pinned to their initial values after every step, which is how a subset
of tokens is held at its data value while the rest are denoised.

``FlowBatch`` stores its endpoints by ``geometry``'s array rule:
read-only, with memory the library did not freeze copied.

``loss`` and ``loss_gradient`` follow ``geometry``'s one-thread rule: each
dot and norm is a sum of dots over blocks of at most ``_DOT_ONE_THREAD``
(10000) entries, added in block order, so OpenBLAS keeps every call on the
calling thread and the values do not depend on its thread count. A
``generate``-sized state of 36864 entries takes four blocks of 9216.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateDirectionError,
    InvalidFrameCountError,
    ShapeMismatchError,
)
from .geometry import _DOT_ONE_THREAD, _one_thread_blocks, _PickledAsConstructorCall, _read_only

ZERO_NORM_THRESHOLD = 1e-12
DEFAULT_COSINE_WEIGHT = 0.5


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` over 1-D vectors, as a sum of per-block dots that each
    stay on the calling thread, added in block order."""
    return sum(float(a[rows] @ b[rows])
               for rows in _one_thread_blocks(a.size, (1, _DOT_ONE_THREAD)))


def _as_state(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class FlowBatch(_PickledAsConstructorCall):
    """Endpoint pair (x0 noise, x1 data) and a time t on the path. The
    endpoints are stored read-only; memory the library did not freeze is
    copied."""

    x0: np.ndarray
    x1: np.ndarray
    t: float

    def __post_init__(self):
        x0 = _as_state(self.x0, "x0")
        x1 = _as_state(self.x1, "x1")
        if x0.shape != x1.shape:
            raise ValueError(f"endpoint shapes differ: {x0.shape} vs {x1.shape}")
        t = float(self.t)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {t}")
        object.__setattr__(self, "x0", _read_only(x0))
        object.__setattr__(self, "x1", _read_only(x1))
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class FreezeMask:
    """Per-token-group freeze flags for the sampler."""

    frozen: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "frozen", tuple(bool(f) for f in self.frozen))


@dataclass(frozen=True)
class LossReport:
    """Loss value split into its squared-error and cosine parts.

    total = mse + cosine_term holds exactly by construction.
    """

    total: float
    mse: float
    cosine_term: float
    cosine_weight: float


def interpolate(batch: FlowBatch) -> np.ndarray:
    """Point on the straight path: (1 - t) x0 + t x1."""
    return (1.0 - batch.t) * batch.x0 + batch.t * batch.x1


def target_velocity(batch: FlowBatch) -> np.ndarray:
    """Constant velocity of the straight path: x1 - x0 (independent of t)."""
    return batch.x1 - batch.x0


def _checked_norms(prediction, batch: FlowBatch, cosine_weight: float):
    """``(p, u, |p|, |u|)`` for the prediction and the target velocity,
    after the checks ``loss`` and ``loss_gradient`` share."""
    p = _as_state(prediction, "prediction")
    u = target_velocity(batch)
    if p.shape != u.shape:
        raise ValueError(f"prediction shape {p.shape} does not match state {u.shape}")
    if not cosine_weight >= 0:
        raise ValueError(f"cosine_weight must be >= 0, got {cosine_weight}")
    return p, u, math.sqrt(_dot(p, p)), math.sqrt(_dot(u, u))


def loss(
    prediction,
    batch: FlowBatch,
    cosine_weight: float = DEFAULT_COSINE_WEIGHT,
) -> LossReport:
    """Squared error against the target velocity plus a cosine direction term.

    mse is the component sum of squared differences (no mean reduction).
    cosine_term is cosine_weight * (1 - cos(prediction, target)); when either
    vector has near-zero norm the direction is undefined and the term takes
    its weight as a worst-case penalty.
    """
    p, u, p_norm, u_norm = _checked_norms(prediction, batch, cosine_weight)
    diff = p - u
    mse = _dot(diff, diff)
    if p_norm < ZERO_NORM_THRESHOLD or u_norm < ZERO_NORM_THRESHOLD:
        cosine_term = float(cosine_weight)
    else:
        cosine = _dot(p, u) / (p_norm * u_norm)
        cosine = min(1.0, max(-1.0, cosine))
        cosine_term = cosine_weight * (1.0 - cosine)
    return LossReport(
        total=mse + cosine_term,
        mse=mse,
        cosine_term=cosine_term,
        cosine_weight=float(cosine_weight),
    )


def loss_gradient(
    prediction,
    batch: FlowBatch,
    cosine_weight: float = DEFAULT_COSINE_WEIGHT,
) -> np.ndarray:
    """Gradient of loss(...).total with respect to the prediction.

    d(mse)/dp = 2 (p - u). The cosine part differentiates to
    -(w / |p|) (u / |u| - (p.u / (|p|^2 |u|)) p). Refuses what ``loss``
    refuses, by the same checks, and raises DegenerateDirectionError when
    either norm is too small for the direction to be defined.
    """
    p, u, p_norm, u_norm = _checked_norms(prediction, batch, cosine_weight)
    if p_norm < ZERO_NORM_THRESHOLD or u_norm < ZERO_NORM_THRESHOLD:
        raise DegenerateDirectionError(
            f"direction undefined at norms |p|={p_norm:.3e}, |u|={u_norm:.3e}"
        )
    grad = 2.0 * (p - u)
    if cosine_weight != 0.0:
        proj = _dot(p, u) / (p_norm * p_norm * u_norm)
        grad -= (cosine_weight / p_norm) * (u / u_norm - proj * p)
    return grad


def _check_spans(group_spans, n: int) -> list[tuple[int, int]]:
    spans = [(int(a), int(b)) for a, b in group_spans]
    cursor = 0
    for start, stop in spans:
        if start != cursor or stop <= start:
            raise ValueError(
                f"group spans must partition [0, {n}) in order; "
                f"got span ({start}, {stop}) at offset {cursor}"
            )
        cursor = stop
    if cursor != n:
        raise ValueError(f"group spans cover [0, {cursor}) but the state has {n} entries")
    return spans


def euler_sample(
    x_init,
    velocity_fn: Callable[[np.ndarray, float], np.ndarray],
    steps: int,
    mask: FreezeMask | None = None,
    group_spans: Sequence[tuple[int, int]] | None = None,
) -> np.ndarray:
    """Integrate dx/dt = velocity_fn(x, t) from t = 0 to 1 with uniform
    explicit Euler steps.

    Groups named by ``group_spans`` (half-open index ranges partitioning the
    state) whose mask entry is True are re-pinned to their x_init values
    after every step, so they come out bit-identical to how they went in.
    Pass neither or both of mask and group_spans.
    """
    x = _as_state(x_init, "x_init").copy()
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if (mask is None) != (group_spans is None):
        raise ShapeMismatchError("mask and group_spans must be given together")
    frozen_slices: list[slice] = []
    if mask is not None:
        spans = _check_spans(group_spans, x.size)
        if len(mask.frozen) != len(spans):
            raise ShapeMismatchError(
                f"mask has {len(mask.frozen)} groups but {len(spans)} spans given"
            )
        frozen_slices = [
            slice(a, b) for (a, b), f in zip(spans, mask.frozen) if f
        ]
    pinned = [x[s].copy() for s in frozen_slices]

    h = 1.0 / steps
    for k in range(steps):
        t = k * h
        v = np.asarray(velocity_fn(x, t), dtype=float)
        if v.shape != x.shape:
            raise ShapeMismatchError(
                f"velocity_fn returned shape {v.shape} for state {x.shape}"
            )
        x = x + h * v
        for s, values in zip(frozen_slices, pinned):
            x[s] = values
    return x


def latent_length(frame_count: int) -> int:
    """Temporal latent length for a frame count of the form 4k + 1."""
    n = int(frame_count)
    if n < 1 or n % 4 != 1:
        raise InvalidFrameCountError(
            f"frame_count must be positive and congruent to 1 mod 4, got {frame_count}"
        )
    return (n - 1) // 4 + 1
