"""Two-branch attention block: per-modality self-attention, then symmetric
cross-attention between the modalities.

The block keeps two token streams (video and ray) with fully separate
parameters. One forward pass runs in two stages plus a tail:

1. each stream attends to itself with its own branch weights;
2. each stream cross-attends to the *stage-1 output* of the other stream
   (both directions read the same state, neither sees the other's stage-2
   result);
3. each stream runs its own feed-forward.

Every sublayer is pre-normalized (layer norm with a learnable gain, no
bias) and wrapped in a residual connection. Rotary position encoding is
applied to queries and keys per head, with the head dimension split into
three equal segments for the (temporal, row, column) position axes, so
attention scores depend only on relative positions. Learnable per-modality
offset vectors are added to the token features on entry to the block.

All parameters are plain numpy arrays; there is no training code. The
seeded initializer exists so tests and demos are reproducible.

Sequences and parameter sets hold read-only arrays: a writeable input
(or a read-only view of writeable memory) is copied once and the copy is
frozen. That makes a stream's stage 1 (offset add plus self-attention) a
function of the two objects alone, so ``dsca_block`` computes it once per
(sequence, parameter set) pair and reuses it while the caller passes the
same two objects again, as a sampler does for the stream it holds fixed.
The reused state is kept on the sequence, with the parameter set held
weakly, so it lives exactly as long as the sequence it came from; a new
weight set (``dataclasses.replace`` included) is a new object and gets
its stage 1 computed afresh.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeMismatchError

ROPE_BASE = 10000.0
LAYERNORM_EPS = 1e-6
POSITION_AXES = 3


class Modality(enum.Enum):
    VIDEO = "video"
    RAY = "ray"


def _freeze(fresh: np.ndarray) -> np.ndarray:
    """Mark an array that nothing else holds read-only; returns it."""
    fresh.flags.writeable = False
    return fresh


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself when neither it nor any array it views can be
    written, otherwise a frozen copy."""
    base = arr
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    return arr if base is None else _freeze(arr.copy())


def _check_finite(tokens: np.ndarray) -> None:
    if not np.all(np.isfinite(tokens)):
        raise ValueError("tokens contain non-finite values")


class _PickledAsConstructorCall:
    """Unpickles through the constructor: numpy arrays come back writeable,
    so they must be frozen again, and a sequence's kept stage 1 holds a weak
    reference, which cannot be pickled and is not carried over."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class TokenSeq(_PickledAsConstructorCall):
    """Token features with integer (temporal, row, column) positions.

    Both arrays are stored read-only; writeable inputs are copied."""

    tokens: np.ndarray
    positions: np.ndarray
    modality: Modality

    def __post_init__(self):
        tok = np.asarray(self.tokens, dtype=float)
        pos = np.asarray(self.positions)
        if tok.ndim != 2 or tok.shape[0] < 1:
            raise ValueError(f"tokens must be (n, d_model) with n >= 1, got {tok.shape}")
        _check_finite(tok)
        if pos.shape != (tok.shape[0], POSITION_AXES):
            raise ValueError(
                f"positions must be (n, {POSITION_AXES}), got {pos.shape} for n={tok.shape[0]}"
            )
        if not np.issubdtype(pos.dtype, np.integer):
            raise ValueError(f"positions must be integers, got dtype {pos.dtype}")
        if pos.dtype.kind == "u" and pos.max() > np.iinfo(np.int64).max:
            raise ValueError(f"position {pos.max()} does not fit a signed 64-bit integer")
        # in lexicographic order a repeated position is a row equal to the
        # one before it in every axis
        ordered = pos[np.lexsort(pos.T)]
        if not (ordered[1:] != ordered[:-1]).any(axis=1).all():
            raise ValueError("positions must be unique within a sequence")
        object.__setattr__(self, "tokens", _read_only(tok))
        object.__setattr__(self, "positions", _read_only(pos.astype(np.int64, copy=False)))
        object.__setattr__(self, "_kept_stage1", None)

    @property
    def count(self) -> int:
        return self.tokens.shape[0]

    @property
    def d_model(self) -> int:
        return self.tokens.shape[1]


def _with_tokens(source: TokenSeq, tokens: np.ndarray) -> TokenSeq:
    """A sequence of freshly computed ``tokens`` at ``source``'s positions.

    The positions are already validated and read-only, so they are shared
    and only the new tokens' finiteness is checked; nothing else holds the
    tokens, so they are frozen in place rather than copied.
    """
    _check_finite(tokens)
    seq = object.__new__(TokenSeq)
    object.__setattr__(seq, "tokens", _freeze(tokens))
    object.__setattr__(seq, "positions", source.positions)
    object.__setattr__(seq, "modality", source.modality)
    object.__setattr__(seq, "_kept_stage1", None)
    return seq


@dataclass(frozen=True, eq=False)
class BranchParams(_PickledAsConstructorCall):
    """Weights of one modality branch. All linear maps are bias-free.

    Every array is stored read-only; writeable inputs are copied."""

    self_query: np.ndarray
    self_key: np.ndarray
    self_value: np.ndarray
    self_output: np.ndarray
    cross_query: np.ndarray
    cross_key: np.ndarray
    cross_value: np.ndarray
    cross_output: np.ndarray
    ff_in: np.ndarray
    ff_out: np.ndarray
    gain_self: np.ndarray
    gain_cross: np.ndarray
    gain_ff: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _read_only(np.asarray(getattr(self, f.name))))


@dataclass(frozen=True, eq=False)
class DscaBlockParams(_PickledAsConstructorCall):
    """Both branches, the per-modality offsets, and the head count."""

    video: BranchParams
    ray: BranchParams
    offset_video: np.ndarray
    offset_ray: np.ndarray
    head_count: int

    def __post_init__(self):
        for name in ("offset_video", "offset_ray"):
            object.__setattr__(self, name, _read_only(np.asarray(getattr(self, name))))
        d = self.offset_video.shape[0]
        if self.offset_ray.shape != (d,):
            raise ShapeMismatchError(
                f"modality offsets disagree: {self.offset_video.shape} vs {self.offset_ray.shape}"
            )
        if self.head_count < 1 or d % self.head_count != 0:
            raise ShapeMismatchError(
                f"head_count {self.head_count} must divide d_model {d}"
            )
        if (d // self.head_count) % (2 * POSITION_AXES) != 0:
            raise ShapeMismatchError(
                f"head dimension {d // self.head_count} must be divisible by "
                f"{2 * POSITION_AXES} to pair rotary features over {POSITION_AXES} axes"
            )
        for branch in (self.video, self.ray):
            for f in fields(branch):
                w = getattr(branch, f.name)
                if f.name.startswith("gain_"):
                    ok = w.shape == (d,)
                elif f.name == "ff_in":
                    ok = w.ndim == 2 and w.shape[0] == d
                elif f.name == "ff_out":
                    ok = w.ndim == 2 and w.shape[1] == d and w.shape[0] == branch.ff_in.shape[1]
                else:
                    ok = w.shape == (d, d)
                if not ok:
                    raise ShapeMismatchError(f"{f.name} has shape {w.shape}, inconsistent with d_model {d}")

    @property
    def d_model(self) -> int:
        return self.offset_video.shape[0]

    def branch_for(self, modality: Modality) -> BranchParams:
        return self.video if modality is Modality.VIDEO else self.ray

    def offset_for(self, modality: Modality) -> np.ndarray:
        return self.offset_video if modality is Modality.VIDEO else self.offset_ray


def init_dsca_params(rng_seed: int, d_model: int, head_count: int, d_ff: int | None = None) -> DscaBlockParams:
    """Deterministic parameter set: matrices uniform in +-1/sqrt(fan_in),
    gains one, offsets uniform like a d_model fan-in matrix row. The arrays
    are created read-only, so the parameter classes keep them uncopied."""
    if d_ff is None:
        d_ff = 4 * d_model
    rng = np.random.default_rng(rng_seed)

    def mat(n_in, n_out):
        bound = 1.0 / np.sqrt(n_in)
        return _freeze(rng.uniform(-bound, bound, (n_in, n_out)))

    def branch():
        return BranchParams(
            self_query=mat(d_model, d_model),
            self_key=mat(d_model, d_model),
            self_value=mat(d_model, d_model),
            self_output=mat(d_model, d_model),
            cross_query=mat(d_model, d_model),
            cross_key=mat(d_model, d_model),
            cross_value=mat(d_model, d_model),
            cross_output=mat(d_model, d_model),
            ff_in=mat(d_model, d_ff),
            ff_out=mat(d_ff, d_model),
            gain_self=_freeze(np.ones(d_model)),
            gain_cross=_freeze(np.ones(d_model)),
            gain_ff=_freeze(np.ones(d_model)),
        )

    video = branch()
    ray = branch()
    bound = 1.0 / np.sqrt(d_model)
    return DscaBlockParams(
        video=video,
        ray=ray,
        offset_video=_freeze(rng.uniform(-bound, bound, d_model)),
        offset_ray=_freeze(rng.uniform(-bound, bound, d_model)),
        head_count=head_count,
    )


def _rope_angles(length: int, positions: np.ndarray) -> np.ndarray:
    """Rotation angle for every feature pair: positions (n, axes) -> (n, length/2)."""
    axes = positions.shape[1]
    pairs_per_axis = length // (2 * axes)
    k = np.arange(pairs_per_axis)
    theta = ROPE_BASE ** (-2.0 * k / pairs_per_axis)
    # (n, axes, pairs_per_axis) -> (n, total_pairs)
    return (positions[:, :, None] * theta[None, None, :]).reshape(positions.shape[0], -1)


def _rope_table(length: int, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cos and sin of every feature pair's angle, each (n, length/2),
    for rows of ``length`` features at ``positions``."""
    axes = positions.shape[1]
    if length % (2 * axes) != 0:
        raise ShapeMismatchError(
            f"feature length {length} not divisible by {2 * axes} "
            f"(2 x {axes} position axes)"
        )
    angles = _rope_angles(length, positions)
    return np.cos(angles), np.sin(angles)


def _rotate_pairs(mat: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate consecutive feature pairs of ``mat`` (..., n, length) by a
    ``_rope_table``, broadcast over the leading (head) axes."""
    even, odd = mat[..., 0::2], mat[..., 1::2]
    out = np.empty_like(mat)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def _rope_apply(mat: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Rotate consecutive feature pairs of each row by its position angles.

    mat is (..., n, length) with one position row per token; the cos/sin
    table is built once and broadcast over the leading (head) axes.
    """
    return _rotate_pairs(mat, *_rope_table(mat.shape[-1], positions))


def rope_rotate(vec: np.ndarray, position) -> np.ndarray:
    """Rotary position encoding of one feature vector.

    The vector is split into one contiguous segment per position axis; each
    segment's consecutive (even, odd) pairs rotate by position * theta_k,
    theta_k = 10000^(-2k / pairs_per_axis). Norm-preserving; position 0
    leaves the vector unchanged.
    """
    v = np.asarray(vec, dtype=float)
    if v.ndim != 1:
        raise ShapeMismatchError(f"expected a 1-D feature vector, got shape {v.shape}")
    pos = np.asarray(position, dtype=np.int64).reshape(1, -1)
    return _rope_apply(v.reshape(1, -1), pos)[0]


def _layer_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    # a row spread past ~1e154 squares out of float64: refuse it rather than
    # divide by an infinite variance and return zeros
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
    if not np.all(np.isfinite(var)):
        raise ValueError("tokens too large to layer-normalize: their variance overflows float64")
    return (x - mean) / np.sqrt(var + LAYERNORM_EPS) * gain


def _softmax_rows_inplace(scores: np.ndarray) -> np.ndarray:
    """Row softmax of ``scores``, written over it; returns ``scores``."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    return _softmax_rows_inplace(scores.copy())


def _split_heads(x: np.ndarray, head_count: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, head_count, d // head_count).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, n, hd = x.shape
    return x.transpose(1, 0, 2).reshape(n, h * hd)


def _attend(
    q_tokens: np.ndarray,
    q_positions: np.ndarray,
    kv_tokens: np.ndarray,
    kv_positions: np.ndarray,
    w_query: np.ndarray,
    w_key: np.ndarray,
    w_value: np.ndarray,
    w_output: np.ndarray,
    head_count: int,
) -> np.ndarray:
    """Multi-head attention core shared by the self and cross paths.

    Inputs are already normalized; rotary encoding is applied to the
    queries and keys of all heads at once, from one cos/sin table when both
    sides pass the same positions array, as self-attention does. Returns
    the output projection (no residual).
    """
    head_dim = q_tokens.shape[1] // head_count
    q = _split_heads(q_tokens @ w_query, head_count)
    k = _split_heads(kv_tokens @ w_key, head_count)
    v = _split_heads(kv_tokens @ w_value, head_count)
    q_table = _rope_table(head_dim, q_positions)
    k_table = q_table if kv_positions is q_positions else _rope_table(head_dim, kv_positions)
    q = _rotate_pairs(q, *q_table)
    k = _rotate_pairs(k, *k_table)
    scores = q @ k.transpose(0, 2, 1)
    scores /= np.sqrt(head_dim)
    attn = _softmax_rows_inplace(scores)
    return _merge_heads(attn @ v) @ w_output


def self_attention(seq: TokenSeq, params: DscaBlockParams) -> TokenSeq:
    """Multi-head attention of a sequence over itself, with the branch
    selected by the sequence's modality. Pre-normalized, residual added."""
    if seq.d_model != params.d_model:
        raise ShapeMismatchError(
            f"token width {seq.d_model} does not match parameter width {params.d_model}"
        )
    branch = params.branch_for(seq.modality)
    h = _layer_norm(seq.tokens, branch.gain_self)
    out = _attend(
        h, seq.positions, h, seq.positions,
        branch.self_query, branch.self_key, branch.self_value, branch.self_output,
        params.head_count,
    )
    return _with_tokens(seq, seq.tokens + out)


def cross_attention(
    queries_from: TokenSeq, keys_values_from: TokenSeq, params: DscaBlockParams
) -> TokenSeq:
    """Attention of one sequence over another.

    The query sequence's branch supplies every weight used here, including
    the normalization applied to the key/value stream; the peer sequence
    only contributes token features and positions. Residual added to the
    query sequence; output keeps the query modality.
    """
    if queries_from.d_model != keys_values_from.d_model:
        raise ShapeMismatchError(
            f"model widths differ: {queries_from.d_model} vs {keys_values_from.d_model}"
        )
    if queries_from.d_model != params.d_model:
        raise ShapeMismatchError(
            f"token width {queries_from.d_model} does not match parameter width {params.d_model}"
        )
    branch = params.branch_for(queries_from.modality)
    hq = _layer_norm(queries_from.tokens, branch.gain_cross)
    hkv = _layer_norm(keys_values_from.tokens, branch.gain_cross)
    out = _attend(
        hq, queries_from.positions, hkv, keys_values_from.positions,
        branch.cross_query, branch.cross_key, branch.cross_value, branch.cross_output,
        params.head_count,
    )
    return _with_tokens(queries_from, queries_from.tokens + out)


def _gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximate GELU, 0.5 x (1 + tanh(c (x + 0.044715 x^3))), in one
    scratch array. The cube is two multiplies rather than numpy's general
    pow, which is far slower; the two agree to a few ulp."""
    out = x * x
    out *= x
    out *= 0.044715
    out += x
    out *= np.sqrt(2.0 / np.pi)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5 * x
    return out


def _feed_forward(seq: TokenSeq, branch: BranchParams) -> TokenSeq:
    h = _layer_norm(seq.tokens, branch.gain_ff)
    out = _gelu(h @ branch.ff_in) @ branch.ff_out
    return _with_tokens(seq, seq.tokens + out)


def _stage1(seq: TokenSeq, params: DscaBlockParams) -> TokenSeq:
    """Stage 1 of the block for one stream: offset add, then self-attention.

    It reads only ``seq`` and ``params``, whose arrays are read-only, so
    the result is kept on ``seq`` and served again for the same params
    object. The params are held by weak reference: a dead one never
    matches, even if a new object takes its id.
    """
    kept = seq._kept_stage1
    if kept is not None and kept[0]() is params:
        return kept[1]
    shifted = _with_tokens(seq, seq.tokens + params.offset_for(seq.modality))
    out = self_attention(shifted, params)
    object.__setattr__(seq, "_kept_stage1", (weakref.ref(params), out))
    return out


def dsca_block(
    video: TokenSeq, ray: TokenSeq, params: DscaBlockParams
) -> tuple[TokenSeq, TokenSeq]:
    """One full block pass over the two modality streams.

    Adds the per-modality offsets, runs self-attention within each stream,
    then both cross directions in parallel from the stage-1 state, then the
    per-branch feed-forward. Returns (video_out, ray_out).

    A stream passed again with the same params object (a held stream
    across sampler steps) reuses its stage 1 from the earlier call.
    """
    if video.modality is not Modality.VIDEO or ray.modality is not Modality.RAY:
        raise ValueError("dsca_block expects (video, ray) sequences in that order")
    video_1 = _stage1(video, params)
    ray_1 = _stage1(ray, params)

    video_2 = cross_attention(video_1, ray_1, params)
    ray_2 = cross_attention(ray_1, video_1, params)

    video_out = _feed_forward(video_2, params.video)
    ray_out = _feed_forward(ray_2, params.ray)
    return video_out, ray_out
