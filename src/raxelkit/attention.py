"""Two-branch attention block: per-modality self-attention, then symmetric
cross-attention between the modalities.

The block keeps two token streams (video and ray) with fully separate
parameters. One forward pass runs in two stages plus a tail:

1. each stream attends to itself with its own branch weights;
2. each stream cross-attends to the *stage-1 output* of the other stream
   (both directions read the same state, neither sees the other's stage-2
   result);
3. each stream runs its own feed-forward.

``dsca_block`` validates its streams and runs both stage 1s at the call;
each output's stage 2 and feed-forward run when that output's tokens are
first read, so a sampler that holds one stream and reads only the other's
output pays for one cross direction per step. The deferred work holds
only the two frozen stage-1 outputs and the parameter set, so the tokens
are the same bits whenever they are read. A stage-2 error (a non-finite
output, say) raises at that first read, and an unread output keeps both
stage-1 outputs alive.

Every sublayer is pre-normalized (layer norm with a learnable gain, no
bias) and wrapped in a residual connection. Rotary position encoding is
applied to queries and keys per head, with the head dimension split into
three equal segments for the (temporal, row, column) position axes, so
attention scores depend only on relative positions. Learnable per-modality
offset vectors are added to the token features on entry to the block.

All parameters are plain numpy arrays; there is no training code. The
seeded initializer exists so tests and demos are reproducible.

The attention core projects queries, keys and values for all heads at
once, then runs one block of query rows at a time, each head of it
through a single (block, n_kv) score buffer. The queries are scaled by
1/sqrt(head_dim) before the score product, and the softmax is normalized
after the value product: the row sums divide the (block, head_dim) result
rather than the weights. Both differ from the plain formulas by a few
ulp. The feed-forward runs per row block too, so neither the (n, n)
scores nor the (n, d_ff) hidden array is built.

Every BLAS call follows ``geometry``'s one-thread rule: the projections,
the score, value and output products and both feed-forward matmuls run
in row blocks from ``geometry._one_thread_blocks``, each at most
``_GEMM_ONE_THREAD`` (1.0M) multiply-adds with a C-contiguous right
operand, so OpenBLAS never wakes its thread pool. On the ``generate``
shapes (384 tokens, d_model 96, 4 heads, d_ff 384) that is 96-row blocks
for the projections and the attention core and 26-row blocks for the
feed-forward. Each block gives the bits one whole product gives.

Sequences and parameter sets hold read-only arrays by ``geometry``'s
array rule: any input but memory the library froze is copied once and
frozen, and the stored array is a view that cannot be made writeable
again; sublayers pass their fresh tokens frozen, so they are kept. That
makes anything computed from one sequence and one parameter set a
function of the two objects alone, so each sequence has one kept-state
slot for one parameter set: ``dsca_block`` keeps a stream's stage 1
(offset add plus self-attention) there, and ``cross_attention`` keeps the
peer sequence's keys and values there, under the branch that used them.
A sampler that passes the same stream and parameter set at every step, as
it does for the stream it holds fixed, computes that stream's stage 1
and, on that output, the keys and values the other stream reads, once.
Queries are not kept, since a fresh stage-1 output is new at every step.
The parameter set is held weakly, so the kept state lives exactly as
long as the sequence it came from; a new weight set
(``dataclasses.replace`` included) is a new object and gets everything
computed afresh.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeMismatchError
from .geometry import (
    _GEMM_ONE_THREAD,
    _freeze,
    _one_thread_blocks,
    _PickledAsConstructorCall,
    _read_only,
)

ROPE_BASE = 10000.0
LAYERNORM_EPS = 1e-6
POSITION_AXES = 3


class Modality(enum.Enum):
    VIDEO = "video"
    RAY = "ray"


@dataclass(frozen=True, eq=False)
class TokenSeq(_PickledAsConstructorCall):
    """Token features with integer (temporal, row, column) positions.

    Both arrays are stored read-only; inputs the library did not freeze are
    copied."""

    tokens: np.ndarray
    positions: np.ndarray
    modality: Modality

    def __post_init__(self):
        tok = np.asarray(self.tokens, dtype=float)
        pos = np.asarray(self.positions)
        if tok.ndim != 2 or tok.shape[0] < 1:
            raise ValueError(f"tokens must be (n, d_model) with n >= 1, got {tok.shape}")
        if not np.all(np.isfinite(tok)):
            raise ValueError("tokens contain non-finite values")
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
        object.__setattr__(self, "_kept_state", None)

    def __getattr__(self, name):
        # only a dsca_block output lacks its tokens, until they are first
        # read. They are stored before the inputs are dropped, and the first
        # array stored stays, so readers in several threads get one array
        state = self.__dict__
        if name == "tokens":
            inputs = state.get("_stage2_inputs")
            if inputs is not None:
                state.setdefault("tokens", _stage2(*inputs).tokens)
                state.pop("_stage2_inputs", None)
            if "tokens" in state:
                return state["tokens"]
        raise AttributeError(f"'TokenSeq' object has no attribute '{name}'")

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def d_model(self) -> int:
        return self.tokens.shape[1]


@dataclass(frozen=True, eq=False)
class BranchParams(_PickledAsConstructorCall):
    """Weights of one modality branch. All linear maps are bias-free.

    Every array is stored read-only; inputs the library did not freeze are
    copied."""

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
    """Both branches, the per-modality offsets, and the head count. The
    model width and each branch's ``ff_in`` width (d_ff) are at least 1."""

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
            _require_widths(d, branch.ff_in.shape[1])

    @property
    def d_model(self) -> int:
        return self.offset_video.shape[0]

    def branch_for(self, modality: Modality) -> BranchParams:
        return self.video if modality is Modality.VIDEO else self.ray

    def offset_for(self, modality: Modality) -> np.ndarray:
        return self.offset_video if modality is Modality.VIDEO else self.offset_ray


def _require_widths(d_model: int, d_ff: int) -> None:
    """Refuse a block with no features or no hidden units: every one of its
    products would be empty."""
    if d_model < 1 or d_ff < 1:
        raise ShapeMismatchError(f"d_model and d_ff must be at least 1, got {d_model} and {d_ff}")


def init_dsca_params(rng_seed: int, d_model: int, head_count: int, d_ff: int | None = None) -> DscaBlockParams:
    """Deterministic parameter set: matrices uniform in +-1/sqrt(fan_in),
    gains one, offsets uniform like a d_model fan-in matrix row. The arrays
    are created read-only, so the parameter classes keep them uncopied.
    Raises ShapeMismatchError before drawing for a ``d_model`` or ``d_ff``
    under 1."""
    if d_ff is None:
        d_ff = 4 * d_model
    _require_widths(d_model, d_ff)
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


def _rope_table(length: int, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cos and sin of every feature pair's angle, each (n, length/2),
    for rows of ``length`` features at ``positions``."""
    axes = positions.shape[1]
    if length % (2 * axes) != 0:
        raise ShapeMismatchError(
            f"feature length {length} not divisible by {2 * axes} "
            f"(2 x {axes} position axes)"
        )
    pairs_per_axis = length // (2 * axes)
    k = np.arange(pairs_per_axis)
    theta = ROPE_BASE ** (-2.0 * k / pairs_per_axis)
    # (n, axes, pairs_per_axis) -> (n, total_pairs)
    angles = (positions[:, :, None] * theta[None, None, :]).reshape(positions.shape[0], -1)
    return np.cos(angles), np.sin(angles)


def _rotate_pairs(mat: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate consecutive feature pairs of ``mat`` (..., n, length) by a
    ``_rope_table``, broadcast over the leading (head) axes. The result is
    C-contiguous even for a transposed head view, so each head is one
    plain (n, length) block."""
    even, odd = mat[..., 0::2], mat[..., 1::2]
    out = np.empty(mat.shape)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


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
    return _rotate_pairs(v.reshape(1, -1), *_rope_table(v.size, pos))[0]


def _layer_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    # the centred rows serve both the variance (np.var's own steps, so bit
    # for bit) and the output. A row spread past ~1e154 squares out of
    # float64: refuse it rather than divide by an infinite variance and
    # return zeros
    with np.errstate(over="ignore", invalid="ignore"):
        out = x - x.mean(axis=1, keepdims=True)
        var = np.square(out).mean(axis=1, keepdims=True)
    if not np.all(np.isfinite(var)):
        raise ValueError("tokens too large to layer-normalize: their variance overflows float64")
    out /= np.sqrt(var + LAYERNORM_EPS)
    out *= gain
    return out


def _split_heads(x: np.ndarray, head_count: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, head_count, d // head_count).transpose(1, 0, 2)


def _project(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``h @ w`` in row blocks that each stay on the calling thread."""
    out = np.empty((h.shape[0], w.shape[1]))
    for rows in _one_thread_blocks(h.shape[0], (w.shape[0] * w.shape[1], _GEMM_ONE_THREAD)):
        np.matmul(h[rows], w, out=out[rows])
    return out


def _queries(h: np.ndarray, table, w_query: np.ndarray, head_count: int) -> np.ndarray:
    """Rotated (heads, n, head_dim) queries, already scaled by
    1/sqrt(head_dim) so the scores come out of ``q @ k.T`` scaled."""
    q = _rotate_pairs(_split_heads(_project(h, w_query), head_count), *table)
    q *= 1.0 / np.sqrt(q.shape[2])
    return _freeze(q)


def _keys_values(
    h: np.ndarray, table, w_key: np.ndarray, w_value: np.ndarray, head_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rotated keys and values, each a C-contiguous (heads, n, head_dim)."""
    k = _rotate_pairs(_split_heads(_project(h, w_key), head_count), *table)
    v = np.ascontiguousarray(_split_heads(_project(h, w_value), head_count))
    return _freeze(k), _freeze(v)


def _attend_heads(q: np.ndarray, k: np.ndarray, v: np.ndarray, w_output: np.ndarray) -> np.ndarray:
    """Softmax attention of projected queries over projected keys and
    values, then the output projection.

    One block of query rows at a time, every head of it through one reused
    (block, n_kv) score buffer, with blocks small enough that the score,
    value and output products each stay on the calling thread. The keys
    are copied once to (heads, head_dim, n_kv), since OpenBLAS threads a
    product with a transposed right operand such as ``k[h].T`` at half the
    size. The exponentials are left unnormalized, and their row sums
    divide the small (block, head_dim) product instead of the (block,
    n_kv) weights; a block's heads are merged in place and projected
    before the next block.
    """
    heads, n_q, head_dim = q.shape
    n_kv, width = k.shape[1], heads * head_dim
    keys = k.transpose(0, 2, 1).copy()
    # per row, the score and the value product are head_dim * n_kv
    # multiply-adds each, the output projection width * d_out
    blocks = _one_thread_blocks(n_q, (head_dim * n_kv, _GEMM_ONE_THREAD),
                                (width * w_output.shape[1], _GEMM_ONE_THREAD))
    most = blocks[0].stop
    scores = np.empty((most, n_kv))
    sums = np.empty((most, 1))
    merged = np.empty((most, width))
    out = np.empty((n_q, w_output.shape[1]))
    for rows in blocks:
        m = rows.stop - rows.start
        s, r = scores[:m], sums[:m]
        for h in range(heads):
            head = merged[:m, h * head_dim:(h + 1) * head_dim]
            np.matmul(q[h, rows], keys[h], out=s)
            np.maximum.reduce(s, axis=1, keepdims=True, out=r)
            s -= r
            np.exp(s, out=s)
            np.add.reduce(s, axis=1, keepdims=True, out=r)
            np.matmul(s, v[h], out=head)
            head /= r
        np.matmul(merged[:m], w_output, out=out[rows])
    return out


def _kept(seq: TokenSeq, params: DscaBlockParams, key, compute):
    """``compute()``, kept on ``seq`` under ``key`` for this params object.

    A sequence's arrays are read-only, so whatever is computed from it and
    one params object alone stays valid while both live. The slot holds
    the params weakly: a dead one never matches, even if a new object
    takes its id, and a different params object empties the slot.
    """
    slot = seq._kept_state
    if slot is None or slot[0]() is not params:
        slot = (weakref.ref(params), {})
        object.__setattr__(seq, "_kept_state", slot)
    state = slot[1]
    if key not in state:
        state[key] = compute()
    return state[key]


def self_attention(seq: TokenSeq, params: DscaBlockParams) -> TokenSeq:
    """Multi-head attention of a sequence over itself, with the branch
    selected by the sequence's modality. Pre-normalized, residual added."""
    if seq.d_model != params.d_model:
        raise ShapeMismatchError(
            f"token width {seq.d_model} does not match parameter width {params.d_model}"
        )
    branch = params.branch_for(seq.modality)
    heads = params.head_count
    h = _layer_norm(seq.tokens, branch.gain_self)
    # queries and keys share the positions, so one rotary table serves both
    table = _rope_table(params.d_model // heads, seq.positions)
    q = _queries(h, table, branch.self_query, heads)
    k, v = _keys_values(h, table, branch.self_key, branch.self_value, heads)
    out = _attend_heads(q, k, v, branch.self_output)
    return TokenSeq(_freeze(seq.tokens + out), seq.positions, seq.modality)


def cross_attention(
    queries_from: TokenSeq, keys_values_from: TokenSeq, params: DscaBlockParams
) -> TokenSeq:
    """Attention of one sequence over another.

    The query sequence's branch supplies every weight used here, including
    the normalization applied to the key/value stream; the peer sequence
    only contributes token features and positions. Residual added to the
    query sequence; output keeps the query modality.

    The keys and values are kept on the peer sequence, for this params
    object and branch, so a peer passed again (a held stream's stage-1
    output) is projected once; the queries are projected at every call.
    """
    if queries_from.d_model != keys_values_from.d_model:
        raise ShapeMismatchError(
            f"model widths differ: {queries_from.d_model} vs {keys_values_from.d_model}"
        )
    if queries_from.d_model != params.d_model:
        raise ShapeMismatchError(
            f"token width {queries_from.d_model} does not match parameter width {params.d_model}"
        )
    modality = queries_from.modality
    branch = params.branch_for(modality)
    heads = params.head_count
    head_dim = params.d_model // heads

    def normalized(seq):
        """The layer-normalized tokens and the rotary table of the positions."""
        return _layer_norm(seq.tokens, branch.gain_cross), _rope_table(head_dim, seq.positions)

    q = _queries(*normalized(queries_from), branch.cross_query, heads)
    k, v = _kept(keys_values_from, params, ("cross_key_value", modality),
                 lambda: _keys_values(*normalized(keys_values_from),
                                      branch.cross_key, branch.cross_value, heads))
    out = _attend_heads(q, k, v, branch.cross_output)
    return TokenSeq(_freeze(queries_from.tokens + out), queries_from.positions, modality)


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
    """Layer norm, ``ff_in``, GELU, ``ff_out`` and the residual, one row
    block at a time, so no (n, d_ff) hidden array is built; ``ff_in`` and
    ``ff_out`` each stay on the calling thread."""
    x = seq.tokens
    d_model, d_ff = branch.ff_in.shape
    blocks = _one_thread_blocks(x.shape[0], (d_model * d_ff, _GEMM_ONE_THREAD))
    hidden = np.empty((blocks[0].stop, d_ff))
    out = np.empty(x.shape)
    for rows in blocks:
        h = hidden[: rows.stop - rows.start]
        np.matmul(_layer_norm(x[rows], branch.gain_ff), branch.ff_in, out=h)
        np.matmul(_gelu(h), branch.ff_out, out=out[rows])
        out[rows] += x[rows]
    return TokenSeq(_freeze(out), seq.positions, seq.modality)


def _stage1(seq: TokenSeq, params: DscaBlockParams) -> TokenSeq:
    """Stage 1 of the block for one stream: offset add, then self-attention,
    kept on ``seq`` for this params object."""

    def compute():
        shifted = TokenSeq(_freeze(seq.tokens + params.offset_for(seq.modality)),
                           seq.positions, seq.modality)
        return self_attention(shifted, params)

    return _kept(seq, params, "stage1", compute)


def _stage2(seq_1: TokenSeq, peer_1: TokenSeq, params: DscaBlockParams) -> TokenSeq:
    """Stage 2 and the tail of the block for one stream: cross-attention
    from its stage-1 output over the peer's, then its feed-forward."""
    return _feed_forward(cross_attention(seq_1, peer_1, params),
                         params.branch_for(seq_1.modality))


def _unread_stage2(seq_1: TokenSeq, peer_1: TokenSeq, params: DscaBlockParams) -> TokenSeq:
    """A ``TokenSeq`` whose tokens are ``_stage2(seq_1, peer_1, params)``,
    computed when first read; its positions and modality are ``seq_1``'s."""
    out = object.__new__(TokenSeq)
    out.__dict__.update(positions=seq_1.positions, modality=seq_1.modality, _kept_state=None,
                        _stage2_inputs=(seq_1, peer_1, params))
    return out


def dsca_block(
    video: TokenSeq, ray: TokenSeq, params: DscaBlockParams
) -> tuple[TokenSeq, TokenSeq]:
    """One full block pass over the two modality streams.

    Adds the per-modality offsets, runs self-attention within each stream,
    then both cross directions from the stage-1 state, then the per-branch
    feed-forward. Returns (video_out, ray_out).

    The call validates the streams and runs both stage 1s, so input errors
    raise here. Each output's stage 2 (its cross-attention and
    feed-forward) runs when its ``tokens`` are first read, to the same
    bits whenever that is; a stage-2 error (non-finite tokens, say) raises
    at that read, and until then the output keeps both stage-1 outputs
    alive. Positions and modality are set at once.

    A stream passed again with the same params object (a held stream
    across sampler steps) reuses its stage 1 from the earlier call, and
    with it the keys and values of that stage-1 output under the peer
    branch. Its own output's queries are projected at each read.
    """
    if video.modality is not Modality.VIDEO or ray.modality is not Modality.RAY:
        raise ValueError("dsca_block expects (video, ray) sequences in that order")
    video_1 = _stage1(video, params)
    ray_1 = _stage1(ray, params)
    return (_unread_stage2(video_1, ray_1, params),
            _unread_stage2(ray_1, video_1, params))
