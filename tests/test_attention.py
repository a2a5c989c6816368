"""Tests for the two-branch attention block against dense-loop oracles."""

import dataclasses
import gc
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from raxelkit.attention import (
    DscaBlockParams,
    Modality,
    TokenSeq,
    cross_attention,
    dsca_block,
    init_dsca_params,
    rope_rotate,
    self_attention,
)
from raxelkit import attention
from raxelkit.attention import (
    _attend_heads, _gelu, _keys_values, _layer_norm, _queries, _rope_table, _rotate_pairs,
)
from raxelkit.errors import ShapeMismatchError
from raxelkit.flow import FreezeMask, euler_sample

D_MODEL = 24
HEADS = 2
LN_EPS = 1e-6


def make_params(seed=0):
    return init_dsca_params(seed, D_MODEL, HEADS, d_ff=48)


def make_seq(seed, n, modality, d_model=D_MODEL):
    rng = np.random.default_rng(seed)
    positions = np.stack(
        [np.arange(n), np.arange(n) % 3, np.arange(n) // 3], axis=1
    ).astype(np.int64)
    return TokenSeq(rng.normal(size=(n, d_model)), positions, modality)


# ---------------------------------------------------------------- oracles

def rope_oracle(vec, position):
    """One 2x2 rotation matrix at a time."""
    axes = len(position)
    seg = len(vec) // axes
    pairs = seg // 2
    out = np.array(vec, dtype=float)
    for a in range(axes):
        for k in range(pairs):
            angle = position[a] * 10000.0 ** (-2.0 * k / pairs)
            c, s = np.cos(angle), np.sin(angle)
            i0 = a * seg + 2 * k
            x, y = out[i0], out[i0 + 1]
            out[i0] = c * x - s * y
            out[i0 + 1] = s * x + c * y
    return out


def ln_oracle(x, gain):
    out = np.empty_like(x)
    for r in range(x.shape[0]):
        row = x[r]
        out[r] = (row - row.mean()) / np.sqrt(row.var() + LN_EPS) * gain
    return out


def attend_oracle(hq, q_pos, hkv, kv_pos, wq, wk, wv, wo, heads):
    n_q, d = hq.shape
    hd = d // heads
    q, k, v = hq @ wq, hkv @ wk, hkv @ wv
    out = np.zeros((n_q, d))
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        for i in range(n_q):
            qi = rope_oracle(q[i, sl], q_pos[i])
            logits = np.array(
                [qi @ rope_oracle(k[j, sl], kv_pos[j]) / np.sqrt(hd) for j in range(hkv.shape[0])]
            )
            w = np.exp(logits - logits.max())
            w /= w.sum()
            for j in range(hkv.shape[0]):
                out[i, sl] += w[j] * v[j, sl]
    return out @ wo


def gelu_oracle(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def self_attention_oracle(seq, params):
    b = params.branch_for(seq.modality)
    h = ln_oracle(seq.tokens, b.gain_self)
    return seq.tokens + attend_oracle(
        h, seq.positions, h, seq.positions,
        b.self_query, b.self_key, b.self_value, b.self_output, params.head_count,
    )


def cross_attention_oracle(q_seq_tokens, q_pos, q_modality, kv_tokens, kv_pos, params):
    b = params.branch_for(q_modality)
    hq = ln_oracle(q_seq_tokens, b.gain_cross)
    hkv = ln_oracle(kv_tokens, b.gain_cross)
    return q_seq_tokens + attend_oracle(
        hq, q_pos, hkv, kv_pos,
        b.cross_query, b.cross_key, b.cross_value, b.cross_output, params.head_count,
    )


def ff_oracle(tokens, branch):
    h = ln_oracle(tokens, branch.gain_ff)
    return tokens + gelu_oracle(h @ branch.ff_in) @ branch.ff_out


def block_oracle(video, ray, params):
    v = video.tokens + params.offset_video
    r = ray.tokens + params.offset_ray
    v1 = v + attend_oracle(
        ln_oracle(v, params.video.gain_self), video.positions,
        ln_oracle(v, params.video.gain_self), video.positions,
        params.video.self_query, params.video.self_key,
        params.video.self_value, params.video.self_output, params.head_count,
    )
    r1 = r + attend_oracle(
        ln_oracle(r, params.ray.gain_self), ray.positions,
        ln_oracle(r, params.ray.gain_self), ray.positions,
        params.ray.self_query, params.ray.self_key,
        params.ray.self_value, params.ray.self_output, params.head_count,
    )
    v2 = cross_attention_oracle(v1, video.positions, Modality.VIDEO, r1, ray.positions, params)
    r2 = cross_attention_oracle(r1, ray.positions, Modality.RAY, v1, video.positions, params)
    return ff_oracle(v2, params.video), ff_oracle(r2, params.ray)


# ------------------------------------------------------------------ tests

class TestRope:
    def test_zero_position_identity(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=12)
        assert np.array_equal(rope_rotate(v, (0, 0, 0)), v)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.normal(size=18)
            p = rng.integers(-40, 40, size=3)
            assert abs(np.linalg.norm(rope_rotate(v, p)) - np.linalg.norm(v)) < 1e-12

    def test_dot_products_depend_only_on_relative_position(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q, k = rng.normal(size=12), rng.normal(size=12)
            p1, p2 = rng.integers(0, 30, size=3), rng.integers(0, 30, size=3)
            delta = rng.integers(-15, 15, size=3)
            base = rope_rotate(q, p1) @ rope_rotate(k, p2)
            shifted = rope_rotate(q, p1 + delta) @ rope_rotate(k, p2 + delta)
            assert abs(base - shifted) < 1e-9

    def test_matches_pairwise_rotation_oracle(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=24)
        p = np.array([5, -2, 11])
        assert np.max(np.abs(rope_rotate(v, p) - rope_oracle(v, p))) < 1e-12

    def test_indivisible_length_rejected(self):
        with pytest.raises(ShapeMismatchError):
            rope_rotate(np.zeros(10), (1, 2, 3))


class TestSelfAttention:
    def test_single_token(self):
        params = make_params(4)
        seq = make_seq(4, 1, Modality.VIDEO)
        out = self_attention(seq, params)
        b = params.video
        h = ln_oracle(seq.tokens, b.gain_self)
        expected = seq.tokens + (h @ b.self_value) @ b.self_output
        assert np.max(np.abs(out.tokens - expected)) < 1e-12

    def test_zero_queries_give_uniform_attention(self):
        params = make_params(5)
        zeroed = dataclasses.replace(
            params.video, self_query=np.zeros((D_MODEL, D_MODEL))
        )
        params = dataclasses.replace(params, video=zeroed)
        seq = make_seq(5, 6, Modality.VIDEO)
        out = self_attention(seq, params)
        h = ln_oracle(seq.tokens, params.video.gain_self)
        v = h @ params.video.self_value
        expected = seq.tokens + np.tile(v.mean(axis=0), (6, 1)) @ params.video.self_output
        assert np.max(np.abs(out.tokens - expected)) < 1e-10

    def test_matches_dense_oracle(self):
        params = make_params(6)
        for modality, seed in ((Modality.VIDEO, 7), (Modality.RAY, 8)):
            seq = make_seq(seed, 8, modality)
            out = self_attention(seq, params)
            assert np.max(np.abs(out.tokens - self_attention_oracle(seq, params))) < 1e-10
            assert out.modality is modality

    def test_permutation_equivariance(self):
        params = make_params(9)
        seq = make_seq(9, 7, Modality.RAY)
        perm = np.random.default_rng(9).permutation(7)
        out = self_attention(seq, params)
        shuffled = TokenSeq(seq.tokens[perm], seq.positions[perm], seq.modality)
        out_shuffled = self_attention(shuffled, params)
        assert np.max(np.abs(out_shuffled.tokens - out.tokens[perm])) < 1e-10

    def test_width_mismatch_rejected(self):
        params = make_params(10)
        rng = np.random.default_rng(10)
        seq = TokenSeq(rng.normal(size=(3, 12)), [[0, 0, 0], [1, 0, 0], [2, 0, 0]], Modality.VIDEO)
        with pytest.raises(ShapeMismatchError):
            self_attention(seq, params)


class TestCrossAttention:
    def test_single_key_value_token(self):
        params = make_params(11)
        q_seq = make_seq(11, 5, Modality.VIDEO)
        kv_seq = make_seq(12, 1, Modality.RAY)
        out = cross_attention(q_seq, kv_seq, params)
        b = params.video
        hkv = ln_oracle(kv_seq.tokens, b.gain_cross)
        contribution = (hkv @ b.cross_value) @ b.cross_output
        assert np.max(np.abs(out.tokens - (q_seq.tokens + contribution))) < 1e-12
        assert out.modality is Modality.VIDEO

    def test_high_gain_identity_projections_lock_onto_aligned_tokens(self):
        # identical token sets and positions on both sides; with Wq = Wk =
        # s*I the i-th query's score against the i-th key dominates, so each
        # query reads off exactly its aligned value vector
        params = make_params(13)
        scale = 40.0
        locked = dataclasses.replace(
            params.video,
            cross_query=scale * np.eye(D_MODEL),
            cross_key=scale * np.eye(D_MODEL),
        )
        params = dataclasses.replace(params, video=locked)
        q_seq = make_seq(14, 6, Modality.VIDEO)
        kv_seq = TokenSeq(q_seq.tokens.copy(), q_seq.positions.copy(), Modality.RAY)
        out = cross_attention(q_seq, kv_seq, params)
        b = params.video
        hkv = ln_oracle(kv_seq.tokens, b.gain_cross)
        expected = q_seq.tokens + (hkv @ b.cross_value) @ b.cross_output
        assert np.max(np.abs(out.tokens - expected)) < 1e-10

    def test_matches_dense_oracle(self):
        params = make_params(15)
        q_seq = make_seq(16, 5, Modality.RAY)
        kv_seq = make_seq(17, 9, Modality.VIDEO)
        out = cross_attention(q_seq, kv_seq, params)
        expected = cross_attention_oracle(
            q_seq.tokens, q_seq.positions, Modality.RAY,
            kv_seq.tokens, kv_seq.positions, params,
        )
        assert np.max(np.abs(out.tokens - expected)) < 1e-10

    def test_key_value_permutation_invariance(self):
        params = make_params(18)
        q_seq = make_seq(19, 4, Modality.VIDEO)
        kv_seq = make_seq(20, 8, Modality.RAY)
        out = cross_attention(q_seq, kv_seq, params)
        perm = np.random.default_rng(21).permutation(8)
        kv_perm = TokenSeq(kv_seq.tokens[perm], kv_seq.positions[perm], Modality.RAY)
        out_perm = cross_attention(q_seq, kv_perm, params)
        assert np.max(np.abs(out_perm.tokens - out.tokens)) < 1e-10

    def test_width_mismatch_rejected(self):
        params = make_params(22)
        q_seq = make_seq(23, 4, Modality.VIDEO)
        kv_seq = make_seq(24, 4, Modality.RAY, d_model=12)
        with pytest.raises(ShapeMismatchError):
            cross_attention(q_seq, kv_seq, params)


class TestDscaBlock:
    def test_matches_straight_line_oracle(self):
        params = make_params(25)
        video = make_seq(26, 4, Modality.VIDEO)
        ray = make_seq(27, 4, Modality.RAY)
        v_out, r_out = dsca_block(video, ray, params)
        v_exp, r_exp = block_oracle(video, ray, params)
        assert np.max(np.abs(v_out.tokens - v_exp)) < 1e-10
        assert np.max(np.abs(r_out.tokens - r_exp)) < 1e-10

    def test_zero_cross_values_isolate_branches(self):
        params = make_params(28)
        zeros = np.zeros((D_MODEL, D_MODEL))
        params = dataclasses.replace(
            params,
            video=dataclasses.replace(params.video, cross_value=zeros),
            ray=dataclasses.replace(params.ray, cross_value=zeros),
        )
        video = make_seq(29, 5, Modality.VIDEO)
        ray = make_seq(30, 3, Modality.RAY)
        v_out, r_out = dsca_block(video, ray, params)

        def isolated(seq, offset, branch):
            shifted = TokenSeq(seq.tokens + offset, seq.positions, seq.modality)
            after_self = self_attention_oracle(shifted, params)
            return ff_oracle(after_self, branch)

        v_exp = isolated(video, params.offset_video, params.video)
        r_exp = isolated(ray, params.offset_ray, params.ray)
        assert np.max(np.abs(v_out.tokens - v_exp)) < 1e-10
        assert np.max(np.abs(r_out.tokens - r_exp)) < 1e-10

    def test_swapping_streams_and_branches_swaps_outputs_exactly(self):
        params = make_params(31)
        video = make_seq(32, 4, Modality.VIDEO)
        ray = make_seq(33, 6, Modality.RAY)
        v_out, r_out = dsca_block(video, ray, params)

        mirrored = DscaBlockParams(
            video=params.ray,
            ray=params.video,
            offset_video=params.offset_ray,
            offset_ray=params.offset_video,
            head_count=params.head_count,
        )
        as_video = TokenSeq(ray.tokens, ray.positions, Modality.VIDEO)
        as_ray = TokenSeq(video.tokens, video.positions, Modality.RAY)
        v_out_m, r_out_m = dsca_block(as_video, as_ray, mirrored)
        assert np.array_equal(v_out_m.tokens, r_out.tokens)
        assert np.array_equal(r_out_m.tokens, v_out.tokens)

    def test_global_position_shift_invariance(self):
        params = make_params(34)
        video = make_seq(35, 4, Modality.VIDEO)
        ray = make_seq(36, 4, Modality.RAY)
        v_out, r_out = dsca_block(video, ray, params)
        delta = np.array([7, -3, 12])
        video_shifted = TokenSeq(video.tokens, video.positions + delta, Modality.VIDEO)
        ray_shifted = TokenSeq(ray.tokens, ray.positions + delta, Modality.RAY)
        v_out_s, r_out_s = dsca_block(video_shifted, ray_shifted, params)
        assert np.max(np.abs(v_out_s.tokens - v_out.tokens)) < 1e-9
        assert np.max(np.abs(r_out_s.tokens - r_out.tokens)) < 1e-9

    def test_modality_order_enforced(self):
        params = make_params(37)
        video = make_seq(38, 4, Modality.VIDEO)
        ray = make_seq(39, 4, Modality.RAY)
        with pytest.raises(ValueError):
            dsca_block(ray, video, params)


class TestValidation:
    def test_softmax_rows_sum_to_one(self):
        # the core leaves its weights unnormalized until after the value
        # product: all-ones values read back each row's weight sum, one-hot
        # values read back the weights themselves
        rng = np.random.default_rng(40)
        q, k = rng.normal(scale=5.0, size=(3, 6, 6)), rng.normal(size=(3, 6, 6))
        summed = _attend_heads(q, k, np.ones((3, 6, 6)), np.eye(18))
        assert np.max(np.abs(summed - 1.0)) < 1e-9
        weights = _attend_heads(q, k, np.broadcast_to(np.eye(6), (3, 6, 6)), np.eye(18))
        assert weights.min() >= 0.0
        assert np.max(np.abs(weights.reshape(6, 3, 6).sum(axis=-1) - 1.0)) < 1e-9

    def test_head_count_must_divide_d_model(self):
        with pytest.raises(ShapeMismatchError):
            init_dsca_params(0, d_model=24, head_count=5)

    def test_head_dim_must_pair_over_axes(self):
        # head dim 8 cannot split into three axes of 2-D pairs
        with pytest.raises(ShapeMismatchError):
            init_dsca_params(0, d_model=16, head_count=2)

    @pytest.mark.parametrize("d_model, d_ff", [(0, 4), (6, 0), (0, 0)])
    def test_zero_widths_are_refused_by_shape(self, d_model, d_ff):
        # every array consistent with the widths, so only a width is wrong
        def branch():
            square = np.zeros((d_model, d_model))
            return attention.BranchParams(
                *[square] * 8, np.zeros((d_model, d_ff)), np.zeros((d_ff, d_model)),
                *[np.ones(d_model)] * 3)

        with pytest.raises(ShapeMismatchError, match="at least 1"):
            DscaBlockParams(branch(), branch(), np.zeros(d_model), np.zeros(d_model), 1)

    @pytest.mark.parametrize("d_model, d_ff", [(0, 4), (6, 0), (0, 0), (0, None)])
    def test_init_refuses_zero_widths_before_drawing(self, d_model, d_ff):
        with pytest.raises(ShapeMismatchError, match="at least 1"):
            init_dsca_params(0, d_model, 1, d_ff=d_ff)

    def test_one_hidden_unit_is_a_valid_width(self):
        params = init_dsca_params(0, 6, 1, d_ff=1)
        video, ray = dsca_block(make_seq(1, 4, Modality.VIDEO, 6), make_seq(2, 4, Modality.RAY, 6),
                                params)
        assert np.all(np.isfinite(video.tokens)) and np.all(np.isfinite(ray.tokens))

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValueError):
            TokenSeq(np.zeros((2, 12)), [[0, 0, 0], [0, 0, 0]], Modality.VIDEO)

    @pytest.mark.parametrize("axis", range(3))
    def test_positions_differing_in_one_axis_only_are_unique(self, axis):
        pos = np.array([[4, -2, 7], [4, -2, 7]])
        pos[1, axis] += 1
        assert TokenSeq(np.zeros((2, 12)), pos, Modality.VIDEO).count == 2

    def test_one_duplicate_pair_among_unique_positions_rejected(self):
        pos = generate_positions()
        pos[200] = pos[17]
        with pytest.raises(ValueError, match="^positions must be unique within a sequence$"):
            TokenSeq(np.zeros((len(pos), 12)), pos, Modality.VIDEO)

    def test_float_positions_rejected(self):
        with pytest.raises(ValueError):
            TokenSeq(np.zeros((1, 12)), np.array([[0.5, 0.0, 0.0]]), Modality.VIDEO)

    def test_unsigned_positions_past_int64_rejected(self):
        # casting would wrap 2**63 to -2**63
        far = np.array([[2**63, 0, 0], [0, 0, 0]], dtype=np.uint64)
        with pytest.raises(ValueError, match="signed 64-bit"):
            TokenSeq(np.zeros((2, 12)), far, Modality.VIDEO)
        near = np.array([[2**63 - 1, 0, 0], [0, 0, 0]], dtype=np.uint64)
        seq = TokenSeq(np.zeros((2, 12)), near, Modality.VIDEO)
        assert seq.positions[0, 0] == 2**63 - 1

    def test_layer_norm_refuses_an_overflowing_variance(self):
        row = np.zeros((1, D_MODEL))
        row[0, :2] = 1e200, -1e200
        with pytest.raises(ValueError, match="too large to layer-normalize"):
            _layer_norm(row, np.ones(D_MODEL))
        seq = TokenSeq(row, [[0, 0, 0]], Modality.VIDEO)
        with pytest.raises(ValueError, match="too large to layer-normalize"):
            dsca_block(seq, make_seq(41, 3, Modality.RAY), make_params(41))

    def test_layer_norm_keeps_the_formula_bits(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(64, D_MODEL)) * np.logspace(-150, 150, 64)[:, None]
        gain = rng.uniform(0.5, 2.0, D_MODEL)
        mean, var = x.mean(axis=1, keepdims=True), x.var(axis=1, keepdims=True)
        assert np.array_equal(_layer_norm(x, gain), (x - mean) / np.sqrt(var + LN_EPS) * gain)


# ------------------------------------------------- in-place kernels vs. formulas

GEN_SLOTS, GEN_PATCHES, GEN_D_MODEL, GEN_HEADS = 6, 8, 96, 4


def generate_positions():
    """The (slot, row, column) grid of the generate benchmark: 384 tokens."""
    return np.array([
        (t, i, j) for t in range(GEN_SLOTS) for i in range(GEN_PATCHES) for j in range(GEN_PATCHES)
    ])


def formula_rope(mat, positions):
    """Rotary encoding of one (n, length) matrix, written out."""
    pairs = mat.shape[1] // (2 * positions.shape[1])
    theta = 10000.0 ** (-2.0 * np.arange(pairs) / pairs)
    angles = (positions[:, :, None] * theta[None, None, :]).reshape(positions.shape[0], -1)
    cos, sin = np.cos(angles), np.sin(angles)
    out = np.empty_like(mat)
    out[:, 0::2] = mat[:, 0::2] * cos - mat[:, 1::2] * sin
    out[:, 1::2] = mat[:, 0::2] * sin + mat[:, 1::2] * cos
    return out


def formula_softmax(scores):
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def formula_block(video, ray, params):
    """The block as separate out-of-place steps: a rotary pass per head, a
    three-step softmax and a GELU that cubes with pow."""
    heads = params.head_count

    def ln(x, gain):
        mean, var = x.mean(axis=1, keepdims=True), x.var(axis=1, keepdims=True)
        return (x - mean) / np.sqrt(var + LN_EPS) * gain

    def split(x):
        return x.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)

    def attend(hq, q_pos, hkv, kv_pos, wq, wk, wv, wo):
        q, k, v = split(hq @ wq), split(hkv @ wk), split(hkv @ wv)
        for h in range(heads):
            q[h] = formula_rope(q[h], q_pos)
            k[h] = formula_rope(k[h], kv_pos)
        attn = formula_softmax(q @ k.transpose(0, 2, 1) / np.sqrt(q.shape[2]))
        return (attn @ v).transpose(1, 0, 2).reshape(hq.shape[0], -1) @ wo

    def self_part(x, pos, b):
        h = ln(x, b.gain_self)
        return x + attend(h, pos, h, pos, b.self_query, b.self_key, b.self_value, b.self_output)

    def cross_part(x, pos, y, y_pos, b):
        return x + attend(ln(x, b.gain_cross), pos, ln(y, b.gain_cross), y_pos,
                          b.cross_query, b.cross_key, b.cross_value, b.cross_output)

    def ff_part(x, b):
        return x + gelu_oracle(ln(x, b.gain_ff) @ b.ff_in) @ b.ff_out

    bv, br = params.video, params.ray
    v1 = self_part(video.tokens + params.offset_video, video.positions, bv)
    r1 = self_part(ray.tokens + params.offset_ray, ray.positions, br)
    v2 = cross_part(v1, video.positions, r1, ray.positions, bv)
    r2 = cross_part(r1, ray.positions, v1, video.positions, br)
    return ff_part(v2, bv), ff_part(r2, br)


class TestInPlaceKernels:
    def test_rope_on_a_head_stack_equals_per_head_calls(self):
        rng = np.random.default_rng(50)
        positions = generate_positions()
        stack = rng.normal(size=(GEN_HEADS, positions.shape[0], GEN_D_MODEL // GEN_HEADS))
        table = _rope_table(stack.shape[-1], positions)
        per_head = np.stack([_rotate_pairs(stack[h], *table) for h in range(GEN_HEADS)])
        assert np.array_equal(_rotate_pairs(stack, *table), per_head)
        assert np.array_equal(per_head[1], formula_rope(stack[1], positions))

    def test_rope_on_a_transposed_head_view(self):
        # the attention core rotates a (heads, n, head_dim) view of an (n, d) product
        rng = np.random.default_rng(51)
        positions = generate_positions()
        flat = rng.normal(size=(positions.shape[0], GEN_D_MODEL))
        view = flat.reshape(positions.shape[0], GEN_HEADS, -1).transpose(1, 0, 2)
        expected = np.stack([formula_rope(view[h], positions) for h in range(GEN_HEADS)])
        assert np.array_equal(_rotate_pairs(view, *_rope_table(view.shape[-1], positions)), expected)

    def test_self_attention_builds_one_rope_table(self, monkeypatch):
        # queries and keys share seq.positions; cross-attention has two arrays
        built = []
        real = attention._rope_table
        monkeypatch.setattr(attention, "_rope_table",
                            lambda length, positions: built.append(positions) or real(length, positions))
        params = make_params(60)
        video, ray = make_seq(60, 5, Modality.VIDEO), make_seq(61, 4, Modality.RAY)
        self_attention(video, params)
        assert len(built) == 1 and built[0] is video.positions
        cross_attention(video, ray, params)
        assert len(built) == 3 and built[2] is ray.positions

    def test_softmax_matches_formula_and_keeps_its_input(self):
        # the core divides the value product by the row sums rather than the
        # weights by them: a few ulp from the formula, never its inputs changed
        rng = np.random.default_rng(52)
        head_dim = GEN_D_MODEL // GEN_HEADS
        q = rng.normal(scale=8.0 / np.sqrt(head_dim), size=(GEN_HEADS, 384, head_dim))
        k, v = rng.normal(size=(2, GEN_HEADS, 384, head_dim))
        w_output = rng.normal(size=(GEN_D_MODEL, GEN_D_MODEL)) / np.sqrt(GEN_D_MODEL)
        inputs = [a.copy() for a in (q, k, v, w_output)]
        heads = formula_softmax(q @ k.transpose(0, 2, 1)) @ v
        want = heads.transpose(1, 0, 2).reshape(384, GEN_D_MODEL) @ w_output
        assert np.max(np.abs(_attend_heads(q, k, v, w_output) - want)) <= 1e-12
        for a, before in zip((q, k, v, w_output), inputs):
            assert np.array_equal(a, before)

    def test_attend_normalizes_its_scores_in_place(self):
        # one (heads, n, n) score tensor; a second copy for the softmax would
        # put the peak above twice its size
        params = init_dsca_params(3, GEN_D_MODEL, GEN_HEADS)
        branch = params.ray
        positions = generate_positions()
        n = len(positions)
        tokens = np.random.default_rng(55).normal(size=(n, GEN_D_MODEL))
        table = _rope_table(GEN_D_MODEL // GEN_HEADS, positions)
        args = (_queries(tokens, table, branch.self_query, GEN_HEADS),
                *_keys_values(tokens, table, branch.self_key, branch.self_value, GEN_HEADS),
                branch.self_output)
        _attend_heads(*args)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            _attend_heads(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - baseline) / (GEN_HEADS * n * n * 8) <= 1.5

    def test_attend_peak_stays_below_one_full_score_tensor(self):
        # the heads take turns in one (n, n) score buffer, so the core never
        # holds a (heads, n, n) tensor, let alone the softmax's copy of it
        params = init_dsca_params(4, GEN_D_MODEL, GEN_HEADS)
        branch = params.video
        positions = generate_positions()
        n = len(positions)
        rng = np.random.default_rng(56)
        q_tokens, kv_tokens = rng.normal(size=(2, n, GEN_D_MODEL))
        table = _rope_table(GEN_D_MODEL // GEN_HEADS, positions)
        args = (_queries(q_tokens, table, branch.cross_query, GEN_HEADS),
                *_keys_values(kv_tokens, table, branch.cross_key, branch.cross_value, GEN_HEADS),
                branch.cross_output)
        _attend_heads(*args)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            _attend_heads(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - baseline) / (GEN_HEADS * n * n * 8) < 1.0

    def test_gelu_matches_pow_formula(self):
        rng = np.random.default_rng(53)
        x = np.concatenate([
            rng.uniform(-10.0, 10.0, 100_000), rng.normal(size=100_000),
            np.linspace(-10.0, 10.0, 2001), [0.0, -0.0, 1e-300, -1e-300],
        ])
        before = x.copy()
        got, want = _gelu(x), gelu_oracle(x)
        assert np.array_equal(x, before)
        # relative to |x|: on the negative tail 1 + tanh cancels, so an error
        # relative to the output would measure the cancellation, not the cube
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(x))
        positive = x > 0
        assert np.all(np.abs(got - want)[positive] <= 1e-15 * want[positive])

    def test_block_matches_formulas_on_generate_shapes(self):
        params = init_dsca_params(3, GEN_D_MODEL, GEN_HEADS)
        positions = generate_positions()
        rng = np.random.default_rng(54)
        video = TokenSeq(rng.normal(size=(len(positions), GEN_D_MODEL)), positions, Modality.VIDEO)
        ray = TokenSeq(rng.normal(size=(len(positions), GEN_D_MODEL)), positions, Modality.RAY)
        v_out, r_out = dsca_block(video, ray, params)
        v_want, r_want = formula_block(video, ray, params)
        assert np.max(np.abs(v_out.tokens - v_want)) <= 1e-12
        assert np.max(np.abs(r_out.tokens - r_want)) <= 1e-12


# ------------------------------------------- BLAS calls on the calling thread

def whole_attend(q, k, v, w_output):
    """The attention core with one whole-sequence product per step: the
    scores, softmax and value product of each head over all query rows."""
    heads, n_q, head_dim = q.shape
    out = np.empty((heads, n_q, head_dim))
    for h in range(heads):
        scores = np.matmul(q[h], k[h].T)
        scores -= scores.max(axis=1, keepdims=True)
        np.exp(scores, out=scores)
        sums = scores.sum(axis=1, keepdims=True)
        out[h] = np.matmul(scores, v[h])
        out[h] /= sums
    return np.matmul(out.transpose(1, 0, 2).reshape(n_q, heads * head_dim), w_output)


class TestOneThreadProducts:
    """On the generate shapes each blocked product gives the bits of one
    whole ``np.matmul``, so cutting the rows changes no output."""

    def test_projections_equal_one_matmul(self):
        params = init_dsca_params(5, GEN_D_MODEL, GEN_HEADS)
        h = np.random.default_rng(70).normal(size=(len(generate_positions()), GEN_D_MODEL))
        for w in (params.ray.self_query, params.ray.cross_value, params.ray.ff_in):
            assert np.array_equal(attention._project(h, w), np.matmul(h, w))

    def test_attention_core_equals_whole_products(self):
        params = init_dsca_params(6, GEN_D_MODEL, GEN_HEADS)
        branch = params.ray
        positions = generate_positions()
        rng = np.random.default_rng(71)
        q_tokens, kv_tokens = rng.normal(size=(2, len(positions), GEN_D_MODEL))
        table = _rope_table(GEN_D_MODEL // GEN_HEADS, positions)
        q = _queries(q_tokens, table, branch.cross_query, GEN_HEADS)
        k, v = _keys_values(kv_tokens, table, branch.cross_key, branch.cross_value, GEN_HEADS)
        assert np.array_equal(_attend_heads(q, k, v, branch.cross_output),
                              whole_attend(q, k, v, branch.cross_output))

    def test_feed_forward_equals_whole_products(self):
        params = init_dsca_params(7, GEN_D_MODEL, GEN_HEADS)
        branch = params.video
        seq = TokenSeq(np.random.default_rng(72).normal(size=(384, GEN_D_MODEL)),
                       generate_positions(), Modality.VIDEO)
        hidden = np.matmul(_layer_norm(seq.tokens, branch.gain_ff), branch.ff_in)
        want = seq.tokens + np.matmul(_gelu(hidden), branch.ff_out)
        assert np.array_equal(attention._feed_forward(seq, branch).tokens, want)

    def test_core_and_feed_forward_build_no_whole_sequence_array(self):
        # the row blocks hold a (block, n) score buffer and a (block, d_ff)
        # hidden array, never the (n, n) scores or the (n, d_ff) hidden array
        params = init_dsca_params(8, GEN_D_MODEL, GEN_HEADS)
        branch = params.ray
        positions = generate_positions()
        n = len(positions)
        tokens = np.random.default_rng(73).normal(size=(n, GEN_D_MODEL))
        table = _rope_table(GEN_D_MODEL // GEN_HEADS, positions)
        args = (_queries(tokens, table, branch.self_query, GEN_HEADS),
                *_keys_values(tokens, table, branch.self_key, branch.self_value, GEN_HEADS),
                branch.self_output)
        seq = TokenSeq(tokens, positions, Modality.RAY)
        d_ff = branch.ff_in.shape[1]
        for call, whole in ((lambda: _attend_heads(*args), n * n * 8),
                            (lambda: attention._feed_forward(seq, branch), n * d_ff * 8)):
            call()
            tracemalloc.start()
            try:
                baseline = tracemalloc.get_traced_memory()[0]
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - baseline < whole


# The generate shapes in a fresh interpreter: an 8-step frozen-reference
# sample, one dsca_block and the flow loss. Prints their digest, then the CPU
# seconds that threads other than the caller's (OpenBLAS's pool) used over
# the sample, after a warm-up sample.
GENERATE_SCRIPT = """
import hashlib, time
import numpy as np
from raxelkit.attention import Modality, TokenSeq, dsca_block, init_dsca_params
from raxelkit.flow import FlowBatch, FreezeMask, euler_sample, loss, loss_gradient

slots, patches, d_model = 6, 8, 96
positions = np.array([(t, i, j) for t in range(slots) for i in range(patches)
                      for j in range(patches)])
n, width = len(positions), patches * patches * d_model
params = init_dsca_params(11, d_model, 4)
rng = np.random.default_rng(12)
video = TokenSeq(rng.normal(size=(n, d_model)), positions, Modality.VIDEO)
x1 = rng.normal(size=n * d_model)
spans = [(k * width, (k + 1) * width) for k in range(slots)]
mask = FreezeMask((True,) + (False,) * (slots - 1))

def velocity(x, t):
    ray = TokenSeq(x.reshape(-1, d_model), positions, Modality.RAY)
    return (dsca_block(video, ray, params)[1].tokens - ray.tokens).ravel()

def sample(seed):
    x_init = np.random.default_rng(seed).normal(size=x1.shape)
    x_init[: width] = x1[: width]
    x_out = euler_sample(x_init, velocity, 8, mask, spans)
    batch = FlowBatch(x0=x_init, x1=x1, t=0.5)
    report = loss(x_out - x_init, batch)
    return x_out, report, loss_gradient(x_out - x_init, batch)

sample(0)
time.sleep(0.5)
others = time.process_time() - time.thread_time()
x_out, report, grad = sample(1)
others = time.process_time() - time.thread_time() - others
ray = TokenSeq(x_out.reshape(-1, d_model), positions, Modality.RAY)
video_out, ray_out = dsca_block(video, ray, params)
digest = hashlib.sha256()
for arr in (x_out, video_out.tokens, ray_out.tokens, grad, np.array([report.total])):
    digest.update(arr.tobytes())
print(digest.hexdigest())
print(others)
"""


def test_generate_bytes_do_not_depend_on_the_blas_thread_count():
    # at 384 tokens every product of the block, and every dot of the loss
    # over the 36864-entry state, is large enough for OpenBLAS to split
    # across threads if one call covered it whole
    src = str(Path(attention.__file__).resolve().parent.parent)
    outputs = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run([sys.executable, "-c", GENERATE_SCRIPT], env=env, check=True,
                              timeout=300, capture_output=True, text=True)
        outputs.append(done.stdout.split())
    assert outputs[0][0] == outputs[1][0]
    # the pool never woke at the default thread count: one woken call keeps
    # a pool thread spinning for about 0.1 s
    assert float(outputs[0][1]) < 0.02


# ------------------------------------------------- stage 1 of a held stream

def count_self_attention(monkeypatch):
    calls = []
    real = attention.self_attention

    def counting(seq, params):
        calls.append(seq.modality)
        return real(seq, params)

    monkeypatch.setattr(attention, "self_attention", counting)
    return calls


def generate_inputs():
    """Video tokens and an initial ray state on the generate shapes."""
    n = len(generate_positions())
    rng = np.random.default_rng(60)
    return rng.normal(size=(n, GEN_D_MODEL)), rng.normal(size=n * GEN_D_MODEL)


def generate_run(params, video_for_step, x_init, read_video=False):
    """An 8-step frozen-reference Euler run over the generate shapes: a ray
    stream from the state at every step, against ``video_for_step()``. The
    velocity discards ``video_out`` unread unless ``read_video``."""
    positions = generate_positions()
    width = GEN_PATCHES * GEN_PATCHES * GEN_D_MODEL
    spans = [(k * width, (k + 1) * width) for k in range(GEN_SLOTS)]
    mask = FreezeMask((True,) + (False,) * (GEN_SLOTS - 1))

    def velocity(x, t):
        ray = TokenSeq(x.reshape(-1, GEN_D_MODEL), positions, Modality.RAY)
        video_out, ray_out = dsca_block(video_for_step(), ray, params)
        if read_video:
            video_out.tokens
        return (ray_out.tokens - ray.tokens).ravel()

    return euler_sample(x_init, velocity, 8, mask, spans)


def count_cross_attention(monkeypatch):
    """The query modality of every cross_attention call."""
    calls = []
    real = attention.cross_attention

    def counting(queries_from, keys_values_from, params):
        calls.append(queries_from.modality)
        return real(queries_from, keys_values_from, params)

    monkeypatch.setattr(attention, "cross_attention", counting)
    return calls


class TestHeldStreamReuse:
    def test_euler_run_matches_a_fresh_video_every_step(self, monkeypatch):
        params = init_dsca_params(3, GEN_D_MODEL, GEN_HEADS)
        positions = generate_positions()
        video_tokens, x_init = generate_inputs()
        held = TokenSeq(video_tokens, positions, Modality.VIDEO)

        calls = count_self_attention(monkeypatch)
        fresh = generate_run(
            params, lambda: TokenSeq(video_tokens, positions, Modality.VIDEO), x_init)
        assert calls.count(Modality.VIDEO) == 8
        calls.clear()
        reused = generate_run(params, lambda: held, x_init)
        assert calls.count(Modality.VIDEO) == 1 and calls.count(Modality.RAY) == 8
        assert np.array_equal(reused, fresh)

    def test_held_video_projects_its_stage2_side_once_per_run(self, monkeypatch):
        self.check_held_video_projections(monkeypatch, read_video=False)

    def test_held_video_projects_both_stage2_sides_once_per_run_when_video_out_is_read(
            self, monkeypatch):
        self.check_held_video_projections(monkeypatch, read_video=True)

    @staticmethod
    def check_held_video_projections(monkeypatch, read_video):
        # the held video's stage-1 output is normalized for its keys and
        # values (ray branch) in the first step only and, when video_out is
        # read, for its queries (video branch) at every step, since queries
        # are not kept; a replaced params object starts again
        sides = 2 if read_video else 1
        held_count = 9 if read_video else 1
        params = init_dsca_params(3, GEN_D_MODEL, GEN_HEADS)
        positions = generate_positions()
        video_tokens, x_init = generate_inputs()
        stage1 = self_attention(
            TokenSeq(video_tokens + params.offset_video, positions, Modality.VIDEO), params
        ).tokens
        normalized = []
        real = attention._layer_norm

        def counting(x, gain):
            if x.shape == stage1.shape and np.array_equal(x, stage1):
                normalized.append(gain)
            return real(x, gain)

        monkeypatch.setattr(attention, "_layer_norm", counting)
        fresh = generate_run(
            params, lambda: TokenSeq(video_tokens, positions, Modality.VIDEO), x_init, read_video)
        assert len(normalized) == sides * 8
        normalized.clear()
        held = TokenSeq(video_tokens, positions, Modality.VIDEO)
        assert np.array_equal(generate_run(params, lambda: held, x_init, read_video), fresh)
        gains = [params.video.gain_cross, params.ray.gain_cross][2 - sides:]
        gains += [params.video.gain_cross] * (held_count - sides)
        assert len(normalized) == held_count
        assert all(got is want for got, want in zip(normalized, gains))
        normalized.clear()
        replaced = dataclasses.replace(params)
        assert np.array_equal(generate_run(replaced, lambda: held, x_init, read_video), fresh)
        assert len(normalized) == held_count

    def test_fresh_stage1_output_keeps_nothing_when_only_the_other_output_is_read(self):
        # a sampler that holds the video reads only ray_out: the ray stream
        # keeps its stage 1, the video's stage-1 output keeps its keys and
        # values under the ray branch, and the fresh ray stage-1 output,
        # whose queries ray_out used, keeps nothing
        params = make_params(69)
        video, ray = make_seq(70, 4, Modality.VIDEO), make_seq(71, 5, Modality.RAY)
        _, ray_out = dsca_block(video, ray, params)
        ray_out.tokens
        video_1, ray_1 = video._kept_state[1]["stage1"], ray._kept_state[1]["stage1"]
        assert set(ray._kept_state[1]) == {"stage1"}
        assert set(video_1._kept_state[1]) == {("cross_key_value", Modality.RAY)}
        assert ray_1._kept_state is None

    def test_held_ray_stream_reuses_its_stage1(self, monkeypatch):
        params = make_params(61)
        ray = make_seq(62, 5, Modality.RAY)
        calls = count_self_attention(monkeypatch)
        for seed in (63, 64, 65):
            video = make_seq(seed, 4, Modality.VIDEO)
            _, r_out = dsca_block(video, ray, params)
            fresh_ray = TokenSeq(ray.tokens, ray.positions, Modality.RAY)
            _, r_fresh = dsca_block(video, fresh_ray, params)
            assert np.array_equal(r_out.tokens, r_fresh.tokens)
        # held: once; each fresh copy: once per block
        assert calls.count(Modality.RAY) == 1 + 3

    def test_caller_arrays_are_copied_and_stored_read_only(self):
        params = make_params(66)
        ray = make_seq(67, 4, Modality.RAY)
        tokens = np.random.default_rng(68).normal(size=(4, D_MODEL))
        positions = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]])
        seq = TokenSeq(tokens, positions, Modality.VIDEO)
        before, _ = dsca_block(seq, ray, params)
        expected, _ = dsca_block(TokenSeq(tokens.copy(), positions.copy(), Modality.VIDEO),
                                 ray, params)
        tokens += 1.0
        positions[:] = positions[::-1]
        after, _ = dsca_block(seq, ray, params)
        assert np.array_equal(after.tokens, before.tokens)
        assert np.array_equal(after.tokens, expected.tokens)
        with pytest.raises(ValueError, match="read-only"):
            seq.tokens[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            seq.positions[0, 0] = 5
        # a read-only view does not protect the memory beneath it
        view = tokens.view()
        view.flags.writeable = False
        viewed, snapshot = TokenSeq(view, positions, Modality.VIDEO), tokens.copy()
        tokens += 1.0
        assert np.array_equal(viewed.tokens, snapshot)
        # weights: kept when frozen, copied when the caller could still write them
        assert not params.video.self_query.flags.writeable
        weight = np.array(params.video.self_value)
        replaced = dataclasses.replace(params.video, self_value=weight)
        assert replaced.self_query is params.video.self_query
        weight[:] = 0.0
        assert np.array_equal(replaced.self_value, params.video.self_value)

    def test_replaced_weights_give_fresh_results(self):
        params = make_params(69)
        video = make_seq(70, 4, Modality.VIDEO)
        ray = make_seq(71, 4, Modality.RAY)
        old, _ = dsca_block(video, ray, params)
        for changed in (
            dataclasses.replace(params, video=dataclasses.replace(
                params.video, self_value=np.zeros_like(params.video.self_value))),
            dataclasses.replace(params, offset_video=np.zeros(D_MODEL)),
        ):
            new, _ = dsca_block(video, ray, changed)
            want, _ = dsca_block(TokenSeq(video.tokens, video.positions, Modality.VIDEO),
                                 ray, changed)
            assert np.array_equal(new.tokens, want.tokens)
            assert not np.array_equal(new.tokens, old.tokens)

    def test_reused_state_lives_no_longer_than_its_sequence(self):
        params = make_params(72)
        video = make_seq(73, 4, Modality.VIDEO)
        dsca_block(video, make_seq(74, 4, Modality.RAY), params)
        stage1 = weakref.ref(video._kept_state[1]["stage1"])
        # the sequence holds its params weakly
        dropped = dataclasses.replace(params)
        dsca_block(video, make_seq(75, 4, Modality.RAY), dropped)
        dropped_ref = weakref.ref(dropped)
        del dropped
        gc.collect()
        assert dropped_ref() is None
        del video
        gc.collect()
        assert stage1() is None

    def test_pickle_round_trip_keeps_arrays_read_only(self):
        params = make_params(76)
        video = make_seq(77, 4, Modality.VIDEO)
        ray = make_seq(78, 4, Modality.RAY)
        out, _ = dsca_block(video, ray, params)
        video_back, params_back = pickle.loads(pickle.dumps((video, params)))
        assert video_back._kept_state is None
        assert not video_back.tokens.flags.writeable
        assert not params_back.offset_ray.flags.writeable
        assert not params_back.ray.ff_in.flags.writeable
        again, _ = dsca_block(video_back, ray, params_back)
        assert np.array_equal(again.tokens, out.tokens)


class TestStage2OnRead:
    """dsca_block runs each output's cross-attention and feed-forward when
    that output's tokens are first read, to the same bits."""

    def test_generate_run_cross_attends_once_per_step_for_an_unread_video_out(self, monkeypatch):
        params = init_dsca_params(3, GEN_D_MODEL, GEN_HEADS)
        video_tokens, x_init = generate_inputs()
        positions = generate_positions()
        held = TokenSeq(video_tokens, positions, Modality.VIDEO)
        calls = count_cross_attention(monkeypatch)
        unread = generate_run(params, lambda: held, x_init)
        assert calls == [Modality.RAY] * 8
        calls.clear()
        fresh = generate_run(params, lambda: TokenSeq(video_tokens, positions, Modality.VIDEO),
                             x_init, read_video=True)
        assert calls == [Modality.VIDEO, Modality.RAY] * 8
        assert np.array_equal(unread, fresh)

    def test_held_ray_run_cross_attends_once_per_step_for_an_unread_ray_out(self, monkeypatch):
        # camera-controlled generation: the trajectory is given, the video sampled
        params = init_dsca_params(4, GEN_D_MODEL, GEN_HEADS)
        positions = generate_positions()
        ray_tokens, x_init = generate_inputs()
        held = TokenSeq(ray_tokens, positions, Modality.RAY)
        calls = count_cross_attention(monkeypatch)

        def run(read_ray):
            def velocity(x, t):
                video = TokenSeq(x.reshape(-1, GEN_D_MODEL), positions, Modality.VIDEO)
                video_out, ray_out = dsca_block(video, held, params)
                if read_ray:
                    ray_out.tokens
                return (video_out.tokens - video.tokens).ravel()

            return euler_sample(x_init, velocity, 8)

        unread = run(read_ray=False)
        assert calls == [Modality.VIDEO] * 8
        calls.clear()
        assert np.array_equal(run(read_ray=True), unread)
        assert calls == [Modality.RAY, Modality.VIDEO] * 8

    def test_video_out_is_the_eager_result_whenever_it_is_read(self, monkeypatch):
        params = make_params(80)
        video = make_seq(81, 5, Modality.VIDEO)
        rays = [make_seq(seed, 4, Modality.RAY) for seed in (82, 83, 84)]

        def stage1(seq):
            shifted = TokenSeq(seq.tokens + params.offset_for(seq.modality), seq.positions,
                               seq.modality)
            return self_attention(shifted, params)

        # the eager block: stage 2 straight after both stage 1s
        eager = [attention._feed_forward(cross_attention(stage1(video), stage1(ray), params),
                                         params.video).tokens for ray in rays]
        calls = count_cross_attention(monkeypatch)
        outs = [dsca_block(video, ray, params)[0] for ray in rays]
        assert calls == []
        assert all(out.positions is outs[0].positions and out.modality is Modality.VIDEO
                   for out in outs)
        # read after later calls, and read before the next call
        assert np.array_equal(outs[0].tokens, eager[0])
        read_at_once = dsca_block(video, rays[1], params)[0].tokens
        dsca_block(video, rays[2], params)
        assert np.array_equal(read_at_once, eager[1])
        for out, want in zip(outs, eager):
            assert np.array_equal(out.tokens, want)
            assert out.tokens is out.tokens and not out.tokens.flags.writeable
        assert calls == [Modality.VIDEO] * 4

    def test_an_unread_output_holds_both_stage1_outputs_until_dropped(self):
        params = make_params(85)
        video, ray = make_seq(86, 4, Modality.VIDEO), make_seq(87, 4, Modality.RAY)
        video_out, ray_out = dsca_block(video, ray, params)
        stage1 = [weakref.ref(seq._kept_state[1]["stage1"]) for seq in (video, ray)]
        del video, ray
        gc.collect()
        assert all(ref() is not None for ref in stage1)
        del video_out
        gc.collect()
        assert all(ref() is not None for ref in stage1)
        del ray_out
        gc.collect()
        assert all(ref() is None for ref in stage1)

    def test_a_read_output_lets_go_of_the_stage1_outputs(self):
        params = make_params(88)
        video, ray = make_seq(89, 4, Modality.VIDEO), make_seq(90, 4, Modality.RAY)
        outs = dsca_block(video, ray, params)
        stage1 = [weakref.ref(seq._kept_state[1]["stage1"]) for seq in (video, ray)]
        for out in outs:
            out.tokens
        del video, ray
        gc.collect()
        assert all(ref() is None for ref in stage1)

    def test_a_stage2_error_raises_when_the_output_is_first_read(self):
        params = make_params(91)
        # cross-attention output past ~1e154, which the feed-forward's norm refuses
        loud = dataclasses.replace(params, video=dataclasses.replace(
            params.video, cross_output=np.full_like(params.video.cross_output, 1e200)))
        video_out, ray_out = dsca_block(
            make_seq(92, 4, Modality.VIDEO), make_seq(93, 4, Modality.RAY), loud)
        assert video_out.count == 4 and video_out.modality is Modality.VIDEO
        assert np.all(np.isfinite(ray_out.tokens))
        for _ in range(2):
            with pytest.raises(ValueError, match="too large to layer-normalize"):
                video_out.tokens

    def test_threads_reading_one_output_get_one_array(self):
        params = make_params(94)
        video, ray = make_seq(95, 6, Modality.VIDEO), make_seq(96, 6, Modality.RAY)
        want = dsca_block(video, ray, params)[1].tokens
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                _, ray_out = dsca_block(video, ray, params)
                got = []
                readers = [threading.Thread(target=lambda: got.append(ray_out.tokens))
                           for _ in range(4)]
                for reader in readers:
                    reader.start()
                for reader in readers:
                    reader.join(timeout=30)
                assert not any(reader.is_alive() for reader in readers)
                assert len(got) == 4 and all(tokens is got[0] for tokens in got)
                assert np.array_equal(got[0], want)
        finally:
            sys.setswitchinterval(switch)
