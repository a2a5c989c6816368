"""A two-stream attention block for video tokens and ray tokens.

Each stream first attends to itself, then each stream cross-attends into
the OTHER stream's self-attention output (both cross directions read the
same stage-1 tensors, so the two streams are treated symmetrically), and a
per-branch feed-forward finishes the block. Positions are (frame, row,
column) triples injected by rotary embeddings split across the three axes,
so only relative offsets matter.
"""

import numpy as np

from raxelkit import Modality, TokenSeq, dsca_block, init_dsca_params

rng = np.random.default_rng(3)
d_model, heads = 24, 2
params = init_dsca_params(rng_seed=0, d_model=d_model, head_count=heads)

def tokens(n, modality, seed):
    r = np.random.default_rng(seed)
    pos = np.stack([np.arange(n) // 4, (np.arange(n) // 2) % 2, np.arange(n) % 2], axis=1)
    return TokenSeq(r.normal(size=(n, d_model)), pos, modality)

video = tokens(8, Modality.VIDEO, 1)
ray = tokens(8, Modality.RAY, 2)

v_out, r_out = dsca_block(video, ray, params)
print(f"video {video.tokens.shape} + ray {ray.tokens.shape} -> "
      f"{v_out.tokens.shape} / {r_out.tokens.shape}")
print(f"modalities preserved: {v_out.modality.value}, {r_out.modality.value}")

# relative positions only: shifting every token's position by the same
# offset leaves the output numerically unchanged
shift = np.array([5, -3, 10])
v2 = TokenSeq(video.tokens, video.positions + shift, Modality.VIDEO)
r2 = TokenSeq(ray.tokens, ray.positions + shift, Modality.RAY)
v_shift, r_shift = dsca_block(v2, r2, params)
print(f"global position shift changes output by "
      f"{np.abs(v_shift.tokens - v_out.tokens).max():.2e}")

# the ray stream reaches the video stream only through stage-2 cross
# attention; zero the video branch's cross-value projection and the video
# output ignores the ray tokens entirely
import dataclasses

silenced = dataclasses.replace(
    params,
    video=dataclasses.replace(params.video, cross_value=np.zeros_like(params.video.cross_value)),
)
other_ray = tokens(8, Modality.RAY, 99)
a, _ = dsca_block(video, ray, silenced)
b, _ = dsca_block(video, other_ray, silenced)
print(f"with cross-value silenced, swapping the ray stream moves video by "
      f"{np.abs(a.tokens - b.tokens).max():.2e}")

# a sampler that predicts rays for a given video holds the video stream
# fixed and reads only ray_out. Each output's cross-attention and
# feed-forward run when its tokens are first read, so a discarded video_out
# costs no stage 2. The held video, passed as the same object with the same
# params, runs its stage 1 and projects its keys and values under the ray
# branch once per Euler run; its queries under the video branch are not
# kept, so a step that reads video_out projects them again. The run matches
# one that builds a fresh video sequence every step
from raxelkit import attention, euler_sample

ran = {"stage 1": 0, "stage 2": 0}
real_self_attention, real_queries, real_keys_values = (
    attention.self_attention, attention._queries, attention._keys_values)


def counted_self_attention(seq, block_params):
    ran["stage 1"] += seq.modality is Modality.VIDEO
    return real_self_attention(seq, block_params)


def counted(real, video_side_weight):
    def projection(h, table, weight, *rest):
        ran["stage 2"] += weight is video_side_weight
        return real(h, table, weight, *rest)
    return projection


attention.self_attention = counted_self_attention
attention._queries = counted(real_queries, params.video.cross_query)
attention._keys_values = counted(real_keys_values, params.ray.cross_key)
x0 = np.random.default_rng(7).normal(size=8 * d_model)


def run(video_for_step, read_video=False):
    ran.update({"stage 1": 0, "stage 2": 0})

    def velocity(x, t):
        ray_t = TokenSeq(x.reshape(8, d_model), ray.positions, Modality.RAY)
        video_out, ray_out = dsca_block(video_for_step(), ray_t, params)
        if read_video:
            video_out.tokens
        return (ray_out.tokens - ray_t.tokens).ravel()

    return euler_sample(x0, velocity, 8), dict(ran)


def fresh_video():
    return TokenSeq(video.tokens, video.positions, Modality.VIDEO)


fresh, fresh_ran = run(fresh_video)
held, held_ran = run(lambda: video)
read_held = fresh_video()
_, fresh_read_ran = run(fresh_video, read_video=True)
_, held_read_ran = run(lambda: read_held, read_video=True)
print(f"8 Euler steps with a held video equal a fresh video every step, bit for bit: "
      f"{np.array_equal(held, fresh)}")
for label, counts in (("fresh video", fresh_ran), ("held video", held_ran),
                      ("fresh video, video_out read", fresh_read_ran),
                      ("held video, video_out read", held_read_ran)):
    print(f"  {label}: stage-1 self-attention {counts['stage 1']}x, "
          f"stage-2 projections {counts['stage 2']}x")
