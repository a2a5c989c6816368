"""Acceptance gate: ten end-to-end criteria, one test (and one pass/fail
line) each, every tolerance and runtime budget asserted explicitly; a
criterion's oracle may also back a further test next to it.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
verdict lines.
"""

import os
import time

import numpy as np
import pytest

from raxelkit.attention import (
    LAYERNORM_EPS,
    Modality,
    TokenSeq,
    _attend_heads,
    cross_attention,
    dsca_block,
    init_dsca_params,
    rope_rotate,
    self_attention,
)
from raxelkit.cli import main as cli_main
from raxelkit.decode import decode_trajectory, recover_focal
from raxelkit.errors import InvalidFrameCountError
from raxelkit.flow import (
    FlowBatch,
    FreezeMask,
    euler_sample,
    latent_length,
    loss,
    loss_gradient,
)
from raxelkit.geometry import (
    CameraFrame,
    Intrinsics,
    Pose,
    Trajectory,
    axis_angle_rotation,
    compose,
    geodesic_rotation_distance,
    random_pose,
    rotation_angle,
)
from raxelkit.io import load_raxel, load_trajectory, save_raxel, save_trajectory
from raxelkit.rays import RayGrid, encode_raxel, encode_trajectory_raxels
from raxelkit.registration import register

import dataclasses


def _budget(t0: float, seconds: float, label: str) -> float:
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"{label} took {elapsed:.1f}s, budget {seconds}s"
    return elapsed


def _trajectory(intrinsics, poses, reference_index=0):
    frames = tuple(
        CameraFrame(intrinsics=intrinsics, pose=p, index=k) for k, p in enumerate(poses)
    )
    return Trajectory(frames=frames, reference_index=reference_index)


# --------------------------------------------------------------------------
# 1. encode -> decode round trip on random trajectories


def test_criterion_01_round_trip_exactness():
    t0 = time.perf_counter()
    intr = Intrinsics(fx=700.0, fy=650.0, cx=416.0, cy=240.0, width=832, height=480)
    assert (intr.height // 2, intr.width // 2) == (240, 416)

    from raxelkit.evaluation import mrra

    for seed in range(50):
        poses = [Pose.identity()]
        for k in range(1, 21):
            poses.append(random_pose(1000 * seed + k, 0.5, 2.0))
        gt = _trajectory(intr, poses)
        images = encode_trajectory_raxels(gt)
        decoded, failures = decode_trajectory(images, 0, intr.width, intr.height)
        assert failures == []

        pred_poses = [d.pose for d in decoded]
        for k in range(21):
            assert geodesic_rotation_distance(pred_poses[k], poses[k]) < 1e-9
            assert np.linalg.norm(pred_poses[k].translation - poses[k].translation) < 1e-9
            assert abs(decoded[k].fx_hat - intr.fx) / intr.fx < 1e-6
            assert abs(decoded[k].fy_hat - intr.fy) / intr.fy < 1e-6
        # every relative rotation between frame pairs, not just per-frame
        for i in range(0, 21, 5):
            for j in range(i + 1, 21, 3):
                rel_p = pred_poses[i].rotation.T @ pred_poses[j].rotation
                rel_g = poses[i].rotation.T @ poses[j].rotation
                assert rotation_angle(rel_p.T @ rel_g) < 1e-9

        pred = _trajectory(intr, pred_poses)
        assert mrra(pred, gt, tau=30.0) == 1.0

    elapsed = _budget(t0, 60.0, "round trip")
    print(f"\ncriterion 1 PASS: 50 random 21-frame trajectories decode to <1e-9 "
          f"pose / <1e-6 focal, mRRA@30 = 1.0 ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 2. registration: known transforms, optimality, equivariance


def _cost(target, source, pose):
    r = target - (source @ pose.rotation.T + pose.translation)
    return float(np.einsum("ij,ij->", r, r))


def test_criterion_02_registration_optimality_and_equivariance():
    t0 = time.perf_counter()

    for seed in range(1000):
        rng = np.random.default_rng(seed)
        axis = rng.normal(size=3)
        rot = axis_angle_rotation(axis, rng.uniform(0.0, np.pi * 0.95))
        trans = rng.normal(size=3) * 3.0
        src = rng.normal(size=(40, 3))
        tgt = src @ rot.T + trans
        result = register(tgt, src)
        assert rotation_angle(result.pose.rotation.T @ rot) < 1e-10
        assert np.linalg.norm(result.pose.translation - trans) < 1e-10

    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        true = random_pose(10_000 + seed, 2.5, 2.0)
        src = rng.normal(size=(30, 3))
        tgt = src @ true.rotation.T + true.translation + rng.normal(scale=0.05, size=(30, 3))
        result = register(tgt, src)
        base = _cost(tgt, src, result.pose)
        for p in range(6):
            delta = random_pose(777_000 + seed * 6 + p, 10.0 ** (-2 - p % 3), 10.0 ** (-2 - p % 3))
            assert _cost(tgt, src, compose(delta, result.pose)) >= base - 1e-10

        g = random_pose(555_000 + seed, 3.0, 4.0)
        moved = register(tgt @ g.rotation.T + g.translation, src)
        expected = compose(g, result.pose)
        assert geodesic_rotation_distance(moved.pose, expected) < 1e-9
        assert np.linalg.norm(moved.pose.translation - expected.translation) < 1e-9

    elapsed = _budget(t0, 30.0, "registration")
    print(f"\ncriterion 2 PASS: 1000 known transforms <1e-10; optimality and "
          f"equivariance over 100 seeds ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 3. focal recovery: anisotropic exactness and median breakdown


def test_criterion_03_focal_recovery():
    t0 = time.perf_counter()
    width, height = 640, 480

    for seed in range(20):
        rng = np.random.default_rng(seed)
        fx = 300.0 + 600.0 * rng.random()
        fy = fx * (1.15 + 0.6 * rng.random())  # guaranteed anisotropic
        intr = Intrinsics(fx=fx, fy=fy, cx=320.0, cy=240.0, width=width, height=height)
        pose = random_pose(50 + seed, 0.4, 1.5)
        image = encode_raxel(CameraFrame(intrinsics=intr, pose=pose, index=0), pose)
        fx_hat, fy_hat, inlier_fraction = recover_focal(image, pose, width, height)
        assert abs(fx_hat - fx) / fx < 1e-6
        assert abs(fy_hat - fy) / fy < 1e-6
        assert inlier_fraction > 0.9

    intr = Intrinsics(fx=555.0, fy=444.0, cx=320.0, cy=240.0, width=width, height=height)
    pose = Pose.identity()
    clean = encode_raxel(CameraFrame(intrinsics=intr, pose=pose, index=0), pose)
    data = clean.data.copy()
    flat = data.reshape(-1, 3)
    rng = np.random.default_rng(99)
    count = int(round(0.49 * flat.shape[0]))
    hit = rng.choice(flat.shape[0], size=count, replace=False)
    flat[hit] = rng.normal(scale=3.0, size=(count, 3))
    fx_hat, fy_hat, _ = recover_focal(RayGrid(data), pose, width, height)
    assert abs(fx_hat - intr.fx) / intr.fx < 0.01
    assert abs(fy_hat - intr.fy) / intr.fy < 0.01

    elapsed = _budget(t0, 30.0, "focal recovery")
    print(f"\ncriterion 3 PASS: anisotropic focal <1e-6 over 20 seeds; "
          f"49% corruption drifts <1% ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 4. training objective gradient vs central differences


def test_criterion_04_objective_gradient():
    t0 = time.perf_counter()
    h = 1e-5

    for seed in range(100):
        for dim in (4, 16, 64):
            rng = np.random.default_rng(seed * 100 + dim)
            batch = FlowBatch(
                x0=rng.normal(size=dim), x1=rng.normal(size=dim), t=rng.uniform(0.0, 1.0)
            )
            prediction = rng.normal(size=dim)
            analytic = loss_gradient(prediction, batch)
            numeric = np.empty(dim)
            for i in range(dim):
                up, down = prediction.copy(), prediction.copy()
                up[i] += h
                down[i] -= h
                numeric[i] = (loss(up, batch).total - loss(down, batch).total) / (2 * h)
            denom = max(float(np.linalg.norm(analytic)), 1.0)
            assert np.linalg.norm(numeric - analytic) / denom < 1e-5

    rng = np.random.default_rng(7)
    batch = FlowBatch(x0=rng.normal(size=12), x1=rng.normal(size=12), t=0.4)
    u = batch.x1 - batch.x0
    prediction = rng.normal(size=12)
    reference = loss(prediction, batch).cosine_term
    for alpha in (0.01, 3.0, 250.0):
        assert abs(loss(alpha * prediction, batch).cosine_term - reference) < 1e-12

    report = loss(2.0 * u, batch)
    assert abs(report.cosine_term) < 1e-12
    assert abs(report.total - float(u @ u)) < 1e-9 * max(float(u @ u), 1.0)

    elapsed = _budget(t0, 10.0, "gradient check")
    print(f"\ncriterion 4 PASS: analytic gradient matches central differences "
          f"<1e-5 over 100 seeds x dims 4/16/64; scale invariance and 2u case "
          f"<1e-12 ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 5. Euler sampler contracts


def test_criterion_05_sampler_contracts():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    start = rng.normal(size=32)
    velocity = rng.normal(size=32)

    for steps in (1, 2, 3, 7, 10, 37, 100):
        out = euler_sample(start, lambda x, t: velocity, steps)
        assert np.abs(out - (start + velocity)).max() < 1e-12

    exact = start * np.exp(-1.0)
    errors = {}
    for steps in (250, 500, 1000):
        out = euler_sample(start, lambda x, t: -x, steps)
        errors[steps] = float(np.abs(out - exact).max())
    assert 1.8 < errors[250] / errors[500] < 2.2
    assert 1.8 < errors[500] / errors[1000] < 2.2

    spans = ((0, 12), (12, 32))
    mask = FreezeMask(frozen=(True, False))
    seen = []

    def probing(x, t):
        seen.append(x[:12].copy())
        return rng.standard_normal(32) * 0.0 + 1.0

    out = euler_sample(start, probing, 8, mask=mask, group_spans=spans)
    assert np.array_equal(out[:12], start[:12])  # bit-identical, not just close
    assert np.abs(out[12:] - (start[12:] + 1.0)).max() < 1e-12
    for snapshot in seen:
        assert np.array_equal(snapshot, start[:12])

    elapsed = _budget(t0, 10.0, "sampler")
    print(f"\ncriterion 5 PASS: linear paths exact at any step count; error "
          f"halving x2 +-10%; frozen span bit-identical ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 6. attention block vs dense oracles


def _oracle_rope(mat, positions):
    n, length = mat.shape
    pairs = length // 2
    per_axis = pairs // 3
    out = np.empty_like(mat)
    for r in range(n):
        for k in range(pairs):
            axis, idx = divmod(k, per_axis)
            angle = positions[r, axis] * 10000.0 ** (-2.0 * idx / per_axis)
            c, s = np.cos(angle), np.sin(angle)
            x, y = mat[r, 2 * k], mat[r, 2 * k + 1]
            out[r, 2 * k] = c * x - s * y
            out[r, 2 * k + 1] = s * x + c * y
    return out


def _oracle_ln(x, gain):
    out = np.empty_like(x)
    for r in range(x.shape[0]):
        mean, var = x[r].mean(), x[r].var()
        out[r] = (x[r] - mean) / np.sqrt(var + LAYERNORM_EPS) * gain
    return out


def _oracle_attend(q_tok, q_pos, kv_tok, kv_pos, wq, wk, wv, wo, heads):
    d = q_tok.shape[1]
    hd = d // heads
    merged = np.zeros((q_tok.shape[0], d))
    q_all, k_all, v_all = q_tok @ wq, kv_tok @ wk, kv_tok @ wv
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        q = _oracle_rope(q_all[:, sl], q_pos)
        k = _oracle_rope(k_all[:, sl], kv_pos)
        for i in range(q.shape[0]):
            scores = np.array([q[i] @ k[j] for j in range(k.shape[0])]) / np.sqrt(hd)
            e = np.exp(scores - scores.max())
            w = e / e.sum()
            merged[i, sl] = sum(w[j] * v_all[j, sl] for j in range(k.shape[0]))
    return merged @ wo


def _oracle_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def _oracle_self(seq, params):
    b = params.branch_for(seq.modality)
    h = _oracle_ln(seq.tokens, b.gain_self)
    return seq.tokens + _oracle_attend(
        h, seq.positions, h, seq.positions,
        b.self_query, b.self_key, b.self_value, b.self_output, params.head_count,
    )


def _oracle_cross(q_seq, kv_seq, params):
    b = params.branch_for(q_seq.modality)
    hq = _oracle_ln(q_seq.tokens, b.gain_cross)
    hkv = _oracle_ln(kv_seq.tokens, b.gain_cross)
    return q_seq.tokens + _oracle_attend(
        hq, q_seq.positions, hkv, kv_seq.positions,
        b.cross_query, b.cross_key, b.cross_value, b.cross_output, params.head_count,
    )


def _tokens(n, d, modality, seed):
    rng = np.random.default_rng(seed)
    pos = np.stack(
        [np.arange(n) // 4, (np.arange(n) // 2) % 2, np.arange(n) % 2], axis=1
    ) + rng.integers(-3, 4, size=(1, 3))
    return TokenSeq(rng.normal(size=(n, d)), pos, modality)


def test_criterion_06_attention_block_oracles():
    t0 = time.perf_counter()
    d_model, heads = 24, 2

    for seed in range(5):
        params = init_dsca_params(rng_seed=seed, d_model=d_model, head_count=heads)
        video = _tokens(8, d_model, Modality.VIDEO, seed * 10 + 1)
        ray = _tokens(8, d_model, Modality.RAY, seed * 10 + 2)

        got = self_attention(video, params).tokens
        assert np.abs(got - _oracle_self(video, params)).max() < 1e-10

        got = cross_attention(video, ray, params).tokens
        assert np.abs(got - _oracle_cross(video, ray, params)).max() < 1e-10

        v_out, r_out = dsca_block(video, ray, params)
        v0 = TokenSeq(video.tokens + params.offset_video, video.positions, Modality.VIDEO)
        r0 = TokenSeq(ray.tokens + params.offset_ray, ray.positions, Modality.RAY)
        v1 = TokenSeq(_oracle_self(v0, params), v0.positions, Modality.VIDEO)
        r1 = TokenSeq(_oracle_self(r0, params), r0.positions, Modality.RAY)
        v2 = _oracle_cross(v1, r1, params)
        r2 = _oracle_cross(r1, v1, params)
        bv = params.video
        br = params.ray
        v_exp = v2 + _oracle_gelu(_oracle_ln(v2, bv.gain_ff) @ bv.ff_in) @ bv.ff_out
        r_exp = r2 + _oracle_gelu(_oracle_ln(r2, br.gain_ff) @ br.ff_in) @ br.ff_out
        assert np.abs(v_out.tokens - v_exp).max() < 1e-10
        assert np.abs(r_out.tokens - r_exp).max() < 1e-10

    rng = np.random.default_rng(4)
    q, k = rng.normal(size=12), rng.normal(size=12)
    p1, p2 = np.array([3, 1, 0]), np.array([8, 0, 2])
    shift = np.array([17, -6, 9])
    base = rope_rotate(q, p1) @ rope_rotate(k, p2)
    moved = rope_rotate(q, p1 + shift) @ rope_rotate(k, p2 + shift)
    assert abs(base - moved) < 1e-9

    # the core normalizes after the value product: one-hot values read back
    # the attention weights, all-ones values their row sums
    q, k = rng.normal(size=(1, 6, 9)) * 4.0, rng.normal(size=(1, 9, 9))
    rows = _attend_heads(q, k, np.eye(9)[None], np.eye(9))
    assert np.abs(rows.sum(axis=-1) - 1.0).max() < 1e-9
    assert rows.min() >= 0.0
    assert np.abs(_attend_heads(q, k, np.ones((1, 9, 9)), np.eye(9)) - 1.0).max() < 1e-9

    params = init_dsca_params(rng_seed=0, d_model=d_model, head_count=heads)
    video = _tokens(8, d_model, Modality.VIDEO, 1)
    ray_a = _tokens(8, d_model, Modality.RAY, 2)
    ray_b = _tokens(8, d_model, Modality.RAY, 3)
    deaf_video = dataclasses.replace(
        params,
        video=dataclasses.replace(
            params.video, cross_value=np.zeros_like(params.video.cross_value)
        ),
    )
    va, _ = dsca_block(video, ray_a, deaf_video)
    vb, _ = dsca_block(video, ray_b, deaf_video)
    assert np.array_equal(va.tokens, vb.tokens)

    video_b = _tokens(8, d_model, Modality.VIDEO, 5)
    deaf_ray = dataclasses.replace(
        params,
        ray=dataclasses.replace(
            params.ray, cross_value=np.zeros_like(params.ray.cross_value)
        ),
    )
    _, ra = dsca_block(video, ray_a, deaf_ray)
    _, rb = dsca_block(video_b, ray_a, deaf_ray)
    assert np.array_equal(ra.tokens, rb.tokens)

    elapsed = _budget(t0, 10.0, "attention")
    print(f"\ncriterion 6 PASS: dense oracle equivalence <1e-10; rope shift "
          f"invariance <1e-9; row normalization <1e-9; modality isolation "
          f"({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 7. metrics vs brute-force enumeration


def _brute_force_metrics(pred_poses, gt_poses, tau):
    """mRRA at ``tau`` degrees by enumerating frame pairs, and the per-frame
    rotation and translation errors, one frame at a time."""
    n = len(gt_poses)
    hits, total = 0, 0
    for i in range(n):
        for j in range(i + 1, n):
            rel_p = pred_poses[i].rotation.T @ pred_poses[j].rotation
            rel_g = gt_poses[i].rotation.T @ gt_poses[j].rotation
            hits += rotation_angle(rel_p.T @ rel_g) <= np.deg2rad(tau)
            total += 1
    rot = [rotation_angle(p.rotation.T @ g.rotation) for p, g in zip(pred_poses, gt_poses)]
    trans = [
        float(np.linalg.norm(p.translation - g.translation))
        for p, g in zip(pred_poses, gt_poses)
    ]
    return hits / total, rot, trans


def _perturbed_pair(seed, n):
    gt_poses = [Pose.identity()] + [
        random_pose(seed * 31 + k, 1.2, 1.0) for k in range(1, n)
    ]
    pred_poses = [
        compose(random_pose(seed * 57 + 13 * k + 5, 0.9, 0.4), p)
        for k, p in enumerate(gt_poses)
    ]
    return pred_poses, gt_poses


def test_criterion_07_metrics_against_brute_force():
    t0 = time.perf_counter()
    from raxelkit.evaluation import mrra, pose_errors

    intr = Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)
    tau = 30.0

    for seed in range(50):
        n = 4 + seed % 5
        pred_poses, gt_poses = _perturbed_pair(seed, n)
        gt = _trajectory(intr, gt_poses)
        pred = _trajectory(intr, pred_poses)

        fraction, rots, transes = _brute_force_metrics(pred_poses, gt_poses, tau)
        assert abs(mrra(pred, gt, tau=tau) - fraction) < 1e-10

        report = pose_errors(pred, gt)
        for k in range(n):
            assert abs(report.rotation_error[k] - rots[k]) < 1e-10
            assert abs(report.translation_error[k] - transes[k]) < 1e-10
        non_ref = [k for k in range(n) if k != gt.reference_index]
        assert abs(
            report.mean_rotation_error - np.mean(report.rotation_error[non_ref])
        ) < 1e-12

    identity = [Pose.identity()] * 3
    tilted = [
        Pose(axis_angle_rotation([0, 0, 1], np.deg2rad(a)), np.zeros(3))
        for a in (0.0, 20.0, 40.0)
    ]
    assert mrra(_trajectory(intr, tilted), _trajectory(intr, identity)) == 2.0 / 3.0

    five = [Pose.identity()] * 5
    one_bad = [
        Pose(axis_angle_rotation([1, 0, 0], np.deg2rad(40.0 * (k == 2))), np.zeros(3))
        for k in range(5)
    ]
    assert mrra(_trajectory(intr, one_bad), _trajectory(intr, five)) == 6.0 / 10.0

    elapsed = _budget(t0, 10.0, "metrics")
    print(f"\ncriterion 7 PASS: mrra and pose_errors match enumeration on 50 "
          f"seeded pairs <1e-10; constructed fractions exact ({elapsed:.1f}s)")


@pytest.mark.parametrize("n", [21, 81])
def test_stacked_metrics_equal_the_brute_force_loop(n):
    from raxelkit.evaluation import mrra, pose_errors

    intr = Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)
    pred_poses, gt_poses = _perturbed_pair(n, n)
    pred, gt = _trajectory(intr, pred_poses), _trajectory(intr, gt_poses)
    for tau in (15.0, 30.0, 45.0, 60.0):
        fraction, rots, transes = _brute_force_metrics(pred_poses, gt_poses, tau)
        assert 0.0 < fraction < 1.0  # the threshold splits the pairs
        assert mrra(pred, gt, tau=tau) == fraction
    report = pose_errors(pred, gt)
    assert report.rotation_error.tolist() == rots
    assert report.translation_error.tolist() == transes


# --------------------------------------------------------------------------
# 8. default noise sweep: deterministic, monotone, pinned medians

# Medians of mean cycle rotation error (rad) over the default 20 seeds,
# measured from this implementation's deterministic sweep and pinned as
# regression thresholds with a +-20% band.
PINNED_MEDIAN_ROT = {
    "arcleft": {0.001: 2.659782e-05, 0.005: 1.330932e-04, 0.01: 2.665497e-04, 0.05: 1.374927e-03},
    "arcright": {0.001: 2.867966e-05, 0.005: 1.437439e-04, 0.01: 2.884648e-04, 0.05: 1.506709e-03},
    "orbit": {0.001: 2.576065e-05, 0.005: 1.284996e-04, 0.01: 2.563852e-04, 0.05: 1.310709e-03},
    "line": {0.001: 2.712736e-05, 0.005: 1.358153e-04, 0.01: 2.722513e-04, 0.05: 1.392393e-03},
}


def test_criterion_08_noise_sweep_pinned(tmp_path):
    t0 = time.perf_counter()
    csv_path = str(tmp_path / "bench.csv")
    assert cli_main(["bench", "--out", csv_path]) == 0

    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1 + 4 * 4 * 20

    cells = {}
    for line in lines[1:]:
        kind, frames, magnitude, seed, rot, *_ = line.split(",")
        cells.setdefault((kind, float(magnitude)), []).append(float(rot))

    sigmas = (0.001, 0.005, 0.01, 0.05)
    for kind, pins in PINNED_MEDIAN_ROT.items():
        medians = [float(np.median(cells[(kind, s)])) for s in sigmas]
        assert all(a <= b for a, b in zip(medians, medians[1:])), (kind, medians)
        for sigma, median in zip(sigmas, medians):
            pin = pins[sigma]
            assert 0.8 * pin <= median <= 1.2 * pin, (kind, sigma, median, pin)

    with open(csv_path, "rb") as fh:
        first_bytes = fh.read()
    assert cli_main(["bench", "--out", csv_path]) == 0  # resumes, rewrites same bytes
    with open(csv_path, "rb") as fh:
        assert fh.read() == first_bytes

    elapsed = _budget(t0, 600.0, "noise sweep")
    print(f"\ncriterion 8 PASS: default sweep deterministic; medians monotone "
          f"in sigma and within +-20% of pins ({elapsed:.0f}s)")


# --------------------------------------------------------------------------
# 9. file formats and exit codes


def test_criterion_09_file_formats(tmp_path, capsys):
    t0 = time.perf_counter()
    intr = Intrinsics(fx=701.5, fy=688.25, cx=416.0, cy=240.0, width=832, height=480)
    poses = [Pose.identity()] + [random_pose(400 + k, 1.0, 2.0) for k in range(1, 6)]
    trajectory = _trajectory(intr, poses)

    traj_path = str(tmp_path / "t.traj")
    save_trajectory(traj_path, trajectory)
    loaded = load_trajectory(traj_path)
    for a, b in zip(trajectory.frames, loaded.frames):
        assert np.abs(a.pose.rotation - b.pose.rotation).max() <= 1e-12
        assert np.abs(a.pose.translation - b.pose.translation).max() <= 1e-12
        assert a.intrinsics == b.intrinsics

    image = encode_raxel(trajectory.frames[3], trajectory.frames[3].pose)
    rxl_path = str(tmp_path / "f.rxl")
    save_raxel(rxl_path, image, 3)
    back, idx = load_raxel(rxl_path)
    assert idx == 3 and np.array_equal(back.data, image.data)

    bad = tmp_path / "bad.traj"
    bad.write_text("nonsense\n")
    assert cli_main(["encode", str(bad), str(tmp_path / "g1")]) == 2
    assert cli_main(["encode", str(tmp_path / "missing.traj"), str(tmp_path / "g2")]) == 3

    corrupt_dir = tmp_path / "corrupt"
    corrupt_dir.mkdir()
    with open(rxl_path, "rb") as fh:
        (corrupt_dir / "frame_0.rxl").write_bytes(fh.read()[:-8])
    assert cli_main(["decode", str(corrupt_dir), str(tmp_path / "o1.traj")]) == 2

    flat_dir = tmp_path / "flat"
    flat_dir.mkdir()
    const = np.zeros((24, 32, 3))
    const[..., 2] = 1.0
    for k in range(2):
        save_raxel(str(flat_dir / f"frame_{k}.rxl"), RayGrid(const.copy()), k)
    assert cli_main(["decode", str(flat_dir), str(tmp_path / "o2.traj")]) == 4

    elapsed = _budget(t0, 5.0, "file formats")
    print(f"\ncriterion 9 PASS: text format lossless <=1e-12, binary bit-exact, "
          f"exit codes 2/3/4 ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 10. latent-length arithmetic


def test_criterion_10_latent_length():
    t0 = time.perf_counter()
    valid = set(range(1, 402, 4))
    for n_v, frame_count in enumerate(sorted(valid), start=1):
        assert latent_length(frame_count) == n_v
    for frame_count in range(-5, 403):
        if frame_count in valid:
            continue
        with pytest.raises(InvalidFrameCountError):
            latent_length(frame_count)

    elapsed = _budget(t0, 1.0, "latent length")
    print(f"\ncriterion 10 PASS: frame counts 1,5,...,401 map to 1..101; all "
          f"non-congruent counts rejected ({elapsed:.1f}s)")
