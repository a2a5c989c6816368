"""Tests for metrics, trajectory generators, perturbations, and the
cycle-consistency harness."""

import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from raxelkit import evaluation
from raxelkit.decode import decoded_trajectory
from raxelkit.errors import (
    LengthMismatchError,
    ReferenceMismatchError,
    TooFewFramesError,
)
from raxelkit.evaluation import (
    PerturbationKind,
    PerturbationSpec,
    TrajectoryKind,
    cycle_consistency_run,
    generate_trajectory,
    mrra,
    perturb,
    pose_errors,
    reverse_trajectory,
)
from raxelkit.geometry import (
    CameraFrame,
    Intrinsics,
    Pose,
    Trajectory,
    axis_angle_rotation,
    canonicalize,
    compose,
    inverse,
    random_pose,
)
from raxelkit.rays import encode_plucker, encode_raxel, encode_raymap, ray_grid

INTR = Intrinsics(fx=100.0, fy=100.0, cx=64.0, cy=48.0, width=128, height=96)
Z_AXIS = np.array([0.0, 0.0, 1.0])


def rot_z(deg):
    return axis_angle_rotation(Z_AXIS, np.deg2rad(deg))


def make_trajectory(poses, reference=0):
    frames = tuple(
        CameraFrame(intrinsics=INTR, pose=p, index=k) for k, p in enumerate(poses)
    )
    return Trajectory(frames=frames, reference_index=reference)


def random_trajectory(seed, n, reference=0):
    poses = [Pose.identity() if k == reference else random_pose(seed * 100 + k, 1.5, 1.0)
             for k in range(n)]
    return make_trajectory(poses, reference)


def angle_oracle(r_a, r_b):
    """Independent rotation-distance oracle (safe away from 0 and pi)."""
    tr = np.trace(r_a.T @ r_b)
    return float(np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0)))


class TestPoseErrors:
    def test_identical_trajectories(self):
        t = random_trajectory(1, 6)
        report = pose_errors(t, t)
        assert np.all(report.rotation_error == 0.0)
        assert np.all(report.translation_error == 0.0)
        assert report.mean_rotation_error == 0.0
        assert report.mean_translation_error == 0.0

    def test_single_offset_frame_mean(self):
        gt = random_trajectory(2, 5)
        frames = list(gt.frames)
        bad = frames[3]
        frames[3] = CameraFrame(
            intrinsics=bad.intrinsics,
            pose=Pose(bad.pose.rotation @ rot_z(30.0), bad.pose.translation),
            index=bad.index,
        )
        pred = Trajectory(frames=tuple(frames), reference_index=0)
        report = pose_errors(pred, gt)
        assert abs(report.mean_rotation_error - (np.pi / 6.0) / 4.0) < 1e-12
        assert report.mean_translation_error == 0.0

    def test_matches_independent_oracle(self):
        pred = random_trajectory(3, 10)
        gt = random_trajectory(4, 10)
        report = pose_errors(pred, gt)
        for k in range(10):
            expected = angle_oracle(
                pred.frames[k].pose.rotation, gt.frames[k].pose.rotation
            )
            assert abs(report.rotation_error[k] - expected) < 1e-10

    def test_means_are_arithmetic_means(self):
        pred = random_trajectory(5, 8, reference=2)
        gt = random_trajectory(6, 8, reference=2)
        report = pose_errors(pred, gt)
        keep = [k for k in range(8) if k != 2]
        assert abs(report.mean_rotation_error - report.rotation_error[keep].mean()) < 1e-12
        assert abs(report.mean_translation_error - report.translation_error[keep].mean()) < 1e-12

    def test_mismatches_rejected(self):
        with pytest.raises(LengthMismatchError):
            pose_errors(random_trajectory(7, 4), random_trajectory(7, 5))
        with pytest.raises(ReferenceMismatchError):
            pose_errors(random_trajectory(8, 4, reference=0), random_trajectory(8, 4, reference=1))


class TestMrra:
    def test_identical_is_one(self):
        t = random_trajectory(10, 5)
        for tau in (1.0, 15.0, 30.0):
            assert mrra(t, t, tau=tau) == 1.0

    def test_single_pair_above_threshold(self):
        gt = make_trajectory([Pose.identity(), Pose.identity()])
        pred = make_trajectory([Pose.identity(), Pose(rot_z(45.0), np.zeros(3))])
        assert mrra(pred, gt, tau=30.0) == 0.0

    def test_two_of_three_pairs(self):
        gt = make_trajectory([Pose.identity()] * 3)
        pred = make_trajectory(
            [Pose.identity(), Pose(rot_z(20.0), np.zeros(3)), Pose(rot_z(40.0), np.zeros(3))]
        )
        # pair errors: (0,1) 20deg ok, (0,2) 40deg out, (1,2) 20deg ok
        assert mrra(pred, gt, tau=30.0) == pytest.approx(2.0 / 3.0)

    def test_symmetric(self):
        a = random_trajectory(11, 6)
        b = random_trajectory(12, 6)
        assert mrra(a, b, tau=25.0) == mrra(b, a, tau=25.0)

    def test_invariant_to_common_reference_change(self):
        a = random_trajectory(13, 6)
        b = random_trajectory(14, 6)
        base = mrra(a, b, tau=20.0)
        for ref in (1, 3, 5):
            assert mrra(canonicalize(a, ref), canonicalize(b, ref), tau=20.0) == base

    def test_matches_pair_enumeration_oracle(self):
        for seed in range(5):
            a = random_trajectory(20 + seed, 7)
            b = random_trajectory(40 + seed, 7)
            tau_rad = np.deg2rad(30.0)
            hits, pairs = 0, 0
            for i in range(7):
                for j in range(i + 1, 7):
                    rel_a = a.frames[i].pose.rotation.T @ a.frames[j].pose.rotation
                    rel_b = b.frames[i].pose.rotation.T @ b.frames[j].pose.rotation
                    if angle_oracle(rel_a, rel_b) <= tau_rad:
                        hits += 1
                    pairs += 1
            assert mrra(a, b, tau=30.0) == pytest.approx(hits / pairs)

    def test_too_few_frames(self):
        t = random_trajectory(15, 1)
        with pytest.raises(TooFewFramesError):
            mrra(t, t)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            mrra(random_trajectory(16, 3), random_trajectory(16, 4))


class TestGenerateTrajectory:
    def test_still_all_identity(self):
        t = generate_trajectory(TrajectoryKind.STILL, 7, INTR)
        for f in t.frames:
            assert np.array_equal(f.pose.rotation, np.eye(3))
            assert np.array_equal(f.pose.translation, np.zeros(3))

    def test_line_spacing(self):
        t = generate_trajectory(TrajectoryKind.LINE, 5, INTR, scale=1.0)
        expected = [0.0, 0.25, 0.5, 0.75, 1.0]
        for f, e in zip(t.frames, expected):
            assert np.max(np.abs(f.pose.translation - [e, 0.0, 0.0])) < 1e-15
            assert np.array_equal(f.pose.rotation, np.eye(3))

    def test_arc_uniform_angular_speed(self):
        t = generate_trajectory(TrajectoryKind.ARC_LEFT, 21, INTR, scale=2.0)
        steps = []
        for a, b in zip(t.frames, t.frames[1:]):
            rel = compose(inverse(a.pose), b.pose)
            steps.append(angle_oracle(rel.rotation, np.eye(3)))
        steps = np.array(steps)
        assert np.max(np.abs(steps - steps[0])) < 1e-9
        assert abs(steps[0] - (np.pi / 2.0) / 20.0) < 1e-9

    def test_arcs_sweep_opposite_directions(self):
        left = generate_trajectory(TrajectoryKind.ARC_LEFT, 9, INTR)
        right = generate_trajectory(TrajectoryKind.ARC_RIGHT, 9, INTR)
        assert all(f.pose.translation[0] <= 1e-15 for f in left.frames)
        assert all(f.pose.translation[0] >= -1e-15 for f in right.frames)
        for lf, rf in zip(left.frames, right.frames):
            mirrored = rf.pose.translation * np.array([-1.0, 1.0, 1.0])
            assert np.max(np.abs(lf.pose.translation - mirrored)) < 1e-12

    def test_orbit_closes_uniformly(self):
        n = 12
        t = generate_trajectory(TrajectoryKind.ORBIT, n, INTR, scale=3.0)
        for a, b in zip(t.frames, t.frames[1:]):
            rel = compose(inverse(a.pose), b.pose)
            assert abs(angle_oracle(rel.rotation, np.eye(3)) - 2.0 * np.pi / n) < 1e-9
        half = t.frames[n // 2].pose.rotation
        assert abs(angle_oracle(half, np.eye(3)) - np.pi) < 1e-9

    def test_reference_frame_and_determinism(self):
        for kind in TrajectoryKind:
            t = generate_trajectory(kind, 4, INTR, scale=1.5)
            assert t.reference_index == 0
            assert np.array_equal(t.frames[0].pose.rotation, np.eye(3))
            assert np.array_equal(t.frames[0].pose.translation, np.zeros(3))
            again = generate_trajectory(kind, 4, INTR, scale=1.5)
            for f, g in zip(t.frames, again.frames):
                assert np.array_equal(f.pose.rotation, g.pose.rotation)
                assert np.array_equal(f.pose.translation, g.pose.translation)

    def test_single_frame_and_validation(self):
        for kind in TrajectoryKind:
            t = generate_trajectory(kind, 1, INTR)
            assert len(t) == 1
        with pytest.raises(ValueError):
            generate_trajectory(TrajectoryKind.LINE, 0, INTR)


class TestReverseTrajectory:
    def test_involution(self):
        t = generate_trajectory(TrajectoryKind.ORBIT, 6, INTR)
        back = reverse_trajectory(reverse_trajectory(t))
        assert back.reference_index == t.reference_index
        for f, g in zip(back.frames, t.frames):
            assert f.index == g.index
            assert np.array_equal(f.pose.rotation, g.pose.rotation)
            assert np.array_equal(f.pose.translation, g.pose.translation)

    def test_single_frame_unchanged(self):
        t = generate_trajectory(TrajectoryKind.STILL, 1, INTR)
        r = reverse_trajectory(t)
        assert len(r) == 1 and r.reference_index == 0

    def test_line_translations_reversed(self):
        t = generate_trajectory(TrajectoryKind.LINE, 5, INTR, scale=1.0)
        r = reverse_trajectory(t)
        assert r.reference_index == 4
        for k in range(5):
            assert np.array_equal(
                r.frames[k].pose.translation, t.frames[4 - k].pose.translation
            )

    def test_pairwise_relatives_invert(self):
        t = random_trajectory(30, 5)
        r = reverse_trajectory(t)
        n = 5
        for i in range(n):
            for j in range(i + 1, n):
                rel_r = compose(inverse(r.frames[i].pose), r.frames[j].pose)
                # same physical pair traversed the other way round
                forward = compose(inverse(t.frames[n - 1 - j].pose), t.frames[n - 1 - i].pose)
                inv = inverse(forward)
                assert np.max(np.abs(rel_r.rotation - inv.rotation)) < 1e-12
                assert np.max(np.abs(rel_r.translation - inv.translation)) < 1e-12

    def test_relative_angle_multiset_preserved(self):
        t = random_trajectory(31, 6)
        r = reverse_trajectory(t)

        def pair_angles(traj):
            out = []
            for i in range(len(traj)):
                for j in range(i + 1, len(traj)):
                    rel = traj.frames[i].pose.rotation.T @ traj.frames[j].pose.rotation
                    out.append(angle_oracle(rel, np.eye(3)))
            return sorted(out)

        assert pair_angles(t) == pair_angles(r)


ENCODERS = pytest.mark.parametrize(
    "encode", [encode_raxel, encode_plucker, encode_raymap], ids=["raxel", "plucker", "raymap"]
)


class TestPerturb:
    def clean_image(self, seed=0, encode=encode_raxel):
        pose = random_pose(seed, 1.0, 1.0)
        frame = CameraFrame(intrinsics=INTR, pose=pose, index=0)
        return encode(frame, pose)

    @ENCODERS
    def test_zero_magnitude_identity(self, encode):
        img = self.clean_image(encode=encode)
        noise = perturb(img, PerturbationSpec(PerturbationKind.GAUSSIAN_PER_PIXEL, 0.0, seed=1))
        drop = perturb(img, PerturbationSpec(PerturbationKind.PIXEL_DROPOUT, 0.0, seed=1))
        assert noise.kind is img.kind and drop.kind is img.kind
        assert np.array_equal(noise.data, img.data)
        assert np.array_equal(drop.data, img.data)

    @pytest.mark.parametrize("sigma", [1e-3, 0.05, 2.0])
    def test_gaussian_noise_is_the_seeded_normal_draw(self, sigma):
        img = self.clean_image(seed=7)
        for seed in range(3):
            out = perturb(img, PerturbationSpec(PerturbationKind.GAUSSIAN_PER_PIXEL, sigma, seed))
            draw = np.random.default_rng(seed).normal(0.0, sigma, img.data.shape)
            assert np.array_equal(out.data, draw + img.data)
            assert not out.data.flags.writeable

    def test_16_bit_quantization_nearly_lossless(self):
        img = self.clean_image()
        q = perturb(img, PerturbationSpec(PerturbationKind.UNIFORM_QUANTIZE, 16))
        span = img.data.max() - img.data.min()
        assert np.max(np.abs(q.data - img.data)) <= span / 2**16

    @ENCODERS
    def test_deterministic_per_seed(self, encode):
        img = self.clean_image(encode=encode)
        spec = PerturbationSpec(PerturbationKind.GAUSSIAN_PER_PIXEL, 0.01, seed=5)
        a = perturb(img, spec)
        b = perturb(img, spec)
        assert a.kind is img.kind
        assert np.array_equal(a.data, b.data)
        c = perturb(img, PerturbationSpec(PerturbationKind.GAUSSIAN_PER_PIXEL, 0.01, seed=6))
        assert not np.array_equal(a.data, c.data)

    def test_8_bit_deviation_bound(self):
        img = self.clean_image(seed=2)
        q = perturb(img, PerturbationSpec(PerturbationKind.UNIFORM_QUANTIZE, 8))
        span = img.data.max() - img.data.min()
        assert np.max(np.abs(q.data - img.data)) <= span / 2**8 / 2.0 + 1e-12

    def test_quantize_level_count(self):
        img = self.clean_image(seed=3)
        q = perturb(img, PerturbationSpec(PerturbationKind.UNIFORM_QUANTIZE, 3))
        assert len(np.unique(q.data)) <= 2**3

    @ENCODERS
    def test_dropout_replaces_exact_count_with_mean(self, encode):
        img = self.clean_image(seed=4, encode=encode)
        frac = 0.25
        spec = PerturbationSpec(PerturbationKind.PIXEL_DROPOUT, frac, seed=9)
        out = perturb(img, spec)
        assert out.kind is img.kind
        flat_in = img.data.reshape(-1, img.kind.channels)
        flat_out = out.data.reshape(-1, img.kind.channels)
        changed = np.any(flat_in != flat_out, axis=1)
        assert changed.sum() == round(frac * flat_in.shape[0])
        mean = flat_in.mean(axis=0)
        assert np.allclose(flat_out[changed], mean, atol=0)
        assert np.array_equal(flat_out[~changed], flat_in[~changed])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PerturbationSpec(PerturbationKind.GAUSSIAN_PER_PIXEL, -0.1)
        for bad_bits in (0, 17, 2.5):
            with pytest.raises(ValueError):
                PerturbationSpec(PerturbationKind.UNIFORM_QUANTIZE, bad_bits)
        with pytest.raises(ValueError):
            PerturbationSpec(PerturbationKind.PIXEL_DROPOUT, 1.0)

    @pytest.mark.parametrize("magnitude", [np.nan, np.inf, -np.inf], ids=str)
    @pytest.mark.parametrize("kind", list(PerturbationKind), ids=lambda k: k.value)
    def test_non_finite_magnitude_rejected(self, kind, magnitude):
        with pytest.raises(ValueError, match="must be finite"):
            PerturbationSpec(kind, magnitude)


class TestCycleConsistency:
    def test_clean_round_trip(self):
        t = generate_trajectory(TrajectoryKind.ORBIT, 21, INTR, scale=2.0)
        spec = PerturbationSpec(PerturbationKind.GAUSSIAN_PER_PIXEL, 0.0, seed=0)
        report, mrra30, residual = cycle_consistency_run(t, spec)
        assert report.mean_rotation_error < 1e-9
        assert report.mean_translation_error < 1e-9
        assert mrra30 == 1.0
        assert residual < 1e-8

    def test_off_centre_principal_point_round_trips(self, monkeypatch):
        intr = Intrinsics(fx=500.0, fy=520.0, cx=300.0, cy=200.0, width=832, height=480)
        t = generate_trajectory(TrajectoryKind.ORBIT, 9, intr)
        predicted = []
        real = evaluation.decoded_trajectory
        monkeypatch.setattr(evaluation, "decoded_trajectory",
                            lambda *args, **kw: predicted.append(real(*args, **kw)) or predicted[-1])
        spec = PerturbationSpec(PerturbationKind.GAUSSIAN_PER_PIXEL, 0.0, seed=0)
        _, _, residual = cycle_consistency_run(t, spec)
        assert residual < 1e-9
        for frame in predicted[0].frames:
            got = frame.intrinsics
            assert abs(got.fx - 500.0) < 1e-9 * 500.0 and abs(got.fy - 520.0) < 1e-9 * 520.0
            assert (got.cx, got.cy) == (300.0, 200.0)

    def test_deterministic(self):
        t = generate_trajectory(TrajectoryKind.ARC_LEFT, 9, INTR)
        spec = PerturbationSpec(PerturbationKind.GAUSSIAN_PER_PIXEL, 0.01, seed=3)
        first = cycle_consistency_run(t, spec)
        second = cycle_consistency_run(t, spec)
        assert first[0].mean_rotation_error == second[0].mean_rotation_error
        assert first[1] == second[1]
        assert first[2] == second[2]

    def test_noise_error_grows_with_sigma(self):
        t = generate_trajectory(TrajectoryKind.ORBIT, 9, INTR)
        medians = []
        for sigma in (0.001, 0.01, 0.05):
            errs = [
                cycle_consistency_run(
                    t, PerturbationSpec(PerturbationKind.GAUSSIAN_PER_PIXEL, sigma, seed=s)
                )[0].mean_rotation_error
                for s in range(5)
            ]
            medians.append(np.median(errs))
        assert medians[0] < medians[1] < medians[2]

    def test_still_trajectory_reports_noise_floor(self):
        t = generate_trajectory(TrajectoryKind.STILL, 5, INTR)
        spec = PerturbationSpec(PerturbationKind.GAUSSIAN_PER_PIXEL, 0.01, seed=1)
        report, mrra30, residual = cycle_consistency_run(t, spec)
        assert np.isfinite(report.mean_rotation_error)
        assert 0.0 <= mrra30 <= 1.0
        assert np.isfinite(residual)

    def test_adds_at_most_one_grid_to_cache(self):
        # decoded focal lengths are one-shot intrinsics; the residual must
        # build no grid at them, so the trajectory's grid is built once
        t = generate_trajectory(TrajectoryKind.ORBIT, 9, INTR)
        spec = PerturbationSpec(PerturbationKind.GAUSSIAN_PER_PIXEL, 0.01, seed=2)
        ray_grid.cache_clear()
        cycle_consistency_run(t, spec)
        first = ray_grid.cache_info()
        assert first.currsize <= 1 and first.misses <= 1
        cycle_consistency_run(t, spec)
        assert ray_grid.cache_info().misses == first.misses

    @pytest.mark.parametrize("intr", [
        Intrinsics(fx=720.5, fy=720.5, cx=416.0, cy=240.0, width=832, height=480),
        Intrinsics(fx=650.0, fy=700.0, cx=300.3, cy=200.7, width=833, height=481),
    ], ids=["centred", "off-centre"])
    @pytest.mark.parametrize("kind", [TrajectoryKind.ORBIT, TrajectoryKind.ARC_LEFT,
                                      TrajectoryKind.LINE, TrajectoryKind.STILL],
                             ids=lambda k: k.value)
    def test_residual_matches_re_encoded_images(self, monkeypatch, kind, intr):
        # the closed form against the images it stands for: the decoded
        # frames encoded again, minus the clean encoding, per pixel
        t = generate_trajectory(kind, 5, intr)
        predicted = []
        real = evaluation.decoded_trajectory
        monkeypatch.setattr(evaluation, "decoded_trajectory",
                            lambda *args, **kw: predicted.append(real(*args, **kw)) or predicted[-1])
        specs = [PerturbationSpec(PerturbationKind.GAUSSIAN_PER_PIXEL, sigma, seed=3)
                 for sigma in (0.0, 0.001, 0.05)]
        specs += [PerturbationSpec(PerturbationKind.UNIFORM_QUANTIZE, 8, seed=3),
                  PerturbationSpec(PerturbationKind.PIXEL_DROPOUT, 0.3, seed=3)]
        for spec in specs:
            residual = cycle_consistency_run(t, spec)[2]
            oracle = np.mean([
                np.linalg.norm(encode_raxel(p, p.pose).data - encode_raxel(g, g.pose).data,
                               axis=2).mean()
                for p, g in zip(predicted[-1].frames, t.frames)
            ])
            assert abs(residual - oracle) <= 1e-10 * oracle + 1e-14, (spec, residual, oracle)

    def test_holds_one_frame_at_a_time(self):
        # all 21 clean and 21 damaged grids held at once would be over 42 grids
        intr = Intrinsics(fx=180.0, fy=180.0, cx=104.0, cy=60.0, width=208, height=120)
        t = generate_trajectory(TrajectoryKind.ORBIT, 21, intr)
        spec = PerturbationSpec(PerturbationKind.GAUSSIAN_PER_PIXEL, 0.01, seed=4)
        grid_bytes = 60 * 104 * 3 * 8
        tracemalloc.start()
        try:
            cycle_consistency_run(t, spec)
            tracemalloc.reset_peak()
            baseline = tracemalloc.get_traced_memory()[0]
            cycle_consistency_run(t, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - baseline) / grid_bytes < 12

    @pytest.mark.parametrize("sigma", [1e-3, 0.05])
    @pytest.mark.parametrize("kind, reverse", [
        (TrajectoryKind.ORBIT, False), (TrajectoryKind.ARC_LEFT, True),
    ], ids=["orbit-reference-first", "reversed-arc-reference-last"])
    def test_pipelined_cycle_equals_decoding_the_perturbed_list(self, monkeypatch, kind,
                                                                reverse, sigma):
        # 128x80 grids: over three row blocks per product
        intr = Intrinsics(fx=210.0, fy=200.0, cx=128.0, cy=80.0, width=256, height=160)
        t = generate_trajectory(kind, 7, intr)
        t = reverse_trajectory(t) if reverse else t
        assert t.reference_index == (6 if reverse else 0)
        canonical = canonicalize(t, t.reference_index)
        spec = PerturbationSpec(PerturbationKind.GAUSSIAN_PER_PIXEL, sigma, seed=8)
        seeds = np.random.SeedSequence(spec.seed).generate_state(len(t))
        damaged = [perturb(encode_raxel(f, f.pose), replace(spec, seed=int(seed)))
                   for f, seed in zip(canonical.frames, seeds)]

        read, decodes = {}, []
        real = evaluation.decode_trajectory

        class Recorded:
            def __init__(self, images):
                self.images = images

            def __len__(self):
                return len(self.images)

            def __getitem__(self, k):
                grid = self.images[k]
                read[k] = grid.data.tobytes()
                return grid

        monkeypatch.setattr(evaluation, "decode_trajectory",
                            lambda images, *args: decodes.append(real(Recorded(images), *args))
                            or decodes[-1])
        report, mrra30, residual = cycle_consistency_run(t, spec)
        assert read == {k: grid.data.tobytes() for k, grid in enumerate(damaged)}

        image = (intr.width, intr.height, intr.cx, intr.cy)
        decoded, failures = real(damaged, t.reference_index, *image)
        assert not failures and not decodes[0][1]
        for got, want in zip(decodes[0][0], decoded):
            for name in ("fx_hat", "fy_hat", "pose_residual", "inlier_fraction"):
                assert getattr(got, name) == getattr(want, name)
            assert got.pose.rotation.tobytes() == want.pose.rotation.tobytes()
            assert got.pose.translation.tobytes() == want.pose.translation.tobytes()
        predicted = decoded_trajectory(decoded, failures, [f.index for f in t.frames],
                                       t.reference_index, *image)
        want_report = pose_errors(predicted, canonical)
        assert report.rotation_error.tobytes() == want_report.rotation_error.tobytes()
        assert report.translation_error.tobytes() == want_report.translation_error.tobytes()
        assert mrra30 == mrra(predicted, canonical, tau=30.0)
        assert residual == evaluation._reencode_residual(predicted, canonical)

    @pytest.mark.parametrize("kind, reverse", [
        (TrajectoryKind.ORBIT, False), (TrajectoryKind.ARC_LEFT, True),
    ], ids=["orbit-reference-first", "reversed-arc-reference-last"])
    def test_gaussian_cycle_draws_all_but_the_reference_on_the_worker(self, monkeypatch,
                                                                       kind, reverse):
        # the draws follow decode_trajectory's read order: were it to change,
        # the noise would quietly be drawn on the caller's thread again
        intr = Intrinsics(fx=60.0, fy=60.0, cx=32.0, cy=24.0, width=64, height=48)
        t = generate_trajectory(kind, 7, intr)
        t = reverse_trajectory(t) if reverse else t
        spec = PerturbationSpec(PerturbationKind.GAUSSIAN_PER_PIXEL, 0.01, seed=9)
        seeds = np.random.SeedSequence(spec.seed).generate_state(len(t))
        perturbed, drawn_on = [], []
        real_perturb = evaluation.perturb
        monkeypatch.setattr(evaluation, "perturb", lambda image, spec: perturbed.append(
            spec.seed) or real_perturb(image, spec))
        real_submit = ThreadPoolExecutor.submit

        def submit(pool, fn, *args, **kwargs):
            def recorded(*a, **kw):
                drawn_on.append(threading.get_ident())
                return fn(*a, **kw)
            return real_submit(pool, recorded, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", submit)
        cycle_consistency_run(t, spec)
        assert perturbed == [int(seeds[t.reference_index])]
        assert len(drawn_on) == len(t) - 1
        assert threading.get_ident() not in drawn_on

    def test_mixed_intrinsics_rejected(self):
        other = Intrinsics(fx=90.0, fy=90.0, cx=64.0, cy=48.0, width=128, height=96)
        frames = (
            CameraFrame(intrinsics=INTR, pose=Pose.identity(), index=0),
            CameraFrame(intrinsics=other, pose=Pose.identity(), index=1),
        )
        t = Trajectory(frames=frames, reference_index=0)
        with pytest.raises(ValueError):
            cycle_consistency_run(t, PerturbationSpec(PerturbationKind.GAUSSIAN_PER_PIXEL, 0.0))
