import numpy as np
import pytest

from raxelkit.geometry import (
    _DOT_ONE_THREAD,
    _GEMM_ONE_THREAD,
    _one_thread_blocks,
    _row_blocks,
    CameraFrame,
    Intrinsics,
    Pose,
    Trajectory,
    axis_angle_rotation,
    canonicalize,
    compose,
    geodesic_rotation_distance,
    inverse,
    nearest_rotation,
    random_pose,
    rotation_angle,
)


def rot_z(deg):
    return axis_angle_rotation([0, 0, 1], np.deg2rad(deg))


def rot_x(deg):
    return axis_angle_rotation([1, 0, 0], np.deg2rad(deg))


def homogeneous(pose):
    # independent 4x4 oracle, no Pose methods
    m = np.eye(4)
    m[:3, :3] = pose.rotation
    m[:3, 3] = pose.translation
    return m


def random_poses(seed, n, rot_scale=np.pi / 2, trans_scale=2.0):
    return [random_pose(seed + k, rot_scale, trans_scale) for k in range(n)]


class TestPoseConstruction:
    def test_small_drift_kept_verbatim(self):
        r = rot_z(17.0)
        p = Pose(r, [1, 2, 3])
        assert np.array_equal(p.rotation, r)

    def test_moderate_drift_polar_projected(self):
        r = rot_z(17.0) + 1e-7 * np.ones((3, 3))
        p = Pose(r, np.zeros(3))
        assert np.abs(p.rotation.T @ p.rotation - np.eye(3)).max() < 1e-12
        assert np.linalg.det(p.rotation) == pytest.approx(1.0, abs=1e-12)

    def test_large_drift_rejected(self):
        with pytest.raises(ValueError):
            Pose(rot_z(17.0) + 0.1, np.zeros(3))

    def test_reflection_rejected(self):
        with pytest.raises(ValueError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_immutable(self):
        p = Pose.identity()
        with pytest.raises(AttributeError):
            p.translation = np.ones(3)
        with pytest.raises(ValueError):
            p.rotation[0, 0] = 2.0


class TestCompose:
    def test_identity_element(self):
        p = random_pose(3, 1.0, 1.0)
        q = compose(Pose.identity(), p)
        assert np.allclose(q.rotation, p.rotation, atol=1e-15)
        assert np.allclose(q.translation, p.translation, atol=1e-15)

    def test_inverse_law(self):
        p = random_pose(7, 1.5, 3.0)
        q = compose(p, inverse(p))
        assert np.abs(q.rotation - np.eye(3)).max() < 1e-12
        assert np.abs(q.translation).max() < 1e-12

    def test_rz30_then_rz60_is_rz90(self):
        a = Pose(rot_z(30.0), [1.0, 0.0, 0.0])
        b = Pose(rot_z(60.0), [0.0, 0.0, 0.0])
        got = compose(a, b)
        expected = homogeneous(a) @ homogeneous(b)  # brute-force 4x4 product
        assert np.allclose(homogeneous(got), expected, atol=1e-15)
        assert np.allclose(got.rotation, rot_z(90.0), atol=1e-15)
        assert np.allclose(got.translation, [1.0, 0.0, 0.0], atol=1e-15)

    def test_associativity_random_triples(self):
        for seed in range(30):
            a, b, c = random_poses(1000 + 3 * seed, 3)
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            assert np.abs(homogeneous(left) - homogeneous(right)).max() < 1e-10


class TestInverse:
    def test_identity(self):
        q = inverse(Pose.identity())
        assert np.array_equal(q.rotation, np.eye(3))
        assert np.array_equal(q.translation, np.zeros(3))

    def test_pure_translation(self):
        q = inverse(Pose(np.eye(3), [1.0, 2.0, 3.0]))
        assert np.allclose(q.translation, [-1.0, -2.0, -3.0], atol=1e-15)

    def test_rz90_with_offset(self):
        p = Pose(rot_z(90.0), [1.0, 0.0, 0.0])
        q = inverse(p)
        oracle = np.linalg.inv(homogeneous(p))
        assert np.allclose(homogeneous(q), oracle, atol=1e-12)
        assert np.allclose(q.rotation, rot_z(-90.0), atol=1e-15)
        assert np.allclose(q.translation, [0.0, 1.0, 0.0], atol=1e-15)


def make_trajectory(poses, reference=0):
    intr = Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
    frames = tuple(CameraFrame(intr, p, k) for k, p in enumerate(poses))
    return Trajectory(frames, reference)


def pairwise_relatives(traj):
    rel = {}
    for i, fi in enumerate(traj.frames):
        for j, fj in enumerate(traj.frames):
            if i < j:
                rel[(i, j)] = compose(inverse(fi.pose), fj.pose)
    return rel


class TestCanonicalize:
    def test_already_canonical_is_unchanged(self):
        poses = [Pose.identity()] + [random_pose(s, 1.0, 1.0) for s in range(1, 4)]
        t = make_trajectory(poses, reference=0)
        out = canonicalize(t, 0)
        for f, g in zip(t.frames, out.frames):
            assert np.abs(homogeneous(f.pose) - homogeneous(g.pose)).max() < 1e-12

    def test_equal_poses_become_identity(self):
        p = random_pose(11, 1.0, 1.0)
        t = make_trajectory([p, p])
        out = canonicalize(t, 0)
        for f in out.frames:
            assert np.abs(homogeneous(f.pose) - np.eye(4)).max() < 1e-12

    def test_reference_exactly_identity(self):
        t = make_trajectory(random_poses(21, 5))
        out = canonicalize(t, 2)
        ref = out.frames[2].pose
        assert np.array_equal(ref.rotation, np.eye(3))
        assert np.array_equal(ref.translation, np.zeros(3))

    def test_pairwise_relatives_preserved(self):
        t = make_trajectory(random_poses(40, 5))
        before = pairwise_relatives(t)
        after = pairwise_relatives(canonicalize(t, 2))
        for (i, j), rel in before.items():
            # per-pair geodesic rotation distance is unchanged ...
            d_before = geodesic_rotation_distance(t.frames[i].pose, t.frames[j].pose)
            can = canonicalize(t, 2)
            d_after = geodesic_rotation_distance(can.frames[i].pose, can.frames[j].pose)
            assert abs(d_before - d_after) < 1e-10
            # ... and so is the relative transform itself, entrywise
            assert np.abs(rel.rotation - after[(i, j)].rotation).max() < 1e-12
            assert np.linalg.norm(rel.translation - after[(i, j)].translation) < 1e-10

    def test_out_of_range_reference(self):
        t = make_trajectory(random_poses(5, 3))
        with pytest.raises(IndexError):
            canonicalize(t, 3)
        with pytest.raises(IndexError):
            canonicalize(t, -1)


class TestGeodesicRotationDistance:
    def test_identity_pair(self):
        assert geodesic_rotation_distance(Pose.identity(), Pose.identity()) == 0.0

    def test_quarter_turn(self):
        p = Pose(rot_z(90.0), np.zeros(3))
        assert geodesic_rotation_distance(Pose.identity(), p) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_same_axis_difference(self):
        a = Pose(rot_x(10.0), np.zeros(3))
        b = Pose(rot_x(40.0), np.zeros(3))
        # axis-angle composition oracle: both about +x, so the gap is 30 degrees
        assert geodesic_rotation_distance(a, b) == pytest.approx(np.deg2rad(30.0), abs=1e-12)

    def test_symmetry(self):
        a, b = random_poses(60, 2)
        assert geodesic_rotation_distance(a, b) == pytest.approx(
            geodesic_rotation_distance(b, a), abs=1e-12
        )

    def test_triangle_inequality(self):
        for seed in range(50):
            a, b, c = random_poses(2000 + 3 * seed, 3, rot_scale=np.pi)
            dab = geodesic_rotation_distance(a, b)
            dbc = geodesic_rotation_distance(b, c)
            dac = geodesic_rotation_distance(a, c)
            assert dac <= dab + dbc + 1e-9


class TestRotationAngle:
    def test_stack_equals_per_matrix(self):
        tiny, eps = 1e-12, 1e-13
        rotations = [np.eye(3), rot_z(180.0)] + [
            axis_angle_rotation(axis, angle)
            for axis in ([1, 0, 0], [0, 1, 1], [1, -2, 3])
            for angle in (tiny, eps, np.pi - tiny, np.pi - eps, np.pi, 1.0)
        ]
        rotations += [p.rotation for p in random_poses(70, 20, rot_scale=np.pi)]
        stack = np.stack(rotations)
        one_by_one = [rotation_angle(r) for r in rotations]
        assert all(type(a) is float for a in one_by_one)
        assert rotation_angle(stack).tolist() == one_by_one
        assert rotation_angle(stack.reshape(2, -1, 3, 3)).tolist() == np.reshape(
            one_by_one, (2, -1)
        ).tolist()


class TestRandomPose:
    def test_zero_scales_give_identity(self):
        p = random_pose(5, 0.0, 0.0)
        assert np.array_equal(p.rotation, np.eye(3))
        assert np.array_equal(p.translation, np.zeros(3))

    def test_deterministic_per_seed(self):
        a = random_pose(123, 1.0, 2.0)
        b = random_pose(123, 1.0, 2.0)
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)

    def test_negative_scales_rejected(self):
        with pytest.raises(ValueError):
            random_pose(0, -1.0, 0.0)

    def test_angles_uniform_on_0_pi(self):
        n = 10_000
        angles = np.array(
            [rotation_angle(random_pose(seed, np.pi, 0.0).rotation) for seed in range(n)]
        )
        # Kolmogorov-Smirnov statistic against U[0, pi], computed directly
        x = np.sort(angles) / np.pi
        cdf_hi = np.arange(1, n + 1) / n
        cdf_lo = np.arange(0, n) / n
        ks = max(np.abs(cdf_hi - x).max(), np.abs(cdf_lo - x).max())
        assert ks < 0.02


class TestValidation:
    def test_intrinsics_invariants(self):
        with pytest.raises(ValueError):
            Intrinsics(0.0, 500.0, 320.0, 240.0, 640, 480)
        with pytest.raises(ValueError):
            Intrinsics(500.0, 500.0, 640.0, 240.0, 640, 480)
        with pytest.raises(ValueError):
            Intrinsics(500.0, 500.0, 320.0, 240.0, -640, 480)
        for focal in (np.nan, np.inf):
            with pytest.raises(ValueError):
                Intrinsics(focal, 500.0, 320.0, 240.0, 640, 480)
            with pytest.raises(ValueError):
                Intrinsics(500.0, focal, 320.0, 240.0, 640, 480)

    def test_trajectory_invariants(self):
        intr = Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
        frames = (
            CameraFrame(intr, Pose.identity(), 0),
            CameraFrame(intr, Pose.identity(), 0),
        )
        with pytest.raises(ValueError):
            Trajectory(frames, 0)
        with pytest.raises(IndexError):
            Trajectory(frames[:1], 1)
        with pytest.raises(ValueError):
            Trajectory((), 0)

    def test_nearest_rotation_is_projection(self):
        r = rot_z(33.0)
        assert np.allclose(nearest_rotation(r), r, atol=1e-12)
        noisy = r + 1e-4 * np.arange(9).reshape(3, 3)
        fixed = nearest_rotation(noisy)
        assert np.abs(fixed.T @ fixed - np.eye(3)).max() < 1e-12
        assert np.linalg.det(fixed) == pytest.approx(1.0, abs=1e-12)


class TestOneThreadBlocks:
    @pytest.mark.parametrize("n", [0, 1, 2, 26, 27, 28, 95, 96, 97, 384, 385, 36864])
    @pytest.mark.parametrize("cost", [1, 9216, 36864, 2_000_000])
    def test_blocks_cover_each_row_once_under_the_limit(self, n, cost):
        blocks = _one_thread_blocks(n, (cost, _GEMM_ONE_THREAD))
        counts = np.zeros(n, dtype=int)
        for block in blocks:
            counts[block] += 1
        assert np.all(counts == 1)
        assert all(0 <= b.start < b.stop <= n for b in blocks)
        sizes = [b.stop - b.start for b in blocks]
        assert all(size >= 1 for size in sizes)
        # equal sizes but a smaller last block, which is kept when ragged
        assert len(set(sizes[:-1])) <= 1 and (not sizes or sizes[-1] <= sizes[0])
        if cost <= _GEMM_ONE_THREAD:
            assert all(size * cost <= _GEMM_ONE_THREAD for size in sizes)
            assert len(blocks) == -(-n // (_GEMM_ONE_THREAD // cost))
        else:
            # a row over the limit on its own is a block of its own
            assert sizes == [1] * n

    def test_the_tightest_product_sets_the_block(self):
        blocks = _one_thread_blocks(384, (96 * 96, _GEMM_ONE_THREAD), (24 * 384, _GEMM_ONE_THREAD),
                                    (1, 50))
        assert [b.stop - b.start for b in blocks] == [48] * 8

    @pytest.mark.parametrize("n, products, rows", [
        # the generate shapes: 384 tokens, d_model 96, 4 heads of 24, d_ff 384
        (384, [(96 * 96, _GEMM_ONE_THREAD)], 96),                   # q, k, v projections
        (384, [(24 * 384, _GEMM_ONE_THREAD), (96 * 96, _GEMM_ONE_THREAD)], 96),  # attention core
        (384, [(96 * 384, _GEMM_ONE_THREAD)], 26),                  # ff_in and ff_out
        (36864, [(1, _DOT_ONE_THREAD)], 9216),                      # flow loss dots
    ])
    def test_generate_shapes_stay_under_their_stated_sizes(self, n, products, rows):
        blocks = _one_thread_blocks(n, *products)
        assert blocks[0].stop == rows
        for block in blocks:
            for cost, limit in products:
                assert (block.stop - block.start) * cost <= limit

    def test_row_blocks_keep_the_per_pixel_block_size(self):
        blocks = _row_blocks(99840)
        assert [b.stop - b.start for b in blocks[:-1]] == [3000] * 33
        assert blocks[-1] == slice(99000, 99840)
        assert _row_blocks(10, 4) == [slice(0, 4), slice(4, 8), slice(8, 10)]
