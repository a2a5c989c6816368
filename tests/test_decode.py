"""Tests for pose and focal recovery from raxel images."""

import weakref

import numpy as np
import pytest

from raxelkit.decode import (
    INLIER_EPS,
    MIN_INLIER_FRACTION,
    decode_trajectory,
    recover_focal,
)
from raxelkit.errors import (
    DegenerateGeometryError,
    InsufficientInliersError,
    NonFiniteInputError,
    ShapeMismatchError,
)
from raxelkit.geometry import (
    _GEMM_T_ONE_THREAD,
    CameraFrame,
    Intrinsics,
    Pose,
    axis_angle_rotation,
    compose,
    geodesic_rotation_distance,
    inverse,
    random_pose,
)
from raxelkit.evaluation import TrajectoryKind, generate_trajectory
from raxelkit.rays import (
    RayGrid,
    encode_plucker,
    encode_raxel,
    encode_trajectory_raxels,
    grid_pixel_coordinates,
    ray_grid,
)
from raxelkit.registration import register

INTR = Intrinsics(fx=700.0, fy=700.0, cx=416.0, cy=240.0, width=832, height=480)
FRAME = CameraFrame(intrinsics=INTR, pose=Pose.identity(), index=0)
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def reference_image(intr=INTR):
    return encode_raxel(CameraFrame(intrinsics=intr, pose=Pose.identity(), index=0), Pose.identity())


def orbit_poses(n, radius=2.0):
    """Cameras on a circle in the y = 0 plane, all looking at the origin,
    expressed relative to the first camera."""
    poses = []
    for k in range(n):
        phi = 2.0 * np.pi * k / n
        rot = axis_angle_rotation(Y_AXIS, -phi)
        pos = radius * np.array([np.sin(phi), 0.0, -np.cos(phi)])
        poses.append(Pose(rot, pos))
    first_inv = inverse(poses[0])
    return [compose(first_inv, p) for p in poses]


def points(grid):
    return grid.data.reshape(-1, 3)


class TestRecoverPose:
    """The pose step of one frame pair: the unprepared ``register`` on the
    reshaped grids, the oracle of the decode's prepared path."""

    def test_identical_images_give_identity(self):
        ref = reference_image()
        result = register(points(ref), points(ref))
        assert geodesic_rotation_distance(result.pose, Pose.identity()) < 1e-12
        assert np.linalg.norm(result.pose.translation) < 1e-12
        assert result.rms_residual < 1e-12

    def test_recovers_known_pose(self):
        pose = Pose(
            axis_angle_rotation(Z_AXIS, np.deg2rad(25.0)),
            np.array([0.3, -0.1, 0.5]),
        )
        result = register(points(encode_raxel(FRAME, pose)), points(reference_image()))
        assert geodesic_rotation_distance(result.pose, pose) < 1e-9
        assert np.linalg.norm(result.pose.translation - pose.translation) < 1e-9

    def test_noise_bound_over_seeded_trials(self):
        ref = reference_image()
        worst = 0.0
        for seed in range(20):
            pose = random_pose(rng_seed=1000 + seed, rotation_scale=1.0, translation_scale=1.0)
            clean = encode_raxel(FRAME, pose)
            rng = np.random.default_rng(seed)
            noisy = RayGrid(clean.data + rng.normal(0.0, 0.01, clean.data.shape))
            result = register(points(noisy), points(ref))
            worst = max(worst, geodesic_rotation_distance(result.pose, pose))
        # measured 3.7e-4 max on these seeds; pinned with margin
        assert worst < 1e-3

    def test_mismatched_grids_rejected(self):
        small = Intrinsics(fx=100.0, fy=100.0, cx=20.0, cy=15.0, width=40, height=30)
        with pytest.raises(ShapeMismatchError):
            register(points(reference_image(small)), points(reference_image()))

    def test_constant_image_degenerate(self):
        ref = reference_image()
        flat = RayGrid(np.tile(np.array([0.1, 0.2, 0.9]), (ref.height_r, ref.width_r, 1)))
        with pytest.raises(DegenerateGeometryError):
            register(points(flat), points(ref))


def _bits(x):
    return np.float64(x).tobytes()


def focal_outcome(target, pose, width, height):
    """recover_focal's result as bit patterns, or the class of its error."""
    try:
        fx, fy, frac = recover_focal(target, pose, width, height)
    except InsufficientInliersError as err:
        return "not positive" if "not positive" in str(err) else "too few inliers"
    return _bits(fx), _bits(fy), _bits(frac)


def focal_oracle(target, pose, width, height):
    """The median-of-ratios estimate as first written: np.abs masks, fresh
    vote arrays per axis, np.partition on a copy."""
    u, v = grid_pixel_coordinates(width, height)
    u_c, v_c = u - width / 2.0, v - height / 2.0
    # R^T p - R^T T, one product per 3000 pixels, as registration first did
    rt = pose.rotation.T
    pts = target.data.reshape(-1, 3)
    local = np.hstack([rt @ pts[start:start + 3000].T
                       for start in range(0, len(pts), 3000)])
    local -= (rt @ pose.translation)[:, None]
    x, y, z = (row.reshape(v.size, u.size) for row in local)
    z_ok = z > INLIER_EPS
    mask_x = z_ok & (np.abs(x) > INLIER_EPS)
    mask_y = z_ok & (np.abs(y) > INLIER_EPS)
    frac_x = np.count_nonzero(mask_x) / x.size
    frac_y = np.count_nonzero(mask_y) / x.size
    if frac_x < MIN_INLIER_FRACTION or frac_y < MIN_INLIER_FRACTION:
        return "too few inliers"
    with np.errstate(divide="ignore", invalid="ignore"):
        fx_votes = (u_c[None, :] * z) / x
        fy_votes = (v_c[:, None] * z) / y

    def lower_median(values):
        k = (values.size - 1) // 2
        return float(np.partition(values, k)[k])

    fx_hat = lower_median(fx_votes[mask_x])
    fy_hat = lower_median(fy_votes[mask_y])
    if fx_hat <= 0.0 or fy_hat <= 0.0:
        return "not positive"
    return _bits(fx_hat), _bits(fy_hat), _bits(min(frac_x, frac_y))


class TestRecoverFocal:
    def test_clean_isotropic(self):
        intr = Intrinsics(fx=500.0, fy=500.0, cx=416.0, cy=240.0, width=832, height=480)
        img = encode_raxel(CameraFrame(intrinsics=intr, pose=Pose.identity(), index=0), Pose.identity())
        fx, fy, frac = recover_focal(img, Pose.identity(), 832, 480)
        assert abs(fx - 500.0) / 500.0 < 1e-6
        assert abs(fy - 500.0) / 500.0 < 1e-6
        assert 0.0 < frac <= 1.0

    def test_clean_anisotropic_with_pose(self):
        intr = Intrinsics(fx=400.0, fy=600.0, cx=416.0, cy=240.0, width=832, height=480)
        pose = Pose(axis_angle_rotation(Y_AXIS, np.deg2rad(15.0)), np.array([1.0, 0.0, 0.0]))
        img = encode_raxel(CameraFrame(intrinsics=intr, pose=pose, index=0), pose)
        fx, fy, _ = recover_focal(img, pose, 832, 480)
        assert abs(fx - 400.0) / 400.0 < 1e-6
        assert abs(fy - 600.0) / 600.0 < 1e-6

    def test_axis_aligned_pixels_excluded_without_shifting_result(self):
        # cx = 415 sits on a grid sample column (odd u), so that column has
        # x exactly 0 and must be excluded; the estimate is unaffected.
        intr = Intrinsics(fx=500.0, fy=500.0, cx=415.0, cy=239.0, width=832, height=480)
        img = encode_raxel(CameraFrame(intrinsics=intr, pose=Pose.identity(), index=0), Pose.identity())
        fx, fy, frac = recover_focal(img, Pose.identity(), 832, 480, cx=415.0, cy=239.0)
        assert frac < 1.0
        assert abs(fx - 500.0) / 500.0 < 1e-6
        assert abs(fy - 500.0) / 500.0 < 1e-6

    def test_median_survives_49_percent_corruption(self):
        intr = Intrinsics(fx=500.0, fy=500.0, cx=416.0, cy=240.0, width=832, height=480)
        img = encode_raxel(CameraFrame(intrinsics=intr, pose=Pose.identity(), index=0), Pose.identity())
        data = img.data.copy()
        rng = np.random.default_rng(99)
        n = data.shape[0] * data.shape[1]
        bad = rng.choice(n, size=int(0.49 * n), replace=False)
        flat = data.reshape(-1, 3)
        flat[bad] = rng.normal(0.0, 50.0, (bad.size, 3))
        fx, fy, _ = recover_focal(RayGrid(flat.reshape(data.shape)), Pose.identity(), 832, 480)
        assert abs(fx - 500.0) / 500.0 < 0.01
        assert abs(fy - 500.0) / 500.0 < 0.01

    def test_no_usable_pixels_raises(self):
        shape = (240, 416, 3)
        backward = np.tile(np.array([0.0, 0.0, -1.0]), (shape[0], shape[1], 1))
        with pytest.raises(InsufficientInliersError):
            recover_focal(RayGrid(backward), Pose.identity(), 832, 480)

    def test_dimension_grid_mismatch_rejected(self):
        img = reference_image()
        with pytest.raises(ShapeMismatchError):
            recover_focal(img, Pose.identity(), 416, 240)

    def test_random_poses_match_the_oracle_bit_for_bit(self):
        intr = Intrinsics(fx=70.0, fy=55.0, cx=48.0, cy=32.0, width=96, height=64)
        rng = np.random.default_rng(5)
        for seed in range(12):
            pose = random_pose(seed, np.pi, 2.0)
            img = encode_raxel(CameraFrame(intrinsics=intr, pose=pose, index=0), pose)
            noisy = RayGrid(img.data + rng.normal(0.0, 0.05, img.data.shape))
            for grid in (img, noisy):
                # the true pose, and a wrong one that turns votes negative
                for p in (pose, Pose.identity()):
                    assert focal_outcome(grid, p, 96, 64) == focal_oracle(grid, p, 96, 64)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [INLIER_EPS, -INLIER_EPS, 0.0, -0.0, np.inf, -np.inf])
    def test_boundary_pixels_match_the_oracle_bit_for_bit(self, value):
        intr = Intrinsics(fx=60.0, fy=60.0, cx=48.0, cy=32.0, width=96, height=64)
        rng = np.random.default_rng(11)
        for share in (0.05, 0.5, 0.95):
            for channel in range(3):
                data = reference_image(intr).data.copy()
                flat = data.reshape(-1, 3)
                chosen = rng.choice(flat.shape[0], size=int(share * flat.shape[0]), replace=False)
                flat[chosen, channel] = value
                grid = RayGrid(data)
                for pose in (Pose.identity(), random_pose(channel, 0.3, 0.5)):
                    assert focal_outcome(grid, pose, 96, 64) == focal_oracle(grid, pose, 96, 64)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("width, height", [
        (832, 160),  # 80x416: the oracle's 3000-pixel products end inside rows
        (666, 130),  # 65x333: a shorter last block
        (96, 3),  # a 1-row grid
        (7000, 3),  # one row wider than one of the oracle's products
        (56000, 22),  # 11x28000: the one-thread gemm limit takes one row a block
        (112000, 2),  # 1x56000: a row past the one-thread gemm limit
    ])
    def test_blocked_votes_match_the_oracle_bit_for_bit(self, width, height):
        intr = Intrinsics(fx=0.6 * width, fy=0.7 * width, cx=width / 2, cy=height / 2,
                          width=width, height=height)
        rng = np.random.default_rng(width + height)
        pose = random_pose(width, 0.4, 0.5)
        clean = encode_raxel(CameraFrame(intrinsics=intr, pose=pose, index=0), pose).data
        hostile = clean.copy().reshape(-1, 3)
        n = hostile.shape[0]
        # non-finite pixels and camera-frame x or y at or near zero
        for value, channel in ((np.inf, 0), (-np.inf, 2), (np.nan, 1), (0.0, 0),
                               (INLIER_EPS, 1), (-INLIER_EPS, 0), (1e-300, 1)):
            hostile[rng.choice(n, size=max(1, n // 20), replace=False), channel] = value
        grids = [
            RayGrid(clean),
            RayGrid(clean + rng.normal(0.0, 0.05, clean.shape)),
            RayGrid(hostile.reshape(clean.shape)),
        ]
        for grid in grids:
            for p in (pose, Pose.identity()):
                assert focal_outcome(grid, p, width, height) == focal_oracle(grid, p, width, height)

    def test_each_block_gemm_stays_under_the_one_thread_limit(self, monkeypatch):
        # an 11x28000 grid: a tenth of it, two rows, would be a gemm of 504k
        # multiply-adds; blocks of one row keep every gemm under the limit
        intr = Intrinsics(fx=30000.0, fy=30000.0, cx=28000.0, cy=11.0, width=56000, height=22)
        img = encode_raxel(CameraFrame(intrinsics=intr, pose=Pose.identity(), index=0),
                           Pose.identity())
        pose = Pose.identity()
        products, matmul = [], np.matmul

        def recording(a, b, *args, **kwargs):
            products.append(a.shape[0] * a.shape[1] * b.shape[-1])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        recover_focal(img, pose, 56000, 22)
        assert len(products) == 11 and max(products) <= _GEMM_T_ONE_THREAD

    def test_error_messages_are_unchanged(self):
        intr = Intrinsics(fx=60.0, fy=60.0, cx=48.0, cy=32.0, width=96, height=64)
        data = reference_image(intr).data.copy()
        backward = data.copy()
        backward[..., 2] = -1.0
        with pytest.raises(InsufficientInliersError) as err:
            recover_focal(RayGrid(backward), Pose.identity(), 96, 64)
        assert str(err.value) == "focal inlier fractions 0.000/0.000 below 0.1"
        data[..., 0] *= -1.0  # every fx vote turns negative
        with pytest.raises(InsufficientInliersError) as err:
            recover_focal(RayGrid(data), Pose.identity(), 96, 64)
        assert str(err.value) == (
            "focal estimates -60/60 are not positive: "
            "at least half the votes disagree with the pose"
        )


class TestDecodeTrajectory:
    def test_orbit_round_trip(self):
        poses = orbit_poses(21)
        images = [encode_raxel(FRAME, p) for p in poses]
        decoded, failures = decode_trajectory(images, 0, 832, 480)
        assert failures == []
        for frame, pose in zip(decoded, poses):
            assert geodesic_rotation_distance(frame.pose, pose) < 1e-9
            assert np.linalg.norm(frame.pose.translation - pose.translation) < 1e-9
            assert abs(frame.fx_hat - INTR.fx) / INTR.fx < 1e-6
            assert abs(frame.fy_hat - INTR.fy) / INTR.fy < 1e-6

    def test_reference_pose_is_exact_identity(self):
        poses = orbit_poses(5)
        images = [encode_raxel(FRAME, p) for p in poses]
        decoded, _ = decode_trajectory(images, 0, 832, 480)
        assert np.array_equal(decoded[0].pose.rotation, np.eye(3))
        assert np.array_equal(decoded[0].pose.translation, np.zeros(3))
        assert decoded[0].pose_residual == 0.0

    def test_single_image_sequence(self):
        decoded, failures = decode_trajectory([reference_image()], 0, 832, 480)
        assert failures == []
        assert np.array_equal(decoded[0].pose.rotation, np.eye(3))
        assert abs(decoded[0].fx_hat - INTR.fx) / INTR.fx < 1e-6

    def test_degenerate_frame_reported_not_fatal(self):
        poses = orbit_poses(4)
        images = [encode_raxel(FRAME, p) for p in poses]
        flat = np.tile(np.array([0.1, 0.2, 0.9]), (images[0].height_r, images[0].width_r, 1))
        images[2] = RayGrid(flat)
        decoded, failures = decode_trajectory(images, 0, 832, 480)
        assert decoded[2] is None
        assert len(failures) == 1
        assert failures[0].position == 2
        assert isinstance(failures[0].error, DegenerateGeometryError)
        for pos in (0, 1, 3):
            assert geodesic_rotation_distance(decoded[pos].pose, poses[pos]) < 1e-9

    def test_non_finite_frame_reported_not_fatal(self):
        poses = orbit_poses(5)
        images = [encode_raxel(FRAME, p) for p in poses]
        data = images[2].data.copy()
        data[17, 101, 1] = np.nan
        images[2] = RayGrid(data)
        decoded, failures = decode_trajectory(images, 0, 832, 480)
        assert [f.position for f in failures] == [2]
        assert isinstance(failures[0].error, NonFiniteInputError)
        assert decoded[2] is None
        for pos in (0, 1, 3, 4):
            assert geodesic_rotation_distance(decoded[pos].pose, poses[pos]) < 1e-9
            assert abs(decoded[pos].fx_hat - INTR.fx) / INTR.fx < 1e-6

    def test_non_finite_reference_raises(self):
        images = [encode_raxel(FRAME, p) for p in orbit_poses(3)]
        data = images[0].data.copy()
        data[0, 0, 0] = np.inf
        images[0] = RayGrid(data)
        with pytest.raises(NonFiniteInputError):
            decode_trajectory(images, 0, 832, 480)

    def test_permuting_frames_permutes_outputs(self):
        poses = orbit_poses(5)
        images = [encode_raxel(FRAME, p) for p in poses]
        decoded, _ = decode_trajectory(images, 0, 832, 480)
        swapped = [images[0], images[3], images[2], images[1], images[4]]
        decoded_swapped, _ = decode_trajectory(swapped, 0, 832, 480)
        for a, b in ((1, 3), (2, 2), (4, 4)):
            assert np.array_equal(decoded_swapped[a].pose.rotation, decoded[b].pose.rotation)
            assert decoded_swapped[a].fx_hat == decoded[b].fx_hat

    def test_bad_reference_index(self):
        with pytest.raises(IndexError):
            decode_trajectory([reference_image()], 1, 832, 480)

    def test_mixed_grids_rejected(self):
        small = Intrinsics(fx=100.0, fy=100.0, cx=20.0, cy=15.0, width=40, height=30)
        with pytest.raises(ShapeMismatchError):
            decode_trajectory([reference_image(), reference_image(small)], 0, 832, 480)

    def test_non_raxel_grid_rejected(self):
        small = Intrinsics(fx=30.0, fy=30.0, cx=32.0, cy=24.0, width=64, height=48)
        plucker = encode_plucker(CameraFrame(intrinsics=small, pose=Pose.identity(), index=0),
                                 Pose.identity())
        with pytest.raises(ShapeMismatchError, match="plucker"):
            decode_trajectory([plucker], 0, 64, 48)
        with pytest.raises(ShapeMismatchError, match="plucker"):
            recover_focal(plucker, Pose.identity(), 64, 48)

    def test_non_positive_focal_is_a_frame_failure(self):
        # decoding an arc against a frame that is not its identity-pose
        # reference leaves most fx votes negative; no frame may decode to a
        # focal length that is not positive
        focal = 48.0 / np.tan(np.pi / 6.0)
        intr = Intrinsics(fx=focal, fy=focal, cx=48.0, cy=32.0, width=96, height=64)
        images = encode_trajectory_raxels(generate_trajectory(TrajectoryKind.ARC_LEFT, 9, intr))
        decoded, failures = decode_trajectory(images, 4, 96, 64)
        assert failures
        # every frame fails, the reference too; though the reference is
        # decoded first, the list stays in order of position
        assert [f.position for f in failures] == list(range(9))
        for failure in failures:
            assert isinstance(failure.error, InsufficientInliersError)
            assert "not positive" in str(failure.error)
        assert all(d.fx_hat > 0.0 and d.fy_hat > 0.0 for d in decoded if d is not None)


class CountingGrids:
    """A sized sequence that builds a fresh grid on each read. It records the
    order of reads, and at each read k which non-reference grids read
    earlier still have their pixel arrays alive (every grid when
    ``reference`` is None); it holds only weak references to them."""

    def __init__(self, data, reference):
        self.data, self.reference = data, reference
        self.reads, self.alive_at_read, self.returned = [], {}, {}

    def __len__(self):
        return len(self.data)

    def __getitem__(self, k):
        self.alive_at_read[k] = [
            j for j, ref in self.returned.items()
            if j != self.reference and ref() is not None
        ]
        self.reads.append(k)
        grid = RayGrid(self.data[k].copy())
        self.returned[k] = weakref.ref(grid.data)
        return grid


class TestLazyDecode:
    def test_dims_that_do_not_fit_fail_the_call_at_the_reference(self):
        intr = Intrinsics(fx=60.0, fy=60.0, cx=48.0, cy=32.0, width=96, height=64)
        frame = CameraFrame(intrinsics=intr, pose=Pose.identity(), index=0)
        grids = CountingGrids([encode_raxel(frame, p).data for p in orbit_poses(4)], reference=0)
        with pytest.raises(ShapeMismatchError, match="32x50.*32x48"):
            decode_trajectory(grids, 0, 100, 64)
        assert grids.reads == [0]

    def test_reads_each_grid_once_reference_first_and_keeps_none(self):
        intr = Intrinsics(fx=60.0, fy=60.0, cx=48.0, cy=32.0, width=96, height=64)
        frame = CameraFrame(intrinsics=intr, pose=Pose.identity(), index=0)
        poses = orbit_poses(8)
        to_ref = inverse(poses[3])
        data = [encode_raxel(frame, compose(to_ref, p)).data for p in poses]
        # one frame fails registration and one the finite check; their
        # failure records must not keep their grids alive
        data[5] = np.tile(np.array([0.1, 0.2, 0.9]), (32, 48, 1))
        data[6] = data[6].copy()
        data[6][4, 7, 2] = np.nan

        grids = CountingGrids(data, reference=3)
        decoded, failures = decode_trajectory(grids, 3, 96, 64)

        assert grids.reads == [3, 0, 1, 2, 4, 5, 6, 7]
        assert {k: alive for k, alive in grids.alive_at_read.items() if alive} == {}
        assert [f.position for f in failures] == [5, 6]

        want, want_failures = decode_trajectory([RayGrid(d) for d in data], 3, 96, 64)
        assert [(f.position, str(f.error)) for f in failures] == [
            (f.position, str(f.error)) for f in want_failures
        ]
        for got, exp in zip(decoded, want):
            assert (got is None) == (exp is None)
            if got is not None:
                assert np.array_equal(got.pose.rotation, exp.pose.rotation)
                assert np.array_equal(got.pose.translation, exp.pose.translation)
                assert (got.fx_hat, got.fy_hat, got.pose_residual, got.inlier_fraction) == (
                    exp.fx_hat, exp.fy_hat, exp.pose_residual, exp.inlier_fraction
                )

    @pytest.mark.parametrize("reference", [0, 3, 5])
    def test_drops_the_reference_grid_once_its_position_is_decoded(self, reference):
        intr = Intrinsics(fx=60.0, fy=60.0, cx=48.0, cy=32.0, width=96, height=64)
        frame = CameraFrame(intrinsics=intr, pose=Pose.identity(), index=0)
        poses = orbit_poses(6)
        to_ref = inverse(poses[reference])
        grids = CountingGrids(
            [encode_raxel(frame, compose(to_ref, p)).data for p in poses], reference=None
        )
        decoded, failures = decode_trajectory(grids, reference, 96, 64)
        assert not failures and all(d is not None for d in decoded)
        # like any other grid, the reference is gone before the next read
        assert {k: alive for k, alive in grids.alive_at_read.items() if alive} == {}
