"""Tests for the dense ray encodings (raxel, Plucker, raymap)."""

import dataclasses

import numpy as np
import pytest

from raxelkit.decode import decode_trajectory
from raxelkit.evaluation import TrajectoryKind, generate_trajectory
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
from raxelkit.rays import (
    GridKind,
    LazyGrids,
    RayGrid,
    encode_plucker,
    encode_raxel,
    encode_raymap,
    encode_trajectory_raxels,
    grid_pixel_coordinates,
    ray_grid,
)

# Intrinsics whose principal point and (cx + fx, cy) both land exactly on
# grid samples: grid coordinates are the odd integers (2j+1, 2i+1).
INTR = Intrinsics(fx=100.0, fy=100.0, cx=101.0, cy=51.0, width=256, height=128)


def pixel_index(intr, u, v):
    """Grid (i, j) for a full-resolution coordinate, which must be a sample."""
    assert u % 2 == 1 and v % 2 == 1
    return int(v) // 2, int(u) // 2


def grid_oracle(intr):
    """Per-pixel unprojection via explicit K inverse, one pixel at a time."""
    kinv = np.linalg.inv(intr.matrix())
    out = np.empty((intr.height // 2, intr.width // 2, 3))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            ray = kinv @ np.array([2.0 * j + 1.0, 2.0 * i + 1.0, 1.0])
            out[i, j] = ray / np.linalg.norm(ray)
    return out


def random_frame(seed, intr=INTR):
    return CameraFrame(
        intrinsics=intr,
        pose=random_pose(rng_seed=seed, rotation_scale=np.pi, translation_scale=2.0),
        index=0,
    )


class TestRayGrid:
    def test_principal_point_is_optical_axis(self):
        grid = ray_grid(INTR)
        i, j = pixel_index(INTR, INTR.cx, INTR.cy)
        assert np.allclose(grid[i, j], [0.0, 0.0, 1.0], atol=1e-15)

    def test_one_focal_length_off_axis_is_45_degrees(self):
        grid = ray_grid(INTR)
        i, j = pixel_index(INTR, INTR.cx + INTR.fx, INTR.cy)
        expected = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        assert np.max(np.abs(grid[i, j] - expected)) < 1e-12

    def test_all_unit_norm_on_full_size_grid(self):
        intr = Intrinsics(fx=700.0, fy=700.0, cx=416.0, cy=240.0, width=832, height=480)
        grid = ray_grid(intr)
        assert grid.shape == (240, 416, 3)
        norms = np.linalg.norm(grid, axis=2)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_matches_explicit_unprojection(self):
        intr = Intrinsics(fx=40.0, fy=55.0, cx=17.0, cy=13.0, width=40, height=30)
        assert np.max(np.abs(ray_grid(intr) - grid_oracle(intr))) < 1e-14

    def test_odd_dimensions_floor(self):
        intr = Intrinsics(fx=10.0, fy=10.0, cx=10.0, cy=7.0, width=21, height=15)
        assert ray_grid(intr).shape == (7, 10, 3)

    def test_cached_and_read_only(self):
        a = ray_grid(INTR)
        b = ray_grid(INTR)
        assert a is b
        assert not a.flags.writeable

    def test_grid_coordinates_are_block_centers(self):
        u, v = grid_pixel_coordinates(8, 6)
        assert u.tolist() == [1.0, 3.0, 5.0, 7.0]
        assert v.tolist() == [1.0, 3.0, 5.0]


class TestEncodeRaxel:
    def test_identity_pose_principal_point(self):
        img = encode_raxel(random_frame(0), Pose.identity())
        i, j = pixel_index(INTR, INTR.cx, INTR.cy)
        assert np.allclose(img.data[i, j], [0.0, 0.0, 1.0], atol=1e-15)

    def test_translation_adds_origin(self):
        pose = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        img = encode_raxel(random_frame(0), pose)
        i, j = pixel_index(INTR, INTR.cx, INTR.cy)
        assert np.allclose(img.data[i, j], [1.0, 0.0, 1.0], atol=1e-15)

    def test_rotation_turns_optical_axis(self):
        ry90 = axis_angle_rotation(np.array([0.0, 1.0, 0.0]), np.pi / 2)
        img = encode_raxel(random_frame(0), Pose(ry90, np.zeros(3)))
        i, j = pixel_index(INTR, INTR.cx, INTR.cy)
        assert np.max(np.abs(img.data[i, j] - [1.0, 0.0, 0.0])) < 1e-12

    def test_grid_is_half_resolution(self):
        img = encode_raxel(random_frame(3), Pose.identity())
        assert (img.height_r, img.width_r) == (INTR.height // 2, INTR.width // 2)

    def test_direction_component_unit_after_removing_origin(self):
        pose = random_pose(rng_seed=7, rotation_scale=np.pi, translation_scale=5.0)
        img = encode_raxel(random_frame(7), pose)
        dirs = img.data - pose.translation
        norms = np.linalg.norm(dirs, axis=2)
        assert np.max(np.abs(norms - 1.0)) < 1e-9
        assert np.max(np.abs(dirs - ray_grid(INTR) @ pose.rotation.T)) < 1e-10

    def test_data_immutable(self):
        img = encode_raxel(random_frame(1), Pose.identity())
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 5.0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            RayGrid(np.zeros((4, 4, 6)))
        with pytest.raises(ValueError):
            RayGrid(np.zeros((4, 3)))


class TestEncodePlucker:
    def test_zero_translation_zero_moment(self):
        pose = Pose(axis_angle_rotation(np.array([1.0, 1.0, 0.0]), 0.4), np.zeros(3))
        pm = encode_plucker(random_frame(2), pose)
        assert pm.kind is GridKind.PLUCKER
        assert np.all(pm.data[:, :, 3:] == 0.0)

    def test_hand_cross_product_at_principal_point(self):
        pose = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        pm = encode_plucker(random_frame(2), pose)
        i, j = pixel_index(INTR, INTR.cx, INTR.cy)
        assert np.allclose(pm.data[i, j, :3], [0.0, 0.0, 1.0], atol=1e-15)
        assert np.allclose(pm.data[i, j, 3:], [0.0, 1.0, 0.0], atol=1e-15)

    def test_moment_orthogonal_to_direction_everywhere(self):
        pose = random_pose(rng_seed=11, rotation_scale=np.pi, translation_scale=3.0)
        pm = encode_plucker(random_frame(11), pose)
        dots = np.einsum("ijk,ijk->ij", pm.data[:, :, :3], pm.data[:, :, 3:])
        assert np.max(np.abs(dots)) < 1e-10

    def test_direction_channels_unit(self):
        pose = random_pose(rng_seed=12, rotation_scale=np.pi, translation_scale=3.0)
        pm = encode_plucker(random_frame(12), pose)
        norms = np.linalg.norm(pm.data[:, :, :3], axis=2)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_invariant_to_sliding_origin_along_ray(self):
        pose = random_pose(rng_seed=13, rotation_scale=np.pi, translation_scale=2.0)
        frame = random_frame(13)
        pm = encode_plucker(frame, pose)
        i, j = 40, 90
        d = pm.data[i, j, :3]
        slid = Pose(pose.rotation, pose.translation + 1.75 * d)
        pm_slid = encode_plucker(frame, slid)
        assert np.max(np.abs(pm_slid.data[i, j] - pm.data[i, j])) < 1e-10


class TestEncodeRaymap:
    def test_identity_pose_origin_channels_zero(self):
        rm = encode_raymap(random_frame(4), Pose.identity())
        assert rm.kind is GridKind.RAYMAP
        assert np.all(rm.data[:, :, :3] == 0.0)

    def test_directions_match_raxel_minus_origin(self):
        pose = random_pose(rng_seed=21, rotation_scale=np.pi, translation_scale=4.0)
        frame = random_frame(21)
        rm = encode_raymap(frame, pose)
        rx = encode_raxel(frame, pose)
        assert np.max(np.abs(rm.data[:, :, 3:] - (rx.data - pose.translation))) < 1e-12

    def test_origin_channels_constant(self):
        pose = random_pose(rng_seed=22, rotation_scale=np.pi, translation_scale=4.0)
        rm = encode_raymap(random_frame(22), pose)
        origins = rm.data[:, :, :3].reshape(-1, 3)
        # every pixel bit-identical, hence zero spread
        assert np.all(origins == origins[0])
        assert np.all(np.ptp(origins, axis=0) == 0.0)

    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ValueError):
            RayGrid(np.zeros((4, 4, 3)), GridKind.RAYMAP)


class TestTrajectoryEncoding:
    def make_trajectory(self, n=4, reference=1):
        frames = [
            CameraFrame(
                intrinsics=INTR,
                pose=random_pose(rng_seed=100 + k, rotation_scale=1.0, translation_scale=1.0),
                index=k,
            )
            for k in range(n)
        ]
        return Trajectory(frames=tuple(frames), reference_index=reference)

    def test_reference_frame_encodes_to_bare_grid_exactly(self):
        traj = self.make_trajectory()
        images = encode_trajectory_raxels(traj)
        assert np.array_equal(images[traj.reference_index].data, ray_grid(INTR))

    def test_matches_manual_canonicalize_then_encode(self):
        traj = self.make_trajectory(n=5, reference=3)
        images = encode_trajectory_raxels(traj)
        canonical = canonicalize(traj, 3)
        for img, frame in zip(images, canonical.frames):
            assert np.array_equal(img.data, encode_raxel(frame, frame.pose).data)

    def test_shared_intrinsics_congruence(self):
        # With common intrinsics, any two frames' raxels differ by exactly
        # the rigid motion between them: raxel_k = R_rel raxel_s + T_rel.
        traj = self.make_trajectory(n=4, reference=0)
        canonical = canonicalize(traj, 0)
        images = [encode_raxel(f, f.pose) for f in canonical.frames]
        for s in range(4):
            for k in range(4):
                rel = compose(canonical.frames[k].pose, inverse(canonical.frames[s].pose))
                mapped = images[s].data @ rel.rotation.T + rel.translation
                assert np.max(np.abs(mapped - images[k].data)) < 1e-10

    def test_result_is_a_sized_sequence_encoded_on_each_read(self):
        traj = self.make_trajectory(n=5, reference=3)
        images = encode_trajectory_raxels(traj)
        canonical = canonicalize(traj, 3)
        expected = [encode_raxel(f, f.pose) for f in canonical.frames]
        assert isinstance(images, LazyGrids) and len(images) == 5
        assert images[-1].data.tobytes() == expected[4].data.tobytes()
        assert images[-5].data.tobytes() == expected[0].data.tobytes()
        for past_the_end in (5, -6):
            with pytest.raises(IndexError):
                images[past_the_end]
        read = list(images)
        assert len(read) == 5
        for got, want in zip(read, expected):
            assert got.kind is GridKind.RAXEL
            assert got.data.tobytes() == want.data.tobytes()
        assert images[2] is not images[2]

    def test_decodes_like_the_list_of_its_grids(self):
        intr = Intrinsics(fx=90.0, fy=95.0, cx=64.0, cy=48.0, width=128, height=96)
        arc = generate_trajectory(TrajectoryKind.ARC_LEFT, 6, intr)
        traj = dataclasses.replace(arc, reference_index=2)
        canonical = canonicalize(traj, 2)
        listed = [encode_raxel(f, f.pose) for f in canonical.frames]

        def bits(images):
            decoded, failures = decode_trajectory(images, 2, intr.width, intr.height)
            assert failures == []
            return [
                (d.pose.rotation.tobytes(), d.pose.translation.tobytes(),
                 d.fx_hat, d.fy_hat, d.pose_residual, d.inlier_fraction)
                for d in decoded
            ]

        assert bits(encode_trajectory_raxels(traj)) == bits(listed)

    def test_bad_reference_index_raises_at_call_time(self):
        traj = self.make_trajectory(n=3, reference=0)
        object.__setattr__(traj, "reference_index", 3)
        with pytest.raises(IndexError, match="out of range"):
            encode_trajectory_raxels(traj)

    def test_iteration_holds_about_one_grid(self, traced_peak_grids):
        # a list of all 21 grids would be over 21 grid sizes
        intr = Intrinsics(fx=180.0, fy=180.0, cx=104.0, cy=60.0, width=208, height=120)
        traj = generate_trajectory(TrajectoryKind.ORBIT, 21, intr)
        grid_bytes = 60 * 104 * 3 * 8
        ray_grid(intr)  # the cached camera rays are not the sequence's grids

        def iterate():
            for grid in encode_trajectory_raxels(traj):
                assert grid.data.nbytes == grid_bytes

        assert traced_peak_grids(iterate, grid_bytes) < 3
