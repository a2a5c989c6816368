"""Property tests: the one-pass trajectory decoder against the per-frame
public steps, registration against a textbook Kabsch oracle, and each
encoder against its definition."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from raxelkit.decode import decode_trajectory, recover_focal, recover_pose
from raxelkit.errors import DegenerateGeometryError, RaxelkitError
from raxelkit.geometry import CameraFrame, Intrinsics, Pose, random_pose
from raxelkit.rays import (
    RayGrid,
    encode_plucker,
    encode_raxel,
    encode_raymap,
    grid_pixel_coordinates,
)
from raxelkit.registration import register

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
TOL = 1e-12


def kabsch_oracle(target, source):
    """Textbook Kabsch: centre both sets, SVD of the cross-covariance,
    determinant correction. Returns (R, T, rms, condition)."""
    cs, ct = source.mean(axis=0), target.mean(axis=0)
    h = (source - cs).T @ (target - ct)
    u, s, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    t = ct - r @ cs
    rms = np.sqrt(np.mean(np.sum((target - source @ r.T - t) ** 2, axis=1)))
    return r, t, rms, (s[2] / s[0] if s[0] > 0.0 else 0.0)


@st.composite
def camera_setups(draw):
    """Odd and even sizes, off-centre principal points, anisotropic focals."""
    width = draw(st.integers(8, 90))
    height = draw(st.integers(8, 70))
    cx = draw(st.floats(0.2, 0.8)) * width
    cy = draw(st.floats(0.2, 0.8)) * height
    fx = draw(st.floats(0.3, 3.0)) * width
    fy = draw(st.floats(0.3, 3.0)) * width
    intr = Intrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height)
    frames = draw(st.integers(1, 5))
    reference = draw(st.integers(0, frames - 1))
    seed = draw(st.integers(0, 2**31 - 1))
    sigma = draw(st.sampled_from([0.0, 1e-4, 1e-2, 0.2]))
    return intr, frames, reference, seed, sigma


@PROPERTY_SETTINGS
@given(camera_setups())
def test_decode_trajectory_matches_per_frame_steps(setup):
    intr, count, reference, seed, sigma = setup
    rng = np.random.default_rng(seed)
    frame = CameraFrame(intrinsics=intr, pose=Pose.identity(), index=0)
    images = []
    for k in range(count):
        pose = Pose.identity() if k == reference else random_pose(seed + k, 1.5, 2.0)
        clean = encode_raxel(frame, pose).data
        images.append(RayGrid(clean + rng.normal(0.0, sigma, clean.shape)))

    w, h, cx, cy = intr.width, intr.height, intr.cx, intr.cy
    decoded, failures = decode_trajectory(images, reference, w, h, cx=cx, cy=cy)
    failed = {f.position: f.error for f in failures}
    for pos, image in enumerate(images):
        try:
            if pos == reference:
                pose, residual = Pose.identity(), 0.0
            else:
                result = recover_pose(image, images[reference])
                pose, residual = result.pose, result.rms_residual
            fx, fy, share = recover_focal(image, pose, w, h, cx=cx, cy=cy)
        except RaxelkitError as err:
            assert decoded[pos] is None
            assert type(failed[pos]) is type(err)
            continue
        got = decoded[pos]
        assert pos not in failed
        assert np.abs(got.pose.rotation - pose.rotation).max() <= TOL
        assert np.abs(got.pose.translation - pose.translation).max() <= TOL
        assert got.pose_residual == pytest.approx(residual, abs=TOL)
        assert got.fx_hat == pytest.approx(fx, rel=TOL)
        assert got.fy_hat == pytest.approx(fy, rel=TOL)
        assert got.inlier_fraction == share


@st.composite
def point_clouds(draw):
    """Well-spread clouds: spread 0.1-10, offsets and translations up to 10."""
    n = draw(st.integers(4, 200))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    spread = draw(st.floats(0.1, 10.0))
    source = rng.normal(size=(n, 3)) * spread * rng.uniform(0.2, 1.0, 3) + rng.uniform(-10, 10, 3)
    truth = random_pose(seed, np.pi, 10.0)
    noise = draw(st.sampled_from([0.0, 1e-6, 1e-2, 1.0]))
    target = source @ truth.rotation.T + truth.translation + rng.normal(0.0, noise, (n, 3))
    return target, source


@PROPERTY_SETTINGS
@given(point_clouds())
def test_register_matches_kabsch_oracle(clouds):
    target, source = clouds
    r, t, rms, condition = kabsch_oracle(target, source)
    assume(condition > 1e-6)
    result = register(target, source)
    assert np.abs(result.pose.rotation - r).max() <= TOL
    assert np.abs(result.pose.translation - t).max() <= TOL * max(1.0, np.abs(t).max())
    assert result.rms_residual == pytest.approx(rms, abs=TOL * max(1.0, rms))
    assert result.condition == pytest.approx(condition, abs=TOL)


@PROPERTY_SETTINGS
@given(point_clouds(), st.integers(0, 2**31 - 1))
def test_flat_target_is_degenerate(clouds, seed):
    # A constant target leaves the rotation free. The oracle's singular
    # value ratio is no test of that: its cross-covariance is pure rounding
    # noise here, and the ratio of noise can read 1e-4.
    _, source = clouds
    point = np.random.default_rng(seed).uniform(-10.0, 10.0, 3)
    target = np.tile(point, (source.shape[0], 1))
    with pytest.raises(DegenerateGeometryError):
        register(target, source)


def unprojected_rays(intr):
    """Unit camera rays of the grid's pixel centres through an explicit K^-1."""
    u, v = grid_pixel_coordinates(intr.width, intr.height)
    uu, vv = np.meshgrid(u, v)
    rays = np.stack([uu, vv, np.ones_like(uu)], axis=-1) @ np.linalg.inv(intr.matrix()).T
    return rays / np.linalg.norm(rays, axis=-1, keepdims=True)


@PROPERTY_SETTINGS
@given(camera_setups())
def test_encoders_match_their_definitions(setup):
    intr, _, _, seed, _ = setup
    pose = random_pose(seed, np.pi, 5.0)
    frame = CameraFrame(intrinsics=intr, pose=Pose.identity(), index=0)
    d, t = unprojected_rays(intr) @ pose.rotation.T, pose.translation
    raxel = encode_raxel(frame, pose).data
    plucker = encode_plucker(frame, pose).data
    raymap = encode_raymap(frame, pose).data
    assert np.abs(raxel - (d + t)).max() <= TOL
    assert np.abs(plucker[..., :3] - d).max() <= TOL
    assert np.abs(plucker[..., 3:] - np.cross(d, t)).max() <= TOL
    assert np.abs(raymap[..., 3:] - d).max() <= TOL
    # the origin channels are T itself, bit for bit, at every pixel
    assert np.all(raymap[..., :3].view(np.uint64) == t.view(np.uint64))
