import numpy as np
import pytest

from raxelkit.errors import (
    DegenerateGeometryError,
    NonFiniteInputError,
    ShapeMismatchError,
)
from raxelkit.geometry import Pose, compose, geodesic_rotation_distance, random_pose
from raxelkit.registration import register


def objective(pose, target, source):
    # independent evaluation of the least-squares cost
    mapped = source @ pose.rotation.T + pose.translation
    return float(np.sum((target - mapped) ** 2))


def transformed_cloud(seed, n, noise=0.0):
    rng = np.random.default_rng(seed)
    source = rng.uniform(-1.0, 1.0, size=(n, 3))
    truth = random_pose(seed + 999, np.pi / 2, 2.0)
    target = source @ truth.rotation.T + truth.translation
    if noise > 0.0:
        target = target + rng.normal(0.0, noise, size=target.shape)
    return source, target, truth


class TestRegister:
    def test_identity_on_equal_sets(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.0, 1.0, size=(100, 3))
        result = register(pts, pts)
        assert geodesic_rotation_distance(result.pose, Pose.identity()) < 1e-12
        assert np.linalg.norm(result.pose.translation) < 1e-12
        assert result.rms_residual < 1e-12

    def test_recovers_known_transform(self):
        source, target, truth = transformed_cloud(seed=1, n=100)
        result = register(target, source)
        assert geodesic_rotation_distance(result.pose, truth) < 1e-10
        assert np.linalg.norm(result.pose.translation - truth.translation) < 1e-10
        assert result.rms_residual < 1e-12

    def test_collinear_source_degenerate(self):
        source = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        with pytest.raises(DegenerateGeometryError):
            register(source, source)

    def test_coincident_source_degenerate(self):
        pts = np.ones((5, 3))
        with pytest.raises(DegenerateGeometryError):
            register(pts, pts)

    def test_length_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ShapeMismatchError):
            register(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)))

    def test_too_few_points(self):
        with pytest.raises(ShapeMismatchError):
            register(np.eye(2, 3), np.eye(2, 3))


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e155, 1e200])
    def test_overflowing_target_is_non_finite_input(self, scale):
        source, target, _ = transformed_cloud(12, 50)
        with pytest.raises(NonFiniteInputError, match="overflows"):
            register(target * scale, source)


class TestProperties:
    def test_optimality_against_random_perturbations(self):
        rng = np.random.default_rng(7)
        source = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 3))
        result = register(target, source)
        best = objective(result.pose, target, source)
        for k in range(10_000):
            jitter = random_pose(k, 0.3, 0.3)
            candidate = compose(jitter, result.pose)
            assert objective(candidate, target, source) >= best - 1e-9

    def test_rigid_equivariance(self):
        source, target, _ = transformed_cloud(seed=8, n=40, noise=0.02)
        base = register(target, source)
        for seed in range(20):
            extra = random_pose(3000 + seed, np.pi / 3, 1.0)
            moved = target @ extra.rotation.T + extra.translation
            result = register(moved, source)
            expected = compose(extra, base.pose)
            assert geodesic_rotation_distance(result.pose, expected) < 1e-9
            assert np.linalg.norm(result.pose.translation - expected.translation) < 1e-9

    def test_reflection_input_stays_proper(self):
        rng = np.random.default_rng(9)
        source = rng.normal(size=(50, 3))
        target = source @ np.diag([1.0, 1.0, -1.0]).T  # mirrored cloud
        result = register(target, source)
        assert np.linalg.det(result.pose.rotation) == pytest.approx(1.0, abs=1e-12)
        assert result.rms_residual > 0.0

    def test_noise_error_shrinks_with_point_count(self):
        sigma = 0.05
        medians = []
        for n in (10, 100, 1000):
            errors = []
            for trial in range(50):
                source, target, truth = transformed_cloud(seed=10_000 + trial, n=n, noise=sigma)
                result = register(target, source)
                errors.append(geodesic_rotation_distance(result.pose, truth))
            medians.append(np.median(errors))
        assert medians[0] > medians[1] > medians[2]
