"""Tests for flow paths, the combined loss, its gradient, and the sampler."""

import numpy as np
import pytest

from raxelkit.errors import (
    DegenerateDirectionError,
    InvalidFrameCountError,
    ShapeMismatchError,
)
from raxelkit.flow import (
    FlowBatch,
    FreezeMask,
    euler_sample,
    interpolate,
    latent_length,
    loss,
    loss_gradient,
    target_velocity,
)


def random_batch(seed, dim=8, t=0.3):
    rng = np.random.default_rng(seed)
    return FlowBatch(x0=rng.normal(size=dim), x1=rng.normal(size=dim), t=t)


class TestPath:
    def test_endpoints(self):
        b = random_batch(0, t=0.0)
        assert np.array_equal(interpolate(b), b.x0)
        b1 = FlowBatch(x0=b.x0, x1=b.x1, t=1.0)
        assert np.array_equal(interpolate(b1), b.x1)

    def test_midpoint_from_origin(self):
        v = np.array([2.0, -4.0, 6.0])
        b = FlowBatch(x0=np.zeros(3), x1=v, t=0.5)
        assert np.array_equal(interpolate(b), 0.5 * v)

    def test_velocity_is_endpoint_difference(self):
        b = random_batch(1)
        assert np.array_equal(target_velocity(b), b.x1 - b.x0)
        same = FlowBatch(x0=b.x0, x1=b.x0, t=0.2)
        assert np.all(target_velocity(same) == 0.0)

    def test_finite_difference_matches_velocity(self):
        b = random_batch(2, t=0.25)
        u = target_velocity(b)
        for h in (0.5, 0.125, 1.0 / 64.0):
            shifted = FlowBatch(x0=b.x0, x1=b.x1, t=b.t + h)
            fd = (interpolate(shifted) - interpolate(b)) / h
            assert np.max(np.abs(fd - u)) < 1e-12

    def test_second_difference_vanishes(self):
        b = random_batch(3, t=0.4)
        h = 0.125
        at = lambda t: interpolate(FlowBatch(x0=b.x0, x1=b.x1, t=t))
        second = at(b.t + h) - 2.0 * at(b.t) + at(b.t - h)
        assert np.max(np.abs(second)) < 1e-12

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            FlowBatch(x0=np.zeros(3), x1=np.zeros(4), t=0.5)
        with pytest.raises(ValueError):
            FlowBatch(x0=np.zeros(3), x1=np.zeros(3), t=1.5)
        with pytest.raises(ValueError):
            FlowBatch(x0=np.array([np.nan, 0.0]), x1=np.zeros(2), t=0.5)


class TestLoss:
    def test_perfect_prediction(self):
        b = random_batch(4)
        report = loss(target_velocity(b), b)
        assert report.total == 0.0
        assert report.mse == 0.0
        assert report.cosine_term == 0.0

    def test_antiparallel(self):
        b = random_batch(5)
        u = target_velocity(b)
        report = loss(-u, b, cosine_weight=0.5)
        assert abs(report.mse - 4.0 * float(u @ u)) < 1e-12
        assert abs(report.cosine_term - 1.0) < 1e-12

    def test_right_direction_wrong_magnitude(self):
        b = random_batch(6)
        u = target_velocity(b)
        report = loss(2.0 * u, b, cosine_weight=0.5)
        assert abs(report.mse - float(u @ u)) < 1e-12
        assert abs(report.cosine_term) < 1e-15

    def test_zero_prediction_gets_full_cosine_penalty(self):
        b = random_batch(7)
        report = loss(np.zeros(8), b, cosine_weight=0.5)
        assert report.cosine_term == 0.5
        assert np.isfinite(report.total)

    def test_decomposition_and_range(self):
        for seed in range(30):
            b = random_batch(seed)
            rng = np.random.default_rng(seed + 1000)
            report = loss(rng.normal(size=8), b, cosine_weight=0.5)
            assert report.total == report.mse + report.cosine_term
            assert 0.0 <= report.cosine_term <= 1.0

    def test_cosine_term_scale_invariant(self):
        b = random_batch(8)
        rng = np.random.default_rng(88)
        p = rng.normal(size=8)
        base = loss(p, b).cosine_term
        for alpha in (0.01, 3.0, 250.0):
            assert abs(loss(alpha * p, b).cosine_term - base) < 1e-12


class TestLossGradient:
    def test_zero_at_optimum(self):
        b = random_batch(9)
        grad = loss_gradient(target_velocity(b), b)
        assert np.linalg.norm(grad) < 1e-10

    def test_pure_mse_when_weight_zero(self):
        b = random_batch(10)
        rng = np.random.default_rng(10)
        p = rng.normal(size=8)
        assert np.array_equal(
            loss_gradient(p, b, cosine_weight=0.0), 2.0 * (p - target_velocity(b))
        )

    def test_matches_central_differences(self):
        h = 1e-5
        for dim in (4, 16, 64):
            for seed in range(100):
                b = random_batch(seed, dim=dim)
                rng = np.random.default_rng(seed + 5000)
                p = rng.normal(size=dim)
                grad = loss_gradient(p, b, cosine_weight=0.5)
                fd = np.empty(dim)
                for k in range(dim):
                    step = np.zeros(dim)
                    step[k] = h
                    fd[k] = (
                        loss(p + step, b, cosine_weight=0.5).total
                        - loss(p - step, b, cosine_weight=0.5).total
                    ) / (2.0 * h)
                denom = max(np.linalg.norm(grad), 1.0)
                assert np.linalg.norm(fd - grad) / denom < 1e-5

    def test_degenerate_direction_raises(self):
        b = random_batch(11)
        with pytest.raises(DegenerateDirectionError):
            loss_gradient(np.zeros(8), b)
        flat = FlowBatch(x0=b.x0, x1=b.x0, t=0.5)
        with pytest.raises(DegenerateDirectionError):
            loss_gradient(np.ones(8), flat)


@pytest.mark.parametrize("objective", [loss, loss_gradient], ids=["loss", "loss_gradient"])
@pytest.mark.parametrize("weight", [-1.0, float("nan")])
def test_negative_or_nan_cosine_weight_is_refused(objective, weight):
    # one rule for both: loss_gradient used to take either weight, and loss
    # returned a NaN total for a NaN weight
    with pytest.raises(ValueError, match=r"^cosine_weight must be >= 0, got "):
        objective(np.ones(8), random_batch(12), cosine_weight=weight)


class TestEulerSample:
    def test_constant_field_exact(self):
        c = np.array([1.0, -2.0, 0.5])
        x0 = np.array([0.0, 1.0, 2.0])
        for steps in (1, 3, 10):
            out = euler_sample(x0, lambda x, t: c, steps)
            assert np.max(np.abs(out - (x0 + c))) < 1e-12

    def test_linear_path_integrated_exactly(self):
        b = random_batch(12)
        u = target_velocity(b)
        for steps in (1, 7, 100):
            out = euler_sample(b.x0, lambda x, t: u, steps)
            assert np.max(np.abs(out - b.x1)) < 1e-12

    def test_exponential_decay(self):
        out = euler_sample(np.array([1.0]), lambda x, t: -x, 1000)
        assert abs(out[0] - np.exp(-1.0)) < 2e-3

    def test_first_order_convergence(self):
        errors = []
        for steps in (250, 500, 1000):
            out = euler_sample(np.array([1.0]), lambda x, t: -x, steps)
            errors.append(abs(out[0] - np.exp(-1.0)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.8 < coarse / fine < 2.2

    def test_frozen_groups_bit_identical(self):
        rng = np.random.default_rng(13)
        x0 = rng.normal(size=10)
        spans = [(0, 3), (3, 8), (8, 10)]
        mask = FreezeMask(frozen=(True, False, True))

        def swirl(x, t):
            return np.sin(x) + t

        out = euler_sample(x0, swirl, 50, mask=mask, group_spans=spans)
        assert np.array_equal(out[0:3], x0[0:3])
        assert np.array_equal(out[8:10], x0[8:10])
        assert np.all(out[3:8] != x0[3:8])

    def test_velocity_sees_pinned_values(self):
        # the frozen entry must hold its value in every velocity_fn call
        seen = []
        x0 = np.array([5.0, 0.0])

        def probe(x, t):
            seen.append(x[0])
            return np.ones_like(x)

        euler_sample(x0, probe, 4, mask=FreezeMask((True, False)), group_spans=[(0, 1), (1, 2)])
        assert seen == [5.0] * 4

    def test_mask_span_validation(self):
        x0 = np.zeros(6)
        with pytest.raises(ShapeMismatchError):
            euler_sample(x0, lambda x, t: x, 2, mask=FreezeMask((True,)))
        with pytest.raises(ShapeMismatchError):
            euler_sample(
                x0, lambda x, t: x, 2,
                mask=FreezeMask((True,)), group_spans=[(0, 3), (3, 6)],
            )
        with pytest.raises(ValueError):
            euler_sample(
                x0, lambda x, t: x, 2,
                mask=FreezeMask((True, False)), group_spans=[(0, 3), (4, 6)],
            )
        with pytest.raises(ValueError):
            euler_sample(
                x0, lambda x, t: x, 2,
                mask=FreezeMask((True,)), group_spans=[(0, 4)],
            )

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            euler_sample(np.zeros(2), lambda x, t: x, 0)


class TestLatentLength:
    def test_known_values(self):
        assert latent_length(1) == 1
        assert latent_length(5) == 2
        assert latent_length(81) == 21

    def test_rejections(self):
        for bad in (0, -3, 2, 80, 82):
            with pytest.raises(InvalidFrameCountError):
                latent_length(bad)
