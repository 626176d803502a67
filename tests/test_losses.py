import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from detforge.errors import ValidationError
from detforge.losses import (
    ClassWeights,
    LogitsBatch,
    class_weights,
    focal_loss,
    grad_check,
    smooth_l1,
)
from oracles import oracle_cross_entropy, oracle_focal_loss, oracle_weighted_cross_entropy


def random_batch(rng, n=32, c=5, scale=1.0):
    # unit scale keeps softmax entries away from the cancellation regime
    # where central differences cannot resolve the gradient to 1e-6
    values = rng.normal(0.0, scale, size=(n, c))
    targets = rng.integers(0, c, size=n)
    return LogitsBatch(values, targets)


class TestLogitsBatch:
    def test_shape_properties(self):
        batch = LogitsBatch(np.zeros((4, 7)), np.zeros(4, dtype=int))
        assert batch.n == 4 and batch.c == 7

    def test_rejects_1d_values(self):
        with pytest.raises(ValidationError):
            LogitsBatch(np.zeros(5), np.zeros(5, dtype=int))

    def test_rejects_nan(self):
        values = np.zeros((2, 3))
        values[1, 1] = np.nan
        with pytest.raises(ValidationError):
            LogitsBatch(values, [0, 0])

    def test_rejects_target_shape_mismatch(self):
        with pytest.raises(ValidationError):
            LogitsBatch(np.zeros((4, 3)), [0, 1])

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValidationError):
            LogitsBatch(np.zeros((2, 3)), [0, 3])
        with pytest.raises(ValidationError):
            LogitsBatch(np.zeros((2, 3)), [-1, 0])

    def test_rejects_float_targets(self):
        # a cast would keep [1, 0]
        with pytest.raises(ValidationError,
                           match="^targets must be int64 class indices, got float64$"):
            LogitsBatch(np.zeros((2, 3)), [1.7, 0.2])

    def test_rejects_bool_targets(self):
        with pytest.raises(ValidationError,
                           match="^targets must be int64 class indices, got bool$"):
            LogitsBatch(np.zeros((2, 3)), [True, False])

    def test_rejects_a_target_past_int64(self):
        with pytest.raises(ValidationError,
                           match="^targets must be int64 class indices, got object$"):
            LogitsBatch(np.zeros((1, 3)), [2**70])

    def test_rejects_text_logits(self):
        with pytest.raises(ValidationError, match="^logits must be real numbers; NumPy cannot "
                                                  "read this list as floats$"):
            LogitsBatch([["a", 2]], [0])

    def test_rejects_ragged_targets(self):
        with pytest.raises(ValidationError,
                           match="^targets must be a 1-D array of class indices$"):
            LogitsBatch(np.zeros((2, 3)), [[0], [1, 2]])

    def test_an_empty_target_list_is_an_empty_batch(self):
        batch = LogitsBatch(np.zeros((0, 3)), [])
        assert batch.targets.dtype == np.int64 and (batch.n, batch.c) == (0, 3)


class TestClassWeights:
    def test_balanced_counts_give_complementary_weights(self):
        w = class_weights([10, 30, 60]).w
        assert w.tolist() == [0.9, 0.7, 0.4]

    def test_weights_sum_to_c_minus_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            c = int(rng.integers(2, 12))
            counts = rng.integers(0, 10_000, size=c)
            counts[int(rng.integers(0, c))] += 1  # keep the total positive
            w = class_weights(counts).w
            assert math.fsum(w) == float(c - 1)

    def test_matches_exact_rational_arithmetic(self):
        """Each weight is the correctly rounded value of (S - n_i) / S."""
        rng = np.random.default_rng(4)
        for _ in range(50):
            counts = rng.integers(0, 1_000_000, size=int(rng.integers(2, 9)))
            if counts.sum() == 0:
                counts[0] = 1
            total = int(counts.sum())
            w = class_weights(counts).w
            for n_i, w_i in zip(counts, w):
                assert w_i == float(Fraction(total - int(n_i), total))

    def test_zero_count_class_gets_weight_one(self):
        w = class_weights([0, 5]).w
        assert w[0] == 1.0 and w[1] == 0.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            class_weights([])
        with pytest.raises(ValidationError):
            class_weights([3, -1])
        with pytest.raises(ValidationError):
            class_weights([0, 0, 0])

    @pytest.mark.parametrize("counts, message", [
        ([np.inf, 1], "counts must be finite, got [inf, 1.0]"),
        ([1, np.nan], "counts must be finite, got [1.0, nan]"),
        ([1e308, 1e308], "counts sum past the float range"),
    ])
    def test_rejects_non_finite_counts_before_any_arithmetic(self, counts, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                class_weights(counts)
        assert str(info.value) == message

    def test_weights_validated(self):
        with pytest.raises(ValidationError):
            ClassWeights(np.array([[1.0]]))
        with pytest.raises(ValidationError):
            ClassWeights(np.array([0.5, -0.1]))
        with pytest.raises(ValidationError):
            ClassWeights(np.array([0.5, np.inf]))


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        batch = LogitsBatch(np.zeros((6, 3)), [0, 1, 2, 0, 1, 2])
        out = focal_loss(batch, 0.0)
        assert out.value == pytest.approx(math.log(3.0), rel=1e-15)

    def test_known_two_class_value(self):
        # softmax([ln 3, 0]) puts 3/4 on the first class
        batch = LogitsBatch(np.array([[math.log(3.0), 0.0]]), [0])
        assert focal_loss(batch, 0.0).value == pytest.approx(math.log(4.0 / 3.0), rel=1e-15)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(8)
        out = focal_loss(random_batch(rng), 0.0)
        np.testing.assert_allclose(out.grad.sum(axis=1), 0.0, atol=1e-16)

    def test_large_logits_stay_finite(self):
        batch = LogitsBatch(np.array([[800.0, -800.0], [-800.0, 800.0]]), [0, 1])
        out = focal_loss(batch, 0.0)
        assert np.isfinite(out.value)
        assert np.all(np.isfinite(out.grad))

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            batch = random_batch(rng, n=6, c=4)
            assert grad_check(lambda b: focal_loss(b, 0.0), batch) < 1e-6


class TestWeightedCrossEntropy:
    def test_uniform_weights_match_plain_ce(self):
        rng = np.random.default_rng(10)
        batch = random_batch(rng)
        plain = oracle_cross_entropy(batch)
        weighted = focal_loss(batch, 0.0, ClassWeights(np.ones(batch.c)))
        assert weighted.value == pytest.approx(plain.value, rel=1e-14)
        np.testing.assert_allclose(weighted.grad, plain.grad, rtol=1e-13, atol=1e-18)

    def test_scaling_all_weights_changes_nothing(self):
        """The normalization cancels any common factor exactly."""
        rng = np.random.default_rng(11)
        batch = random_batch(rng)
        w = rng.uniform(0.1, 2.0, size=batch.c)
        a = focal_loss(batch, 0.0, ClassWeights(w))
        b = focal_loss(batch, 0.0, ClassWeights(2.0 * w))
        assert a.value == b.value
        assert np.array_equal(a.grad, b.grad)

    def test_zero_applied_weights_yield_zero_loss(self):
        batch = LogitsBatch(np.ones((3, 3)), [0, 1, 0])
        out = focal_loss(batch, 0.0, ClassWeights(np.array([0.0, 0.0, 1.0])))
        assert out.value == 0.0
        assert not out.grad.any()

    def test_weight_count_must_match_classes(self):
        batch = LogitsBatch(np.zeros((2, 3)), [0, 1])
        with pytest.raises(ValidationError):
            focal_loss(batch, 0.0, ClassWeights(np.ones(4)))

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(12)
        batch = random_batch(rng, n=8, c=5)
        weights = ClassWeights(rng.uniform(0.05, 1.0, size=5))
        err = grad_check(lambda b: focal_loss(b, 0.0, weights), batch)
        assert err < 1e-6


class TestFocalLoss:
    def test_gamma_zero_is_exactly_cross_entropy(self):
        rng = np.random.default_rng(13)
        batch = random_batch(rng, n=40, c=6)
        plain = oracle_cross_entropy(batch)
        focal = focal_loss(batch, gamma=0.0)
        assert focal.value == plain.value
        assert np.array_equal(focal.grad, plain.grad)

    def test_even_split_halves_squared(self):
        # p_t = 1/2 so the gamma=2 modulator is 1/4
        batch = LogitsBatch(np.zeros((1, 2)), [0])
        assert focal_loss(batch, gamma=2.0).value == pytest.approx(
            0.25 * math.log(2.0), rel=1e-15
        )

    def test_known_three_quarters_case(self):
        batch = LogitsBatch(np.array([[math.log(3.0), 0.0]]), [0])
        expected = 0.0625 * -math.log(0.75)
        assert focal_loss(batch, gamma=2.0).value == pytest.approx(expected, rel=1e-14)

    def test_never_exceeds_cross_entropy(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            batch = random_batch(rng, n=16, c=4)
            assert focal_loss(batch, gamma=2.0).value <= oracle_cross_entropy(batch).value

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(15)
        batch = random_batch(rng, n=24, c=5)
        values = [focal_loss(batch, gamma=g).value for g in (0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values, reverse=True)

    def test_confident_correct_prediction_is_quiet(self):
        batch = LogitsBatch(np.array([[60.0, 0.0]]), [0])
        out = focal_loss(batch, gamma=2.0)
        assert out.value < 1e-20
        assert np.all(np.isfinite(out.grad))

    def test_rejects_negative_gamma(self):
        batch = LogitsBatch(np.zeros((1, 2)), [0])
        with pytest.raises(ValidationError):
            focal_loss(batch, gamma=-0.5)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_rejects_non_finite_gamma(self, gamma):
        batch = LogitsBatch(np.zeros((1, 2)), [0])
        with pytest.raises(ValidationError,
                           match=f"^gamma must be finite and non-negative, got {gamma}$"):
            focal_loss(batch, gamma=gamma)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(16)
        for gamma in (0.5, 1.0, 2.0, 3.0):
            batch = random_batch(rng, n=6, c=4)
            err = grad_check(lambda b: focal_loss(b, gamma=gamma), batch, step=1e-4)
            assert err < 1e-6, f"gamma={gamma}: {err}"

    def test_weighted_focal_is_the_weighted_mean_of_per_sample_focal(self):
        rng = np.random.default_rng(19)
        batch = random_batch(rng, n=12, c=4)
        weights = ClassWeights(np.array([0.0, 0.3, 1.0, 2.5]))
        rows = [LogitsBatch(batch.values[i:i + 1], batch.targets[i:i + 1]) for i in range(batch.n)]
        applied = weights.w[batch.targets]
        expected = math.fsum(
            w * oracle_focal_loss(row, 2.0).value for w, row in zip(applied, rows)
        ) / math.fsum(applied)
        assert focal_loss(batch, 2.0, weights).value == pytest.approx(expected, rel=1e-14)

    def test_weighted_focal_gradient_against_finite_differences(self):
        rng = np.random.default_rng(20)
        for gamma in (0.5, 2.0):
            batch = random_batch(rng, n=8, c=5)
            weights = ClassWeights(rng.uniform(0.05, 1.0, size=5))
            err = grad_check(lambda b: focal_loss(b, gamma, weights), batch, step=1e-4)
            assert err < 1e-6, f"gamma={gamma}: {err}"


def same_output(got, want) -> bool:
    """Equal loss values and gradients, bit for bit."""
    return (np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
            and got.grad.shape == want.grad.shape
            and got.grad.tobytes() == want.grad.tobytes())


class TestOneLossMatchesTheThreeItReplaced:
    """``focal_loss`` equals each loss it replaced bit for bit, in value and gradient."""

    GAMMAS = (0.5, 1.0, 2.0, 3.7, 5.0)

    def test_on_seeded_batches(self):
        rng = np.random.default_rng(4040)
        zero_sums = 0
        for case in range(1200):
            n = int(rng.integers(1, 200))
            c = int(rng.integers(1, 12))
            scale = 10.0 ** rng.uniform(-2.0, math.log10(300.0))
            batch = LogitsBatch(rng.normal(0.0, scale, (n, c)), rng.integers(0, c, n))
            w = rng.uniform(0.0, 2.0, c)
            w[rng.random(c) < 0.3] = 0.0  # zero weights; some batches sum to zero
            weights = ClassWeights(w)
            zero_sums += weights.w[batch.targets].sum() == 0
            assert same_output(focal_loss(batch, 0.0), oracle_cross_entropy(batch)), case
            assert same_output(focal_loss(batch, 0.0, weights),
                               oracle_weighted_cross_entropy(batch, weights)), case
            for gamma in (0.0,) + self.GAMMAS:
                assert same_output(focal_loss(batch, gamma), oracle_focal_loss(batch, gamma)), \
                    (case, gamma)
        assert zero_sums > 0

    def test_at_the_ends_of_the_logit_range(self):
        """Saturated rows: p_t exactly 1, exactly 0 and a one-class batch."""
        values = np.array([[800.0, -800.0, 0.0], [-800.0, 800.0, 0.0], [0.0, 0.0, 1e-300]])
        weights = ClassWeights(np.array([0.5, 0.0, 2.0]))
        for targets in ([0, 1, 2], [1, 0, 2], [2, 2, 0]):
            batch = LogitsBatch(values, targets)
            assert same_output(focal_loss(batch, 0.0), oracle_cross_entropy(batch))
            assert same_output(focal_loss(batch, 0.0, weights),
                               oracle_weighted_cross_entropy(batch, weights))
            for gamma in self.GAMMAS:
                assert same_output(focal_loss(batch, gamma), oracle_focal_loss(batch, gamma))
        one_class = LogitsBatch(np.array([[3.0], [-2.0]]), [0, 0])
        for gamma in (0.0,) + self.GAMMAS:
            assert same_output(focal_loss(one_class, gamma), oracle_focal_loss(one_class, gamma))


class TestArguments:
    """Each argument of the wrong type is a one-line ValidationError."""

    BATCH = LogitsBatch(np.zeros((2, 3)), [0, 2])

    @pytest.mark.parametrize("call, message", [
        (lambda b: focal_loss(b, "2"), "gamma must be a real number, got '2'"),
        (lambda b: focal_loss(b, True), "gamma must be a real number, got True"),
        (lambda b: focal_loss(b, 10**400), "gamma is out of float range"),
        (lambda b: focal_loss(b, 0.0, np.ones(3)), "weights must be a ClassWeights, got ndarray"),
        (lambda b: focal_loss(b.values), "batch must be a LogitsBatch, got ndarray"),
        (lambda b: smooth_l1([1.0], [0.0], beta="1"), "beta must be a real number, got '1'"),
        (lambda b: grad_check(focal_loss, b, step="x"), "step must be a real number, got 'x'"),
        (lambda b: class_weights(["a", 1]),
         "counts must be real numbers; NumPy cannot read this list as floats"),
        (lambda b: ClassWeights(["x"]),
         "weights must be real numbers; NumPy cannot read this list as floats"),
        (lambda b: smooth_l1(["a"], [0.0]),
         "pred must be real numbers; NumPy cannot read this list as floats"),
        (lambda b: smooth_l1([0.0], "b"),
         "target must be real numbers; NumPy cannot read this str as floats"),
    ])
    def test_rejected(self, call, message):
        with pytest.raises(ValidationError) as info:
            call(self.BATCH)
        assert str(info.value) == message


class TestEmptyInputs:
    """An empty input has loss 0 and an empty zero gradient, with no warning."""

    @pytest.mark.parametrize("call", [
        lambda b: focal_loss(b, 0.0),
        lambda b: focal_loss(b, 0.0, ClassWeights(np.ones(3))),
        lambda b: focal_loss(b, 2.0),
        lambda b: focal_loss(b, 2.0, ClassWeights(np.ones(3))),
    ])
    def test_empty_batch(self, call):
        batch = LogitsBatch(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = call(batch)
            err = grad_check(call, batch)
        assert out.value == 0.0 and out.grad.shape == (0, 3) and not out.grad.any()
        assert err == 0.0

    def test_empty_smooth_l1(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = smooth_l1([], [])
            err = grad_check(lambda p: smooth_l1(p, np.zeros(0)), np.zeros(0))
        assert out.value == 0.0 and out.grad.shape == (0,)
        assert err == 0.0


class TestSmoothL1:
    def test_quadratic_region(self):
        out = smooth_l1(np.array([0.5]), np.array([0.0]))
        assert out.value == 0.125
        assert out.grad[0] == 0.5

    def test_linear_region(self):
        out = smooth_l1(np.array([2.0]), np.array([0.0]))
        assert out.value == 1.5
        assert out.grad[0] == 1.0

    def test_beta_rescales_the_elbow(self):
        assert smooth_l1(np.array([1.0]), np.array([0.0]), beta=2.0).value == 0.25

    def test_continuous_at_the_elbow(self):
        eps = 1e-9
        below = smooth_l1(np.array([1.0 - eps]), np.array([0.0])).value
        above = smooth_l1(np.array([1.0 + eps]), np.array([0.0])).value
        assert abs(above - below) < 3e-9

    def test_mean_over_all_elements(self):
        pred = np.array([[0.5, 2.0], [0.0, -2.0]])
        target = np.zeros((2, 2))
        expected = (0.125 + 1.5 + 0.0 + 1.5) / 4.0
        assert smooth_l1(pred, target).value == pytest.approx(expected, rel=1e-15)

    def test_symmetric_in_sign(self):
        a = smooth_l1(np.array([3.0]), np.array([0.0]))
        b = smooth_l1(np.array([-3.0]), np.array([0.0]))
        assert a.value == b.value
        assert a.grad[0] == -b.grad[0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            smooth_l1(np.zeros(3), np.zeros(4))

    def test_beta_must_be_positive(self):
        with pytest.raises(ValidationError):
            smooth_l1(np.zeros(3), np.zeros(3), beta=0.0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_beta_must_be_finite(self, beta):
        with pytest.raises(ValidationError,
                           match=f"^beta must be finite and positive, got {beta}$"):
            smooth_l1(np.zeros(3), np.zeros(3), beta=beta)

    @pytest.mark.parametrize("pred, target", [
        ([np.inf], [0.0]), ([0.0], [np.nan]), ([1.0, -np.inf], [0.0, 0.0]),
    ])
    def test_non_finite_inputs_rejected(self, pred, target):
        with pytest.raises(ValidationError, match="^pred and target must be finite$"):
            smooth_l1(pred, target)

    @pytest.mark.parametrize("pred, target, beta", [
        ([1e308], [-1e308], 1.0),  # the difference overflows
        ([1.7e308, 1.7e308], [0.0, 0.0], 1.0),  # the sum overflows
        ([1e160], [0.0], 1e300),  # the square overflows
    ])
    def test_an_overflowing_loss_is_rejected(self, pred, target, beta):
        with pytest.raises(ValidationError,
                           match="^smooth_l1 of pred and target is out of float range$"):
            smooth_l1(pred, target, beta=beta)

    def test_the_branch_not_taken_never_overflows(self):
        # the square of a huge linear-region difference, and the slope
        # over a tiny beta, are dropped without a warning
        assert smooth_l1([1e200], [0.0]).value == 1e200
        out = smooth_l1([1e10], [0.0], beta=1e-300)
        assert out.value == 1e10 and out.grad.tolist() == [1.0]

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(17)
        target = rng.normal(size=(5, 4))
        pred = target + rng.normal(0.0, 2.0, size=(5, 4))
        err = grad_check(lambda p: smooth_l1(p, target), pred)
        assert err < 1e-6


class TestGradCheck:
    def test_detects_a_wrong_gradient(self):
        def broken(batch):
            out = focal_loss(batch, 0.0)
            return type(out)(out.value, out.grad * 1.5)

        rng = np.random.default_rng(18)
        assert grad_check(broken, random_batch(rng, n=4, c=3)) > 0.1

    def test_step_must_be_positive(self):
        with pytest.raises(ValidationError):
            grad_check(focal_loss, LogitsBatch(np.zeros((1, 2)), [0]), step=0.0)

    @pytest.mark.parametrize("step", [float("nan"), float("inf")])
    def test_step_must_be_finite(self, step):
        with pytest.raises(ValidationError,
                           match=f"^step must be finite and positive, got {step}$"):
            grad_check(focal_loss, LogitsBatch(np.zeros((1, 2)), [0]), step=step)
