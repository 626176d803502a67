"""Classification and regression losses with analytic gradients.

All classification losses act on raw logits through a log-sum-exp
stabilized softmax, so log-probabilities stay finite for any finite
input and no explicit probability floor is needed. Every loss returns
both its scalar value and the gradient with respect to its primary
input, sized like that input, so gradients can be verified against
central finite differences (:func:`grad_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class LogitsBatch:
    """A batch of raw class scores with integer class targets.

    ``values`` is (n, c); by convention background, when present, is the
    last class index c - 1. Targets must lie in [0, c).
    """

    values: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.int64)
        if values.ndim != 2:
            raise ValidationError(f"logits must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("non-finite logits")
        if targets.shape != (values.shape[0],):
            raise ValidationError(
                f"targets shape {targets.shape} does not match batch size {values.shape[0]}"
            )
        if values.shape[0] and (targets.min() < 0 or targets.max() >= values.shape[1]):
            raise ValidationError("target index out of range")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "targets", targets)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def c(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class ClassWeights:
    """Per-class non-negative loss weights."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1:
            raise ValidationError(f"weights must be 1-D, got shape {w.shape}")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite and non-negative")
        object.__setattr__(self, "w", w)


@dataclass(frozen=True, eq=False)
class LossOutput:
    value: float
    grad: np.ndarray


def class_weights(counts) -> ClassWeights:
    """Complement-of-share class weights: w_c = 1 - n_c / sum(n).

    This is not inverse frequency: the largest weight is at most
    1 / (1 - p_max) times the smallest, where p_max is the largest
    class's share of the counts, however rare the other classes are.
    Computed as (sum - n_c) / sum in a single division, so each weight is
    the correctly rounded value of the exact ratio and the weights sum to
    c - 1 up to one final rounding.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValidationError("counts must be a non-empty 1-D vector")
    if np.any(counts < 0):
        raise ValidationError("counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        raise ValidationError("all-zero counts")
    return ClassWeights((total - counts) / total)


def _log_softmax(values: np.ndarray) -> np.ndarray:
    shifted = values - values.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _one_hot_residual(softmax: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """softmax - onehot(target), the raw CE gradient per sample."""
    residual = softmax.copy()
    residual[np.arange(len(targets)), targets] -= 1.0
    return residual


def cross_entropy(batch: LogitsBatch) -> LossOutput:
    """Mean softmax cross entropy: mean_i of -log softmax(z_i)[t_i]."""
    logp = _log_softmax(batch.values)
    per_sample = -logp[np.arange(batch.n), batch.targets]
    grad = _one_hot_residual(np.exp(logp), batch.targets) / batch.n
    return LossOutput(float(per_sample.mean()), grad)


def weighted_cross_entropy(batch: LogitsBatch, weights: ClassWeights) -> LossOutput:
    """Cross entropy scaled per sample by the weight of its target class.

    Reduction normalizes by the sum of applied weights, sum_i w_{t_i},
    keeping the loss scale comparable across batches with different class
    mixes; a batch whose applied weights sum to zero yields loss 0.
    """
    if weights.w.shape[0] != batch.c:
        raise ValidationError(
            f"{weights.w.shape[0]} weights for {batch.c} classes"
        )
    logp = _log_softmax(batch.values)
    per_sample = -logp[np.arange(batch.n), batch.targets]
    applied = weights.w[batch.targets]
    denom = applied.sum()
    if denom == 0:
        return LossOutput(0.0, np.zeros_like(batch.values))
    grad = applied[:, None] * _one_hot_residual(np.exp(logp), batch.targets) / denom
    return LossOutput(float((applied * per_sample).sum() / denom), grad)


def focal_loss(batch: LogitsBatch, gamma: float = 2.0) -> LossOutput:
    """Cross entropy modulated by (1 - p_t)^gamma, mean reduction.

    p_t is the softmax probability of the target class. gamma = 0
    reproduces plain cross entropy bit for bit. The gradient includes the
    derivative of the modulating factor:

        d/dz_j = [(1-p)^g - g (1-p)^(g-1) p log p] (softmax_j - onehot_j) / n
    """
    if not 0 <= gamma < np.inf:
        raise ValidationError(f"gamma must be finite and non-negative, got {gamma}")
    logp = _log_softmax(batch.values)
    logp_t = logp[np.arange(batch.n), batch.targets]
    p_t = np.exp(logp_t)
    one_minus = np.clip(1.0 - p_t, 0.0, 1.0)

    modulator = one_minus**gamma  # 0**0 == 1, so gamma = 0 degrades to CE
    per_sample = -modulator * logp_t
    factor = modulator
    if gamma > 0:
        with np.errstate(divide="ignore"):
            pow_gm1 = np.where(one_minus > 0, one_minus ** (gamma - 1.0), 0.0)
        # g (1-p)^(g-1) p log p -> 0 as p -> 1; the where() pins that limit
        factor = modulator - gamma * pow_gm1 * p_t * logp_t
    grad = factor[:, None] * _one_hot_residual(np.exp(logp), batch.targets) / batch.n
    return LossOutput(float(per_sample.mean()), grad)


def smooth_l1(pred, target, beta: float = 1.0) -> LossOutput:
    """Huber-style regression loss, mean over elements.

    Per element: 0.5 d^2 / beta for |d| < beta, else |d| - 0.5 beta, with
    d = pred - target. Value and slope agree at |d| = beta.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValidationError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if not 0 < beta < np.inf:
        raise ValidationError(f"beta must be finite and positive, got {beta}")
    d = pred - target
    ad = np.abs(d)
    quadratic = ad < beta
    per_elem = np.where(quadratic, 0.5 * d * d / beta, ad - 0.5 * beta)
    grad = np.where(quadratic, d / beta, np.sign(d)) / pred.size
    return LossOutput(float(per_elem.sum() / pred.size), grad)


def grad_check(
    loss_fn: Callable[..., LossOutput],
    x: Union[LogitsBatch, np.ndarray],
    step: float = 1e-5,
) -> float:
    """Max relative error of the analytic gradient vs central differences.

    ``x`` is either a LogitsBatch (the logits are perturbed) or a plain
    array; ``loss_fn`` must accept the same type. The relative error per
    entry is |analytic - numeric| / max(1e-12, |numeric|).
    """
    if not 0 < step < np.inf:
        raise ValidationError(f"step must be finite and positive, got {step}")
    if isinstance(x, LogitsBatch):
        values = x.values

        def rebuild(v):
            return LogitsBatch(v, x.targets)

    else:
        values = np.asarray(x, dtype=np.float64)

        def rebuild(v):
            return v

    analytic = loss_fn(rebuild(values)).grad
    numeric = np.zeros_like(values)
    flat = values.ravel()
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        up = loss_fn(rebuild(bumped.reshape(values.shape))).value
        bumped[i] = flat[i] - step
        down = loss_fn(rebuild(bumped.reshape(values.shape))).value
        numeric.ravel()[i] = (up - down) / (2.0 * step)
    denom = np.maximum(1e-12, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))
