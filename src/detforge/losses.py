"""Classification and regression losses with analytic gradients.

The one classification loss, :func:`focal_loss`, acts on raw logits
through a log-sum-exp stabilized softmax, so log-probabilities stay
finite for any finite input and no explicit probability floor is
needed. Every loss returns both its scalar value and the gradient with
respect to its primary input, sized like that input, so gradients can
be verified against central finite differences (:func:`grad_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .annotations import check_real
from .errors import ValidationError


def _floats(name: str, values) -> np.ndarray:
    """``values`` as a float64 array; a one-line error when NumPy cannot read it as floats."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # ragged rows, objects, text
        raise ValidationError(f"{name} must be real numbers; NumPy cannot read "
                              f"this {type(values).__name__} as floats") from None


@dataclass(frozen=True, eq=False)
class LogitsBatch:
    """A batch of raw class scores with integer class targets.

    ``values`` is (n, c); by convention background, when present, is the
    last class index c - 1. Targets must be integers in [0, c): a float
    or bool target is an error, not a class index.
    """

    values: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        values = _floats("logits", self.values)
        try:
            targets = np.asarray(self.targets)
        except ValueError:  # ragged nesting
            raise ValidationError("targets must be a 1-D array of class indices") from None
        if targets.size and targets.dtype.kind not in "iu":  # an int past int64 is an object
            raise ValidationError(f"targets must be int64 class indices, got {targets.dtype}")
        targets = targets.astype(np.int64, copy=False)
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
        w = _floats("weights", self.w)
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
    counts = _floats("counts", counts)
    if counts.ndim != 1 or counts.size == 0:
        raise ValidationError("counts must be a non-empty 1-D vector")
    if not np.all(np.isfinite(counts)):
        raise ValidationError(f"counts must be finite, got {counts.tolist()}")
    if np.any(counts < 0):
        raise ValidationError("counts must be non-negative")
    with np.errstate(over="ignore"):  # an overflowing sum fails below
        total = counts.sum()
    if total == np.inf:
        raise ValidationError("counts sum past the float range")
    if total <= 0:
        raise ValidationError("all-zero counts")
    return ClassWeights((total - counts) / total)


def focal_loss(batch: LogitsBatch, gamma: float = 2.0,
               weights: ClassWeights | None = None) -> LossOutput:
    """The alpha-balanced focal loss of RetinaNet: -w_t (1 - p_t)^gamma log p_t.

    p_t is the softmax probability of the target class and w_t the weight
    of that class, 1 for every class when ``weights`` is None. Reduction
    normalizes by the sum of applied weights, sum_i w_{t_i} (n without
    weights), keeping the loss scale comparable across batches with
    different class mixes; a batch whose applied weights sum to zero, an
    empty batch among them, yields loss 0 and a zero gradient. gamma = 0
    is cross entropy, and with ``weights`` class-weighted cross entropy.
    The gradient includes the derivative of the modulating factor:

        d/dz_j = w_t [(1-p)^g - g (1-p)^(g-1) p log p] (softmax_j - onehot_j) / sum_i w_{t_i}
    """
    if not isinstance(batch, LogitsBatch):
        raise ValidationError(f"batch must be a LogitsBatch, got {type(batch).__name__}")
    gamma = check_real("gamma", gamma)
    if not 0 <= gamma < np.inf:
        raise ValidationError(f"gamma must be finite and non-negative, got {gamma}")
    if weights is None:
        applied = np.ones(batch.n)
    elif not isinstance(weights, ClassWeights):
        raise ValidationError(f"weights must be a ClassWeights, got {type(weights).__name__}")
    elif weights.w.shape[0] != batch.c:
        raise ValidationError(f"{weights.w.shape[0]} weights for {batch.c} classes")
    else:
        applied = weights.w[batch.targets]
    denom = applied.sum()
    if denom == 0:
        return LossOutput(0.0, np.zeros_like(batch.values))
    rows = np.arange(batch.n)
    shifted = batch.values - batch.values.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp_t = logp[rows, batch.targets]
    p_t = np.exp(logp_t)
    one_minus = np.clip(1.0 - p_t, 0.0, 1.0)

    modulator = one_minus**gamma  # 0**0 == 1, so gamma = 0 is cross entropy
    factor = modulator
    if gamma > 0:
        with np.errstate(divide="ignore"):
            pow_gm1 = np.where(one_minus > 0, one_minus ** (gamma - 1.0), 0.0)
        # g (1-p)^(g-1) p log p -> 0 as p -> 1; the where() pins that limit
        factor = modulator - gamma * pow_gm1 * p_t * logp_t
    residual = np.exp(logp)  # becomes softmax - onehot(target), the CE gradient per sample
    residual[rows, batch.targets] -= 1.0
    grad = (applied * factor)[:, None] * residual / denom
    return LossOutput(float((applied * (-modulator * logp_t)).sum() / denom), grad)


def smooth_l1(pred, target, beta: float = 1.0) -> LossOutput:
    """Huber-style regression loss, mean over elements.

    Per element: 0.5 d^2 / beta for |d| < beta, else |d| - 0.5 beta, with
    d = pred - target. Value and slope agree at |d| = beta. An empty
    input yields loss 0, as an empty batch does in :func:`focal_loss`.
    ``pred`` and ``target`` must be finite, and so must the loss, each
    step of its sum included.
    """
    pred, target = _floats("pred", pred), _floats("target", target)
    if pred.shape != target.shape:
        raise ValidationError(f"shape mismatch: {pred.shape} vs {target.shape}")
    beta = check_real("beta", beta)
    if not 0 < beta < np.inf:
        raise ValidationError(f"beta must be finite and positive, got {beta}")
    if not (np.isfinite(pred).all() and np.isfinite(target).all()):
        raise ValidationError("pred and target must be finite")
    size = max(pred.size, 1)
    # np.where drops the overflows of the branch it does not take; one it
    # keeps leaves the loss non-finite
    with np.errstate(over="ignore"):
        d = pred - target
        ad = np.abs(d)
        quadratic = ad < beta
        per_elem = np.where(quadratic, 0.5 * d * d / beta, ad - 0.5 * beta)
        value = per_elem.sum() / size
        grad = np.where(quadratic, d / beta, np.sign(d)) / size
    if not np.isfinite(value):  # a finite loss has a finite d, so a finite grad
        raise ValidationError("smooth_l1 of pred and target is out of float range")
    return LossOutput(float(value), grad)


def grad_check(
    loss_fn: Callable[..., LossOutput],
    x: Union[LogitsBatch, np.ndarray],
    step: float = 1e-5,
) -> float:
    """Max relative error of the analytic gradient vs central differences.

    ``x`` is either a LogitsBatch (the logits are perturbed) or a plain
    array; ``loss_fn`` must accept the same type. The relative error per
    entry is |analytic - numeric| / max(1e-12, |numeric|); an empty input
    has error 0.
    """
    step = check_real("step", step)
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
    return float(np.max(np.abs(analytic - numeric) / denom, initial=0.0))
