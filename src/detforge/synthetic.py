"""Deterministic synthetic box corpus for clustering demos and tests.

The generator plants four scale modes with aerial-like frequencies: lots
of small objects, a long tail of large ones. Identical (n, seed) always
yields the identical corpus, so derived quantities can be frozen in
tests.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

MODE_SCALES = (9.0, 26.0, 70.0, 208.0)
MODE_WEIGHTS = (0.55, 0.25, 0.14, 0.06)

# The most boxes one corpus holds. Sampling peaks near 60 bytes a box, so
# the bound keeps it under 64 MB; larger box sets come from a file.
MAX_SYNTHETIC_BOXES = 1_000_000


def synthetic_aerial_corpus(n: int = 2000, seed: int = 7) -> np.ndarray:
    """Sample an (n, 2) float64 array of (w, h) from the four planted scale modes.

    Each box picks a mode, then jitters scale and aspect ratio
    log-normally, so w*h clusters around the mode scale squared while
    h/w stays centered on 1. More than ``MAX_SYNTHETIC_BOXES`` boxes fail
    before anything is sampled.
    """
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    if n > MAX_SYNTHETIC_BOXES:
        raise ValidationError(f"a synthetic corpus of {n} boxes passes "
                              f"MAX_SYNTHETIC_BOXES = {MAX_SYNTHETIC_BOXES}")
    rng = np.random.default_rng(seed)
    modes = rng.choice(len(MODE_SCALES), size=n, p=MODE_WEIGHTS)
    scales = np.array(MODE_SCALES)[modes] * np.exp(rng.normal(0.0, 0.28, size=n))
    ratios = np.exp(rng.normal(0.0, 0.35, size=n))
    widths = scales / np.sqrt(ratios)
    heights = scales * np.sqrt(ratios)
    return np.stack([widths, heights], axis=1)
