"""Time-series augmentation strategies for building contrastive batches.

All three strategies are pure functions of (sample, config, rng state) and
preserve the input shape. The permutation strategies move whole columns and
never alter values; interval adjustment adds Gaussian jitter inside randomly
chosen time intervals and leaves everything outside untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "AugmentConfig",
    "async_permute",
    "draw_intervals",
    "interval_adjust",
    "jitter_intervals",
    "sync_permute",
]


@dataclass(frozen=True)
class AugmentConfig:
    """Knobs of the three strategies.

    Interval lengths are drawn uniformly from [1, max(1, T // 4)]; counts and
    segment counts come from the inclusive ranges below.
    """

    jitter_sigma: float = 0.1
    interval_count_range: tuple[int, int] = (1, 5)
    segment_count_range: tuple[int, int] = (4, 8)

    def __post_init__(self):
        if self.jitter_sigma <= 0.0:
            raise ConfigError(f"jitter_sigma must be > 0, got {self.jitter_sigma}")
        for name in ("interval_count_range", "segment_count_range"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise ConfigError(f"{name} must be a nonempty range of positive ints, got ({lo}, {hi})")


def draw_intervals(steps: int, cfg: AugmentConfig, rng: np.random.Generator) -> list[tuple[int, int]]:
    """k random [start, stop) intervals on the time axis; they may overlap."""
    lo, hi = cfg.interval_count_range
    k = int(rng.integers(lo, hi + 1))
    max_len = max(1, steps // 4)
    intervals = []
    for _ in range(k):
        length = int(rng.integers(1, max_len + 1))
        start = int(rng.integers(0, steps - length + 1))
        intervals.append((start, start + length))
    return intervals


def jitter_intervals(
    x: np.ndarray,
    intervals: list[tuple[int, int]],
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Add N(0, sigma) noise to every column covered by the interval union.

    The union is perturbed once, so overlapping intervals do not stack noise;
    noise draws are independent per element but the covered columns are the
    same for every channel.
    """
    steps = x.shape[1]
    covered = np.zeros(steps, dtype=bool)
    for start, stop in intervals:
        covered[start:stop] = True
    out = x.copy()
    n_cov = int(covered.sum())
    if n_cov:
        out[:, covered] += rng.normal(0.0, sigma, size=(x.shape[0], n_cov))
    return out


def interval_adjust(x: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Jitter values inside randomly drawn intervals, shared across channels."""
    x = np.asarray(x, dtype=np.float64)
    return jitter_intervals(x, draw_intervals(x.shape[1], cfg, rng), cfg.jitter_sigma, rng)


def _segment_order(steps: int, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Column index permutation from segmenting and shuffling the time axis."""
    lo, hi = cfg.segment_count_range
    lo, hi = min(lo, steps), min(hi, steps)
    s = int(rng.integers(lo, hi + 1))
    if s <= 1:
        return np.arange(steps)
    cuts = np.sort(rng.choice(np.arange(1, steps), size=s - 1, replace=False))
    bounds = np.concatenate(([0], cuts, [steps]))
    segments = [np.arange(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    order = rng.permutation(s)
    return np.concatenate([segments[i] for i in order])


def sync_permute(x: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Shuffle contiguous time segments, the same way for every channel."""
    x = np.asarray(x, dtype=np.float64)
    return x[:, _segment_order(x.shape[1], cfg, rng)]


def async_permute(x: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Segment and shuffle each channel independently, breaking alignment."""
    x = np.asarray(x, dtype=np.float64)
    rows = [row[_segment_order(x.shape[1], cfg, rng)] for row in x]
    return np.stack(rows, axis=0)
