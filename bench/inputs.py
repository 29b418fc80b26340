"""Seeded inputs for the benchmark workloads.

The benchmark makes its own series instead of calling
``chants.data.make_synthetic_fixture``: the fixture is expected to change
(its classes must become separable by channel order alone), and if the
benchmark read it, whether a probe stops early, and so ``probe_s``, would
move with no change to the code being timed.
"""

from __future__ import annotations

import numpy as np

SLOW_FREQS = (1.0, 2.0)
FAST_FREQS = (4.0, 6.0)


def lagged_sinusoids(
    m: int, channels: int, steps: int, seed: int, *, lag: int = 2, noise: float = 0.15
) -> tuple[np.ndarray, np.ndarray]:
    """``m`` series of shape (channels, steps) and their labels in {0, 1}.

    Each series is a two-component sinusoid mixture with random amplitude,
    phase and a +-10% frequency jitter. Class 0 uses slow components and
    channels that lead one another by ``lag`` steps; class 1 uses fast
    components and channels that trail. Gaussian noise is added last.
    Classes alternate, so every prefix is balanced.
    """
    rng = np.random.default_rng([seed, 0xBE4C])
    labels = np.arange(m, dtype=np.int64) % 2
    base = np.where(labels[:, None] == 0, SLOW_FREQS, FAST_FREQS)
    freqs = base * rng.uniform(0.9, 1.1, size=(m, 2))
    amps = rng.uniform(0.6, 1.4, size=(m, 2))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(m, 2))
    direction = np.where(labels == 0, 1, -1)
    shift = direction[:, None] * lag * np.arange(channels)[None, :]
    grid = (np.arange(steps)[None, None, :] + shift[:, :, None]).astype(np.float64)
    series = np.zeros((m, channels, steps))
    for k in range(2):
        angle = 2.0 * np.pi * freqs[:, k, None, None] * grid / steps + phases[:, k, None, None]
        series += amps[:, k, None, None] * np.sin(angle)
    series += rng.normal(0.0, noise, size=series.shape)
    return series, labels
