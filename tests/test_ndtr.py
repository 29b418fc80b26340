"""The GELU's normal CDF kernel against ``scipy.special.ndtr`` as the oracle.

scipy is a test dependency only: the package's kernel is a numpy port of
the Cephes ``ndtr`` that scipy runs.
"""

import numpy as np
import pytest
from scipy.special import ndtr

from chants.tensor import _ndtr, gelu

SQRT2 = np.sqrt(2.0)


def phi(a: np.ndarray) -> np.ndarray:
    return _ndtr(a, *np.empty((3, *a.shape)))


def ulps(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Distance in units in the last place between two arrays of values >= 0."""
    assert (got >= 0).all() and (want >= 0).all()
    return np.abs(got.view(np.int64) - want.view(np.int64))


def test_central_region_is_bitwise_scipy():
    # 10M grid points with |a| < sqrt(2), where the kernel computes
    # 0.5 + 0.5 * erf(a / sqrt(2)) in Cephes' order of operations
    points, chunks = 10_000_000, 10
    step = 2.0 * SQRT2 / (points + 1)
    per_chunk = points // chunks
    for c in range(chunks):
        a = (np.arange(c * per_chunk, (c + 1) * per_chunk) + 1.0) * step - SQRT2
        a = a[np.abs(a) < SQRT2]
        assert phi(a).tobytes() == ndtr(a).tobytes()
    edges = np.nextafter(SQRT2, 0.0)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, edges, -edges])
    assert phi(special).tobytes() == ndtr(special).tobytes()


@pytest.mark.parametrize(
    "a",
    [
        np.linspace(-40.0, 40.0, 2_000_001),
        np.geomspace(SQRT2, 1e300, 500_000),
        -np.geomspace(SQRT2, 1e300, 500_000),
        np.array([26.6, 26.7, 27.0, 37.5, 38.5, 8.0, np.nextafter(8.0, 0.0)]) * np.sqrt(2.0) * np.array([[1.0], [-1.0]]),
    ],
    ids=["linear-40-to-40", "geometric-upper-tail", "geometric-lower-tail", "branch-edges"],
)
def test_tails_agree_with_scipy_to_4_ulp(a):
    got, want = phi(a), ndtr(a)
    assert ulps(got, want).max() <= 4


def test_nan_and_infinities():
    got = phi(np.array([np.nan, np.inf, -np.inf, -np.nan]))
    assert np.isnan(got[0]) and np.isnan(got[3])
    assert got[1] == 1.0 and got[2] == 0.0


def test_writes_into_out_and_keeps_its_input():
    a = np.random.default_rng(3).normal(scale=3.0, size=(4, 5, 6))
    before = a.copy()
    out, s1, s2 = np.empty((3, *a.shape))
    assert _ndtr(a, out, s1, s2) is out
    assert out.tobytes() == phi(a).tobytes()
    np.testing.assert_array_equal(a, before)
    assert ulps(out, ndtr(a)).max() <= 4


def test_gelu_takes_phi_from_the_kernel():
    a = np.random.default_rng(4).normal(scale=2.0, size=(7, 9))
    assert gelu(a).data.tobytes() == (a * phi(a)).tobytes()
