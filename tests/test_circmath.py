import numpy as np
import pytest

from apexp.circmath import METRIC_TORUS, dist, frac


def reduced_torus(a, b):
    """The torus metric as a .max(axis=-1) reduction over coordinates."""
    d = frac(np.atleast_1d(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))
    return np.minimum(d, 1.0 - d).max(axis=-1)


@pytest.mark.parametrize("shape", [(50, 1), (50, 2), (50, 3), (50, 7, 2),
                                   (50, 8, 3)],
                         ids=["n1", "n2", "n3", "nm2", "n-depth-kappa"])
def test_torus_fold_matches_reduction(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.uniform(-3.0, 3.0, shape)
    b = rng.uniform(-3.0, 3.0, shape[-1])
    # exact ties, a zero difference, a half-circle difference and NaNs
    a.flat[:4] = [0.25, b[0], b[0] + 0.5, np.nan]
    a[-1, ...] = np.nan
    for lhs, rhs in ((a, b), (a, a[::-1]), (a[0], b)):
        got, want = dist(lhs, rhs, METRIC_TORUS), reduced_torus(lhs, rhs)
        assert np.shape(got) == np.shape(want)
        assert np.isnan(got).any() == np.isnan(want).any()
        assert np.array_equal(np.asarray(got).view(np.uint64),
                              np.asarray(want).view(np.uint64))
