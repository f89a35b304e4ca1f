"""Tests for the isotropic configuration average of the geometry factors."""

import tracemalloc

import numpy as np
import pytest
from conftest import one_shot_mc_average

from cbs2.average import (
    _MC_CHUNK,
    ISOTROPIC_FACTOR,
    AverageSpec,
    angular_factor,
    mc_average,
)


def test_isotropic_factor_value():
    assert ISOTROPIC_FACTOR == pytest.approx(2.0 / 15.0, rel=1e-15)


def test_angular_factor_examples():
    crossed, ladder = angular_factor(0.0, 1000.0)
    assert crossed == pytest.approx(2.0 / 15.0)
    assert ladder == pytest.approx(2.0 / 15.0)
    crossed, ladder = angular_factor(1e-4, 1000.0)  # k ell theta = 0.1
    assert crossed == pytest.approx(2.0 / 15.0 - 0.01 / 35.0, rel=1e-12)
    assert ladder == pytest.approx(2.0 / 15.0)


def test_angular_factor_guards():
    with pytest.raises(ValueError):
        angular_factor(-1e-3, 1000.0)
    for k_ell in (0.0, -5.0):
        with pytest.raises(ValueError, match="k_ell must be positive"):
            angular_factor(0.1, k_ell)
    with pytest.warns(UserWarning):
        angular_factor(1e-3, 1000.0)  # k ell theta = 1 > 0.5


def test_average_spec_validation():
    with pytest.raises(ValueError):
        AverageSpec(samples=0)
    with pytest.raises(ValueError):
        AverageSpec(samples=1)  # no sample spread, so no standard error
    with pytest.raises(ValueError):
        AverageSpec(width_frac=1.0)
    with pytest.raises(ValueError):
        AverageSpec(ell_k0=0.0)
    with pytest.raises(ValueError):
        mc_average(AverageSpec(), theta=-0.1)


@pytest.mark.parametrize(
    "samples", [1000.0, 2.5, np.float64(1000.0)], ids=["float", "fraction", "numpy-float"]
)
def test_average_spec_refuses_non_integral_samples(samples):
    # numpy draws an integral number of samples only; a float count would
    # fail later, in mc_average, with an untyped TypeError
    with pytest.raises(ValueError, match="samples must be an integer"):
        AverageSpec(samples=samples)


def test_average_spec_takes_numpy_integer_samples():
    # and a numpy integer seed
    spec = AverageSpec(samples=np.int64(1000), seed=np.int64(3))
    assert mc_average(spec) == mc_average(AverageSpec(samples=1000, seed=3))


@pytest.mark.parametrize(
    "seed",
    [1.5, 2.0, np.float64(3.0), "a", None, -1, np.int64(-1)],
    ids=["fraction", "float", "numpy-float", "string", "none", "negative", "numpy-negative"],
)
def test_average_spec_refuses_seed_that_is_not_a_non_negative_integer(seed):
    # numpy would refuse these only in mc_average, with an untyped TypeError
    # or, for a negative seed, at draw time
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        AverageSpec(seed=seed)


@pytest.mark.parametrize("width_frac", [0.0, 0.5])
@pytest.mark.parametrize("theta", [0.0, 1e-3, 0.3])
@pytest.mark.parametrize(
    "samples", [2, _MC_CHUNK - 1, _MC_CHUNK, _MC_CHUNK + 1, 100_000, 1_000_000]
)
def test_chunked_draw_equals_one_shot_draw(samples, theta, width_frac):
    # the generator gives the same numbers in chunks as at once and every
    # per-sample step is elementwise, so the estimate is the same bit for bit
    spec = AverageSpec(samples=samples, seed=5, width_frac=width_frac)
    assert mc_average(spec, theta) == one_shot_mc_average(spec, theta)


def _traced_peak(spec):
    tracemalloc.start()
    try:
        mc_average(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_average_keeps_two_arrays_of_samples():
    # two float64 arrays of the samples, 16 bytes per sample, plus the
    # temporaries of one chunk; a one-shot draw holds 64 bytes per sample
    assert _traced_peak(AverageSpec()) < 3 * 2**20
    samples = 1_000_000
    assert _traced_peak(AverageSpec(samples=samples)) < 24 * samples


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_inputs_are_refused(bad):
    for name in ("ell_k0", "width_frac"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            AverageSpec(**{name: bad})
    with pytest.raises(ValueError, match="theta"):
        angular_factor(bad, 1000.0)
    with pytest.raises(ValueError, match="k_ell"):
        angular_factor(1e-4, bad)
    with pytest.raises(ValueError, match="theta"):
        mc_average(AverageSpec(samples=10), theta=bad)


def test_exact_backscattering_matches_isotropic_factor():
    mean, sem = mc_average(AverageSpec(samples=200_000, seed=123))
    assert sem < 1e-3
    assert abs(mean - 2.0 / 15.0) < 3.0 * sem


def test_mc_determinism():
    spec = AverageSpec(samples=50_000, seed=42)
    first = mc_average(spec, theta=1e-4)
    second = mc_average(spec, theta=1e-4)
    assert first == second


def test_mc_error_scales_as_inverse_sqrt_samples():
    _, sem_small = mc_average(AverageSpec(samples=10_000, seed=9))
    _, sem_large = mc_average(AverageSpec(samples=1_000_000, seed=9))
    assert sem_small / sem_large == pytest.approx(10.0, rel=0.2)


def test_quadratic_fringe_reduction():
    # sharp distance shell: the quadratic coefficient is (k ell)^2 / 35.
    # identical seeds make the theta = 0 and theta > 0 runs share samples,
    # so the difference is almost noise-free
    k_ell = 100.0
    spec = AverageSpec(samples=1_000_000, seed=7, ell_k0=k_ell, width_frac=0.0)
    base, _ = mc_average(spec, theta=0.0)
    for theta in (1e-3, 2e-3):
        mean, _ = mc_average(spec, theta=theta)
        coeff = (base - mean) / theta**2
        assert coeff == pytest.approx(k_ell**2 / 35.0, rel=0.05)


def test_mc_agrees_with_small_angle_expansion():
    k_ell = 100.0
    spec = AverageSpec(samples=1_000_000, seed=31, ell_k0=k_ell, width_frac=0.0)
    theta = 2e-3
    mean, sem = mc_average(spec, theta=theta)
    crossed, _ = angular_factor(theta, k_ell)
    assert abs(mean - crossed) < 4.0 * sem


def test_wide_shell_increases_fringe_decay():
    # <r^2> grows with the shell width, so the fringe reduction at fixed
    # theta must grow as well
    k_ell = 100.0
    theta = 2e-3
    sharp, _ = mc_average(
        AverageSpec(samples=1_000_000, seed=11, ell_k0=k_ell, width_frac=0.0), theta
    )
    wide, _ = mc_average(
        AverageSpec(samples=1_000_000, seed=11, ell_k0=k_ell, width_frac=0.9), theta
    )
    assert wide < sharp
