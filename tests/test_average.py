"""Tests for the isotropic configuration average of the geometry factors."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import one_shot_mc_average

from cbs2 import average
from cbs2.average import (
    _MC_CHUNK,
    ISOTROPIC_FACTOR,
    AverageSpec,
    exact_average,
    mc_average,
)


def test_isotropic_factor_value():
    assert ISOTROPIC_FACTOR == pytest.approx(2.0 / 15.0, rel=1e-15)


def test_exact_average_examples():
    spec = AverageSpec(ell_k0=1000.0, width_frac=0.5)
    assert abs(exact_average(spec, 0.0) - 2.0 / 15.0) < 1e-15
    # k ell theta = 0.1 on the default shell
    assert exact_average(spec, 1e-4) == pytest.approx(0.133024049505664, abs=1e-15)


def test_exact_average_guards():
    with pytest.raises(ValueError, match="theta"):
        exact_average(AverageSpec(), -1e-3)
    # far outside the cone (k ell theta = 3) the value stays exact, without
    # a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = exact_average(AverageSpec(), 3e-3)
    assert value == pytest.approx(-0.00811051261339441, abs=1e-15)


def _composite_gauss_legendre(spec, theta, nodes, extra_panels):
    """exact_average's integral in one shot, with `nodes` Gauss-Legendre
    nodes on each of its panels plus `extra_panels` more, and P spelled as
    the azimuthal average's three terms."""
    a = 2.0 * math.sin(0.5 * theta) * spec.ell_k0
    w = spec.width_frac
    panels = int(abs(a) * (1.0 + w) / 4.0) + 8 + extra_panels
    x, weights = np.polynomial.legendre.leggauss(nodes)
    mu = (np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels
    p = mu**4 + mu**2 * (1.0 - mu**2) + 0.375 * (1.0 - mu**2) ** 2
    fringe = np.cos(a * mu) * np.sinc(a * w * mu / np.pi)
    return 0.125 * float(np.sum(weights * p * fringe)) / panels


@pytest.mark.parametrize("width_frac", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("k_ell", [100.0, 1000.0])
def test_exact_average_is_converged(monkeypatch, k_ell, width_frac):
    # twice the nodes on 50 more panels, or chunks of 7 panels, move no
    # value beyond rounding, from the cone to theta = pi
    spec = AverageSpec(ell_k0=k_ell, width_frac=width_frac)
    thetas = [0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 1.0, 2.0, 3.0, math.pi]
    values = [exact_average(spec, theta) for theta in thetas]
    for theta, value in zip(thetas, values):
        assert abs(value - _composite_gauss_legendre(spec, theta, 48, 50)) < 1e-14
    monkeypatch.setattr(average, "_MC_CHUNK", 7)
    for theta, value in zip(thetas, values):
        assert abs(exact_average(spec, theta) - value) < 1e-14


@pytest.mark.parametrize("width_frac", [0.0, 0.5])
@pytest.mark.parametrize("k_ell", [100.0, 1000.0])
def test_exact_average_quadratic_term(k_ell, width_frac):
    # 2/15 - value = q^2 (k ell)^2 <(r/ell)^2> / 35 + O(q^4), with
    # <(r/ell)^2> = 1 + w^2/3 on the uniform shell; w -> 0 is the sharp shell
    theta = 1e-6
    q = 2.0 * math.sin(0.5 * theta)
    value = exact_average(AverageSpec(ell_k0=k_ell, width_frac=width_frac), theta)
    coeff = (2.0 / 15.0 - value) / q**2
    assert coeff == pytest.approx(k_ell**2 * (1.0 + width_frac**2 / 3.0) / 35.0, rel=1e-6)


@pytest.mark.parametrize("width_frac", [0.0, 0.5])
@pytest.mark.parametrize("theta", [0.0, 3e-4, 3e-3, 0.1])
def test_mc_average_samples_exact_average(theta, width_frac):
    mean, sem = mc_average(AverageSpec(samples=1_000_000, seed=7, width_frac=width_frac), theta)
    assert abs(mean - exact_average(AverageSpec(width_frac=width_frac), theta)) < 3.0 * sem


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
        exact_average(AverageSpec(), bad)
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


def test_mc_agrees_with_exact_average_on_sharp_shell():
    k_ell = 100.0
    spec = AverageSpec(samples=1_000_000, seed=31, ell_k0=k_ell, width_frac=0.0)
    theta = 2e-3
    mean, sem = mc_average(spec, theta=theta)
    crossed = exact_average(spec, theta)
    assert crossed == pytest.approx(0.132193013688421, abs=1e-15)
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


def test_theta_beyond_pi_is_refused():
    # 2 sin(theta/2) folds theta > pi back onto 2 pi - theta
    spec = AverageSpec(samples=10)
    for method in (mc_average, exact_average):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
            method(spec, 3.2)
        method(spec, math.pi)
