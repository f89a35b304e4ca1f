import math
import struct

import numpy as np
import pytest

from cbs2.geometry import (
    Configuration,
    PhysParams,
    helicity_unit_vector,
    transverse_helicity_element,
    transverse_projector,
)


def test_helicity_vectors_match_convention():
    np.testing.assert_allclose(helicity_unit_vector(0), [0.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(
        helicity_unit_vector(+1), [-1 / np.sqrt(2), -1j / np.sqrt(2), 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        helicity_unit_vector(-1), [1 / np.sqrt(2), -1j / np.sqrt(2), 0.0], atol=1e-15
    )


def test_helicity_vectors_orthonormal():
    for q in (-1, 0, 1):
        for p in (-1, 0, 1):
            dot = np.vdot(helicity_unit_vector(q), helicity_unit_vector(p))
            np.testing.assert_allclose(dot, 1.0 if p == q else 0.0, atol=1e-15)


def test_helicity_invalid_index():
    with pytest.raises(ValueError):
        helicity_unit_vector(2)


def test_projector_axis_aligned():
    np.testing.assert_allclose(
        transverse_projector(np.array([0.0, 0.0, 1.0])), np.diag([1.0, 1.0, 0.0]),
        atol=1e-15,
    )


def test_projector_idempotent_and_rank(rng):
    for _ in range(25):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        proj = transverse_projector(n)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
        np.testing.assert_allclose(np.trace(proj), 2.0, atol=1e-12)
        eig = np.sort(np.linalg.eigvalsh(proj))
        np.testing.assert_allclose(eig, [0.0, 1.0, 1.0], atol=1e-12)


def test_projector_rejects_non_unit():
    for n_hat in ((1.0, 1.0, 0.0), (np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0)):
        with pytest.raises(ValueError):
            transverse_projector(np.array(n_hat))


def test_transverse_helicity_element_examples():
    np.testing.assert_allclose(
        transverse_helicity_element(np.array([0.0, 0.0, 1.0])), 0.0, atol=1e-15
    )
    np.testing.assert_allclose(
        transverse_helicity_element(np.array([1.0, 0.0, 0.0])), -0.5, atol=1e-15
    )


def test_transverse_helicity_element_closed_form(rng):
    # e+1 . (1 - nn) . e+1 = -(nx + i ny)^2 / 2 for every unit direction
    for _ in range(200):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        val = transverse_helicity_element(n)
        np.testing.assert_allclose(val, -0.5 * (n[0] + 1j * n[1]) ** 2, atol=1e-12)
        np.testing.assert_allclose(
            abs(val) ** 2, (n[0] ** 2 + n[1] ** 2) ** 2 / 4.0, atol=1e-12
        )


def test_phys_params_saturation():
    assert PhysParams(omega=0.0).saturation == 0.0
    np.testing.assert_allclose(PhysParams(omega=np.sqrt(2.0)).saturation, 1.0)
    p = PhysParams.from_saturation(1.0)
    np.testing.assert_allclose(p.omega, np.sqrt(2.0))
    np.testing.assert_allclose(
        PhysParams(omega=1.0, delta=1.0).saturation, 0.25
    )


def test_saturation_overflow_names_omega():
    with pytest.raises(ValueError, match=r"overflows a float at omega = 1e\+300"):
        PhysParams(omega=1e300).saturation


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega", [1e300, np.float64(1e300)], ids=["float", "float64"])
def test_saturation_overflow_does_not_depend_on_the_type(omega):
    with pytest.raises(ValueError, match=r"overflows a float at omega = 1e\+300"):
        PhysParams(omega=omega).saturation


@pytest.mark.filterwarnings("error")
def test_saturation_scales_an_overflowing_denominator():
    # s is about 5e-401 and rounds to 0; the squares of delta, or their
    # sum, overflow, not s
    assert PhysParams(omega=1.0, delta=1e200).saturation == 0.0
    assert PhysParams(omega=np.float64(1.0), delta=np.float64(-1e200)).saturation == 0.0
    assert PhysParams(omega=1e200, delta=1e200).saturation == 0.5
    got = PhysParams(omega=1e154, gamma=1.2e154, delta=1.3e154).saturation
    assert got == pytest.approx(1.0 / (2.0 * (1.2**2 + 1.3**2)), rel=1e-15)


def test_saturation_keeps_its_bits_on_ordinary_parameters():
    # the formula before the scaled form, on Python floats and on numpy
    # scalars alike
    for omega in (0.0, 1e-3, 0.5, 1.0, math.sqrt(2.0), 3.7, 100.0, 1e5, 1e150):
        for gamma in (0.3, 1.0, 2.0, 7.5):
            for delta in (-4.0, 0.0, 0.25, 3.0, 1e3):
                want = omega**2 / (2.0 * (gamma**2 + delta**2))
                for cast in (float, np.float64):
                    got = PhysParams(omega=cast(omega), gamma=cast(gamma), delta=cast(delta)).saturation
                    assert type(got) is float
                    assert struct.pack("<d", got) == struct.pack("<d", want)


@pytest.mark.filterwarnings("error")
def test_from_saturation_scales_an_overflowing_product():
    # delta**2, or 2 s (gamma**2 + delta**2), overflows, omega does not
    assert PhysParams.from_saturation(1.0, delta=1e200).omega == pytest.approx(
        math.sqrt(2.0) * 1e200, rel=1e-15
    )
    assert PhysParams.from_saturation(1e300, delta=1e10).omega == pytest.approx(
        math.sqrt(2.0) * 1e160, rel=1e-15
    )
    assert PhysParams.from_saturation(np.float64(1e300), delta=np.float64(-1e10)).omega == (
        pytest.approx(math.sqrt(2.0) * 1e160, rel=1e-15)
    )
    assert PhysParams.from_saturation(0.0, delta=1e200).omega == 0.0
    with pytest.raises(ValueError, match="omega must be finite"):
        PhysParams.from_saturation(1e300, delta=1e200)


def test_from_saturation_keeps_its_bits_on_ordinary_parameters():
    # the formula before the scaled form
    for s in (0.0, 1e-6, 0.01, 0.5, 1.0, 3.0, 100.0, 1e8):
        for gamma in (0.3, 1.0, 2.0, 7.5):
            for delta in (-4.0, 0.0, 0.25, 3.0, 1e3):
                want = math.sqrt(2.0 * s * (gamma**2 + delta**2))
                got = PhysParams.from_saturation(s, gamma=gamma, delta=delta).omega
                assert struct.pack("<d", got) == struct.pack("<d", want)


def test_phys_params_validation():
    with pytest.raises(ValueError):
        PhysParams(omega=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        PhysParams(omega=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["omega", "gamma", "delta"])
def test_phys_params_refuse_non_finite(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        PhysParams(**{"omega": 1.0, name: bad})


@pytest.mark.parametrize(
    "s, kwargs",
    [(np.nan, {}), (np.inf, {}), (1.0, {"gamma": np.nan}), (1.0, {"delta": np.inf})],
)
def test_from_saturation_refuses_non_finite(s, kwargs):
    with pytest.raises(ValueError, match="finite"):
        PhysParams.from_saturation(s, **kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["phi_L"])
def test_configuration_refuses_non_finite(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        Configuration(**{name: bad})


@pytest.mark.parametrize("n_hat", [(np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0), (0.0, 0.6, np.nan)])
def test_configuration_refuses_non_finite_direction(n_hat):
    with pytest.raises(ValueError, match="n_hat must be finite"):
        Configuration(n_hat=n_hat)


def test_configuration_weight():
    cfg = Configuration()
    np.testing.assert_allclose(cfg.geometry_weight, 0.25, atol=1e-15)
    with pytest.raises(ValueError):
        Configuration(n_hat=np.array([1.0, 1.0, 1.0]))


@pytest.mark.parametrize("name", ["k0_r", "ell_k0", "theta"])
def test_configuration_takes_no_distance_or_angle(name):
    # distance and detection angle change no output of the engine, so the
    # configuration refuses them instead of ignoring them; the angular
    # average is mc_average's and its mean distance AverageSpec.ell_k0
    with pytest.raises(TypeError):
        Configuration(**{name: 1000.0})


def test_three_vector_shape_is_checked():
    with pytest.raises(ValueError, match="3-vector"):
        transverse_projector(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="3-vector"):
        Configuration(n_hat=np.array([1.0, 0.0]))
