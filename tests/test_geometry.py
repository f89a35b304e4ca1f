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
