"""Tests for the spectral densities of the interference signal.

Covers the resolvent contracts, the regression sources, closure of the
integrated spectrum against the stationary intensities, and agreement
with the closed-form weak-drive limit.
"""

import numpy as np
import pytest
import scipy.linalg as la

from cbs2 import oracle
from cbs2.generators import (
    EXCITED_LEVELS,
    LIOUVILLE_DIM,
    TRACE_VECTOR,
    Generator,
    free_generator,
    transition_operator,
)
from cbs2.geometry import Configuration, PhysParams
from cbs2.perturbation import DeflatedResolvent, build_expansion, zeroth_steady_state
from cbs2.spectrum import (
    SWEEP_CHUNK,
    GridCoverageError,
    ResolventPoleError,
    SpectrumEngine,
    SpectrumResult,
    default_frequency_grid,
    integrate_spectrum,
    oracle_spectrum_result,
    regression_sources,
)


def random_traceless(rng):
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    return m - np.trace(m) / 16.0 * np.eye(16)


@pytest.fixture(scope="module")
def free_and_rho0():
    free = free_generator(PhysParams.from_saturation(1.0))
    return free, zeroth_steady_state(free)


def resolvent_apply(free, rho0, z, src):
    """(z - L)^-1 src for a traceless 16 x 16 source."""
    x = -DeflatedResolvent(free, rho0).solve(z, src.reshape(-1))
    return x.reshape(16, 16)


def test_resolvent_residual_and_large_z(free_and_rho0):
    free, rho0 = free_and_rho0
    rng = np.random.default_rng(5)
    src = random_traceless(rng)
    z = 1.0 - 1.0j
    x = resolvent_apply(free, rho0, z, src)
    residual = z * x - free.apply(x) - src
    assert np.max(np.abs(residual)) < 1e-10
    # far from the spectrum the resolvent approaches 1/z
    z_far = 1e6
    x_far = resolvent_apply(free, rho0, z_far, src)
    assert np.max(np.abs(x_far - src / z_far)) < 1e-4 * np.max(np.abs(src)) / z_far


def test_resolvent_deflation_covers_imaginary_axis(free_and_rho0):
    free, rho0 = free_and_rho0
    rng = np.random.default_rng(6)
    src = random_traceless(rng)
    for nu in (-5.0, -1.0, 0.0, 1.0, 5.0):
        x = resolvent_apply(free, rho0, -1j * nu, src)
        residual = -1j * nu * x - free.apply(x) - src
        assert np.max(np.abs(residual)) < 1e-10


def test_resolvent_solution_is_traceless(free_and_rho0):
    free, rho0 = free_and_rho0
    rng = np.random.default_rng(7)
    src = random_traceless(rng)
    x = resolvent_apply(free, rho0, -0.5j, src)
    assert abs(np.trace(x)) < 1e-10 * np.max(np.abs(x))


def test_resolvent_pole_for_traced_source(free_and_rho0):
    free, rho0 = free_and_rho0
    src = np.eye(16, dtype=complex)  # trace 16: outside the deflated subspace
    with pytest.raises(ValueError, match="traceless"):
        resolvent_apply(free, rho0, 0.0, src)


@pytest.fixture(scope="module", params=[0.1, 0.25, 0.5, 2.0**-0.5, 1.0, 10.0, 100.0])
def free_at_omega(request):
    free = free_generator(PhysParams(omega=request.param))
    return free, zeroth_steady_state(free)


PROBE_NU = (-5.0, -1.0, -0.5, 0.5, 1.0, 5.0)


@pytest.mark.parametrize("nu", [*PROBE_NU, pytest.param(PROBE_NU, id="all-shifts")])
def test_resolvent_matches_undeflated_solve(free_at_omega, nu):
    # Omega = gamma/2 and Omega = gamma are exceptional points of the free
    # generator, where its eigenvectors coalesce; off nu = 0 the undeflated
    # L - z is regular and serves as the reference.  A tuple of nu is
    # solved as one array of shifts.
    free, rho0 = free_at_omega
    rng = np.random.default_rng(8)
    block = np.stack([random_traceless(rng).reshape(-1) for _ in range(3)], axis=1)
    z = -1j * np.asarray(nu)
    x = DeflatedResolvent(free, rho0).solve(z, block)
    assert x.shape == z.shape + block.shape
    for z_f, x_f in zip(np.atleast_1d(z), x.reshape(-1, *block.shape)):
        for col in x_f.T:
            assert abs(TRACE_VECTOR @ col) < 1e-12 * np.linalg.norm(col)
        want = la.solve(free.matrix - z_f * np.eye(LIOUVILLE_DIM), block)
        assert np.linalg.norm(x_f - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.filterwarnings("error")
def test_resolvent_pole_for_singular_deflation():
    # the all-zero generator leaves 240 one-dimensional zero sectors: a
    # typed error, and no warning on the way
    null = Generator(np.zeros((LIOUVILLE_DIM, LIOUVILLE_DIM), dtype=complex))
    rho0 = np.eye(16, dtype=complex) / 16.0
    src = random_traceless(np.random.default_rng(9))
    with pytest.raises(ResolventPoleError):
        DeflatedResolvent(null, rho0).solve(0.0, src.reshape(-1))


def test_resolvent_pole_names_the_failing_shift():
    # only the shift at 0 is a pole of the all-zero generator
    null = Generator(np.zeros((LIOUVILLE_DIM, LIOUVILLE_DIM), dtype=complex))
    rho0 = np.eye(16, dtype=complex) / 16.0
    src = random_traceless(np.random.default_rng(10)).reshape(-1)
    with pytest.raises(ResolventPoleError, match=r"z = 0j"):
        DeflatedResolvent(null, rho0).solve(np.array([1.0j, 0.0, -2.0j]), src)


@pytest.fixture(scope="module")
def expansion_pair():
    params = PhysParams.from_saturation(1.0)
    cfg = Configuration()
    pert = build_expansion(params, cfg)
    return pert, cfg


def raw_source(pert, atom, key):
    """Stationary order times the raising dipole, before the elastic part
    is subtracted."""
    return pert[key] @ transition_operator(atom, 2, "raising")


def test_regression_sources_structure(expansion_pair):
    pert, _ = expansion_pair
    for atom in (1, 2):
        src = regression_sources(pert, atom)
        assert src.atom == atom
        assert np.max(np.abs(raw_source(pert, atom, (0, 0)))) == 0.0
        for key, conn in src.connected.items():
            assert abs(np.trace(conn)) < 1e-12
        # subtracting the elastic part changes something at order (1, 1)
        diff = raw_source(pert, atom, (1, 1)) - src.connected[(1, 1)]
        assert np.max(np.abs(diff)) > 1e-4


def excited_rotation(angle):
    w = np.eye(16, dtype=complex)
    for atom in (1, 2):
        proj = sum(transition_operator(atom, e, "projector") for e in EXCITED_LEVELS)
        w = w @ (np.eye(16) + (np.exp(1j * angle) - 1.0) * proj)
    return w


def swap_atoms(mat):
    return mat.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16)


def test_source_swap_phase_symmetry():
    # relabeling the atoms while reversing the relative drive phase maps
    # the two detection sources onto each other up to a drive-phase
    # rotation of the excited manifolds and one overall phase factor
    params = PhysParams.from_saturation(1.0)
    phi = 0.9
    pert1 = build_expansion(params, Configuration(phi_L=phi))
    pert2 = build_expansion(params, Configuration(phi_L=-phi))
    src1 = regression_sources(pert1, 1)
    src2 = regression_sources(pert2, 2)
    rot = excited_rotation(phi)
    for key in ((1, 0), (1, 1)):
        for a, b in (
            (raw_source(pert1, 1, key), raw_source(pert2, 2, key)),
            (src1.connected[key], src2.connected[key]),
        ):
            mapped = np.exp(-1j * phi) * (rot @ swap_atoms(b) @ rot.conj().T)
            assert np.allclose(a, mapped, atol=1e-12)


def test_engine_rejects_degenerate_orientation():
    with pytest.raises(ValueError):
        SpectrumEngine(PhysParams.from_saturation(1.0), Configuration(n_hat=(0, 0, 1)))


@pytest.fixture(scope="module")
def engine_s1():
    return SpectrumEngine(PhysParams.from_saturation(1.0), Configuration())


def test_closure_against_stationary_intensities(engine_s1):
    spec = engine_s1.spectrum(points=600)
    ladder, crossed = integrate_spectrum(spec)
    want_ladder, want_crossed = oracle.total_terms(1.0)
    assert ladder == pytest.approx(want_ladder, rel=1e-9)
    assert crossed == pytest.approx(want_crossed, rel=1e-9)
    assert spec.symmetry_defect < 1e-9
    assert spec.ladder_el_weight == pytest.approx(1.0 / 16.0, rel=1e-10)
    assert spec.crossed_el_weight == pytest.approx(1.0 / 16.0, rel=1e-10)


def test_closure_on_plain_grid(engine_s1):
    # independent integration path: uniform grid and spline quadrature
    spec = engine_s1.spectrum(nu_grid=np.linspace(-150.0, 150.0, 2001))
    assert spec.quad_weights is None
    ladder, crossed = integrate_spectrum(spec)
    want_ladder, want_crossed = oracle.total_terms(1.0)
    assert ladder == pytest.approx(want_ladder, rel=1e-5)
    assert crossed == pytest.approx(want_crossed, rel=1e-5)


def test_densities_do_not_depend_on_chunking(engine_s1):
    # a grid that is not a multiple of the sweep chunk, evaluated at once
    # and one frequency per call, must agree bit for bit
    nu = np.linspace(-7.0, 7.0, 2 * SWEEP_CHUNK + 3)
    ladder, crossed = engine_s1.densities(nu)
    single = [engine_s1.densities(nu[i:i + 1]) for i in range(nu.size)]
    assert np.array_equal(ladder, np.concatenate([pair[0] for pair in single]))
    assert np.array_equal(crossed, np.concatenate([pair[1] for pair in single]))


def test_enhancement_from_spectrum(engine_s1):
    spec = engine_s1.spectrum(points=600)
    ladder, crossed = integrate_spectrum(spec)
    assert 1.0 + crossed / ladder == pytest.approx(
        oracle.enhancement_factor(1.0), rel=1e-9
    )


@pytest.mark.xfail(
    strict=True,
    reason="the weak-drive closed form omits relative corrections of first "
    "order in the saturation; at omega = 0.1 they reach 2.3% at line center, "
    "slightly over the 2% target (see the README, Validation battery)",
)
def test_weak_drive_pointwise_two_percent():
    engine = SpectrumEngine(PhysParams(omega=0.1), Configuration())
    nu = np.linspace(0.0, 3.0, 13)
    ladder, crossed = engine.densities(nu)
    want_l, want_c = oracle.weak_field_spectra(nu, 0.1)
    assert np.max(np.abs(ladder / want_l - 1.0)) < 0.02
    assert np.max(np.abs(crossed / want_c - 1.0)) < 0.02


def test_weak_drive_deviation_scales_with_saturation():
    # the pointwise deviation from the closed form is a clean first-order
    # saturation correction: dev / s is constant near 4.5
    ratios = []
    for omega in (0.05, 0.1):
        engine = SpectrumEngine(PhysParams(omega=omega), Configuration())
        nu = np.linspace(0.0, 3.0, 13)
        ladder, crossed = engine.densities(nu)
        want_l, want_c = oracle.weak_field_spectra(nu, omega)
        dev = max(
            np.max(np.abs(ladder / want_l - 1.0)),
            np.max(np.abs(crossed / want_c - 1.0)),
        )
        s = PhysParams(omega=omega).saturation
        ratios.append(dev / s)
    assert 4.0 < ratios[0] < 5.0
    assert 4.0 < ratios[1] < 5.0
    assert ratios[1] == pytest.approx(ratios[0], rel=0.1)
    # and at omega = 0.05 the closed form is already inside 2%
    assert ratios[0] * PhysParams(omega=0.05).saturation < 0.02


def test_weak_drive_crossed_to_ladder_ratio():
    engine = SpectrumEngine(PhysParams(omega=0.1), Configuration())
    nu = np.linspace(0.0, 5.0, 11)
    ladder, crossed = engine.densities(nu)
    assert np.allclose(crossed / ladder, 2.0 / (2.0 + nu**2), rtol=0.02)


def test_grid_coverage_guards():
    nu = np.linspace(-30.0, 30.0, 61)
    spec = SpectrumResult(
        nu=nu,
        ladder_inel=np.exp(-(nu**2)),
        crossed_inel=np.exp(-(nu**2)),
        ladder_el_weight=0.0,
        crossed_el_weight=0.0,
        omega=100.0,
        gamma=1.0,
        delta=0.0,
    )
    with pytest.raises(GridCoverageError):
        integrate_spectrum(spec)
    nu = np.linspace(-25.0, 25.0, 201)
    fat = 1.0 / (1.0 + nu**2)
    spec = SpectrumResult(
        nu=nu,
        ladder_inel=fat,
        crossed_inel=fat,
        ladder_el_weight=0.0,
        crossed_el_weight=0.0,
        omega=1.0,
        gamma=1.0,
        delta=0.0,
    )
    with pytest.raises(GridCoverageError):
        integrate_spectrum(spec)
    # covers +-(2 omega + 20 gamma) with a negligible boundary density, but
    # 9 points leave nothing for the tail fit
    half = np.array([1e4, 3e3, 100.0, 1.0])
    nu = np.concatenate([-half, [0.0], half[::-1]])
    ladder, crossed = oracle.strong_field_spectra(nu, 10.0)
    spec = SpectrumResult(
        nu=nu,
        ladder_inel=ladder,
        crossed_inel=crossed,
        ladder_el_weight=0.0,
        crossed_el_weight=0.0,
        omega=10.0,
        gamma=1.0,
        delta=0.0,
    )
    with pytest.raises(GridCoverageError, match="at least 10 points"):
        integrate_spectrum(spec)


def test_spectrum_result_validation():
    nu = np.linspace(-1.0, 1.0, 11)
    good = np.ones_like(nu)
    with pytest.raises(ValueError):
        SpectrumResult(
            nu=nu[::-1], ladder_inel=good, crossed_inel=good,
            ladder_el_weight=0.0, crossed_el_weight=0.0,
            omega=1.0, gamma=1.0, delta=0.0,
        )
    with pytest.raises(ValueError):
        SpectrumResult(
            nu=nu, ladder_inel=good[:-1], crossed_inel=good,
            ladder_el_weight=0.0, crossed_el_weight=0.0,
            omega=1.0, gamma=1.0, delta=0.0,
        )
    bad = good.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError):
        SpectrumResult(
            nu=nu, ladder_inel=bad, crossed_inel=good,
            ladder_el_weight=0.0, crossed_el_weight=0.0,
            omega=1.0, gamma=1.0, delta=0.0,
        )


def test_default_frequency_grid_properties():
    nu, weights = default_frequency_grid(1.0, points=600)
    assert np.all(np.diff(nu) > 0)
    assert np.allclose(nu, -nu[::-1], atol=1e-12)
    assert np.all(weights > 0)
    # panels span +-1e6; nodes stay inside, weights integrate d(nu) exactly
    assert weights.sum() == pytest.approx(2.0e6, rel=1e-12)
    assert nu.max() > 2.0 * 1.0 + 40.0
    assert len(nu) > 0.9 * 600
    with pytest.raises(ValueError):
        default_frequency_grid(1.0, points=100)


def test_oracle_spectrum_result_integrates_to_closed_totals():
    res = oracle_spectrum_result(100.0, regime="strong")
    ladder, crossed = integrate_spectrum(res)
    eps2 = 1e-4
    assert ladder - res.ladder_el_weight == pytest.approx((14.0 / 3.0) * eps2, rel=1e-7)
    assert crossed - res.crossed_el_weight == pytest.approx((4.0 / 9.0) * eps2, rel=1e-7)

    res = oracle_spectrum_result(0.1, regime="weak")
    ladder, crossed = integrate_spectrum(res)
    drive4 = 0.1**4
    assert ladder - res.ladder_el_weight == pytest.approx((7.0 / 16.0) * drive4, rel=1e-10)
    assert crossed - res.crossed_el_weight == pytest.approx((3.0 / 8.0) * drive4, rel=1e-10)

    with pytest.raises(ValueError):
        oracle_spectrum_result(1.0, regime="banana")
