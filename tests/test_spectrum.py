"""Tests for the spectral densities of the interference signal.

Covers the resolvent contracts, the regression sources, closure of the
integrated spectrum against the stationary intensities, and agreement
with the closed-form weak-drive limit.
"""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
from conftest import apply, dense_sector_blocks, random_pattern_matrix
from scipy import sparse
from scipy.interpolate import InterpolatedUnivariateSpline
from scipy.sparse.csgraph import connected_components

from cbs2 import oracle
from cbs2.generators import (
    EXCITED_LEVELS,
    LIOUVILLE_DIM,
    TRACE_VECTOR,
    exchange_generators,
    free_generator,
    transition_operator,
)
from cbs2.geometry import Configuration, PhysParams
from cbs2.perturbation import (
    DeflatedResolvent,
    build_expansion,
    channels,
    intensity_terms,
    zeroth_steady_state,
)
from cbs2.spectrum import (
    SWEEP_CHUNK,
    GridCoverageError,
    ResolventPoleError,
    SpectrumEngine,
    SpectrumResult,
    _CubicSpline,
    _line_centres,
    default_frequency_grid,
    integrate_spectrum,
    oracle_spectrum_result,
    regression_sources,
)


def sector_indices(matrix):
    """The sector indices of _sector_blocks, one (count, dim) array per
    sector size."""
    return dense_sector_blocks(matrix)[0].index


def random_traceless(rng):
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    return m - np.trace(m) / 16.0 * np.eye(16)


@pytest.fixture(scope="module")
def free_and_rho0():
    free = free_generator(PhysParams.from_saturation(1.0))
    return free, zeroth_steady_state(free)


def resolvent_apply(free, rho0, z, src):
    """(z - L)^-1 src for a traceless 16 x 16 source."""
    x = -DeflatedResolvent(dense_sector_blocks(free), rho0).solve(z, src.reshape(-1))
    return x.reshape(16, 16)


def test_resolvent_residual_and_large_z(free_and_rho0):
    free, rho0 = free_and_rho0
    rng = np.random.default_rng(5)
    src = random_traceless(rng)
    z = 1.0 - 1.0j
    x = resolvent_apply(free, rho0, z, src)
    residual = z * x - apply(free, x) - src
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
        residual = -1j * nu * x - apply(free, x) - src
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
    x = DeflatedResolvent(dense_sector_blocks(free), rho0).solve(z, block)
    assert x.shape == z.shape + block.shape
    for z_f, x_f in zip(np.atleast_1d(z), x.reshape(-1, *block.shape)):
        for col in x_f.T:
            assert abs(TRACE_VECTOR @ col) < 1e-12 * np.linalg.norm(col)
        want = la.solve(free - z_f * np.eye(LIOUVILLE_DIM), block)
        assert np.linalg.norm(x_f - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.filterwarnings("error")
def test_resolvent_pole_for_singular_deflation():
    # the all-zero generator leaves 240 one-dimensional zero sectors: a
    # typed error, and no warning on the way
    null = np.zeros((LIOUVILLE_DIM, LIOUVILLE_DIM), dtype=complex)
    rho0 = np.eye(16, dtype=complex) / 16.0
    src = random_traceless(np.random.default_rng(9))
    with pytest.raises(ResolventPoleError):
        DeflatedResolvent(dense_sector_blocks(null), rho0).solve(0.0, src.reshape(-1))


def test_resolvent_pole_names_the_failing_shift():
    # only the shift at 0 is a pole of the all-zero generator
    null = np.zeros((LIOUVILLE_DIM, LIOUVILLE_DIM), dtype=complex)
    rho0 = np.eye(16, dtype=complex) / 16.0
    src = random_traceless(np.random.default_rng(10)).reshape(-1)
    with pytest.raises(ResolventPoleError, match=r"z = 0j"):
        DeflatedResolvent(dense_sector_blocks(null), rho0).solve(np.array([1.0j, 0.0, -2.0j]), src)


def test_resolvent_leaves_unreached_sectors_at_zero(free_and_rho0):
    # column 0 of B lives on the population sector (made traceless through
    # the population at index 0) and one 12-dimensional coherence sector,
    # column 1 on two other coherence sectors; X matches the dense solve
    # and is exactly 0 everywhere else
    free, rho0 = free_and_rho0
    sectors = sector_indices(free)
    groups = {index.shape[1]: index for index in sectors}
    populations = next(index for group in sectors for index in group if index[0] == 0)
    columns = (
        np.concatenate([populations, groups[12][1]]),
        np.concatenate([groups[12][5], groups[4][2]]),
    )
    rng = np.random.default_rng(11)
    block = np.zeros((LIOUVILLE_DIM, 2), dtype=complex)
    for k, rows in enumerate(columns):
        block[rows, k] = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
    block[0] -= TRACE_VECTOR @ block
    reached = np.concatenate(columns)
    nu = np.array([-1.0, 0.5, 3.0])
    x = DeflatedResolvent(dense_sector_blocks(free), rho0).solve(-1j * nu, block)
    unreached = np.setdiff1d(np.arange(LIOUVILLE_DIM), reached)
    assert np.all(x[:, unreached, :] == 0)
    for nu_f, x_f in zip(nu, x):
        want = la.solve(free + 1j * nu_f * np.eye(LIOUVILLE_DIM), block)
        assert np.linalg.norm(x_f - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.filterwarnings("error")
def test_resolvent_pole_only_in_reached_sectors(free_and_rho0):
    # zeroing the rows and columns of one 12-dimensional coherence sector
    # leaves twelve singular 1 x 1 blocks at z = 0.  solve() factors every
    # sector its resolvent holds, so the whole resolvent refuses any
    # right-hand side, also one that is 0 there; keeping the pole out is the
    # caller's part: restricted to the sectors B reaches, as the expansion
    # and the sweep restrict, it solves as with the healthy generator
    free, rho0 = free_and_rho0
    dead = next(index for index in sector_indices(free) if index.shape[1] == 12)[0]
    matrix = free.copy()
    matrix[dead, :] = 0.0
    matrix[:, dead] = 0.0
    resolvent = DeflatedResolvent(dense_sector_blocks(matrix), rho0)
    src = random_traceless(np.random.default_rng(12)).reshape(-1)
    live = src.copy()
    live[dead] = 0.0
    for rhs in (src, live):
        with pytest.raises(ResolventPoleError):
            resolvent.solve(0.0, rhs)
    reached = resolvent.restricted(np.flatnonzero(live))
    assert not np.isin(dead, reached.rows).any()
    x = np.zeros(LIOUVILLE_DIM, dtype=complex)
    x[reached.rows] = reached.solve(0.0, live[reached.rows])
    want = DeflatedResolvent(dense_sector_blocks(free), rho0).solve(0.0, live)
    assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "z", [0.0, pytest.param(np.array([-2.0j, -0.5j, 0.0, 0.5j, 3.0j]), id="five-shifts")]
)
def test_multi_column_solve_equals_one_column_solves(free_and_rho0, z):
    # a k-column solve gives each column of k one-column solves bit for
    # bit, signed zeros included, also where the columns reach different
    # sectors, as the two first orders of the expansion do: each column
    # keeps its B on the sectors it does not reach
    free, rho0 = free_and_rho0
    v_plus, v_minus = exchange_generators(np.array([0.36, -0.48, 0.8]))
    block = np.stack(
        [
            -(v_plus @ rho0.reshape(-1)),
            -(v_minus @ rho0.reshape(-1)),
            random_traceless(np.random.default_rng(15)).reshape(-1),
        ],
        axis=1,
    )
    assert not np.array_equal(block[:, 0] != 0, block[:, 1] != 0)
    resolvent = DeflatedResolvent(dense_sector_blocks(free), rho0)
    x = resolvent.solve(z, block)
    for k in range(block.shape[1]):
        assert x[..., k].tobytes() == resolvent.solve(z, block[:, k]).tobytes(), k


@pytest.mark.parametrize("shape", ["vector", "block"])
def test_shared_right_hand_side_equals_stacked_copies(free_and_rho0, shape):
    # a B shared by all shifts is checked once and broadcast to them; X
    # equals the solve of its F-fold copy bit for bit, signed zeros included
    free, rho0 = free_and_rho0
    v_plus, v_minus = exchange_generators(np.array([0.36, -0.48, 0.8]))
    block = np.stack(
        [
            -(v_plus @ rho0.reshape(-1)),
            -(v_minus @ rho0.reshape(-1)),
            random_traceless(np.random.default_rng(18)).reshape(-1),
        ],
        axis=1,
    )
    if shape == "vector":
        block = block[:, 0]
    z = -1j * np.array([-2.0, -0.5, 0.0, 0.5, 3.0])
    resolvent = DeflatedResolvent(dense_sector_blocks(free), rho0)
    want = resolvent.solve(z, np.repeat(block.reshape(1, LIOUVILLE_DIM, -1), z.size, axis=0))
    assert resolvent.solve(z, block).tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "bad, z, per_shift",
    [
        (np.nan, 0.0, False),
        (np.inf, 0.5j, False),
        (np.nan, np.array([0.5j, 0.0, -1.0j]), False),
        (np.inf, np.array([0.5j, 0.0, -1.0j]), True),
    ],
    ids=["nan-at-0", "inf-at-0.5j", "nan-shared-by-shifts", "inf-in-one-shift"],
)
def test_resolvent_refuses_non_finite_right_hand_side(free_and_rho0, bad, z, per_shift):
    # named as such before any solve, and with no warning on the way; a
    # pole error would name a wrong cause
    free, rho0 = free_and_rho0
    src = random_traceless(np.random.default_rng(16)).reshape(-1, 1)
    if per_shift:
        src = np.repeat(src[None], z.size, axis=0)
        src[-1, 17] = bad
    else:
        src[17] = bad
    with pytest.raises(ValueError, match="right-hand side has non-finite entries"):
        DeflatedResolvent(dense_sector_blocks(free), rho0).solve(z, src)


def connected_sectors(matrix):
    """The sectors of _sector_blocks as a set of index tuples, straight from
    connected_components on the pattern with the trace row joined."""
    pattern = matrix != 0
    pattern[0] |= TRACE_VECTOR != 0
    _, labels = connected_components(pattern, directed=False)
    return {tuple(np.flatnonzero(labels == c)) for c in np.unique(labels)}


@pytest.mark.parametrize(
    "omega, delta, phi_L",
    [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (1.0, 0.0, 2.5), (1.0, 3.0, 0.4), (100.0, -2.0, 5.0)],
)
def test_cached_sectors_equal_connected_components(omega, delta, phi_L):
    gen = free_generator(PhysParams(omega=omega, delta=delta), phi_L)
    for matrix in (gen, random_pattern_matrix(13), gen):
        sectors = sector_indices(matrix)
        split = {tuple(index) for group in sectors for index in group}
        assert split == connected_sectors(matrix)
        # one (count, dim) group per sector size, in increasing size
        dims = [group.shape[1] for group in sectors]
        assert dims == sorted(set(dims))
        assert sum(group.size for group in sectors) == LIOUVILLE_DIM
        for group in sectors:
            assert not group.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        sector_indices(gen)[0][0, 0] = 1


def test_resolvent_keeps_own_copy_of_generator():
    # the resolvent solves with, and checks its residual against, blocks of
    # L that _sector_blocks filled into arrays of their own: a change to
    # the caller's matrix after the resolvent is built must not reach it
    src = random_traceless(np.random.default_rng(14)).reshape(-1)
    for params in (PhysParams.from_saturation(1.0), PhysParams(omega=2.0, delta=3.0)):
        gen = free_generator(params)
        resolvent = DeflatedResolvent(dense_sector_blocks(gen), zeroth_steady_state(gen))
        want = resolvent.solve(np.array([0.0, 0.5j]), src)
        gen[:] = 7.0
        assert np.array_equal(resolvent.solve(np.array([0.0, 0.5j]), src), want)


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
        assert set(src) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert np.max(np.abs(raw_source(pert, atom, (0, 0)))) == 0.0
        for key, conn in src.items():
            assert abs(np.trace(conn)) < 1e-12
        # subtracting the elastic part changes something at order (1, 1)
        diff = raw_source(pert, atom, (1, 1)) - src[(1, 1)]
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
            (src1[key], src2[key]),
        ):
            mapped = np.exp(-1j * phi) * (rot @ swap_atoms(b) @ rot.conj().T)
            assert np.allclose(a, mapped, atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_regression_sources_reject_nan_order(expansion_pair):
    # a NaN fails every comparison, so a check written as "trace > bound"
    # would let the NaN sources through
    pert, _ = expansion_pair
    broken = pert[(1, 1)].copy()
    broken[3, 5] = np.nan
    spoiled = dataclasses.replace(pert, orders={**pert.orders, (1, 1): broken})
    for atom in (1, 2):
        with pytest.raises(RuntimeError, match=r"connected source \(1,1\) has trace nan"):
            regression_sources(spoiled, atom)


def test_regression_sources_reject_populated_detected_level(expansion_pair):
    # weight moved from the ground to the detected excited level of atom 1
    # in the (0, 0) order would scatter singly into the detected channel
    pert, _ = expansion_pair
    ground = transition_operator(1, 2, "lowering") @ transition_operator(1, 2, "raising")
    tilt = 1e-6 * (transition_operator(1, 2, "projector") - ground)
    tilted = dataclasses.replace(pert, orders={**pert.orders, (0, 0): pert[(0, 0)] + tilt})
    for atom in (1, 2):
        with pytest.raises(RuntimeError, match=r"order \(0, 0\) source"):
            regression_sources(tilted, atom)


def level_3_to_2(atom):
    """1e-9 in every coherence <3|.|2> of the atom: in the column of its
    detected level 2, off the diagonal and off the entries <1|.|2> that
    its mean dipole reads."""
    column = np.ones((16, 16)) @ transition_operator(atom, 2, "projector")
    return 1e-9 * transition_operator(atom, 3, "projector") @ column


@pytest.mark.parametrize("atom", [1, 2])
def test_regression_sources_reject_coherence_read_in_order_01(expansion_pair, atom):
    # weight in the column of the detected level of the atom, which its
    # raising dipole reads, breaks the selection rule that zeroes s01
    pert, _ = expansion_pair
    spoiled = dataclasses.replace(pert, orders={**pert.orders, (0, 1): pert[(0, 1)] + level_3_to_2(atom)})
    with pytest.raises(RuntimeError, match=rf"order \(0, 1\) source of atom {atom} .*rho_01 holds"):
        regression_sources(spoiled, atom)


@pytest.mark.parametrize("atom", [1, 2])
def test_engine_rejects_order_10_source_outside_the_population_sector(monkeypatch, atom):
    # rho_10 s_21 moves the column of the detected level into the ground
    # column; from the rows of level 3 that lands outside the sector of the
    # populations, which stage 1 keeps
    params, cfg = PhysParams(omega=1.0), Configuration()
    pert = build_expansion(params, cfg)
    spoiled = dataclasses.replace(pert, orders={**pert.orders, (1, 0): pert[(1, 0)] + level_3_to_2(atom)})
    monkeypatch.setattr("cbs2.spectrum.build_expansion", lambda *args: spoiled)
    with pytest.raises(RuntimeError, match=r"order \(1, 0\) sources .* outside the population"):
        SpectrumEngine(params, cfg)


#: (omega, delta, phi_L) of the edge grid of the degeneracy check (omega in
#: 0 and 1e-12..1e12 by decades, delta in 0, 1, 1e4, 1e6, phi_L in 0, 0.5,
#: 2.5) at which an engine built when stage 1 was sized by the nonzero
#: entries of its sources: every such point at delta 1e4 and 1e6, and the
#: strongest drives at delta 0
EDGE_ENGINES = (
    [(0.0, delta, phi) for delta in (1e4, 1e6) for phi in (0.0, 0.5, 2.5)]
    + [(1e-12, 1e4, 0.0), (1e-10, 1e4, 0.0), (1e-10, 1e4, 0.5), (1e-9, 1e4, 0.0)]
    + [(1e-8, 1e4, 0.0), (1e-8, 1e4, 2.5), (1e-7, 1e4, 0.0), (1e4, 1e4, 0.5)]
    + [(omega, 1e4, phi) for omega in (100.0, 1e3) for phi in (0.0, 0.5, 2.5)]
    + [(1e-10, 1e6, 0.0), (1e-9, 1e6, 0.0), (1e-8, 1e6, 0.0), (1e4, 1e6, 2.5)]
    + [(1e4, 0.0, phi) for phi in (0.0, 0.5, 2.5)] + [(1e5, 0.0, 0.0), (1e6, 0.0, 0.0)]
)


def test_engines_still_build_on_the_edge_grid():
    # the selection-rule checks refuse none of these points, and stage 1 is
    # the population sector at each driven one (0 sources at omega = 0)
    for omega, delta, phi_L in EDGE_ENGINES:
        engine = SpectrumEngine(PhysParams(omega=omega, delta=delta), Configuration(phi_L=phi_L))
        assert engine._stage1.rows.size == 36 or omega == 0.0, (omega, delta, phi_L)
        assert engine._sources.any() == (omega > 0.0), (omega, delta, phi_L)


@pytest.mark.parametrize("delta", [0.0, 3.0])
@pytest.mark.parametrize("omega", [0.5, 1.0, 100.0])
def test_pair_transforms_match_dense_full_chain(omega, delta):
    # all five terms of the regression chain, the order-(0, 0) ones the
    # engine leaves out included, from dense solves of the 256 x 256
    # deflated system at one random orientation and drive phase
    rng = np.random.default_rng(13)
    n_hat = rng.standard_normal(3)
    cfg = Configuration(n_hat=tuple(n_hat / np.linalg.norm(n_hat)), phi_L=rng.uniform(0, 2 * np.pi))
    params = PhysParams(omega=omega, delta=delta)
    engine = SpectrumEngine(params, cfg)
    pert = engine.pert
    deflated = free_generator(params, cfg.phi_L) + np.outer(
        pert[(0, 0)].reshape(-1), TRACE_VECTOR
    )
    v_plus, v_minus = exchange_generators(cfg.n_hat, params.gamma)
    nu = np.array([0.0, 0.7, -0.7, omega, -omega])
    want = np.empty((nu.size, 2, 2), dtype=complex)
    for f, nu_f in enumerate(nu):
        lu = la.lu_factor(deflated + 1j * nu_f * params.gamma * np.eye(LIOUVILLE_DIM))

        def resolve(x):
            # (z - L)^-1 at z = -i nu, one dense LU per frequency
            return -la.lu_solve(lu, x)

        for a in (1, 2):
            s = {key: src.reshape(-1) for key, src in regression_sources(pert, a).items()}
            total = (
                resolve(s[(1, 1)])
                + resolve(v_plus @ resolve(s[(0, 1)]))
                + resolve(v_minus @ resolve(s[(1, 0)]))
                + resolve(v_minus @ resolve(v_plus @ resolve(s[(0, 0)])))
                + resolve(v_plus @ resolve(v_minus @ resolve(s[(0, 0)])))
            ).reshape(16, 16)
            for b in (1, 2):
                want[f, a - 1, b - 1] = np.trace(transition_operator(b, 2, "lowering") @ total)
    got = engine.pair_transforms(nu)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def csr_apply(op, x):
    """op applied to every column of an F x n x k stack, by the CSR product."""
    f, n, k = x.shape
    return (op @ x.transpose(1, 0, 2).reshape(n, f * k)).reshape(-1, f, k).transpose(1, 0, 2)


def full_two_stage_sweep(engine, nu):
    """pair_transforms on all 256 rows: R (s11 + V- R s10) with the
    engine's sources, s10 on the population sector of the dense generator,
    both stages through the full resolvent, V- as the dense exchange
    generator, functionals on the full vector."""
    pert = engine.pert
    v_minus = exchange_generators(engine.cfg.n_hat, engine.params.gamma)[1]
    z = -1j * nu * engine.params.gamma
    sources = {a: regression_sources(pert, a) for a in (1, 2)}
    populations = sector_closure(free_generator(engine.params, engine.cfg.phi_L), [0])
    s10 = np.stack([sources[a][(1, 0)].reshape(-1) for a in (1, 2)], axis=1)
    stage1 = np.zeros_like(s10)
    stage1[populations] = s10[populations]
    y = -pert.resolvent.solve(z, stage1)
    s11 = np.stack([sources[a][(1, 1)].reshape(-1) for a in (1, 2)], axis=1)
    stage2 = s11 + csr_apply(v_minus, y)
    total = -pert.resolvent.solve(z, stage2)
    functionals = sparse.csr_array(
        np.stack([transition_operator(b, 2, "lowering").T.reshape(-1) for b in (1, 2)])
    )
    return csr_apply(functionals, total).transpose(0, 2, 1)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return tuple(v / np.linalg.norm(v))


ORIENTATIONS = {
    "default": (1.0, 0.0, 0.0),
    "random": _unit(np.random.default_rng(14).standard_normal(3)),
    "in-plane": _unit((np.cos(0.4), np.sin(0.4), 0.0)),
}


@pytest.mark.parametrize("orientation", list(ORIENTATIONS))
@pytest.mark.parametrize("delta", [0.0, 3.0])
@pytest.mark.parametrize("omega", [0.1, 0.25, 0.5, 2.0**-0.5, 1.0, 10.0, 100.0])
def test_pair_transforms_equal_full_two_stage_sweep(omega, delta, orientation):
    # the sweep on the read sectors solves the entries of the full sweep
    # that reach the output bit for bit; its products with V- and the
    # functionals sum over those entries only, so BLAS sums in another
    # order, and the two agree to rounding of each frequency's largest entry
    engine = SpectrumEngine(
        PhysParams(omega=omega, delta=delta),
        Configuration(n_hat=ORIENTATIONS[orientation], phi_L=0.8),
    )
    nu = np.array([0.0, 0.7, -0.7, omega, -omega, 0.5 * omega, 2.0 * omega, 30.0])
    got, want = engine.pair_transforms(nu), full_two_stage_sweep(engine, nu)
    scale = np.max(np.abs(want), axis=(1, 2))
    assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= 4e-15 * scale)


def sector_closure(matrix, rows):
    """Union of the sectors of matrix that hold any of rows."""
    return np.unique(np.concatenate([
        index for group in sector_indices(matrix) for index in group if np.isin(index, rows).any()
    ]))


@pytest.mark.parametrize("orientation", list(ORIENTATIONS))
def test_engine_reads_the_sector_closure_of_the_functionals(orientation):
    params = PhysParams(omega=1.0)
    engine = SpectrumEngine(params, Configuration(n_hat=ORIENTATIONS[orientation]))
    support = np.flatnonzero(np.any(
        [transition_operator(b, 2, "lowering").T.reshape(-1) != 0 for b in (1, 2)], axis=0
    ))
    matrix = free_generator(params)
    assert np.array_equal(engine._read.rows, sector_closure(matrix, support))
    # for the driven pair: two 12-dimensional sectors; stage 1 adds the
    # 36-dimensional population sector
    assert engine._read.rows.size == 24
    assert engine._stage1.rows.size == 36
    assert np.array_equal(engine._stage1.rows, sector_closure(matrix, engine._stage1.rows))


def selection_rule_points():
    """Seeded (params, cfg): omega log-uniform over 1e-3..1e3 with the
    exceptional points 0.5 and 1, every other point detuned by |delta| in
    1e-2..1e2, random drive phases and orientations."""
    rng = np.random.default_rng(20261020)
    omegas = np.concatenate([[0.5, 1.0], 10.0 ** rng.uniform(-3.0, 3.0, 38)])
    points = []
    for k, omega in enumerate(omegas):
        delta = 0.0 if k % 2 == 0 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 2.0)
        n_hat = _unit(rng.standard_normal(3))
        cfg = Configuration(n_hat=n_hat, phi_L=rng.uniform(0.0, 2.0 * np.pi))
        params = PhysParams(omega=float(omega), delta=float(delta))
        points.append(pytest.param(params, cfg, id=f"omega={omega:.3g}-delta={delta:.3g}"))
    return points


@pytest.mark.parametrize("params, cfg", selection_rule_points())
def test_stage1_sources_lie_where_v_reaches_the_read_sectors(params, cfg):
    # the selection rule that lets the engine take stage 1 on the
    # population sector: s01 lies in the sectors that V+ maps into the read
    # sectors, s10 in those that V- maps there, both from the dense
    # generators; a source may have no nonzero entry at all; stage 1 is the
    # 36-dimensional sector of index 0 at every driven point
    engine = SpectrumEngine(params, cfg)
    matrix = free_generator(params, cfg.phi_L)
    read = engine._read.rows
    assert np.array_equal(read, sector_closure(matrix, read))
    allowed = []
    for v, key in zip(exchange_generators(cfg.n_hat, params.gamma), ((0, 1), (1, 0))):
        reached = sector_closure(matrix, np.flatnonzero(np.any(v[read] != 0, axis=0)))
        outside = np.setdiff1d(np.arange(LIOUVILLE_DIM), reached)
        for atom in (1, 2):
            source = regression_sources(engine.pert, atom)[key].reshape(-1)
            assert not np.any(source[outside]), (key, atom)
        allowed.append(reached)
    assert np.isin(engine._stage1.rows, np.concatenate(allowed)).all()
    assert engine._stage1.rows.size == 36
    assert np.array_equal(engine._stage1.rows, sector_closure(matrix, [0]))


def test_engine_set_up_allocates_no_256_by_256_array():
    # one complex 256 x 256 array is 1 MiB; after warm-up an engine's set-up,
    # its expansion included, stays below that
    params, cfg = PhysParams(omega=3.0), Configuration(n_hat=ORIENTATIONS["random"], phi_L=0.8)
    SpectrumEngine(params, cfg)
    tracemalloc.start()
    try:
        SpectrumEngine(params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < LIOUVILLE_DIM * LIOUVILLE_DIM * 16


def test_restricted_resolvent_equals_full_solve_on_kept_sectors(free_and_rho0):
    # a right-hand side on the population sector and one 12-dimensional
    # sector: the restricted solve gives the kept entries of the full one
    free, rho0 = free_and_rho0
    full = DeflatedResolvent(dense_sector_blocks(free), rho0)
    sectors = sector_indices(free)
    populations = next(index for group in sectors for index in group if index[0] == 0)
    coherences = next(group for group in sectors if group.shape[1] == 12)[3]
    rows = np.concatenate([populations, coherences])
    rng = np.random.default_rng(15)
    block = np.zeros((LIOUVILLE_DIM, 3), dtype=complex)
    block[rows] = rng.standard_normal((rows.size, 3)) + 1j * rng.standard_normal((rows.size, 3))
    block[0] -= TRACE_VECTOR @ block
    z = -1j * np.array([-2.0, 0.0, 0.5])
    restricted = full.restricted(rows[[0, -1]])
    assert np.array_equal(restricted.rows, np.sort(rows))
    x = restricted.solve(z, block[restricted.rows])
    assert np.array_equal(x, full.solve(z, block)[:, restricted.rows])


def test_restricted_to_no_rows_solves_nothing(free_and_rho0):
    free, rho0 = free_and_rho0
    empty = DeflatedResolvent(dense_sector_blocks(free), rho0).restricted([])
    assert empty.rows.shape == (0,)
    assert empty.solve(-1j * np.array([-2.0, 0.0, 0.5]), np.zeros((0, 4))).shape == (3, 0, 4)
    assert empty.solve(0.0, np.zeros(0)).shape == (0,)


def test_restricted_resolvent_refuses_traced_right_hand_side(free_and_rho0):
    free, rho0 = free_and_rho0
    restricted = DeflatedResolvent(dense_sector_blocks(free), rho0).restricted([0])
    src = np.random.default_rng(16).standard_normal(restricted.rows.size) + 0j
    assert abs(TRACE_VECTOR[restricted.rows] @ src) > 1e-3
    with pytest.raises(ValueError, match="traceless"):
        restricted.solve(-0.5j, src)


@pytest.mark.filterwarnings("error")
def test_restricted_resolvent_pole_in_kept_sector(free_and_rho0):
    # zeroing a 12-dimensional coherence sector, as above, leaves twelve
    # singular 1 x 1 sectors at z = 0: a resolvent restricted to one of
    # them and a live sector raises there, and solves off the pole
    free, rho0 = free_and_rho0
    group = next(index for index in sector_indices(free) if index.shape[1] == 12)
    dead, live = group[0], group[1]
    matrix = free.copy()
    matrix[dead, :] = 0.0
    matrix[:, dead] = 0.0
    restricted = DeflatedResolvent(dense_sector_blocks(matrix), rho0).restricted([dead[0], live[0]])
    src = random_traceless(np.random.default_rng(17)).reshape(-1)[restricted.rows]
    with pytest.raises(ResolventPoleError):
        restricted.solve(0.0, src)
    assert np.all(np.isfinite(restricted.solve(-1.0j, src)))


def test_engine_rejects_degenerate_orientation():
    with pytest.raises(ValueError):
        SpectrumEngine(PhysParams.from_saturation(1.0), Configuration(n_hat=(0, 0, 1)))


def test_engine_refuses_the_order_that_intensity_terms_refuses():
    # at large detuning order (1, 1) fails its Hermiticity check; the engine
    # builds its (1, 1) sources from that order, so it must refuse it too
    # rather than return densities with a few good digits
    params = PhysParams(omega=1.0, delta=1e4)
    cfg = Configuration(n_hat=(0.36, -0.48, 0.8), phi_L=0.3)
    with pytest.raises(RuntimeError, match=r"order \(1, 1\) is not Hermitian"):
        intensity_terms(build_expansion(params, cfg), cfg)
    with pytest.raises(RuntimeError, match=r"order \(1, 1\) is not Hermitian"):
        SpectrumEngine(params, cfg)


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


@pytest.fixture(scope="module")
def plain_grid_spectrum(engine_s1):
    # the densities on a uniform grid, without quadrature weights
    nu = np.linspace(-150.0, 150.0, 2001)
    ladder, crossed = engine_s1.densities(nu)
    return SpectrumResult(
        nu=nu, ladder_inel=ladder, crossed_inel=crossed,
        ladder_el_weight=0.0, crossed_el_weight=0.0,
        omega=engine_s1.params.omega, gamma=1.0, delta=0.0,
    )


# the spectra of the validate battery on their 2000-point default grids, and
# the uniform grid of plain_grid_spectrum (None)
SPLINE_GRIDS = pytest.mark.parametrize(
    "omega", [0.1, 1.0, 10.0, 100.0, None],
    ids=["omega-0.1", "omega-1", "omega-10", "omega-100", "uniform"],
)


@SPLINE_GRIDS
@pytest.mark.parametrize("which", ["ladder_inel", "crossed_inel"])
def test_spline_values_match_fitpack(suite, plain_grid_spectrum, omega, which):
    spec = plain_grid_spectrum if omega is None else suite.spectrum(omega)
    nu, density = spec.nu, getattr(spec, which)
    # the nodes and three points inside every interval
    inner = nu[:-1, None] + np.diff(nu)[:, None] * np.array([0.25, 0.5, 0.75])
    sample = np.concatenate([nu, inner.ravel()])
    want = InterpolatedUnivariateSpline(nu, density, k=3)(sample)
    got = _CubicSpline(nu, density)(sample)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(density))


@pytest.mark.parametrize("points", [4, 5, 9])
def test_spline_reproduces_a_cubic(points):
    # the not-a-knot interpolant of a cubic is that cubic; on 4 points it is
    # the one cubic through them
    nu = np.sort(np.random.default_rng(points).uniform(-3.0, 3.0, points))
    cubic = np.polynomial.Polynomial([0.3, -1.2, 0.7, 0.45])
    spline = _CubicSpline(nu, cubic(nu))
    t = np.linspace(nu[0], nu[-1], 101)
    assert np.max(np.abs(spline(t) - cubic(t))) <= 1e-12


def test_densities_do_not_depend_on_chunking(engine_s1):
    # a grid that is not a multiple of the sweep chunk, evaluated at once
    # and one frequency per call, must agree bit for bit
    nu = np.linspace(-7.0, 7.0, 2 * SWEEP_CHUNK + 3)
    ladder, crossed = engine_s1.densities(nu)
    single = [engine_s1.densities(nu[i:i + 1]) for i in range(nu.size)]
    assert np.array_equal(ladder, np.concatenate([pair[0] for pair in single]))
    assert np.array_equal(crossed, np.concatenate([pair[1] for pair in single]))


@pytest.mark.parametrize(
    "grid", [0.5, np.zeros((2, 3)), [[0.1], [0.2]]], ids=["0-d", "2x3", "2x1"]
)
def test_densities_refuse_a_grid_that_is_not_1d(engine_s1, grid):
    shape = np.shape(grid)
    with pytest.raises(ValueError, match=rf"1-d array, got shape {re.escape(str(shape))}"):
        engine_s1.densities(grid)


def test_densities_on_an_empty_grid(engine_s1):
    ladder, crossed = engine_s1.densities([])
    assert ladder.shape == crossed.shape == (0,)
    p = engine_s1.pair_transforms(np.array([]))
    assert p.shape == (0, 2, 2) and p.dtype == complex


def test_undriven_engine_gives_zero_densities():
    # no drive, no fluorescence: intensity_terms is all zeros there, and so
    # are the densities and the integrated spectrum
    params, cfg = PhysParams(omega=0.0), Configuration()
    terms = intensity_terms(build_expansion(params, cfg), cfg)
    assert terms.ladder_total == terms.crossed_total == 0.0
    engine = SpectrumEngine(params, cfg)
    ladder, crossed = engine.densities(np.linspace(-5.0, 5.0, 41))
    assert not ladder.any() and not crossed.any()
    assert integrate_spectrum(engine.spectrum()) == (0.0, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_engine_refuses_non_finite_frequency(bad):
    # named as such before any solve, with no warning on the way; a pole
    # error would name a wrong cause
    engine = SpectrumEngine(PhysParams(omega=1.0), Configuration())
    with pytest.raises(ValueError, match="shift must be finite"):
        engine.densities([0.5, bad])


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
    # integration needs the weights of default_frequency_grid, and a cubic
    # interpolant needs 4 nodes
    nu = np.linspace(-300.0, 300.0, 601)
    ladder, crossed = oracle.strong_field_spectra(nu, 100.0)
    spec = SpectrumResult(
        nu=nu,
        ladder_inel=ladder,
        crossed_inel=crossed,
        ladder_el_weight=0.0,
        crossed_el_weight=0.0,
        omega=100.0,
        gamma=1.0,
        delta=0.0,
    )
    with pytest.raises(GridCoverageError, match="no quadrature weights"):
        integrate_spectrum(spec)
    for points in (2, 3):
        nu = np.linspace(-100.0, 100.0, points)
        with pytest.raises(GridCoverageError, match="cubic interpolant needs a grid of at least 4 points"):
            _CubicSpline(nu, np.ones(points))


def test_spectrum_result_validation():
    nu = np.linspace(-1.0, 1.0, 11)
    good = np.ones_like(nu)
    with pytest.raises(ValueError, match="at least 2 points"):
        SpectrumResult(
            nu=nu[:1], ladder_inel=good[:1], crossed_inel=good[:1],
            ladder_el_weight=0.0, crossed_el_weight=0.0,
            omega=1.0, gamma=1.0, delta=0.0,
        )
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
    # the scalars and the optional arrays: a NaN omega or gamma would pass
    # the grid-coverage and window checks, a NaN weight give a NaN total
    base = dict(
        nu=nu, ladder_inel=good, crossed_inel=good,
        ladder_el_weight=0.0, crossed_el_weight=0.0,
        omega=1.0, gamma=1.0, delta=0.0,
    )
    SpectrumResult(**base, quad_weights=np.full_like(nu, 0.2), symmetry_defect=1e-8)
    for change in (
        {"omega": np.nan}, {"gamma": np.nan}, {"delta": np.inf},
        {"omega": -1.0}, {"gamma": 0.0},
        {"ladder_el_weight": np.nan}, {"crossed_el_weight": -np.inf},
        {"quad_weights": np.full(nu.size - 1, 0.2)},
        {"quad_weights": np.where(nu > 0, np.nan, 0.2)},
        {"symmetry_defect": np.nan}, {"symmetry_defect": -1e-3},
    ):
        with pytest.raises(ValueError):
            SpectrumResult(**{**base, **change})
    # a spectrum without quadrature weights cannot be integrated
    nu = np.linspace(-30.0, 30.0, 601)
    ladder, crossed = oracle.weak_field_spectra(nu, 0.1)
    base.update(nu=nu, ladder_inel=ladder, crossed_inel=crossed, omega=100.0)
    with pytest.raises(GridCoverageError):
        integrate_spectrum(SpectrumResult(**base))
    for change in ({"omega": np.nan}, {"gamma": np.nan}):
        with pytest.raises(ValueError, match="must be finite"):
            SpectrumResult(**{**base, **change})


def test_default_frequency_grid_properties():
    # mirrored, strictly increasing and positively weighted at every drive,
    # with `points` nodes but for the rounding of the nodes per segment
    for points in (600, 2000, 8000):
        for omega, delta in (
            (0.0, 0.0), (1e-12, 0.0), (1e-9, 1e6), (0.1, 0.0), (1.0, 0.0),
            (100.0, 0.0), (1e4, 0.0), (10.0, 100.0), (100.0, 300.0), (1.0, -10.0),
        ):
            nu, weights = default_frequency_grid(omega, points=points, delta=delta)
            assert np.all(np.diff(nu) > 0) and np.all(weights > 0)
            assert np.array_equal(nu, -nu[::-1]) and np.array_equal(weights, weights[::-1])
            assert abs(nu.size - points) <= 0.02 * points
    # the clusters of the pair's lines: on resonance 0, Omega/2, ..., 2 Omega;
    # lines less than TAN_WIDTH apart are one cluster
    assert _line_centres(100.0, 0.0) == [0.0, 50.0, 100.0, 150.0, 200.0]
    assert _line_centres(1.0, 0.0) == [0.0]
    # the weights integrate over the whole line: 1/(1 + nu^2), and a unit
    # Lorentzian at every cluster centre
    for omega, delta in (
        (0.0, 0.0), (0.1, 0.0), (1.0, 0.0), (10.0, 0.0), (100.0, 0.0),
        (0.3, 1.0), (1.0, 10.0), (10.0, 30.0), (10.0, 100.0),
    ):
        nu, weights = default_frequency_grid(omega, delta=delta)
        assert weights @ (1.0 / (1.0 + nu**2)) == pytest.approx(np.pi, rel=1e-12)
        for centre in _line_centres(omega, delta):
            lorentzian = oracle.lineshape(1.0, nu - centre)
            assert weights @ lorentzian == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        default_frequency_grid(1.0, points=100)
    for omega, gamma in ((np.nan, 1.0), (np.inf, 1.0), (1.0, 0.0), (-5.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="omega|gamma"):
            default_frequency_grid(omega, gamma)
    with pytest.raises(ValueError, match="delta"):
        default_frequency_grid(1.0, delta=np.nan)


def test_spectrum_refuses_a_grid_that_misses_its_closure():
    # on 2000 nodes the segments between the lines at omega = 1e4 and 6e5
    # are too wide: the quadrature misses the algebraic totals by about
    # 3e-6 and 8e-6, past CLOSURE_TOL, and spectrum() names the miss
    engine = SpectrumEngine(PhysParams(omega=1e4), Configuration())
    for call in (engine.spectrum,
                 SpectrumEngine(PhysParams(omega=6e5), Configuration()).spectrum):
        with pytest.raises(GridCoverageError, match=r"2000-node grid's \w+ total misses"):
            call()
    spec = engine.spectrum(points=8000)
    assert spec.nu.size == 8000
    # the closed-form spectrum needs no engine and is built on the same grid
    assert oracle_spectrum_result(6e5).nu.size == 2000


@pytest.mark.parametrize(
    "omega,delta,tol",
    [(10.0, 100.0, 1e-9), (10.0, 30.0, 1e-9), (100.0, 300.0, 1e-9), (1e3, 0.0, 1e-10)],
)
def test_default_grid_closes_detuned_and_strong_spectra(omega, delta, tol):
    # the grid sits on the lines of the detuned drive: at (10, 100) one
    # built on the resonant lines misses the ladder total by 1.1 times it
    params, cfg = PhysParams(omega=omega, delta=delta), Configuration()
    engine = SpectrumEngine(params, cfg)
    terms = intensity_terms(engine.pert, cfg).normalized()
    totals = integrate_spectrum(engine.spectrum())
    for got, want in zip(totals, (terms.ladder_total, terms.crossed_total)):
        assert abs(got - want) <= tol * abs(want)


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


def test_densities_are_the_channels_of_the_pair_transforms():
    # one sweep chunk, so both read the same resolvent calls
    engine = SpectrumEngine(PhysParams(omega=3.0), Configuration(phi_L=0.9))
    nu = np.linspace(-10.0, 10.0, SWEEP_CHUNK)
    scale = engine.params.gamma / (np.pi * engine.cfg.geometry_weight)
    want = channels(engine.pair_transforms(nu), engine.cfg.phi_L)
    for got, expected in zip(engine.densities(nu), want):
        assert got.tobytes() == (scale * expected).tobytes()
