"""Tests for the perturbative steady-state expansion in the exchange coupling."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import (
    EDGE_GRID,
    apply,
    dense_sector_blocks,
    gathered_blocks,
    partial_trace,
    random_pattern_matrix,
)

from cbs2 import generators, oracle, perturbation
from cbs2.generators import (
    HILBERT_DIM,
    LIOUVILLE_DIM,
    OperatorEntries,
    exchange_entries,
    exchange_generators,
    free_entries,
    free_generator,
    transition_operator,
)
from cbs2.geometry import Configuration, PhysParams
from cbs2.perturbation import (
    DeflatedResolvent,
    DegeneracyError,
    IntensityTerms,
    _block_plan,
    _sector_blocks,
    _steady_state,
    _trace_row_solve,
    build_expansion,
    checked_geometry_weight,
    intensity_terms,
    mean_dipole_orders,
    nonperturbative_intensity,
    numeric_enhancement,
    perturbative_corrections,
    zeroth_steady_state,
)
from cbs2.spectrum import SpectrumEngine

ALL_ORDERS = ((0, 0), (1, 0), (0, 1), (1, 1))

#: The caches of structure, each bounded and keyed on content.
STRUCTURE_CACHES = (
    generators._row_layout,
    perturbation._block_plan,
    perturbation._restricted_sectors,
)

#: Probe frequencies of an engine, in units of omega: the resonances.
PROBE_MULTIPLES = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])

# independently computed reference intensities at s = 1, default
# orientation (weight 1/4), frozen from two disagreement-free routes
LADDER_RAW_S1 = 0.05500120948234152
CROSSED_RAW_S1 = 0.04178761490082243


def single_atom_steady_state(params, phase=0.0):
    """Stationary state of one driven atom, solved from scratch."""

    def unit(k, l):
        m = np.zeros((4, 4), dtype=complex)
        m[k - 1, l - 1] = 1.0
        return m

    eye = np.eye(4)
    ham = params.delta * (unit(2, 2) + unit(3, 3) + unit(4, 4))
    drive = params.omega * np.exp(1j * phase)
    ham -= 0.5 * (drive * unit(4, 1) + np.conj(drive) * unit(1, 4))
    mat = 1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    for level in (2, 3, 4):
        lower = unit(1, level)
        proj = unit(level, level)
        mat += 2.0 * params.gamma * np.kron(lower, lower.conj())
        mat -= params.gamma * (np.kron(proj, eye) + np.kron(eye, proj.T))
    _, _, vh = np.linalg.svd(mat)
    rho = vh[-1].conj().reshape(4, 4)
    return rho / np.trace(rho)


def test_zeroth_order_is_product_of_driven_atoms():
    phi = 0.8
    for s in (0.5, 4.0):
        params = PhysParams.from_saturation(s)
        rho0 = zeroth_steady_state(free_generator(params, phi_L=phi))
        want = np.kron(
            single_atom_steady_state(params),
            single_atom_steady_state(params, phase=phi),
        )
        assert np.allclose(rho0, want, atol=1e-10)
        assert abs(np.trace(rho0) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho0).min() > -1e-12


def test_zeroth_order_populations():
    params = PhysParams.from_saturation(1.0)
    rho0 = zeroth_steady_state(free_generator(params))
    for atom in (1, 2):
        reduced = partial_trace(rho0, atom)
        assert abs(reduced[3, 3] - 0.25) < 1e-12  # s/(2(1+s)) at s = 1
        assert abs(reduced[1, 1]) < 1e-14
        assert abs(reduced[2, 2]) < 1e-14


@pytest.mark.parametrize(
    "omega,phi_L,delta",
    [(omega, phi_L, 0.0) for omega in (0.1, 0.25, 0.5, 2.0**-0.5, 1.0, 10.0, 100.0)
     for phi_L in (0.0, 1.7)] + [(1.0, 0.0, 2.5)],
)
def test_zeroth_order_matches_dense_trace_row_solve(omega, phi_L, delta):
    # the sector-restricted solve against the trace-row solve of the whole
    # 256 x 256 system; Omega = gamma/2 and gamma are exceptional points
    gen = free_generator(PhysParams(omega=omega, delta=delta), phi_L)
    want = _trace_row_solve(gen).reshape(HILBERT_DIM, HILBERT_DIM)
    want = 0.5 * (want + want.conj().T)
    got = zeroth_steady_state(gen)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_zeroth_order_degeneracy_guard():
    null_gen = np.zeros((LIOUVILLE_DIM, LIOUVILLE_DIM), dtype=complex)
    # a second stationary direction outside the population sector: every
    # state with atom 1 in the coherence |2><3| is made stationary
    coherence = [16 * (4 + i2) + 8 + j2 for i2 in range(4) for j2 in range(4)]
    matrix = free_generator(PhysParams(omega=1.0)).copy()
    matrix[coherence, :] = 0.0
    matrix[:, coherence] = 0.0
    for gen in (null_gen, matrix):
        with pytest.raises(DegeneracyError, match="of generator is degenerate"):
            zeroth_steady_state(gen)


#: The edge-grid points (omega, delta, phi_L) that the pair's degeneracy
#: check refuses and the atoms' check passes, so that build_expansion
#: refuses them on the steady state's residual check instead; at omega =
#: 1e8 both causes are wrong
RESIDUAL_NOT_DEGENERACY = {(1e8, delta, phi_L) for delta in (1e4, 1e6) for phi_L in (0.0, 0.5, 2.5)}


def outcome(call):
    """The bytes of each order of call()'s PerturbativeState, or the type
    and message of its error."""
    try:
        return [state.tobytes() for state in call().orders.values()]
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


def test_expansion_decides_like_the_pair_on_the_edge_grid():
    # build_expansion, which decides the steady state's degeneracy on the
    # two atoms, against the pair reference on the dense generators: every
    # point the reference accepts gives the same orders bit for bit, and
    # every refusal is the reference's, a DegeneracyError naming an atom,
    # but at RESIDUAL_NOT_DEGENERACY
    kinds = set()
    for omega, delta, phi_L in EDGE_GRID:
        params, cfg = PhysParams(omega=omega, delta=delta), Configuration(phi_L=phi_L)

        def reference():
            free = free_generator(params, phi_L)
            v_plus, v_minus = exchange_generators(cfg.n_hat, params.gamma)
            return perturbative_corrections(free, v_plus, v_minus, zeroth_steady_state(free))

        got, want = outcome(lambda: build_expansion(params, cfg)), outcome(reference)
        point = (omega, delta, phi_L)
        if point in RESIDUAL_NOT_DEGENERACY:
            assert want[0] is DegeneracyError, point
            assert got[0] is RuntimeError and got[1].startswith("steady-state residual"), point
            kinds.add("residual")
        elif isinstance(want, tuple) and want[0] is DegeneracyError:
            assert got[0] is DegeneracyError and "of atom " in got[1], point
            kinds.add("degenerate")
        else:
            assert got == want, point
            kinds.add("accepted" if isinstance(want, list) else "refused")
    assert kinds >= {"accepted", "degenerate", "residual"}


def test_degeneracy_error_names_the_generator_it_decided_on():
    # the figures of the pair's check, on the generator decided on; the
    # zero generator of test_zeroth_order_degeneracy_guard names the pair
    atom_1_message = r"of atom 1 is degenerate .* 1\.000e\+00 vs scale 1\.000e\+10"
    with pytest.raises(DegeneracyError, match=atom_1_message):
        build_expansion(PhysParams(omega=1e10), Configuration())
    entries = free_entries(PhysParams(omega=1.0), 0.0)
    atom_1, _ = generators.atom_blocks(entries)
    with pytest.raises(DegeneracyError, match="of atom 2 is degenerate"):
        _steady_state(_sector_blocks(entries), {"atom 1": [atom_1], "atom 2": [0 * atom_1]})


def enhancement_draw():
    """CI's 500 seeded build_expansion + intensity_terms points."""
    rng = np.random.default_rng(20261019)
    points = []
    while len(points) < 500:
        n_hat = rng.standard_normal(3)
        n_hat /= np.linalg.norm(n_hat)
        phi_L = rng.uniform(0.0, 2.0 * np.pi)
        s = 10.0 ** rng.uniform(-3.0, 3.0)
        if 0.25 * (n_hat[0] ** 2 + n_hat[1] ** 2) ** 2 >= 1e-6:
            points.append((PhysParams.from_saturation(s), Configuration(n_hat=n_hat, phi_L=phi_L)))
    return points


def engine_draw():
    """CI's 150 seeded SpectrumEngine + 7 probe frequencies points."""
    rng = np.random.default_rng(20261020)
    return [
        (PhysParams(omega=10.0 ** rng.uniform(-1.0, 2.0)),
         Configuration(phi_L=rng.uniform(0.0, 2.0 * np.pi)))
        for _ in range(150)
    ]


def test_working_range_takes_two_atom_svds(monkeypatch):
    # every fifth point of CI's enhancement and engine draws, and the
    # acceptance drives with the exceptional points omega = 0.5 and 1: each
    # expansion decides its steady state on one 16 x 16 SVD per atom and
    # takes no other SVD
    svd, shapes = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(perturbation.np.linalg, "svd", counted)
    engines = engine_draw()[::5] + [(PhysParams(omega=w), Configuration()) for w in (0.1, 0.5, 1.0, 10.0, 100.0)]
    items = [lambda p=p, c=c: intensity_terms(build_expansion(p, c), c) for p, c in enhancement_draw()[::5]]
    items += [lambda p=p, c=c: SpectrumEngine(p, c).densities(p.omega * PROBE_MULTIPLES) for p, c in engines]
    for item in items:
        shapes.clear()
        item()
        assert shapes == [(16, 16)] * 2


@pytest.mark.parametrize("entry", [(5, 5), (17, 17), (17, 0)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_zeroth_order_refuses_non_finite_generator(bad, entry):
    # (5, 5) lies in a coherence sector, outside the solve; (17, 17) and
    # (17, 0) lie in the population sector that the solve uses
    gen = free_generator(PhysParams(omega=1.0))
    gen[entry] = bad
    with pytest.raises(ValueError, match="non-finite"):
        zeroth_steady_state(gen)


def test_traceless_solver_contract():
    rng = np.random.default_rng(11)
    params = PhysParams.from_saturation(1.0)
    free = free_generator(params)
    rho0 = zeroth_steady_state(free)
    solver = DeflatedResolvent(dense_sector_blocks(free), rho0)
    for _ in range(5):
        rhs = rng.standard_normal((HILBERT_DIM, HILBERT_DIM)) + 1j * rng.standard_normal(
            (HILBERT_DIM, HILBERT_DIM)
        )
        rhs -= np.trace(rhs) / HILBERT_DIM * np.eye(HILBERT_DIM)
        x = solver.solve(0.0, rhs.reshape(-1)).reshape(HILBERT_DIM, HILBERT_DIM)
        assert abs(np.trace(x)) < 1e-10
        residual = apply(free, x) - rhs
        assert np.max(np.abs(residual)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize(
    "n_hat", [(1.0, 0.0, 0.0), (0.36, -0.48, 0.8)], ids=["x-axis", "oblique"]
)
@pytest.mark.parametrize("phi_L", [0.0, 1.7])
@pytest.mark.parametrize("delta", [0.0, 3.0])
@pytest.mark.parametrize("omega", [0.5, 1.0, 10.0])
def test_build_expansion_equals_public_constituents(omega, delta, phi_L, n_hat):
    # omega = 0.5 and 1 are the exceptional points Omega = gamma/2 and
    # Omega = gamma.  build_expansion fills the sector blocks of the free
    # generator once, through one lookup of the block plan, and shares them
    # between steady state and resolvent; the public calls split the dense
    # generator once each.  Every order agrees bit for bit.
    params = PhysParams(omega=omega, delta=delta)
    cfg = Configuration(n_hat=np.array(n_hat), phi_L=phi_L)
    before = _block_plan.cache_info()
    pert = build_expansion(params, cfg)
    after = _block_plan.cache_info()
    assert (after.hits + after.misses) - (before.hits + before.misses) == 1
    free = free_generator(params, phi_L)
    v_plus, v_minus = exchange_generators(cfg.n_hat, params.gamma)
    want = perturbative_corrections(free, v_plus, v_minus, zeroth_steady_state(free))
    assert pert.orders.keys() == want.orders.keys()
    for key, state in want.orders.items():
        assert pert[key].tobytes() == state.tobytes(), key


def assert_blocks_equal_gather(groups, matrix):
    sectors, blocks = groups
    assert sum(index.size for index in sectors.index) == LIOUVILLE_DIM
    for index, stack in zip(sectors.index, blocks, strict=True):
        assert stack.tobytes() == gathered_blocks(matrix, index).tobytes()


@pytest.mark.parametrize("phi_L", [0.0, 2.5])
@pytest.mark.parametrize("delta", [0.0, 3.0])
@pytest.mark.parametrize("omega", [0.0, 1e-3, 1.0, 100.0])
def test_free_blocks_equal_dense_sector_blocks(omega, delta, phi_L):
    # the blocks scattered from the entries of the free generator hold what
    # a gather from the dense generator holds, bit for bit; the grid reaches
    # every nonzero pattern of the entries that the plan is keyed on
    params = PhysParams(omega=omega, delta=delta)
    blocks = _sector_blocks(free_entries(params, phi_L))
    assert_blocks_equal_gather(blocks, free_generator(params, phi_L))


def test_sector_blocks_of_a_random_pattern_equal_dense_gather():
    matrix = random_pattern_matrix(13)
    assert_blocks_equal_gather(dense_sector_blocks(matrix), matrix)


@pytest.mark.parametrize(
    "n_hat", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.36, -0.48, 0.8)], ids=["x", "z", "oblique"]
)
def test_exchange_entries_apply_like_the_dense_generators(n_hat):
    rng = np.random.default_rng(17)
    dense = exchange_generators(np.array(n_hat), gamma=1.3)
    entries = exchange_entries(np.array(n_hat), gamma=1.3)
    x = rng.standard_normal((LIOUVILLE_DIM, 2)) + 1j * rng.standard_normal((LIOUVILLE_DIM, 2))
    rows, cols = rng.permutation(LIOUVILLE_DIM)[:24], np.sort(rng.permutation(LIOUVILLE_DIM)[:60])
    for v, op in zip(dense, entries):
        # the same entries as the dense array, from either form
        from_dense = OperatorEntries.from_dense(v)
        for name in ("values", "rows", "cols"):
            assert np.array_equal(getattr(op, name), getattr(from_dense, name))
        assert np.array_equal(v[op.rows, op.cols], op.values)
        assert np.count_nonzero(v) == op.values.size
        # a gather and a sum per row against the BLAS product: both sum
        # the same products, in another order
        bound = 4 * np.finfo(float).eps * (np.abs(v) @ np.abs(x))
        for column in (slice(None), 0):
            got, want = op.apply(x[:, column]), v @ x[:, column]
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= bound[:, column])
        assert np.array_equal(op.block(rows, cols), v[np.ix_(rows, cols)])


def test_operator_entries_of_an_empty_operator():
    op = OperatorEntries.from_dense(np.zeros((LIOUVILLE_DIM, LIOUVILLE_DIM)))
    x = np.ones((LIOUVILLE_DIM, 3), dtype=complex)
    assert np.array_equal(op.apply(x), np.zeros_like(x))
    with pytest.raises(ValueError, match="256 x 256"):
        OperatorEntries.from_dense(np.zeros((16, 16)))


def test_build_expansion_allocates_no_256_by_256_array(monkeypatch):
    # one complex 256 x 256 array is 1 MiB; after warm-up (cached bases and
    # block plan) an expansion and its intensities stay below that
    params = PhysParams(omega=1.0, delta=0.3)
    cfg = Configuration(n_hat=(0.36, -0.48, 0.8), phi_L=0.7)
    intensity_terms(build_expansion(params, cfg), cfg)
    tracemalloc.start()
    try:
        intensity_terms(build_expansion(params, cfg), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < LIOUVILLE_DIM * LIOUVILLE_DIM * 16
    # nor does it, or an engine's set-up, reach the dense constructions on
    # a new zero pattern

    def refuse(*args, **kwargs):
        raise AssertionError("dense 256 x 256 construction on the expansion path")

    for name in ("free_generator", "exchange_generators"):
        monkeypatch.setattr(perturbation, name, refuse)
    for name in ("dense", "from_dense"):
        monkeypatch.setattr(OperatorEntries, name, refuse)
    _block_plan.cache_clear()
    SpectrumEngine(PhysParams(omega=2.0, delta=0.0), Configuration(phi_L=0.0))


def clear_structure_caches():
    for cache in (generators._free_basis, generators._exchange_basis, *STRUCTURE_CACHES):
        cache.cache_clear()


def test_structure_caches_stay_bounded():
    # 60 engines over drawn omega and drive phase, then 200 enhancement
    # points over drawn orientations: one block plan per nonzero pattern of
    # the free generator, and no cache beyond its bound
    rng = np.random.default_rng(24)
    clear_structure_caches()
    patterns = set()
    for omega, phi_L in zip(10.0 ** rng.uniform(-1.0, 2.0, 60), rng.uniform(0.0, 2.0 * np.pi, 60)):
        params = PhysParams(omega=omega)
        SpectrumEngine(params, Configuration(phi_L=phi_L)).densities(omega * PROBE_MULTIPLES)
        patterns.add(free_entries(params, phi_L).flat.tobytes())
    points = 0
    while points < 200:
        n_hat = rng.standard_normal(3)
        n_hat /= np.linalg.norm(n_hat)
        if 0.25 * (n_hat[0] ** 2 + n_hat[1] ** 2) ** 2 < 1e-6:
            continue
        params = PhysParams.from_saturation(10.0 ** rng.uniform(-3.0, 3.0))
        phi_L = rng.uniform(0.0, 2.0 * np.pi)
        numeric_enhancement(params, Configuration(n_hat=n_hat, phi_L=phi_L))
        patterns.add(free_entries(params, phi_L).flat.tobytes())
        points += 1
    assert _block_plan.cache_info().currsize == len(patterns)
    for cache in STRUCTURE_CACHES:
        info = cache.cache_info()
        assert info.currsize <= info.maxsize, cache


def test_structure_caches_are_keyed_on_content():
    # a block plan built again holds a new structure object with the same
    # content: the caches keyed on it hit for it as for the first, so no
    # entry is tied to an object's identity
    params = PhysParams(omega=2.0, delta=0.3)
    cfg = Configuration(n_hat=(0.36, -0.48, 0.8), phi_L=0.7)
    flat = free_entries(params, cfg.phi_L).flat.tobytes()
    SpectrumEngine(params, cfg).densities(PROBE_MULTIPLES)
    first = _block_plan(flat)[0]
    _block_plan.cache_clear()
    second = _block_plan(flat)[0]
    assert second is not first
    assert second == first and hash(second) == hash(first)
    was = perturbation._restricted_sectors.cache_info()
    SpectrumEngine(params, cfg).densities(PROBE_MULTIPLES)
    now = perturbation._restricted_sectors.cache_info()
    assert now.misses == was.misses and now.hits > was.hits


@pytest.mark.parametrize(
    "params, cfg",
    [
        (PhysParams.from_saturation(1.0), Configuration()),
        (PhysParams(omega=2.0), Configuration(n_hat=(0.36, -0.48, 0.8))),
        (PhysParams(omega=2.0, delta=0.3), Configuration(n_hat=(0.36, -0.48, 0.8), phi_L=0.7)),
        (PhysParams(omega=30.0, delta=-4.0), Configuration(n_hat=(0.0, 0.6, 0.8), phi_L=2.1)),
    ],
    ids=["default", "oblique", "detuned-phased", "strong-detuned-phased"],
)
def test_expansion_factors_only_the_sectors_its_right_hand_sides_reach(monkeypatch, params, cfg):
    # solve() factors every sector of its resolvent, so each of the two
    # z = 0 solves of the expansion restricts it: the stacks given to
    # _batched_solve are, per sector size, the sectors that hold a nonzero
    # row of that solve's B, and no others
    stacks = []

    def recorded(matrices, rhs):
        stacks.append((matrices.shape, rhs.shape[-1]))
        return batched_solve(matrices, rhs)

    batched_solve = perturbation._batched_solve
    monkeypatch.setattr(perturbation, "_batched_solve", recorded)
    pert = build_expansion(params, cfg)
    sectors = _sector_blocks(free_entries(params, cfg.phi_L))[0].index
    v_plus, v_minus = exchange_entries(cfg.n_hat, params.gamma)
    # the B of each solve, by its column count: (1, 0) and (0, 1) together,
    # then (1, 1)
    rhs = {
        2: [v_plus.apply(pert[(0, 0)].reshape(-1)), v_minus.apply(pert[(0, 0)].reshape(-1))],
        1: [v_plus.apply(pert[(0, 1)].reshape(-1)) + v_minus.apply(pert[(1, 0)].reshape(-1))],
    }
    want = []
    for columns, b in rhs.items():
        nonzero = np.any(np.stack(b, axis=1) != 0, axis=1)
        for index in sectors:
            count, dim = int(np.any(nonzero[index], axis=1).sum()), index.shape[1]
            if count:
                want.append(((1, count, dim, dim), columns))
    assert stacks == want
    # the points are ones where B leaves sectors out, so solving on all of
    # them would show
    assert sum(shape[1] * shape[2] for shape, _ in stacks) < 2 * LIOUVILLE_DIM


def test_caches_never_change_a_number():
    # every structure cache cleared, then the same expansion and engine
    # densities cold and again warm, bit for bit
    params = PhysParams(omega=1.3, delta=0.4)
    cfg = Configuration(n_hat=(0.36, -0.48, 0.8), phi_L=0.9)
    nu = np.linspace(-4.0, 4.0, 41)
    clear_structure_caches()
    runs = []
    for _ in range(2):
        pert = build_expansion(params, cfg)
        runs.append([pert[key] for key in ALL_ORDERS] + list(SpectrumEngine(params, cfg).densities(nu)))
    for cold, warm in zip(*runs):
        assert cold.tobytes() == warm.tobytes()


def test_solve_at_plus_zero_equals_the_shifted_solve():
    # at the one shift +0.0 the blocks are solved unshifted; that equals
    # subtracting +0.0 from their diagonals bit for bit, signed zeros of B
    # included
    free = free_generator(PhysParams(omega=1.0))
    rho0 = zeroth_steady_state(free)
    resolvent = DeflatedResolvent(dense_sector_blocks(free), rho0)
    v_plus, v_minus = exchange_generators(np.array([0.36, -0.48, 0.8]))
    block = np.stack([-(v_plus @ rho0.reshape(-1)), -(v_minus @ rho0.reshape(-1))], axis=1)
    zero = np.flatnonzero(block.reshape(-1) == 0)
    block.reshape(-1)[zero[::2]] = complex(-0.0, -0.0)
    block.reshape(-1)[zero[1::2]] = complex(0.0, -0.0)
    x = resolvent.solve(0.0, block)
    assert np.signbit(x.real).any() and np.signbit(x.imag).any()
    assert x.tobytes() == resolvent.solve(np.array([0.0, 1.0j]), block)[0].tobytes()


def test_solve_with_no_column_or_no_shift(expansion_s1):
    # an empty right-hand side or an empty array of shifts gives an empty X
    resolvent = expansion_s1.resolvent
    block = -expansion_s1.v_minus.apply(expansion_s1[(0, 0)].reshape(-1))
    assert resolvent.solve(0.0, np.zeros((LIOUVILLE_DIM, 0))).shape == (LIOUVILLE_DIM, 0)
    assert resolvent.solve(np.array([]), block).shape == (0, LIOUVILLE_DIM)


def test_mean_dipoles_equal_the_trace_of_the_product(expansion_s1):
    # four entries of each state, summed as np.trace sums the diagonal of
    # raising @ state, signed zeros included
    rng = np.random.default_rng(25)
    states = dict(expansion_s1.orders)
    states["random"] = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    states["zeros"] = np.where(rng.random((16, 16)) < 0.5, complex(-0.0, -0.0), complex(0.0, -0.0))
    pert = dataclasses.replace(expansion_s1, orders=states)
    for atom in (1, 2):
        raising = transition_operator(atom, 2, "raising")
        got = mean_dipole_orders(pert, atom)
        for key, state in states.items():
            want = complex(np.trace(raising @ state))
            assert np.array([got[key]]).tobytes() == np.array([want]).tobytes(), key


def test_corrections_traceless_and_conjugation_paired(expansion_s1):
    for key in ALL_ORDERS:
        if key == (0, 0):
            continue
        assert abs(np.trace(expansion_s1[key])) < 1e-12
    for m, n in ALL_ORDERS:
        assert np.allclose(
            expansion_s1[(m, n)], expansion_s1[(n, m)].conj().T, atol=1e-12
        )


def test_conjugation_pairing_with_drive_phase():
    params = PhysParams.from_saturation(2.0)
    pert = build_expansion(params, Configuration(phi_L=0.7))
    for m, n in ALL_ORDERS:
        assert np.allclose(pert[(m, n)], pert[(n, m)].conj().T, atol=1e-12)


def test_expansion_holds_exactly_the_four_orders(expansion_s1):
    assert set(expansion_s1.orders) == set(ALL_ORDERS)
    for key in ALL_ORDERS:
        assert expansion_s1[key].shape == (HILBERT_DIM, HILBERT_DIM)


def test_undriven_expansion_vanishes():
    params = PhysParams(omega=0.0)
    cfg = Configuration()
    pert = build_expansion(params, cfg)
    for key in ALL_ORDERS:
        if key == (0, 0):
            continue
        assert np.max(np.abs(pert[key])) < 1e-13
    terms = intensity_terms(pert, cfg)
    assert terms.ladder_total == pytest.approx(0.0, abs=1e-13)
    assert terms.crossed_total == pytest.approx(0.0, abs=1e-13)


def test_numeric_enhancement_refuses_zero_drive():
    # the undriven pair scatters no light, so 1 + crossed/ladder is 0/0;
    # the parameters themselves stay valid
    with pytest.raises(ValueError, match="no light is scattered"):
        numeric_enhancement(PhysParams(omega=0.0), Configuration())


def test_mean_dipole_order_structure(expansion_s1):
    for atom in (1, 2):
        d = mean_dipole_orders(expansion_s1, atom)
        assert abs(d[(0, 0)]) < 1e-14
        assert abs(d[(0, 1)]) < 1e-14
        assert abs(d[(1, 0)]) > 0.01


def test_frozen_intensity_values_at_s1(expansion_s1):
    terms = intensity_terms(expansion_s1, Configuration())
    assert terms.ladder_total == pytest.approx(LADDER_RAW_S1, rel=1e-10)
    assert terms.crossed_total == pytest.approx(CROSSED_RAW_S1, rel=1e-10)
    assert terms.geometry_weight == pytest.approx(0.25, abs=1e-14)
    norm = terms.normalized()
    assert norm.ladder_total == pytest.approx(LADDER_RAW_S1 / 0.25, rel=1e-12)


@pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
def test_intensities_match_analytic_ratios(s):
    cfg = Configuration()
    params = PhysParams.from_saturation(s)
    terms = intensity_terms(build_expansion(params, cfg), cfg).normalized()
    want_ladder, want_crossed = oracle.total_terms(s)
    assert terms.ladder_total == pytest.approx(want_ladder, rel=1e-8)
    assert terms.crossed_total == pytest.approx(want_crossed, rel=1e-8)


@pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
def test_elastic_parts(s):
    cfg = Configuration()
    params = PhysParams.from_saturation(s)
    terms = intensity_terms(build_expansion(params, cfg), cfg).normalized()
    assert terms.ladder_elastic == pytest.approx(terms.crossed_elastic, rel=1e-10)
    assert terms.ladder_elastic == pytest.approx(s / (1.0 + s) ** 4, rel=1e-10)


def test_intensities_invariant_under_drive_phase():
    params = PhysParams.from_saturation(1.0)
    base = None
    for phi in (0.0, np.pi / 3, 1.7, np.pi):
        cfg = Configuration(phi_L=phi)
        terms = intensity_terms(build_expansion(params, cfg), cfg)
        vals = np.array(
            [terms.ladder_total, terms.crossed_total, terms.ladder_elastic,
             terms.crossed_elastic]
        )
        if base is None:
            base = vals
        else:
            assert np.allclose(vals, base, rtol=1e-9, atol=1e-15)


def test_normalized_terms_independent_of_orientation():
    params = PhysParams.from_saturation(1.0)
    results = []
    for n_hat in ([1.0, 0.0, 0.0], [0.6, 0.0, 0.8], [0.3, -0.5, 0.8]):
        n = np.asarray(n_hat) / np.linalg.norm(n_hat)
        cfg = Configuration(n_hat=tuple(n))
        terms = intensity_terms(build_expansion(params, cfg), cfg).normalized()
        results.append((terms.ladder_total, terms.crossed_total))
    for ladder, crossed in results[1:]:
        assert ladder == pytest.approx(results[0][0], rel=1e-12)
        assert crossed == pytest.approx(results[0][1], rel=1e-12)


def test_normalized_rejects_degenerate_orientation():
    params = PhysParams.from_saturation(1.0)
    cfg = Configuration(n_hat=(0.0, 0.0, 1.0))
    terms = intensity_terms(build_expansion(params, cfg), cfg)
    with pytest.raises(ValueError):
        terms.normalized()
    # a NaN weight fails the comparison too, and would make every field NaN
    with pytest.raises(ValueError, match="degenerate"):
        checked_geometry_weight(float("nan"))
    with pytest.raises(ValueError, match="degenerate"):
        IntensityTerms(1, 1, 1, 1, 0, 0, float("nan")).normalized()


def test_numeric_enhancement_rejects_degenerate_orientation():
    # geometry weight 0: both intensities are rounding noise, whose ratio
    # is no enhancement factor
    with pytest.raises(ValueError, match="degenerate"):
        numeric_enhancement(
            PhysParams.from_saturation(1.0), Configuration(n_hat=(0.0, 0.0, 1.0))
        )


def test_numeric_enhancement_at_small_geometry_weight():
    # geometry weight 1e-6: the ladder total is of that size while the
    # rounding noise of its imaginary part is of the size of rho_11
    params = PhysParams.from_saturation(0.17597987337494272)
    cfg = Configuration(
        n_hat=(-0.023844143723764047, -0.03783459805628287, 0.9989994994993742),
        phi_L=0.5708444346073492,
    )
    assert cfg.geometry_weight == pytest.approx(1e-6, rel=1e-6)
    got = numeric_enhancement(params, cfg)
    assert abs(got - oracle.enhancement_factor(params.saturation)) <= 1e-8


@pytest.mark.parametrize("omega", [3e4, 1e5, 1e6])
def test_numeric_enhancement_at_strong_drive(omega):
    # deep saturation, far beyond the acceptance drive strengths
    params = PhysParams(omega=omega)
    got = numeric_enhancement(params, Configuration())
    assert got == pytest.approx(oracle.enhancement_factor(params.saturation), rel=1e-8)


@pytest.mark.xfail(
    strict=True,
    raises=RuntimeError,
    reason="from omega = 3e4 the 1e-12 relative trace check of perturbative_corrections "
    "refuses every drive phase but 0 (see ROADMAP aim 3)",
)
def test_numeric_enhancement_at_strong_drive_with_drive_phase():
    # the enhancement does not depend on phi_L; at phi_L = 0 the same
    # drive matches the oracle (test_numeric_enhancement_at_strong_drive)
    params = PhysParams(omega=1e5)
    got = numeric_enhancement(params, Configuration(phi_L=2.5))
    assert got == pytest.approx(oracle.enhancement_factor(params.saturation), rel=1e-8)


def test_intensity_terms_reject_non_hermitian_order(expansion_s1):
    rho_11 = expansion_s1[(1, 1)]
    skewed = rho_11 + 1e-6 * np.linalg.norm(rho_11) * 1j * np.eye(HILBERT_DIM)
    pert = dataclasses.replace(expansion_s1, orders={**expansion_s1.orders, (1, 1): skewed})
    with pytest.raises(RuntimeError, match="not Hermitian"):
        intensity_terms(pert, Configuration())


def test_intensities_invariant_under_decay_rate_rescale():
    # everything is expressed in units of gamma, so fixing the saturation
    # and changing gamma must not move the dimensionless intensities
    cfg = Configuration()
    ref = intensity_terms(
        build_expansion(PhysParams.from_saturation(1.0, gamma=1.0), cfg), cfg
    )
    alt = intensity_terms(
        build_expansion(PhysParams.from_saturation(1.0, gamma=2.0), cfg), cfg
    )
    assert alt.ladder_total == pytest.approx(ref.ladder_total, rel=1e-10)
    assert alt.crossed_total == pytest.approx(ref.crossed_total, rel=1e-10)


def test_enhancement_against_analytic_curve():
    cfg = Configuration()
    for s in (0.25, 1.0):
        got = numeric_enhancement(PhysParams.from_saturation(s), cfg)
        assert got == pytest.approx(oracle.enhancement_factor(s), rel=1e-9)


def test_nonperturbative_cross_check():
    cfg = Configuration()
    params = PhysParams.from_saturation(1.0)
    ladder, crossed = nonperturbative_intensity(params, cfg)
    terms = intensity_terms(build_expansion(params, cfg), cfg)
    # the ring solve carries O(RING_COUPLING^2) relative corrections
    assert ladder == pytest.approx(terms.ladder_total, rel=1e-4)
    assert crossed == pytest.approx(terms.crossed_total, rel=1e-4)
