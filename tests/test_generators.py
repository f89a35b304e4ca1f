"""Tests for the two-atom Liouville-space generators.

The duality tests rebuild the Heisenberg-picture generators from scratch
(operator-side commutator and jump forms) and check Tr(Q * (L rho)) =
Tr((L^H Q) * rho) on random matrices, which exercises every matrix element
of the superoperators without trusting any of the library's own plumbing.
"""

import numpy as np
import pytest
from conftest import EDGE_GRID, apply, partial_trace
from scipy.linalg import expm

from cbs2.generators import (
    EXCITED_LEVELS,
    GROUND,
    HILBERT_DIM,
    LIOUVILLE_DIM,
    TRACE_VECTOR,
    _exchange_basis,
    _exchange_entries,
    _free_basis,
    atom_blocks,
    dipole_components,
    exchange_generators,
    free_entries,
    free_generator,
    sandwich,
    spost,
    spre,
    transition_operator,
)
from cbs2.geometry import PhysParams, transverse_projector


def vec(mat):
    return np.asarray(mat, dtype=complex).reshape(-1)


def unvec(v, dim=HILBERT_DIM):
    return np.asarray(v, dtype=complex).reshape(dim, dim)


def random_matrix(rng, dim=HILBERT_DIM):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_state(rng, dim=HILBERT_DIM):
    a = random_matrix(rng, dim)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def two_atom_hamiltonian(params, phi_L):
    ham = np.zeros((HILBERT_DIM, HILBERT_DIM), dtype=complex)
    for atom, phase in ((1, 0.0), (2, phi_L)):
        for level in EXCITED_LEVELS:
            ham += params.delta * transition_operator(atom, level, "projector")
        drive = params.omega * np.exp(1j * phase)
        raising = transition_operator(atom, 4, "raising")
        ham -= 0.5 * (drive * raising + np.conj(drive) * raising.conj().T)
    return ham


def heisenberg_free(q, params, phi_L):
    """Independent operator-picture form of the free generator."""
    ham = two_atom_hamiltonian(params, phi_L)
    out = -1j * (ham @ q - q @ ham)
    for atom in (1, 2):
        for level in EXCITED_LEVELS:
            lower = transition_operator(atom, level, "lowering")
            raise_ = lower.conj().T
            proj = transition_operator(atom, level, "projector")
            out += 2.0 * params.gamma * (raise_ @ q @ lower)
            out -= params.gamma * (proj @ q + q @ proj)
    return out


def heisenberg_exchange(q, tensor, gamma):
    """Independent operator-picture forms of the photon-exchange pair."""
    d1 = dipole_components(1)
    d2 = dipole_components(2)
    plus = np.zeros_like(q)
    minus = np.zeros_like(q)
    for a, b in ((1, 2), (2, 1)):
        da = d1 if a == 1 else d2
        db = d1 if b == 1 else d2
        for i in range(3):
            for j in range(3):
                t = gamma * tensor[i, j]
                dag_ai = da[i].conj().T
                dag_bi = db[i].conj().T
                plus += t * (dag_ai @ (q @ db[j] - db[j] @ q))
                minus += t * ((dag_bi @ q - q @ dag_bi) @ da[j])
    return plus, minus


@pytest.fixture(scope="module")
def gen_rng():
    return np.random.default_rng(7)


def test_vectorization_convention(gen_rng):
    # sandwich must satisfy vec(A rho B) = sandwich(A, B) @ vec(rho)
    a = random_matrix(gen_rng)
    b = random_matrix(gen_rng)
    rho = random_matrix(gen_rng)
    want = a @ rho @ b
    got = unvec(sandwich(a, b) @ vec(rho))
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(unvec(spre(a) @ vec(rho)), a @ rho, atol=1e-12)
    assert np.allclose(unvec(spost(b) @ vec(rho)), rho @ b, atol=1e-12)


def test_transition_operator_examples():
    proj = transition_operator(1, 2, "projector")
    assert np.isclose(np.trace(proj), 4.0)
    lower = transition_operator(1, 2, "lowering")
    raise_ = transition_operator(1, 2, "raising")
    assert np.allclose(raise_, lower.conj().T)
    assert np.allclose(raise_ @ lower, proj)
    with pytest.raises(ValueError):
        transition_operator(3, 2, "lowering")
    with pytest.raises(ValueError):
        transition_operator(1, 1, "lowering")
    with pytest.raises(ValueError):
        transition_operator(1, 2, "banana")


def test_dipole_component_normalization():
    # each atom's lowering dipole components contract to the flat sum over
    # excited-state lowering operators: sum_j D_j^dag X D_j = sum_e s_e1 X s_1e
    rng = np.random.default_rng(3)
    q = random_matrix(rng)
    for atom in (1, 2):
        d = dipole_components(atom)
        got = sum(d[j].conj().T @ q @ d[j] for j in range(3))
        want = sum(
            transition_operator(atom, e, "lowering").conj().T
            @ q
            @ transition_operator(atom, e, "lowering")
            for e in EXCITED_LEVELS
        )
        assert np.allclose(got, want, atol=1e-12)


def test_free_generator_duality(gen_rng):
    params = PhysParams(omega=1.3, delta=0.4)
    phi = 0.7
    gen = free_generator(params, phi_L=phi)
    for _ in range(100):
        q = random_matrix(gen_rng)
        rho = random_matrix(gen_rng)
        lhs = np.trace(q @ apply(gen, rho))
        rhs = np.trace(heisenberg_free(q, params, phi) @ rho)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_exchange_generator_duality(gen_rng):
    n_hat = np.array([0.3, -0.5, 0.8])
    n_hat /= np.linalg.norm(n_hat)
    tensor = transverse_projector(n_hat)
    gamma = 1.0
    v_plus, v_minus = exchange_generators(n_hat, gamma=gamma)
    for _ in range(100):
        q = random_matrix(gen_rng)
        rho = random_matrix(gen_rng)
        h_plus, h_minus = heisenberg_exchange(q, tensor, gamma)
        lhs_p = np.trace(q @ apply(v_plus, rho))
        lhs_m = np.trace(q @ apply(v_minus, rho))
        assert abs(lhs_p - np.trace(h_plus @ rho)) < 1e-10 * max(1.0, abs(lhs_p))
        assert abs(lhs_m - np.trace(h_minus @ rho)) < 1e-10 * max(1.0, abs(lhs_m))


def test_trace_annihilation(gen_rng):
    params = PhysParams(omega=0.9, delta=-0.2)
    gens = [free_generator(params, phi_L=1.1)]
    gens.extend(exchange_generators(np.array([0.0, 1.0, 0.0])))
    for gen in gens:
        # functional form: trace vector is a left null vector
        assert np.max(np.abs(TRACE_VECTOR @ gen)) < 1e-12
        # and on random Hermitian states
        for _ in range(100):
            rho = random_state(gen_rng)
            assert abs(np.trace(apply(gen, rho))) < 1e-10


def test_free_generator_preserves_hermiticity(gen_rng):
    gen = free_generator(PhysParams(omega=1.0), phi_L=0.3)
    rho = random_state(gen_rng)
    out = apply(gen, rho)
    assert np.allclose(out, out.conj().T, atol=1e-12)


def test_exchange_combination_preserves_hermiticity(gen_rng):
    v_plus, v_minus = exchange_generators(np.array([1.0, 0.0, 0.0]))
    rho = random_state(gen_rng)
    for _ in range(5):
        g = gen_rng.standard_normal() + 1j * gen_rng.standard_normal()
        out = g * apply(v_plus, rho) + np.conj(g) * apply(v_minus, rho)
        assert np.allclose(out, out.conj().T, atol=1e-11)


def test_undriven_ground_state_is_stationary():
    gen = free_generator(PhysParams(omega=0.0))
    ground = np.zeros((HILBERT_DIM, HILBERT_DIM), dtype=complex)
    ground[0, 0] = 1.0
    assert np.max(np.abs(apply(gen, ground))) < 1e-14
    # and it is the unique stationary state: nullspace dimension 1
    svals = np.linalg.svd(gen, compute_uv=False)
    assert svals[-1] < 1e-12
    assert svals[-2] > 1e-6


def test_inverted_atom_decays_at_twice_gamma():
    params = PhysParams(omega=0.0, gamma=1.0)
    gen = free_generator(params)
    # atom 1 in level 4, atom 2 in the ground state
    idx = (4 - 1) * 4 + (GROUND - 1)
    rho0 = np.zeros((HILBERT_DIM, HILBERT_DIM), dtype=complex)
    rho0[idx, idx] = 1.0
    t = 0.7
    rho_t = unvec(expm(gen * t) @ vec(rho0))
    pop = np.real(np.trace(transition_operator(1, 4, "projector") @ rho_t))
    assert abs(pop - np.exp(-2.0 * params.gamma * t)) < 1e-10


def test_driven_generator_spectrum():
    gen = free_generator(PhysParams(omega=1.0))
    evals = np.linalg.eigvals(gen)
    order = np.argsort(np.abs(evals))
    assert abs(evals[order[0]]) < 1e-9
    assert np.max(evals[order[1:]].real) < -1e-6


def test_drive_does_not_populate_transverse_levels():
    gen = free_generator(PhysParams(omega=2.0, delta=0.5), phi_L=0.4)
    ground = np.zeros(LIOUVILLE_DIM, dtype=complex)
    ground[0] = 1.0
    rho_t = unvec(expm(gen * 10.0) @ ground)
    for atom in (1, 2):
        for level in (2, 3):
            proj = transition_operator(atom, level, "projector")
            assert abs(np.trace(proj @ rho_t)) < 1e-12
    assert abs(np.trace(rho_t) - 1.0) < 1e-12


def dense_exchange(tensor):
    """V_plus and V_minus of an arbitrary 3 x 3 tensor as 256 x 256 arrays."""
    return tuple(v.dense() for v in _exchange_entries(tensor))


def test_exchange_tensor_linearity(gen_rng):
    tensor = gen_rng.standard_normal((3, 3))
    tensor = 0.5 * (tensor + tensor.T)
    vp1, vm1 = dense_exchange(tensor)
    vp2, vm2 = dense_exchange(2.0 * tensor)
    assert np.allclose(vp2, 2.0 * vp1, atol=1e-12)
    assert np.allclose(vm2, 2.0 * vm1, atol=1e-12)


def kron_loop_exchange(tensor):
    """V_plus, V_minus accumulated term by term from dense Kronecker
    products, skipping zero tensor entries."""
    t = np.asarray(tensor, dtype=complex)
    dips = {1: dipole_components(1), 2: dipole_components(2)}
    eye = np.eye(HILBERT_DIM, dtype=complex)
    v_plus = np.zeros((LIOUVILLE_DIM, LIOUVILLE_DIM), dtype=complex)
    v_minus = np.zeros((LIOUVILLE_DIM, LIOUVILLE_DIM), dtype=complex)
    for alpha, beta in ((1, 2), (2, 1)):
        d_a, d_b = dips[alpha], dips[beta]
        for i in range(3):
            dag_ai = d_a[i].conj().T
            for j in range(3):
                if t[i, j] == 0:
                    continue
                v_plus += t[i, j] * (
                    np.kron(d_b[j], dag_ai.T) - np.kron(eye, (dag_ai @ d_b[j]).T)
                )
                v_minus += t[i, j] * (
                    np.kron(d_a[j], d_b[i].conj()) - np.kron(d_b[i].conj().T @ d_a[j], eye)
                )
    return v_plus, v_minus


def random_complex_symmetric(seed):
    rng = np.random.default_rng([31, seed])
    t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return t + t.T


@pytest.mark.parametrize(
    "tensor",
    [pytest.param(random_complex_symmetric(seed), id=f"random-{seed}") for seed in range(20)]
    # the x-axis orientation has zero tensor entries
    + [pytest.param(transverse_projector(np.array([1.0, 0.0, 0.0])), id="x-axis")],
)
def test_exchange_generators_equal_kron_loop(tensor):
    v_plus, v_minus = dense_exchange(tensor)
    want_plus, want_minus = kron_loop_exchange(tensor)
    assert np.array_equal(v_plus, want_plus)
    assert np.array_equal(v_minus, want_minus)


def test_exchange_generators_return_own_arrays():
    # the cached bases are only read: writing into one result must not
    # reach the next, for the x axis (zero tensor entries) and a generic
    # orientation, in turn
    generic = np.array([0.48, -0.6, 0.64])
    for n_hat in (np.array([1.0, 0.0, 0.0]), generic, np.array([1.0, 0.0, 0.0])):
        for v in exchange_generators(n_hat, gamma=0.7):
            v[:] = 7.0
        got = exchange_generators(n_hat, gamma=0.7)
        for v, dense in zip(got, kron_loop_exchange(0.7 * transverse_projector(n_hat))):
            assert np.array_equal(v, dense)


def dense_linear_basis(generators):
    """The bases built from whole 256 x 256 generators: each cut to its
    nonzero entries, on the sorted union of their positions, in rows that
    are zero-filled elsewhere."""
    cut = [(np.flatnonzero(g), g.reshape(-1)[np.flatnonzero(g)]) for g in generators]
    flat = np.unique(np.concatenate([positions for positions, _ in cut]))
    basis = np.zeros((len(cut), flat.size), dtype=complex)
    for row, (positions, values) in zip(basis, cut):
        row[np.searchsorted(flat, positions)] = values
    return basis, flat


def dense_free_parts():
    eye = np.eye(HILBERT_DIM, dtype=complex)
    pairs = [(atom, level) for atom in (1, 2) for level in EXCITED_LEVELS]
    excited = sum(transition_operator(*pair, "projector") for pair in pairs)
    pre, post = np.kron(excited, eye), np.kron(eye, excited.T)
    lowering = [transition_operator(*pair, "lowering") for pair in pairs]
    yield 2.0 * sum(np.kron(op, op.conj()) for op in lowering) - pre - post
    yield 1j * (pre - post)
    for atom in (1, 2):
        for kind in ("raising", "lowering"):
            op = transition_operator(atom, 4, kind)
            yield -0.5j * (np.kron(op, eye) - np.kron(eye, op.T))


def dense_exchange_rows(sign):
    """V_plus (sign +1) or V_minus (sign -1) for each unit tensor e_i e_j^T."""
    eye = np.eye(HILBERT_DIM, dtype=complex)
    dips = {1: dipole_components(1), 2: dipole_components(2)}

    def term(d_a, d_b, i, j):
        if sign > 0:
            dag = d_a[i].conj().T
            return np.kron(d_b[j], dag.T) - np.kron(eye, (dag @ d_b[j]).T)
        dag = d_b[i].conj().T
        return np.kron(d_a[j], dag.T) - np.kron(dag @ d_a[j], eye)

    for i in range(3):
        for j in range(3):
            yield sum(term(dips[a], dips[b], i, j) for a, b in ((1, 2), (2, 1)))


def test_bases_equal_dense_kron_construction():
    # values and flat positions bit for bit, so that the signs of zeros
    # are pinned too: a basis row holds +0.0 where it has no entry
    want = [dense_linear_basis(dense_free_parts())]
    want += [dense_linear_basis(dense_exchange_rows(sign)) for sign in (1, -1)]
    for (basis, flat), (want_basis, want_flat) in zip([_free_basis(), *_exchange_basis()], want):
        assert basis.shape == want_basis.shape
        # C order: the generators sum the rows one after the other
        assert basis.flags.c_contiguous
        assert basis.tobytes() == want_basis.tobytes()
        assert flat.tobytes() == want_flat.tobytes()


def test_cached_generator_structure_is_read_only():
    basis = [array for pair in [*_exchange_basis(), _free_basis()] for array in pair]
    cached = [
        transition_operator(atom, level, kind)
        for atom in (1, 2)
        for level in EXCITED_LEVELS
        for kind in ("lowering", "raising", "projector")
    ] + basis
    for array in cached:
        assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        transition_operator(1, 2, "lowering")[0, 0] = 1.0
    assert transition_operator(1, 2, "lowering")[0, 0] == 0.0


def test_exchange_nonzero_along_z():
    v_plus, v_minus = exchange_generators(np.array([0.0, 0.0, 1.0]))
    assert np.linalg.norm(v_plus) > 0.1
    assert np.linalg.norm(v_minus) > 0.1


def test_state_trace_and_partial_trace(gen_rng):
    a = random_state(gen_rng, 4)
    b = random_state(gen_rng, 4)
    rho = np.kron(a, b)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.allclose(partial_trace(rho, 1), a, atol=1e-12)
    assert np.allclose(partial_trace(rho, 2), b, atol=1e-12)
    with pytest.raises(ValueError):
        partial_trace(rho, 3)


def single_atom_free_matrix(params, phase=0.0):
    """Independently built 16x16 generator for one driven atom."""

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
    return mat


def direct_free_matrix(params, phi_L):
    """The free generator built directly on the 256-dimensional pair space."""
    eye = np.eye(HILBERT_DIM, dtype=complex)
    ham = two_atom_hamiltonian(params, phi_L)
    mat = 1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    for atom in (1, 2):
        for level in EXCITED_LEVELS:
            lower = transition_operator(atom, level, "lowering")
            proj = transition_operator(atom, level, "projector")
            mat += 2.0 * params.gamma * np.kron(lower, lower.conj())
            mat -= params.gamma * (np.kron(proj, eye) + np.kron(eye, proj.T))
    return mat


#: Row-major two-atom index (i1 i2, j1 j2) -> Kronecker-sum index (i1 j1, i2 j2).
PAIR_ORDER = np.arange(LIOUVILLE_DIM).reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(-1)


def kron_sum_free_matrix(params, phi_L):
    """The Kronecker sum of the two single-atom generators, permuted to
    the row-major two-atom index order."""
    eye = np.eye(HILBERT_DIM, dtype=complex)
    atom_1 = single_atom_free_matrix(params)
    atom_2 = single_atom_free_matrix(params, phi_L)
    return (np.kron(atom_1, eye) + np.kron(eye, atom_2))[np.ix_(PAIR_ORDER, PAIR_ORDER)]


def test_free_generator_equals_direct_construction():
    # the parameter-linear basis must reproduce entry for entry the
    # generator built directly on the 256-dimensional pair space
    # (detuned, phased drive)
    params = PhysParams(omega=0.3, delta=2.5)
    phi_L = 1.7
    assert np.array_equal(free_generator(params, phi_L), direct_free_matrix(params, phi_L))


@pytest.mark.parametrize(
    "omega, delta, phi_L",
    [(0.0, 0.0, 0.0), (0.0, -1.5, 0.7), (1.0, 0.0, 0.0), (0.3, 2.5, 1.7), (100.0, -3.0, 2.5)],
)
def test_free_generator_equals_kron_sum_reference(omega, delta, phi_L):
    # bitwise, signs of zeros included: the parameter-linear basis against
    # the Kronecker sum of independently built single-atom generators and
    # against the generator built directly on the pair space (detuned,
    # phased drive included)
    params = PhysParams(omega=omega, delta=delta)
    got = free_generator(params, phi_L)
    for want in (kron_sum_free_matrix(params, phi_L), direct_free_matrix(params, phi_L)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def atom_block_points():
    """The edge grid at gamma = 1 and a seeded draw with gamma in 0.1..10
    and delta up to 1e4, each (params, phi_L)."""
    rng = np.random.default_rng(31)
    drawn = [
        (PhysParams(omega=10.0 ** rng.uniform(-3.0, 6.0), gamma=10.0 ** rng.uniform(-1.0, 1.0),
                    delta=rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 4.0)),
         rng.uniform(0.0, 2.0 * np.pi))
        for _ in range(100)
    ]
    return [(PhysParams(omega=omega, delta=delta), phi_L) for omega, delta, phi_L in EDGE_GRID] + drawn


def test_free_generator_is_kron_sum_of_atom_blocks():
    # the two 16 x 16 blocks that atom_blocks reads off the free generator
    # are its one-atom generators, as built from scratch: their Kronecker
    # sum is the generator, to the last bit, so they decide its stationary
    # direction
    eye = np.eye(HILBERT_DIM)
    for params, phi_L in atom_block_points():
        a, b = atom_blocks(free_entries(params, phi_L))
        assert np.array_equal(a, single_atom_free_matrix(params))
        assert np.array_equal(b, single_atom_free_matrix(params, phi_L))
        want = (np.kron(a, eye) + np.kron(eye, b))[np.ix_(PAIR_ORDER, PAIR_ORDER)]
        assert np.array_equal(free_generator(params, phi_L), want), (params, phi_L)


def test_atom_blocks_decay_off_their_stationary_direction():
    # every eigenvalue of a one-atom generator but its stationary 0 lies at
    # Re lambda <= -gamma/2 (-gamma measured), so a sum alpha + beta over
    # the two atoms is 0 only where both are
    for params, phi_L in atom_block_points():
        for block in atom_blocks(free_entries(params, phi_L)):
            eigs = np.linalg.eigvals(block)
            stationary = np.argmax(eigs.real)
            assert abs(eigs[stationary]) <= 1e-12 * max(np.linalg.norm(block, 2), 1.0)
            assert np.delete(eigs, stationary).real.max() <= -params.gamma / 2, (params, phi_L)


def test_free_generator_returns_own_array():
    # the cached basis is only read: writing into one result must not
    # reach the next
    params = PhysParams(omega=1.3, delta=0.4)
    first = free_generator(params, 0.7)
    want = first.copy()
    first[:] = 7.0
    assert free_generator(params, 0.7).tobytes() == want.tobytes()


def test_free_generator_reduces_to_single_atom(gen_rng):
    # tracing out atom 2 must reproduce the one-atom generator acting on
    # atom 1, for any trace-one companion state
    params = PhysParams(omega=1.7, delta=-0.6)
    gen = free_generator(params, phi_L=0.8)
    single = single_atom_free_matrix(params)
    a = random_matrix(gen_rng, 4)
    b = random_state(gen_rng, 4)
    reduced = partial_trace(apply(gen, np.kron(a, b)), 1)
    want = (single @ a.reshape(-1)).reshape(4, 4)
    assert np.allclose(reduced, want, atol=1e-11)
