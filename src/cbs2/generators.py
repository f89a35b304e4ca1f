"""Master-equation generators for two driven four-level atoms.

Level scheme per atom: index 1 is the ground state (J=0, m=0); indices
2, 3, 4 are the excited Zeeman sublevels (J=1, m=-1, 0, +1).  The laser
couples 1 <-> 4 only.  The lowering part of the dipole operator is

    D = -e_{-1} s_12 + e_0 s_13 - e_{+1} s_14,

with s_kl = |k><l| and e_q the helicity unit vectors.

Operator-space conventions: two-atom operators live on the 16-dimensional
product space with the atom-1 index outermost (kron(A1, A2)).  Density
matrices are vectorized row-major, so a superoperator acting as
rho -> A rho B has matrix kron(A, B.T).  The free generator is a dense
complex 256 x 256 array, because its consumers (sector blocks, the
steady-state solve, the dense reference) are dense; the exchange
generators are scipy CSR arrays, because they only act on vectors.  The
stationary trace constraint is handled by the solvers, not by deflating
the generator itself.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import sparse

from .geometry import PhysParams, helicity_unit_vector, transverse_projector

HILBERT_DIM = 16
LIOUVILLE_DIM = 256

GROUND = 1
EXCITED_LEVELS = (2, 3, 4)

#: Helicity of the photon emitted on the e -> 1 transition.
LEVEL_HELICITY = {2: -1, 3: 0, 4: +1}

#: Sign of the e_q coefficient of s_1e in the lowering dipole operator.
DIPOLE_SIGN = {2: -1.0, 3: +1.0, 4: -1.0}

#: Flat indices of the diagonal of a row-major 16 x 16 density matrix.
_DIAG = np.arange(HILBERT_DIM) * (HILBERT_DIM + 1)

TRACE_VECTOR = np.zeros(LIOUVILLE_DIM)
TRACE_VECTOR[_DIAG] = 1.0


def _unit_matrix(k: int, l: int) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[k - 1, l - 1] = 1.0
    return m


def _embed(op4: np.ndarray, atom: int) -> np.ndarray:
    if atom == 1:
        return np.kron(op4, np.eye(4, dtype=complex))
    if atom == 2:
        return np.kron(np.eye(4, dtype=complex), op4)
    raise ValueError("atom must be 1 or 2")


def transition_operator(atom: int, level: int, kind: str) -> np.ndarray:
    """Embedded single-atom operator for one excited level.

    kind: 'lowering' gives s_1e, 'raising' gives s_e1, 'projector' gives
    s_ee, each acting on the requested atom and trivially on the other.
    """
    if level not in EXCITED_LEVELS:
        raise ValueError(f"level must be one of {EXCITED_LEVELS}, got {level}")
    if kind == "lowering":
        op = _unit_matrix(GROUND, level)
    elif kind == "raising":
        op = _unit_matrix(level, GROUND)
    elif kind == "projector":
        op = _unit_matrix(level, level)
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    return _embed(op, atom)


def dipole_components(atom: int) -> np.ndarray:
    """Cartesian components of the lowering dipole operator of one atom,
    embedded in the two-atom space.  Shape (3, 16, 16)."""
    comps = np.zeros((3, HILBERT_DIM, HILBERT_DIM), dtype=complex)
    for level in EXCITED_LEVELS:
        e_q = helicity_unit_vector(LEVEL_HELICITY[level])
        lower = transition_operator(atom, level, "lowering")
        for i in range(3):
            comps[i] += DIPOLE_SIGN[level] * e_q[i] * lower
    return comps


def spre(op: np.ndarray) -> np.ndarray:
    """Superoperator for left multiplication, rho -> op rho."""
    return np.kron(op, np.eye(op.shape[0], dtype=complex))


def spost(op: np.ndarray) -> np.ndarray:
    """Superoperator for right multiplication, rho -> rho op."""
    return np.kron(np.eye(op.shape[0], dtype=complex), op.T)


def sandwich(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Superoperator for rho -> left rho right."""
    return np.kron(left, right.T)


def _atom_generator(gamma: float, delta: float, drive: complex) -> np.ndarray:
    """16 x 16 generator of one driven atom on its own 4 x 4 states."""
    ham = np.zeros((4, 4), dtype=complex)
    for level in EXCITED_LEVELS:
        ham += delta * _unit_matrix(level, level)
    raise_op = _unit_matrix(4, GROUND)
    ham -= 0.5 * (drive * raise_op + np.conj(drive) * raise_op.conj().T)
    mat = 1j * (spre(ham) - spost(ham))
    for level in EXCITED_LEVELS:
        lower = _unit_matrix(GROUND, level)
        proj = _unit_matrix(level, level)
        mat += 2.0 * gamma * sandwich(lower, lower.conj().T)
        mat -= gamma * (spre(proj) + spost(proj))
    return mat


#: Row-major two-atom index (i1 i2, j1 j2) -> Kronecker-sum index (i1 j1, i2 j2).
_PAIR_FROM_ATOMS = np.arange(LIOUVILLE_DIM).reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(-1)


def free_generator(params: PhysParams, phi_L: float = 0.0) -> np.ndarray:
    """Generator of the two uncoupled driven atoms.

    Atom 1 is driven with Rabi frequency omega, atom 2 with the extra
    accumulated laser phase phi_L.  Each excited level decays to the
    ground state at rate 2*gamma.  The atoms do not interact, so the
    generator is the Kronecker sum of the two single-atom generators,
    brought to the row-major two-atom index order.
    """
    gamma, delta, omega = params.gamma, params.delta, params.omega
    eye = np.eye(HILBERT_DIM, dtype=complex)
    atom_1 = _atom_generator(gamma, delta, omega + 0j)
    atom_2 = _atom_generator(gamma, delta, omega * np.exp(1j * phi_L))
    mat = np.kron(atom_1, eye) + np.kron(eye, atom_2)
    return mat[np.ix_(_PAIR_FROM_ATOMS, _PAIR_FROM_ATOMS)]


@functools.cache
def _exchange_basis() -> tuple[sparse.csr_array, sparse.csr_array]:
    """V_plus and V_minus of the nine unit tensors e_i e_j^T, flattened
    into row 3 i + j of one sparse 9 x 65536 matrix each."""
    dips = {1: dipole_components(1), 2: dipole_components(2)}
    eye = sparse.eye_array(HILBERT_DIM, dtype=complex)
    rows_plus, rows_minus = [], []
    for i in range(3):
        for j in range(3):
            v_plus = v_minus = 0
            for alpha, beta in ((1, 2), (2, 1)):
                d_a, d_b = dips[alpha], dips[beta]
                dag_ai = d_a[i].conj().T
                # sandwich(left, right) = kron(left, right.T)
                v_plus = v_plus + (
                    sparse.kron(d_b[j], dag_ai.T) - sparse.kron(eye, (dag_ai @ d_b[j]).T)
                )
                v_minus = v_minus + (
                    sparse.kron(d_a[j], d_b[i].conj())
                    - sparse.kron(d_b[i].conj().T @ d_a[j], eye)
                )
            rows_plus.append(sparse.coo_array(v_plus).reshape((1, -1)))
            rows_minus.append(sparse.coo_array(v_minus).reshape((1, -1)))
    return sparse.vstack(rows_plus, format="csr"), sparse.vstack(rows_minus, format="csr")


def exchange_generators_from_tensor(
    tensor: np.ndarray,
) -> tuple[sparse.csr_array, sparse.csr_array]:
    """Photon-exchange generators for an arbitrary symmetric rank-2 tensor.

    Returns the pair (V_plus, V_minus), as CSR arrays, multiplying the
    exchange coupling g and its conjugate in the full generator
    L = L_free + g V_plus + conj(g) V_minus.  Both annihilate the trace; only their g, g* weighted
    sum preserves Hermiticity.  Both are linear in the tensor.
    """
    t = np.asarray(tensor, dtype=complex)
    if t.shape != (3, 3):
        raise ValueError("tensor must be 3 x 3")
    shape = (LIOUVILLE_DIM, LIOUVILLE_DIM)
    return tuple(
        sparse.csr_array((t.reshape(-1) @ basis).reshape(shape)) for basis in _exchange_basis()
    )


def exchange_generators(
    n_hat: np.ndarray, gamma: float = 1.0
) -> tuple[sparse.csr_array, sparse.csr_array]:
    """Exchange generators for an atom pair oriented along n_hat."""
    return exchange_generators_from_tensor(gamma * transverse_projector(n_hat))


def partial_trace(rho: np.ndarray, keep_atom: int) -> np.ndarray:
    """Reduce a 16 x 16 two-atom state to the 4 x 4 state of one atom."""
    r = np.asarray(rho).reshape(4, 4, 4, 4)
    if keep_atom == 1:
        return np.einsum("abcb->ac", r)
    if keep_atom == 2:
        return np.einsum("abad->bd", r)
    raise ValueError("keep_atom must be 1 or 2")
