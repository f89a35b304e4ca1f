"""Master-equation generators for two driven four-level atoms.

Level scheme per atom: index 1 is the ground state (J=0, m=0); indices
2, 3, 4 are the excited Zeeman sublevels (J=1, m=-1, 0, +1).  The laser
couples 1 <-> 4 only.  The lowering part of the dipole operator is

    D = -e_{-1} s_12 + e_0 s_13 - e_{+1} s_14,

with s_kl = |k><l| and e_q the helicity unit vectors.

Operator-space conventions: two-atom operators live on the 16-dimensional
product space with the atom-1 index outermost (kron(A1, A2)).  Density
matrices are vectorized row-major, so a superoperator acting as
rho -> A rho B has matrix kron(A, B.T); spre, spost and sandwich build
such superoperators, with np.kron or with a Kronecker product evaluated
on chosen entries only.

Both generators are linear in their parameters and are filled from bases
built once from spre, spost and sandwich on the entries their Kronecker
products reach.  Every generator is built as an OperatorEntries, its
nonzero entries in row-major order (free_entries, exchange_entries); the
dense complex 256 x 256 arrays of free_generator and exchange_generators,
the public reference, are those entries scattered by
OperatorEntries.dense; atom_blocks reads the two one-atom generators off
the free one.  The stationary trace constraint is handled by the solvers,
not by deflating the generator itself.
"""

from __future__ import annotations

import functools

import numpy as np

from .geometry import PhysParams, helicity_unit_vector, transverse_projector

HILBERT_DIM = 16
LIOUVILLE_DIM = 256

GROUND = 1
EXCITED_LEVELS = (2, 3, 4)

#: Helicity of the photon emitted on the e -> 1 transition.
LEVEL_HELICITY = {2: -1, 3: 0, 4: +1}

#: The m = -1 sublevel, helicity -1: its decay is what the
#: helicity-preserving channel detects.
DETECTED_LEVEL = 2

#: Sign of the e_q coefficient of s_1e in the lowering dipole operator.
DIPOLE_SIGN = {2: -1.0, 3: +1.0, 4: -1.0}

#: Flat indices of the diagonal of a row-major 16 x 16 density matrix.
_DIAG = np.arange(HILBERT_DIM) * (HILBERT_DIM + 1)

TRACE_VECTOR = np.zeros(LIOUVILLE_DIM)
TRACE_VECTOR[_DIAG] = 1.0

#: Rows 64 i + 4 j (atom 1) and 16 i + j (atom 2): the one-atom entry
#: (i, j), in order 4 i + j, with the other atom in |1><1|.
_ATOM_ROWS = np.add.outer(16 * np.arange(4), np.arange(4)).ravel() * np.array([[4], [1]])


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


@functools.cache
def transition_operator(atom: int, level: int, kind: str) -> np.ndarray:
    """Embedded single-atom operator for one excited level.

    kind: 'lowering' gives s_1e, 'raising' gives s_e1, 'projector' gives
    s_ee, each acting on the requested atom and trivially on the other.
    The result is cached and read-only.
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
    return _read_only(_embed(op, atom))


def _read_only(array: np.ndarray) -> np.ndarray:
    """Mark an array that a cache hands to every caller as read-only."""
    array.flags.writeable = False
    return array


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


def spre(op: np.ndarray, kron=np.kron) -> np.ndarray:
    """Superoperator for left multiplication, rho -> op rho."""
    return kron(op, np.eye(op.shape[0], dtype=complex))


def spost(op: np.ndarray, kron=np.kron) -> np.ndarray:
    """Superoperator for right multiplication, rho -> rho op."""
    return kron(np.eye(op.shape[0], dtype=complex), op.T)


def sandwich(left: np.ndarray, right: np.ndarray, kron=np.kron) -> np.ndarray:
    """Superoperator for rho -> left rho right."""
    return kron(left, right.T)


def _linear_basis(parts) -> tuple[np.ndarray, np.ndarray]:
    """The k x m array whose row r holds the entries of generator r on the
    m flat positions (row-major, sorted) that any of the k generators
    reaches, and those positions; rows hold +0.0 where their generator
    has no entry.  parts(kron) yields the k generators written with the
    16 x 16 Kronecker product kron.  A first pass finds the positions
    that the nonzero entries of the factors reach; the second evaluates
    each product there alone, by the same elementwise multiply as
    np.kron, so every entry equals that of the 256 x 256 construction
    bit for bit.  Both arrays are read-only."""
    reached = np.zeros(LIOUVILLE_DIM * LIOUVILLE_DIM, dtype=bool)

    def reach(left: np.ndarray, right: np.ndarray) -> float:
        # flat position of kron entry (i, j), (k, l): (16 i + k) 256 + 16 j + l;
        # 0.0 stands for the product, so that the parts' sums still run
        (i, j), (k, l) = np.nonzero(left), np.nonzero(right)
        outer = i * (HILBERT_DIM * LIOUVILLE_DIM) + j * HILBERT_DIM
        reached[outer[:, None] + k * LIOUVILLE_DIM + l] = True
        return 0.0

    for _ in parts(reach):
        pass
    flat = np.flatnonzero(reached)
    outer_row, inner_row = np.divmod(flat // LIOUVILLE_DIM, HILBERT_DIM)
    outer_col, inner_col = np.divmod(flat % LIOUVILLE_DIM, HILBERT_DIM)

    def kron(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return left[outer_row, outer_col] * right[inner_row, inner_col]

    basis = np.stack(list(parts(kron)))
    # a reached position where every generator cancels to zero is no entry;
    # compress keeps the rows C-contiguous, which _combine's sum relies on
    kept = np.any(basis != 0, axis=0)
    basis = basis.compress(kept, axis=1)
    # a -0.0 from a product or sum of signed zeros is no entry either
    basis[basis == 0] = 0.0
    return _read_only(basis), _read_only(flat[kept])


def _combine(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """coeffs @ basis, with the rows summed one after the other in basis
    order, which gives the entries of a term-by-term construction bit for
    bit; a BLAS product sums in an order of its own."""
    return (coeffs[:, None] * basis).sum(axis=0)


@functools.cache
def _free_basis() -> tuple[np.ndarray, np.ndarray]:
    """_linear_basis of the parts of the free generator that multiply
    gamma, delta, d_1, conj(d_1), d_2 and conj(d_2), where d_a is the
    complex drive of atom a."""
    pairs = [(atom, level) for atom in (1, 2) for level in EXCITED_LEVELS]
    # H holds delta times the number of excited atoms
    excited = sum(transition_operator(*pair, "projector") for pair in pairs)
    lowering = [transition_operator(*pair, "lowering") for pair in pairs]

    def parts(kron):
        pre, post = spre(excited, kron), spost(excited, kron)
        yield 2.0 * sum(sandwich(op, op.conj().T, kron) for op in lowering) - pre - post
        yield 1j * (pre - post)
        # H holds -(d s_41 + conj(d) s_14) / 2, and L = i (spre(H) - spost(H))
        for atom in (1, 2):
            for kind in ("raising", "lowering"):
                op = transition_operator(atom, 4, kind)
                yield -0.5j * (spre(op, kron) - spost(op, kron))

    return _linear_basis(parts)


def free_entries(params: PhysParams, phi_L: float) -> OperatorEntries:
    """free_generator(params, phi_L) as its nonzero entries, without a
    256 x 256 array."""
    drive_1 = params.omega + 0j
    drive_2 = params.omega * np.exp(1j * phi_L)
    coeffs = np.array(
        [params.gamma, params.delta, drive_1, np.conj(drive_1), drive_2, np.conj(drive_2)],
        dtype=complex,
    )
    basis, flat = _free_basis()
    return OperatorEntries(flat, _combine(coeffs, basis))


def atom_blocks(op: OperatorEntries) -> tuple[np.ndarray, np.ndarray]:
    """The 16 x 16 blocks of op on _ATOM_ROWS.  For the free generator, A
    (x) I + I (x) B in the index (i1 j1, i2 j2), these are A and B exactly:
    a one-atom generator is 0 on the diagonal at the ground population."""
    return tuple(op.block(rows, rows) for rows in _ATOM_ROWS)


def free_generator(params: PhysParams, phi_L: float = 0.0) -> np.ndarray:
    """Generator of the two uncoupled driven atoms.

    Atom 1 is driven with Rabi frequency omega, atom 2 with the extra
    accumulated laser phase phi_L.  Each excited level decays to the
    ground state at rate 2*gamma.  The generator is linear in gamma,
    delta and the two complex drives and their conjugates, and is filled
    from the cached basis of those parts.
    """
    return free_entries(params, phi_L).dense()


@functools.cache
def _exchange_basis() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """_linear_basis of V_plus and of V_minus over the nine unit tensors
    e_i e_j^T, row 3 i + j for e_i e_j^T."""
    dips = {1: dipole_components(1), 2: dipole_components(2)}

    def plus(d_a, d_b, i, j, kron):
        dag = d_a[i].conj().T
        return sandwich(d_b[j], dag, kron) - spost(dag @ d_b[j], kron)

    def minus(d_a, d_b, i, j, kron):
        dag = d_b[i].conj().T
        return sandwich(d_a[j], dag, kron) - spre(dag @ d_a[j], kron)

    def rows(term, kron):
        for i in range(3):
            for j in range(3):
                yield sum(term(dips[a], dips[b], i, j, kron) for a, b in ((1, 2), (2, 1)))

    return tuple(_linear_basis(functools.partial(rows, term)) for term in (plus, minus))


def _exchange_entries(tensor: np.ndarray) -> tuple[OperatorEntries, OperatorEntries]:
    """V_plus and V_minus for an arbitrary 3 x 3 tensor as their nonzero
    entries; both are linear in the tensor."""
    t = np.asarray(tensor, dtype=complex)
    if t.shape != (3, 3):
        raise ValueError("tensor must be 3 x 3")
    return tuple(
        OperatorEntries(flat, _combine(t.reshape(-1), basis)) for basis, flat in _exchange_basis()
    )


def exchange_generators(n_hat: np.ndarray, gamma: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Photon-exchange generators for an atom pair oriented along n_hat:
    exchange_entries(n_hat, gamma) as the pair (V_plus, V_minus) of
    256 x 256 arrays, which multiply g and conj(g) in the full generator
    L = L_free + g V_plus + conj(g) V_minus.  Both annihilate the trace;
    only their g, g* weighted sum preserves Hermiticity."""
    return tuple(v.dense() for v in exchange_entries(n_hat, gamma))


class OperatorEntries:
    """A 256 x 256 operator held as its nonzero entries, in row-major order.

    flat holds their sorted positions.  apply() multiplies a vector or a
    block of columns by a gather and a sum per row; block() gives the small
    dense block on chosen rows and columns, dense() the whole array.  A zero
    entry, -0.0 included, is no entry, so the same operator held as a dense
    array or on a basis that reaches more positions gives the same bits.
    """

    def __init__(self, flat: np.ndarray, values: np.ndarray):
        kept = values != 0
        self.flat, self.values = flat[kept], values[kept]
        self.rows, self.cols, self._starts = _row_layout(self.flat.tobytes())

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> OperatorEntries:
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (LIOUVILLE_DIM, LIOUVILLE_DIM):
            raise ValueError(
                f"operator must be {LIOUVILLE_DIM} x {LIOUVILLE_DIM}, got shape {matrix.shape}"
            )
        flat = np.flatnonzero(matrix)
        return cls(flat, matrix.reshape(-1)[flat])

    def dense(self) -> np.ndarray:
        """The operator as a complex 256 x 256 array."""
        out = np.zeros(LIOUVILLE_DIM * LIOUVILLE_DIM, dtype=complex)
        out[self.flat] = self.values
        return out.reshape(LIOUVILLE_DIM, LIOUVILLE_DIM)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The operator times x, a 256-vector or 256 x k block."""
        out = np.zeros(x.shape, dtype=complex)
        if self._starts.size:
            products = self.values.reshape((-1,) + (1,) * (x.ndim - 1)) * x[self.cols]
            out[self.rows[self._starts]] = np.add.reduceat(products, self._starts, axis=0)
        return out

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The dense block of the operator on the given rows and columns,
        each a sequence of distinct indices."""
        where_row = np.full(LIOUVILLE_DIM, -1)
        where_row[rows] = np.arange(len(rows))
        where_col = np.full(LIOUVILLE_DIM, -1)
        where_col[cols] = np.arange(len(cols))
        r, c = where_row[self.rows], where_col[self.cols]
        inside = (r >= 0) & (c >= 0)
        out = np.zeros((len(rows), len(cols)), dtype=complex)
        out[r[inside], c[inside]] = self.values[inside]
        return out


# one layout per pattern of positions: the generators of a run share a few
@functools.lru_cache(maxsize=32)
def _row_layout(flat: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows and cols of the entries at the flat positions given
    (OperatorEntries.flat as bytes) and the first entry of each row that
    holds any, all read-only."""
    rows, cols = np.divmod(np.frombuffer(flat, dtype=np.intp), LIOUVILLE_DIM)
    # np.diff costs 3 times this
    starts = np.flatnonzero(rows != np.concatenate(([-1], rows[:-1])))
    return _read_only(rows), _read_only(cols), _read_only(starts)


def exchange_entries(
    n_hat: np.ndarray, gamma: float = 1.0
) -> tuple[OperatorEntries, OperatorEntries]:
    """exchange_generators(n_hat, gamma) as their nonzero entries, without
    a 256 x 256 array."""
    return _exchange_entries(gamma * transverse_projector(n_hat))
