"""Steady state and double-scattering expansion of the coupled atom pair.

The exchange coupling g is small in the far field, so the stationary
state is expanded in formal powers of g and conj(g).  Order (m, n) means
m powers of g and n of conj(g); the backscattering signal lives entirely
at combined order m + n = 2, and of those only (1, 1) survives the
configuration average over interatomic distances, so the expansion stops
there.

All correction orders are traceless and are obtained from deflated linear
solves on the traceless subspace, where the free generator is invertible;
the same deflated resolvent serves the spectral sweep at z = -i nu.
build_expansion forms no 256 x 256 array: it takes the sector blocks of
free_entries, which the steady state and the resolvent share, and
applies V+- from their entries.  Two solve calls at z = 0 give the
orders.  The steady state's degeneracy is decided on the two 16 x 16
one-atom generators that atom_blocks reads off the pair.  The dense
free_generator, zeroth_steady_state and perturbative_corrections, which
read their arrays through OperatorEntries.from_dense, stay the public
reference and give the same bits wherever both accept a point.
Structure is computed once per sector pattern, so a parameter
point does value work only, in two LRU caches keyed on content:
_block_plan (32 entries) on the entries' positions and _restricted_sectors
(16) on a structure and the kept sectors.  Each solve factors every sector
of its resolvent, so each caller restricts it to the sectors its
right-hand sides reach, the expansion as the spectral sweep does.

The detected channel is read out in one place.  detected_transition()
holds the raising dipoles s_21 of both atoms and the functionals of
their lowering dipoles; every reader forms a 2 x 2 atom-pair matrix,
entry [a - 1, b - 1] for source atom a and detection atom b, and
channels() turns it into the ladder term, each atom's own light, and
the crossed term, the two atoms' interference at exact backscattering.
intensity_terms, nonperturbative_intensity and the spectral densities
all go through it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .generators import (
    DETECTED_LEVEL,
    HILBERT_DIM,
    LIOUVILLE_DIM,
    TRACE_VECTOR,
    OperatorEntries,
    _read_only,
    atom_blocks,
    exchange_entries,
    exchange_generators,
    free_entries,
    free_generator,
    transition_operator,
)
from .geometry import Configuration, PhysParams


#: Coupling modulus and number of coupling phases of the ring on which
#: nonperturbative_intensity solves the coupled steady state.
RING_COUPLING = 1e-3
RING_PHASES = 8

#: Singular values of a generator (each atom's in build_expansion) below
#: DEGENERACY_TOL * max(largest, 1) count as zero.
DEGENERACY_TOL = 1e-8


class DegeneracyError(RuntimeError):
    """The free generator has more than one stationary direction."""


class _Sectors:
    """The sectors of a resolvent's vectors, which hold the entries rows of
    the 256-vector: per size, the (count, dim) sector indices (index), the
    sector number of each entry (sector, numbered from first[g] on in group
    g) and trace on rows.  rows and sector fix the rest, so it is hashed and
    compared on their bytes, not on its identity."""

    def __init__(self, rows: np.ndarray, index: tuple[np.ndarray, ...]):
        self.rows, self.index, self.trace = _read_only(rows), index, TRACE_VECTOR[rows]
        self.first = np.cumsum([0] + [group.shape[0] for group in index])
        self.sector = np.empty(rows.size, dtype=int)
        for first, group in zip(self.first, index):
            self.sector[group] = first + np.arange(group.shape[0])[:, None]
        self._key = rows.tobytes() + self.sector.tobytes()

    # the group and place of the sector of entry 0: on the sectors of a
    # whole generator, that of the populations
    @functools.cached_property
    def populations(self) -> tuple[int, int]:
        g = int(np.searchsorted(self.first, self.sector[0], side="right")) - 1
        return g, int(self.sector[0] - self.first[g])

    def __hash__(self) -> int:
        return hash(self._key)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Sectors) and self._key == other._key


def _sector_blocks(op: OperatorEntries) -> tuple[_Sectors, list[np.ndarray]]:
    """The sector blocks of a 256 x 256 generator given as its entries.

    A sector is a connected component of the nonzero pattern of the
    generator, with the trace row joined to index 0, so that all
    populations share the sector of index 0; the stationary state, the
    trace-row solve and the deflation |rho0><trace| all lie inside it.
    Returns the _Sectors of the generator, cached on its pattern (their
    index holds, per sector size in increasing size, the read-only (count,
    dim) array of sorted sector indices), and the list of the (count, dim,
    dim) stacks of the generator's blocks on them, each an array of its own.
    """
    sectors, scatter = _block_plan(op.flat.tobytes())
    blocks = []
    for index, (entries, targets) in zip(sectors.index, scatter):
        count, dim = index.shape
        stack = np.zeros((count, dim, dim), dtype=complex)
        stack.reshape(-1)[targets] = op.values[entries]
        blocks.append(stack)
    return sectors, blocks


# one plan per nonzero pattern: a few recur (drive, detuning and drive
# phase zero or not), and the bound keeps arbitrary input matrices from
# growing the cache for good
@functools.lru_cache(maxsize=32)
def _block_plan(flat: bytes) -> tuple[_Sectors, tuple]:
    """The _Sectors of an operator whose entries lie at the flat positions
    given (OperatorEntries.flat as bytes) and where its entries go: per
    sector size, the entries whose row lies in a sector of that size and
    their flat targets in the (count, dim, dim) stack of blocks.  An entry
    links its row and its column, so both lie in one sector and every
    entry lands in a block."""
    rows, cols = np.divmod(np.frombuffer(flat, dtype=np.intp), LIOUVILLE_DIM)
    pattern = np.zeros((LIOUVILLE_DIM, LIOUVILLE_DIM), dtype=bool)
    pattern[rows, cols] = True
    pattern[0] |= TRACE_VECTOR != 0
    # i and j are linked when entry (i, j) or (j, i) is nonzero; each index
    # takes the smallest index linked to it until nothing changes, which
    # labels every component with its smallest member
    linked = pattern | pattern.T
    labels = np.arange(LIOUVILLE_DIM)
    while True:
        smallest = np.minimum(labels, np.where(linked, labels, LIOUVILLE_DIM).min(axis=1))
        if np.array_equal(smallest, labels):
            break
        labels = smallest
    sizes = np.bincount(labels, minlength=LIOUVILLE_DIM)
    index, scatter = [], []
    for dim in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
        group = np.stack([np.flatnonzero(labels == c) for c in np.flatnonzero(sizes == dim)])
        # where[r] = k dim + i for the i-th index r of sector k, so entry
        # (r, c), c the j-th index of that sector, goes to (k dim + i) dim + j
        where = np.full(LIOUVILLE_DIM, -1)
        where[group] = np.arange(group.size).reshape(group.shape)
        entries = np.flatnonzero(where[rows] >= 0)
        targets = where[rows[entries]] * dim + where[cols[entries]] % dim
        index.append(_read_only(group))
        scatter.append((_read_only(entries), _read_only(targets)))
    return _Sectors(np.arange(LIOUVILLE_DIM), tuple(index)), tuple(scatter)


def _trace_row_solve(matrix: np.ndarray, trace: np.ndarray = TRACE_VECTOR) -> np.ndarray:
    """Solve matrix @ rho = 0 subject to trace @ rho = 1 by replacing the
    first row of the system with the trace constraint; returns the flat rho."""
    a = matrix.copy()
    a[0, :] = trace
    b = np.zeros(a.shape[0], dtype=complex)
    b[0] = 1.0
    return np.linalg.solve(a, b)


def zeroth_steady_state(gen: np.ndarray) -> np.ndarray:
    """Unique trace-one stationary state of the free generator.

    Solves L rho = 0 with the first row of the system replaced by the
    trace constraint, on the sector of index 0 only, then verifies
    residual, Hermiticity, positivity and uniqueness of the stationary
    direction, the last by the SVD of L's own blocks: the reference, which
    assumes no Kronecker sum.  A NaN or infinite entry raises ValueError.
    """
    groups = _sector_blocks(OperatorEntries.from_dense(gen))
    return _steady_state(groups, {"generator": groups[1]})


def _steady_state(groups: tuple[_Sectors, list[np.ndarray]], generators: dict) -> np.ndarray:
    """zeroth_steady_state on the sector blocks of a generator, as
    _sector_blocks gives them, with the stationary direction's uniqueness
    decided on generators: each maps a name, which DegeneracyError quotes,
    to the blocks of one block-diagonal generator.

    build_expansion passes the atoms A and B of atom_blocks.  L0 is their
    Kronecker sum, so its eigenvalues are the sums alpha + beta of theirs
    (Horn & Johnson, Topics in Matrix Analysis, 4.4.5).  A Lindblad
    generator has Re lambda <= 0, and a decaying atom Re lambda < 0 off its
    stationary 0.  So alpha + beta = 0 only for alpha = beta = 0, and L0's
    zero eigenvalue is simple exactly when each atom's is.  Both facts are
    pinned in tests/test_generators.py, by
    test_free_generator_is_kron_sum_of_atom_blocks and
    test_atom_blocks_decay_off_their_stationary_direction.
    """
    sectors, blocks = groups
    # every nonzero entry of L, NaN and inf included, lies in one block
    if not all(np.isfinite(stack).all() for stack in blocks):
        raise ValueError("generator has non-finite entries")
    for name, generator in generators.items():
        sv = [np.linalg.svd(b, compute_uv=False) for b in generator]
        sv = np.sort(np.concatenate(sv, axis=None))[::-1]
        scale = max(sv[0], 1.0)
        if not sv[-2] >= DEGENERACY_TOL * scale:
            raise DegeneracyError(
                f"stationary subspace of {name} is degenerate (second singular "
                f"value {sv[-2]:.3e} vs scale {scale:.3e})"
            )
    g, k = sectors.populations
    populations, block = sectors.index[g][k], blocks[g][k]
    rho = np.zeros(LIOUVILLE_DIM, dtype=complex)
    rho[populations] = _trace_row_solve(block, TRACE_VECTOR[populations])
    rho = rho.reshape(HILBERT_DIM, HILBERT_DIM)
    rho = 0.5 * (rho + rho.conj().T)

    # L maps the sector into itself, so with rho zero outside it L rho is
    # the block times rho's entries there; the sector holds the transpose
    # of each of its entries for a generator that keeps Hermiticity
    if np.any(np.delete(rho.reshape(-1), populations)):
        raise RuntimeError("steady state reaches outside the sector of the populations")
    residual = np.linalg.norm(block @ rho.reshape(-1)[populations])
    if not residual <= 1e-10:
        raise RuntimeError(f"steady-state residual {residual:.3e} exceeds 1e-10")
    eigs = np.linalg.eigvalsh(rho)
    if not eigs.min() >= -1e-10:
        raise RuntimeError(f"steady state not positive semidefinite ({eigs.min():.3e})")
    return rho


class ResolventPoleError(RuntimeError):
    """Resolvent solve at a spectral point of the generator: the deflated
    system is singular or its solution fails the residual check."""


class DeflatedResolvent:
    """Sector-blocked solves of (L - z) X = B for traceless right-hand sides.

    The rank-one term |rho0><trace| moves the stationary eigenvalue of L
    from 0 to 1 and leaves the action on traceless vectors unchanged.  The
    deflated matrix minus z is therefore regular on the whole imaginary
    axis, z = 0 included, whenever the stationary direction is unique and
    all other modes decay, and its inverse keeps B traceless.

    The deflated matrix splits into the sectors of L (for the driven pair,
    one 36-dimensional population block, which holds the deflation, and 48
    smaller coherence blocks).  Sectors of equal size are stacked, so one
    solve is one batched LU with partial pivoting per size, and its
    residual is checked against the undeflated blocks of L.  No
    eigenvectors are formed, so exceptional points of L need no special
    treatment.

    groups is the pair (sectors, blocks) of L that _sector_blocks gives;
    the blocks are kept without a copy, but for the group that takes the
    deflation.  solve() factors every sector the resolvent holds, so a
    caller whose right-hand sides reach few sectors solves on restricted(),
    the same resolvent on those sectors only, its structure cached on this
    one's and the kept sectors (_restricted_sectors, 16 entries); rows
    lists the entries of the 256-vector that its vectors hold (all of them
    here).
    """

    def __init__(self, groups: tuple[_Sectors, list[np.ndarray]], rho0: np.ndarray):
        sectors, blocks = groups
        rho0 = np.asarray(rho0, dtype=complex).reshape(-1)
        # |rho0><trace| reaches only the trace's columns, the populations,
        # which all lie in the sector of index 0
        g, k = sectors.populations
        rows = sectors.index[g][k]
        deflated = list(blocks)
        deflated[g] = deflated[g].copy()
        deflated[g][k] += np.outer(rho0[rows], TRACE_VECTOR[rows])
        # per sector size, the stacks of the blocks of L and of the deflated
        # matrix
        self._sectors, self.rows = sectors, sectors.rows
        self._blocks, self._deflated = blocks, deflated

    def restricted(self, rows) -> "DeflatedResolvent":
        """The resolvent on the sectors that hold any of rows (indices into
        this resolvent's vectors), in compact coordinates.

        Its vectors hold the kept entries only, in their order here; its
        rows attribute names them as entries of the 256-vector.  L maps
        each sector into itself, so for a right-hand side that is 0 outside
        the kept sectors, solve() on the result gives the kept entries of
        solve() here, with the same traceless and residual checks.  Only
        the kept blocks are gathered, a size group kept whole as views.
        Empty rows keep no sector.
        """
        hit = np.zeros(self._sectors.first[-1], dtype=bool)
        hit[self._sectors.sector[rows]] = True
        sectors, groups = _restricted_sectors(self._sectors, hit.tobytes())
        out = object.__new__(DeflatedResolvent)
        out._sectors, out.rows = sectors, sectors.rows
        out._blocks = [self._blocks[g][places] for g, places in groups]
        out._deflated = [self._deflated[g][places] for g, places in groups]
        return out

    def solve(self, z, rhs: np.ndarray) -> np.ndarray:
        """Solve (L - z) X = B at one shift z or at each of a 1-d array of
        F shifts.

        B is a traceless n-vector or n x k block, shared by all shifts, or
        an F x n x k stack with one block per shift, where n is the length
        of rows (256 unless restricted).  X has the shape of B, with a
        leading axis of length F when z is an array.

        Every sector this resolvent holds is factored and solved, so
        callers restrict it (restricted()) to the sectors B reaches; X is 0
        on a sector where B is 0, and each column of X equals the solve of
        that column alone bit for bit.  A singular block raises
        ResolventPoleError, whether B reaches it or not; a NaN or infinite
        shift or entry of B raises ValueError before any solve.
        """
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        if not np.isfinite(zs).all():
            raise ValueError(f"shift must be finite, got z = {zs[~np.isfinite(zs)][0]}")
        b = np.asarray(rhs, dtype=complex)
        if not np.isfinite(b).all():
            raise ValueError("right-hand side has non-finite entries")
        tail = b.shape[1:] if b.ndim == 3 else b.shape
        # one block per shift, or one that all shifts share; a shared block
        # is checked once, not on each shift
        b = b[None] if b.ndim == 2 else b[None, :, None] if b.ndim == 1 else b
        squares = np.einsum("fnk,fnk->fk", b.conj(), b).real  # per column, for both checks
        trace = np.abs(self._sectors.trace @ b)
        if np.any(trace > 1e-10 * np.maximum(np.sqrt(squares), 1e-300)):
            raise ValueError(
                f"right-hand side must be traceless, trace = {np.max(trace):.3e}"
            )

        # +0.0 is the one shift whose bits are all zero; x - (+0.0) is x for
        # every x, -0.0 included, so there the blocks are solved unshifted
        unshifted = zs.tobytes() == bytes(16)
        x = np.empty((zs.size,) + b.shape[1:], dtype=complex)
        # squared norm of (L - z) X - B per shift: L is block diagonal in
        # the sectors, so it adds up over them
        squared = np.zeros(zs.size)
        for index, blocks, deflated in zip(self._sectors.index, self._blocks, self._deflated):
            b_r = b[:, index]
            count, dim = index.shape
            if unshifted:
                shifted = deflated[None]
            else:
                # one copy of the blocks per shift, then z off their
                # diagonals; for the population block, the largest
                # temporary of a sweep chunk (spectrum.SWEEP_CHUNK)
                shifted = np.empty((zs.size,) + deflated.shape, dtype=complex)
                shifted[...] = deflated
                shifted.reshape(zs.size, count, dim * dim)[:, :, ::dim + 1] -= zs[:, None, None]
            x_r = _batched_solve(shifted, b_r)
            # dropped before the residual's temporaries are made: glibc sets
            # its trim threshold from the largest block freed, this one, and
            # with it alive a 32-frequency call was trimmed and faulted back
            # in every time, about 3,100 minor faults per 600-point spectrum
            del shifted
            x[:, index] = x_r
            # one product per sector, over all shifts and columns
            xt = x_r.transpose(1, 2, 0, 3)
            lx = (blocks @ xt.reshape(count, dim, -1)).reshape(xt.shape)
            if not unshifted:
                lx -= zs[:, None] * xt
            lx -= b_r.transpose(1, 2, 0, 3)
            squared += np.einsum("cdfk,cdfk->f", lx.conj(), lx).real

        # the residual test also rejects non-finite input and output
        residual = np.sqrt(squared)
        bound = 1e-10 * np.maximum(np.sqrt(squares.sum(axis=1)), 1e-300)
        failed = np.flatnonzero(~(residual <= bound))
        if failed.size:
            f = failed[0]
            raise ResolventPoleError(
                f"deflated resolvent at z = {zs[f]} left residual {residual[f]:.3e}"
            )
        return x.reshape(zs.shape + tail if np.ndim(z) else tail)


@functools.lru_cache(maxsize=16)
def _restricted_sectors(parent: _Sectors, hit: bytes) -> tuple[_Sectors, tuple]:
    """The _Sectors of parent's resolvent on the sectors that hit marks (a
    bool per sector, as bytes), and (group, places of the kept sectors) per
    group that keeps any; the places are slice(None) where all are kept."""
    hit = np.frombuffer(hit, dtype=bool)
    kept = np.flatnonzero(hit[parent.sector])
    compact = np.full(parent.rows.size, -1)
    compact[kept] = np.arange(kept.size)
    places = [np.flatnonzero(hit[a:b]) for a, b in zip(parent.first[:-1], parent.first[1:])]
    groups = tuple((g, slice(None) if p.size == parent.index[g].shape[0] else p)
                   for g, p in enumerate(places) if p.size)
    index = tuple(compact[parent.index[g][p]] for g, p in groups)
    return _Sectors(parent.rows[kept], index), groups


def _batched_solve(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve over stacks, with NaN for each singular system; rhs
    may be a stack that broadcasts against the matrices."""
    try:
        return np.linalg.solve(matrices, rhs)
    except np.linalg.LinAlgError:
        rhs = np.broadcast_to(rhs, matrices.shape[:-1] + rhs.shape[-1:])
        out = np.full(rhs.shape, np.nan, dtype=complex)
        for idx in np.ndindex(matrices.shape[:-2]):
            try:
                out[idx] = np.linalg.solve(matrices[idx], rhs[idx])
            except np.linalg.LinAlgError:
                pass
        return out


@dataclass(frozen=True)
class PerturbativeState:
    """Order-resolved stationary state of the coupled pair.

    orders maps (m, n) to the coefficient of g^m conj(g)^n, to order
    (1, 1): (0, 0), (1, 0), (0, 1) and (1, 1).  Order (0, 0) is the product
    state of the uncoupled atoms.  The orders (2, 0) and (0, 2) are not
    formed: they carry a net distance phase exp(+-2 i k0 r) that averages
    to zero over the configuration, and no intensity or spectrum reads
    them.  The deflated resolvent of the free generator and the exchange
    generator V-, with which the orders were computed, are kept for the
    spectral sweep, which reads V- only; V- as its nonzero entries
    (OperatorEntries), not as a 256 x 256 array.
    """

    orders: dict
    resolvent: DeflatedResolvent = field(repr=False)
    v_minus: OperatorEntries = field(repr=False)

    def __getitem__(self, key: tuple[int, int]) -> np.ndarray:
        return self.orders[key]


def perturbative_corrections(
    free: np.ndarray,
    v_plus: np.ndarray,
    v_minus: np.ndarray,
    rho0: np.ndarray,
) -> PerturbativeState:
    """Expand the stationary state in g, conj(g) to order (1, 1).

    Two solve calls at z = 0 give the orders: one two-column solve for
    (1, 0) and (0, 1), so each sector either reaches is factored once for
    both, and one for (1, 1), whose right-hand side needs both.  The orders
    (2, 0) and (0, 2) are left out: their distance phase averages to zero
    and nothing reads them (see PerturbativeState).  V+- are applied from
    their nonzero entries, as in build_expansion.
    """
    return _corrections(
        DeflatedResolvent(_sector_blocks(OperatorEntries.from_dense(free)), rho0),
        OperatorEntries.from_dense(v_plus),
        OperatorEntries.from_dense(v_minus),
        rho0,
    )


def _corrections(
    resolvent: DeflatedResolvent,
    v_plus: OperatorEntries,
    v_minus: OperatorEntries,
    rho0: np.ndarray,
) -> PerturbativeState:
    """perturbative_corrections with the deflated resolvent of the free
    generator and the entries of V+- given."""

    def push(v: OperatorEntries, state: np.ndarray) -> np.ndarray:
        return -v.apply(state.reshape(-1))

    def solve(b: np.ndarray) -> np.ndarray:
        # on the sectors that hold the row of a nonzero entry of B, as the
        # sweep solves; X is 0 on all others
        reached = resolvent.restricted(np.nonzero(b)[0])
        x = np.zeros(b.shape, dtype=complex)
        x[reached.rows] = reached.solve(0.0, b[reached.rows])
        return x

    first = solve(np.stack([push(v_plus, rho0), push(v_minus, rho0)], axis=1))
    rho_10, rho_01 = np.ascontiguousarray(first.T).reshape(2, HILBERT_DIM, HILBERT_DIM)
    rho_11 = solve((push(v_plus, rho_01) + push(v_minus, rho_10))[:, None]).reshape(
        HILBERT_DIM, HILBERT_DIM
    )

    orders = {(0, 0): rho0, (1, 0): rho_10, (0, 1): rho_01, (1, 1): rho_11}
    for key, state in orders.items():
        if key == (0, 0):
            continue
        trace = abs(np.trace(state))
        if not trace <= 1e-12 * max(np.linalg.norm(state), 1e-300):
            raise RuntimeError(f"order {key} correction has trace {trace:.3e}")
    return PerturbativeState(orders, resolvent, v_minus)


def build_expansion(params: PhysParams, cfg: Configuration) -> PerturbativeState:
    """Generators, zeroth order and corrections without a 256 x 256 array.

    The sector blocks of the free generator are filled once from its
    entries, for the steady state and the resolvent alike, and V+- are
    applied from theirs; the steady state's degeneracy is decided on the
    two one-atom generators (atom_blocks).  Where both accept a point, the
    result equals perturbative_corrections(free, v_plus, v_minus,
    zeroth_steady_state(free)) on the dense generators bit for bit.
    """
    entries = free_entries(params, cfg.phi_L)
    groups = _sector_blocks(entries)
    atom_1, atom_2 = atom_blocks(entries)
    rho0 = _steady_state(groups, {"atom 1": [atom_1], "atom 2": [atom_2]})
    v_plus, v_minus = exchange_entries(cfg.n_hat, params.gamma)
    return _corrections(DeflatedResolvent(groups, rho0), v_plus, v_minus, rho0)


def checked_geometry_weight(weight: float) -> float:
    """Return the orientation factor, refusing orientations that give the
    helicity-preserving channel no double-scattering signal."""
    if not weight >= 1e-12:  # NaN fails too
        raise ValueError(
            "orientation is degenerate for the helicity-preserving channel "
            "(n_hat along the laser axis gives no double-scattering signal)"
        )
    return weight


def checked_order_11(pert: PerturbativeState) -> np.ndarray:
    """Return the order-(1, 1) state, refusing it with RuntimeError unless
    it is Hermitian to 1e-10 of its norm.

    The ladder intensity is real because rho_11 is Hermitian; the test is
    on the order itself, since the intensities scale with the orientation
    weight while the rounding noise of their imaginary parts scales with
    |rho_11|.
    """
    rho_11 = pert[(1, 1)]
    defect = np.linalg.norm(rho_11 - rho_11.conj().T)
    if not defect <= 1e-10 * np.linalg.norm(rho_11):
        raise RuntimeError(
            f"order (1, 1) is not Hermitian: defect {defect:.3e} of norm "
            f"{np.linalg.norm(rho_11):.3e}"
        )
    return rho_11


@dataclass(frozen=True)
class IntensityTerms:
    """Backscattered intensity at combined order g * conj(g).

    Values are quoted with the squared coupling modulus |g|^2 divided out
    and are assembled at exact backscattering; the angular dependence of
    the crossed term is mc_average's.  The orientation factor
    |e_{+1}.Delta.e_{+1}|^2 is still contained in the values and also
    recorded in geometry_weight.
    """

    ladder_total: float
    crossed_total: float
    ladder_elastic: float
    crossed_elastic: float
    ladder_inelastic: float
    crossed_inelastic: float
    geometry_weight: float

    def normalized(self) -> "IntensityTerms":
        """Divide out the orientation factor; the isotropic configuration
        average is then value * 2/15 in units of |g at the mean distance|^2."""
        w = checked_geometry_weight(self.geometry_weight)
        # every field, geometry_weight included: w / w is 1.0 exactly
        return IntensityTerms(*(getattr(self, f.name) / w for f in fields(self)))


class DetectedTransition(NamedTuple):
    """The detected transition 1 <-> 2 of both atoms, as
    detected_transition() caches it, read-only: raising[a - 1] is the
    raising dipole s_21 of atom a, and row b - 1 of lowering the functional
    X -> tr(s_12 X) of atom b on the flat 256-vector X."""

    raising: np.ndarray
    lowering: np.ndarray

    def pair(self, rho: np.ndarray) -> np.ndarray:
        """The atom-pair matrix of rho for channels(): entry [a - 1, b - 1]
        is tr(s_21 of atom a times s_12 of atom b times rho)."""
        return (rho @ self.raising).reshape(2, -1) @ self.lowering.T


@functools.cache
def detected_transition() -> DetectedTransition:
    """The DetectedTransition, built on first use."""
    raising = np.stack([transition_operator(atom, DETECTED_LEVEL, "raising") for atom in (1, 2)])
    # s_12 is the transpose of s_21, so tr(s_12 X) sums s_21 times X entrywise
    return DetectedTransition(_read_only(raising), _read_only(raising.reshape(2, -1)))


def channels(pair: np.ndarray, phi_L: float) -> tuple:
    """(ladder, crossed) of atom-pair matrices pair[..., a - 1, b - 1],
    source atom a and detection atom b: the ladder term is each atom's own
    light, Re(p11 + p22), the crossed term the two atoms' interference,
    Re(p12 exp(i phi_L) + p21 exp(-i phi_L)), where exact backscattering
    cancels the drive phase difference phi_L."""
    phase = np.exp(1j * phi_L)
    ladder = (pair[..., 0, 0] + pair[..., 1, 1]).real
    crossed = (pair[..., 0, 1] * phase + pair[..., 1, 0] * np.conj(phase)).real
    return ladder, crossed


def mean_dipole_orders(pert: PerturbativeState, atom: int) -> dict:
    """Order-resolved mean raising dipole <s_21> on the detected transition:
    trace(raising @ state), whose diagonal holds state[j, i] at row i for
    the four entries (i, j), all 1.0, of the raising dipole."""
    rows, cols = np.nonzero(detected_transition().raising[atom - 1])
    diagonal = np.zeros(HILBERT_DIM, dtype=complex)
    dipoles = {}
    for key, state in pert.orders.items():
        diagonal[rows] = state[cols, rows]
        dipoles[key] = complex(diagonal.sum())
    return dipoles


def intensity_terms(pert: PerturbativeState, cfg: Configuration) -> IntensityTerms:
    """Ladder and crossed intensities of the helicity-preserving channel.

    The totals are channels() of the pair matrix of rho_11; the elastic
    parts are those of A A^dagger, where row a - 1 of A holds the mean
    dipoles of atom a at orders (1, 0) and (0, 1), whose products make up
    combined order two.
    """
    rho_11 = checked_order_11(pert)
    ladder_total, crossed_total = channels(detected_transition().pair(rho_11), cfg.phi_L)
    dipoles = [mean_dipole_orders(pert, atom) for atom in (1, 2)]
    a = np.array([[d[(1, 0)], d[(0, 1)]] for d in dipoles])
    ladder_elastic, crossed_elastic = channels(a @ a.conj().T, cfg.phi_L)
    return IntensityTerms(
        ladder_total=ladder_total,
        crossed_total=crossed_total,
        ladder_elastic=ladder_elastic,
        crossed_elastic=crossed_elastic,
        ladder_inelastic=ladder_total - ladder_elastic,
        crossed_inelastic=crossed_total - crossed_elastic,
        geometry_weight=cfg.geometry_weight,
    )


def numeric_enhancement(params: PhysParams, cfg: Configuration) -> float:
    """Backscattering enhancement factor 1 + crossed/ladder from the
    master-equation expansion.  A ladder total that is not positive (an
    undriven pair scatters no light) raises ValueError."""
    checked_geometry_weight(cfg.geometry_weight)
    terms = intensity_terms(build_expansion(params, cfg), cfg)
    if not terms.ladder_total > 0:
        raise ValueError(
            f"ladder total {terms.ladder_total:.3e} is not positive: no light is scattered"
        )
    return 1.0 + terms.crossed_total / terms.ladder_total


def nonperturbative_intensity(params: PhysParams, cfg: Configuration) -> tuple[float, float]:
    """Order-(1, 1) intensities extracted without perturbation theory.

    Solves the full coupled steady state on a ring of RING_PHASES
    exchange-coupling phases and isolates the phase-neutral Fourier
    component of its pair matrix, which equals that of the (1, 1)
    coefficient up to relative corrections of order RING_COUPLING^2, and
    reads it through channels().  Returns (ladder_total,
    crossed_total) in units of |g|^2.
    """
    free = free_generator(params, cfg.phi_L)
    v_plus, v_minus = exchange_generators(cfg.n_hat, params.gamma)
    pair = 0.0
    for k in range(RING_PHASES):
        g = RING_COUPLING * np.exp(2j * np.pi * k / RING_PHASES)
        rho = _trace_row_solve(free + g * v_plus + np.conj(g) * v_minus)
        pair += detected_transition().pair(rho.reshape(HILBERT_DIM, HILBERT_DIM))
    return channels(pair / RING_PHASES / RING_COUPLING**2, cfg.phi_L)
