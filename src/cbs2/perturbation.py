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
orders.  A Cholesky certificate decides the steady state's degeneracy
check; an SVD runs only where it fails, at detuning 1e6 or omega from
1e7 on.  The dense free_generator, zeroth_steady_state and
perturbative_corrections, which read their arrays through
OperatorEntries.from_dense, stay the public reference and give the same
bits.  Structure is computed once per sector pattern, so a parameter
point does value work only, in three LRU caches keyed on content:
_block_plan (32 entries) on the entries' positions, _restricted_sectors
(16) on a structure and the kept sectors, _solve_plan (128) on a
structure, the column count and the nonzero pattern of B.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

import numpy as np

from .generators import (
    DETECTED_LEVEL,
    HILBERT_DIM,
    LIOUVILLE_DIM,
    TRACE_VECTOR,
    OperatorEntries,
    _read_only,
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

#: Singular values of L below DEGENERACY_TOL * max(largest, 1) count as zero.
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
    direction, the last by _certified or, only where that fails, an SVD
    (DEGENERACY_TOL).  A NaN or infinite entry of L raises ValueError.
    """
    return _steady_state(_sector_blocks(OperatorEntries.from_dense(gen)))


def _steady_state(groups: tuple[_Sectors, list[np.ndarray]]) -> np.ndarray:
    """zeroth_steady_state on the sector blocks of a generator, as
    _sector_blocks gives them; the SVD runs only where _certified fails."""
    sectors, blocks = groups
    # every nonzero entry of L, NaN and inf included, lies in one block
    if not all(np.isfinite(stack).all() for stack in blocks):
        raise ValueError("generator has non-finite entries")
    g, k = sectors.populations
    populations, block = sectors.index[g][k], blocks[g][k]
    if not _certified(blocks, g, k, TRACE_VECTOR[populations]):
        # L is block diagonal, so its singular values are those of its blocks
        sv = [np.linalg.svd(b, compute_uv=False) for b in blocks]
        sv = np.sort(np.concatenate(sv, axis=None))[::-1]
        scale = max(sv[0], 1.0)
        if not sv[-2] >= DEGENERACY_TOL * scale:
            raise DegeneracyError(
                f"stationary subspace is degenerate (second singular value "
                f"{sv[-2]:.3e} vs scale {scale:.3e})"
            )
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


def _certified(blocks: list[np.ndarray], g: int, k: int, trace: np.ndarray) -> bool:
    """True only where the SVD check of _steady_state passes, proven without
    an SVD; block k of group g is the population block P.

    With F the largest Frobenius norm of A or a block, t = DEGENERACY_TOL *
    max(F, 1) is at least the check's threshold.  A, P with row 0 replaced by
    the trace row, is a rank-one change of P, so Weyl's inequality
    sigma_{i+j-1}(X + Y) <= sigma_i(X) + sigma_j(Y) (Horn & Johnson, Topics
    in Matrix Analysis, 3.3) gives sigma_min(A) <= sigma_{n-1}(P): if
    sigma_min(M) >= t for A and every other block M, sv[-2] >= t.  For n x n
    M that holds if fl(M* M) - tau I, tau = t^2 + 4 (n + 1) u ||M||_F^2, u =
    2^-53, has a Cholesky factor: the product, the subtraction and the
    factorization err by (n + 2) u, u and (n + 2) u times ||M||_F^2 in the
    2-norm to first order (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.5-3.6 and 10.1).  Any DEGENERACY_TOL keeps the
    proof; a smaller one only fails it more often.  A non-finite factor,
    which LAPACK need not flag, fails it.
    """
    stacks = blocks[:g] + [blocks[g].copy()] + blocks[g + 1:]
    stacks[g][k, 0] = trace
    grams = [m.conj().swapaxes(1, 2) @ m for m in stacks]
    diagonals = [np.einsum("kii->ki", gram) for gram in grams]
    squares = [d.real.sum(axis=1) for d in diagonals]
    top = max(np.vdot(blocks[g][k], blocks[g][k]).real, *(sq.max() for sq in squares))
    t2, u = (DEGENERACY_TOL * max(np.sqrt(top), 1.0)) ** 2, np.finfo(float).eps / 2
    for diagonal, sq in zip(diagonals, squares):
        diagonal -= t2 + 4 * (diagonal.shape[1] + 1) * u * sq[:, None]
    try:
        return all(np.isfinite(np.linalg.cholesky(gram)).all() for gram in grams)
    except np.linalg.LinAlgError:
        return False


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
    deflation.  restricted() gives the same resolvent on some of the
    sectors only, its structure cached on this one's and the kept sectors
    (_restricted_sectors, 16 entries); rows lists the entries of the
    256-vector that its vectors hold (all of them here).
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
        the kept blocks are gathered.  Empty rows keep no sector.
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

        Only the sectors where B has a nonzero entry, for some shift or
        column, are factored and solved; X is exactly 0 on all others.  A
        column keeps its B, all zeros, on the solved sectors it does not
        reach, so each column of X equals the solve of that column alone
        bit for bit.  A singular block raises ResolventPoleError only when
        B reaches it; a NaN or infinite shift or entry of B raises
        ValueError before any solve.  Where each size group works is cached
        on the structure, the column count and the packed nonzero pattern of
        B (_solve_plan, 128 entries).
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

        nonzero = np.any(b, axis=0)
        plan = _solve_plan(self._sectors, b.shape[2], np.packbits(nonzero).tobytes())
        # +0.0 is the one shift whose bits are all zero; x - (+0.0) is x for
        # every x, -0.0 included, so there the blocks are solved unshifted
        unshifted = zs.tobytes() == bytes(16)
        x = np.empty((zs.size,) + b.shape[1:], dtype=complex)
        x[...] = b
        # squared norm of (L - z) X - B per shift: L is block diagonal in
        # the sectors and X and B are 0 outside the solved ones, so it adds
        # up over those
        squared = np.zeros(zs.size)
        for g, reached, where, columns in plan:
            b_r = b[where]
            deflated = self._deflated[g][reached]
            count, dim = deflated.shape[:2]
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
            del shifted, deflated
            if columns is not None:
                x_r = np.where(columns, x_r, b_r)
            x[where] = x_r
            # one product per sector, over all shifts and columns
            xt = x_r.transpose(1, 2, 0, 3)
            lx = (self._blocks[g][reached] @ xt.reshape(count, dim, -1)).reshape(xt.shape)
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
    group that keeps any."""
    hit = np.frombuffer(hit, dtype=bool)
    kept = np.flatnonzero(hit[parent.sector])
    compact = np.full(parent.rows.size, -1)
    compact[kept] = np.arange(kept.size)
    places = [np.flatnonzero(hit[a:b]) for a, b in zip(parent.first[:-1], parent.first[1:])]
    groups = tuple((g, p) for g, p in enumerate(places) if p.size)
    index = tuple(compact[parent.index[g][p]] for g, p in groups)
    return _Sectors(parent.rows[kept], index), groups


# a few patterns recur per structure; the bound keeps arbitrary right-hand
# sides from growing the cache for good
@functools.lru_cache(maxsize=128)
def _solve_plan(sectors: _Sectors, columns: int, pattern: bytes) -> tuple:
    """Where solve() works for a B of that many columns whose nonzero
    pattern over all shifts np.packbits packed: per group with a reached
    sector, the group, the reached sectors (a slice when all are), the
    index into B of their rows and used columns, and their (reached, 1,
    used) live mask, None when all are live."""
    nonzero = np.unpackbits(np.frombuffer(pattern, dtype=np.uint8), count=sectors.rows.size * columns)
    entries, cols = np.nonzero(nonzero.reshape(sectors.rows.size, columns))
    live = np.zeros((sectors.first[-1], columns), dtype=bool)
    live[sectors.sector[entries], cols] = True
    plan = []
    for g, index in enumerate(sectors.index):
        group = live[sectors.first[g]:sectors.first[g + 1]]
        reached, used = np.flatnonzero(group.any(axis=1)), np.flatnonzero(group.any(axis=0))
        if reached.size:
            mask = group[reached][:, None, used]
            reached = slice(None) if reached.size == index.shape[0] else reached
            where = (slice(None), index[reached][:, :, None], used)
            plan.append((g, reached, where, None if mask.all() else mask))
    return tuple(plan)


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
    (1, 0) and (0, 1), so each reached sector is factored once for both,
    and one for (1, 1), whose right-hand side needs both.  The orders
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

    first = resolvent.solve(0.0, np.stack([push(v_plus, rho0), push(v_minus, rho0)], axis=1))
    rho_10, rho_01 = np.ascontiguousarray(first.T).reshape(2, HILBERT_DIM, HILBERT_DIM)
    rho_11 = resolvent.solve(0.0, push(v_plus, rho_01) + push(v_minus, rho_10)).reshape(
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
    applied from theirs; the result equals
    perturbative_corrections(free, v_plus, v_minus,
    zeroth_steady_state(free)) on the dense generators bit for bit.
    """
    groups = _sector_blocks(free_entries(params, cfg.phi_L))
    rho0 = _steady_state(groups)
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


@functools.cache
def _detected_operators() -> tuple[np.ndarray, np.ndarray]:
    """The operators of the detected channel, cached and read-only: the
    populations of the detected level summed over both atoms (ladder) and
    the raising dipole of atom 1 times the lowering dipole of atom 2
    (crossed)."""
    populations = transition_operator(1, DETECTED_LEVEL, "projector") + transition_operator(
        2, DETECTED_LEVEL, "projector"
    )
    cross_op = transition_operator(1, DETECTED_LEVEL, "raising") @ transition_operator(
        2, DETECTED_LEVEL, "lowering"
    )
    return _read_only(populations), _read_only(cross_op)


def mean_dipole_orders(pert: PerturbativeState, atom: int) -> dict:
    """Order-resolved mean raising dipole <s_21> on the detected transition:
    trace(raising @ state), whose diagonal holds state[j, i] at row i for
    the four entries (i, j), all 1.0, of the raising dipole."""
    rows, cols = np.nonzero(transition_operator(atom, DETECTED_LEVEL, "raising"))
    diagonal = np.zeros(HILBERT_DIM, dtype=complex)
    dipoles = {}
    for key, state in pert.orders.items():
        diagonal[rows] = state[cols, rows]
        dipoles[key] = complex(diagonal.sum())
    return dipoles


def intensity_terms(pert: PerturbativeState, cfg: Configuration) -> IntensityTerms:
    """Ladder and crossed intensities of the helicity-preserving channel.

    The ladder term sums the single-atom populations of the detected
    level; the crossed term is the two-atom interference contribution,
    assembled at exact backscattering where the detection phase cancels
    the drive phase difference.  Elastic parts are products of mean
    dipoles of combined order two.
    """
    rho_11 = checked_order_11(pert)
    phase = np.exp(1j * cfg.phi_L)
    populations, cross_op = _detected_operators()
    ladder_total = np.trace(populations @ rho_11).real
    crossed_total = 2.0 * (complex(np.trace(cross_op @ rho_11)) * phase).real

    d1 = mean_dipole_orders(pert, 1)
    d2 = mean_dipole_orders(pert, 2)
    ladder_elastic = sum(
        abs(d[(1, 0)]) ** 2 + abs(d[(0, 1)]) ** 2 for d in (d1, d2)
    )
    pair = d1[(1, 0)] * np.conj(d2[(1, 0)]) + d1[(0, 1)] * np.conj(d2[(0, 1)])
    crossed_elastic = 2.0 * (pair * phase).real

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
    component, which equals the (1, 1) coefficient up to relative
    corrections of order RING_COUPLING^2.  Returns (ladder_total,
    crossed_total) in units of |g|^2.
    """
    free = free_generator(params, cfg.phi_L)
    v_plus, v_minus = exchange_generators(cfg.n_hat, params.gamma)
    populations, cross_op = _detected_operators()
    proj_sum = populations.reshape(-1)
    cross_vec = cross_op.T.reshape(-1)

    ladder_acc = 0.0
    cross_acc = 0.0 + 0.0j
    for k in range(RING_PHASES):
        g = RING_COUPLING * np.exp(2j * np.pi * k / RING_PHASES)
        rho = _trace_row_solve(free + g * v_plus + np.conj(g) * v_minus)
        ladder_acc += (proj_sum @ rho).real
        cross_acc += cross_vec @ rho
    ladder = ladder_acc / RING_PHASES / RING_COUPLING**2
    t_pair = cross_acc / RING_PHASES / RING_COUPLING**2
    crossed = 2.0 * (t_pair * np.exp(1j * cfg.phi_L)).real
    return ladder, crossed
