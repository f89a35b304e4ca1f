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
build_expansion makes one sector pass per parameter point, whose sector
blocks both the steady state and the resolvent read, and two solve calls
at z = 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .generators import (
    HILBERT_DIM,
    LIOUVILLE_DIM,
    TRACE_VECTOR,
    exchange_generators,
    free_generator,
    transition_operator,
)
from .geometry import Configuration, PhysParams


class DegeneracyError(RuntimeError):
    """The free generator has more than one stationary direction."""


def _sectors(matrix: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index sets of the sectors of a generator that never couple.

    A sector is a connected component of the nonzero pattern of the
    matrix, with the trace row joined to index 0, so that all populations
    share the sector of index 0; the stationary state, the trace-row solve
    and the deflation |rho0><trace| all lie inside it.  Returns one
    (count, dim) array of sorted indices per sector size, in increasing
    size, cached on the pattern and read-only.
    """
    pattern = matrix != 0
    if pattern.shape != (LIOUVILLE_DIM, LIOUVILLE_DIM):
        raise ValueError(
            f"generator must be {LIOUVILLE_DIM} x {LIOUVILLE_DIM}, got shape {pattern.shape}"
        )
    return _sectors_of(np.packbits(pattern).tobytes())


# a few patterns recur (drive, detuning zero or not); the bound keeps
# arbitrary input matrices from growing the cache for the life of the process
@functools.lru_cache(maxsize=32)
def _sectors_of(packed: bytes) -> tuple[np.ndarray, ...]:
    size = LIOUVILLE_DIM * LIOUVILLE_DIM
    pattern = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=size).astype(bool)
    pattern = pattern.reshape(LIOUVILLE_DIM, LIOUVILLE_DIM)
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
    sectors = tuple(
        np.stack([np.flatnonzero(labels == c) for c in np.flatnonzero(sizes == size)])
        for size in np.flatnonzero(np.bincount(sizes)[1:]) + 1
    )
    for array in sectors:
        array.flags.writeable = False
    return sectors


def _trace_row_solve(matrix: np.ndarray, trace: np.ndarray = TRACE_VECTOR) -> np.ndarray:
    """Solve matrix @ rho = 0 subject to trace @ rho = 1 by replacing the
    first row of the system with the trace constraint; returns the flat rho."""
    a = matrix.copy()
    a[0, :] = trace
    b = np.zeros(a.shape[0], dtype=complex)
    b[0] = 1.0
    return np.linalg.solve(a, b)


def _sector_blocks(gen: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per sector size (see _sectors), the (count, dim) sector indices and
    the (count, dim, dim) stack of the diagonal blocks of gen on them,
    gathered into arrays of their own."""
    return [(index, gen[index[:, :, None], index[:, None, :]]) for index in _sectors(gen)]


def zeroth_steady_state(gen: np.ndarray) -> np.ndarray:
    """Unique trace-one stationary state of the free generator.

    Solves L rho = 0 with the first row of the system replaced by the
    trace constraint, on the sector of index 0 only, then verifies
    residual, Hermiticity, positivity and uniqueness of the stationary
    direction.  A NaN or infinite entry of L raises ValueError.
    """
    return _steady_state(gen, _sector_blocks(gen))


def _steady_state(gen: np.ndarray, groups) -> np.ndarray:
    """zeroth_steady_state on the sector blocks of gen, as _sector_blocks
    gives them."""
    # L is block diagonal in its sectors, so its singular values are those
    # of its blocks; every nonzero entry, NaN and inf included, lies in one
    if not all(np.isfinite(blocks).all() for _, blocks in groups):
        raise ValueError("generator has non-finite entries")
    sv = np.sort(
        np.concatenate([np.linalg.svd(b, compute_uv=False).ravel() for _, b in groups])
    )[::-1]
    scale = max(sv[0], 1.0)
    if sv[-2] < 1e-8 * scale:
        raise DegeneracyError(
            f"stationary subspace is degenerate (second singular value "
            f"{sv[-2]:.3e} vs scale {scale:.3e})"
        )

    populations, block = next(
        (index[k], blocks[k])
        for index, blocks in groups
        for k in np.flatnonzero(index[:, 0] == 0)
    )
    rho = np.zeros(LIOUVILLE_DIM, dtype=complex)
    rho[populations] = _trace_row_solve(block, TRACE_VECTOR[populations])
    rho = rho.reshape(HILBERT_DIM, HILBERT_DIM)
    rho = 0.5 * (rho + rho.conj().T)

    residual = np.linalg.norm(gen @ rho.reshape(-1))
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

    restricted() gives the same resolvent on some of the sectors only;
    rows lists the entries of the 256-vector that its vectors hold (all of
    them here).
    """

    def __init__(self, gen: np.ndarray, rho0: np.ndarray):
        self._deflate(_sector_blocks(gen), rho0)

    @classmethod
    def _from_blocks(cls, groups, rho0: np.ndarray) -> "DeflatedResolvent":
        """The resolvent on the sector blocks groups, as _sector_blocks
        gives them; it keeps them, without a copy."""
        out = object.__new__(cls)
        out._deflate(groups, rho0)
        return out

    def _deflate(self, groups, rho0: np.ndarray) -> None:
        rho0 = np.asarray(rho0, dtype=complex).reshape(-1)
        deflated_groups = []
        for index, blocks in groups:
            deflated = blocks.copy()
            # |rho0><trace| reaches only the trace's columns, the
            # populations, which all lie in the sector of index 0
            for k in np.flatnonzero(index[:, 0] == 0):
                rows = index[k]
                deflated[k] += np.outer(rho0[rows], TRACE_VECTOR[rows])
            deflated_groups.append((index, blocks, deflated))
        self._setup(TRACE_VECTOR, np.arange(LIOUVILLE_DIM), deflated_groups)

    def _setup(self, trace, rows, groups) -> None:
        # rows: the entries of the 256-vector that this resolvent's vectors
        # hold, in order; groups: per sector size, a (count, dim) array of
        # sector indices into those vectors and the (count, dim, dim) stacks
        # of the diagonal blocks of L and of the deflated matrix
        self._trace, self.rows, self._groups = trace, rows, groups
        self._order = np.concatenate([index.reshape(-1) for index, *_ in groups])
        self._unorder = np.argsort(self._order)
        self._eyes = [np.eye(index.shape[1]) for index, *_ in groups]
        # the sector number of each entry; the sectors of group g are
        # numbered from self._first[g] on
        self._sector = np.empty(rows.size, dtype=int)
        self._first = np.cumsum([0] + [index.shape[0] for index, *_ in groups])
        for first, (index, *_) in zip(self._first, groups):
            self._sector[index] = first + np.arange(index.shape[0])[:, None]

    def sector_closure(self, rows) -> np.ndarray:
        """Sorted indices of all entries of the sectors that hold any of
        rows (indices into this resolvent's vectors)."""
        # sector numbers are below the number of entries
        hit = np.zeros(self.rows.size, dtype=bool)
        hit[self._sector[rows]] = True
        return np.flatnonzero(hit[self._sector])

    def restricted(self, rows) -> "DeflatedResolvent":
        """The resolvent on the sectors that hold any of rows (indices into
        this resolvent's vectors), in compact coordinates.

        Its vectors hold the kept entries only, in their order here; its
        rows attribute names them as entries of the 256-vector.  L maps
        each sector into itself, so for a right-hand side that is 0 outside
        the kept sectors, solve() on the result gives the kept entries of
        solve() here, with the same traceless and residual checks.
        """
        kept = self.sector_closure(rows)
        compact = np.full(self.rows.size, -1)
        compact[kept] = np.arange(kept.size)
        groups = []
        for index, *blocks in self._groups:
            hit = compact[index[:, 0]] >= 0
            if hit.any():
                groups.append((compact[index[hit]], *(b[hit] for b in blocks)))
        out = object.__new__(DeflatedResolvent)
        out._setup(self._trace[kept], self.rows[kept], groups)
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
        B reaches it; a NaN or infinite entry of B raises ValueError
        before any solve.
        """
        n = self.rows.size
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        b = np.asarray(rhs, dtype=complex)
        if not np.isfinite(b).all():
            raise ValueError("right-hand side has non-finite entries")
        tail = b.shape[1:] if b.ndim == 3 else b.shape
        per_shift = b.reshape(-1, n, 1 if b.ndim == 1 else b.shape[-1])
        stack = np.broadcast_to(per_shift, (zs.size,) + per_shift.shape[1:])
        trace = np.abs(self._trace @ stack)
        if np.any(trace > 1e-10 * np.maximum(np.linalg.norm(stack, axis=1), 1e-300)):
            raise ValueError(
                f"right-hand side must be traceless, trace = {np.max(trace):.3e}"
            )

        # live[s, c]: column c of B has a nonzero entry in sector s, for
        # some shift; the other columns keep their B there, signed zeros
        # included
        live = np.zeros((self._first[-1], stack.shape[2]), dtype=bool)
        entries, columns = np.nonzero(np.any(per_shift != 0, axis=0))
        live[self._sector[entries], columns] = True
        gathered = stack[:, self._order, :]
        # squared norm of (L - z) X - B per shift: L is block diagonal in
        # the sectors and X and B are 0 outside the solved ones, so it adds
        # up over those
        squared = np.zeros(zs.size)
        start = 0
        for (index, blocks, deflated), first, eye in zip(self._groups, self._first, self._eyes):
            count, dim = index.shape
            # a view: solutions written to it land in gathered
            slab = gathered[:, start:start + index.size, :].reshape(zs.size, count, dim, -1)
            start += index.size
            reached = np.flatnonzero(live[first:first + count].any(axis=1))
            if reached.size:
                shift = zs[:, None, None, None]
                b_r = slab[:, reached]
                x_r = _batched_solve(deflated[reached] - shift * eye, b_r)
                columns = live[first + reached][:, None, :]
                if not columns.all():
                    x_r = np.where(columns, x_r, b_r)
                slab[:, reached] = x_r
                # one product per sector, over all shifts and columns
                lx = blocks[reached] @ x_r.transpose(1, 2, 0, 3).reshape(reached.size, dim, -1)
                lx = lx.reshape(reached.size, dim, zs.size, -1).transpose(2, 0, 1, 3)
                squared += np.sum(np.abs(lx - shift * x_r - b_r) ** 2, axis=(1, 2, 3))
        # full-size (F, n, k) temporaries are freed or reused early, to
        # keep a sweep chunk under glibc's trim threshold (spectrum.SWEEP_CHUNK)
        x = gathered[:, self._unorder, :]
        del gathered

        # the residual test also rejects non-finite input and output
        residual = np.sqrt(squared)
        bound = 1e-10 * np.maximum(np.linalg.norm(stack, axis=(1, 2)), 1e-300)
        failed = np.flatnonzero(~(residual <= bound))
        if failed.size:
            f = failed[0]
            raise ResolventPoleError(
                f"deflated resolvent at z = {zs[f]} left residual {residual[f]:.3e}"
            )
        return x.reshape(zs.shape + tail if np.ndim(z) else tail)


def _batched_solve(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve over stacks, with NaN for each singular system."""
    try:
        return np.linalg.solve(matrices, rhs)
    except np.linalg.LinAlgError:
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
    generators, with which the orders were computed, are kept for the
    spectral sweep.
    """

    orders: dict
    resolvent: DeflatedResolvent = field(repr=False)
    v_plus: np.ndarray = field(repr=False)
    v_minus: np.ndarray = field(repr=False)

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
    and nothing reads them (see PerturbativeState).
    """
    return _corrections(DeflatedResolvent(free, rho0), v_plus, v_minus, rho0)


def _corrections(
    resolvent: DeflatedResolvent,
    v_plus: np.ndarray,
    v_minus: np.ndarray,
    rho0: np.ndarray,
) -> PerturbativeState:
    """perturbative_corrections with the deflated resolvent of the free
    generator given."""

    def push(v: np.ndarray, state: np.ndarray) -> np.ndarray:
        return -(v @ state.reshape(-1))

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
        if trace > 1e-12 * max(np.linalg.norm(state), 1e-300):
            raise RuntimeError(f"order {key} correction has trace {trace:.3e}")
    return PerturbativeState(orders, resolvent, v_plus, v_minus)


def build_expansion(params: PhysParams, cfg: Configuration) -> PerturbativeState:
    """Generators, zeroth order and corrections in one sector pass.

    The free generator is split into its sectors once and each sector
    block is gathered once, for the steady state and the resolvent alike;
    the result equals perturbative_corrections(free, v_plus, v_minus,
    zeroth_steady_state(free)) bit for bit.
    """
    # both generators are allocated before the sector pass: allocating
    # V+- after it, with the free generator alive, raised the peak memory
    # of a long run of expansions by about 2 MiB
    free = free_generator(params, cfg.phi_L)
    v_plus, v_minus = exchange_generators(cfg.n_hat, params.gamma)
    groups = _sector_blocks(free)
    rho0 = _steady_state(free, groups)
    return _corrections(DeflatedResolvent._from_blocks(groups, rho0), v_plus, v_minus, rho0)


def checked_geometry_weight(weight: float) -> float:
    """Return the orientation factor, refusing orientations that give the
    helicity-preserving channel no double-scattering signal."""
    if weight < 1e-12:
        raise ValueError(
            "orientation is degenerate for the helicity-preserving channel "
            "(n_hat along the laser axis gives no double-scattering signal)"
        )
    return weight


@dataclass(frozen=True)
class IntensityTerms:
    """Backscattered intensity at combined order g * conj(g).

    Values are quoted with the squared coupling modulus |g|^2 divided out.
    The orientation factor |e_{+1}.Delta.e_{+1}|^2 is still contained in
    the values and also recorded in geometry_weight; phase_cos records the
    crossed-term fringe factor cos((k + k_L) . r_12), which is 1 at exact
    backscattering where the internal assembly is performed.
    """

    ladder_total: float
    crossed_total: float
    ladder_elastic: float
    crossed_elastic: float
    ladder_inelastic: float
    crossed_inelastic: float
    geometry_weight: float
    phase_cos: float

    def normalized(self) -> "IntensityTerms":
        """Divide out the orientation factor; the isotropic configuration
        average is then value * 2/15 in units of |g at the mean distance|^2."""
        w = checked_geometry_weight(self.geometry_weight)
        return IntensityTerms(
            ladder_total=self.ladder_total / w,
            crossed_total=self.crossed_total / w,
            ladder_elastic=self.ladder_elastic / w,
            crossed_elastic=self.crossed_elastic / w,
            ladder_inelastic=self.ladder_inelastic / w,
            crossed_inelastic=self.crossed_inelastic / w,
            geometry_weight=1.0,
            phase_cos=self.phase_cos,
        )


def mean_dipole_orders(pert: PerturbativeState, atom: int) -> dict:
    """Order-resolved mean raising dipole <s_21> on the detected transition."""
    raising = transition_operator(atom, 2, "raising")
    return {
        key: complex(np.trace(raising @ state)) for key, state in pert.orders.items()
    }


def intensity_terms(pert: PerturbativeState, cfg: Configuration) -> IntensityTerms:
    """Ladder and crossed intensities of the helicity-preserving channel.

    The ladder term sums the single-atom populations of the detected
    level; the crossed term is the two-atom interference contribution,
    assembled at exact backscattering where the detection phase cancels
    the drive phase difference.  Elastic parts are products of mean
    dipoles of combined order two.
    """
    rho_11 = pert[(1, 1)]
    phase = np.exp(1j * cfg.phi_L)

    # the ladder total is real because rho_11 is Hermitian; test that on
    # the order itself, since the total scales with the orientation weight
    # while the rounding noise of its imaginary part scales with |rho_11|
    defect = np.linalg.norm(rho_11 - rho_11.conj().T)
    if not defect <= 1e-10 * np.linalg.norm(rho_11):
        raise RuntimeError(
            f"order (1, 1) is not Hermitian: defect {defect:.3e} of norm "
            f"{np.linalg.norm(rho_11):.3e}"
        )
    proj_1 = transition_operator(1, 2, "projector")
    proj_2 = transition_operator(2, 2, "projector")
    ladder_total = np.trace((proj_1 + proj_2) @ rho_11).real

    cross_op = transition_operator(1, 2, "raising") @ transition_operator(
        2, 2, "lowering"
    )
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
        phase_cos=1.0 if cfg.theta == 0 else float(np.cos(
            2.0 * cfg.k0_r * np.sin(0.5 * cfg.theta) * cfg.n_hat[0]
        )),
    )


def numeric_enhancement(params: PhysParams, cfg: Configuration) -> float:
    """Backscattering enhancement factor 1 + crossed/ladder from the
    master-equation expansion."""
    checked_geometry_weight(cfg.geometry_weight)
    terms = intensity_terms(build_expansion(params, cfg), cfg)
    return 1.0 + terms.crossed_total / terms.ladder_total


def nonperturbative_intensity(
    params: PhysParams,
    cfg: Configuration,
    g_mag: float = 1e-3,
    n_phases: int = 8,
) -> tuple[float, float]:
    """Order-(1, 1) intensities extracted without perturbation theory.

    Solves the full coupled steady state on a ring of exchange-coupling
    phases and isolates the phase-neutral Fourier component, which equals
    the (1, 1) coefficient up to relative corrections of order g_mag^2.
    Returns (ladder_total, crossed_total) in units of |g|^2.
    """
    free = free_generator(params, cfg.phi_L)
    v_plus, v_minus = exchange_generators(cfg.n_hat, params.gamma)
    proj_sum = (
        transition_operator(1, 2, "projector") + transition_operator(2, 2, "projector")
    ).reshape(-1)
    cross_op = (
        transition_operator(1, 2, "raising") @ transition_operator(2, 2, "lowering")
    )
    cross_vec = cross_op.T.reshape(-1)

    ladder_acc = 0.0
    cross_acc = 0.0 + 0.0j
    for k in range(n_phases):
        g = g_mag * np.exp(2j * np.pi * k / n_phases)
        rho = _trace_row_solve(free + g * v_plus + np.conj(g) * v_minus)
        ladder_acc += (proj_sum @ rho).real
        cross_acc += cross_vec @ rho
    ladder = ladder_acc / n_phases / g_mag**2
    t_pair = cross_acc / n_phases / g_mag**2
    crossed = 2.0 * (t_pair * np.exp(1j * cfg.phi_L)).real
    return ladder, crossed
