"""Spectrum of the backscattered light at double-scattering order.

The two-time dipole correlators follow from the quantum regression
theorem: each one evolves an operator-valued initial condition under the
stationary generator and is Laplace-transformed with a resolvent.  The
elastic (delta-peaked) component is removed from the initial conditions
order by order, which leaves strictly decaying sources; the spectral
density can then be evaluated directly on the real frequency axis,
including nu = 0, through deflated resolvent solves.  The drive's
selection rule zeroes the sources s00 and s01 (regression_sources checks
both), so the sweep is two stages: s10 on the population sector, then
s11 + V- R s10 on the sectors the detection functionals read.

Densities are stored against nu in units of gamma and normalized exactly
like IntensityTerms.normalized(), so integrating the inelastic density
and adding the elastic weight reproduces the normalized intensity totals.
The default grid puts tan-mapped Gauss-Legendre segments on the clusters
of the pair's dressed-state lines, the last reaching infinity, so its
weights integrate over the whole line; SpectrumEngine.spectrum checks that
closure on every spectrum it returns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .generators import DETECTED_LEVEL, _read_only, transition_operator
from .geometry import Configuration, PhysParams, require_finite
from .perturbation import (
    PerturbativeState,
    ResolventPoleError,
    build_expansion,
    checked_geometry_weight,
    checked_order_11,
    intensity_terms,
    mean_dipole_orders,
)

#: Frequencies per batched resolvent call in SpectrumEngine.densities.
#: Batching amortizes the per-call overhead.  Timed in fresh processes at
#: omega = 1, 3 and 100 (600-point default grids, 2-vCPU host), a spectrum
#: takes a median 74-102 ms at 8 frequencies per call, 52-69 ms at 16,
#: 42-61 ms at 32 and 36-71 ms at 64.  A call peaks at 0.46/0.90/1.80 MiB
#: at 16/32/64 frequencies (tracemalloc), mostly the per-shift copies of
#: the 36-dimensional population block, which DeflatedResolvent.solve
#: drops before it forms the residual, so that glibc does not return the
#: heap to the system and fault it back in on every call.
SWEEP_CHUNK = 32

#: Width, in units of gamma, of the tan map of default_frequency_grid, and
#: the spacing below which the pair's lines form one cluster: the widest
#: line of oracle.strong_field_spectra has half width 3 gamma.
TAN_WIDTH = 3.0

#: Largest miss of a spectrum's quadrature total against the algebraic one,
#: relative to the latter, that SpectrumEngine.spectrum accepts: the
#: tolerance of the spectrum-closure rows of validate.
CLOSURE_TOL = 1e-6


class GridCoverageError(ValueError):
    """A frequency grid that cannot carry what is asked of it: a quadrature
    that misses the algebraic totals, a spectrum without quadrature
    weights, or too few nodes for a cubic interpolant."""


def regression_sources(pert: PerturbativeState, atom: int) -> dict:
    """Order-resolved regression sources for the detected transition.

    Maps each order (m, n) of pert to that order times the raising dipole
    s_21 of the atom from the right, with the mean-dipole (elastic) part
    subtracted order by order; each source is traceless.  rho s_21 reads
    only the coherences <i|rho|2> of the detected level 2.  The drive's
    selection rule zeroes two sources, checked here to 1e-12 of their
    order's norm and left out of the sweep: s00, as the drive never
    populates level 2, and s01, as rho_01 holds no <i|rho_01|2>.  The latter
    is verified, not derived: wherever the expansion built on drives 1e-12
    to 1e12 and detunings up to 1e6, rho_01 was rho_10^dagger and rho_10 had
    no row of level 2, both to 2e-12 of |rho_10|, and |d01| and |s01| stayed
    below 1e-32 and 1.1e-13 of |rho_01|.
    """
    raising = transition_operator(atom, DETECTED_LEVEL, "raising")
    dipoles = mean_dipole_orders(pert, atom)
    connected = {}
    for m, n in pert.orders:
        conn = pert[(m, n)] @ raising
        for p in range(m + 1):
            for q in range(n + 1):
                conn -= dipoles[(p, q)] * pert[(m - p, n - q)]
        connected[(m, n)] = conn
        trace = abs(np.trace(conn))
        if not trace <= 1e-10 * max(np.linalg.norm(conn), 1e-300):
            raise RuntimeError(
                f"connected source ({m},{n}) has trace {trace:.3e}"
            )
    for key, rule in (((0, 0), "the drive populates the detected excited level"),
                      ((0, 1), "rho_01 holds coherences of the detected excited level")):
        size = np.linalg.norm(connected[key])
        if not size <= 1e-12 * np.linalg.norm(pert[key]):
            raise RuntimeError(f"order {key} source of atom {atom} has norm {size:.3e}: {rule}")
    return connected


@dataclass(frozen=True)
class SpectrumResult:
    """Inelastic spectral densities plus elastic delta weights.

    nu is in units of gamma and strictly increasing; densities are per
    unit nu/gamma in the normalized intensity units.  quad_weights are
    present when the grid was built by default_frequency_grid and turn
    sums into integrals over the whole real line.  symmetry_defect records
    the largest relative nu -> -nu asymmetry found before symmetrization
    (resonant drive only).
    """

    nu: np.ndarray
    ladder_inel: np.ndarray
    crossed_inel: np.ndarray
    ladder_el_weight: float
    crossed_el_weight: float
    omega: float
    gamma: float
    delta: float
    quad_weights: np.ndarray | None = None
    symmetry_defect: float | None = None

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        if nu.ndim != 1 or nu.size < 2:
            raise ValueError("nu grid must be a 1-d array with at least 2 points")
        if not np.all(np.diff(nu) > 0):
            raise ValueError("nu grid must be strictly increasing")
        for name in ("ladder_inel", "crossed_inel", "quad_weights"):
            if name == "quad_weights" and self.quad_weights is None:
                continue
            values = np.asarray(getattr(self, name), dtype=float)
            if values.shape != nu.shape:
                raise ValueError(f"{name} must match the grid shape")
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} contains non-finite values")
        # the checks of the drive: a NaN omega or gamma would pass the
        # window comparisons that read them
        PhysParams(omega=self.omega, gamma=self.gamma, delta=self.delta)
        require_finite(self, "ladder_el_weight", "crossed_el_weight")
        if self.symmetry_defect is not None and not self.symmetry_defect >= 0:
            raise ValueError(f"symmetry_defect must be non-negative, got {self.symmetry_defect}")


@functools.lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], computed on
    first use (leggauss(30) takes about 0.5 ms), not at import, and
    read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    return _read_only(x), _read_only(w)


def _line_centres(omega: float, delta: float) -> list[float]:
    """Centres of the clusters of the pair's lines on nu >= 0, omega and
    delta in units of gamma.

    One atom's dressed-state lines lie at f = 0, (r - |delta|)/2,
    (r + |delta|)/2 and r, r = hypot(omega, delta); the pair's at every
    |f_i +- f_j|.  Lines less than TAN_WIDTH apart form one cluster, centred
    at the midpoint of its extent, the first at 0.
    """
    r, d = math.hypot(omega, delta), abs(delta)
    atom = (0.0, 0.5 * (r - d), 0.5 * (r + d), r)
    # sorted(set()), not np.unique, which loads numpy.ma
    lines = sorted({abs(a + sign * b) for a in atom for b in atom for sign in (1.0, -1.0)})
    # each cluster after the first runs from a line after a gap to the line
    # before the next gap (or the last line)
    gaps = [i for i in range(1, len(lines)) if lines[i] - lines[i - 1] >= TAN_WIDTH]
    return [0.0] + [0.5 * (lines[i] + lines[j - 1]) for i, j in zip(gaps, gaps[1:] + [len(lines)])]


def default_frequency_grid(
    omega: float, gamma: float = 1.0, points: int = 2000, delta: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric Gauss-Legendre grid on the pair's lines whose weights
    integrate over the whole real line.

    On nu >= 0 each half of the gap between two cluster centres of
    _line_centres is one segment, tan-mapped from the centre at its end,
    nu = c +- TAN_WIDTH tan(theta); past the last centre c come [c, 9c/8]
    and [9c/8, inf) of width 9c/8 + TAN_WIDTH (a single cluster gives the
    one segment [0, inf)).  Each segment has the same number of nodes in
    theta, at least 6, and the grid is mirrored to nu < 0.  Returns (nu,
    weights) in units of gamma, with about `points` nodes.
    """
    if points < 200:
        raise ValueError("need at least 200 grid points")
    PhysParams(omega=omega, gamma=gamma, delta=delta)  # refuses NaN, omega < 0, gamma <= 0
    centres = _line_centres(omega / gamma, delta / gamma)
    # (start, length, width) of each segment on nu >= 0; a negative length
    # runs down from start
    segments = []
    for a, b in zip(centres[:-1], centres[1:]):
        segments += [(a, 0.5 * (b - a), TAN_WIDTH), (b, 0.5 * (a - b), TAN_WIDTH)]
    last = centres[-1]
    if last > 0:
        segments.append((last, last / 8.0, TAN_WIDTH))
    segments.append((9.0 * last / 8.0, math.inf, 9.0 * last / 8.0 + TAN_WIDTH))
    x, w = _gauss_legendre(max(6, round(points / (2 * len(segments)))))
    nu, weights = [], []
    for start, length, width in segments:
        half = 0.5 * math.atan(length / width)  # pi/4 on [9c/8, inf)
        theta = half * (x + 1.0)
        nu.append(start + width * np.tan(theta))
        weights.append(abs(half) * width * w / np.cos(theta) ** 2)
    nu, weights = np.concatenate(nu), np.concatenate(weights)
    order = np.argsort(nu)
    nu, weights = nu[order], weights[order]
    return np.concatenate([-nu[::-1], nu]), np.concatenate([weights[::-1], weights])


class SpectrumEngine:
    """Caches the expansion orders, with their deflated resolvent and the
    exchange generator V-, for repeated spectral-density evaluations at one
    parameter point."""

    def __init__(self, params: PhysParams, cfg: Configuration):
        checked_geometry_weight(cfg.geometry_weight)
        self.params = params
        self.cfg = cfg
        self.pert = build_expansion(params, cfg)
        # the (1, 1) source is rho_11 times the raising dipole: refuse the
        # order where intensity_terms does
        checked_order_11(self.pert)
        resolvent = self.pert.resolvent
        # row b-1 reads the lowering dipole of detection atom b
        functionals = np.stack(
            [transition_operator(b, DETECTED_LEVEL, "lowering").T.reshape(-1) for b in (1, 2)]
        )
        # L is block diagonal, so the sweep solves only on the sectors the
        # functionals read (stage 2) and on the population sector, that of
        # index 0, where s10 lies but for rounding, checked before it is
        # dropped (stage 1; s00 and s01 vanish, see regression_sources)
        self._read = resolvent.restricted(np.flatnonzero(np.any(functionals != 0, axis=0)))
        read = self._read.rows
        sources = {a: regression_sources(self.pert, a) for a in (1, 2)}
        stage1 = np.stack([sources[a][(1, 0)].reshape(-1) for a in (1, 2)], axis=1)
        self._stage1 = resolvent.restricted([0])
        rows = self._stage1.rows
        outside = np.linalg.norm(np.delete(stage1, rows, axis=0))
        if not outside <= 1e-12 * np.linalg.norm(self.pert[(1, 0)]):
            raise RuntimeError(f"order (1, 0) sources have norm {outside:.3e} outside the "
                               "population sector: the drive's selection rule fails")
        self._sources = stage1[rows]
        self._v = self.pert.v_minus.block(read, rows)
        self._s11 = np.stack([sources[a][(1, 1)].reshape(-1)[read] for a in (1, 2)], axis=1)
        # negated: they read the stage-2 solution, -R (see pair_transforms)
        self._functionals = -functionals[:, read]

    def pair_transforms(self, nu: np.ndarray) -> np.ndarray:
        """F x 2 x 2 one-sided correlator transforms at the F frequencies
        nu (units of gamma); entry [f, a-1, b-1] pairs source atom a with
        detection functional atom b.

        R s11 + R V- R s10, R = (z - L)^-1 at z = -i nu and s the sources
        of atom a, is two two-column resolvent stages, each on its sectors
        only (see __init__).  R V+ R s01 and R V-+ R V+- R s00 are left out:
        regression_sources checks that s01 and s00 vanish.
        """
        # z = -i nu gamma by its parts: a product with 1j would turn an
        # infinite nu into NaN, with a warning, before solve() refuses it
        nu = np.atleast_1d(np.asarray(nu, dtype=float))
        z = np.zeros(nu.shape, dtype=complex)
        z.imag = -nu * self.params.gamma
        # solve() gives (L - z)^-1 = -R: x = -y10, and u = -R (s11 + V- y10)
        x = self._stage1.solve(z, self._sources)
        (f, m), n = x.shape[:2], len(self._s11)
        # x[f, :, a] -> [:, (f, a)] and u[f, :, a] -> out[f, a, b], each in
        # one product over all f and a
        x = x.transpose(1, 0, 2).reshape(m, 2 * f)
        u = self._read.solve(z, self._s11 - (self._v @ x).reshape(n, f, 2).transpose(1, 0, 2))
        out = self._functionals @ u.transpose(1, 0, 2).reshape(n, 2 * f)
        return out.reshape(2, f, 2).transpose(1, 2, 0)

    def densities(self, nu_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Normalized inelastic (ladder, crossed) densities on the 1-d
        nu_grid; an empty grid gives two empty arrays."""
        nu = np.asarray(nu_grid, dtype=float)
        if nu.ndim != 1:
            raise ValueError(f"nu_grid must be a 1-d array, got shape {nu.shape}")
        p = np.empty((nu.size, 2, 2), dtype=complex)
        for start in range(0, nu.size, SWEEP_CHUNK):
            p[start:start + SWEEP_CHUNK] = self.pair_transforms(nu[start:start + SWEEP_CHUNK])
        phase = np.exp(1j * self.cfg.phi_L)
        scale = self.params.gamma / (np.pi * self.cfg.geometry_weight)
        ladder = scale * (p[:, 0, 0] + p[:, 1, 1]).real
        crossed = scale * (p[:, 0, 1] * phase + p[:, 1, 0] * np.conj(phase)).real
        return ladder, crossed

    def spectrum(self, points: int = 2000) -> SpectrumResult:
        """Densities and elastic weights on the default frequency grid of
        about `points` nodes.  Raises GridCoverageError where the grid's
        ladder or crossed total misses the algebraic one by more than
        CLOSURE_TOL of it."""
        params = self.params
        nu, weights = default_frequency_grid(params.omega, params.gamma, points, params.delta)
        ladder, crossed = self.densities(nu)

        defect = None
        if params.delta == 0:
            # the grid is its own mirror image: reversed densities are at -nu
            defect = 0.0
            for dens in (ladder, crossed):
                top = np.max(np.abs(dens - dens[::-1]))
                defect = max(defect, top / max(np.max(np.abs(dens)), 1e-300))
            ladder = 0.5 * (ladder + ladder[::-1])
            crossed = 0.5 * (crossed + crossed[::-1])

        terms = intensity_terms(self.pert, self.cfg).normalized()
        result = SpectrumResult(
            nu=nu,
            ladder_inel=ladder,
            crossed_inel=crossed,
            ladder_el_weight=terms.ladder_elastic,
            crossed_el_weight=terms.crossed_elastic,
            omega=params.omega,
            gamma=params.gamma,
            delta=params.delta,
            quad_weights=weights,
            symmetry_defect=defect,
        )
        totals = (terms.ladder_total, terms.crossed_total)
        for name, got, want in zip(("ladder", "crossed"), integrate_spectrum(result), totals):
            if not abs(got - want) <= CLOSURE_TOL * abs(want):
                raise GridCoverageError(
                    f"at omega/gamma = {params.omega / params.gamma:g}, delta/gamma = "
                    f"{params.delta / params.gamma:g} the {nu.size}-node grid's {name} total "
                    f"misses the algebraic {want:.6e} by {abs(got - want):.3e}, more than "
                    f"CLOSURE_TOL = {CLOSURE_TOL:g} of it"
                )
        return result


class _CubicSpline:
    """Not-a-knot cubic interpolant of y over the nodes x.

    The same function as FITPACK's interpolating spline of degree 3 (knots
    x[2:-2] inside): the cubic of the first interval also spans the second,
    and that of the last interval the one before.  Held as the second
    derivatives m at the nodes, which solve a tridiagonal system.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size < 4:
            raise GridCoverageError(
                f"a cubic interpolant needs a grid of at least 4 points, got {x.size}"
            )
        h = np.diff(x)
        slope = np.diff(y) / h
        # row i of the unknowns m[1:-1]:
        # h[i] m[i] + 2 (h[i] + h[i+1]) m[i+1] + h[i+1] m[i+2] = 6 (slope[i+1] - slope[i])
        lower = h[:-1].tolist()
        diag = (2.0 * (h[:-1] + h[1:])).tolist()
        upper = h[1:].tolist()
        rhs = (6.0 * np.diff(slope)).tolist()
        # not-a-knot ends, m[0] = m[1] + h0 / h1 (m[1] - m[2]) and its mirror,
        # put into the first and last rows, which are then scaled by h1
        h0, h1 = float(h[0]), float(h[1])
        diag[0], upper[0], rhs[0] = (h0 + h1) * (h0 + 2.0 * h1), h1 * h1 - h0 * h0, rhs[0] * h1
        h0, h1 = float(h[-1]), float(h[-2])
        diag[-1], lower[-1], rhs[-1] = (h0 + h1) * (h0 + 2.0 * h1), h1 * h1 - h0 * h0, rhs[-1] * h1
        # Thomas elimination; both end rows are diagonally dominant
        for i in range(1, len(diag)):
            factor = lower[i] / diag[i - 1]
            diag[i] -= factor * upper[i - 1]
            rhs[i] -= factor * rhs[i - 1]
        m = [0.0] * x.size
        m[-2] = rhs[-1] / diag[-1]
        for i in range(len(diag) - 2, -1, -1):
            m[i + 1] = (rhs[i] - upper[i] * m[i + 2]) / diag[i]
        m[0] = m[1] + h[0] / h[1] * (m[1] - m[2])
        m[-1] = m[-2] + h[-1] / h[-2] * (m[-2] - m[-3])
        m = np.array(m)
        self.x, self.y, self.m = x, y, m
        # the cubic of interval i in powers of (t - x[i])
        self.c1 = slope - h * (2.0 * m[:-1] + m[1:]) / 6.0
        self.c3 = np.diff(m) / (6.0 * h)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, self.x.size - 2)
        dt = t - self.x[i]
        return self.y[i] + dt * (self.c1[i] + dt * (0.5 * self.m[i] + dt * self.c3[i]))


def integrate_spectrum(spec: SpectrumResult) -> tuple[float, float]:
    """Total (ladder, crossed) intensities, comparable to
    IntensityTerms.normalized(): the quadrature of the inelastic density
    with the grid's weights, which integrate over the whole line, plus the
    elastic weight.  A spectrum without weights raises GridCoverageError."""
    if spec.quad_weights is None:
        raise GridCoverageError(
            "the spectrum has no quadrature weights: only the grid of "
            "default_frequency_grid integrates over the whole line"
        )
    return (
        float(spec.quad_weights @ spec.ladder_inel) + spec.ladder_el_weight,
        float(spec.quad_weights @ spec.crossed_inel) + spec.crossed_el_weight,
    )


def oracle_spectrum_result(
    omega: float,
    gamma: float = 1.0,
    points: int = 2000,
    regime: str = "strong",
) -> SpectrumResult:
    """SpectrumResult built from the closed-form asymptotic densities.

    Useful for exercising the spectral-analysis operations without the
    master-equation engine; elastic weights use the exact saturation
    expression.
    """
    from . import oracle

    nu, weights = default_frequency_grid(omega, gamma, points)
    if regime == "strong":
        ladder, crossed = oracle.strong_field_spectra(nu * gamma, omega, gamma)
    elif regime == "weak":
        ladder, crossed = oracle.weak_field_spectra(nu * gamma, omega, gamma)
    else:
        raise ValueError("regime must be 'weak' or 'strong'")
    s = PhysParams(omega=omega, gamma=gamma).saturation
    el_ladder, el_crossed = oracle.elastic_terms(s)
    return SpectrumResult(
        nu=nu,
        ladder_inel=ladder * gamma,
        crossed_inel=crossed * gamma,
        ladder_el_weight=float(el_ladder),
        crossed_el_weight=float(el_crossed),
        omega=omega,
        gamma=gamma,
        delta=0.0,
        quad_weights=weights,
        symmetry_defect=0.0,
    )
