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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import DETECTED_LEVEL, transition_operator
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


class GridCoverageError(ValueError):
    """Frequency grid does not cover the spectral support well enough."""


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
    sums into integrals.  symmetry_defect records the largest relative
    nu -> -nu asymmetry found before symmetrization (resonant drive only).
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
        # grid-coverage and window comparisons that read them
        PhysParams(omega=self.omega, gamma=self.gamma, delta=self.delta)
        require_finite(self, "ladder_el_weight", "crossed_el_weight")
        if self.symmetry_defect is not None and not self.symmetry_defect >= 0:
            raise ValueError(f"symmetry_defect must be non-negative, got {self.symmetry_defect}")


def default_frequency_grid(
    omega: float, gamma: float = 1.0, points: int = 2000
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric panelized Gauss-Legendre grid resolving all resonances.

    Panels are concentrated around the resonances at 0, omega/2, omega
    and 2*omega, up to 2 omega/gamma + 61, and extended with logarithmic
    panels into the power-law tails up to 1e6.  Against the algebraic
    totals, the quadrature with the returned weights misses by 2.6e-9
    (ladder) and 2.4e-8 (crossed) at omega = 100 on 600 points, by 6.9e-5
    and 8.4e-5 at omega = 1e3 on 600 points, by 1.1e-4 and 1.6e-4 at 1e4
    on 2000 points and by 1.4e-2 and 1.6e-2 at 3e5 on 2000 points.  Where
    the panels around the resonances reach the tail end 1e6 (omega/gamma
    from about 5e5 on), the grid raises GridCoverageError.  Returns (nu,
    weights) in units of gamma.
    """
    if points < 200:
        raise ValueError("need at least 200 grid points")
    PhysParams(omega=omega, gamma=gamma)  # refuses NaN, omega < 0 and gamma <= 0
    w = omega / gamma
    centers = sorted({0.0, 0.5 * w, w, 2.0 * w})
    offsets = np.array([1.5, 4.0, 10.0, 25.0, 60.0])
    edges = {0.0}
    for c in centers:
        for off in offsets:
            edges.add(max(c - off, 0.0))
            edges.add(c + off)
        edges.add(c)
    core_max = max(2.0 * w + 40.0, max(edges) + 1.0)
    if core_max >= 1e6:
        raise GridCoverageError(
            f"at omega/gamma = {w:g} the panels around the resonances reach "
            f"{core_max:g}, past the default grid's tail end 1e6"
        )
    edges.add(core_max)
    core = sorted(e for e in edges if e <= core_max)
    merged = [core[0]]
    for e in core[1:]:
        if e - merged[-1] > 0.3:
            merged.append(e)
    if merged[-1] < core_max:
        merged.append(core_max)

    tail_edges = np.geomspace(core_max, 1e6, 13)[1:]
    breaks = np.concatenate([merged, tail_edges])
    n_panels = len(breaks) - 1
    per_panel = max(6, int(round(points / (2 * n_panels))))
    base_x, base_w = np.polynomial.legendre.leggauss(per_panel)

    nodes, weights = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        nodes.append(mid + half * base_x)
        weights.append(half * base_w)
    nu_pos = np.concatenate(nodes)
    w_pos = np.concatenate(weights)
    nu = np.concatenate([-nu_pos[::-1], nu_pos])
    wts = np.concatenate([w_pos[::-1], w_pos])
    return nu, wts


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

    def spectrum(
        self, nu_grid: np.ndarray | None = None, points: int = 2000
    ) -> SpectrumResult:
        if nu_grid is None:
            nu, weights = default_frequency_grid(
                self.params.omega, self.params.gamma, points
            )
        else:
            nu = np.asarray(nu_grid, dtype=float)
            weights = None
        ladder, crossed = self.densities(nu)

        defect = None
        if self.params.delta == 0:
            mirrored = np.allclose(nu, -nu[::-1], rtol=0, atol=1e-12)
            if mirrored:
                ladder_m, crossed_m = ladder[::-1], crossed[::-1]
            else:
                ladder_m, crossed_m = self.densities(-nu[::-1])
                ladder_m, crossed_m = ladder_m[::-1], crossed_m[::-1]
            defect = 0.0
            for dens, dens_m in ((ladder, ladder_m), (crossed, crossed_m)):
                top = np.max(np.abs(dens - dens_m))
                defect = max(defect, top / max(np.max(np.abs(dens)), 1e-300))
            ladder = 0.5 * (ladder + ladder_m)
            crossed = 0.5 * (crossed + crossed_m)

        terms = intensity_terms(self.pert, self.cfg).normalized()
        return SpectrumResult(
            nu=nu,
            ladder_inel=ladder,
            crossed_inel=crossed,
            ladder_el_weight=terms.ladder_elastic,
            crossed_el_weight=terms.crossed_elastic,
            omega=self.params.omega,
            gamma=self.params.gamma,
            delta=self.params.delta,
            quad_weights=weights,
            symmetry_defect=defect,
        )


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
        self.x, self.y, self.h, self.m = x, y, h, m
        # the cubic of interval i in powers of (t - x[i])
        self.c1 = slope - h * (2.0 * m[:-1] + m[1:]) / 6.0
        self.c3 = np.diff(m) / (6.0 * h)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, self.x.size - 2)
        dt = t - self.x[i]
        return self.y[i] + dt * (self.c1[i] + dt * (0.5 * self.m[i] + dt * self.c3[i]))

    def integral(self) -> float:
        """Integral over [x[0], x[-1]], interval by interval in closed form."""
        h, y, m = self.h, self.y, self.m
        return float(np.sum(0.5 * h * (y[:-1] + y[1:]) - h**3 * (m[:-1] + m[1:]) / 24.0))


def _tail_correction(nu: np.ndarray, density: np.ndarray) -> float:
    """Estimate the integral beyond the grid ends from the 1/nu^2 tails."""
    n_fit = min(8, len(nu) // 10)
    if n_fit == 0:
        raise GridCoverageError(
            f"the tail fit needs a grid of at least 10 points, got {len(nu)}"
        )
    right = np.mean(nu[-n_fit:] ** 2 * density[-n_fit:])
    left = np.mean(nu[:n_fit] ** 2 * density[:n_fit])
    return right / nu[-1] + left / abs(nu[0])


def integrate_spectrum(spec: SpectrumResult) -> tuple[float, float]:
    """Total (ladder, crossed) intensities: inelastic integral plus the
    elastic weight, comparable to IntensityTerms.normalized().

    Uses the stored panel quadrature weights when present, otherwise a
    cubic-spline quadrature, plus an analytic power-law tail estimate
    beyond the grid ends.
    """
    w = 2.0 * spec.omega / spec.gamma + 20.0
    if spec.nu[-1] < w or spec.nu[0] > -w:
        raise GridCoverageError(
            f"grid must extend beyond +-(2 omega + 20 gamma) = {w:g}"
        )
    totals = []
    for density, elastic in (
        (spec.ladder_inel, spec.ladder_el_weight),
        (spec.crossed_inel, spec.crossed_el_weight),
    ):
        peak = np.max(np.abs(density))
        boundary = max(abs(density[0]), abs(density[-1]))
        if boundary > 1e-6 * peak:
            raise GridCoverageError(
                f"density at the grid boundary is {boundary:.3e}, more than "
                f"1e-6 of its peak {peak:.3e}"
            )
        if spec.quad_weights is not None:
            inel = float(spec.quad_weights @ density)
        else:
            inel = _CubicSpline(spec.nu, density).integral()
        inel += _tail_correction(spec.nu, density)
        totals.append(inel + elastic)
    return totals[0], totals[1]


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
