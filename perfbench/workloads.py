"""Seeded inputs, items and correctness gates of the three workloads.

Every workload is a closed loop with one caller: the next item starts
when the previous one has finished.  Inputs are drawn from the seed
alone, so the same seed gives the same inputs, and every input list
starts with the anchors omega = 1 (Omega = gamma, an exceptional point
of the generator, where eigenvector shortcuts fail) and omega = 100 (the
strong-drive table).

Why these workloads:

* spectrum-sweep: one full spectrum per item.  About 95% of an item is
  the per-frequency density sweep, so resolvent, Schur-coordinate,
  block-diagonal and BLAS-thread work shows here.
* enhancement-scan: one parameter point per item, exactly what
  numeric_enhancement and `cbs2 enhancement-curve` do.  It never touches
  the sweep; its time is generator assembly, the steady state and the
  five deflated solves.
* engine-probe: a SpectrumEngine plus a handful of probe frequencies, the
  gauge-invariance and few-point `cbs2 spectrum` use.  Engine set-up is
  half or more of an item, so work moved from the sweep into set-up shows
  here as a loss while spectrum-sweep shows a gain.

Gate thresholds are copied from the program's own checks in
cbs2.acceptance and the test suite; none is loosened.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from cbs2 import oracle
from cbs2.analysis import filtered_enhancement, window_stats
from cbs2.average import AverageSpec, ISOTROPIC_FACTOR, mc_average
from cbs2.generators import exchange_generators, free_generator
from cbs2.geometry import Configuration, PhysParams
from cbs2.perturbation import (
    build_expansion,
    intensity_terms,
    perturbative_corrections,
    zeroth_steady_state,
)
from cbs2.spectrum import SpectrumEngine, integrate_spectrum
from tracing import NullTracer

#: Drive strengths at the head of every seed's inputs.  A run completes
#: at least two items, so every spectrum-sweep run checks both.
ANCHOR_OMEGAS = (1.0, 100.0)
STRONG_OMEGA = 100.0

#: `points` passed to SpectrumEngine.spectrum.  Below about 600 the
#: per-panel minimum of the default grid makes the grid size depend on
#: omega by up to a factor 2.7; from 600 on it stays within 6% (576 to
#: 644 frequencies), so item cost does not depend on the drawn omega.
SWEEP_POINTS = 600

#: Probe frequencies of engine-probe, in units of omega: the resonances.
PROBE_MULTIPLES = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])

#: Drive phases per omega in engine-probe; the gauge gate compares them.
GAUGE_PHASES = 3

#: Smallest geometry_weight of a drawn orientation.  The relative
#: rounding error of 1 + crossed/ladder grows like 1e-16 / weight (4.6e-9
#: at weight 1e-8, 4e-7 at 1e-10) and numeric_enhancement raises nothing
#: there, so below about 4e-9 the 1e-8 oracle gate would fail by
#: rounding alone.  1e-6 excludes 0.1% of isotropic orientations.
MIN_GEOMETRY_WEIGHT = 1e-6

# Gates, copied from cbs2.acceptance and tests/test_analysis.py.
CLOSURE_TOL = 1e-6  # spectrum-closure-omega-*
SYMMETRY_TOL = 1e-9  # spectral-symmetry
ALPHA_TOL = 1e-8  # enhancement-curve-match, relative
GAUGE_TOL = 1e-9  # gauge-invariance-spectra
MC_SIGMAS = 3.0  # mc-isotropic-factor
MIRROR_TOL = 1e-10  # test_mirror_symmetry_of_windowed_weights, relative
PASSBAND = 25.0
#: filtered-enhancement-* rows at omega = 100: (centers / omega, expected, tol)
FILTERED_CASES = (
    ((0.0,), 2.0, 0.06),
    ((2.0, -2.0), 2.0, 0.1),
    ((1.0, -1.0), 4.0 / 7.0, 0.03),
    ((0.5, -0.5), 1.0, 0.05),
)

#: What an item may raise.  Covers the typed ResolventPoleError,
#: DegeneracyError and GridCoverageError as well as the residual and
#: trace checks, which raise RuntimeError.  Each counts as a failed item.
ITEM_ERRORS = (RuntimeError, ValueError, ArithmeticError)


@dataclass
class Item:
    """One attempted item: its wall time, its numbers and its failures."""

    label: str
    seconds: float
    output: tuple = ()
    failures: list = field(default_factory=list)
    timed: bool = True


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _log_uniform(rng, lo: float, hi: float, size: int) -> np.ndarray:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size)


def _orientation(rng) -> np.ndarray:
    while True:
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        if 0.25 * (n[0] ** 2 + n[1] ** 2) ** 2 >= MIN_GEOMETRY_WEIGHT:
            return n


def _probe_constituents(tracer, params: PhysParams, cfg: Configuration) -> None:
    """Time the public calls build_expansion is made of, on the same
    inputs, so the trace can split generator assembly, steady state and
    perturbative orders without spans inside the program."""
    with tracer.span("probe"):
        with tracer.span("generators.free_generator"):
            free = free_generator(params, cfg.phi_L)
        with tracer.span("generators.exchange_generators"):
            v_plus, v_minus = exchange_generators(cfg.n_hat, params.gamma)
        with tracer.span("perturbation.zeroth_steady_state"):
            rho0 = zeroth_steady_state(free)
        with tracer.span("perturbation.perturbative_corrections"):
            perturbative_corrections(free, v_plus, v_minus, rho0)


def _relative(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _alpha_gate(label: str, terms, s: float, tracer) -> list[str]:
    alpha = 1.0 + terms.crossed_total / terms.ladder_total
    with tracer.span("oracle.enhancement_factor"):
        reference = oracle.enhancement_factor(s)
    err = _relative(alpha, reference)
    if not err <= ALPHA_TOL:
        return [f"{label}: alpha {alpha!r} vs oracle {reference!r}, rel {err:.3e} > {ALPHA_TOL:g}"]
    return []


class SpectrumSweep:
    name = "spectrum-sweep"

    def inputs(self, seed: int, count: int = 64) -> list[float]:
        rng = _rng(seed, 1)
        return list(ANCHOR_OMEGAS) + list(_log_uniform(rng, 0.1, 100.0, count - 2))

    def warm(self) -> None:
        _warm_engine()

    def finish(self, tracer) -> list[Item]:
        return []

    def run_unit(self, omega: float, tracer) -> list[Item]:
        label = f"spectrum omega={omega:.6g}"
        params = PhysParams(omega=omega)
        cfg = Configuration()
        start = time.perf_counter()
        try:
            with tracer.span("item"):
                with tracer.span("spectrum.SpectrumEngine"):
                    engine = SpectrumEngine(params, cfg)
                with tracer.span("spectrum.sweep") as counts:
                    spec = engine.spectrum(points=SWEEP_POINTS)
                    counts["freqs"] = spec.nu.size
                with tracer.span("spectrum.integrate_spectrum"):
                    ladder, crossed = integrate_spectrum(spec)
                post = _strong_post(spec, tracer) if omega == STRONG_OMEGA else None
            seconds = time.perf_counter() - start
            with tracer.span("gate"):
                terms = intensity_terms(engine.pert, cfg).normalized()
                failures = spectrum_gates(label, spec, (ladder, crossed), terms)
                failures += _alpha_gate(label, terms, params.saturation, tracer)
                if post is not None:
                    failures += _strong_post_gates(label, post)
            if tracer.enabled:
                _probe_constituents(tracer, params, cfg)
        except ITEM_ERRORS as exc:
            return [Item(label, time.perf_counter() - start, failures=[_raised(label, exc)])]
        output = (ladder, crossed, spec.symmetry_defect, *spec.ladder_inel, *spec.crossed_inel)
        return [Item(label, seconds, output, failures)]


def spectrum_gates(label: str, spec, integrated: tuple[float, float], terms) -> list[str]:
    """Closure of the integrated spectrum against intensity_terms and the
    nu -> -nu symmetry defect recorded before symmetrization."""
    ladder, crossed = integrated
    closure = max(
        _relative(ladder, terms.ladder_total), _relative(crossed, terms.crossed_total)
    )
    failures = []
    if not closure <= CLOSURE_TOL:
        failures.append(f"{label}: closure {closure:.3e} > {CLOSURE_TOL:g}")
    if not spec.symmetry_defect <= SYMMETRY_TOL:
        failures.append(
            f"{label}: symmetry defect {spec.symmetry_defect:.3e} > {SYMMETRY_TOL:g}"
        )
    return failures


def _strong_post(spec, tracer) -> dict:
    """Windowed weights and filtered enhancement at omega = 100."""
    omega = spec.omega
    weights = {}
    for which in ("ladder", "crossed"):
        for multiple in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
            with tracer.span("analysis.window_stats"):
                weights[which, multiple] = window_stats(spec, which, multiple * omega, PASSBAND)[0]
    filtered = {}
    for multiples, _, _ in FILTERED_CASES:
        for multiple in multiples:
            with tracer.span("analysis.filtered_enhancement"):
                filtered[multiple] = filtered_enhancement(spec, multiple * omega, PASSBAND)
    return {"weights": weights, "filtered": filtered}


def _strong_post_gates(label: str, post: dict) -> list[str]:
    failures = []
    weights = post["weights"]
    for which in ("ladder", "crossed"):
        for multiple in (0.5, 1.0, 2.0):
            plus, minus = weights[which, multiple], weights[which, -multiple]
            if not abs(plus - minus) <= MIRROR_TOL * abs(minus):
                failures.append(
                    f"{label}: {which} window weight at +-{multiple:g} omega differs "
                    f"({plus!r} vs {minus!r})"
                )
    for multiples, expected, tol in FILTERED_CASES:
        for multiple in multiples:
            value = post["filtered"][multiple]
            if not abs(value - expected) <= tol:
                failures.append(
                    f"{label}: filtered enhancement at {multiple:g} omega is {value!r}, "
                    f"expected {expected:g} +- {tol:g}"
                )
    return failures


class EnhancementScan:
    name = "enhancement-scan"

    def inputs(self, seed: int, count: int = 2048) -> list[tuple]:
        rng = _rng(seed, 2)
        x_axis = np.array([1.0, 0.0, 0.0])
        units = [(PhysParams(omega=om).saturation, 0.0, x_axis) for om in ANCHOR_OMEGAS]
        for s in _log_uniform(rng, 1e-3, 1e3, count - 2):
            units.append((float(s), float(rng.uniform(0.0, 2.0 * math.pi)), _orientation(rng)))
        return units

    def warm(self) -> None:
        self.run_unit(self.inputs(0, 2)[0], NullTracer())

    def run_unit(self, unit: tuple, tracer) -> list[Item]:
        s, phi, n_hat = unit
        label = f"enhancement s={s:.6g} phi_L={phi:.4f}"
        params = PhysParams.from_saturation(s)
        cfg = Configuration(n_hat=n_hat, phi_L=phi)
        start = time.perf_counter()
        try:
            with tracer.span("item"):
                with tracer.span("perturbation.build_expansion"):
                    pert = build_expansion(params, cfg)
                with tracer.span("perturbation.intensity_terms"):
                    terms = intensity_terms(pert, cfg)
            seconds = time.perf_counter() - start
            with tracer.span("gate"):
                failures = _alpha_gate(label, terms, s, tracer)
            if tracer.enabled:
                _probe_constituents(tracer, params, cfg)
        except ITEM_ERRORS as exc:
            return [Item(label, time.perf_counter() - start, failures=[_raised(label, exc)])]
        return [Item(label, seconds, (terms.ladder_total, terms.crossed_total), failures)]

    def finish(self, tracer) -> list[Item]:
        """One Monte-Carlo configuration average at the default settings.

        The sample seed is AverageSpec's default, not drawn: a 3-sigma gate
        on a drawn seed would fail for 0.27% of seeds by chance alone.
        """
        spec = AverageSpec()
        label = f"mc_average samples={spec.samples}"
        start = time.perf_counter()
        try:
            with tracer.span("average.mc_average") as counts:
                mean, sem = mc_average(spec)
                counts["samples"] = spec.samples
        except ITEM_ERRORS as exc:
            return [Item(label, time.perf_counter() - start, failures=[_raised(label, exc)], timed=False)]
        seconds = time.perf_counter() - start
        failures = []
        if not abs(mean - ISOTROPIC_FACTOR) <= MC_SIGMAS * sem:
            failures.append(f"{label}: mean {mean!r} is more than 3 sem ({sem:.3e}) from 2/15")
        return [Item(label, seconds, (mean, sem), failures, timed=False)]


class EngineProbe:
    name = "engine-probe"

    def inputs(self, seed: int, count: int = 512) -> list[tuple]:
        rng = _rng(seed, 3)
        omegas = list(ANCHOR_OMEGAS) + list(_log_uniform(rng, 0.1, 100.0, count - 2))
        return [
            (float(om), tuple(float(p) for p in rng.uniform(0.0, 2.0 * math.pi, GAUGE_PHASES)))
            for om in omegas
        ]

    def warm(self) -> None:
        _warm_engine()

    def finish(self, tracer) -> list[Item]:
        return []

    def run_unit(self, unit: tuple, tracer) -> list[Item]:
        omega, phases = unit
        params = PhysParams(omega=omega)
        probes = omega * PROBE_MULTIPLES
        items = []
        for phi in phases:
            label = f"probe omega={omega:.6g} phi_L={phi:.4f}"
            cfg = Configuration(phi_L=phi)
            start = time.perf_counter()
            try:
                with tracer.span("item"):
                    with tracer.span("spectrum.SpectrumEngine"):
                        engine = SpectrumEngine(params, cfg)
                    with tracer.span("spectrum.sweep") as counts:
                        ladder, crossed = engine.densities(probes)
                        counts["freqs"] = probes.size
                seconds = time.perf_counter() - start
                if tracer.enabled:
                    _probe_constituents(tracer, params, cfg)
            except ITEM_ERRORS as exc:
                items.append(Item(label, time.perf_counter() - start, failures=[_raised(label, exc)]))
                continue
            items.append(Item(label, seconds, tuple(np.concatenate([ladder, crossed]))))
        gauge_gate(items)
        return items


def gauge_gate(items: list[Item]) -> None:
    """Densities at one omega must not depend on the drive phase: each
    item is compared with the first one that has numbers."""
    done = [item for item in items if item.output]
    if not done:
        return
    reference = np.array(done[0].output)
    scale = np.max(np.abs(reference))
    for item in done:
        values = np.array(item.output)
        if not np.all(np.isfinite(values)):
            item.failures.append(f"{item.label}: non-finite density")
            continue
        spread = np.max(np.abs(values - reference)) / scale
        if not spread <= GAUGE_TOL:
            item.failures.append(f"{item.label}: gauge spread {spread:.3e} > {GAUGE_TOL:g}")


def _raised(label: str, exc: BaseException) -> str:
    return f"{label}: raised {type(exc).__name__}: {exc}"


def _warm_engine() -> None:
    engine = SpectrumEngine(PhysParams(omega=1.0), Configuration())
    engine.densities(PROBE_MULTIPLES)


WORKLOADS = {w.name: w for w in (SpectrumSweep(), EnhancementScan(), EngineProbe())}
