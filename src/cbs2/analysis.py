"""Windowed peak analysis of backscattering spectra.

Peaks are characterized within symmetric windows around their centers.
The classification statistic is the root-mean-square split of the density
into its even and odd parts about the window center: clean Lorentzians
are even-dominated, clean dispersive doublet members odd-dominated.  A
dispersive peak must additionally contribute almost nothing to the
integrated intensity within its window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .generators import _read_only
from .spectrum import SpectrumResult, _CubicSpline

#: Minimum admissible window half width in units of gamma.
MIN_WINDOW = 10.0

#: Fraction of the RMS norm required to call a parity dominant.
DOMINANCE_THRESHOLD = 0.90

#: Net weight below this fraction of the absolute integral counts as null.
NULL_WEIGHT_FRACTION = 0.05

_QUAD_POINTS = 96


class ClassificationError(RuntimeError):
    """Peak shape is neither clearly even nor clearly dispersive."""

    def __init__(self, message: str, even_fraction: float, odd_fraction: float):
        super().__init__(message)
        self.even_fraction = even_fraction
        self.odd_fraction = odd_fraction


class UndefinedEnhancementError(RuntimeError):
    """Filtered enhancement requested where the ladder signal vanishes."""


@dataclass(frozen=True)
class PeakReport:
    """Windowed characterization of one spectral feature."""

    center: float
    window: float
    weight: float
    abs_integral: float
    even_fraction: float
    odd_fraction: float
    shape: str


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre nodes and weights on [-1, 1], computed on first
    use (a few ms), not at import, and read-only."""
    x, w = np.polynomial.legendre.leggauss(_QUAD_POINTS)
    return _read_only(x), _read_only(w)


def _window_nodes(window: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = _legendre_rule()
    return 0.5 * window * (x + 1.0), 0.5 * window * w


def _validate_window(spec: SpectrumResult, center: float, window: float) -> None:
    # NaN passes every comparison below
    if not (math.isfinite(center) and math.isfinite(window)):
        raise ValueError(f"center and window must be finite, got {center}, {window}")
    if window < MIN_WINDOW:
        raise ValueError(f"window must be at least {MIN_WINDOW} gamma")
    omega = spec.omega / spec.gamma
    if omega > 0 and window > 0.25 * omega + 1e-12:
        raise ValueError("window must not exceed a quarter of the Rabi frequency")
    if center - window < spec.nu[0] or center + window > spec.nu[-1]:
        raise ValueError("window extends beyond the stored grid")


def window_stats(spec: SpectrumResult, which: str, center: float, window: float):
    _validate_window(spec, center, window)
    densities = {"ladder": spec.ladder_inel, "crossed": spec.crossed_inel}
    if which not in densities:
        raise ValueError(f"which must be 'ladder' or 'crossed', got {which!r}")
    density = densities[which]
    spline = _CubicSpline(spec.nu, density)
    x, w = _window_nodes(window)
    right = spline(center + x)
    left = spline(center - x)
    weight = float(w @ (right + left))
    abs_integral = float(w @ (np.abs(right) + np.abs(left)))
    even = 0.5 * (right + left)
    odd = 0.5 * (right - left)
    even_norm2 = float(2.0 * w @ even**2)
    odd_norm2 = float(2.0 * w @ odd**2)
    total = max(even_norm2 + odd_norm2, 1e-300)
    return weight, abs_integral, np.sqrt(even_norm2 / total), np.sqrt(odd_norm2 / total)


def analyze_peak(
    spec: SpectrumResult, which: str, center: float, window: float
) -> PeakReport:
    """Windowed weight, parity split and shape class of one feature."""
    weight, abs_integral, even_frac, odd_frac = window_stats(
        spec, which, center, window
    )
    threshold = NULL_WEIGHT_FRACTION * abs_integral
    if even_frac >= DOMINANCE_THRESHOLD and weight > threshold:
        shape = "lorentzian_positive"
    elif even_frac >= DOMINANCE_THRESHOLD and weight < -threshold:
        shape = "lorentzian_negative"
    elif odd_frac >= DOMINANCE_THRESHOLD and abs(weight) < threshold:
        shape = "dispersive"
    else:
        raise ClassificationError(
            f"feature at nu = {center:g} is ambiguous: even fraction "
            f"{even_frac:.3f}, odd fraction {odd_frac:.3f}, weight {weight:.3e} "
            f"vs absolute integral {abs_integral:.3e}",
            even_fraction=even_frac,
            odd_fraction=odd_frac,
        )
    return PeakReport(
        center=center,
        window=window,
        weight=weight,
        abs_integral=abs_integral,
        even_fraction=even_frac,
        odd_fraction=odd_frac,
        shape=shape,
    )


def filtered_enhancement(
    spec: SpectrumResult, nu_center: float, passband: float
) -> float:
    """Enhancement factor seen through a rectangular spectral filter.

    Ratio 1 + crossed/ladder of the windowed inelastic weights; the
    elastic delta contributes only when the passband contains nu = 0,
    where both elastic weights are added.
    """
    ladder, _, _, _ = window_stats(spec, "ladder", nu_center, passband)
    crossed, _, _, _ = window_stats(spec, "crossed", nu_center, passband)
    if abs(nu_center) < passband:
        ladder += spec.ladder_el_weight
        crossed += spec.crossed_el_weight
    if ladder < 1e-12:
        raise UndefinedEnhancementError(
            f"ladder weight {ladder:.3e} in the passband is consistent with zero"
        )
    return 1.0 + crossed / ladder
