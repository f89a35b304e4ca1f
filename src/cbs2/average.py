"""Configuration average over atom-pair orientation and distance.

The internal dynamics factorizes from geometry at double-scattering
order: every term carries the orientation factor |e_{+1}.Delta.e_{+1}|^2
and the crossed term additionally the fringe cos((k + k_L) . r_12).
Averaging isotropically over orientations and over a shell of distances
therefore reduces to the scalar factors computed here.

Near exact backscattering the analytic angular average of the crossed
factor is 2/15 - (k ell theta)^2 / 35 for a distance distribution sharply
peaked at ell; the quadratic coefficient scales with the second moment
of the distance distribution, so wide shells deviate from it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import require_finite

#: Isotropic average of the squared orientation factor.
ISOTROPIC_FACTOR = 2.0 / 15.0

#: Beyond this value of k ell theta the quadratic expansion in theta is
#: unreliable and a warning is issued.
SMALL_ANGLE_LIMIT = 0.5


@dataclass(frozen=True)
class AverageSpec:
    """Monte Carlo settings: sample count, RNG seed, mean reduced distance
    and fractional half width of the uniform distance shell."""

    samples: int = 100_000
    seed: int = 1
    ell_k0: float = 1000.0
    width_frac: float = 0.5

    def __post_init__(self):
        require_finite(self, "ell_k0", "width_frac")
        # numpy draws only an integral number of samples
        if not isinstance(self.samples, (int, np.integer)):
            raise ValueError(f"samples must be an integer, got {self.samples!r}")
        # the standard error takes the sample spread, defined from two samples
        if self.samples < 2:
            raise ValueError(f"samples must be at least 2, got {self.samples}")
        if not 0.0 <= self.width_frac < 1.0:
            raise ValueError("width_frac must lie in [0, 1)")
        if self.ell_k0 <= 0:
            raise ValueError("ell_k0 must be positive")


def _check_theta(theta: float) -> None:
    if not (math.isfinite(theta) and theta >= 0):
        raise ValueError(f"theta must be non-negative and finite, got {theta}")


def angular_factor(theta: float, k_ell: float) -> tuple[float, float]:
    """Analytic small-angle geometry factors (crossed, ladder).

    The ladder factor is the isotropic constant 2/15; the crossed factor
    acquires the quadratic fringe reduction -(k_ell * theta)^2 / 35.
    """
    _check_theta(theta)
    if not (math.isfinite(k_ell) and k_ell > 0):
        raise ValueError(f"k_ell must be positive and finite, got {k_ell}")
    x = k_ell * theta
    if x > SMALL_ANGLE_LIMIT:
        warnings.warn(
            f"k_ell * theta = {x:.3g} exceeds the small-angle expansion range",
            stacklevel=2,
        )
    return ISOTROPIC_FACTOR - x**2 / 35.0, ISOTROPIC_FACTOR


def mc_average(spec: AverageSpec, theta: float = 0.0) -> tuple[float, float]:
    """Monte Carlo estimate of the crossed geometry factor at angle theta.

    Samples isotropic orientations and uniform distances in
    [ell (1 - w), ell (1 + w)], evaluating
    |e_{+1}.Delta(n).e_{+1}|^2 cos(q . n r) with q the transferred
    wave vector of modulus 2 k0 sin(theta/2) transverse to the laser
    axis.  Returns (mean, standard_error); deterministic for fixed seed.
    """
    _check_theta(theta)
    rng = np.random.default_rng(spec.seed)
    n = rng.normal(size=(spec.samples, 3))
    n /= np.linalg.norm(n, axis=1)[:, None]
    r = spec.ell_k0 * (
        1.0 + spec.width_frac * (2.0 * rng.random(spec.samples) - 1.0)
    )
    weight = 0.25 * (n[:, 0] ** 2 + n[:, 1] ** 2) ** 2
    q = 2.0 * math.sin(0.5 * theta)
    values = weight * np.cos(q * r * n[:, 0])
    mean = float(values.mean())
    sem = float(values.std(ddof=1) / math.sqrt(spec.samples))
    return mean, sem
