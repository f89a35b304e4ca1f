"""Configuration average over atom-pair orientation and distance.

The internal dynamics factorizes from geometry at double-scattering
order: every term carries the orientation factor |e_{+1}.Delta.e_{+1}|^2
and the crossed term additionally the fringe cos((k + k_L) . r_12).
Averaging isotropically over orientations and over a shell of distances
therefore reduces to the scalar factors computed here.

mc_average samples that average and exact_average integrates it: with
n_x = mu uniform and the azimuth and the distance averaged in closed form,
the crossed factor is a one-dimensional integral over mu in [0, 1], and
the two evaluators check each other at every angle.  At theta = 0 it is
the isotropic 2/15; near it, 2/15 - (k ell theta)^2 (1 + w^2/3) / 35.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import require_finite

#: Isotropic average of the squared orientation factor.
ISOTROPIC_FACTOR = 2.0 / 15.0

#: Samples per chunk of the Monte Carlo draw: 96 KiB of normals.
_MC_CHUNK = 4096


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
        # numpy seeds its generator from non-negative integers only
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 0.0 <= self.width_frac < 1.0:
            raise ValueError("width_frac must lie in [0, 1)")
        if self.ell_k0 <= 0:
            raise ValueError("ell_k0 must be positive")


def _check_theta(theta: float) -> None:
    if not (math.isfinite(theta) and theta >= 0):
        raise ValueError(f"theta must be non-negative and finite, got {theta}")


def mc_average(spec: AverageSpec, theta: float = 0.0) -> tuple[float, float]:
    """Monte Carlo estimate of the crossed geometry factor at angle theta.

    Samples isotropic orientations and uniform distances in
    [ell (1 - w), ell (1 + w)], evaluating
    |e_{+1}.Delta(n).e_{+1}|^2 cos(q . n r) with q the transferred
    wave vector of modulus 2 k0 sin(theta/2) transverse to the laser
    axis.  Returns (mean, standard_error); deterministic for fixed seed.

    The draw runs in chunks of _MC_CHUNK samples and keeps two length-N
    arrays, 16 bytes per sample: the first pass draws all normals and
    stores n_x and the orientation factor, the second draws all distances
    and multiplies in the fringe.  numpy's Generator gives the same numbers
    drawn in consecutive chunks as at once, and every per-sample step is
    elementwise, so the result does not depend on the chunk size.
    """
    _check_theta(theta)
    rng = np.random.default_rng(spec.seed)
    chunks = [
        slice(start, min(start + _MC_CHUNK, spec.samples))
        for start in range(0, spec.samples, _MC_CHUNK)
    ]
    n_x = np.empty(spec.samples)
    values = np.empty(spec.samples)
    for part in chunks:
        n = rng.normal(size=(part.stop - part.start, 3))
        n /= np.linalg.norm(n, axis=1)[:, None]
        n_x[part] = n[:, 0]
        values[part] = 0.25 * (n[:, 0] ** 2 + n[:, 1] ** 2) ** 2
    q = 2.0 * math.sin(0.5 * theta)
    for part in chunks:
        r = spec.ell_k0 * (
            1.0 + spec.width_frac * (2.0 * rng.random(part.stop - part.start) - 1.0)
        )
        values[part] *= np.cos(q * r * n_x[part])
    # the spread below takes one more length-N temporary
    del n_x
    mean = float(values.mean())
    sem = float(values.std(ddof=1) / math.sqrt(spec.samples))
    return mean, sem


def exact_average(spec: AverageSpec, theta: float) -> float:
    """The crossed geometry factor that mc_average samples, integrated.

    With a = 2 sin(theta/2) ell_k0 and w = width_frac, the distance average
    of the fringe is cos(a mu) sinc(a w mu) at n_x = mu, and the azimuthal
    average of (n_x^2 + n_y^2)^2 is P(mu) = mu^2 + 3/8 (1 - mu^2)^2, so
    the factor is 1/4 int_0^1 P cos sinc d mu.  Composite Gauss-Legendre
    with 24 nodes on each of floor(|a| (1 + w) / 4) + 8 equal panels
    resolves the fringe to rounding; the panels are taken _MC_CHUNK at a
    time, so memory stays bounded at any k ell.
    """
    _check_theta(theta)
    a = 2.0 * math.sin(0.5 * theta) * spec.ell_k0
    nodes, weights = np.polynomial.legendre.leggauss(24)
    panels = int(abs(a) * (1.0 + spec.width_frac) / 4.0) + 8
    total = 0.0
    for first in range(0, panels, _MC_CHUNK):
        panel = np.arange(first, min(first + _MC_CHUNK, panels))[:, None]
        mu = (panel + 0.5 * (nodes + 1.0)) / panels
        p = mu**2 + 0.375 * (1.0 - mu**2) ** 2
        fringe = np.cos(a * mu) * np.sinc(a * spec.width_frac * mu / np.pi)
        total += float(np.sum(weights * p * fringe))
    return 0.125 * total / panels
