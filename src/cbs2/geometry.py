"""Geometry, polarization and parameter types for two-atom backscattering.

Conventions used throughout the package:

* The laser propagates along +z and is right-circularly polarized, so its
  polarization vector is the q = +1 helicity unit vector.  Helicity vectors
  follow the Condon-Shortley phase convention and are orthonormal under the
  conjugated dot product, e_q* . e_q' = delta_qq'.
* Backscattered light is analyzed in the helicity-preserving channel, which
  in terms of fixed vectors means detection along the q = -1 unit vector.
* All rates are quoted in units of the single-level radiative half width
  gamma; the excited-state population decay rate is 2*gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SQRT2 = math.sqrt(2.0)


def helicity_unit_vector(q: int) -> np.ndarray:
    """Return the helicity basis vector e_q (q in {-1, 0, +1}) in Cartesian
    components, Condon-Shortley phases."""
    if q == 1:
        return np.array([-1.0, -1.0j, 0.0]) / SQRT2
    if q == 0:
        return np.array([0.0, 0.0, 1.0], dtype=complex)
    if q == -1:
        return np.array([1.0, -1.0j, 0.0]) / SQRT2
    raise ValueError(f"helicity index must be -1, 0 or +1, got {q}")


def transverse_projector(n_hat: np.ndarray) -> np.ndarray:
    """Projector onto the plane transverse to the unit vector n_hat,
    Delta = 1 - n n."""
    n = np.asarray(n_hat, dtype=float)
    if n.shape != (3,):
        raise ValueError("n_hat must be a 3-vector")
    # written so that NaN and infinite components fail too
    if not abs(np.linalg.norm(n) - 1.0) <= 1e-9:
        raise ValueError("n_hat must be a unit vector (|n| - 1 within 1e-9)")
    return np.eye(3) - np.outer(n, n)


def transverse_helicity_element(n_hat: np.ndarray) -> complex:
    """(+1, +1) helicity element of the transverse projector, without
    conjugation of the left vector: e_{+1} . Delta(n) . e_{+1}.

    Equals -(n_x + i n_y)^2 / 2.  Its squared modulus carries the entire
    orientation dependence of the helicity-preserving double-scattering
    signal; the isotropic average of |.|^2 is 2/15.
    """
    n = np.asarray(n_hat, dtype=float)
    e_p = helicity_unit_vector(+1)
    return e_p @ transverse_projector(n) @ e_p


def require_finite(record, *names: str) -> None:
    """Refuse NaN and infinite values of the named fields of record."""
    for name in names:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class PhysParams:
    """Single-atom drive parameters.  omega is the Rabi frequency of the
    laser-driven ground-to-m=+1 transition, delta the laser detuning."""

    omega: float
    gamma: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        require_finite(self, "gamma", "delta", "omega")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.omega < 0:
            raise ValueError("omega must be non-negative")

    @property
    def saturation(self) -> float:
        """Saturation parameter s = omega^2 / (2 (gamma^2 + delta^2)), on
        Python floats whatever the type of the fields.  Where the
        denominator overflows, all three are first divided by the larger of
        gamma and |delta|.  An omega^2 beyond the float range raises
        ValueError."""
        omega, gamma, delta = float(self.omega), float(self.gamma), float(self.delta)
        try:
            denominator = 2.0 * (gamma**2 + delta**2)
        except OverflowError:
            denominator = math.inf
        if denominator == math.inf:
            scale = max(gamma, abs(delta))
            omega, denominator = omega / scale, 2.0 * ((gamma / scale) ** 2 + (delta / scale) ** 2)
        try:
            return omega**2 / denominator
        except OverflowError:
            raise ValueError(
                f"saturation overflows a float at omega = {self.omega}, "
                f"gamma = {self.gamma}, delta = {self.delta}"
            ) from None

    @classmethod
    def from_saturation(cls, s: float, gamma: float = 1.0, delta: float = 0.0) -> "PhysParams":
        if not (math.isfinite(s) and s >= 0):
            raise ValueError(f"saturation must be non-negative and finite, got {s}")
        s, g, d = float(s), float(gamma), float(delta)
        try:
            omega = math.sqrt(2.0 * s * (g**2 + d**2))
        except OverflowError:
            omega = math.inf
        if omega == math.inf:
            # as in saturation: gamma and delta divided by the larger modulus
            scale = max(abs(g), abs(d))
            omega = scale * math.sqrt(2.0 * s * ((g / scale) ** 2 + (d / scale) ** 2))
        return cls(omega=omega, gamma=gamma, delta=delta)


@dataclass(frozen=True)
class Configuration:
    """Geometry of one realization of the atom pair.

    n_hat is the interatomic direction and phi_L the accumulated laser
    phase difference between the two atoms.  Outputs are quoted at exact
    backscattering with |g|^2 divided out, so neither the distance nor the
    detection angle enters them; averaging over both is mc_average's.
    """

    n_hat: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    phi_L: float = 0.0

    def __post_init__(self):
        n = np.asarray(self.n_hat, dtype=float)
        if n.shape != (3,):
            raise ValueError("n_hat must be a 3-vector")
        if not np.all(np.isfinite(n)):
            raise ValueError(f"n_hat must be finite, got {n}")
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("n_hat must be a unit vector (|n| - 1 within 1e-12)")
        object.__setattr__(self, "n_hat", n)
        require_finite(self, "phi_L")

    @property
    def geometry_weight(self) -> float:
        """|e_{+1} . Delta(n) . e_{+1}|^2 for this orientation."""
        return abs(transverse_helicity_element(self.n_hat)) ** 2
