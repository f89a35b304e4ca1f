"""Double-scattering interference of intense laser light by two driven atoms.

The package computes the ladder (incoherent) and crossed (interference)
contributions to the backscattered intensity and its inelastic emission
spectrum for a pair of laser-driven four-level atoms, compares them against
closed-form references, and averages the interference contrast over random
pair geometries.
"""

__version__ = "0.1.0"
