import itertools
import math

import numpy as np
import pytest

from cbs2.acceptance import AcceptanceSuite
from cbs2.average import AverageSpec, _check_theta
from cbs2.generators import HILBERT_DIM, LIOUVILLE_DIM, OperatorEntries
from cbs2.geometry import Configuration, PhysParams
from cbs2.perturbation import _sector_blocks, build_expansion

#: The edge grid of the steady state's degeneracy check: (omega, delta,
#: phi_L) at gamma = 1, drives from none to 1e12, detunings up to 1e6.
EDGE_OMEGAS = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 1e3, 1e6, 1e7, 1e8, 1e10, 1e12)
EDGE_GRID = tuple(itertools.product(EDGE_OMEGAS, (0.0, 1.0, 1e4, 1e6), (0.0, 0.5, 2.5)))


def apply(gen, rho):
    """Apply a 256 x 256 generator (dense or sparse) to a 16 x 16 matrix."""
    flat = np.asarray(rho, dtype=complex).reshape(-1)
    return (gen @ flat).reshape(HILBERT_DIM, HILBERT_DIM)


def dense_sector_blocks(matrix):
    """_sector_blocks of a dense 256 x 256 generator."""
    return _sector_blocks(OperatorEntries.from_dense(matrix))


def gathered_blocks(matrix, index):
    """The diagonal blocks of a dense 256 x 256 matrix on the (count, dim)
    sector indices index, gathered from it: the reference of the blocks
    that _sector_blocks scatters from the entries."""
    return matrix[index[:, :, None], index[:, None, :]]


def random_pattern_matrix(seed):
    rng = np.random.default_rng(seed)
    matrix = np.zeros((LIOUVILLE_DIM, LIOUVILLE_DIM), dtype=complex)
    hit = rng.random(matrix.shape) < 2e-3
    matrix[hit] = rng.standard_normal(hit.sum()) + 1j * rng.standard_normal(hit.sum())
    return matrix


def partial_trace(rho: np.ndarray, keep_atom: int) -> np.ndarray:
    """Reduce a 16 x 16 two-atom state to the 4 x 4 state of one atom."""
    r = np.asarray(rho).reshape(4, 4, 4, 4)
    if keep_atom == 1:
        return np.einsum("abcb->ac", r)
    if keep_atom == 2:
        return np.einsum("abad->bd", r)
    raise ValueError("keep_atom must be 1 or 2")


def one_shot_mc_average(spec: AverageSpec, theta: float = 0.0) -> tuple[float, float]:
    """mc_average as it was before the chunked draw, with every sample
    drawn at once: the bitwise reference of the chunked one."""
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


@pytest.fixture(scope="session")
def suite():
    """Shared acceptance suite; spectra are computed once and cached."""
    return AcceptanceSuite(profile="default")


@pytest.fixture(scope="session")
def strong_spectrum(suite):
    return suite.spectrum(100.0)


@pytest.fixture(scope="session")
def weak_spectrum(suite):
    return suite.spectrum(0.1)


@pytest.fixture(scope="session")
def expansion_s1():
    return build_expansion(PhysParams.from_saturation(1.0), Configuration())


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260814)
