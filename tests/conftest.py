import numpy as np
import pytest

from cbs2.acceptance import AcceptanceSuite
from cbs2.generators import HILBERT_DIM
from cbs2.geometry import Configuration, PhysParams
from cbs2.perturbation import build_expansion


def apply(gen, rho):
    """Apply a 256 x 256 generator (dense or sparse) to a 16 x 16 matrix."""
    flat = np.asarray(rho, dtype=complex).reshape(-1)
    return (gen @ flat).reshape(HILBERT_DIM, HILBERT_DIM)


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
