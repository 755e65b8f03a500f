import numpy as np
import pytest

import freesub
from freesub import additive


@pytest.fixture(scope="session")
def standard_line_measures():
    """The five line measures exercised throughout the suite."""
    return {
        "semicircle": freesub.semicircle(0, 1),
        "bernoulli": freesub.bernoulli_pm1(),
        "arcsine": freesub.arcsine(),
        "marchenko_pastur": freesub.marchenko_pastur(1.0),
        "atomic": freesub.atomic([(-2.0, 1 / 3), (0.0, 1 / 3), (1.0, 1 / 3)]),
    }


@pytest.fixture(scope="session")
def line_pairs(standard_line_measures):
    names = list(standard_line_measures)
    return [(standard_line_measures[a], standard_line_measures[b])
            for i, a in enumerate(names) for b in names[i + 1:]]


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture(scope="session")
def invert():
    """Stieltjes inversion of any Cauchy-transform evaluator by the
    package's density steps: ``run(g_eval, grid, etas)`` sums the heights'
    -Im g_eval(grid + i*eta)/pi with their Lagrange weights and returns
    ``additive._density``'s (measure, renorm)."""
    def run(g_eval, grid, etas):
        grid, etas, coeff = additive._heights(grid, etas)
        dens = np.zeros(grid.size)
        for c, eta in zip(coeff, etas):
            dens += c * (-np.imag(g_eval(grid + 1j * eta)) / np.pi)
        return additive._density(grid, dens)
    return run
