"""Fast checks of the benchmark's reference computations.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_reference.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from maxstorm import LagSpec, MarkovParams, SmithParams, extremal_coefficient  # noqa: E402


@pytest.mark.parametrize(
    "lag, h, sigma, a, tau",
    [
        (0, (1.0, 0.0), (1.0, 0.0, 1.0), 0.7, (-1.0, -1.0)),
        (1, (0.0, 0.0), (1.0, 0.0, 1.0), 0.7, (-1.0, -1.0)),
        (1, (-1.0, -1.0), (1.0, 0.0, 1.0), 0.7, (-1.0, -1.0)),
        (2, (0.5, -2.0), (2.0, 0.6, 1.0), 0.4, (0.3, 1.2)),
        (-3, (1.5, 0.5), (1.0, -0.3, 0.5), 0.9, (-0.5, 0.25)),
        (5, (3.0, 3.0), (1.0, 0.0, 1.0), 0.7, (-1.0, -1.0)),
    ],
)
def test_theta_matches_program(lag, h, sigma, a, tau):
    s11, s12, s22 = sigma
    expected = extremal_coefficient(
        LagSpec(lag, h), SmithParams(s11, s12, s22), MarkovParams(a, tau=tau)
    )
    cov = np.array([[s11, s12], [s12, s22]])
    assert reference.smith_theta(lag, h, cov, a, tau) == pytest.approx(expected, abs=1e-12)


def test_theta_limits():
    eye = np.eye(2)
    # Same date, same site: complete dependence.
    assert reference.smith_theta(0, (0.0, 0.0), eye, 0.7, (0.0, 0.0)) == 1.0
    # Moving-frame lag: only the fresh innovations separate the pair.
    assert reference.smith_theta(2, (-2.0, 0.0), eye, 0.5, (-1.0, 0.0)) == pytest.approx(1.75)
    # Far apart on one date: independence.
    assert reference.smith_theta(0, (60.0, 0.0), eye, 0.7, (0.0, 0.0)) == pytest.approx(2.0)


def test_frechet_cdf_known_values():
    z = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(
        reference.frechet_cdf(z), [math.exp(-2.0), math.exp(-1.0), math.exp(-0.5)], rtol=1e-15
    )


def test_madogram_known_inputs():
    assert reference.madogram([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == 0.0
    assert reference.madogram([0.0, 1.0], [1.0, 0.0]) == 0.5
    assert reference.madogram([0.2, 0.6], [0.4, 0.3]) == pytest.approx(0.125)


def test_madogram_theta_map():
    assert reference.theta_to_madogram(1.0) == 0.0
    assert reference.theta_to_madogram(2.0) == pytest.approx(1.0 / 6.0)
    # Independent uniforms: E|U1 - U2| / 2 = 1/6.
    rng = np.random.default_rng(3)
    u1, u2 = rng.uniform(size=(2, 200_000))
    assert reference.madogram(u1, u2) == pytest.approx(1.0 / 6.0, abs=2e-3)
