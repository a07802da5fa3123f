"""Reference computations the benchmark checks the program against.

Written from the model's formulas alone, without calling maxstorm: the
Smith space-time extremal coefficient, the standard Frechet CDF and the
F-madogram with its map to the extremal coefficient.
"""

from __future__ import annotations

import math

import numpy as np


def std_normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def smith_theta(lag: float, h, sigma, a: float, tau) -> float:
    """Pair extremal coefficient ``V(1, a**-l; h1) + 1 - a**l``.

    ``h1`` is the Mahalanobis length of ``h - l * tau`` under the storm
    covariance ``sigma``; ``V(z1, z2; h) = Phi(h/2 + log(z2/z1)/h) / z1 +
    Phi(h/2 + log(z1/z2)/h) / z2`` is the bivariate Smith exponent, with
    the limit ``max(1/z1, 1/z2)`` at ``h = 0``.
    """
    h = np.asarray(h, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if lag < 0:
        lag, h = -lag, -h
    d = h - lag * tau
    h1 = math.sqrt(max(float(d @ np.linalg.solve(np.asarray(sigma, float), d)), 0.0))
    al = a ** lag
    if h1 == 0.0:
        v = max(1.0, al)
    else:
        log_ratio = -lag * math.log(a)  # log(z2 / z1) with z1 = 1, z2 = a**-l
        v = std_normal_cdf(0.5 * h1 + log_ratio / h1) + al * std_normal_cdf(
            0.5 * h1 - log_ratio / h1
        )
    return v + 1.0 - al


def frechet_cdf(z) -> np.ndarray:
    """Standard Frechet CDF ``exp(-1/z)`` on positive ``z``."""
    return np.exp(-1.0 / np.asarray(z, dtype=float))


def madogram(u1, u2) -> float:
    """F-madogram ``E|U1 - U2| / 2`` estimated from paired uniforms."""
    return 0.5 * float(np.mean(np.abs(np.asarray(u1) - np.asarray(u2))))


def theta_to_madogram(theta: float) -> float:
    """F-madogram implied by an extremal coefficient: ``(theta-1) / (2(theta+1))``."""
    return 0.5 * (theta - 1.0) / (theta + 1.0)
