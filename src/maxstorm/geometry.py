"""Coordinate arithmetic on the plane and the unit sphere.

Planar sites move by translation (a plain coordinate subtraction in the
recursion), spherical sites by rotation about a fixed axis.  Both realize
the one-step space shift of the Markovian field models, so the code here is
kept deliberately small and pure: a site set over a read-only coordinate
array, a rotation spec and a handful of vectorized helpers.  A single site
is a plain coordinate array.  Angles are radians everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "RotationSpec",
    "SiteSet",
    "rotation_matrix",
    "unit_vector",
    "cross_product_matrix",
    "square_grid",
    "fibonacci_sphere",
]

# Unit-norm tolerance applied at construction; renormalization is never
# silent, callers must go through unit_vector() explicitly.
UNIT_NORM_TOL = 1e-12


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValidationError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class RotationSpec:
    """Rotation by ``angle`` radians per unit time step about ``axis``.

    Parameters
    ----------
    angle : float
        Signed rotation angle per time step, in radians.
    axis : tuple of 3 floats
        Unit vector along the rotation axis.  Must have norm one within
        1e-12; no silent renormalization is performed.
    """

    angle: float
    axis: tuple[float, float, float]

    def __post_init__(self) -> None:
        _require_finite("rotation angle", self.angle)
        _require_finite("rotation axis component", *self.axis)
        norm = math.sqrt(sum(c * c for c in self.axis))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValidationError(
                f"rotation axis must have unit norm within {UNIT_NORM_TOL:g}, "
                f"got norm {norm!r}; renormalize explicitly via unit_vector()"
            )

    def axis_array(self) -> np.ndarray:
        return np.array(self.axis, dtype=float)


def unit_vector(v: np.ndarray) -> np.ndarray:
    """Return ``v`` rescaled to unit norm.

    The explicit helper for callers holding an almost-unit vector; value
    types reject non-unit input instead of fixing it up behind the caller's
    back.
    """
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not math.isfinite(norm):
        raise ValidationError(f"cannot normalize vector with norm {norm!r}")
    return v / norm


def cross_product_matrix(u: np.ndarray) -> np.ndarray:
    """Matrix ``[u]_x`` with ``[u]_x w = u x w`` for all 3-vectors ``w``."""
    u = np.asarray(u, dtype=float)
    return np.array(
        [
            [0.0, -u[2], u[1]],
            [u[2], 0.0, -u[0]],
            [-u[1], u[0], 0.0],
        ]
    )


def rotation_matrix(spec: RotationSpec, steps: float = 1.0) -> np.ndarray:
    """Rotation matrix about ``spec.axis`` by ``spec.angle * steps`` radians.

    Evaluating the axis-angle form directly at the accumulated angle keeps
    repeated application exactly orthogonal: no drift from products of many
    single-step matrices.

    Parameters
    ----------
    spec : RotationSpec
    steps : float
        Multiple of the per-step angle, may be negative or fractional.

    Returns
    -------
    numpy.ndarray
        Orthogonal 3x3 matrix with determinant one.
    """
    if not math.isfinite(steps):
        raise ValidationError(f"steps must be finite, got {steps!r}")
    u = spec.axis_array()
    angle = spec.angle * steps
    c, s = math.cos(angle), math.sin(angle)
    return c * np.eye(3) + s * cross_product_matrix(u) + (1.0 - c) * np.outer(u, u)


@dataclass(frozen=True)
class SiteSet:
    """Finite ordered collection of sites, planar or spherical.

    Wraps a read-only coordinate array of shape ``(M, 2)`` for planar sites
    or ``(M, 3)`` for unit vectors on the sphere.  Order is significant:
    field values are reported site-by-site in this order.
    """

    coords: np.ndarray = field(repr=False)
    kind: str = "planar"

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[0] == 0:
            raise ValidationError(
                f"site coordinates must be a non-empty 2-d array, got shape {coords.shape}"
            )
        if not np.all(np.isfinite(coords)):
            raise ValidationError("site coordinates must be finite")
        if self.kind == "planar":
            if coords.shape[1] != 2:
                raise ValidationError(
                    f"planar sites need 2 coordinates, got {coords.shape[1]}"
                )
        elif self.kind == "sphere":
            if coords.shape[1] != 3:
                raise ValidationError(
                    f"sphere sites need 3 coordinates, got {coords.shape[1]}"
                )
            norms = np.linalg.norm(coords, axis=1)
            if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
                worst = float(np.max(np.abs(norms - 1.0)))
                raise ValidationError(
                    f"sphere sites must have unit norm within {UNIT_NORM_TOL:g} "
                    f"(worst deviation {worst:.3e}); renormalize via unit_vector()"
                )
        else:
            raise ValidationError(f"unknown site kind {self.kind!r}")
        coords = coords.copy()
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @classmethod
    def planar(cls, coords: np.ndarray) -> "SiteSet":
        return cls(np.asarray(coords, dtype=float), "planar")

    @classmethod
    def sphere(cls, coords: np.ndarray) -> "SiteSet":
        return cls(np.asarray(coords, dtype=float), "sphere")

    def __len__(self) -> int:
        return self.coords.shape[0]


def square_grid(n_side: int, spacing: float = 1.0, origin: tuple[float, float] = (0.0, 0.0)) -> SiteSet:
    """Regular ``n_side x n_side`` planar grid, row-major from ``origin``."""
    if n_side < 1:
        raise ValidationError(f"n_side must be >= 1, got {n_side}")
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValidationError(f"spacing must be positive, got {spacing!r}")
    ax = origin[0] + spacing * np.arange(n_side)
    ay = origin[1] + spacing * np.arange(n_side)
    g1, g2 = np.meshgrid(ax, ay, indexing="ij")
    return SiteSet.planar(np.column_stack([g1.ravel(), g2.ravel()]))


def fibonacci_sphere(n: int) -> SiteSet:
    """Quasi-uniform mesh of ``n`` points on the unit sphere.

    Golden-angle spiral; adequate for visual-grade fields and demo meshes,
    not an exact equal-area partition.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    k = np.arange(n, dtype=float)
    # Midpoint offset keeps the poles off the mesh for every n.
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * k
    coords = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    coords /= np.linalg.norm(coords, axis=1)[:, None]
    return SiteSet.sphere(coords)
