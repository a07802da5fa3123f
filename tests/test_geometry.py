"""Sites, grids and rotations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxstorm import (
    RotationSpec,
    SiteSet,
    ValidationError,
    fibonacci_sphere,
    rotation_matrix,
    square_grid,
)


class TestRotationMatrix:
    def test_zero_steps_is_identity(self):
        spec = RotationSpec(0.37, (0.0, 0.0, 1.0))
        np.testing.assert_allclose(rotation_matrix(spec, steps=0.0), np.eye(3), atol=1e-15)

    def test_quarter_turn_about_z_moves_x_to_y(self):
        spec = RotationSpec(np.pi / 2, (0.0, 0.0, 1.0))
        out = rotation_matrix(spec, steps=1.0) @ np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-15)

    def test_two_steps_equal_doubled_angle(self):
        two = rotation_matrix(RotationSpec(0.3, (0.0, 0.0, 1.0)), steps=2.0)
        doubled = rotation_matrix(RotationSpec(0.6, (0.0, 0.0, 1.0)), steps=1.0)
        np.testing.assert_allclose(two, doubled, atol=1e-14)

    def test_axis_is_fixed(self):
        axis = np.array([1.0, 2.0, -0.5])
        spec = RotationSpec(1.1, tuple(axis / np.linalg.norm(axis)))
        R = rotation_matrix(spec, steps=3.0)
        np.testing.assert_allclose(R @ np.asarray(spec.axis), spec.axis, atol=1e-14)

    def test_full_turn_composition_returns_identity(self):
        # angle 2*pi/k applied k times must close the loop exactly.
        k = 7
        spec = RotationSpec(2.0 * np.pi / k, (0.0, 1.0, 0.0))
        step = rotation_matrix(spec, steps=1.0)
        prod = np.linalg.multi_dot([step] * k)
        np.testing.assert_allclose(prod, np.eye(3), atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(
        angle=st.floats(-10.0, 10.0),
        steps=st.floats(-5.0, 5.0),
        ax=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
            lambda v: np.linalg.norm(v) > 1e-3
        ),
    )
    def test_always_orthogonal_with_unit_determinant(self, angle, steps, ax):
        axis = tuple(np.asarray(ax) / np.linalg.norm(ax))
        R = rotation_matrix(RotationSpec(angle, axis), steps=steps)
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValidationError):
            RotationSpec(1.0, (0.0, 0.0, 0.0))


class TestSiteSets:
    def test_square_grid_layout(self):
        grid = square_grid(3, spacing=0.5, origin=(1.0, 2.0))
        coords = np.asarray(grid.coords)
        assert coords.shape == (9, 2)
        assert coords[:, 0].min() == 1.0 and coords[:, 1].min() == 2.0
        xs = np.unique(coords[:, 0])
        np.testing.assert_allclose(np.diff(xs), 0.5)

    def test_fibonacci_sphere_unit_norms(self):
        mesh = fibonacci_sphere(50)
        coords = np.asarray(mesh.coords)
        assert coords.shape == (50, 3)
        np.testing.assert_allclose(np.linalg.norm(coords, axis=1), 1.0, atol=1e-12)

    def test_planar_rejects_wrong_width(self):
        with pytest.raises(ValidationError):
            SiteSet.planar(np.zeros((3, 3)))

    def test_sphere_rejects_non_unit_vectors(self):
        with pytest.raises(ValidationError):
            SiteSet.sphere(np.array([[1.0, 1.0, 1.0]]))

    def test_nonfinite_coordinates_rejected(self):
        with pytest.raises(ValidationError):
            SiteSet.planar(np.array([[0.0, np.nan]]))
