"""Frame algebra unit and property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from forceplan.robot import default_arm
from forceplan.spatial import (
    Transform,
    Wrench,
    compose,
    matrix_rotvec,
    rot_y,
    rot_z,
    rotvec_matrices,
    rotvec_matrix,
    transform_wrench,
)


def rot_x(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def invert(t):
    return Transform(t.rotation.T, -t.rotation.T @ t.translation)


def apply_point(t, p):
    return t.rotation @ p + t.translation


def transform_twist(linear, angular, t):
    """Re-express a twist ``(v, omega)`` under ``t``.

    The angular velocity is the free vector and the linear velocity at the
    target origin picks up the lever term: omega' = R omega,
    v' = R v + t x (R omega).  This map is adjoint to ``transform_wrench``,
    which keeps the power pairing ``f . v + tau . omega`` frame invariant.
    """
    omega = t.rotation @ angular
    return t.rotation @ linear + np.cross(t.translation, omega), omega


def random_rotation(rng):
    # Composing three principal rotations reaches all of SO(3).
    return rot_z(rng.uniform(-np.pi, np.pi)) @ rot_y(
        rng.uniform(-np.pi, np.pi)
    ) @ rot_x(rng.uniform(-np.pi, np.pi))


def random_transform(rng):
    return Transform(random_rotation(rng), rng.normal(scale=0.5, size=3))


angles = st.floats(min_value=-3.1, max_value=3.1, allow_nan=False)
coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def transform_strategy():
    return st.builds(
        lambda a, b, c, tx, ty, tz: Transform(
            rot_z(a) @ rot_y(b) @ rot_x(c), np.array([tx, ty, tz])
        ),
        angles,
        angles,
        angles,
        coords,
        coords,
        coords,
    )


def wrench_strategy():
    comp = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
    return st.builds(
        lambda a, b, c, d, e, f: Wrench(np.array([a, b, c]), np.array([d, e, f])),
        *[comp] * 6,
    )


class TestTransform:
    def test_compose_frozen_example(self):
        a = Transform(rot_z(np.pi / 2), np.array([1.0, 0.0, 0.0]))
        b = Transform(np.eye(3), np.array([0.0, 1.0, 0.0]))
        c = compose(a, b)
        np.testing.assert_allclose(c.rotation, rot_z(np.pi / 2), atol=1e-12)
        np.testing.assert_allclose(c.translation, [0.0, 0.0, 0.0], atol=1e-12)

    def test_rejects_non_orthonormal(self):
        bad = np.eye(3)
        bad[0, 0] = 1.1
        with pytest.raises(ValueError):
            Transform(bad, np.zeros(3))

    def test_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Transform(refl, np.zeros(3))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Transform(np.eye(3), np.array([np.nan, 0.0, 0.0]))

    @settings(max_examples=150, deadline=None)
    @given(transform_strategy())
    def test_invert_round_trip(self, t):
        rt = compose(invert(t), t)
        np.testing.assert_allclose(rt.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(rt.translation, np.zeros(3), atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(transform_strategy(), transform_strategy())
    def test_compose_associates_with_points(self, a, b):
        p = np.array([0.3, -0.2, 0.7])
        np.testing.assert_allclose(
            apply_point(compose(a, b), p), apply_point(a, apply_point(b, p)), atol=1e-9
        )


class TestWrench:
    def test_transform_wrench_frozen_example(self):
        w = Wrench(np.array([0.0, 0.0, -10.0]), np.zeros(3))
        t = Transform(np.eye(3), np.array([0.1, 0.0, 0.0]))
        out = transform_wrench(w, t)
        np.testing.assert_allclose(out.force, [0.0, 0.0, -10.0], atol=1e-12)
        np.testing.assert_allclose(out.torque, [0.0, 1.0, 0.0], atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Wrench(np.array([np.inf, 0.0, 0.0]), np.zeros(3))

    @settings(max_examples=150, deadline=None)
    @given(wrench_strategy(), transform_strategy())
    def test_round_trip(self, w, t):
        back = transform_wrench(transform_wrench(w, t), invert(t))
        np.testing.assert_allclose(back.force, w.force, atol=1e-9)
        np.testing.assert_allclose(back.torque, w.torque, atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(wrench_strategy(), wrench_strategy(), transform_strategy())
    def test_linearity(self, w1, w2, t):
        a, b = 0.7, -1.3
        lhs = transform_wrench(
            Wrench(a * w1.force + b * w2.force, a * w1.torque + b * w2.torque), t
        )
        r1 = transform_wrench(w1, t)
        r2 = transform_wrench(w2, t)
        np.testing.assert_allclose(lhs.force, a * r1.force + b * r2.force, atol=1e-9)
        np.testing.assert_allclose(lhs.torque, a * r1.torque + b * r2.torque, atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(wrench_strategy(), wrench_strategy(), transform_strategy())
    def test_power_pairing_invariant(self, w, v, t):
        # Read v as a twist (linear velocity, angular velocity) at the same
        # origin; the wrench map and the twist map are adjoint, so the
        # power they pair to is frame independent.
        power_src = w.force @ v.force + w.torque @ v.torque
        wt = transform_wrench(w, t)
        lin, ang = transform_twist(v.force, v.torque, t)
        power_tgt = wt.force @ lin + wt.torque @ ang
        assert abs(power_src - power_tgt) < 1e-9 * max(1.0, abs(power_src))



def bitwise_equal(a, b):
    """Equal values and equal signs of zero: what later arithmetic can see."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def rotation_vectors():
    """Rotation vectors at every scale the package uses, both Taylor sides."""
    rng = np.random.default_rng(11)
    units = rng.normal(size=(200, 3))
    units /= np.linalg.norm(units, axis=1)[:, None]
    angles = [1e-6, 1e-4, 9.999e-4, 1e-3, 1.0001e-3, 2e-3, 0.1, 1.0, 3.0, np.pi]
    vectors = [np.zeros((1, 3)), 0.017 * rng.normal(size=(2000, 3))]
    vectors += [units * a for a in angles]
    # Each joint of the default arm, as its forward kinematics rotates it.
    q = np.linspace(-3.0, 3.0, 601)
    vectors += [axis * q[:, None] for axis in default_arm().joint_axes]
    return np.concatenate(vectors)


def rotation_matrices():
    rng = np.random.default_rng(12)
    units = rng.normal(size=(300, 3))
    units /= np.linalg.norm(units, axis=1)[:, None]
    near_pi = [units * (np.pi - gap) for gap in (0.0, 1e-12, 1e-8, 1e-4)]
    random = [random_rotation(rng) for _ in range(500)]
    return np.concatenate([
        np.eye(3)[None], np.array(random),
        Rotation.from_rotvec(np.concatenate([rotation_vectors(), *near_pi])).as_matrix(),
    ])


class TestRotationVectors:
    """The closed-form rotations against scipy's ``Rotation``, bit for bit."""

    def test_one_vector_matches_scipy(self):
        for v in rotation_vectors():
            assert bitwise_equal(rotvec_matrix(v), Rotation.from_rotvec(v).as_matrix())

    def test_batched_vectors_match_scipy(self):
        v = rotation_vectors()
        assert bitwise_equal(rotvec_matrices(v), Rotation.from_rotvec(v).as_matrix())

    def test_matrix_to_vector_matches_scipy(self):
        for m in rotation_matrices():
            assert bitwise_equal(matrix_rotvec(m), Rotation.from_matrix(m).as_rotvec())

    def test_a_matrix_off_orthogonal_is_projected_as_scipy_does(self):
        rng = np.random.default_rng(13)
        for m in rotation_matrices()[::4]:
            bent = m + 1e-9 * rng.normal(size=(3, 3))
            assert bitwise_equal(matrix_rotvec(bent), Rotation.from_matrix(bent).as_rotvec())

    def test_a_reflection_raises_as_scipy_does(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError) as expected:
            Rotation.from_matrix(refl)
        with pytest.raises(type(expected.value)):
            matrix_rotvec(refl)
