"""Kinematics and torque checks against hand-derived and numeric oracles."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from forceplan import robot
from forceplan.robot import (
    default_arm,
    fk,
    ik,
    jacobian,
    planar_two_link_arm,
)
from forceplan.spatial import Transform, Wrench, rot_y
from forceplan.stability import torque_stable


def numeric_jacobian(arm, q, eps=1e-5):
    """Central-difference Jacobian, written independently of the analytic one."""
    n = len(q)
    J = np.zeros((6, n))
    for i in range(n):
        dq = np.zeros(n)
        dq[i] = eps
        plus = fk(arm, q + dq)
        minus = fk(arm, q - dq)
        J[:3, i] = (plus.translation - minus.translation) / (2 * eps)
        rel = Rotation.from_matrix(plus.rotation @ minus.rotation.T).as_rotvec()
        J[3:, i] = rel / (2 * eps)
    return J


class TestPlanarTwoLink:
    def test_fk_straight(self):
        arm = planar_two_link_arm()
        pose = fk(arm, [0.0, 0.0])
        np.testing.assert_allclose(pose.translation, [2.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(pose.rotation, np.eye(3), atol=1e-12)

    def test_fk_first_joint_quarter_turn(self):
        arm = planar_two_link_arm()
        pose = fk(arm, [np.pi / 2, 0.0])
        np.testing.assert_allclose(pose.translation, [0.0, 2.0, 0.0], atol=1e-12)

    def test_fk_elbow_bend(self):
        arm = planar_two_link_arm()
        pose = fk(arm, [0.0, np.pi / 2])
        np.testing.assert_allclose(pose.translation, [1.0, 1.0, 0.0], atol=1e-12)

    def test_jacobian_straight_config(self):
        arm = planar_two_link_arm()
        J = jacobian(arm, [0.0, 0.0])
        np.testing.assert_allclose(J[:3, 0], [0.0, 2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(J[:3, 1], [0.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(J[3:, 0], [0.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(J[3:, 1], [0.0, 0.0, 1.0], atol=1e-12)

    def test_torques_for_downward_push(self):
        # Force (0, -10, 0) at the tip of the straight arm loads the base
        # joint with lever 2 and the elbow with lever 1.
        arm = planar_two_link_arm()
        w = Wrench(np.array([0.0, -10.0, 0.0]), np.zeros(3))
        tau = jacobian(arm, [0.0, 0.0]).T @ w.as_array()
        np.testing.assert_allclose(tau, [-20.0, -10.0], atol=1e-12)

    def test_margin_with_ample_limits(self):
        arm = planar_two_link_arm(torque_limits=(30.0, 30.0))
        w = Wrench(np.array([0.0, -10.0, 0.0]), np.zeros(3))
        verdict = torque_stable(arm, [0.0, 0.0], w)
        assert verdict.stable
        assert verdict.margin == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert verdict.failing_joint is None

    def test_overload_names_worst_joint(self):
        arm = planar_two_link_arm(torque_limits=(15.0, 30.0))
        w = Wrench(np.array([0.0, -10.0, 0.0]), np.zeros(3))
        verdict = torque_stable(arm, [0.0, 0.0], w)
        assert not verdict.stable
        assert verdict.margin == pytest.approx(1.0 - 20.0 / 15.0, abs=1e-12)
        assert verdict.failing_joint == 0

    def test_limit_is_strict(self):
        arm = planar_two_link_arm(torque_limits=(20.0, 30.0))
        w = Wrench(np.array([0.0, -10.0, 0.0]), np.zeros(3))
        verdict = torque_stable(arm, [0.0, 0.0], w)
        assert not verdict.stable
        assert verdict.margin == pytest.approx(0.0, abs=1e-12)

    def test_pure_torque_loads_both_joints(self):
        arm = planar_two_link_arm()
        w = Wrench(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        tau = jacobian(arm, [0.3, -0.4]).T @ w.as_array()
        np.testing.assert_allclose(tau, [1.0, 1.0], atol=1e-12)


class TestJacobianNumeric:
    def test_planar_matches_finite_differences(self):
        arm = planar_two_link_arm()
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = rng.uniform(-np.pi, np.pi, size=2)
            np.testing.assert_allclose(
                jacobian(arm, q), numeric_jacobian(arm, q), atol=1e-6
            )

    def test_default_arm_matches_finite_differences(self):
        arm = default_arm()
        rng = np.random.default_rng(8)
        for _ in range(50):
            q = rng.uniform(-1.5, 1.5, size=arm.dof)
            np.testing.assert_allclose(
                jacobian(arm, q), numeric_jacobian(arm, q), atol=1e-6
            )

    def test_default_arm_matches_a_cross_product_per_joint(self):
        arm = default_arm()
        rng = np.random.default_rng(9)
        for _ in range(500):
            q = rng.uniform(-3.0, 3.0, size=arm.dof)
            origins, axes, _, p_ee = robot._chain_frames(arm, q)
            J = np.zeros((6, arm.dof))
            for i in range(arm.dof):
                J[:3, i] = np.cross(axes[i], p_ee - origins[i])
                J[3:, i] = axes[i]
            fast = jacobian(arm, q)
            # Same bits and the same layout, so ik's BLAS calls sum alike.
            assert fast.tobytes() == J.tobytes() and fast.flags.c_contiguous


class TestDefaultArm:
    def test_shape_and_limits(self):
        arm = default_arm()
        assert arm.dof == 7
        np.testing.assert_allclose(
            arm.torque_limits, [87.0, 87.0, 87.0, 87.0, 12.0, 12.0, 12.0]
        )
        assert arm.within_limits(arm.mid_config())

    def test_upright_height(self):
        arm = default_arm()
        pose = fk(arm, np.zeros(7))
        np.testing.assert_allclose(pose.translation, [0.0, 0.0, 1.23], atol=1e-12)


class TestInverseKinematics:
    def test_round_trip_random_configs(self):
        arm = default_arm()
        rng = np.random.default_rng(11)
        for _ in range(30):
            q_true = rng.uniform(-1.2, 1.2, size=arm.dof)
            target = fk(arm, q_true)
            q = ik(arm, target)
            assert q is not None
            pose = fk(arm, q)
            err = np.linalg.norm(pose.translation - target.translation)
            assert err < 1e-4
            assert arm.within_limits(q)

    def test_downward_grasp_pose_reachable(self):
        # Tool z pointing down at a point on the table in front of the base.
        arm = default_arm()
        target = Transform(rot_y(np.pi), np.array([0.45, 0.1, 0.25]))
        q = ik(arm, target)
        assert q is not None
        pose = fk(arm, q)
        assert np.linalg.norm(pose.translation - target.translation) < 1e-4

    def test_unreachable_returns_none(self):
        arm = planar_two_link_arm()
        target = Transform(np.eye(3), np.array([5.0, 0.0, 0.0]))
        assert ik(arm, target) is None

    def test_target_beyond_reach_runs_no_restart(self, monkeypatch):
        arm = default_arm()
        calls = []
        chain_frames = robot._chain_frames
        monkeypatch.setattr(
            robot, "_chain_frames", lambda *a: calls.append(a) or chain_frames(*a)
        )
        far = Transform(rot_y(np.pi), np.array([3.0, 0.0, 0.0]))
        assert ik(arm, far) is None
        assert calls == []
        # The fully stretched arm sits exactly at the reach bound.
        assert ik(arm, fk(arm, np.zeros(arm.dof))) is not None

    def test_deterministic(self):
        arm = default_arm()
        target = Transform(rot_y(np.pi), np.array([0.4, -0.2, 0.3]))
        q1 = ik(arm, target)
        q2 = ik(arm, target)
        np.testing.assert_array_equal(q1, q2)
