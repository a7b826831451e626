"""Stability model tests: frozen worked examples plus randomized oracles."""

import itertools

import numpy as np
import pytest

from forceplan.spatial import Transform, Wrench
from forceplan.stability import (
    ArmJoint,
    CircularPatchJoint,
    ForcefulKinematicChain,
    PolygonPatchJoint,
    RigidJoint,
    chain_stable,
    friction_cone_generators,
    friction_cone_generators_batch,
    in_convex_cone,
    joint_stable,
    limit_surface_stable,
)


def ellipsoid_form_oracle(w, N, mu, r):
    """Quadratic form via the explicit diagonal matrix, kept independent of
    the implementation under test."""
    k = 0.6 * r
    A = np.diag([1.0 / (N * mu) ** 2, 1.0 / (N * mu) ** 2, 1.0 / (N * k * mu) ** 2])
    w = np.asarray(w, dtype=float)
    return w @ A @ w


def cone_member_oracle(w, generators, tol=1e-7):
    """Brute-force conic membership via Caratheodory subset enumeration."""
    w = np.asarray(w, dtype=float)
    gens = np.asarray(generators, dtype=float)
    scale = max(np.linalg.norm(w), 1.0)
    if np.linalg.norm(w) <= tol:
        return True
    m, d = gens.shape
    for size in range(1, min(m, d) + 1):
        for subset in itertools.combinations(range(m), size):
            G = gens[list(subset)].T
            lam, res, _, _ = np.linalg.lstsq(G, w, rcond=None)
            if np.any(lam < -tol * scale):
                continue
            if np.linalg.norm(G @ np.clip(lam, 0.0, None) - w) <= tol * scale:
                return True
    return False


class TestLimitSurface:
    def test_frozen_interior_case(self):
        joint = CircularPatchJoint(mu=0.5, radius_r=0.05, normal_force_N=10.0)
        assert joint.twist_constant_k == pytest.approx(0.03)
        w = [3.0, 0.0, 0.1]
        form = ellipsoid_form_oracle(w, 10.0, 0.5, 0.05)
        assert form == pytest.approx(0.8044444444444444, abs=1e-12)
        verdict = limit_surface_stable(w, joint)
        assert verdict.stable
        assert verdict.margin == pytest.approx(1.0 - form, abs=1e-12)
        assert verdict.margin == pytest.approx(0.19555555555555557, abs=1e-12)

    def test_frozen_boundary_case(self):
        joint = CircularPatchJoint(mu=0.5, radius_r=0.05, normal_force_N=10.0)
        verdict = limit_surface_stable([5.0, 0.0, 0.0], joint)
        assert not verdict.stable
        assert abs(verdict.margin) < 1e-12

    def test_zero_normal_force_sentinel(self):
        joint = CircularPatchJoint(mu=0.5, radius_r=0.05, normal_force_N=0.0)
        verdict = limit_surface_stable([1.0, 0.0, 0.0], joint)
        assert not verdict.stable
        assert verdict.margin == -np.inf

    def test_zero_wrench_zero_capacity_is_vacuous(self):
        joint = CircularPatchJoint(mu=0.0, radius_r=0.05, normal_force_N=10.0)
        verdict = limit_surface_stable([0.0, 0.0, 0.0], joint)
        assert verdict.stable

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            N = rng.uniform(0.5, 50.0)
            mu = rng.uniform(0.05, 1.5)
            r = rng.uniform(0.005, 0.2)
            w = rng.normal(scale=[N * mu, N * mu, N * mu * 0.6 * r])
            form = ellipsoid_form_oracle(w, N, mu, r)
            verdict = limit_surface_stable(
                w, CircularPatchJoint(mu=mu, radius_r=r, normal_force_N=N)
            )
            assert verdict.stable == (form < 1.0)
            assert verdict.margin == pytest.approx(1.0 - form, abs=1e-12)

    def test_margin_monotone_in_capacity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            w = rng.normal(scale=[3.0, 3.0, 0.1])
            N, mu, r = rng.uniform(1, 20), rng.uniform(0.1, 1.0), rng.uniform(0.01, 0.1)
            base = limit_surface_stable(w, CircularPatchJoint(mu, r, N)).margin
            more_n = limit_surface_stable(w, CircularPatchJoint(mu, r, N * 1.5)).margin
            more_mu = limit_surface_stable(w, CircularPatchJoint(mu * 1.5, r, N)).margin
            assert more_n >= base
            assert more_mu >= base


class TestFrictionCone:
    def test_single_corner_generators(self):
        joint = PolygonPatchJoint(
            mu=0.3, corners=[[0.0, 0.0, 0.0]], corner_normal_forces=[10.0]
        )
        gens = friction_cone_generators(joint)
        expected = {
            (3.0, 0.0, 10.0, 0.0, 0.0, 0.0),
            (-3.0, 0.0, 10.0, 0.0, 0.0, 0.0),
            (0.0, 3.0, 10.0, 0.0, 0.0, 0.0),
            (0.0, -3.0, 10.0, 0.0, 0.0, 0.0),
        }
        assert {tuple(np.round(g, 12)) for g in gens} == expected

    def test_frozen_feasible_combination(self):
        joint = PolygonPatchJoint(
            mu=0.3, corners=[[0.0, 0.0, 0.0]], corner_normal_forces=[10.0]
        )
        gens = friction_cone_generators(joint)
        w = np.array([2.0, 0.0, 10.0, 0.0, 0.0, 0.0])
        # Hand solution: 5/6 of the +x edge plus 1/6 of the -x edge.
        lam = np.zeros(4)
        lam[[0, 1]] = [5.0 / 6.0, 1.0 / 6.0]
        np.testing.assert_allclose(gens.T @ lam, w, atol=1e-12)
        feasible, margin = in_convex_cone(w, gens)
        assert feasible and margin > 0.0

    def test_frozen_infeasible_case(self):
        joint = PolygonPatchJoint(
            mu=0.3, corners=[[0.0, 0.0, 0.0]], corner_normal_forces=[10.0]
        )
        gens = friction_cone_generators(joint)
        feasible, margin = in_convex_cone([4.0, 0.0, 10.0, 0.0, 0.0, 0.0], gens)
        assert not feasible
        assert margin < 0.0

    def test_frictionless_square_patch_generators(self):
        joint = PolygonPatchJoint(
            mu=0.0,
            corners=[[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0]],
            corner_normal_forces=[1.0, 1.0, 1.0, 1.0],
        )
        gens = friction_cone_generators(joint)
        assert gens.shape == (4, 6)
        np.testing.assert_allclose(gens[:, :3], [[0, 0, 1]] * 4, atol=1e-12)
        moments = {tuple(np.round(g[3:5], 12)) for g in gens}
        assert moments == {(1.0, -1.0), (-1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)}

    def test_unloaded_corner_dropped(self):
        joint = PolygonPatchJoint(
            mu=0.4,
            corners=[[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0]],
            corner_normal_forces=[10.0, 0.0, 10.0, 10.0],
        )
        assert friction_cone_generators(joint).shape == (12, 6)

    def test_zero_wrench_always_member(self):
        joint = PolygonPatchJoint(
            mu=0.3, corners=[[0.1, 0.0, 0.0]], corner_normal_forces=[5.0]
        )
        feasible, margin = in_convex_cone(np.zeros(6), friction_cone_generators(joint))
        assert feasible and margin == 1.0

    def test_coulomb_bound_on_single_point_cone(self):
        # The linearized pyramid is inscribed in the exact cone, so nothing
        # it accepts may exceed the Coulomb bound.
        rng = np.random.default_rng(11)
        joint = PolygonPatchJoint(
            mu=0.5, corners=[[0.0, 0.0, 0.0]], corner_normal_forces=[8.0]
        )
        gens = friction_cone_generators(joint)
        for _ in range(200):
            w = np.concatenate([rng.normal(scale=[3, 3, 5]), np.zeros(3)])
            w[2] = abs(w[2])
            feasible, _ = in_convex_cone(w, gens)
            if feasible:
                assert np.hypot(w[0], w[1]) <= 0.5 * w[2] + 1e-6

    def test_batch_generators_are_the_scalar_generators_bit_for_bit(self):
        rng = np.random.default_rng(13)
        for m in (1, 3, 4):
            corners = np.concatenate(
                [rng.uniform(-0.2, 0.2, (40, m, 2)), np.zeros((40, m, 1))], axis=2
            )
            forces = rng.uniform(0.0, 10.0, m)
            forces[0] = 0.0
            mu = rng.uniform(0.0, 1.0, 40)
            mu[::7] = -0.0
            batch = friction_cone_generators_batch(mu, corners, forces)
            for s in range(40):
                if mu[s] == 0.0:
                    continue
                scalar = friction_cone_generators(
                    PolygonPatchJoint(mu[s], corners[s], forces)
                )
                assert batch[s].shape == scalar.shape
                assert batch[s].tobytes() == scalar.tobytes()

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        mismatches = 0
        for _ in range(150):
            n_corners = rng.integers(1, 3)
            corners = np.column_stack(
                [rng.uniform(-0.2, 0.2, n_corners), rng.uniform(-0.2, 0.2, n_corners),
                 np.zeros(n_corners)]
            )
            joint = PolygonPatchJoint(
                mu=rng.uniform(0.1, 1.0),
                corners=corners,
                corner_normal_forces=rng.uniform(1.0, 10.0, n_corners),
            )
            gens = friction_cone_generators(joint)
            if rng.random() < 0.5:
                lam = rng.uniform(0.0, 2.0, gens.shape[0])
                w = gens.T @ lam
            else:
                w = rng.normal(scale=5.0, size=6)
            feasible, margin = in_convex_cone(w, gens)
            oracle = cone_member_oracle(w, gens)
            if feasible != oracle and abs(margin) >= 1e-6:
                mismatches += 1
        assert mismatches == 0


class TestJointStable:
    def test_rigid_always_stable(self):
        verdict = joint_stable(RigidJoint(), Wrench([1e5, 0, 0], [0, 0, 1e4]))
        assert verdict.stable and verdict.margin == 1.0

    def test_circular_patch_tension_unstable(self):
        joint = CircularPatchJoint(mu=0.8, radius_r=0.03, normal_force_N=15.0)
        verdict = joint_stable(joint, Wrench([0, 0, 1.0], [0, 0, 0]))
        assert not verdict.stable
        assert verdict.margin < 0.0

    def test_circular_patch_compression_ignored_by_friction_test(self):
        joint = CircularPatchJoint(mu=0.8, radius_r=0.03, normal_force_N=15.0)
        verdict = joint_stable(joint, Wrench([0, 0, -200.0], [0, 0, 0]))
        assert verdict.stable

    def test_polygon_patch_compression_ok_tension_fails(self):
        joint = PolygonPatchJoint(
            mu=0.4,
            corners=[[0.25, 0.03, 0], [0.25, -0.03, 0], [-0.25, 0.03, 0], [-0.25, -0.03, 0]],
            corner_normal_forces=[5.0, 5.0, 5.0, 5.0],
        )
        press = joint_stable(joint, Wrench([0, 0, -20.0], [0, 0, 0]))
        assert press.stable
        lift = joint_stable(joint, Wrench([0, 0, 20.0], [0, 0, 0]))
        assert not lift.stable


class TestChainStable:
    def lid_chain(self, n=15.0, mu=0.8):
        patch = CircularPatchJoint(mu=mu, radius_r=0.03, normal_force_N=n)
        return ForcefulKinematicChain(
            application_frame="lid_top", joints=((patch, Transform.identity()),)
        )

    def lid_wrench(self):
        return Wrench([0.0, 0.0, -15.0], [0.0, 0.0, 0.2], frame="lid_top")

    def test_frozen_lid_press_twist_chain(self):
        # Planar load at the patch is (0, 0, 0.2); the commanded push is the
        # patch normal force.
        form = ellipsoid_form_oracle([0.0, 0.0, 0.2], 15.0, 0.8, 0.03)
        assert form == pytest.approx(0.857338820301783, abs=1e-12)
        verdict = chain_stable(self.lid_chain(), self.lid_wrench())
        assert verdict.stable
        assert verdict.margin == pytest.approx(1.0 - form, abs=1e-12)
        assert verdict.failing_joint is None

    def test_low_friction_rejects(self):
        verdict = chain_stable(self.lid_chain(mu=0.3), self.lid_wrench())
        assert not verdict.stable
        form = ellipsoid_form_oracle([0.0, 0.0, 0.2], 15.0, 0.3, 0.03)
        assert form == pytest.approx(6.096631611034905, abs=1e-9)
        assert verdict.margin == pytest.approx(1.0 - form, abs=1e-9)
        assert verdict.failing_joint == 0

    def test_empty_chain_vacuously_stable(self):
        chain = ForcefulKinematicChain(application_frame="anything")
        verdict = chain_stable(chain, Wrench([1, 2, 3], [4, 5, 6], frame="anything"))
        assert verdict.stable and verdict.margin == 1.0

    def test_first_failing_joint_reported(self):
        good = CircularPatchJoint(mu=0.8, radius_r=0.05, normal_force_N=50.0)
        bad = CircularPatchJoint(mu=0.05, radius_r=0.01, normal_force_N=1.0)
        chain = ForcefulKinematicChain(
            "app",
            joints=(
                (good, Transform.identity()),
                (bad, Transform.identity()),
                (bad, Transform.identity()),
            ),
        )
        verdict = chain_stable(chain, Wrench([1.0, 0, 0], [0, 0, 0], frame="app"))
        assert not verdict.stable
        assert verdict.failing_joint == 1

    def test_margin_is_min_over_joints(self):
        j1 = CircularPatchJoint(mu=0.8, radius_r=0.05, normal_force_N=50.0)
        j2 = CircularPatchJoint(mu=0.4, radius_r=0.05, normal_force_N=10.0)
        chain = ForcefulKinematicChain(
            "app", joints=((j1, Transform.identity()), (j2, Transform.identity()))
        )
        w = Wrench([2.0, 0, 0], [0, 0, 0], frame="app")
        combined = chain_stable(chain, w)
        m1 = joint_stable(j1, w).margin
        m2 = joint_stable(j2, w).margin
        assert combined.margin == pytest.approx(min(m1, m2))

    def test_gravity_wrench_added_in_joint_frame(self):
        corners = [[0.25, 0.03, 0], [0.25, -0.03, 0], [-0.25, 0.03, 0], [-0.25, -0.03, 0]]
        forces = [5.0, 5.0, 5.0, 5.0]
        gravity = Wrench([0.0, 0.0, -20.0], [0.0, 0.0, 0.0])
        patch = PolygonPatchJoint(mu=0.4, corners=corners, corner_normal_forces=forces)
        loaded = PolygonPatchJoint(0.4, corners, forces, preload=gravity)
        chain = ForcefulKinematicChain("nut", joints=((loaded, Transform.identity()),))
        # A pure twist alone reacts against nothing; with the gravity load
        # pressing the patch the friction can work.
        ok = chain_stable(chain, Wrench([0, 0, 0], [0, 0, 0.5], frame="nut"))
        assert ok.stable
        bare = ForcefulKinematicChain("nut", joints=((patch, Transform.identity()),))
        assert not chain_stable(bare, Wrench([0, 0, 0], [0, 0, 0.5], frame="nut")).stable

    def test_mismatched_frame_without_tree_raises(self):
        with pytest.raises(ValueError):
            chain_stable(self.lid_chain(), Wrench([0, 0, -15], [0, 0, 0.2], frame="world"))


class TestValidation:
    def test_polygon_patch_rejects_noncoplanar(self):
        with pytest.raises(ValueError):
            PolygonPatchJoint(
                mu=0.3,
                corners=[[0, 0, 0.01], [1, 0, 0], [0, 1, 0]],
                corner_normal_forces=[1, 1, 1],
            )

    def test_polygon_patch_rejects_negative_force(self):
        with pytest.raises(ValueError):
            PolygonPatchJoint(
                mu=0.3, corners=[[0, 0, 0]], corner_normal_forces=[-1.0]
            )

    def test_circular_patch_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            CircularPatchJoint(mu=-0.1, radius_r=0.05, normal_force_N=1.0)
        with pytest.raises(ValueError):
            CircularPatchJoint(mu=0.1, radius_r=0.05, normal_force_N=-1.0)


class TestArmJointInChain:
    def test_arm_joint_uses_torque_check(self):
        from forceplan.robot import planar_two_link_arm

        arm = planar_two_link_arm(torque_limits=(30.0, 30.0))
        chain = ForcefulKinematicChain(
            "tip", ((ArmJoint(arm, np.array([0.0, 0.0])), Transform.identity()),)
        )
        w = Wrench([0.0, -10.0, 0.0], [0, 0, 0], frame="tip")
        verdict = chain_stable(chain, w)
        assert verdict.stable
        assert verdict.margin == pytest.approx(1.0 / 3.0, abs=1e-12)
        weak = ForcefulKinematicChain(
            "tip",
            (
                (
                    ArmJoint(
                        planar_two_link_arm(torque_limits=(15.0, 30.0)),
                        np.array([0.0, 0.0]),
                    ),
                    Transform.identity(),
                ),
            ),
        )
        verdict = chain_stable(weak, w)
        assert not verdict.stable
        assert verdict.failing_joint == 0
