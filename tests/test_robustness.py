"""Monte Carlo robustness: determinism, calibration, and shared-noise order."""

from __future__ import annotations

import math

import numpy as np
import pytest

from forceplan.robustness import (
    PerturbationSpec,
    chain_cost,
    cost_from_probability,
    perturbed_case,
    success_probability,
)
from forceplan.spatial import Transform, Wrench
from forceplan.stability import (
    CircularPatchJoint,
    ForcefulKinematicChain,
    PolygonPatchJoint,
    RigidJoint,
    chain_stable,
)


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def single_patch_chain(mu, radius, normal, coupled=0.0):
    joint = CircularPatchJoint(
        mu=mu, radius_r=radius, normal_force_N=normal, coupled_normal_force=coupled
    )
    return ForcefulKinematicChain("contact", ((joint, Transform.identity()),))


class TestDeterminism:
    def test_same_seed_same_estimate(self):
        chain = single_patch_chain(0.5, 0.05, 10.0)
        w = Wrench([4.0, 0, 0], [0, 0, 0], frame="contact")
        spec = PerturbationSpec(samples=200)
        p1 = success_probability(chain, w, spec, seed=3)
        p2 = success_probability(chain, w, spec, seed=3)
        assert p1 == p2

    def test_zeroed_spec_reproduces_nominal_verdict(self):
        spec = PerturbationSpec(
            mu_rel=0.0,
            wrench_rel=0.0,
            frame_translation=0.0,
            frame_rotation=0.0,
            patch_rel=0.0,
            samples=20,
        )
        chain = single_patch_chain(0.5, 0.05, 10.0)
        stable_w = Wrench([3.0, 0, 0], [0, 0, 0], frame="contact")
        unstable_w = Wrench([6.0, 0, 0], [0, 0, 0], frame="contact")
        assert success_probability(chain, stable_w, spec) == 1.0
        assert success_probability(chain, unstable_w, spec) == 0.0

    def test_zero_noise_returns_identical_case(self):
        spec = PerturbationSpec(0.0, 0.0, 0.0, 0.0, 0.0, samples=1)
        joint = PolygonPatchJoint(
            mu=0.3,
            corners=[[0.1, 0.1, 0], [-0.1, 0.1, 0], [-0.1, -0.1, 0], [0.1, -0.1, 0]],
            corner_normal_forces=[5.0, 5.0, 5.0, 5.0],
        )
        chain = ForcefulKinematicChain("obj", ((joint, Transform.identity()),))
        w = Wrench([1.0, 0, 0], [0, 0, 0.1], frame="obj")
        rng = np.random.default_rng(0)
        c2, w2 = perturbed_case(chain, w, spec, rng)
        np.testing.assert_array_equal(w2.as_array(), w.as_array())
        j2 = c2.joints[0][0]
        assert j2.mu == joint.mu
        np.testing.assert_array_equal(j2.corners, joint.corners)


class TestRigidChains:
    def test_rigid_chain_is_certain(self):
        chain = ForcefulKinematicChain(
            "obj", ((RigidJoint(), Transform.identity()),)
        )
        w = Wrench([100.0, 0, 0], [0, 0, 5.0], frame="obj")
        assert success_probability(chain, w) == 1.0
        assert chain_cost(chain, w) == 0.0

    def test_impossible_case_costs_infinity(self):
        chain = single_patch_chain(0.5, 0.05, 0.0)
        w = Wrench([1.0, 0, 0], [0, 0, 0], frame="contact")
        assert success_probability(chain, w, PerturbationSpec(samples=50)) == 0.0
        assert chain_cost(chain, w, PerturbationSpec(samples=50)) == math.inf


class TestCalibration:
    def test_friction_only_noise_matches_gaussian_tail(self):
        # With only mu perturbed, a tangential force f survives one sample
        # iff mu * (1 + 0.1 z) > f / N, so the success rate is an explicit
        # normal tail.
        mu, normal, force = 0.5, 10.0, 4.5
        spec = PerturbationSpec(
            mu_rel=0.1,
            wrench_rel=0.0,
            frame_translation=0.0,
            frame_rotation=0.0,
            patch_rel=0.0,
            samples=4000,
        )
        chain = single_patch_chain(mu, 0.05, normal)
        w = Wrench([force, 0, 0], [0, 0, 0], frame="contact")
        p_hat = success_probability(chain, w, spec, seed=5)
        p_true = normal_cdf((1.0 - force / (normal * mu)) / 0.1)
        assert p_hat == pytest.approx(p_true, abs=0.02)


class TestSharedNoiseMonotonicity:
    def test_higher_friction_never_hurts(self):
        w = Wrench([3.0, 0, 0], [0, 0, 0.05], frame="contact")
        spec = PerturbationSpec(samples=300)
        p_low = success_probability(single_patch_chain(0.2, 0.05, 10.0), w, spec, seed=9)
        p_high = success_probability(single_patch_chain(0.8, 0.05, 10.0), w, spec, seed=9)
        assert p_high >= p_low

    def test_probability_nondecreasing_in_press_force(self):
        # Pressing harder raises the coupled normal force while the twisting
        # torque stays put, so under shared noise each sample can only flip
        # from failing to passing.
        spec = PerturbationSpec(samples=200)
        probs = []
        for extra in (0.0, 5.0, 10.0, 15.0, 20.0, 30.0):
            n = 15.0 + extra
            chain = single_patch_chain(0.8, 0.025, n, coupled=n)
            w = Wrench([0, 0, -n], [0, 0, 0.2], frame="contact")
            probs.append(success_probability(chain, w, spec, seed=12))
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert probs[0] < 1.0
        assert probs[-1] > probs[0]

    def test_probability_nonincreasing_in_carried_mass(self):
        # A preloaded flat patch dragging a growing tangential load.
        corners = [[0.03, 0.03, 0], [-0.03, 0.03, 0], [-0.03, -0.03, 0], [0.03, -0.03, 0]]
        spec = PerturbationSpec(samples=200)
        probs = []
        for mass in (1.0, 2.0, 3.0, 4.0, 5.0):
            joint = PolygonPatchJoint(
                mu=0.4, corners=corners, corner_normal_forces=[20.0] * 4
            )
            chain = ForcefulKinematicChain(
                "obj",
                ((joint, Transform.identity()),),
                gravity_wrenches=(Wrench([0, 0, -80.0], [0, 0, 0]),),
            )
            w = Wrench([mass * 9.81, 0, 0], [0, 0, 0], frame="obj")
            probs.append(success_probability(chain, w, spec, seed=21))
        assert all(b <= a for a, b in zip(probs, probs[1:]))
        assert probs[0] > probs[-1]


class TestCost:
    def test_certain_success_costs_zero(self):
        assert cost_from_probability(1.0) == 0.0

    def test_zero_probability_is_infinite(self):
        assert cost_from_probability(0.0) == math.inf

    def test_monotone_decreasing_in_probability(self):
        ps = [0.1, 0.3, 0.6, 0.9, 1.0]
        costs = [cost_from_probability(p) for p in ps]
        assert all(b < a for a, b in zip(costs, costs[1:]))


class TestSpec:
    def test_round_trip(self):
        spec = PerturbationSpec(samples=42, mu_rel=0.2)
        assert PerturbationSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PerturbationSpec(mu_rel=-0.1)
        with pytest.raises(ValueError):
            PerturbationSpec(samples=0)
