"""Monte Carlo robustness: determinism, calibration, shared-noise order, and
exact agreement of the batched estimate with the scalar oracle."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from forceplan import cli, robustness
from forceplan.robot import default_arm, planar_two_link_arm
from forceplan.robustness import (
    PerturbationSpec,
    chain_cost,
    cost_from_probability,
    _draws,
    _loaded_joints,
    perturbed_case,
    success_probability,
)
from forceplan.spatial import Transform, Wrench, transform_wrench
from forceplan.stability import (
    ArmJoint,
    CircularPatchJoint,
    ForcefulKinematicChain,
    PolygonPatchJoint,
    chain_stable,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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


class TestCertainAndImpossibleChains:
    def test_chain_with_no_joints_is_certain(self):
        # A hold that cannot slip adds no joint, so nothing can fail.
        chain = ForcefulKinematicChain("obj")
        w = Wrench([100.0, 0, 0], [0, 0, 5.0], frame="obj")
        spec = PerturbationSpec()
        p = success_probability(chain, w, spec)
        assert p == oracle_success_probability(chain, w, spec, 0) == 1.0
        assert chain_cost(chain, w, spec) == 0.0

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
                mu=0.4,
                corners=corners,
                corner_normal_forces=[20.0] * 4,
                preload=Wrench([0, 0, -80.0], [0, 0, 0]),
            )
            chain = ForcefulKinematicChain("obj", ((joint, Transform.identity()),))
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
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PerturbationSpec(mu_rel=-0.1)
        with pytest.raises(ValueError):
            PerturbationSpec(samples=0)


def oracle_success_probability(chain, w, spec, seed):
    """The scalar estimator: one ``perturbed_case`` + ``chain_stable`` per sample."""
    ok = 0
    for i in range(spec.samples):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        c2, w2 = perturbed_case(chain, w, spec, rng)
        if chain_stable(c2, w2).stable:
            ok += 1
    return ok / spec.samples


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


small = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def transforms(draw):
    # Small tilts keep a pressing wrench pressing, so patch joints spend
    # time near their friction limits and not only pulled apart.
    tilt = draw(st.sampled_from([0.5, 3.0]))
    rv = [tilt * draw(small), tilt * draw(small), 3.0 * draw(small)]
    p = [0.2 * draw(small) for _ in range(3)]
    return Transform(Rotation.from_rotvec(rv).as_matrix(), p)


@st.composite
def wrenches(draw, force=20.0, torque=2.0, frame=""):
    f = [force * draw(small), force * draw(small), force * draw(st.floats(-2.0, 0.5))]
    tau = [torque * draw(small) for _ in range(3)]
    return Wrench(f, tau, frame)


# Friction, radius and normal forces are exactly zero in a quarter of the draws,
# to reach the zero-capacity and frictionless branches.
def zero_or(lo, hi):
    positive = st.floats(min_value=lo, max_value=hi)
    return st.one_of(st.just(0.0), positive, positive, positive)


frictions = zero_or(0.05, 1.5)
corner_forces = zero_or(0.5, 20.0)


@st.composite
def joints(draw):
    kind = draw(st.sampled_from(["circular", "polygon", "arm"]))
    if kind == "circular":
        normal = draw(zero_or(1.0, 30.0))
        coupled = normal * draw(st.floats(min_value=0.0, max_value=1.0))
        radius = draw(zero_or(0.005, 0.05))
        return CircularPatchJoint(draw(frictions), radius, normal, "patch", coupled)
    if kind == "polygon":
        m = draw(st.integers(min_value=1, max_value=4))
        corners = [[0.1 * draw(small), 0.1 * draw(small), 0.0] for _ in range(m)]
        forces = [draw(corner_forces) for _ in range(m)]
        preload = draw(st.one_of(st.none(), wrenches(force=30.0, torque=1.0)))
        return PolygonPatchJoint(draw(frictions), corners, forces, "slat", preload)
    arm = draw(st.sampled_from([planar_two_link_arm(0.4, 0.3), default_arm()]))
    lo, hi = arm.position_limits[:, 0], arm.position_limits[:, 1]
    q = [draw(st.floats(min_value=a, max_value=b)) for a, b in zip(lo, hi)]
    return ArmJoint(arm, q)


@st.composite
def chains(draw):
    size = draw(st.sampled_from(range(5)))
    links = [(draw(joints()), draw(transforms())) for _ in range(size)]
    return ForcefulKinematicChain("app", tuple(links))


@st.composite
def specs(draw):
    def scale(hi):
        return draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=hi)))

    return PerturbationSpec(
        mu_rel=scale(0.5),
        wrench_rel=scale(0.5),
        frame_translation=scale(0.02),
        frame_rotation=scale(0.3),
        patch_rel=scale(0.5),
        # 300 spans more than one vectorised pass.
        samples=draw(st.sampled_from([1, 7, 100, 300])),
    )


def near_boundary(chain, w, factor):
    """``w`` scaled to ``factor`` times where the nominal chain stops holding.

    Noise then flips the verdict of some samples but not all.  ``w`` is
    kept as it is when no scale of it both holds and fails.
    """

    def holds(scale):
        return chain_stable(chain, Wrench(w.force * scale, w.torque * scale, w.frame)).stable

    hi = 1.0
    while holds(hi) and hi < 1e6:
        hi *= 4.0
    if not holds(0.0) or holds(hi):
        return w
    lo = 0.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return Wrench(w.force * hi * factor, w.torque * hi * factor, w.frame)


class TestBatchedAgreesWithScalarOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        chains(),
        wrenches(frame="app") | wrenches(frame=""),
        st.floats(min_value=0.95, max_value=1.05),
        specs(),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_random_chains_agree_exactly(self, chain, w, factor, spec, seed):
        w = near_boundary(chain, w, factor)
        expected = oracle_success_probability(chain, w, spec, seed)
        assert success_probability(chain, w, spec, seed) == expected

    @settings(max_examples=20, deadline=None)
    @given(chains(), specs(), st.integers(min_value=0, max_value=1000))
    def test_foreign_frame_raises_the_oracle_error(self, chain, spec, seed):
        w = Wrench([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], "elsewhere")
        expected = raised(oracle_success_probability, chain, w, spec, seed)
        assert expected[0] is ValueError
        assert raised(success_probability, chain, w, spec, seed) == expected

    def test_foreign_frame_on_a_chain_with_no_joints_raises_the_oracle_error(self):
        # The suspect path runs even when there is no link to check.
        chain = ForcefulKinematicChain("app")
        w = Wrench([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], "elsewhere")
        spec = PerturbationSpec(samples=3)
        expected = raised(oracle_success_probability, chain, w, spec, 0)
        assert expected[0] is ValueError
        assert raised(success_probability, chain, w, spec, 0) == expected

    def test_overflowing_wrench_raises_the_oracle_error(self):
        chain = single_patch_chain(0.5, 0.05, 10.0)
        w = Wrench([1e308, 0, 0], [0, 0, 0], frame="contact")
        spec = PerturbationSpec(wrench_rel=10.0, samples=7)
        expected = raised(oracle_success_probability, chain, w, spec, 1)
        assert expected == (ValueError, "wrench components must be finite")
        assert raised(success_probability, chain, w, spec, 1) == expected

    def test_non_finite_frame_noise_raises_the_oracle_error(self):
        chain = single_patch_chain(0.5, 0.05, 10.0)
        w = Wrench([1.0, 0, 0], [0, 0, 0], frame="contact")
        spec = PerturbationSpec(frame_translation=math.inf, samples=3)
        expected = raised(oracle_success_probability, chain, w, spec, 2)
        assert expected == (ValueError, "transform entries must be finite")
        assert raised(success_probability, chain, w, spec, 2) == expected

    def test_unknown_joint_raises_the_oracle_error(self):
        chain = ForcefulKinematicChain("obj", ((object(), Transform.identity()),))
        w = Wrench([1.0, 0, 0], [0, 0, 0], frame="obj")
        spec = PerturbationSpec(samples=3)
        expected = raised(oracle_success_probability, chain, w, spec, 0)
        assert expected[0] is TypeError
        assert raised(success_probability, chain, w, spec, 0) == expected

    @settings(max_examples=40, deadline=None)
    @given(chains(), wrenches(frame="app"), specs(), st.integers(min_value=0, max_value=1000))
    def test_transmitted_wrenches_are_the_scalar_wrenches_bit_for_bit(
        self, chain, w, spec, seed
    ):
        # Verdicts hide last-bit differences away from a boundary, so the
        # wrenches each joint receives are compared directly.
        patches = sum(isinstance(j, (CircularPatchJoint, PolygonPatchJoint)) for j, _ in chain.joints)
        z = _draws(range(spec.samples), 6 + 8 * patches, seed)
        fac = 1.0 + spec.wrench_rel * z[:, :6]
        wrench = w.as_array() * fac
        suspect = np.zeros(spec.samples, dtype=bool)
        loaded = _loaded_joints(chain, spec, z, fac[:, 2], wrench, suspect)
        batched = [wj for _, _, wj in loaded]
        for i in range(spec.samples):
            rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
            c2, w2 = perturbed_case(chain, w, spec, rng)
            for idx, (joint, t) in enumerate(c2.joints):
                wj = transform_wrench(w2, t)
                extra = joint.preload if isinstance(joint, PolygonPatchJoint) else None
                if extra is not None:
                    wj = Wrench(wj.force + extra.force, wj.torque + extra.torque)
                assert batched[idx][i].tobytes() == wj.as_array().tobytes()

    @pytest.mark.parametrize("scenario", ["bottle_default.json", "nut_default.json"])
    def test_every_robustness_chain_agrees(self, scenario, monkeypatch, capsys):
        calls = []
        fallbacks = []

        def record(chain, w, spec, seed):
            p = success_probability(chain, w, spec, seed)
            calls.append((p, oracle_success_probability(chain, w, spec, seed)))
            return p

        def counted(*args):
            fallbacks.append(args)
            return perturbed_case(*args)

        monkeypatch.setattr(cli, "success_probability", record)
        monkeypatch.setattr(robustness, "perturbed_case", counted)
        assert cli.main(["robustness", str(SCENARIOS / scenario), "--samples", "100"]) == 0
        assert len(calls) == 40
        assert all(p == q for p, q in calls)
        # No shipped chain has a sample the batched path leaves to the oracle.
        assert fallbacks == []
        assert any(0.0 < p < 1.0 for p, _ in calls)


class TestDrawLayout:
    """One standard normal vector per sample, scaled afterwards, is the
    documented sequence of draws bit for bit."""

    @pytest.mark.parametrize("seed", [0, 7, 123456789])
    @pytest.mark.parametrize("patches", [0, 1, 3])
    @pytest.mark.parametrize("s_t, s_r", [(0.002, 0.017), (0.0, 0.0), (0.0, 0.3)])
    def test_one_vector_equals_sequential_draws(self, seed, patches, s_t, s_r):
        rows = _draws(range(100), 6 + 8 * patches, seed)
        for i in (0, 1, 99):
            z = rows[i].copy()
            rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
            parts = [rng.standard_normal(6)]
            for _ in range(patches):
                parts += [
                    rng.standard_normal(2),
                    rng.normal(0.0, s_t, 3),
                    rng.normal(0.0, s_r, 3),
                ]
            for p in range(patches):
                c = 6 + 8 * p
                z[c + 2 : c + 5] = 0.0 + s_t * z[c + 2 : c + 5]
                z[c + 5 : c + 8] = 0.0 + s_r * z[c + 5 : c + 8]
            assert z.tobytes() == np.concatenate(parts).tobytes()
