"""Nut-loosening domain: chain construction and planning behavior."""

from __future__ import annotations

import math

import numpy as np
import pytest

from forceplan.domains import bottle, nut
from forceplan.domains.scene import plan_summary
from forceplan.planner import STEP_COST, solve, validate_plan
from forceplan.robustness import PerturbationSpec, chain_cost
from forceplan.spatial import compose
from forceplan.stability import GRAVITY, ArmJoint, PolygonPatchJoint, chain_stable


def make_cfg(**over):
    cfg = {
        k: (dict(v) if isinstance(v, dict) else (list(v) if isinstance(v, list) else v))
        for k, v in nut.SCENE_DEFAULTS.items()
    }
    friction = over.pop("friction", None)
    cfg.update(over)
    if friction:
        cfg["friction"].update(friction)
    return cfg


def make_world(op=None, disable=(), **over):
    operation = dict(nut.OPERATION_DEFAULTS)
    operation.update(op or {})
    return nut.build_world(make_cfg(**over), operation, disable)


class TestTwistChains:
    def test_finger_margin_matches_patch_formula(self):
        world = make_world()
        q = world.reach("arm0", world.nut_twist_target())
        assert q is not None
        chain, w = world.twist_chain("finger-twist", "arm0", q)
        verdict = chain_stable(chain, w)
        assert verdict.stable
        # capacity mu * grip * (0.6 * nut radius), loaded by pure torque
        expected = 1.0 - (0.15 / (0.8 * 40.0 * 0.6 * 0.025)) ** 2
        assert verdict.margin == pytest.approx(expected, abs=1e-12)
        assert verdict.margin == pytest.approx(0.90234375, abs=1e-12)

    def test_fingers_cannot_drive_a_stiff_nut(self):
        world = make_world(op={"torque": 0.9})
        q = world.reach("arm0", world.nut_twist_target())
        chain, w = world.twist_chain("finger-twist", "arm0", q)
        assert not chain_stable(chain, w).stable
        assert math.isinf(chain_cost(chain, w, PerturbationSpec(), seed=0))

    def test_spanner_is_form_closed_and_survives_stiff_torque(self):
        world = make_world(op={"torque": 0.9})
        q = world.reach("arm0", world.spanner_twist_target())
        chain, w = world.twist_chain("spanner-twist", "arm0", q)
        # The hex socket is form closed, so the chain starts at the pads.
        assert [type(joint) for joint, _ in chain.joints] == [PolygonPatchJoint, ArmJoint]
        preload = chain.joints[0][0].preload
        assert preload.force[2] == pytest.approx(-160.0)
        assert chain_stable(chain, w).stable
        assert chain_cost(chain, w, PerturbationSpec(), seed=0) == 0.0


class TestFixtureChains:
    def test_bare_slat_spins_on_the_table(self):
        world = make_world()
        chain, w = world.fixture_chain("rest-hold")
        assert not chain_stable(chain, w).stable
        assert math.isinf(chain_cost(chain, w, PerturbationSpec(), seed=0))

    def test_heavier_weights_never_raise_the_cost(self):
        world = make_world()
        spec = PerturbationSpec()
        costs = []
        for mass in (0.5, 1.0, 2.0, 3.5, 5.0):
            chain, w = world.fixture_chain("weight-hold", (mass, 0.1))
            costs.append(chain_cost(chain, w, spec, seed=0))
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert costs[0] > 0.0
        assert costs[-1] == 0.0

    def test_arm_hold_is_free(self):
        world = make_world()
        chain, w = world.fixture_chain("arm-hold")
        assert chain_cost(chain, w, PerturbationSpec(), seed=3) == 0.0


def corner_resultant(patch):
    """The wrench a patch's corner forces press on it, about the patch origin."""
    loads = np.zeros((len(patch.corners), 3))
    loads[:, 2] = -patch.corner_normal_forces
    torque = np.cross(patch.corners, loads).sum(axis=0)
    return np.concatenate([loads.sum(axis=0), torque])


def pad_links():
    """Each pad link the domains build, with its pad normal and the vector
    from the application origin to the pads."""
    world = make_world()
    q = np.zeros(world.arms["arm0"].dof)
    mass, pair, grasp_z = world.carried("w2")
    carry, _ = world.carry_chain(mass, pair, grasp_z, "arm0", q)
    spanner, _ = world.twist_chain("spanner-twist", "arm0", q)
    bottle_world = bottle.build_world(
        dict(bottle.SCENE_DEFAULTS), dict(bottle.OPERATION_DEFAULTS), ()
    )
    tool, _ = bottle_world.twist_chain("twist-tool", 15.0, "arm0", q)
    return {
        "carry": (carry.joints[0], [1, 0, 0], (0.0, 0.0, grasp_z / 2.0)),
        "twist-tool": (
            tool.joints[1], [1, 0, 0],
            (0.0, 0.0, bottle.SCENE_DEFAULTS["tool_tip_below_pads"]),
        ),
        "spanner": (
            spanner.joints[0], [0, 0, 1],
            (-nut.SCENE_DEFAULTS["spanner_handle_length"], 0.0, 0.0),
        ),
    }


# Pad test frame rows (x, y, z = normal) for each pad normal: x is the
# world's up projected off the normal, or world x for a vertical normal.
PAD_ROTATIONS = {
    (1, 0, 0): [[0, 0, 1], [0, -1, 0], [1, 0, 0]],
    (0, 0, 1): [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
}


class TestPreloads:
    """Each preload is the resultant of its patch's corner forces."""

    def test_pad_grasp(self):
        for (pads, _), _, _ in pad_links().values():
            expected = corner_resultant(pads)
            assert np.allclose(pads.preload.as_array(), expected, rtol=0, atol=1e-9)

    def test_pad_rotation_is_exact(self):
        for (_, t), normal, to_pads in pad_links().values():
            rot = np.array(PAD_ROTATIONS[tuple(normal)], dtype=float)
            assert np.array_equal(t.rotation, rot)
            assert np.array_equal(t.translation, rot @ -np.asarray(to_pads))

    @pytest.mark.parametrize(
        "load",
        [None]
        + [(mass, spot) for mass in nut.SCENE_DEFAULTS["weights"].values()
           for spot in (0.1, -0.2, 0.25)],
    )
    def test_slat(self, load):
        route = "rest-hold" if load is None else "weight-hold"
        chain, _ = make_world().fixture_chain(route, load)
        ((slat, _),) = chain.joints
        expected = corner_resultant(slat)
        assert np.allclose(slat.preload.as_array(), expected, rtol=0, atol=1e-9)


def slat_forces(world, mass, spot):
    chain, _ = world.fixture_chain("weight-hold", (mass, spot))
    ((slat, _),) = chain.joints
    return slat.corners, slat.corner_normal_forces


class TestSlat:
    """The slat rests on its four corners: its own weight splits evenly and
    the load splits between the end pairs like a simply supported beam."""

    def test_midspan_splits_evenly(self):
        _, forces = slat_forces(make_world(), 2.0, 0.0)
        assert forces == pytest.approx([(0.4 + 2.0) * GRAVITY / 4.0] * 4)

    def test_quarter_span(self):
        # A 2 kg load a quarter along a 1 m massless slat: 14.715 N on the
        # near end pair, 4.905 N on the far one.
        world = make_world(beam_length=1.0, beam_mass=0.0)
        _, forces = slat_forces(world, 2.0, -0.25)
        assert forces == pytest.approx([2.4525, 7.3575, 7.3575, 2.4525])

    def test_forces_balance_the_weight_and_the_moment(self):
        world = make_world()
        half = nut.SCENE_DEFAULTS["beam_length"] / 2.0
        slat_weight = nut.SCENE_DEFAULTS["beam_mass"] * GRAVITY
        rng = np.random.default_rng(3)
        for _ in range(100):
            mass = rng.uniform(0.0, 10.0)
            spot = rng.uniform(-half, half)
            corners, forces = slat_forces(world, mass, spot)
            assert np.all(forces >= 0.0)
            assert forces.sum() == pytest.approx(slat_weight + mass * GRAVITY, abs=1e-9)
            # Moment balance about the -x support.
            lever = corners[:, 0] + half
            expected = slat_weight * half + mass * GRAVITY * (spot + half)
            assert forces @ lever == pytest.approx(expected, abs=1e-9)


class TestCarrying:
    def test_light_weights_carry_but_the_heavy_one_slips(self):
        world = make_world()
        spec = PerturbationSpec()
        margins = {}
        for wname in ("w1", "w2", "w3"):
            grasp = world.object_grasp(wname)
            pose = world.floor_pose(world.cfg["weight_xy"][wname])
            q = world.reach("arm0", compose(pose, grasp.offset))
            assert q is not None, wname
            chain, w = world.carry_chain(*world.carried(wname), "arm0", q)
            margins[wname] = chain_stable(chain, w)
            if wname == "w3":
                assert math.isinf(chain_cost(chain, w, spec, seed=0))
            else:
                assert chain_cost(chain, w, spec, seed=0) == 0.0
        assert margins["w1"].stable and margins["w2"].stable
        assert not margins["w3"].stable


class TestOffered:
    def test_default_scene_offers_every_strategy_and_route(self):
        world = make_world()
        assert (world.strategies, world.routes) == (list(nut.STRATEGIES), list(nut.ROUTES))

    def test_missing_scene_pieces_and_disable_remove_names(self):
        world = make_world(spanner=False, arms=["arm0"], disable=("rest-hold",))
        assert (world.strategies, world.routes) == (["finger-twist"], ["weight-hold"])


class TestPlanning:
    def test_two_arms_pin_the_slat_and_twist(self):
        world = make_world()
        problem = nut.build_problem(world, PerturbationSpec(), seed=0)
        result = solve(problem)
        assert result.solved
        strategy, route = plan_summary(result)
        assert len(result.plan) == 4
        assert strategy == "finger-twist"
        assert route == "arm-hold"
        assert result.cost == pytest.approx(4 * STEP_COST, abs=1e-12)
        ok, msg = validate_plan(problem, result.plan, result.cost)
        assert ok, msg

    def test_lone_arm_ballasts_the_slat_with_the_middle_weight(self):
        world = make_world(arms=["arm0"])
        problem = nut.build_problem(world, PerturbationSpec(), seed=0)
        result = solve(problem)
        assert result.solved
        _, route = plan_summary(result)
        assert len(result.plan) == 6
        assert route == "weight-hold"
        picked = [ga.args[1] for ga in result.plan if ga.schema.name == "pick"]
        assert picked == ["w2"]
        ok, msg = validate_plan(problem, result.plan, result.cost)
        assert ok, msg

    def test_stiff_nut_needs_the_spanner(self):
        world = make_world(op={"torque": 0.9})
        problem = nut.build_problem(world, PerturbationSpec(), seed=0)
        result = solve(problem)
        assert result.solved
        strategy, route = plan_summary(result)
        assert len(result.plan) == 6
        assert strategy == "spanner-twist"
        assert route == "arm-hold"
        actions = [ga.schema.name for ga in result.plan]
        assert "pick" in actions and "steady-grasp-beam" in actions

    def test_goal_added_only_by_impossible_twists_is_named(self):
        # On a frictionless table every one-arm route prices the twist
        # infinite, and such actions never reach the search.
        world = make_world(arms=["arm0"], friction={"beam-table": 0.0})
        problem = nut.build_problem(world, PerturbationSpec(), seed=0)
        result = solve(problem)
        assert not result.solved
        assert result.diagnostic == (
            "goal (NutLoosened) is added only by 8 actions priced infinite, "
            "first twist-nut--finger-twist--rest-hold(arm0, q)"
        )

    def test_stiff_nut_without_spanner_is_unsolvable(self):
        world = make_world(op={"torque": 0.9}, spanner=False)
        problem = nut.build_problem(world, PerturbationSpec(), seed=0)
        result = solve(problem, max_levels=4)
        assert not result.solved
