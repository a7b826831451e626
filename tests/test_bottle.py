"""Bottle-opening domain: chain construction and planning behavior."""

from __future__ import annotations

import math

import pytest

from forceplan.domains import bottle
from forceplan.domains.scene import plan_summary
from forceplan.planner import STEP_COST, solve, validate_plan
from forceplan.robustness import PerturbationSpec, chain_cost
from forceplan.spatial import compose
from forceplan.stability import GRAVITY, CircularPatchJoint, RigidJoint, chain_stable


def make_cfg(**over):
    cfg = {
        k: (dict(v) if isinstance(v, dict) else (list(v) if isinstance(v, list) else v))
        for k, v in bottle.SCENE_DEFAULTS.items()
    }
    friction = over.pop("friction", None)
    cfg.update(over)
    if friction:
        cfg["friction"].update(friction)
    return cfg


def make_world(disable=(), **over):
    return bottle.build_world(make_cfg(**over), dict(bottle.OPERATION_DEFAULTS), disable)


def spin_margin(normal, mu, radius, torque=0.2):
    # Circular patch loaded by pure axial torque: quadratic capacity ratio.
    return 1.0 - (torque / (normal * 0.6 * radius * mu)) ** 2


class TestTwistChains:
    def test_wrap_grip_margin_matches_patch_formula(self):
        world = make_world(grip_force=15.0)
        q = world.reach("arm0", world.twist_hand_target(world.bottle_pose))
        assert q is not None
        chain, w = world.twist_chain("wrap-grip", 0.0, "arm0", q)
        verdict = chain_stable(chain, w)
        assert verdict.stable
        assert verdict.margin == pytest.approx(spin_margin(15.0, 0.8, 0.03), abs=1e-12)
        assert verdict.margin == pytest.approx(0.142661179698217, abs=1e-12)

    def test_wrap_grip_slippery_cap_fails_at_the_cap(self):
        world = make_world(grip_force=15.0, friction={"hand-cap": 0.3})
        q = world.reach("arm0", world.twist_hand_target(world.bottle_pose))
        chain, w = world.twist_chain("wrap-grip", 0.0, "arm0", q)
        verdict = chain_stable(chain, w)
        assert not verdict.stable
        assert verdict.failing_joint == 0
        assert verdict.margin == pytest.approx(spin_margin(15.0, 0.3, 0.03), abs=1e-12)

    def test_press_strategies_couple_normal_force_to_push(self):
        world = make_world()
        q = world.reach("arm0", world.twist_hand_target(world.bottle_pose))
        for strategy, radius in (("palm-press", 0.025), ("fingertip-press", 0.0125)):
            chain, _ = world.twist_chain(strategy, 30.0, "arm0", q)
            patch = chain.joints[0][0]
            assert isinstance(patch, CircularPatchJoint)
            assert patch.radius_r == radius
            assert patch.normal_force_N == pytest.approx(45.0)
            assert patch.coupled_normal_force == pytest.approx(45.0)
        grip_patch = world.twist_chain("wrap-grip", 30.0, "arm0", q)[0].joints[0][0]
        assert grip_patch.normal_force_N == pytest.approx(40.0)
        assert grip_patch.coupled_normal_force == 0.0

    def test_fingertips_too_slippery_at_every_press_level(self):
        world = make_world()
        q = world.reach("arm0", world.twist_hand_target(world.bottle_pose))
        for extra in bottle.OPERATION_DEFAULTS["extra_force_levels"]:
            chain, w = world.twist_chain("fingertip-press", extra, "arm0", q)
            assert not chain_stable(chain, w).stable

    def test_tool_chain_has_tip_pads_and_arm(self):
        world = make_world()
        q = world.reach("arm0", world.tool_twist_target(world.bottle_pose))
        chain, w = world.twist_chain("twist-tool", 15.0, "arm0", q)
        assert len(chain.joints) == 3
        tip = chain.joints[0][0]
        assert tip.radius_r == 0.02 and tip.mu == 0.7
        preload = chain.joints[1][0].preload
        assert preload is not None
        assert preload.force[2] == pytest.approx(-160.0)
        verdict = chain_stable(chain, w)
        assert verdict.stable


class TestFixtureChains:
    def test_table_normal_force_is_weight_plus_press(self):
        world = make_world()
        for extra in (0.0, 30.0):
            chain, _ = world.fixture_chain("table-friction", extra)
            patch = chain.joints[0][0]
            assert patch.mu == 0.55 and patch.radius_r == 0.04
            expected = 0.3 * GRAVITY + extra
            assert patch.normal_force_N == pytest.approx(expected)
            assert patch.coupled_normal_force == pytest.approx(extra)

    def test_pressing_harder_widens_the_table_margin(self):
        world = make_world()
        margins = []
        for extra in bottle.OPERATION_DEFAULTS["extra_force_levels"]:
            chain, w = world.fixture_chain("table-friction", extra)
            margins.append(chain_stable(chain, w).margin)
        assert all(b > a for a, b in zip(margins, margins[1:]))

    def test_rigid_holds_cost_exactly_zero(self):
        world = make_world()
        for route in ("arm-hold", "vise-hold"):
            chain, w = world.fixture_chain(route, 0.0)
            assert isinstance(chain.joints[0][0], RigidJoint)
            assert chain_cost(chain, w, PerturbationSpec(), seed=5) == 0.0

    def test_slippery_table_infeasible_even_at_max_press(self):
        world = make_world(friction={"bottle-table": 0.08})
        for extra in bottle.OPERATION_DEFAULTS["extra_force_levels"]:
            chain, w = world.fixture_chain("table-friction", extra)
            assert not chain_stable(chain, w).stable
            assert math.isinf(chain_cost(chain, w, PerturbationSpec(), seed=0))


class TestCarryChain:
    def test_bottle_carry_is_comfortably_stable(self):
        world = make_world()
        grasp = world.object_grasp("bottle")
        q = world.reach(
            "arm0", compose(world.bottle_pose, grasp.offset)
        )
        chain, w = world.carry_chain(*world.carried("bottle"), "arm0", q)
        verdict = chain_stable(chain, w)
        assert verdict.stable and verdict.margin > 0.5
        assert chain_cost(chain, w, PerturbationSpec(), seed=0) == 0.0

    def test_weak_grip_drops_the_bottle(self):
        world = make_world(grip_force=1.5)
        grasp = world.object_grasp("bottle")
        q = world.reach(
            "arm0", compose(world.bottle_pose, grasp.offset)
        )
        chain, w = world.carry_chain(*world.carried("bottle"), "arm0", q)
        assert not chain_stable(chain, w).stable


class TestOffered:
    def test_default_scene_offers_every_strategy_and_route(self):
        world = make_world()
        assert (world.strategies, world.routes) == (
            list(bottle.STRATEGIES), list(bottle.ROUTES)
        )

    def test_missing_scene_pieces_and_disable_remove_names(self):
        world = make_world(tool=False, arms=["arm0"], mat=False, disable=("palm-press",))
        assert (world.strategies, world.routes) == (
            ["wrap-grip", "fingertip-press"],
            ["table-friction", "vise-hold"],
        )


class TestPlanning:
    def test_default_scene_four_step_twist(self):
        world = make_world()
        problem = bottle.build_problem(world, PerturbationSpec(), seed=0)
        result = solve(problem)
        assert result.solved
        strategy, route = plan_summary(result)
        assert len(result.plan) == 4
        assert strategy == "wrap-grip"
        assert route == "table-friction"
        assert result.cost == pytest.approx(4 * STEP_COST, abs=1e-12)
        ok, msg = validate_plan(problem, result.plan, result.cost)
        assert ok, msg

    def test_slippery_table_hands_bottle_to_second_arm(self):
        world = make_world(
            friction={"bottle-table": 0.08},
            disable=("palm-press", "fingertip-press", "twist-tool"),
        )
        problem = bottle.build_problem(world, PerturbationSpec(), seed=0)
        result = solve(problem)
        assert result.solved
        _, route = plan_summary(result)
        assert len(result.plan) == 6
        assert route == "arm-hold"
        assert any(ga.schema.name == "steady-grasp" for ga in result.plan)

    def test_lone_arm_without_hands_or_mat_uses_tool(self):
        world = make_world(
            bottle_xy=[0.0, -0.22], start_surface="mat", arms=["arm0"], vise=False,
            disable=("wrap-grip", "palm-press", "fingertip-press"),
        )
        problem = bottle.build_problem(world, PerturbationSpec(), seed=0)
        result = solve(problem)
        assert result.solved
        strategy, _ = plan_summary(result)
        assert len(result.plan) == 8
        assert strategy == "twist-tool"
        actions = [ga.schema.name for ga in result.plan]
        assert actions.count("pick") == 1 and actions.count("place") == 1
        ok, msg = validate_plan(problem, result.plan, result.cost)
        assert ok, msg

    def test_no_feasible_strategy_reports_failure(self):
        world = make_world(
            arms=["arm0"], mat=False, vise=False, tool=False,
            friction={"bottle-table": 0.08},
        )
        problem = bottle.build_problem(world, PerturbationSpec(), seed=0)
        result = solve(problem, max_levels=4)
        assert not result.solved
        assert plan_summary(result) == ("", "")

