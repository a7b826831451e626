"""The shared twist-schema generator on a stub world."""

from __future__ import annotations

import math
from pathlib import Path

from forceplan.domains import DOMAINS
from forceplan.domains.scene import World, twist_schemas
from forceplan.scenario import load_scenario, resolve_stage

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class StubWorld(World):
    """Two strategies and one route with fixed chains; records chain builds."""

    STRATEGY_PARTS = {
        "grip": ((("Arm", "?a"),), ()),
        "press": ((("Arm", "?a"),), ()),
    }
    ROUTE_PARTS = {"hold": ((), ())}

    def __init__(self):
        self.built = []

    def strategy_available(self, strategy):
        return True

    def route_available(self, route):
        return True

    def hand_chain(self, strategy, binding):
        self.built.append(("hand", strategy))
        return strategy, None

    def fixture_for(self, route, binding):
        self.built.append(("fixture", route))
        return route, None


def test_fixture_chain_is_skipped_once_the_hand_chain_fails():
    world = StubWorld()
    prices = {"grip": math.inf, "press": 0.25, "hold": 0.5}
    schemas, names = twist_schemas(
        world, "twist", ("Done",), (), lambda chain, w: prices[chain]
    )
    assert names == {
        "twist--grip--hold": ("grip", "hold"),
        "twist--press--hold": ("press", "hold"),
    }
    grip, press = schemas
    assert math.isinf(grip.cost_fn({"?a": "arm0"}))
    assert world.built == [("hand", "grip")]
    assert press.cost_fn({"?a": "arm0"}) == 0.75
    assert world.built == [("hand", "grip"), ("hand", "press"), ("fixture", "hold")]


def test_disabled_names_get_no_schema():
    schemas, names = twist_schemas(
        StubWorld(), "twist", ("Done",), ("grip",), lambda chain, w: 0.0
    )
    assert [s.name for s in schemas] == ["twist--press--hold"]
    assert names == {"twist--press--hold": ("press", "hold")}


def shipped_schemas(scenario):
    resolved = resolve_stage(load_scenario(SCENARIOS / scenario), 0)
    module = DOMAINS[resolved.domain]
    world = module.build_world(resolved.scene, resolved.operation)
    problem, _ = module.build_problem(
        world, resolved.spec, seed=resolved.seed, disable=resolved.disable
    )
    return {s.name: s for s in problem.schemas}


def test_shipped_twist_params_come_from_their_static_facts():
    schemas = shipped_schemas("bottle_default.json") | shipped_schemas("nut_default.json")
    assert schemas["twist-cap--twist-tool--arm-hold"].params == (
        "?a", "?p", "?g", "?q", "?e", "?h"
    )
    assert schemas["twist-nut--finger-twist--weight-hold"].params == ("?a", "?q", "?w", "?u")
    twists = [s for s in schemas.values() if s.name.startswith("twist-")]
    arm_hold = {s.name for s in twists if s.name.endswith("--arm-hold")}
    assert arm_hold and {s.name for s in twists if s.neq} == arm_hold
    assert all(s.neq == (("?a", "?h"),) for s in twists if s.neq)
