"""The shared twist-schema generator on a stub world."""

from __future__ import annotations

import math

from forceplan.domains.scene import World, twist_schemas


class StubWorld(World):
    """Two strategies and one route with fixed chains; records chain builds."""

    STRATEGY_PARTS = {
        "grip": (("?a",), (("Arm", "?a"),), ()),
        "press": (("?a",), (("Arm", "?a"),), ()),
    }
    ROUTE_PARTS = {"hold": ((), (), ())}

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
