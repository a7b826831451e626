"""Loosening a nut on a bolt through a slat resting on a table.

The twist torque at the nut tries to spin the whole slat.  What resists
it is the fixture side: a second arm pinning the slat, dead weights set
on top of it, or nothing but the slat's own weight on the table.  The
hand side either twists the nut directly with the fingers or drives it
through a socket spanner, which adds pick and carry steps but is form
closed at the nut.
"""

from __future__ import annotations

import numpy as np

from ..planner import ActionSchema, Problem, Value
from ..robustness import PerturbationSpec, chain_cost
from ..spatial import Transform, Wrench
from ..stability import (
    GRAVITY,
    CircularPatchJoint,
    ForcefulKinematicChain,
    PolygonPatchJoint,
    RigidJoint,
)
from .scene import (
    World,
    common_schemas,
    grasp_streams,
    reach_stream,
    tool_down_rotation,
    twist_schemas,
)

__all__ = [
    "SCENE_DEFAULTS",
    "OPERATION_DEFAULTS",
    "STRATEGIES",
    "ROUTES",
    "NutWorld",
    "build_world",
    "build_problem",
]

SCENE_DEFAULTS = {
    "beam_center_xy": [0.0, 0.15],
    "beam_length": 0.5,
    "beam_width": 0.06,
    "beam_height": 0.02,
    "beam_mass": 0.4,
    "nut_radius": 0.025,
    "nut_top_height": 0.05,
    "arms": ["arm0", "arm1"],
    "arm_bases": {"arm0": [-0.45, 0.0], "arm1": [0.45, 0.0]},
    "grip_force": 40.0,
    "spanner": True,
    "spanner_xy": [0.2, -0.12],
    "spanner_mass": 0.3,
    "spanner_handle_length": 0.15,
    "spanner_grasp_height": 0.02,
    "spanner_grip_force": 80.0,
    "hand_pad_half_extents": [0.03, 0.02],
    "weights": {"w1": 0.5, "w2": 2.0, "w3": 5.0},
    "weight_xy": {"w1": [-0.2, -0.1], "w2": [-0.1, -0.15], "w3": [-0.25, -0.22]},
    "weight_grasp_height": 0.04,
    "weight_spots": [0.1],
    "friction": {
        "beam-table": 0.1,
        "hand-nut": 0.8,
        "hand-weight": 0.4,
        "hand-spanner": 0.8,
    },
}

OPERATION_DEFAULTS = {"torque": 0.15}


class NutWorld(World):
    """Scene geometry plus chain builders for the nut twisting variants."""

    # (static, fluent) fragments of the twist schemas.
    STRATEGY_PARTS = {
        "finger-twist": (
            (("NutReady", "?a", "?q"),),
            (("AtConf", "?a", "?q"), ("HandEmpty", "?a")),
        ),
        "spanner-twist": (
            (("SpannerReady", "?a", "?g", "?q"),),
            (("AtConf", "?a", "?q"), ("Holding", "?a", "spanner", "?g")),
        ),
    }
    ROUTE_PARTS = {
        "arm-hold": ((("Arm", "?h"),), (("BeamHeld", "?h"),)),
        "weight-hold": (
            (("Weight", "?w"), ("Spot", "?u")), (("WeightOn", "?w", "?u"),)
        ),
        "rest-hold": ((), ()),
    }

    def absent(self) -> set:
        """The spanner strategy when the scene has no spanner."""
        return set() if self.cfg["spanner"] else {"spanner-twist"}

    # ---- targets ----------------------------------------------------------

    @property
    def nut_top(self) -> np.ndarray:
        cx, cy = self.cfg["beam_center_xy"]
        return np.array([cx, cy, self.cfg["nut_top_height"]])

    def nut_twist_target(self) -> Transform:
        return Transform(tool_down_rotation(), self.nut_top)

    def spanner_twist_target(self) -> Transform:
        hand = self.nut_top + np.array([-self.cfg["spanner_handle_length"], 0.0, 0.0])
        return Transform(tool_down_rotation(), hand)

    def beam_grasp_target(self) -> Transform:
        cx, cy = self.cfg["beam_center_xy"]
        grip = np.array(
            [cx + self.cfg["beam_length"] / 2.0 - 0.03, cy, self.cfg["beam_height"]]
        )
        return Transform(tool_down_rotation(), grip)

    def carried(self, obj: str):
        cfg = self.cfg
        if obj == "spanner":
            return cfg["spanner_mass"], "hand-spanner", cfg["spanner_grasp_height"]
        return cfg["weights"][obj], "hand-weight", cfg["weight_grasp_height"]

    def weight_place_target(self, spot: float) -> Transform:
        cx, cy = self.cfg["beam_center_xy"]
        top = np.array(
            [cx + spot, cy, self.cfg["beam_height"] + self.cfg["weight_grasp_height"]]
        )
        return Transform(tool_down_rotation(), top)

    # ---- chains -----------------------------------------------------------

    def nut_wrench(self) -> Wrench:
        return Wrench([0.0, 0.0, 0.0], [0.0, 0.0, self.op["torque"]], frame="nut")

    def twist_chain(self, strategy: str, arm_name: str, q):
        cfg = self.cfg
        joints = []
        if strategy == "finger-twist":
            patch = CircularPatchJoint(
                self.mu("hand-nut"), cfg["nut_radius"], cfg["grip_force"], "nut"
            )
            joints.append((patch, Transform.identity()))
            ee_offset = (0.0, 0.0, 0.0)
        elif strategy == "spanner-twist":
            # Hex socket: form closed about the twist axis.
            joints.append((RigidJoint("socket"), Transform.identity()))
            ee_offset = (-cfg["spanner_handle_length"], 0.0, 0.0)
            joints.append(self.pad_link(
                "hand-spanner", cfg["hand_pad_half_extents"], cfg["spanner_grip_force"],
                "spanner_pads", [0.0, 0.0, 1.0], ee_offset,
            ))
        else:
            raise KeyError(strategy)
        joints.append(self.arm_link(arm_name, q, ee_offset))
        chain = ForcefulKinematicChain("nut", tuple(joints))
        return chain, self.nut_wrench()

    def fixture_chain(self, route: str, load=None):
        """Slat-side chain.  ``load`` is (mass, spot) for the weighted route.

        The slat patch bears the weight of the slat and of its load as its
        preload.
        """
        cfg = self.cfg
        if route == "arm-hold":
            chain = ForcefulKinematicChain(
                "nut", ((RigidJoint("arm-hold"), Transform.identity()),)
            )
            return chain, self.nut_wrench()
        if route == "rest-hold":
            mass, spot = 0.0, 0.0
        elif route == "weight-hold":
            mass, spot = load
        else:
            raise KeyError(route)
        # The slat's own weight splits evenly over its corners; the load
        # splits between the end pairs by the lever rule, like a simply
        # supported beam.  Corners are ordered (+x+y, -x+y, -x-y, +x-y)
        # with x along the slat.
        length, half_width = cfg["beam_length"], cfg["beam_width"] / 2.0
        half = length / 2.0
        corners = np.array(
            [
                [half, half_width, 0.0],
                [-half, half_width, 0.0],
                [-half, -half_width, 0.0],
                [half, -half_width, 0.0],
            ]
        )
        forces = np.full(4, cfg["beam_mass"] * GRAVITY / 4.0)
        if mass > 0.0:
            right = mass * GRAVITY * (spot + half) / length
            left = mass * GRAVITY - right
            forces[[1, 2]] += left / 2.0
            forces[[0, 3]] += right / 2.0
        total = (cfg["beam_mass"] + mass) * GRAVITY
        patch = PolygonPatchJoint(
            mu=self.mu("beam-table"),
            corners=corners,
            corner_normal_forces=forces,
            contact_frame="beam_table",
            preload=Wrench([0.0, 0.0, -total], [0.0, spot * mass * GRAVITY, 0.0]),
        )
        t = Transform(np.eye(3), np.array([0.0, 0.0, cfg["nut_top_height"]]))
        chain = ForcefulKinematicChain("nut", ((patch, t),))
        return chain, self.nut_wrench()

    def hand_chain(self, strategy: str, b):
        return self.twist_chain(strategy, b["?a"], b["?q"].payload)

    def fixture_for(self, route: str, b):
        if route == "weight-hold":
            load = (self.cfg["weights"][b["?w"]], b["?u"].payload)
            return self.fixture_chain(route, load)
        return self.fixture_chain(route)


STRATEGIES = tuple(NutWorld.STRATEGY_PARTS)
ROUTES = tuple(NutWorld.ROUTE_PARTS)


build_world = NutWorld


def build_problem(world: NutWorld, spec: PerturbationSpec, seed: int = 0) -> Problem:
    """Planning problem for the world's scene and the variants it offers."""
    cfg = world.cfg
    statics, init = world.arm_facts()
    if "weight-hold" in world.routes:
        for wname in sorted(cfg["weights"]):
            weight_statics, at_rest = world.object_facts(wname, cfg["weight_xy"][wname])
            statics += [("Weight", wname)] + weight_statics
            init += at_rest
        statics += [("Spot", Value("spot", float(spot))) for spot in cfg["weight_spots"]]
    if "spanner-twist" in world.strategies:
        spanner_statics, at_rest = world.object_facts("spanner", cfg["spanner_xy"])
        statics += spanner_statics
        init += at_rest

    # ---- streams ----------------------------------------------------------

    arm = (("Arm", "?a"),)
    streams = grasp_streams(world) + [
        reach_stream(
            world, "reach-nut", arm, ("NutReady", "?a"),
            lambda b: world.nut_twist_target(),
        ),
        reach_stream(
            world, "reach-beam-grip", arm, ("BeamGripReady", "?a"),
            lambda b: world.beam_grasp_target(),
        ),
        reach_stream(
            world, "reach-weight-spot",
            arm + (("Weight", "?w"), ("Spot", "?u"), ("Grasp", "?w", "?g")),
            ("SpotKin", "?a", "?w", "?u", "?g"),
            lambda b: world.weight_place_target(b["?u"].payload),
        ),
        reach_stream(
            world, "reach-spanner-drive", arm + (("Grasp", "spanner", "?g"),),
            ("SpannerReady", "?a", "?g"),
            lambda b: world.spanner_twist_target(),
        ),
    ]

    # ---- costs ------------------------------------------------------------

    def price(chain, w):
        return chain_cost(chain, w, spec, seed)

    # ---- schemas ----------------------------------------------------------

    schemas = common_schemas(world, price) + [
        ActionSchema(
            name="place-weight",
            static_pre=(("SpotKin", "?a", "?w", "?u", "?g", "?q"),),
            fluent_pre=(("Holding", "?a", "?w", "?g"), ("AtConf", "?a", "?q")),
            add=(("WeightOn", "?w", "?u"), ("HandEmpty", "?a")),
            delete=(("Holding", "?a", "?w", "?g"),),
        ),
        ActionSchema(
            name="steady-grasp-beam",
            static_pre=(("BeamGripReady", "?a", "?q"),),
            fluent_pre=(("AtConf", "?a", "?q"), ("HandEmpty", "?a")),
            add=(("BeamHeld", "?a"),),
            delete=(("HandEmpty", "?a"),),
        ),
    ]
    twists = twist_schemas(world, "twist-nut", ("NutLoosened",), price)
    return Problem(statics, init, [("NutLoosened",)], schemas + twists, streams)
