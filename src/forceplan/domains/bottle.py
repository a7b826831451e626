"""Opening a childproof bottle: push down on the cap while twisting it.

The twist needs two things to hold at once: the hand-side chain (how the
cap is twisted: wrapping it, pressing a palm or fingertips on top, or a
gripped driver tool) and the fixture-side chain (what keeps the bottle
body from spinning: table friction, a high-friction mat, the second arm,
or a vise).  Every twist action variant pairs one hand strategy with one
fixture route and prices both chains by Monte Carlo success.

Pressing harder than the cap mechanism requires is allowed and often
necessary: the extra normal force buys friction capacity at the cap and
at the supporting surface, so the planner chooses the press level from a
small grid.
"""

from __future__ import annotations

import numpy as np

from ..planner import ActionSchema, Problem, Stream, Value
from ..robustness import PerturbationSpec, chain_cost
from ..spatial import Transform, Wrench, rot_z
from ..stability import GRAVITY, CircularPatchJoint, ForcefulKinematicChain, RigidJoint
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
    "HAND_STRATEGIES",
    "STRATEGIES",
    "ROUTES",
    "BottleWorld",
    "build_world",
    "build_problem",
]

SCENE_DEFAULTS = {
    "bottle_xy": [0.0, 0.18],
    "bottle_mass": 0.3,
    "base_radius": 0.04,
    "cap_radius": 0.03,
    "cap_top_height": 0.16,
    "grasp_height": 0.10,
    "start_surface": "table",
    "arms": ["arm0", "arm1"],
    "arm_bases": {"arm0": [-0.45, 0.0], "arm1": [0.45, 0.0]},
    "mat": True,
    "mat_xy": [0.0, -0.22],
    "vise": True,
    "vise_xy": [0.12, -0.38],
    "tool": True,
    "tool_xy": [-0.2, -0.15],
    "tool_mass": 0.2,
    "tool_grasp_height": 0.05,
    "tool_tip_radius": 0.02,
    "tool_tip_below_pads": 0.06,
    "grip_force": 40.0,
    "tool_grip_force": 80.0,
    "palm_radius": 0.025,
    "fingertip_radius": 0.0125,
    "hand_pad_half_extents": [0.03, 0.02],
    "tool_pad_half_extents": [0.03, 0.02],
    "friction": {
        "bottle-table": 0.55,
        "bottle-mat": 0.8,
        "hand-cap": 0.8,
        "palm-cap": 0.8,
        "fingertip-cap": 0.2,
        "tool-cap": 0.7,
        "hand-tool": 0.8,
        "hand-bottle": 0.8,
    },
}

OPERATION_DEFAULTS = {
    "push_force": 15.0,
    "torque": 0.2,
    "extra_force_levels": [0.0, 15.0, 30.0, 45.0, 60.0],
}

HAND_STRATEGIES = ("wrap-grip", "palm-press", "fingertip-press")


# Strategy -> (friction pair, radius key) of its patch on the cap.  The
# wrap grip squeezes the cap's rim; every other strategy presses on top,
# so its patch carries the push force.
_CAP_PATCHES = {
    "wrap-grip": ("hand-cap", "cap_radius"),
    "palm-press": ("palm-cap", "palm_radius"),
    "fingertip-press": ("fingertip-cap", "fingertip_radius"),
    "twist-tool": ("tool-cap", "tool_tip_radius"),
}

# (static, fluent) fragments of the twist schemas.
_HAND_TWIST = (
    (("TwistReady", "?a", "?p", "?q"), ("Force", "?e")),
    (("AtPose", "bottle", "?p"), ("AtConf", "?a", "?q"), ("HandEmpty", "?a")),
)


class BottleWorld(World):
    """Scene geometry plus the chain builders for every strategy and route."""

    STRATEGY_PARTS = {s: _HAND_TWIST for s in HAND_STRATEGIES} | {
        "twist-tool": (
            (("ToolTwistReady", "?a", "?p", "?g", "?q"), ("Force", "?e")),
            (
                ("AtPose", "bottle", "?p"),
                ("AtConf", "?a", "?q"),
                ("Holding", "?a", "tool", "?g"),
            ),
        ),
    }
    ROUTE_PARTS = {
        "table-friction": ((("Placement", "bottle", "?p", "table"),), ()),
        "mat-friction": ((("Placement", "bottle", "?p", "mat"),), ()),
        "arm-hold": ((("Arm", "?h"),), (("SteadyHold", "bottle", "?h"),)),
        "vise-hold": (
            (("Placement", "bottle", "?p", "vise"),), (("ViseSecured", "bottle"),)
        ),
    }

    def absent(self) -> set:
        """The variants whose tool, mat or vise the scene lacks."""
        cfg = self.cfg
        mat = cfg["mat"] or cfg["start_surface"] == "mat"
        pieces = {"twist-tool": cfg["tool"], "mat-friction": mat, "vise-hold": cfg["vise"]}
        return {name for name, present in pieces.items() if not present}

    # ---- geometry helpers -------------------------------------------------

    @property
    def bottle_pose(self) -> Transform:
        return self.floor_pose(self.cfg["bottle_xy"])

    def cap_top(self, bottle_pose: Transform) -> np.ndarray:
        return bottle_pose.translation + np.array([0.0, 0.0, self.cfg["cap_top_height"]])

    def twist_hand_target(self, bottle_pose: Transform) -> Transform:
        return Transform(tool_down_rotation(), self.cap_top(bottle_pose))

    def cap_removal_target(self, bottle_pose: Transform) -> Transform:
        # Fresh grip, rotated a quarter turn, for spinning the loose cap off.
        return Transform(
            tool_down_rotation() @ rot_z(np.pi / 2.0), self.cap_top(bottle_pose)
        )

    def tool_twist_target(self, bottle_pose: Transform) -> Transform:
        ee = self.cap_top(bottle_pose) + np.array(
            [0.0, 0.0, self.cfg["tool_tip_below_pads"]]
        )
        return Transform(tool_down_rotation(), ee)

    def carried(self, obj: str):
        if obj == "bottle":
            return self.cfg["bottle_mass"], "hand-bottle", self.cfg["grasp_height"]
        return self.cfg["tool_mass"], "hand-tool", self.cfg["tool_grasp_height"]

    # ---- chains -----------------------------------------------------------

    def cap_wrench(self, extra: float) -> Wrench:
        return Wrench(
            [0.0, 0.0, -(self.op["push_force"] + extra)],
            [0.0, 0.0, self.op["torque"]],
            frame="cap",
        )

    def twist_chain(self, strategy: str, extra: float, arm_name: str, q):
        """Hand-side chain for one twist variant, rooted at the cap."""
        cfg = self.cfg
        pair, radius = _CAP_PATCHES[strategy]
        push = self.op["push_force"] + extra
        if strategy == "wrap-grip":
            normal, coupled = cfg["grip_force"], 0.0
        else:
            normal, coupled = push, push
        patch = CircularPatchJoint(
            self.mu(pair), cfg[radius], normal, "cap", coupled_normal_force=coupled
        )
        joints = [(patch, Transform.identity())]
        ee_offset = (0.0, 0.0, 0.0)
        if strategy == "twist-tool":
            ee_offset = (0.0, 0.0, cfg["tool_tip_below_pads"])
            joints.append(self.pad_link(
                "hand-tool", cfg["tool_pad_half_extents"], cfg["tool_grip_force"],
                "tool_pads", [1.0, 0.0, 0.0], ee_offset,
            ))
        joints.append(self.arm_link(arm_name, q, ee_offset))
        chain = ForcefulKinematicChain("cap", tuple(joints))
        return chain, self.cap_wrench(extra)

    def fixture_chain(self, route: str, extra: float):
        """Bottle-body chain resisting the twist reaction."""
        cfg = self.cfg
        if route in ("table-friction", "mat-friction"):
            surface = "table" if route == "table-friction" else "mat"
            patch = CircularPatchJoint(
                self.mu(f"bottle-{surface}"),
                cfg["base_radius"],
                cfg["bottle_mass"] * GRAVITY + extra,
                f"bottle_{surface}",
                coupled_normal_force=extra,
            )
            t = Transform(np.eye(3), np.array([0.0, 0.0, cfg["cap_top_height"]]))
            chain = ForcefulKinematicChain("cap", ((patch, t),))
        elif route in ("arm-hold", "vise-hold"):
            chain = ForcefulKinematicChain(
                "cap", ((RigidJoint(route), Transform.identity()),)
            )
        else:
            raise KeyError(route)
        return chain, self.cap_wrench(extra)

    def hand_chain(self, strategy: str, b):
        return self.twist_chain(strategy, b["?e"].payload, b["?a"], b["?q"].payload)

    def fixture_for(self, route: str, b):
        return self.fixture_chain(route, b["?e"].payload)


STRATEGIES = tuple(BottleWorld.STRATEGY_PARTS)
ROUTES = tuple(BottleWorld.ROUTE_PARTS)


build_world = BottleWorld


def build_problem(world: BottleWorld, spec: PerturbationSpec, seed: int = 0) -> Problem:
    """Planning problem for the world's scene and the variants it offers."""
    cfg = world.cfg
    statics, init = world.arm_facts()
    bottle_statics, at_start = world.object_facts("bottle", cfg["bottle_xy"])
    p0 = at_start[0][2]
    statics += bottle_statics + [("Placement", "bottle", p0, cfg["start_surface"])]
    init += at_start
    if "mat-friction" in world.routes and cfg["start_surface"] != "mat":
        statics.append(("Placeable", "bottle", "mat"))
    if "vise-hold" in world.routes:
        statics.append(("Placeable", "bottle", "vise"))
    if "twist-tool" in world.strategies:
        tool_statics, tool_init = world.object_facts("tool", cfg["tool_xy"])
        statics += tool_statics
        init += tool_init
    statics += [("Force", Value("e", float(e))) for e in world.op["extra_force_levels"]]

    # ---- streams ----------------------------------------------------------

    def sample_placement(binding):
        # Only the mat and the vise are ever ``Placeable``.
        return [(world.floor_pose(cfg[binding["?s"] + "_xy"]),)]

    at_bottle = (("Arm", "?a"), ("Pose", "bottle", "?p"))
    streams = [
        Stream(
            "place-on", (("Placeable", "?o", "?s"),),
            (("Placement", "?o", "?p", "?s"), ("Pose", "?o", "?p")),
            sample_placement,
        ),
        *grasp_streams(world),
        reach_stream(
            world, "reach-cap-twist", at_bottle, ("TwistReady", "?a", "?p"),
            lambda b: world.twist_hand_target(b["?p"].payload),
        ),
        reach_stream(
            world, "reach-cap-removal", at_bottle, ("RemovalReady", "?a", "?p"),
            lambda b: world.cap_removal_target(b["?p"].payload),
        ),
        reach_stream(
            world, "reach-tool-twist", at_bottle + (("Grasp", "tool", "?g"),),
            ("ToolTwistReady", "?a", "?p", "?g"),
            lambda b: world.tool_twist_target(b["?p"].payload),
        ),
    ]

    # ---- costs ------------------------------------------------------------

    def price(chain, w):
        return chain_cost(chain, w, spec, seed)

    # ---- schemas ----------------------------------------------------------

    schemas = common_schemas(world, price) + [
        ActionSchema(
            name="place",
            static_pre=(("Kin", "?a", "?o", "?p", "?g", "?q"),),
            fluent_pre=(("Holding", "?a", "?o", "?g"), ("AtConf", "?a", "?q")),
            add=(("AtPose", "?o", "?p"), ("HandEmpty", "?a")),
            delete=(("Holding", "?a", "?o", "?g"),),
        ),
        ActionSchema(
            name="secure-vise",
            static_pre=(("Placement", "bottle", "?p", "vise"),),
            fluent_pre=(("AtPose", "bottle", "?p"),),
            add=(("ViseSecured", "bottle"),),
            delete=(),
        ),
        ActionSchema(
            name="steady-grasp",
            static_pre=(("Kin", "?a", "bottle", "?p", "?g", "?q"),),
            fluent_pre=(
                ("AtPose", "bottle", "?p"),
                ("AtConf", "?a", "?q"),
                ("HandEmpty", "?a"),
            ),
            add=(("SteadyHold", "bottle", "?a"),),
            delete=(("HandEmpty", "?a"),),
        ),
        ActionSchema(
            name="remove-cap",
            static_pre=(("RemovalReady", "?a", "?p", "?q"),),
            fluent_pre=(
                ("CapLoose",),
                ("AtPose", "bottle", "?p"),
                ("AtConf", "?a", "?q"),
                ("HandEmpty", "?a"),
            ),
            add=(("CapRemoved",),),
            delete=(("HandEmpty", "?a"),),
        ),
    ]
    twists = twist_schemas(world, "twist-cap", ("CapLoose",), price)
    return Problem(statics, init, [("CapRemoved",)], schemas + twists, streams)
