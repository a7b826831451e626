"""Shared scene scaffolding and the skeleton both task domains build on.

A ``World`` owns the scene configuration, the arms with their base
placements, and the friction table, and solves IK for world-frame hand
targets.  Both domains are one construction on top of it: a twist
action variant for every hand strategy and fixture route the stage
offers, priced by a hand-side chain and a fixture-side chain, plus the
grasp and reach streams and the move and pick actions that bring a hand to
the work.  A move jumps between any two distinct configurations of
one arm: no trajectory is sampled or checked, as no domain has obstacles.
A world is built for one stage; the planner drops the streams and
schemas its goal cannot use, and an object only one variant uses (tool,
spanner, weights, mat, vise) has facts only when that variant is offered,
as ``pick`` and ``place`` take any object.  ``World`` makes the decisions
the domains share: which variants a stage offers, how a variant is named
and priced, how a carried object is grasped and loads the hand, and an
object's facts on the floor.  A domain's world supplies only the facts
behind them.
Also here: grasp targets, the pad and arm links (``World.pad_link`` and
``World.arm_link``), the per-arm initial facts, the common streams and
schemas, the twist-schema generator, and the plan summary.

Contact frame conventions used by the joint builders:

* support patches (object resting on a surface) use a frame whose z axis
  points up out of the surface, so pressing loads arrive as negative z
  force and twisting loads as z moment;
* ``World.pad_link`` builds a pad grasp (parallel-jaw fingers) in a frame
  whose z axis is the pad normal and whose x axis is the world's up
  projected off that normal (world x when the normal is vertical); the
  pad patch carries the squeeze as its preload, pressing along -z, so the
  friction cone test sees the correct normal balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..planner import ActionSchema, Stream, Value
from ..robot import default_arm, ik
from ..spatial import Transform, Wrench, compose, rot_y
from ..stability import GRAVITY, ArmJoint, ForcefulKinematicChain, PolygonPatchJoint

__all__ = [
    "World",
    "GraspSpec",
    "tool_down_rotation",
    "reach_stream",
    "grasp_streams",
    "common_schemas",
    "twist_schemas",
    "plan_summary",
]


def tool_down_rotation() -> np.ndarray:
    """Hand orientation with the tool axis pointing at the floor."""
    return rot_y(np.pi)


@dataclass(frozen=True)
class GraspSpec:
    """Hand pose relative to the object, plus a label for reporting."""

    offset: Transform
    label: str

    def to_dict(self) -> dict:
        return {"offset": self.offset.to_dict(), "label": self.label}


class World:
    """A domain's scene for one stage: configuration, arms, friction, offers.

    ``cfg`` is the scenario's resolved ``scene`` section and ``op`` its
    ``operation`` section; both domains name their arms, arm bases,
    friction table, grip force and hand pads alike.  Every arm is a
    ``default_arm`` whose base sits on the floor, axis-aligned with the
    world, at its ``arm_bases`` position.

    The offer rule: ``strategies`` and ``routes`` list the parts tables'
    names in order, without those in ``disable`` or ``absent()`` (whose
    scene piece is missing) and, with fewer than two arms, ``arm-hold``.

    A domain's world supplies the twist schemas' ``(static, fluent)``
    fragments as ``STRATEGY_PARTS`` and ``ROUTE_PARTS``, whose keys, in
    order, are the domain's strategies and routes; ``absent()``; a ground
    twist's two ``(chain, wrench)`` pairs as ``hand_chain`` and
    ``fixture_for``; and ``carried(obj)``, a graspable object's (mass,
    friction pair, grasp height), which ``carry_chain`` turns into the
    load on the hand.  Every chain link that is a pad grasp or an arm
    comes from ``pad_link`` or ``arm_link``, each as a ``(joint,
    transform)`` pair; a hold that cannot slip (a second arm's grip, a
    vise, a hex socket) adds no link.  ``floor_pose`` builds every floor
    pose and ``object_facts`` the facts of an object on the floor.
    """

    def __init__(self, cfg: dict, op: dict, disable):
        self.cfg = cfg
        self.op = op
        self.arms = {name: default_arm() for name in cfg["arms"]}
        self.arm_bases = {n: self.floor_pose(cfg["arm_bases"][n]) for n in self.arms}
        drop = set(disable) | self.absent()
        if len(self.arms) < 2:
            drop.add("arm-hold")
        self.strategies = [s for s in self.STRATEGY_PARTS if s not in drop]
        self.routes = [r for r in self.ROUTE_PARTS if r not in drop]

    @staticmethod
    def floor_pose(xy) -> Transform:
        """Axis-aligned pose on the floor at ``xy``."""
        return Transform(np.eye(3), np.array([xy[0], xy[1], 0.0]))

    def object_facts(self, obj: str, xy):
        """Static and initial facts of graspable ``obj`` on the floor at ``xy``."""
        pose = Value("pose", self.floor_pose(xy))
        return [("Pose", obj, pose), ("Graspable", obj)], [("AtPose", obj, pose)]

    def mu(self, pair: str) -> float:
        return float(self.cfg["friction"][pair])

    def reach(self, arm_name: str, world_target: Transform):
        """IK in the arm's base frame for a world-frame hand target."""
        base = self.arm_bases[arm_name]
        local = Transform(
            base.rotation.T @ world_target.rotation,
            base.rotation.T @ (world_target.translation - base.translation),
        )
        return ik(self.arms[arm_name], local)

    def arm_facts(self):
        """Static and initial facts of every arm: empty, at the zero conf."""
        statics, init = [], []
        for arm_name, arm in self.arms.items():
            q0 = Value("conf", np.zeros(arm.dof))
            statics += [("Arm", arm_name), ("Conf", arm_name, q0)]
            init += [("AtConf", arm_name, q0), ("HandEmpty", arm_name)]
        return statics, init

    def arm_link(self, arm_name: str, q, app_to_ee_world=(0.0, 0.0, 0.0)):
        # Arm bases are axis-aligned with the world, so the torque check
        # frame only shifts the moment origin to the end effector.
        joint = ArmJoint(self.arms[arm_name], np.asarray(q, dtype=float))
        t = Transform(np.eye(3), -np.asarray(app_to_ee_world, dtype=float))
        return joint, t

    def pad_link(self, pair: str, half_extents, squeeze, label: str, normal, to_pads):
        """A parallel-jaw grasp folded into one preloaded pad patch, and the
        transform from the world-aligned application frame into its test
        frame.

        ``pair`` names the pad friction, ``half_extents`` the pad rectangle
        and ``label`` the contact frame.  Both fingers squeeze with
        ``squeeze``, so the preload pressing the object against the pad
        plane is twice that.  ``normal`` is the pad normal and ``to_pads``
        the vector from the application origin to the pad center, both in
        world axes.
        """
        hx, hy = float(half_extents[0]), float(half_extents[1])
        corners = np.array(
            [[hx, hy, 0.0], [-hx, hy, 0.0], [-hx, -hy, 0.0], [hx, -hy, 0.0]]
        )
        pads = PolygonPatchJoint(
            mu=self.mu(pair),
            corners=corners,
            corner_normal_forces=[float(squeeze) / 2.0] * 4,
            contact_frame=label,
            preload=Wrench([0.0, 0.0, -2.0 * float(squeeze)], [0.0, 0.0, 0.0]),
        )
        n = np.asarray(normal, dtype=float)
        n = n / np.linalg.norm(n)
        up = np.array([0.0, 0.0, 1.0])
        x = up - np.dot(up, n) * n
        if np.linalg.norm(x) < 1e-9:
            x = np.array([1.0, 0.0, 0.0]) - n[0] * n
        x = x / np.linalg.norm(x)
        rot = np.vstack([x, np.cross(n, x), n])
        return pads, Transform(rot, rot @ (-np.asarray(to_pads, dtype=float)))

    def carry_chain(self, mass, pair, grasp_z, arm_name, q):
        """Carrying an object of ``mass`` in the pinch grasp, loaded by its
        own weight; ``pair`` names the pad friction and ``grasp_z`` is the
        grasp height.

        The object's center of mass sits halfway up to the grasp height.
        """
        to_pads = (0.0, 0.0, grasp_z / 2.0)
        joints = (
            self.pad_link(
                pair, self.cfg["hand_pad_half_extents"], self.cfg["grip_force"],
                "pads", [1.0, 0.0, 0.0], to_pads,
            ),
            self.arm_link(arm_name, q, to_pads),
        )
        chain = ForcefulKinematicChain("obj", joints)
        w = Wrench([0.0, 0.0, -mass * GRAVITY], [0.0, 0.0, 0.0], frame="obj")
        return chain, w

    def object_grasp(self, obj: str) -> GraspSpec:
        """Top-down pinch of ``obj`` at its grasp height above its origin."""
        offset = np.array([0.0, 0.0, self.carried(obj)[2]])
        return GraspSpec(Transform(tool_down_rotation(), offset), f"pinch-{obj}")


# ---- streams ---------------------------------------------------------------


def reach_stream(world: World, name: str, domain: tuple, fact: tuple, target) -> Stream:
    """IK stream: a configuration ``?q`` of arm ``?a`` at ``target(binding)``.

    ``domain`` binds the arguments of ``fact``; the stream certifies
    ``fact + (?q,)`` and ``(Conf ?a ?q)``.
    """

    def sample(binding):
        q = world.reach(binding["?a"], target(binding))
        return [] if q is None else [(q,)]

    return Stream(name, domain, (fact + ("?q",), ("Conf", "?a", "?q")), sample)


def grasp_streams(world: World) -> list:
    """``grasp-for`` (one grasp per graspable object) and ``reach-grasp``."""

    def sample_grasp(binding):
        return [(world.object_grasp(binding["?o"]),)]

    return [
        Stream(
            "grasp-for", (("Graspable", "?o"),), (("Grasp", "?o", "?g"),), sample_grasp
        ),
        reach_stream(
            world, "reach-grasp",
            (("Arm", "?a"), ("Pose", "?o", "?p"), ("Grasp", "?o", "?g")),
            ("Kin", "?a", "?o", "?p", "?g"),
            lambda b: compose(b["?p"].payload, b["?g"].payload.offset),
        ),
    ]


# ---- schemas ---------------------------------------------------------------


def common_schemas(world: World, price) -> list:
    """``move`` between two distinct ``Conf`` facts of one arm, and ``pick``.

    Picking pays for carrying the object: ``price(chain, wrench)`` of
    ``world.carry_chain(*world.carried(?o), ?a, ?q)``.
    """

    def pick_cost(binding):
        return price(*world.carry_chain(
            *world.carried(binding["?o"]), binding["?a"], binding["?q"].payload
        ))

    return [
        ActionSchema(
            name="move",
            static_pre=(("Conf", "?a", "?q1"), ("Conf", "?a", "?q2")),
            fluent_pre=(("AtConf", "?a", "?q1"),),
            add=(("AtConf", "?a", "?q2"),),
            delete=(("AtConf", "?a", "?q1"),),
            neq=(("?q1", "?q2"),),
        ),
        ActionSchema(
            name="pick",
            static_pre=(("Kin", "?a", "?o", "?p", "?g", "?q"),),
            fluent_pre=(
                ("AtPose", "?o", "?p"),
                ("AtConf", "?a", "?q"),
                ("HandEmpty", "?a"),
            ),
            add=(("Holding", "?a", "?o", "?g"),),
            delete=(("AtPose", "?o", "?p"), ("HandEmpty", "?a")),
            cost_fn=pick_cost,
        ),
    ]


def twist_schemas(world: World, prefix: str, goal: tuple, price) -> list:
    """One twist schema per strategy and route the world offers.

    Each schema is named ``{prefix}--{strategy}--{route}``; ``plan_summary``
    reads the names back.  A schema joins its strategy's
    ``world.STRATEGY_PARTS`` fragments with its route's
    ``world.ROUTE_PARTS`` and adds ``goal``.  A route that binds a holding
    arm ``?h`` keeps it apart from the twisting arm ``?a``.  A variant costs
    ``price(chain, wrench)`` of its hand chain plus that of its fixture
    chain; the fixture chain is not priced once the hand chain fails for
    sure.
    """

    def variant_cost(strategy, route):
        def cost(binding):
            hand = price(*world.hand_chain(strategy, binding))
            if math.isinf(hand):
                return hand
            return hand + price(*world.fixture_for(route, binding))

        return cost

    schemas = []
    for strategy in world.strategies:
        s_static, s_fluent = world.STRATEGY_PARTS[strategy]
        for route in world.routes:
            r_static, r_fluent = world.ROUTE_PARTS[route]
            schemas.append(
                ActionSchema(
                    name=f"{prefix}--{strategy}--{route}",
                    static_pre=s_static + r_static,
                    fluent_pre=s_fluent + r_fluent,
                    add=(goal,),
                    delete=(),
                    neq=(("?a", "?h"),) if any("?h" in f for f in r_static) else (),
                    cost_fn=variant_cost(strategy, route),
                )
            )
    return schemas


def plan_summary(result) -> tuple:
    """``(strategy, route)`` of the plan's first twist step.

    ``("", "")`` when there is no plan or it has no twist step.
    """
    for ga in result.plan or ():
        parts = ga.schema.name.split("--")
        if len(parts) == 3:
            return parts[1], parts[2]
    return "", ""
