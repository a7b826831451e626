"""The shared twist-schema generator and plan summary on a stub world."""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import pytest

from forceplan import planner
from forceplan.domains import DOMAINS
from forceplan.domains.scene import World, plan_summary, twist_schemas
from forceplan.planner import ActionSchema, GroundAction, SolveResult
from forceplan.scenario import load_scenario, parse_scenario, resolve_stage
from forceplan.stability import ArmJoint, CircularPatchJoint, PolygonPatchJoint

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class StubWorld(World):
    """Two strategies and one route with fixed chains; records chain builds."""

    STRATEGY_PARTS = {
        "grip": ((("Arm", "?a"),), ()),
        "press": ((("Arm", "?a"),), ()),
    }
    ROUTE_PARTS = {"hold": ((), ())}

    def __init__(self, strategies=("grip", "press")):
        self.built = []
        self.strategies = list(strategies)
        self.routes = ["hold"]

    def hand_chain(self, strategy, binding):
        self.built.append(("hand", strategy))
        return strategy, None

    def fixture_for(self, route, binding):
        self.built.append(("fixture", route))
        return route, None


def test_fixture_chain_is_skipped_once_the_hand_chain_fails():
    world = StubWorld()
    prices = {"grip": math.inf, "press": 0.25, "hold": 0.5}
    schemas = twist_schemas(world, "twist", ("Done",), lambda chain, w: prices[chain])
    assert [s.name for s in schemas] == ["twist--grip--hold", "twist--press--hold"]
    grip, press = schemas
    assert math.isinf(grip.cost_fn({"?a": "arm0"}))
    assert world.built == [("hand", "grip")]
    assert press.cost_fn({"?a": "arm0"}) == 0.75
    assert world.built == [("hand", "grip"), ("hand", "press"), ("fixture", "hold")]


def test_disabled_names_get_no_schema():
    # A world offers only its stage's strategies; the others get no schema.
    schemas = twist_schemas(
        StubWorld(strategies=["press"]), "twist", ("Done",), lambda chain, w: 0.0
    )
    assert [s.name for s in schemas] == ["twist--press--hold"]


def ground(schema):
    return GroundAction(schema, {p: "arm0" for p in schema.params}, 0.0)


def test_plan_summary_reads_the_first_twist_step():
    grip, press = twist_schemas(StubWorld(), "twist", ("Done",), lambda chain, w: 0.0)
    noop = ActionSchema("noop", static_pre=(), fluent_pre=(), add=(), delete=())
    plan = [ground(noop), ground(press), ground(grip)]
    assert plan_summary(SolveResult(plan, 0.0, 0, 0)) == ("press", "hold")


def test_plan_summary_is_empty_without_a_plan_or_a_twist_step():
    noop = ActionSchema("noop", static_pre=(), fluent_pre=(), add=(), delete=())
    assert plan_summary(SolveResult([ground(noop)], 0.0, 0, 0)) == ("", "")
    assert plan_summary(SolveResult(None, math.inf, 0, 0)) == ("", "")


def shipped_problem(scenario, stage=0):
    return stage_problem(load_scenario(SCENARIOS / scenario), stage)


def stage_problem(loaded, stage):
    resolved = resolve_stage(loaded, stage)
    module = DOMAINS[resolved.domain]
    world = module.build_world(resolved.scene, resolved.operation, resolved.disable)
    return module.build_problem(world, resolved.spec, seed=resolved.seed), resolved


def shipped_schemas(scenario):
    return {s.name: s for s in shipped_problem(scenario)[0].schemas}


SHIPPED_STAGES = [
    (path.name, stage.name)
    for path in sorted(SCENARIOS.glob("*.json"))
    for stage in load_scenario(path).stages
]
# Each domain with the strategies whose twists read a reach's facts disabled.
NO_REACH = {
    "bottle-no-hand": '{"domain": "bottle-cap", "disable": '
    '["wrap-grip", "palm-press", "fingertip-press"]}',
    "nut-no-finger": '{"domain": "nut-fastening", "disable": ["finger-twist"]}',
}


def traced_solve(problem, resolved):
    """Solve at the stage budget; return the (stream, binding) of each stream
    call and the (schema, binding) of each ground action built."""
    called, grounded = [], []

    def traced(log, item, fn):
        def call(binding):
            log.append((item, binding))
            return fn(binding)
        return call

    schemas = [
        replace(s, cost_fn=traced(grounded, s, s.cost_fn or (lambda b: 0.0)))
        for s in problem.schemas
    ]
    streams = [replace(st, sample=traced(called, st, st.sample)) for st in problem.streams]
    planner.solve(replace(problem, schemas=schemas, streams=streams), **resolved.budget)
    return called, grounded


every_stage = pytest.mark.parametrize(
    "scenario, stage",
    SHIPPED_STAGES + [(name, 0) for name in NO_REACH],
    ids=[f"{sc}-{st}" for sc, st in SHIPPED_STAGES] + list(NO_REACH),
)


def case_problem(scenario, stage):
    if scenario in NO_REACH:
        return stage_problem(parse_scenario(NO_REACH[scenario]), stage)
    return shipped_problem(scenario, stage)


@every_stage
def test_every_certified_fact_is_read(scenario, stage, monkeypatch):
    # A stream call whose facts nothing on the way to the goal reads would
    # only spend its time (an IK solve, for a reach).  A schema is on the
    # way when it adds what the goal or another such schema reads, and a
    # stream when each fact it certifies is read on the way.
    priced = []
    for module in DOMAINS.values():
        def record(chain, *args, cost=module.chain_cost):
            priced.append(chain)
            return cost(chain, *args)
        monkeypatch.setattr(module, "chain_cost", record)
    problem, resolved = case_problem(scenario, stage)
    read = {g[0] for g in problem.goal}
    while True:
        grown = set(read)
        for s in problem.schemas:
            if any(f[0] in read for f in s.add):
                grown.update(f[0] for f in s.static_pre + s.fluent_pre)
        for st in problem.streams:
            if all(f[0] in read for f in st.certified):
                grown.update(f[0] for f in st.domain_facts)
        if grown == read:
            break
        read = grown
    called, grounded = traced_solve(problem, resolved)
    assert called and grounded
    unread = {st.name: sorted({f[0] for f in st.certified} - read) for st, _ in called}
    assert {name: preds for name, preds in unread.items() if preds} == {}
    unused = {s.name for s, _ in grounded if not any(f[0] in read for f in s.add)}
    assert unused == set()
    # The same solve prices only links that can fail, and each patch names
    # the contact it models.
    links = [joint for chain in priced for joint, _ in chain.joints]
    assert links
    assert all(isinstance(j, (CircularPatchJoint, PolygonPatchJoint, ArmJoint)) for j in links)
    assert all(j.contact_frame for j in links if not isinstance(j, ArmJoint))


@every_stage
def test_every_static_fact_is_read(scenario, stage):
    # Each static fact matches a static precondition of a schema the solve
    # keeps or a domain fact of a stream it keeps.
    kept = planner._relevant(case_problem(scenario, stage)[0])
    patterns = [f for s in kept.schemas for f in s.static_pre]
    patterns += [f for st in kept.streams for f in st.domain_facts]
    unread = [
        planner._pretty(fact) for fact in kept.statics
        if all(planner._match(pat, fact, {}) is None for pat in patterns)
    ]
    assert unread == []


def test_one_arm_stages_neither_grip_the_beam_nor_price_the_tool():
    # nut_default one-arm offers no arm-hold, so nothing reads a beam grip;
    # bottle_a1 one-arm disables twist-tool, so the tool is never picked.
    called, _ = traced_solve(*shipped_problem("nut_default.json", "one-arm"))
    names = [st.name for st, _ in called]
    assert "reach-nut" in names and "reach-beam-grip" not in names
    _, grounded = traced_solve(*shipped_problem("bottle_a1.json", "one-arm"))
    picked = {b["?o"] for s, b in grounded if s.name == "pick"}
    assert picked == {"bottle"}


def test_disabled_routes_place_the_bottle_on_neither_mat_nor_vise():
    text = '{"domain": "bottle-cap", "disable": ["mat-friction", "vise-hold"]}'
    called, _ = traced_solve(*stage_problem(parse_scenario(text), 0))
    names = [st.name for st, _ in called]
    assert "reach-cap-twist" in names and "place-on" not in names


@pytest.mark.parametrize("vise", ["false", "true"])
def test_a_bottle_that_starts_in_the_vise_is_held_by_it(vise):
    # Whether the scene lists a vise or not, the bottle stands in one.
    text = (
        '{"domain": "bottle-cap", "scene": {"start_surface": "vise", "vise": %s, '
        '"friction": {"bottle-table": 0.08}}}' % vise
    )
    problem, resolved = stage_problem(parse_scenario(text), 0)
    result = planner.solve(problem, **resolved.budget)
    assert len(result.plan) == 5
    assert plan_summary(result)[1] == "vise-hold"


@pytest.mark.parametrize("scenario", ["bottle_default.json", "nut_stiff.json"])
def test_a_move_joins_two_configurations_of_its_arm(scenario, monkeypatch):
    # Capture the solve's fact database as the streams grow it.
    seen = {}
    invoke = planner._invoke_streams

    def capture(streams, facts, invoked):
        seen["facts"] = facts
        return invoke(streams, facts, invoked)

    monkeypatch.setattr(planner, "_invoke_streams", capture)
    problem, resolved = shipped_problem(scenario)
    result = planner.solve(problem, **resolved.budget)
    moves = [ga for ga in result.plan if ga.schema.name == "move"]
    assert moves
    for ga in moves:
        arm, q1, q2 = ga.args
        assert ("Conf", arm, q1) in seen["facts"]["Conf"]
        assert ("Conf", arm, q2) in seen["facts"]["Conf"]
        assert q1 is not q2


def test_twist_names_split_into_prefix_strategy_and_route():
    # plan_summary splits a schema name at "--": no part may contain it.
    for module in DOMAINS.values():
        assert not [n for n in module.STRATEGIES + module.ROUTES if "--" in n]
    for scenario, prefix in (("bottle_default.json", "twist-cap"),
                             ("nut_default.json", "twist-nut")):
        names = list(shipped_schemas(scenario))
        twists = [n.split("--") for n in names if "--" in n]
        assert twists and all(len(parts) == 3 for parts in twists)
        assert {parts[0] for parts in twists} == {prefix}
        assert [n for n in names if n.startswith("twist-") and "--" not in n] == []


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
