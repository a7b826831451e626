"""Planner behavior on small worlds with enumerable optima."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from forceplan.domains import DOMAINS
from forceplan.domains.scene import common_schemas
from forceplan.planner import (
    STEP_COST,
    ActionSchema,
    Problem,
    Stream,
    Value,
    format_plan,
    plan_to_dict,
    serialize_payload,
    solve,
    validate_plan,
)
from forceplan.scenario import load_scenario, resolve_stage
from forceplan.spatial import Transform

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def nav_problem(edges, start, goal, costs=None):
    """Single-agent graph walk; fluent state is the current location."""
    costs = costs or {}
    move = ActionSchema(
        name="move",
        static_pre=(("Adjacent", "?a", "?b"),),
        fluent_pre=(("At", "?a"),),
        add=(("At", "?b"),),
        delete=(("At", "?a"),),
        cost_fn=lambda b: costs.get((b["?a"], b["?b"]), 0.0),
    )
    statics = [("Adjacent", a, b) for a, b in edges]
    return Problem(statics, [("At", start)], [("At", goal)], [move], [])


def dijkstra_reference(edges, costs, start, goal):
    """Independent shortest path including the per-step constant."""
    import heapq

    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, math.inf):
            continue
        for nxt in adj.get(node, []):
            nd = d + costs.get((node, nxt), 0.0) + STEP_COST
            if nd < dist.get(nxt, math.inf):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return dist.get(goal, math.inf)


class TestSearch:
    def test_shortest_path_simple_chain(self):
        edges = [("a", "b"), ("b", "c")]
        result = solve(nav_problem(edges, "a", "c"))
        assert result.solved
        assert [ga.schema.name for ga in result.plan] == ["move", "move"]
        assert result.cost == pytest.approx(2 * STEP_COST, abs=1e-15)

    def test_cost_tie_prefers_fewer_steps(self):
        edges = [("a", "b"), ("b", "c"), ("a", "c")]
        result = solve(nav_problem(edges, "a", "c"))
        assert len(result.plan) == 1

    def test_expensive_shortcut_avoided(self):
        edges = [("a", "c"), ("a", "b"), ("b", "c")]
        costs = {("a", "c"): 5.0}
        result = solve(nav_problem(edges, "a", "c", costs))
        assert [ga.args for ga in result.plan] == [("a", "b"), ("b", "c")]

    def test_infinite_cost_edge_pruned(self):
        edges = [("a", "c"), ("a", "b"), ("b", "c")]
        costs = {("a", "c"): math.inf}
        result = solve(nav_problem(edges, "a", "c", costs))
        assert result.solved
        assert len(result.plan) == 2

    def test_unreachable_goal_reports_diagnostic(self):
        edges = [("a", "b")]
        result = solve(nav_problem(edges, "a", "z"))
        assert not result.solved
        assert result.cost == math.inf
        assert "At" in result.diagnostic

    def test_search_cut_by_expansion_budget_says_so(self):
        edges = [("a", "b"), ("b", "c")]
        result = solve(nav_problem(edges, "a", "c"), max_expansions=1)
        assert not result.solved
        assert result.expansions == 1
        assert result.diagnostic == "search stopped at max_expansions (1)"

    def test_random_graphs_match_reference(self):
        for trial in range(6):
            rng = np.random.default_rng(trial)
            nodes = [f"n{i}" for i in range(7)]
            edges = []
            costs = {}
            for a in nodes:
                for b in nodes:
                    if a != b and rng.random() < 0.4:
                        edges.append((a, b))
                        costs[(a, b)] = float(rng.uniform(0.0, 2.0))
            expected = dijkstra_reference(edges, costs, "n0", "n6")
            result = solve(nav_problem(edges, "n0", "n6", costs))
            if math.isinf(expected):
                assert not result.solved
            else:
                assert result.solved
                assert result.cost == pytest.approx(expected, abs=1e-12)

    def test_neq_blocks_matching_arguments(self):
        shuffle = ActionSchema(
            name="shuffle",
            static_pre=(("Slot", "?x"), ("Slot", "?y")),
            fluent_pre=(("On", "?x"),),
            add=(("On", "?y"), ("Moved",)),
            delete=(("On", "?x"),),
            neq=(("?x", "?y"),),
        )
        solo = Problem([("Slot", "s1")], [("On", "s1")], [("Moved",)], [shuffle], [])
        assert not solve(solo).solved
        duo = Problem(
            [("Slot", "s1"), ("Slot", "s2")], [("On", "s1")], [("Moved",)], [shuffle], []
        )
        assert solve(duo).solved


def key_stream(payloads):
    """Certify (Key v) for each payload."""
    return Stream(
        name="gen-key",
        domain_facts=(),
        certified=(("Key", "?k"),),
        sample=lambda binding: [(p,) for p in payloads],
    )


def cut_stream(sample=None):
    """Certify (Cut k c) for each key k, by default cutting its payload."""
    return Stream(
        name="cut-key",
        domain_facts=(("Key", "?k"),),
        certified=(("Cut", "?k", "?c"),),
        sample=sample or (lambda binding: [(binding["?k"].payload + "-cut",)]),
    )


OPEN_DOOR = ActionSchema(
    name="open-door",
    static_pre=(("Cut", "?k", "?c"),),
    fluent_pre=(),
    add=(("Open",),),
    delete=(),
)


def grab_problem(stream):
    grab = ActionSchema(
        name="grab",
        static_pre=(("Key", "?k"),),
        fluent_pre=(("Empty",),),
        add=(("Holding",),),
        delete=(("Empty",),),
    )
    return Problem([], [("Empty",)], [("Holding",)], [grab], [stream])


class TestStreams:
    def test_sampled_value_enables_plan(self):
        result = solve(grab_problem(key_stream([3.14])))
        assert result.solved
        assert result.levels == 1
        value = result.plan[0].args[0]
        assert value.payload == 3.14
        assert value.kind == "k"

    def test_stream_failure_exhausts_levels(self):
        result = solve(grab_problem(key_stream([])), max_levels=3)
        assert not result.solved
        assert "grab" in result.diagnostic

    def test_level_without_new_facts_ends_the_solve(self):
        assert solve(grab_problem(key_stream([])), max_levels=8).levels == 0

    def test_each_stream_runs_once_per_binding(self):
        calls = []

        def gen(binding):
            calls.append(("gen-key",))
            return [("a",), ("b",)]

        def cut(binding):
            calls.append(("cut-key", binding["?k"].payload))
            return [(binding["?k"].payload + "-cut",)]

        stuck = ActionSchema(
            name="open-door",
            static_pre=(("Cut", "?k", "?c"), ("Master", "?k")),
            fluent_pre=(),
            add=(("Open",),),
            delete=(),
        )
        generator = Stream("gen-key", (), (("Key", "?k"),), gen)
        # (Master z) lets the schema ground in principle; it binds no key.
        problem = Problem(
            [("Master", "z")], [], [("Open",)], [stuck], [generator, cut_stream(cut)]
        )
        result = solve(problem, max_levels=8)
        assert not result.solved
        assert calls == [("gen-key",), ("cut-key", "a"), ("cut-key", "b")]
        # Level 2 runs no stream on a new binding, so no later level searches.
        assert result.levels == 2

    def test_chained_streams_need_two_levels(self):
        problem = Problem([], [], [("Open",)], [OPEN_DOOR], [key_stream(["raw"]), cut_stream()])
        result = solve(problem)
        assert result.solved
        assert result.levels == 2
        assert result.plan[0].args[1].payload == "raw-cut"

    def test_a_sampled_configuration_is_moved_to_one_level_later(self):
        # The domains' move: one arm, from its start configuration to the one
        # a stream samples for the work, and never from a configuration to
        # itself.
        move = next(s for s in common_schemas(None, None) if s.name == "move")
        moves = []

        def record(binding):
            moves.append((binding["?q1"], binding["?q2"]))
            return 0.0

        q0 = Value("conf", np.zeros(2))
        reach = Stream(
            "reach", (("Arm", "?a"),), (("Ready", "?a", "?q"), ("Conf", "?a", "?q")),
            lambda binding: [(np.ones(2),)],
        )
        work = ActionSchema(
            name="work",
            static_pre=(("Ready", "?a", "?q"),),
            fluent_pre=(("AtConf", "?a", "?q"),),
            add=(("Done",),),
            delete=(),
        )
        problem = Problem(
            [("Arm", "arm0"), ("Conf", "arm0", q0)], [("AtConf", "arm0", q0)],
            [("Done",)], [replace(move, cost_fn=record), work], [reach],
        )
        result = solve(problem)
        assert result.solved and result.levels == 1
        assert [repr(ga) for ga in result.plan] == ["move(arm0, conf, q)", "work(arm0, q)"]
        assert result.plan[0].args[1] is q0
        assert result.plan[0].args[2] is result.plan[1].args[1]
        assert len(moves) == 2 and all(q1 is not q2 for q1, q2 in moves)

    def test_serialized_plans_are_byte_identical(self):
        blobs = []
        for _ in range(2):
            result = solve(grab_problem(key_stream([np.array([0.1, -2.0, 3.5])])))
            blobs.append(
                json.dumps(plan_to_dict(result, seed=5), sort_keys=True).encode()
            )
        assert blobs[0] == blobs[1]


def never(binding):
    raise AssertionError("the solve used what no goal can use")


# Adds what nothing reads; grounds at level 0 on the static (Cloth rag).
POLISH = ActionSchema(
    name="polish",
    static_pre=(("Cloth", "?c"),),
    fluent_pre=(),
    add=(("Shiny",),),
    delete=(),
    cost_fn=never,
)


def copy_key(static_pre):
    """Adds the grab problem's goal; never priced."""
    return ActionSchema("copy-key", static_pre, (), (("Holding",),), (), cost_fn=never)


class TestRelevance:
    """The solve drops the schemas and streams that can never ground or
    that the goal cannot use."""

    def solve_grab_with(self, schemas=(), streams=()):
        problem = grab_problem(key_stream(["k"]))
        problem.statics.append(("Cloth", "rag"))
        problem.schemas += schemas
        problem.streams += streams
        result = solve(problem)
        assert result.solved and result.levels == 1

    def test_a_stream_whose_fact_nothing_reads_is_never_called(self):
        self.solve_grab_with(streams=[Stream("tag", (), (("Tag", "?t"),), never)])

    def test_a_schema_whose_adds_nothing_reads_is_never_priced(self):
        self.solve_grab_with(schemas=[POLISH])

    def test_a_stream_that_feeds_only_that_schema_is_never_called(self):
        weave = Stream("weave", (), (("Cloth", "?c"),), never)
        self.solve_grab_with(schemas=[POLISH], streams=[weave])

    def test_a_schema_that_can_never_ground_is_never_priced(self):
        # Nothing states (Master ?m), so no stream is called for the
        # (Blank ?b) the schema also reads.
        copy = copy_key((("Master", "?m"), ("Blank", "?b")))
        blank = Stream("blank", (), (("Blank", "?b"),), never)
        self.solve_grab_with(schemas=[copy], streams=[blank])

    def test_a_stream_that_can_never_run_is_never_called(self):
        # Nothing states (Master ?m), so "forge" never runs, the schema
        # reading its (Blank ?b) never grounds, and no stream feeds it.
        forge = Stream("forge", (("Master", "?m"),), (("Blank", "?b"),), never)
        copy = copy_key((("Blank", "?b"), ("Stamp", "?s")))
        stamp = Stream("stamp", (), (("Stamp", "?s"),), never)
        self.solve_grab_with(schemas=[copy], streams=[forge, stamp])

    def test_a_stream_with_one_unread_fact_is_never_called(self):
        # Like a reach, which certifies the Conf every move reads next to
        # a fact that no schema of the stage may read.
        tagged = Stream("tagged-key", (), (("Key", "?k"), ("Tag", "?k")), never)
        self.solve_grab_with(streams=[tagged])


class TestCosts:
    def test_cost_function_called_once_per_ground_action(self):
        calls = []

        def cost_fn(binding):
            calls.append(binding["?k"])
            return 0.25

        grab = ActionSchema(
            name="grab",
            static_pre=(("Key", "?k"),),
            fluent_pre=(("Empty",),),
            add=(("Holding",),),
            delete=(("Empty",),),
            cost_fn=cost_fn,
        )
        # The goal also needs the cut key, which appears a level after the
        # key itself, so grab is grounded at levels 1 and 2.
        problem = Problem(
            [], [("Empty",)], [("Holding",), ("Open",)], [grab, OPEN_DOOR],
            [key_stream(["k"]), cut_stream()],
        )
        result = solve(problem, max_levels=4)
        assert result.solved
        assert result.levels == 2
        assert len(calls) == len(set(calls)) == 1
        assert result.cost == pytest.approx(0.25 + 2 * STEP_COST, abs=1e-15)


class TestValidation:
    def test_round_trip_validation_passes(self):
        edges = [("a", "b"), ("b", "c")]
        costs = {("a", "b"): 0.5}
        problem = nav_problem(edges, "a", "c", costs)
        result = solve(problem)
        ok, msg = validate_plan(problem, result.plan, expected_cost=result.cost)
        assert ok, msg

    def test_missing_step_fails_validation(self):
        edges = [("a", "b"), ("b", "c")]
        problem = nav_problem(edges, "a", "c")
        result = solve(problem)
        ok, msg = validate_plan(problem, result.plan[1:])
        assert not ok
        assert "precondition" in msg

    def test_wrong_cost_fails_validation(self):
        edges = [("a", "b")]
        problem = nav_problem(edges, "a", "b")
        result = solve(problem)
        ok, msg = validate_plan(problem, result.plan, expected_cost=result.cost + 1.0)
        assert not ok
        assert "recompute" in msg

    def test_schema_rejects_unbound_effect_variable(self):
        with pytest.raises(ValueError):
            ActionSchema(
                name="bad",
                static_pre=(("Thing", "?x"),),
                fluent_pre=(),
                add=(("At", "?y"),),
                delete=(),
            )


class TestDeclarations:
    def test_schema_params_are_static_variables_in_first_appearance_order(self):
        schema = ActionSchema("s", (("B", "?y", "?x"), ("A", "?z", "?x")), (), (), ())
        assert schema.params == ("?y", "?x", "?z")

    def test_stream_inputs_and_outputs_come_from_its_facts(self):
        stream = Stream(
            "s", (("K", "?k"),), (("Cut", "?k", "?c"), ("Tag", "?c", "?t")), lambda b: []
        )
        assert stream.inputs == ("?k",)
        assert stream.outputs == ("?c", "?t")
        copy = replace(stream, sample=lambda b: [("c", "t")])
        assert (copy.inputs, copy.outputs) == (("?k",), ("?c", "?t"))


class TestShippedWork:
    """The planner's work on two shipped scenarios, pinned like the plan digests.

    Cost-function and stream calls, levels and expansions of one solve at
    the scenario seed; a change that moves a count updates it here and says
    why.  Re-validating the plan prices again and is not counted.

    A ``move`` reads two ``Conf`` facts of its arm, so the level after a
    stream samples a configuration can move to it; no stream certifies a
    motion per ordered pair of configurations first.  So each scenario is
    solved one level sooner.  bottle_default is solved at level 1, before
    any reach to the mat, vise or tool poses is sampled and priced (it took
    248 cost and 49 stream calls, 18 of them motions, at level 2 when a move
    needed a motion fact).  nut_stiff is solved at level 2 with the same
    cost calls and 24 stream calls (266 before, 242 of them motions).
    bottle_default's 8 stream calls were 9 while its press levels came from
    a stream; they are now facts of the initial state.
    """

    @pytest.mark.parametrize(
        "scenario, work",
        [("bottle_default", (60, 8, 1, 20)), ("nut_stiff", (28, 24, 2, 1918))],
    )
    def test_cost_and_stream_calls_levels_and_expansions(self, scenario, work):
        resolved = resolve_stage(load_scenario(str(SCENARIOS / f"{scenario}.json")), 0)
        module = DOMAINS[resolved.domain]
        world = module.build_world(resolved.scene, resolved.operation, resolved.disable)
        problem = module.build_problem(world, resolved.spec, seed=resolved.seed)
        calls = {"cost": 0, "stream": 0}

        def counted(kind, fn):
            def call(binding):
                calls[kind] += 1
                return fn(binding)
            return call

        schemas = [
            s if s.cost_fn is None else replace(s, cost_fn=counted("cost", s.cost_fn))
            for s in problem.schemas
        ]
        streams = [replace(st, sample=counted("stream", st.sample)) for st in problem.streams]
        result = solve(replace(problem, schemas=schemas, streams=streams), **resolved.budget)
        assert result.solved
        assert (calls["cost"], calls["stream"], result.levels, result.expansions) == work


class TestSerialization:
    def test_payloads_serialize_by_type(self):
        assert serialize_payload(1.5) == 1.5
        assert serialize_payload("x") == "x"
        assert serialize_payload(np.float64(2.0)) == 2.0
        assert serialize_payload(np.array([1.0, 2.0])) == {"array": [1.0, 2.0]}
        tagged = serialize_payload(Transform.identity())
        assert tagged["type"] == "Transform"
        with pytest.raises(TypeError):
            serialize_payload(object())

    def test_format_plan_mentions_actions(self):
        edges = [("a", "b")]
        result = solve(nav_problem(edges, "a", "b"))
        text = format_plan(result)
        assert "move(a, b)" in text
        assert "total cost" in text
