"""Discrete planning over sampled values.

A problem couples three ingredients:

* action schemas with static preconditions (facts that never change and
  gate grounding) and fluent preconditions/effects (facts the plan edits),
* streams, which sample new typed values (grasps, configurations)
  and certify static facts about them,
* an initial fluent state and a ground conjunctive goal.

Each variable is stated once, in the facts that bind it: a schema's
parameters are the variables of its static preconditions, a stream's
inputs those of its domain facts, and its outputs the other variables of
its certified facts, each in order of first appearance.

A solve first drops each stream and schema whose domain or static
predicates neither the statics nor a kept stream supply.  Of the rest it
keeps, repeating until nothing changes, a schema that adds a predicate the
goal or a kept schema reads, and a stream each of whose certified
predicates a kept schema or stream reads ("each", as a reach also
certifies the ``Conf`` every move reads).
Solving then alternates grounding-plus-search with one round of stream
invocations, so cheap plans that need few sampled values are found before
the fact database grows.  A round that certifies no new fact ends the
solve, since every later level would repeat the same search.  Search is
uniform cost over fluent states; every action pays its own cost plus a
small per-step constant, which breaks cost ties toward shorter plans.

Each stream runs exactly once per input binding and returns everything
it will ever produce for it; a stream is a deterministic function of its
binding.  Each fact is stored once, and each ground action is built and
priced once, at the first level that grounds it; actions priced infinite
are never searched, and a goal that only they add is named as such.
Facts, ground actions and stream calls are keyed by their arguments
themselves, and a ``Value`` compares by identity.  Search breaks remaining
ties by heap insertion order, so two runs produce identical plans.  A plan
names its values ``v0, v1, ...`` in the order they first appear in its
steps, so its serialized form depends only on its steps, never on how many
values the search created; outside a plan a value prints as its kind.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "STEP_COST",
    "Value",
    "ActionSchema",
    "Stream",
    "Problem",
    "GroundAction",
    "SolveResult",
    "solve",
    "validate_plan",
    "plan_to_dict",
    "format_plan",
    "serialize_payload",
]

STEP_COST = 1e-3


class Value:
    """A sampled object of some kind; compares by identity, payload is opaque."""

    __slots__ = ("kind", "payload")

    def __init__(self, kind: str, payload):
        self.kind = kind
        self.payload = payload

    def __repr__(self) -> str:
        return f"<{self.kind}>"


def _is_var(term) -> bool:
    return isinstance(term, str) and term.startswith("?")


def _arg_key(arg) -> str:
    return arg if isinstance(arg, str) else arg.kind


def _pretty(fact) -> str:
    return "(" + " ".join([fact[0]] + [_arg_key(a) for a in fact[1:]]) + ")"


def _collect_vars(patterns):
    out = []
    for pat in patterns:
        for term in pat[1:]:
            if _is_var(term) and term not in out:
                out.append(term)
    return out


@dataclass(frozen=True)
class ActionSchema:
    """Lifted action; ``params`` are the variables of ``static_pre``, in order."""

    name: str
    static_pre: tuple
    fluent_pre: tuple
    add: tuple
    delete: tuple
    neq: tuple = ()
    cost_fn: object = None
    params: tuple = field(init=False)

    def __post_init__(self):
        params = tuple(_collect_vars(self.static_pre))
        object.__setattr__(self, "params", params)
        for var in _collect_vars(self.fluent_pre + self.add + self.delete):
            if var not in params:
                raise ValueError(f"{self.name}: unbound variable {var}")
        for a, b in self.neq:
            if a not in params or b not in params:
                raise ValueError(f"{self.name}: neq over unknown variables")


@dataclass(frozen=True)
class Stream:
    """Value sampler.  ``sample(binding)`` returns every output tuple at once.

    ``inputs`` are the variables of ``domain_facts`` and ``outputs`` the
    other variables of ``certified``, both in order of first appearance.
    """

    name: str
    domain_facts: tuple
    certified: tuple
    sample: object
    inputs: tuple = field(init=False)
    outputs: tuple = field(init=False)

    def __post_init__(self):
        inputs = tuple(_collect_vars(self.domain_facts))
        object.__setattr__(self, "inputs", inputs)
        outputs = tuple(v for v in _collect_vars(self.certified) if v not in inputs)
        object.__setattr__(self, "outputs", outputs)


@dataclass
class Problem:
    statics: list
    init: list
    goal: list
    schemas: list
    streams: list


class GroundAction:
    __slots__ = ("schema", "args", "binding", "fluent_pre", "add", "delete", "cost")

    def __init__(self, schema: ActionSchema, binding: dict, cost: float):
        self.schema = schema
        self.binding = binding
        self.args = tuple(binding[p] for p in schema.params)
        self.fluent_pre = frozenset(_instantiate(f, binding) for f in schema.fluent_pre)
        self.add = frozenset(_instantiate(f, binding) for f in schema.add)
        self.delete = frozenset(_instantiate(f, binding) for f in schema.delete)
        self.cost = cost

    def __repr__(self) -> str:
        return f"{self.schema.name}({', '.join(_arg_key(a) for a in self.args)})"


@dataclass
class SolveResult:
    plan: list | None
    cost: float
    levels: int
    expansions: int
    diagnostic: str | None = None

    @property
    def solved(self) -> bool:
        return self.plan is not None


def _instantiate(pattern, binding):
    return (pattern[0],) + tuple(
        binding[t] if _is_var(t) else t for t in pattern[1:]
    )


def _match(pattern, fact, binding):
    if pattern[0] != fact[0] or len(pattern) != len(fact):
        return None
    b = binding
    for pat, val in zip(pattern[1:], fact[1:]):
        if _is_var(pat):
            seen = b.get(pat)
            if seen is None:
                if b is binding:
                    b = dict(binding)
                b[pat] = val
            elif seen is not val and seen != val:
                return None
        elif pat is not val and pat != val:
            return None
    return b if b is not binding else dict(binding)


def _bindings(facts, patterns, binding):
    if not patterns:
        yield binding
        return
    first = patterns[0]
    for fact in facts.get(first[0], ()):
        b = _match(first, fact, binding)
        if b is not None:
            yield from _bindings(facts, patterns[1:], b)


def _ground_all(schemas, facts, table):
    """Finite-cost ground actions in first-binding order; ``table`` builds each once."""
    grounded = {}
    for schema in schemas:
        for b in _bindings(facts, schema.static_pre, {}):
            if any(b[x] == b[y] for x, y in schema.neq):
                continue
            key = (schema.name, tuple(b[p] for p in schema.params))
            if key not in table:
                cost = 0.0 if schema.cost_fn is None else float(schema.cost_fn(b))
                table[key] = GroundAction(schema, b, cost)
            grounded[key] = table[key]
    return [ga for ga in grounded.values() if not math.isinf(ga.cost)]


def _search(grounded, init, goal, max_expansions):
    start = frozenset(init)
    goal_set = frozenset(goal)
    heap = [(0.0, 0, start)]
    counter = 1
    best = {start: 0.0}
    parent = {start: None}
    closed = set()
    expansions = 0
    while heap:
        cost, _, state = heapq.heappop(heap)
        if state in closed:
            continue
        closed.add(state)
        expansions += 1
        if goal_set <= state:
            plan = []
            cur = state
            while parent[cur] is not None:
                prev, action = parent[cur]
                plan.append(action)
                cur = prev
            plan.reverse()
            return plan, cost, expansions
        if expansions >= max_expansions:
            break
        for action in grounded:
            if not action.fluent_pre <= state:
                continue
            nxt = frozenset((state - action.delete) | action.add)
            ncost = cost + action.cost + STEP_COST
            if ncost < best.get(nxt, math.inf):
                best[nxt] = ncost
                parent[nxt] = (state, action)
                counter += 1
                heapq.heappush(heap, (ncost, counter, nxt))
    return None, math.inf, expansions


def _invoke_streams(streams, facts, invoked):
    """Call each stream on its bindings not in ``invoked``; True if a fact is new."""
    progressed = False
    # Snapshot bindings for every stream first: facts certified during this
    # level only become visible to streams at the next level.
    snapshots = [
        (stream, list(_bindings(facts, stream.domain_facts, {})))
        for stream in streams
    ]
    for stream, pending in snapshots:
        for b in pending:
            key = (stream.name, tuple(b[v] for v in stream.inputs))
            if key in invoked:
                continue
            invoked.add(key)
            for result in stream.sample(b):
                if len(result) != len(stream.outputs):
                    raise ValueError(f"{stream.name}: result arity mismatch")
                full = dict(b)
                for var, payload in zip(stream.outputs, result):
                    full[var] = Value(var.lstrip("?"), payload)
                for cert in stream.certified:
                    fact = _instantiate(cert, full)
                    same = facts.setdefault(fact[0], {})
                    progressed |= fact not in same
                    same[fact] = None
    return progressed


def _diagnose(problem, facts, table, cap=None):
    notes = []
    for schema in problem.schemas:
        for pat in schema.static_pre:
            if not any(_match(pat, f, {}) is not None for f in facts.get(pat[0], ())):
                notes.append(f"{schema.name}: no fact matches {_pretty(pat)}")
                break
    supplied = {f[0] for f in problem.init}
    supplied |= {f[0] for schema in problem.schemas for f in schema.add}
    for schema in problem.schemas:
        for pat in schema.fluent_pre:
            if pat[0] not in supplied:
                notes.append(f"{schema.name}: no action adds {_pretty(pat)}")
    achievable = set(problem.init)
    for ga in table.values():
        if not math.isinf(ga.cost):
            achievable |= ga.add
    for g in problem.goal:
        if g in achievable:
            continue
        adders = sorted(repr(ga) for ga in table.values() if g in ga.add)
        why = "is not added by any grounded action"
        if adders:
            why = f"is added only by {len(adders)} actions priced infinite, first {adders[0]}"
        notes.append(f"goal {_pretty(g)} {why}")
    if cap is not None:
        notes.append(f"search stopped at max_expansions ({cap})")
    return "; ".join(notes) if notes else "search exhausted the reachable states"


def _relevant(problem: Problem) -> Problem:
    """``problem`` without the schemas and streams that can never ground or
    that its goal cannot use."""
    known, grown = None, {f[0] for f in problem.statics}
    while grown != known:
        known = grown
        able = [st for st in problem.streams if all(f[0] in known for f in st.domain_facts)]
        grown = known | {f[0] for st in able for f in st.certified}
    groundable = [s for s in problem.schemas if all(f[0] in known for f in s.static_pre)]
    read, grown = None, {g[0] for g in problem.goal}
    while grown != read:
        read = grown
        schemas = [s for s in groundable if any(f[0] in read for f in s.add)]
        streams = [st for st in able if all(f[0] in read for f in st.certified)]
        grown = read | {f[0] for s in schemas for f in s.static_pre + s.fluent_pre}
        grown |= {f[0] for st in streams for f in st.domain_facts}
    return replace(problem, schemas=schemas, streams=streams)


def solve(
    problem: Problem,
    max_levels: int = 8,
    max_expansions: int = 200_000,
) -> SolveResult:
    """Incremental solve: search, then widen the fact database, repeat.

    Stops at the first plan, at ``max_levels``, or when a level's streams
    certify no new fact; a failed result reports the last level searched.
    """
    problem = _relevant(problem)
    # predicate -> insertion-ordered dict of facts (values unused)
    facts: dict = {}
    for f in problem.statics:
        facts.setdefault(f[0], {})[f] = None
    invoked: set = set()
    table: dict = {}
    total_expansions = 0
    level = 0
    while True:
        grounded = _ground_all(problem.schemas, facts, table)
        plan, cost, expansions = _search(
            grounded, problem.init, problem.goal, max_expansions
        )
        total_expansions += expansions
        if plan is not None:
            return SolveResult(plan, cost, level, total_expansions)
        if level >= max_levels or not _invoke_streams(problem.streams, facts, invoked):
            cap = max_expansions if expansions >= max_expansions else None
            return SolveResult(
                None, math.inf, level, total_expansions,
                _diagnose(problem, facts, table, cap),
            )
        level += 1


def validate_plan(problem: Problem, plan, expected_cost=None):
    """Re-simulate a plan and recompute its cost from scratch.

    Returns (ok, message).  Costs are recomputed through each schema's cost
    function, so a stale or tampered cost shows up as a mismatch.
    """
    state = frozenset(problem.init)
    total = 0.0
    for i, ga in enumerate(plan):
        missing = ga.fluent_pre - state
        if missing:
            facts = ", ".join(sorted(_pretty(f) for f in missing))
            return False, f"step {i} ({ga!r}): unsatisfied precondition {facts}"
        state = frozenset((state - ga.delete) | ga.add)
        fresh = 0.0 if ga.schema.cost_fn is None else float(ga.schema.cost_fn(ga.binding))
        if not math.isclose(fresh, ga.cost, rel_tol=0.0, abs_tol=1e-9):
            return False, f"step {i} ({ga!r}): cost {ga.cost} does not recompute ({fresh})"
        total += fresh + STEP_COST
    missing_goal = frozenset(problem.goal) - state
    if missing_goal:
        facts = ", ".join(sorted(_pretty(f) for f in missing_goal))
        return False, f"goal not reached: {facts}"
    if expected_cost is not None and not math.isclose(
        total, expected_cost, rel_tol=0.0, abs_tol=1e-9
    ):
        return False, f"plan cost {expected_cost} does not recompute ({total})"
    return True, None


def serialize_payload(payload):
    """JSON-ready form of a sampled payload; arrays and to_dict objects tagged."""
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, np.generic):
        return payload.item()
    if isinstance(payload, np.ndarray):
        return {"array": payload.tolist()}
    if isinstance(payload, (list, tuple)):
        return [serialize_payload(p) for p in payload]
    if hasattr(payload, "to_dict"):
        return {"type": type(payload).__name__, "data": payload.to_dict()}
    raise TypeError(f"cannot serialize payload of type {type(payload).__name__}")


def _value_names(plan) -> dict:
    """``v0, v1, ...`` for each value of ``plan``, in order of first appearance."""
    names = {}
    for ga in plan:
        for a in ga.args:
            if not isinstance(a, str) and a not in names:
                names[a] = f"v{len(names)}"
    return names


def plan_to_dict(result: SolveResult, seed=None) -> dict:
    """The plan alone: its steps, cost and seed; search statistics stay out."""
    plan = result.plan or []
    names = _value_names(plan)
    steps = []
    for ga in plan:
        args = []
        for a in ga.args:
            if isinstance(a, str):
                args.append({"const": a})
            else:
                args.append(
                    {
                        "value": names[a],
                        "kind": a.kind,
                        "payload": serialize_payload(a.payload),
                    }
                )
        steps.append({"action": ga.schema.name, "args": args, "cost": ga.cost})
    out = {"solved": result.solved, "cost": result.cost, "steps": steps}
    if seed is not None:
        out["seed"] = seed
    if result.diagnostic:
        out["diagnostic"] = result.diagnostic
    return out


def format_plan(result: SolveResult) -> str:
    if not result.solved:
        return f"no plan: {result.diagnostic}"
    names = _value_names(result.plan)
    lines = []
    for i, ga in enumerate(result.plan, start=1):
        args = ", ".join(names.get(a, a) for a in ga.args)
        lines.append(f"{i}. {ga.schema.name}({args})  cost={ga.cost:.6g}")
    lines.append(f"total cost {result.cost:.6g} over {len(result.plan)} steps")
    return "\n".join(lines)
