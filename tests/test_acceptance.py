"""Acceptance gate: one test per shipped guarantee, each with its own oracle.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
guarantee: ablation plan lengths, the patch limit-surface formula, cone
membership against linear programming, Jacobian consistency, robustness
curve shapes, planner optimality/determinism, Monte-Carlo calibration,
noise raising the press force a bottle plan chooses, and noise raising the
weight a nut plan ballasts the slat with.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial.transform import Rotation

from forceplan import cli
from forceplan.domains import nut
from forceplan.planner import (
    STEP_COST,
    ActionSchema,
    Problem,
    plan_to_dict,
    solve,
    validate_plan,
)
from forceplan.robot import default_arm, fk, jacobian, planar_two_link_arm
from forceplan.robustness import PerturbationSpec, success_probability
from forceplan.scenario import load_scenario, resolve_stage
from forceplan.spatial import Transform, Wrench
from forceplan.stability import (
    CircularPatchJoint,
    ForcefulKinematicChain,
    PolygonPatchJoint,
    friction_cone_generators,
    in_convex_cone,
    limit_surface_stable,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# 1. Ablation tracks: plan lengths under progressively removed options.


FIXTURE_TRACK = (
    ("baseline", 4, "wrap-grip", "table-friction"),
    ("slippery-table", 6, "wrap-grip", "arm-hold"),
    ("one-arm", 8, "wrap-grip", "mat-friction"),
    ("no-mat", 9, "wrap-grip", "vise-hold"),
)
HAND_TRACK = (
    ("all-hands", 4, "wrap-grip", "mat-friction"),
    ("no-wrap", 4, "palm-press", "mat-friction"),
    ("fingertips-only", 4, "fingertip-press", "mat-friction"),
    ("tool-only", 8, "twist-tool", "mat-friction"),
)


def test_ablation_tracks_reproduce_expected_plan_lengths(tmp_path):
    for scenario_name, expected in (
        ("bottle_a1.json", FIXTURE_TRACK),
        ("bottle_a2.json", HAND_TRACK),
    ):
        out = tmp_path / f"{scenario_name}.csv"
        rc = cli.main(["ablate", str(SCENARIOS / scenario_name), "--out", str(out)])
        assert rc == 0, scenario_name
        rows = read_rows(out)
        assert len(rows) == len(expected)
        for row, (stage, steps, strategy, route) in zip(rows, expected):
            assert row["stage"] == stage
            assert row["solved"] == "1", (scenario_name, stage)
            assert int(row["steps"]) == steps, (scenario_name, stage)
            assert row["strategy"] == strategy, (scenario_name, stage)
            assert row["route"] == route, (scenario_name, stage)
            assert float(row["wall_time_s"]) < 60.0, (scenario_name, stage)


# ---------------------------------------------------------------------------
# 2. Circular-patch limit surface against a direct evaluation of the
#    ellipsoid quadratic form.


def test_limit_surface_margin_matches_direct_formula():
    rng = np.random.default_rng(2026)
    for _ in range(10_000):
        mu = rng.uniform(0.1, 1.2)
        radius = rng.uniform(0.005, 0.08)
        normal = rng.uniform(5.0, 100.0)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        ft = normal * mu * rng.uniform(0.0, 1.5)
        mn = normal * 0.6 * radius * mu * rng.uniform(-1.5, 1.5)
        w = np.array([ft * np.cos(angle), ft * np.sin(angle), mn])
        joint = CircularPatchJoint(mu=mu, radius_r=radius, normal_force_N=normal)
        verdict = limit_surface_stable(w, joint)
        form = (w[0] ** 2 + w[1] ** 2) / (normal * mu) ** 2
        form += w[2] ** 2 / (normal * 0.6 * radius * mu) ** 2
        expected = 1.0 - form
        assert verdict.stable == (expected > 0.0)
        assert verdict.margin == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# 3. Cone membership against an independent linear-programming oracle, plus
#    the friction-pyramid bound for a single-point contact.


def test_cone_membership_agrees_with_linear_programming():
    rng = np.random.default_rng(3)
    checked = 0
    for case in range(2_000):
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(1, 9))
        gens = rng.normal(size=(count, dim))
        if case % 2 == 0:
            w = gens.T @ rng.uniform(0.2, 1.0, size=count)
        else:
            w = rng.normal(size=dim)
        norm = np.linalg.norm(w)
        if norm < 1e-9:
            continue
        feasible, margin = in_convex_cone(w, gens)
        # Phase-1 LP: distance of the unit wrench from the cone in L1 via
        # elastic slacks, solved by an algorithm unrelated to NNLS.
        w_hat = w / norm
        a_eq = np.hstack([gens.T, np.eye(dim), -np.eye(dim)])
        cost = np.concatenate([np.zeros(count), np.ones(2 * dim)])
        res = linprog(
            cost,
            A_eq=a_eq,
            b_eq=w_hat,
            bounds=[(0, None)] * (count + 2 * dim),
            method="highs",
        )
        assert res.status == 0
        lp_distance = res.fun
        if 1e-9 < lp_distance < 1e-6 or abs(margin) < 1e-6:
            continue  # within numerical reach of the boundary; both answers defensible
        assert feasible == (lp_distance <= 1e-9), (case, margin, lp_distance)
        checked += 1
    assert checked > 1_800  # the boundary carve-out must stay rare

    # A one-point contact can never transmit tangential force beyond mu
    # times its normal force, whatever the direction.
    joint = PolygonPatchJoint(
        mu=0.4, corners=[[0.0, 0.0, 0.0]], corner_normal_forces=[12.0]
    )
    gens = friction_cone_generators(joint)
    for _ in range(200):
        fn = 12.0 * rng.uniform(0.2, 1.0)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        ft = 0.4 * fn * rng.uniform(1.01, 3.0)
        w = np.array([ft * np.cos(angle), ft * np.sin(angle), fn, 0.0, 0.0, 0.0])
        feasible, _ = in_convex_cone(w, gens)
        assert not feasible


# ---------------------------------------------------------------------------
# 4. Geometric Jacobian against central finite differences of fk, and the
#    hand-derived planar lever-arm torques.


def numeric_jacobian(arm, q, eps=1e-5):
    n = len(q)
    J = np.zeros((6, n))
    for i in range(n):
        dq = np.zeros(n)
        dq[i] = eps
        plus = fk(arm, q + dq)
        minus = fk(arm, q - dq)
        J[:3, i] = (plus.translation - minus.translation) / (2 * eps)
        rel = Rotation.from_matrix(plus.rotation @ minus.rotation.T).as_rotvec()
        J[3:, i] = rel / (2 * eps)
    return J


def test_jacobian_matches_finite_differences():
    planar = planar_two_link_arm()
    spatial = default_arm()
    rng = np.random.default_rng(41)
    for _ in range(250):
        q = rng.uniform(-np.pi, np.pi, size=2)
        np.testing.assert_allclose(
            jacobian(planar, q), numeric_jacobian(planar, q), atol=1e-6
        )
    for _ in range(250):
        q = rng.uniform(-1.5, 1.5, size=spatial.dof)
        np.testing.assert_allclose(
            jacobian(spatial, q), numeric_jacobian(spatial, q), atol=1e-6
        )
    # Straight planar arm, 10 N pulling the tip down: levers 2 m and 1 m.
    w = Wrench(np.array([0.0, -10.0, 0.0]), np.zeros(3))
    tau = jacobian(planar, [0.0, 0.0]).T @ w.as_array()
    np.testing.assert_allclose(tau, [-20.0, -10.0], atol=1e-12)


# ---------------------------------------------------------------------------
# 5. Robustness curve shapes at 1,000 samples, and the planner preferring
#    an interior weight mass when three are offered.


def by_method(rows):
    curves = {}
    for row in rows:
        curves.setdefault(row["method"], []).append(
            (float(row["sweep_value"]), float(row["failure_probability"]), float(row["cost"]))
        )
    for points in curves.values():
        points.sort(key=lambda p: p[0])
    return curves


def test_robustness_curves_have_expected_shapes(tmp_path):
    bottle_csv = tmp_path / "bottle.csv"
    rc = cli.main(
        [
            "robustness",
            str(SCENARIOS / "bottle_default.json"),
            "--samples",
            "1000",
            "--out",
            str(bottle_csv),
        ]
    )
    assert rc == 0
    curves = by_method(read_rows(bottle_csv))
    wrap = [cost for _, _, cost in curves["wrap-grip"]]
    assert all(cost < 0.05 for cost in wrap)
    for method in ("palm-press", "fingertip-press", "twist-tool"):
        costs = [cost for _, _, cost in curves[method]]
        assert all(b <= a for a, b in zip(costs, costs[1:])), method
    for method in ("arm-hold", "vise-hold"):
        assert all(cost == 0.0 for _, _, cost in curves[method]), method
    table = [cost for _, _, cost in curves["table-friction"]]
    mat = [cost for _, _, cost in curves["mat-friction"]]
    assert all(m <= t for m, t in zip(mat, table))

    nut_csv = tmp_path / "nut.csv"
    rc = cli.main(
        [
            "robustness",
            str(SCENARIOS / "nut_default.json"),
            "--samples",
            "1000",
            "--sweep",
            "0.25:5:12",
            "--out",
            str(nut_csv),
        ]
    )
    assert rc == 0
    curves = by_method(read_rows(nut_csv))
    hold = [cost for _, _, cost in curves["weight-hold"]]
    carry = [cost for _, _, cost in curves["weight-carry"]]
    assert all(b <= a for a, b in zip(hold, hold[1:]))
    assert all(b >= a for a, b in zip(carry, carry[1:]))
    assert hold[0] > 0.0 and hold[-1] == 0.0
    assert carry[0] == 0.0 and math.isinf(carry[-1])

    # With a light, a middling, and a heavy weight on offer, the single-arm
    # stage should settle on the middle one: the light weight holds the
    # slat poorly and the heavy one cannot be carried.
    scenario = load_scenario(SCENARIOS / "nut_default.json")
    resolved = resolve_stage(scenario, 1)
    world = nut.build_world(resolved.scene, resolved.operation, resolved.disable)
    problem = nut.build_problem(world, resolved.spec, seed=resolved.seed)
    result = solve(
        problem,
        max_levels=resolved.budget["max_levels"],
        max_expansions=resolved.budget["max_expansions"],
    )
    assert result.solved
    picked = [ga.args[1] for ga in result.plan if ga.schema.name == "pick"]
    assert picked == ["w2"]
    masses = world.cfg["weights"]
    assert min(masses.values()) < masses["w2"] < max(masses.values())


# ---------------------------------------------------------------------------
# 6. Planner optimality on exhaustively enumerable toy domains, plan
#    validation, and byte-identical output for identical seeds.


def enumerate_min_cost(ground, init, goal, depth):
    """Exhaustive DFS over every plan up to the given length."""
    goal = frozenset(goal)
    best = math.inf
    stack = [(frozenset(init), 0.0, 0)]
    while stack:
        state, cost, steps = stack.pop()
        if goal <= state:
            best = min(best, cost)
            continue
        if steps == depth:
            continue
        for pre, add, delete, action_cost in ground:
            if pre <= state:
                stack.append(
                    ((state - delete) | add, cost + action_cost + STEP_COST, steps + 1)
                )
    return best


def toy_courier():
    edge_costs = {
        ("a", "b"): 0.10,
        ("b", "d"): 0.10,
        ("a", "c"): 0.05,
        ("c", "d"): 0.20,
        ("a", "d"): 0.35,
    }
    drive = ActionSchema(
        "drive",
        static_pre=(("Road", "?x", "?y"),),
        fluent_pre=(("At", "?x"),),
        add=(("At", "?y"),),
        delete=(("At", "?x"),),
        cost_fn=lambda b: edge_costs[(b["?x"], b["?y"])],
    )
    problem = Problem(
        statics=[("Road", x, y) for x, y in edge_costs],
        init=[("At", "a")],
        goal=[("At", "d")],
        schemas=(drive,),
        streams=(),
    )
    ground = [
        (frozenset({("At", x)}), frozenset({("At", y)}), frozenset({("At", x)}), c)
        for (x, y), c in edge_costs.items()
    ]
    return problem, ground, 4, None


def toy_vault():
    take = ActionSchema(
        "take-key",
        static_pre=(),
        fluent_pre=(("AgentIn", "anteroom"), ("KeyIn", "anteroom")),
        add=(("HasKey",),),
        delete=(("KeyIn", "anteroom"),),
    )
    unlock = ActionSchema(
        "unlock", static_pre=(), fluent_pre=(("HasKey",),), add=(("Unlocked",),), delete=()
    )
    smash = ActionSchema(
        "smash-lock",
        static_pre=(),
        fluent_pre=(("AgentIn", "anteroom"),),
        add=(("Unlocked",),),
        delete=(),
        cost_fn=lambda b: 5.0,
    )
    enter = ActionSchema(
        "enter",
        static_pre=(),
        fluent_pre=(("Unlocked",), ("AgentIn", "anteroom")),
        add=(("AgentIn", "vault"),),
        delete=(("AgentIn", "anteroom"),),
    )
    problem = Problem(
        statics=[],
        init=[("AgentIn", "anteroom"), ("KeyIn", "anteroom")],
        goal=[("AgentIn", "vault")],
        schemas=(take, unlock, smash, enter),
        streams=(),
    )
    ground = [
        (
            frozenset({("AgentIn", "anteroom"), ("KeyIn", "anteroom")}),
            frozenset({("HasKey",)}),
            frozenset({("KeyIn", "anteroom")}),
            0.0,
        ),
        (frozenset({("HasKey",)}), frozenset({("Unlocked",)}), frozenset(), 0.0),
        (frozenset({("AgentIn", "anteroom")}), frozenset({("Unlocked",)}), frozenset(), 5.0),
        (
            frozenset({("Unlocked",), ("AgentIn", "anteroom")}),
            frozenset({("AgentIn", "vault")}),
            frozenset({("AgentIn", "anteroom")}),
            0.0,
        ),
    ]
    return problem, ground, 4, ["take-key", "unlock", "enter"]


def toy_sanding():
    coarse = ActionSchema(
        "sand-coarse",
        static_pre=(),
        fluent_pre=(("Rough",),),
        add=(("Smooth",),),
        delete=(("Rough",),),
        cost_fn=lambda b: 0.40,
    )
    fetch = ActionSchema(
        "fetch-block",
        static_pre=(),
        fluent_pre=(),
        add=(("BlockOut",),),
        delete=(),
        cost_fn=lambda b: 0.25,
    )
    fine = ActionSchema(
        "sand-fine",
        static_pre=(),
        fluent_pre=(("Rough",), ("BlockOut",)),
        add=(("Smooth",),),
        delete=(("Rough",),),
        cost_fn=lambda b: 0.10,
    )
    problem = Problem(
        statics=[],
        init=[("Rough",)],
        goal=[("Smooth",)],
        schemas=(coarse, fetch, fine),
        streams=(),
    )
    ground = [
        (frozenset({("Rough",)}), frozenset({("Smooth",)}), frozenset({("Rough",)}), 0.40),
        (frozenset(), frozenset({("BlockOut",)}), frozenset(), 0.25),
        (
            frozenset({("Rough",), ("BlockOut",)}),
            frozenset({("Smooth",)}),
            frozenset({("Rough",)}),
            0.10,
        ),
    ]
    return problem, ground, 3, ["fetch-block", "sand-fine"]


def test_planner_is_exact_on_enumerable_domains_and_deterministic(tmp_path):
    for build in (toy_courier, toy_vault, toy_sanding):
        problem, ground, depth, expected_names = build()
        optimum = enumerate_min_cost(ground, problem.init, problem.goal, depth)
        assert math.isfinite(optimum)
        result = solve(problem)
        assert result.solved, build.__name__
        assert result.cost == pytest.approx(optimum, abs=1e-12), build.__name__
        ok, msg = validate_plan(problem, result.plan, result.cost)
        assert ok, msg
        if expected_names is not None:
            assert [ga.schema.name for ga in result.plan] == expected_names
        again = solve(build()[0])
        first = json.dumps(plan_to_dict(result, seed=0), sort_keys=True)
        second = json.dumps(plan_to_dict(again, seed=0), sort_keys=True)
        assert first == second

    out1 = tmp_path / "plan1.json"
    out2 = tmp_path / "plan2.json"
    scenario = str(SCENARIOS / "bottle_a1.json")
    assert cli.main(["solve", scenario, "--stage", "baseline", "--out", str(out1)]) == 0
    assert cli.main(["solve", scenario, "--stage", "baseline", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# 7. Monte-Carlo failure estimate against the analytic Gaussian tail for a
#    single perturbed parameter.


def test_failure_estimate_matches_gaussian_tail():
    # Only friction is noisy, so one sample survives iff
    # mu (1 + 0.1 z) N > f, i.e. z > (f / (mu N) - 1) / 0.1 = -1.
    mu, normal, force = 0.5, 10.0, 4.5
    joint = CircularPatchJoint(mu=mu, radius_r=0.05, normal_force_N=normal)
    chain = ForcefulKinematicChain("contact", ((joint, Transform.identity()),))
    w = Wrench([force, 0.0, 0.0], [0.0, 0.0, 0.0], frame="contact")
    spec = PerturbationSpec(
        mu_rel=0.1,
        wrench_rel=0.0,
        frame_translation=0.0,
        frame_rotation=0.0,
        patch_rel=0.0,
        samples=10_000,
    )
    p_hat = success_probability(chain, w, spec, seed=11)
    p_true = normal_cdf((1.0 - force / (normal * mu)) / 0.1)
    assert p_hat == pytest.approx(p_true, abs=0.02)


# ---------------------------------------------------------------------------
# 8. Robustness changes the parameters: the same bottle scene planned with
#    the default noise and without any, same strategy and route, but a
#    harder press on the cap under noise.


def test_noise_raises_the_chosen_press_force(tmp_path):
    planned = {}
    for stage in ("robust", "nominal"):
        out = tmp_path / f"{stage}.json"
        argv = ["solve", str(SCENARIOS / "bottle_robust.json"), "--stage", stage]
        assert cli.main([*argv, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        (twist,) = [s for s in payload["plan"]["steps"] if s["action"].startswith("twist-")]
        (press,) = [a["payload"] for a in twist["args"] if a.get("kind") == "e"]
        planned[stage] = (payload["strategy"], payload["route"], press)
    # Noise raises the extra press force by one step of the 15 N grid.
    assert planned == {
        "robust": ("wrap-grip", "table-friction", 30.0),
        "nominal": ("wrap-grip", "table-friction", 15.0),
    }


# ---------------------------------------------------------------------------
# 9. Robustness changes the nut's parameters: the one-arm nut scene planned
#    with the default noise and without any, same strategy and route, but a
#    heavier ballast on the slat under noise.


def test_noise_raises_the_chosen_ballast_weight(tmp_path):
    planned = {}
    for stage in ("robust", "nominal"):
        out = tmp_path / f"{stage}.json"
        argv = ["solve", str(SCENARIOS / "nut_robust.json"), "--stage", stage]
        assert cli.main([*argv, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        steps = payload["plan"]["steps"]
        (pick,) = [s for s in steps if s["action"] == "pick"]
        weight = pick["args"][1]["const"]
        planned[stage] = (payload["strategy"], payload["route"], len(steps), weight)
    # Noise trades the 0.5 kg weight for the 2 kg one.
    assert planned == {
        "robust": ("finger-twist", "weight-hold", 6, "w2"),
        "nominal": ("finger-twist", "weight-hold", 6, "w1"),
    }
