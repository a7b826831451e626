"""Command line front end.

Three subcommands share the scenario-file format: ``solve`` plans one
stage and can write the plan as JSON, ``ablate`` runs every stage and
tabulates how plans change, ``robustness`` sweeps a load parameter and
reports chain failure probabilities as CSV.

Exit codes: 0 on success, 1 for a bad scenario file or arguments, a file
that cannot be read or written, or when the reader of stdout has gone, 2
when planning finds no plan or its plan fails re-validation (no plan file
is written).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .domains import DOMAINS, bottle
from .domains.scene import plan_summary
from .planner import SolveResult, format_plan, plan_to_dict, solve, validate_plan
from .robustness import cost_from_probability, success_probability
from .scenario import MAX_MAGNITUDE, ConfigError, load_scenario, resolve_stage


def _solve_stage(resolved):
    """Solve one stage; a plan that fails re-validation counts as no plan."""
    module = DOMAINS[resolved.domain]
    world = module.build_world(resolved.scene, resolved.operation, resolved.disable)
    problem = module.build_problem(world, resolved.spec, seed=resolved.seed)
    start = time.perf_counter()
    result = solve(
        problem,
        max_levels=resolved.budget["max_levels"],
        max_expansions=resolved.budget["max_expansions"],
    )
    wall = time.perf_counter() - start
    if result.solved:
        ok, why = validate_plan(problem, result.plan, result.cost)
        if not ok:
            result = SolveResult(
                None, math.inf, result.levels, result.expansions,
                f"plan fails re-validation: {why}",
            )
    return result, plan_summary(result), wall


def _resolved(args):
    resolved = resolve_stage(load_scenario(args.scenario), getattr(args, "stage", "0"))
    if args.seed is not None:
        resolved = replace(resolved, seed=args.seed)
    return resolved


def cmd_solve(args) -> int:
    resolved = _resolved(args)
    result, (strategy, route), wall = _solve_stage(resolved)
    if not result.solved:
        print(f"no plan for stage '{resolved.name}' ({wall:.1f}s)")
        if result.diagnostic:
            print(f"  {result.diagnostic}")
        return 2
    print(f"stage '{resolved.name}': {len(result.plan)} steps, "
          f"strategy {strategy or '-'}, route {route or '-'}, "
          f"cost {result.cost:.6g}, level {result.levels}, "
          f"{result.expansions} expansions ({wall:.1f}s)")
    print(format_plan(result))
    if args.out:
        payload = {
            "domain": resolved.domain,
            "stage": resolved.name,
            "strategy": strategy,
            "route": route,
            "plan": plan_to_dict(result, seed=resolved.seed),
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"plan written to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    rows = []
    all_solved = True
    for resolved in load_scenario(args.scenario).stages:
        if args.seed is not None:
            resolved = replace(resolved, seed=args.seed)
        result, (strategy, route), wall = _solve_stage(resolved)
        all_solved &= result.solved
        steps = len(result.plan) if result.solved else 0
        rows.append(
            {
                "stage": resolved.name,
                "solved": int(result.solved),
                "steps": steps,
                "strategy": strategy,
                "route": route,
                "cost": result.cost if result.solved else "",
                "wall_time_s": round(wall, 3),
            }
        )
        label = f"{strategy}/{route}" if result.solved else "-"
        print(f"{resolved.name}: steps={steps} {label} ({wall:.1f}s)")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        print(f"table written to {args.out}")
    return 0 if all_solved else 2


# Each sweep point prices every method at ``--samples``: about 0.1-0.2 s at
# the default 1,000, so this many points already take about half an hour.
_MAX_SWEEP_POINTS = 10_000


def _parse_sweep(text: str) -> np.ndarray:
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ConfigError(f"--sweep must look like 'lo:hi:count', got '{text}'")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"--sweep bounds must be finite, got '{text}'")
    if count < 1:
        raise ConfigError("--sweep needs at least one point")
    if count > _MAX_SWEEP_POINTS:
        raise ConfigError(
            f"--sweep count must be at most {_MAX_SWEEP_POINTS}, got {count}"
        )
    grid = np.linspace(lo, hi, count)
    if np.any(grid < 0):
        raise ConfigError(f"--sweep values must be nonnegative, got '{text}'")
    if np.any(grid > MAX_MAGNITUDE):
        raise ConfigError(f"--sweep values must be at most {MAX_MAGNITUDE:g}, got '{text}'")
    return grid


def _bottle_rows(world, resolved, spec, grid):
    """Rows of each route the world offers and each strategy it offers that the
    arm reaches, at every press force of ``grid`` (default the scenario's)."""
    if grid is None:
        grid = resolved.operation["extra_force_levels"]
    arm, pose = world.cfg["arms"][0], world.bottle_pose
    q_hand = world.reach(arm, world.twist_hand_target(pose))
    confs = {s: q_hand for s in world.strategies if s != "twist-tool"}
    if "twist-tool" in world.strategies:
        confs["twist-tool"] = world.reach(arm, world.tool_twist_target(pose))
    rows = []
    for extra in grid:
        for strategy, q in confs.items():
            if q is None:
                continue
            chain, w = world.twist_chain(strategy, float(extra), arm, q)
            p = success_probability(chain, w, spec, resolved.seed)
            rows.append((float(extra), strategy, 1.0 - p, cost_from_probability(p)))
        for route in world.routes:
            chain, w = world.fixture_chain(route, float(extra))
            p = success_probability(chain, w, spec, resolved.seed)
            rows.append((float(extra), route, 1.0 - p, cost_from_probability(p)))
    return rows


def _nut_rows(world, resolved, spec, grid):
    """Rows of the weight hold and, if the first arm reaches the spot, the carry."""
    if "weight-hold" not in world.routes:
        raise ConfigError("the mass sweep needs the 'weight-hold' route, which is disabled")
    if not world.cfg["weight_spots"]:
        raise ConfigError("'scene.weight_spots' must name a spot for the mass sweep")
    if grid is None:
        grid = np.linspace(0.25, 5.0, 20)
    spot = world.cfg["weight_spots"][0]
    arm = world.cfg["arms"][0]
    q_carry = world.reach(arm, world.weight_place_target(spot))
    rows = []
    for mass in grid:
        chain, w = world.fixture_chain("weight-hold", (float(mass), spot))
        p = success_probability(chain, w, spec, resolved.seed)
        rows.append((float(mass), "weight-hold", 1.0 - p, cost_from_probability(p)))
        if q_carry is None:
            continue
        chain, w = world.carry_chain(
            float(mass), "hand-weight", world.cfg["weight_grasp_height"], arm, q_carry
        )
        p = success_probability(chain, w, spec, resolved.seed)
        rows.append((float(mass), "weight-carry", 1.0 - p, cost_from_probability(p)))
    return rows


def cmd_robustness(args) -> int:
    resolved = _resolved(args)
    if not resolved.scene["arms"]:
        raise ConfigError("'scene.arms' must name an arm for the robustness sweep")
    module = DOMAINS[resolved.domain]
    world = module.build_world(resolved.scene, resolved.operation, resolved.disable)
    spec = replace(resolved.spec, samples=args.samples)
    grid = _parse_sweep(args.sweep) if args.sweep else None
    if module is bottle:
        rows = _bottle_rows(world, resolved, spec, grid)
        sweep_label = "extra press force sweep"
    else:
        rows = _nut_rows(world, resolved, spec, grid)
        sweep_label = "ballast mass sweep"
    methods = []
    for _, method, _, _ in rows:
        if method not in methods:
            methods.append(method)
    print(f"{sweep_label}, {spec.samples} samples per point")
    for method in methods:
        probs = [f"{fail:.3f}" for _, m, fail, _ in rows if m == method]
        print(f"  {method}: failure {' '.join(probs)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sweep_value", "method", "failure_probability", "cost"])
            writer.writerows(rows)
        print(f"curves written to {args.out}")
    return 0


def _check_args(args):
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed}")
    if not 1 <= getattr(args, "samples", 1) <= MAX_MAGNITUDE:
        raise ConfigError(
            f"--samples must be between 1 and {MAX_MAGNITUDE:g}, got {args.samples}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="forceplan",
        description="Plan forceful manipulation with stability-priced actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="plan one stage of a scenario")
    p_solve.add_argument("scenario", help="scenario JSON file")
    p_solve.add_argument("--stage", default="0", help="stage name or index (default first)")
    p_solve.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_solve.add_argument("--out", default=None, help="write the plan as JSON here")
    p_solve.set_defaults(func=cmd_solve)

    p_ablate = sub.add_parser("ablate", help="solve every stage and tabulate plans")
    p_ablate.add_argument("scenario")
    p_ablate.add_argument("--seed", type=int, default=None)
    p_ablate.add_argument("--out", default=None, help="write the stage table as CSV here")
    p_ablate.set_defaults(func=cmd_ablate)

    p_rob = sub.add_parser("robustness", help="sweep a load and report failure curves")
    p_rob.add_argument("scenario")
    p_rob.add_argument("--stage", default="0")
    p_rob.add_argument("--seed", type=int, default=None)
    p_rob.add_argument("--samples", type=int, default=1000)
    p_rob.add_argument("--sweep", default=None, help="grid as lo:hi:count")
    p_rob.add_argument("--out", default=None, help="write the curves as CSV here")
    p_rob.set_defaults(func=cmd_robustness)

    args = parser.parse_args(argv)
    try:
        _check_args(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout at devnull so that
        # the flush at interpreter exit finds nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
