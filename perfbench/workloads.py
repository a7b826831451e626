"""The three workloads and the checks on their outputs.

Each workload is one ``forceplan`` command run through ``cli.main``, the
product entry point.  Its outputs are split into units, one per planned
stage or per robustness sweep point; a unit fails when any check on it
fails, and ``failed`` in the result counts failed units.

Why these three (see README.md for the measurements behind them):

* ``solve-bottle`` has the widest grounding of the shipped scenarios
  (16 twist schemas x 5 force levels x 2 arms) and spends about 99% of
  its solve pricing chains, many of them repeatedly: a chain cache, lazy
  search, batched Monte Carlo and a faster Jacobian all show here.
* ``solve-nut-stiff`` covers the second domain: a high nut torque
  forces the socket spanner, so the plan picks and carries it while the
  other arm pins the slat.  IK streams and the slat's polygon friction
  cones (NNLS) take a visible share of this solve.  It stands in for
  ``ablate nut_default``, whose ``one-arm`` stage returns a 2-step
  rest-hold plan instead of the README's 6-step weight-hold plan on
  about one seed in seven (README.md, "Why not ...").
* ``robustness-bottle`` plans nothing and prices every chain exactly
  once, over the same chain kinds as ``solve-bottle``: batched Monte
  Carlo shows, a cost cache or search change must read no change.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    suffix: str
    # stage -> (steps, strategy, route): strategy and route as README.md
    # and the scenario comments state them; steps as the README table
    # gives them, or for nut_stiff, whose row gives no count, the six
    # steps that do what its scenario comment describes (move both arms,
    # pick the spanner, carry it, pin the slat, twist).  Empty for the
    # robustness sweep.
    expect: dict = field(default_factory=dict)
    points: int = 0

    def argv(self, root, seed, out_path):
        scenario = str(root / self.args[1])
        return [self.args[0], scenario, *self.args[2:], "--seed", str(seed), "--out", str(out_path)]

    @property
    def units_per_op(self):
        return self.points or len(self.expect)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-bottle",
            ("solve", "scenarios/bottle_default.json"),
            ".json",
            {"full": (4, "wrap-grip", "table-friction")},
        ),
        Workload(
            "solve-nut-stiff",
            ("solve", "scenarios/nut_stiff.json"),
            ".json",
            {"full": (6, "spanner-twist", "arm-hold")},
        ),
        Workload(
            "robustness-bottle",
            ("robustness", "scenarios/bottle_default.json", "--samples", "1000"),
            ".csv",
            points=40,  # 8 strategies and routes x 5 press-force levels
        ),
    )
}

# Robustness points per run that are recomputed by the scalar oracle.
ORACLE_POINTS = 2


@dataclass
class Unit:
    name: str
    text: str
    failures: list = field(default_factory=list)

    @property
    def digest(self):
        return hashlib.sha256(self.text.encode()).hexdigest()


def oracle_success_probability(chain, w, spec, seed):
    """The scalar estimator: one ``perturbed_case`` + ``chain_stable`` per sample."""
    from forceplan.robustness import perturbed_case
    from forceplan.stability import chain_stable

    ok = 0
    for i in range(spec.samples):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        c2, w2 = perturbed_case(chain, w, spec, rng)
        if chain_stable(c2, w2).stable:
            ok += 1
    return ok / spec.samples


def _plan_text(result, seed):
    from forceplan.planner import plan_to_dict

    return json.dumps(plan_to_dict(result, seed=seed), indent=2, sort_keys=True)


def _check_shape(unit, workload, stage, steps, strategy, route):
    want = workload.expect.get(stage)
    got = (steps, strategy, route)
    if want is None:
        unit.failures.append(f"unexpected stage {stage!r}")
    elif got != want:
        unit.failures.append(f"stage {stage!r}: got {got}, README gives {want}")


def stage_units(workload, out_text, solves, verdicts, seed):
    """Units of a ``solve`` command: its one stage.

    ``out_text`` is None when ``solve`` found no plan and wrote no file;
    that stage is then a failed unit.
    """
    if out_text is None:
        (stage,) = workload.expect
        unit = Unit(stage, _plan_text(solves[0][1], seed))
    else:
        payload = json.loads(out_text)
        unit = Unit(payload["stage"], out_text)
        _check_shape(
            unit, workload, payload["stage"], len(payload["plan"]["steps"]),
            payload["strategy"], payload["route"],
        )
    (_, result), (ok, message) = solves[0], verdicts[0]
    if not result.solved:
        unit.failures.append("no plan")
    elif not ok:
        unit.failures.append(f"validate_plan: {message}")
    return [unit]


def sweep_units(workload, out_text, calls, seed):
    """Units of a ``robustness`` command, one per CSV row (sweep point)."""
    from forceplan.robustness import cost_from_probability

    rows = list(csv.reader(io.StringIO(out_text)))[1:]
    if len(rows) != workload.points or len(calls) != workload.points:
        raise RuntimeError(
            f"{len(rows)} rows and {len(calls)} estimates, expected {workload.points}"
        )
    units = []
    for row, (_, _, p) in zip(rows, calls):
        unit = Unit(f"{row[1]}@{row[0]}", ",".join(row))
        expected = [str(1.0 - p), str(cost_from_probability(p))]
        if row[2:] != expected:
            unit.failures.append(f"row {row} does not match its estimate p={p!r}")
        units.append(unit)
    # Points where some samples fail and some hold tell a changed estimator
    # apart; points priced 0 or 1 rarely do.
    mixed = [i for i, (_, _, p) in enumerate(calls) if 0.0 < p < 1.0] or list(range(len(calls)))
    for i in random.Random(seed).sample(mixed, min(ORACLE_POINTS, len(mixed))):
        args, kwargs, p = calls[i]
        chain, w, spec, est_seed = args
        again = oracle_success_probability(chain, w, spec, est_seed)
        if again != p:
            units[i].failures.append(f"scalar oracle gives {again!r}, estimate {p!r}")
    return units


class DigestStore:
    """Digests of every unit, per workload, seed and source fingerprint.

    Outputs must be byte-identical across all repeats of one seed, in this
    run and in earlier runs of the same code (traced or not).
    """

    def __init__(self, path, key):
        self.path = path
        self.key = key
        try:
            self.data = json.loads(path.read_text())
        except FileNotFoundError:
            self.data = {}

    def check(self, units):
        seen = self.data.setdefault(self.key, {})
        for unit in units:
            prior = seen.setdefault(unit.name, unit.digest)
            if prior != unit.digest:
                unit.failures.append("output differs from an earlier repeat of this seed")

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        tmp.replace(self.path)
