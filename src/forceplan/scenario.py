"""Scenario files: commented JSON describing a scene and its ablation stages.

A scenario is ordinary JSON except that lines whose first non-blank
characters are ``//`` are dropped before parsing.  Every key is checked
against the domain's defaults; a typo anywhere fails loading with the
full dotted path of the offending key, and so does a value of the wrong
type (an integer setting given a fraction, a list element of the wrong
type), of the wrong length (a coordinate pair without exactly two
numbers), repeated (an arm or a stage named twice) or out of range (a negative
force, mass, radius, friction coefficient or noise scale, fewer than one
sample, a slat length that is not positive, a weight spot off the slat,
a start surface other than the table, mat or vise).

Ablation stages apply cumulatively: each stage's ``overrides`` (dotted
paths into scene/operation/perturbation) and ``disable`` entries stack
on top of all earlier stages; an override goes through the same checked
merge as a base section, so its type comes from the domain's default, not
from a value an earlier stage set.  Loading resolves and checks every stage, so a
bad value in any stage fails loading, whichever stage a command uses.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
from dataclasses import dataclass, fields

from . import planner
from .domains import DOMAINS
from .robustness import PerturbationSpec

__all__ = [
    "MAX_MAGNITUDE",
    "ConfigError",
    "Scenario",
    "ResolvedStage",
    "load_scenario",
    "parse_scenario",
    "resolve_stage",
]

_TOP_KEYS = {
    "domain", "seed", "scene", "operation", "perturbation", "budget",
    "disable", "ablation",
}

# No force, mass, length, friction or noise scale of a tabletop task comes
# near this; far larger numbers overflow in the Monte Carlo arithmetic.
MAX_MAGNITUDE = 1e6
_BUDGET_DEFAULTS = {
    name: p.default for name, p in inspect.signature(planner.solve).parameters.items()
    if p.default is not p.empty
}
_PERTURBATION_DEFAULTS = {
    f.name: getattr(PerturbationSpec(), f.name) for f in fields(PerturbationSpec)
}


class ConfigError(ValueError):
    """Scenario file problem; the message names the dotted key path."""


@dataclass(frozen=True)
class Scenario:
    """A scenario file: its domain and each stage, resolved and checked."""

    domain: str
    stages: tuple


@dataclass(frozen=True)
class ResolvedStage:
    """One stage with its own and every earlier stage's entries applied."""

    name: str
    domain: str
    seed: int
    scene: dict
    operation: dict
    spec: PerturbationSpec
    budget: dict
    disable: tuple


def _strip_comments(text: str) -> str:
    lines = [ln for ln in text.splitlines() if not ln.lstrip().startswith("//")]
    return "\n".join(lines)


def _check_keys(given: dict, allowed, path: str):
    for key in given:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}.{key}'" if path else f"unknown key '{key}'")


def _merge_section(defaults: dict, current: dict, given, path: str) -> dict:
    """``current`` with the object ``given`` merged in: the only writer of
    user values, for base sections and stage overrides alike.  Each value is
    checked against the domain's ``defaults``, whose keys and types (list
    element kinds included) ``current`` shares, never against a value an
    earlier stage left."""
    if not isinstance(given, dict):
        raise ConfigError(f"'{path}' must be an object")
    _check_keys(given, defaults, path)
    merged = copy.deepcopy(current)
    for key, value in given.items():
        base = defaults[key]
        if isinstance(base, dict):
            merged[key] = _merge_section(base, merged[key], value, f"{path}.{key}")
        else:
            merged[key] = _checked_value(base, value, f"{path}.{key}")
    return merged


def _checked_value(base, value, path: str):
    if isinstance(base, bool) or isinstance(value, bool):
        if not (isinstance(base, bool) and isinstance(value, bool)):
            raise ConfigError(f"'{path}' must be {type(base).__name__}")
        return value
    if isinstance(base, (int, float)):
        if isinstance(base, int) and not isinstance(value, int):
            raise ConfigError(f"'{path}' must be an integer")
        if not isinstance(value, (int, float)):
            raise ConfigError(f"'{path}' must be a number")
        # Python's json reads NaN and Infinity.
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"'{path}' must be a finite number")
        if abs(value) > MAX_MAGNITUDE:
            raise ConfigError(
                f"'{path}' must be at most {MAX_MAGNITUDE:g} in magnitude"
            )
        return value
    if isinstance(base, str):
        if not isinstance(value, str):
            raise ConfigError(f"'{path}' must be a string")
        return value
    if isinstance(base, list):
        if not isinstance(value, list):
            raise ConfigError(f"'{path}' must be a list")
        for i, item in enumerate(value):
            _checked_value(base[0], item, f"{path}[{i}]")
        return copy.deepcopy(value)
    raise ConfigError(f"'{path}' has unsupported type")


def _nonnegative(path: str) -> bool:
    section, _, key = path.partition(".")
    return (
        section == "perturbation"
        or key.startswith(("friction.", "weights."))
        or any(w in key for w in ("force", "mass", "radius", "height", "width", "half_extents"))
        or key in ("spanner_handle_length", "tool_tip_below_pads")
    )


def _pair(path: str) -> bool:
    """Coordinate pairs: ``*_xy``, ``*_half_extents`` and each arm base."""
    return any(
        part.endswith(("_xy", "_half_extents", "arm_bases"))
        for part in path.split(".")[1:]
    )


def _check_leaves(node: dict, path: str):
    for key, value in node.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            _check_leaves(value, sub)
        elif _pair(sub) and len(value) != 2:
            raise ConfigError(f"'{sub}' must hold exactly 2 numbers, got {len(value)}")
        elif _nonnegative(sub):
            values = value if isinstance(value, list) else [value]
            if any(v < 0 for v in values):
                raise ConfigError(f"'{sub}' must be nonnegative")


def _check_sections(sections: dict):
    """Cross-key, length and range checks of merged scene/operation/perturbation."""
    _check_leaves(sections, "")
    if sections["perturbation"]["samples"] < 1:
        raise ConfigError("'perturbation.samples' must be at least 1")
    if sections["operation"].get("extra_force_levels") == []:
        raise ConfigError("'operation.extra_force_levels' must name a press level")
    scene = sections["scene"]
    if scene.get("start_surface", "table") not in ("table", "mat", "vise"):
        raise ConfigError("'scene.start_surface' must be one of table, mat, vise")
    if scene.get("beam_length", 1.0) <= 0:
        raise ConfigError("'scene.beam_length' must be positive")
    arms = scene.get("arms", [])
    for i, arm in enumerate(arms):
        if arm not in scene["arm_bases"]:
            raise ConfigError(f"'scene.arms' names unknown arm '{arm}'")
        if arm in arms[:i]:
            raise ConfigError(f"'scene.arms' names arm '{arm}' twice")
    for i, spot in enumerate(scene.get("weight_spots", [])):
        if abs(spot) > scene["beam_length"] / 2.0:
            raise ConfigError(
                f"'scene.weight_spots[{i}]' = {spot} is off the slat "
                f"(beam_length {scene['beam_length']})"
            )


def _check_disable(names, module, path: str) -> tuple:
    if not isinstance(names, list):
        raise ConfigError(f"'{path}' must be a list")
    known = set(module.STRATEGIES) | set(module.ROUTES)
    for name in names:
        if name not in known:
            raise ConfigError(f"'{path}' names unknown strategy or route '{name}'")
    return tuple(names)


def _check_stage(raw, module, index: int, names) -> tuple:
    """One stage entry as ``(name, overrides, disable)``; ``names`` precede it."""
    if not isinstance(raw, dict):
        raise ConfigError(f"'ablation.stages[{index}]' must be an object")
    _check_keys(raw, {"name", "overrides", "disable"}, f"ablation.stages[{index}]")
    if "name" not in raw or not isinstance(raw["name"], str):
        raise ConfigError(f"'ablation.stages[{index}].name' is required")
    if raw["name"] in names:
        raise ConfigError(f"'ablation.stages[{index}].name' repeats '{raw['name']}'")
    overrides = raw.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError(f"'ablation.stages[{index}].overrides' must be an object")
    for key in overrides:
        root = key.split(".", 1)[0]
        if root not in ("scene", "operation", "perturbation"):
            raise ConfigError(
                f"'ablation.stages[{index}].overrides' path '{key}' must start with "
                "scene., operation., or perturbation."
            )
    disable = _check_disable(
        raw.get("disable", []), module, f"ablation.stages[{index}].disable"
    )
    return raw["name"], overrides, disable


def parse_scenario(text: str) -> Scenario:
    try:
        raw = json.loads(_strip_comments(text))
    except json.JSONDecodeError as err:
        raise ConfigError(f"not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "")
    domain = raw.get("domain")
    if domain not in DOMAINS:
        raise ConfigError(
            f"'domain' must be one of {sorted(DOMAINS)}, got {domain!r}"
        )
    module = DOMAINS[domain]
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("'seed' must be a nonnegative integer")
    section_defaults = {
        "scene": module.SCENE_DEFAULTS,
        "operation": module.OPERATION_DEFAULTS,
        "perturbation": _PERTURBATION_DEFAULTS,
    }
    sections = {
        key: _merge_section(defaults, defaults, raw.get(key, {}), key)
        for key, defaults in section_defaults.items()
    }
    budget = _merge_section(_BUDGET_DEFAULTS, _BUDGET_DEFAULTS, raw.get("budget", {}), "budget")
    if budget["max_levels"] < 0:
        raise ConfigError("'budget.max_levels' must be nonnegative")
    if budget["max_expansions"] < 1:
        raise ConfigError("'budget.max_expansions' must be at least 1")
    disable = list(_check_disable(raw.get("disable", []), module, "disable"))
    _check_sections(sections)
    stages_raw = raw.get("ablation", {})
    if not isinstance(stages_raw, dict):
        raise ConfigError("'ablation' must be an object")
    _check_keys(stages_raw, {"stages"}, "ablation")
    stage_entries = stages_raw.get("stages", [])
    if not isinstance(stage_entries, list):
        raise ConfigError("'ablation.stages' must be a list")
    entries = []
    for i, entry in enumerate(stage_entries):
        entries.append(_check_stage(entry, module, i, [e[0] for e in entries]))
    stages = []
    for name, overrides, stage_disable in entries or [("full", {}, ())]:
        sections = copy.deepcopy(sections)
        for dotted, value in overrides.items():
            root, *keys = dotted.split(".")
            for key in reversed(keys):
                value = {key: value}
            sections[root] = _merge_section(section_defaults[root], sections[root], value, root)
        disable += [d for d in dict.fromkeys(stage_disable) if d not in disable]
        _check_sections(sections)
        stages.append(ResolvedStage(
            name, domain, seed, sections["scene"], sections["operation"],
            PerturbationSpec(**sections["perturbation"]), dict(budget), tuple(disable),
        ))
    return Scenario(domain, tuple(stages))


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path} is not UTF-8 text: {err}") from err
    return parse_scenario(text)


def resolve_stage(scenario: Scenario, stage: str | int) -> ResolvedStage:
    """The stage named ``stage`` (``--stage`` text), else the one at that index."""
    names = [s.name for s in scenario.stages]
    if stage in names:
        return scenario.stages[names.index(stage)]
    try:
        index = int(stage)
    except ValueError:
        raise ConfigError(f"no stage named '{stage}' (stages: {names})")
    if not 0 <= index < len(names):
        raise ConfigError(f"stage index {index} out of range (stages: {names})")
    return scenario.stages[index]
