"""Scenario parsing, validation, and staged override resolution."""

from __future__ import annotations

import json
import re

import pytest

from forceplan.domains import DOMAINS
from forceplan.scenario import (
    _BUDGET_DEFAULTS,
    _PERTURBATION_DEFAULTS,
    ConfigError,
    parse_scenario,
    resolve_stage,
)


def parse(text: str):
    return parse_scenario(text)


class TestParsing:
    def test_minimal_scenario_fills_defaults(self):
        sc = parse('{"domain": "bottle-cap"}')
        assert sc.domain == "bottle-cap"
        assert sc.stages[0].seed == 0
        assert sc.stages[0].scene["bottle_xy"] == [0.0, 0.18]
        assert sc.stages[0].scene["friction"]["hand-cap"] == 0.8
        assert sc.stages[0].operation["push_force"] == 15.0
        assert sc.stages[0].budget == {"max_levels": 8, "max_expansions": 200_000}
        assert [s.name for s in sc.stages] == ["full"]

    def test_comment_lines_are_stripped(self):
        sc = parse('// top note\n{\n// inner note\n"domain": "nut-fastening"\n}\n')
        assert sc.domain == "nut-fastening"
        assert sc.stages[0].scene["beam_length"] == 0.5

    def test_overrides_merge_into_nested_sections(self):
        sc = parse(
            '{"domain": "bottle-cap", "seed": 3,'
            ' "scene": {"grip_force": 25.0, "friction": {"hand-cap": 0.5}},'
            ' "perturbation": {"samples": 40}}'
        )
        assert sc.stages[0].seed == 3
        assert sc.stages[0].scene["grip_force"] == 25.0
        assert sc.stages[0].scene["friction"]["hand-cap"] == 0.5
        assert sc.stages[0].scene["friction"]["bottle-mat"] == 0.8
        assert sc.stages[0].spec.samples == 40

    def test_unknown_domain_rejected(self):
        with pytest.raises(ConfigError, match="domain"):
            parse('{"domain": "laundry"}')

    def test_unknown_keys_name_the_dotted_path(self):
        with pytest.raises(ConfigError, match="scene.grip_forcee"):
            parse('{"domain": "bottle-cap", "scene": {"grip_forcee": 1}}')
        with pytest.raises(ConfigError, match="scene.friction.hand-glass"):
            parse('{"domain": "bottle-cap", "scene": {"friction": {"hand-glass": 1}}}')
        with pytest.raises(ConfigError, match="unknown key 'wite'"):
            parse('{"domain": "bottle-cap", "wite": 1}')

    def test_type_mismatches_rejected(self):
        with pytest.raises(ConfigError, match="scene.mat"):
            parse('{"domain": "bottle-cap", "scene": {"mat": 3}}')
        with pytest.raises(ConfigError, match="scene.start_surface"):
            parse('{"domain": "bottle-cap", "scene": {"start_surface": 4}}')
        with pytest.raises(ConfigError, match="seed"):
            parse('{"domain": "bottle-cap", "seed": -1}')

    def test_unknown_arm_and_strategy_names_rejected(self):
        with pytest.raises(ConfigError, match="arm9"):
            parse('{"domain": "bottle-cap", "scene": {"arms": ["arm9"]}}')
        with pytest.raises(ConfigError, match="jam-lid"):
            parse('{"domain": "bottle-cap", "disable": ["jam-lid"]}')

    def test_routes_are_valid_disable_targets(self):
        sc = parse('{"domain": "bottle-cap", "disable": ["vise-hold", "twist-tool"]}')
        assert sc.stages[0].disable == ("vise-hold", "twist-tool")


class TestStages:
    A1 = (
        '{"domain": "bottle-cap",'
        ' "ablation": {"stages": ['
        '   {"name": "a"},'
        '   {"name": "b", "overrides": {"scene.friction.bottle-table": 0.08}},'
        '   {"name": "c", "overrides": {"scene.arms": ["arm0"]},'
        '    "disable": ["palm-press"]}'
        ']}}'
    )

    def test_overrides_apply_cumulatively(self):
        sc = parse(self.A1)
        r0 = resolve_stage(sc, 0)
        r1 = resolve_stage(sc, 1)
        r2 = resolve_stage(sc, 2)
        assert r0.scene["friction"]["bottle-table"] == 0.55
        assert r1.scene["friction"]["bottle-table"] == 0.08
        assert r1.scene["arms"] == ["arm0", "arm1"]
        assert r2.scene["friction"]["bottle-table"] == 0.08
        assert r2.scene["arms"] == ["arm0"]
        assert r2.disable == ("palm-press",)
        assert r2.name == "c"

    def test_resolved_stage_builds_perturbation_spec(self):
        sc = parse('{"domain": "nut-fastening", "perturbation": {"mu_rel": 0.2}}')
        resolved = resolve_stage(sc, 0)
        assert resolved.spec.mu_rel == 0.2
        assert resolved.spec.samples == 100

    def test_stage_index_out_of_range(self):
        sc = parse(self.A1)
        with pytest.raises(ConfigError, match="out of range"):
            resolve_stage(sc, 5)

    def test_stage_is_picked_by_name_or_index_text(self):
        sc = parse(self.A1)
        assert resolve_stage(sc, "b") is sc.stages[1]
        assert resolve_stage(sc, "2") is sc.stages[2]
        with pytest.raises(ConfigError, match="no stage named 'nope'"):
            resolve_stage(sc, "nope")

    def test_object_override_merges_into_the_object(self):
        sc = parse(
            '{"domain": "bottle-cap", "ablation": {"stages": [{"name": "a",'
            ' "overrides": {"scene.friction": {"bottle-table": 0.12}}}]}}'
        )
        default = parse('{"domain": "bottle-cap"}').stages[0].scene["friction"]
        assert sc.stages[0].scene["friction"] == {**default, "bottle-table": 0.12}

    def test_bad_override_paths_rejected(self):
        with pytest.raises(ConfigError, match="budget.max_levels"):
            parse(
                '{"domain": "bottle-cap", "ablation": {"stages": ['
                '{"name": "x", "overrides": {"budget.max_levels": 2}}]}}'
            )
        with pytest.raises(ConfigError, match="scene.friction.nope"):
            parse(
                '{"domain": "bottle-cap", "ablation": {"stages": ['
                '{"name": "x", "overrides": {"scene.friction.nope": 2}}]}}'
            )

    def test_stage_needs_a_name(self):
        with pytest.raises(ConfigError, match="name"):
            parse('{"domain": "bottle-cap", "ablation": {"stages": [{}]}}')

    def test_repeated_stage_name_rejected(self):
        with pytest.raises(ConfigError, match=re.escape("'ablation.stages[1].name' repeats 'a'")):
            parse(
                '{"domain": "bottle-cap",'
                ' "ablation": {"stages": [{"name": "a"}, {"name": "a"}]}}'
            )


def _nested(dotted, value):
    for key in reversed(dotted.split(".")):
        value = {key: value}
    return value


def _paths(node, path):
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, f"{path}.{key}")


class TestValues:
    @pytest.mark.parametrize(
        "domain, dotted, value, reported",
        [
            ("bottle-cap", "scene.grip_force", -1, "scene.grip_force"),
            ("bottle-cap", "perturbation.samples", 0, "perturbation.samples"),
            ("bottle-cap", "perturbation.samples", 2.5, "perturbation.samples"),
            ("nut-fastening", "perturbation.mu_rel", -0.1, "perturbation.mu_rel"),
            ("bottle-cap", "scene.friction.bottle-table", -0.3, "scene.friction.bottle-table"),
            ("nut-fastening", "scene.weights.w2", -2.0, "scene.weights.w2"),
            ("nut-fastening", "scene.weight_spots", [0.4], "scene.weight_spots[0]"),
            (
                "bottle-cap", "operation.extra_force_levels", ["a"],
                "operation.extra_force_levels[0]",
            ),
            ("bottle-cap", "budget.max_levels", 1.5, "budget.max_levels"),
            ("bottle-cap", "scene.bottle_xy", [0.0], "scene.bottle_xy"),
            ("bottle-cap", "scene.hand_pad_half_extents", [0.03, 0.02, 0.01],
             "scene.hand_pad_half_extents"),
            ("bottle-cap", "scene.arm_bases.arm1", [], "scene.arm_bases.arm1"),
            ("nut-fastening", "scene.weight_xy.w2", [-0.1], "scene.weight_xy.w2"),
            ("bottle-cap", "scene.arms", ["arm0", "arm0"], "scene.arms"),
            ("nut-fastening", "scene.arms", ["arm1", "arm0", "arm1"], "scene.arms"),
            ("nut-fastening", "perturbation.mu_rel", float("nan"), "perturbation.mu_rel"),
            (
                "nut-fastening", "perturbation.frame_translation", float("inf"),
                "perturbation.frame_translation",
            ),
            ("bottle-cap", "operation.torque", float("-inf"), "operation.torque"),
            ("bottle-cap", "scene.bottle_xy", [0.0, float("nan")], "scene.bottle_xy[1]"),
            (
                "bottle-cap", "operation.extra_force_levels", [0.0, float("inf")],
                "operation.extra_force_levels[1]",
            ),
            (
                "bottle-cap", "operation.extra_force_levels", [],
                "operation.extra_force_levels",
            ),
            ("bottle-cap", "budget.max_levels", -1, "budget.max_levels"),
            ("nut-fastening", "budget.max_expansions", -5, "budget.max_expansions"),
            ("nut-fastening", "scene.beam_length", 0.0, "scene.beam_length"),
            ("nut-fastening", "scene.beam_length", -1.0, "scene.beam_length"),
            ("bottle-cap", "scene.start_surface", "tabel", "scene.start_surface"),
            ("bottle-cap", "perturbation.wrench_rel", 1e308, "perturbation.wrench_rel"),
            ("bottle-cap", "scene.bottle_mass", 1e308, "scene.bottle_mass"),
            ("bottle-cap", "perturbation.frame_rotation", 1e308, "perturbation.frame_rotation"),
            ("nut-fastening", "perturbation.patch_rel", 1e300, "perturbation.patch_rel"),
            ("bottle-cap", "operation.torque", -2e6, "operation.torque"),
            (
                "bottle-cap", "operation.extra_force_levels", [0.0, 10**7],
                "operation.extra_force_levels[1]",
            ),
            ("nut-fastening", "scene.weight_spots", [0.0, -0.26], "scene.weight_spots[1]"),
            ("bottle-cap", "scene.cap_top_height", -0.5, "scene.cap_top_height"),
            ("bottle-cap", "scene.grasp_height", -0.1, "scene.grasp_height"),
            ("bottle-cap", "scene.tool_grasp_height", -0.05, "scene.tool_grasp_height"),
            ("bottle-cap", "scene.tool_tip_below_pads", -0.06, "scene.tool_tip_below_pads"),
            (
                "bottle-cap", "scene.tool_pad_half_extents", [0.03, -0.02],
                "scene.tool_pad_half_extents",
            ),
            ("nut-fastening", "scene.nut_top_height", -0.3, "scene.nut_top_height"),
            ("nut-fastening", "scene.beam_height", -0.02, "scene.beam_height"),
            ("nut-fastening", "scene.beam_width", -0.06, "scene.beam_width"),
            (
                "nut-fastening", "scene.spanner_handle_length", -0.15,
                "scene.spanner_handle_length",
            ),
            ("nut-fastening", "scene.spanner_grasp_height", -0.02, "scene.spanner_grasp_height"),
            ("nut-fastening", "scene.weight_grasp_height", -0.04, "scene.weight_grasp_height"),
            (
                "nut-fastening", "scene.hand_pad_half_extents", [-0.03, 0.02],
                "scene.hand_pad_half_extents",
            ),
            ("bottle-cap", "perturbation.samples", 10**7, "perturbation.samples"),
            ("nut-fastening", "budget.max_expansions", 10**7, "budget.max_expansions"),
        ],
    )
    def test_bad_values_name_the_dotted_path(self, domain, dotted, value, reported):
        # Each value fails in the base sections and, where stages may
        # override it, as a later stage's override.
        texts = [json.dumps({"domain": domain, **_nested(dotted, value)})]
        if not dotted.startswith("budget."):
            stages = [{"name": "a"}, {"name": "b", "overrides": {dotted: value}}]
            texts.append(json.dumps({"domain": domain, "ablation": {"stages": stages}}))
        for text in texts:
            with pytest.raises(ConfigError, match=re.escape(f"'{reported}'")):
                parse(text)

    @pytest.mark.parametrize("stages", [5, None, "ab"])
    def test_stages_must_be_a_list(self, stages):
        text = json.dumps({"domain": "bottle-cap", "ablation": {"stages": stages}})
        with pytest.raises(ConfigError, match=re.escape("'ablation.stages' must be a list")):
            parse(text)

    def test_any_value_at_any_path_loads_or_names_the_path(self):
        # Every section root, nested object and leaf of the defaults, fed
        # each kind of JSON value, in the base sections and as an override.
        values = [5, 2.5, "x", [1], ["a"], {}, {"k": 1}, None, True]
        cases = []
        for domain, module in DOMAINS.items():
            for root, defaults in (
                ("scene", module.SCENE_DEFAULTS),
                ("operation", module.OPERATION_DEFAULTS),
                ("perturbation", _PERTURBATION_DEFAULTS),
                ("budget", _BUDGET_DEFAULTS),
            ):
                for dotted, node in _paths(defaults, root):
                    for value in values:
                        cases.append((domain, dotted, _nested(dotted, value)))
                        if root != "budget":
                            stages = [{"name": "a", "overrides": {dotted: value}}]
                            cases.append((domain, dotted, {"ablation": {"stages": stages}}))
                            if isinstance(node, list):
                                # An empty base list leaves no element to check
                                # the override against but the default's.
                                cases.append((domain, dotted, {
                                    **_nested(dotted, []), "ablation": {"stages": stages},
                                }))
        for domain, dotted, body in cases:
            try:
                parse(json.dumps({"domain": domain, **body}))
            except ConfigError as err:
                assert f"'{dotted}" in str(err), body

    def test_override_element_kind_comes_from_the_default(self):
        # The base empties the list; the override's elements are still
        # checked against the default's numbers.
        text = json.dumps({
            "domain": "nut-fastening", "scene": {"weight_spots": []},
            "ablation": {"stages": [
                {"name": "a", "overrides": {"scene.weight_spots": ["x"]}},
            ]},
        })
        with pytest.raises(ConfigError, match=re.escape("'scene.weight_spots[0]' must be a number")):
            parse(text)

    def test_override_type_comes_from_the_default(self):
        # An integer in the base does not make the number setting an integer one.
        text = json.dumps({
            "domain": "bottle-cap", "scene": {"bottle_mass": 1},
            "ablation": {"stages": [{"name": "a", "overrides": {"scene.bottle_mass": 0.5}}]},
        })
        assert resolve_stage(parse(text), "a").scene["bottle_mass"] == 0.5

    def test_spot_at_the_slat_end_is_allowed(self):
        sc = parse('{"domain": "nut-fastening", "scene": {"weight_spots": [-0.25, 0.25]}}')
        assert resolve_stage(sc, 0).scene["weight_spots"] == [-0.25, 0.25]
