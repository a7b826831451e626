"""Command line behavior: exit codes, files written, determinism."""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from forceplan.cli import main
from forceplan.domains import bottle, nut
from forceplan.planner import Value

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


# sha256 of every shipped stage's plan file at its scenario seed.
PLAN_PINS = {
    ("bottle_default", "full"): "aef7b1f93958426610edec2061959eb6bb163caaa9776b23611cfea7e7e9e442",
    ("bottle_a1", "baseline"): "4a771c824127e23cad9caa2eb843ced0eb467c43997c57838854a2e7f655f9be",
    ("bottle_a1", "slippery-table"): "9634db3b123abf47b1c3d35631f747f4758f5e9aab786938215930f9793e087b",
    ("bottle_a1", "one-arm"): "51caf7216554074cb1a8aab7228c2882b408044c8b64fb4406d52f3d32e4bb16",
    ("bottle_a1", "no-mat"): "397c4e5e67f24984176651dd840f8e8205b7f76413e87fa685c8f18e76b2a7e0",
    ("bottle_a2", "all-hands"): "96cbcf83b21e1ce8692c0f1afdae0628ef45e099d7494aba5b00ab1b5fa89015",
    ("bottle_a2", "no-wrap"): "91b50274cd34a4fd604ef5fce6e68aa1f6fb2c5e8ee9874342cd86f3379e5334",
    ("bottle_a2", "fingertips-only"): "ef517c5b08a8ca26fbeee5d747a0849df56ebb4aebe481d9dbc85996c1f06e2e",
    ("bottle_a2", "tool-only"): "669ab4657b858a62b2ac002b815c24e1d1fc457520a566adb901d99989bf25f4",
    ("nut_default", "two-arms"): "36489878de21e45ddb38b6d2c184e226d8b1aa31885bd5649c04f14c3b28ccf5",
    ("nut_default", "one-arm"): "c969701ebc677722c8bc4586bba5ce8de474c63375cd2f58f653631b794fe78c",
    ("nut_stiff", "full"): "3250c10cecbde69cf27d8f31701447c08384d7b8979821a1bef2c633948b2285",
    ("bottle_robust", "robust"): "affd98a64d48a5ff523f5eeebe663b3625e4a2edefc65b82d5c42563a7289cee",
    ("bottle_robust", "nominal"): "f572f3ad79935f363f6158ccb991b9d538306f9ac7f0efc85cf7e0614427001a",
    ("nut_robust", "robust"): "7aca0f481b4f884a0a369125fa234f863ccedd4ac10f49d422c57dc0c1d750e4",
    ("nut_robust", "nominal"): "783e2d2a80c38215620af54de2dbfd8f672116793ee0e4bbc6f9518b390c54a2",
}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSolve:
    def test_plan_file_is_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "p1.json"
        out2 = tmp_path / "p2.json"
        scenario = str(SCENARIOS / "nut_stiff.json")
        assert main(["solve", scenario, "--out", str(out1)]) == 0
        assert main(["solve", scenario, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["domain"] == "nut-fastening"
        assert payload["strategy"] == "spanner-twist"
        assert payload["route"] == "arm-hold"
        assert payload["plan"]["solved"] is True
        assert len(payload["plan"]["steps"]) == 6
        assert payload["plan"]["seed"] == 0
        # The plan alone, its values named by first appearance in its steps.
        assert set(payload["plan"]) == {"solved", "cost", "steps", "seed"}
        names = [a["value"] for step in payload["plan"]["steps"] for a in step["args"]
                 if "value" in a]
        assert list(dict.fromkeys(names)) == [f"v{i}" for i in range(len(set(names)))]
        text = capsys.readouterr().out
        assert "spanner-twist" in text

    @pytest.mark.parametrize(
        "scenario, stage", list(PLAN_PINS), ids=[f"{sc}-{st}" for sc, st in PLAN_PINS]
    )
    def test_shipped_plan_files_are_pinned(self, tmp_path, capsys, scenario, stage):
        # Plan files are user-visible output: a change to these bytes is a
        # change of behaviour, not a refactoring.
        out = tmp_path / "plan.json"
        argv = ["solve", str(SCENARIOS / f"{scenario}.json"), "--stage", stage]
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PLAN_PINS[scenario, stage]

    def test_plan_file_does_not_depend_on_value_creation_order(self, tmp_path, monkeypatch):
        # A value the plan never uses, made before the solve and known to the
        # planner through a static fact, changes no plan byte.
        build = bottle.build_problem

        def build_problem(world, *args, **kwargs):
            problem = build(world, *args, **kwargs)
            problem.statics.insert(0, ("Spare", Value("pose", world.bottle_pose)))
            return problem

        monkeypatch.setattr(bottle, "build_problem", build_problem)
        out = tmp_path / "plan.json"
        assert main(["solve", str(SCENARIOS / "bottle_default.json"), "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == PLAN_PINS["bottle_default", "full"]

    def test_stage_can_be_selected_by_name(self, capsys):
        scenario = str(SCENARIOS / "nut_default.json")
        assert main(["solve", scenario, "--stage", "one-arm"]) == 0
        assert "weight-hold" in capsys.readouterr().out

    def test_no_plan_exits_2_and_writes_nothing(self, tmp_path, capsys):
        scenario = tmp_path / "impossible.json"
        scenario.write_text(
            '// no fixture can resist the twist here\n'
            '{"domain": "bottle-cap", "scene": {"arms": ["arm0"],'
            ' "mat": false, "vise": false, "tool": false,'
            ' "friction": {"bottle-table": 0.08}},'
            ' "budget": {"max_levels": 4}}'
        )
        out = tmp_path / "plan.json"
        assert main(["solve", str(scenario), "--out", str(out)]) == 2
        assert not out.exists()
        assert "no plan" in capsys.readouterr().out

    def test_no_plan_names_only_what_can_ground(self, tmp_path, capsys):
        # No weight is stated, so neither placing a weight nor reaching a
        # weight spot can ground, and the diagnostic names neither.
        scenario = tmp_path / "one-arm.json"
        scenario.write_text(
            '{"domain": "nut-fastening", "disable": ["weight-hold"],'
            ' "scene": {"arms": ["arm0"]}}'
        )
        assert main(["solve", str(scenario)]) == 2
        assert capsys.readouterr().out.splitlines()[1] == (
            "  goal (NutLoosened) is added only by 2 actions priced infinite,"
            " first twist-nut--finger-twist--rest-hold(arm0, q)"
        )

    def test_no_plan_names_a_precondition_no_action_adds(self, tmp_path, capsys):
        # One arm with no fixture and no friction route offers no twist, so
        # nothing loosens the cap that removing it needs.
        scenario = tmp_path / "one-arm.json"
        scenario.write_text(
            '{"domain": "bottle-cap", "disable": ["table-friction", "mat-friction",'
            ' "vise-hold"], "scene": {"arms": ["arm0"]}}'
        )
        assert main(["solve", str(scenario)]) == 2
        assert capsys.readouterr().out.splitlines()[1] == (
            "  remove-cap: no action adds (CapLoose)"
        )

    def test_plan_that_fails_revalidation_exits_2(self, tmp_path, capsys, monkeypatch):
        # Each call prices a little higher, so no action re-prices to the
        # cost the search paid for it.
        calls = itertools.count(1)
        monkeypatch.setattr(nut, "chain_cost", lambda *args: 1e-3 * next(calls))
        out = tmp_path / "plan.json"
        assert main(["solve", str(SCENARIOS / "nut_stiff.json"), "--out", str(out)]) == 2
        assert not out.exists()
        assert "plan fails re-validation: step" in capsys.readouterr().out

    def test_negative_budget_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"domain": "bottle-cap", "budget": {"max_levels": -1}}')
        assert main(["solve", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "'budget.max_levels' must be nonnegative" in err
        assert "Traceback" not in err

    def test_config_errors_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"domain": "bottle-cap", "scene": {"grippers": 3}}')
        assert main(["solve", str(bad)]) == 1
        assert "scene.grippers" in capsys.readouterr().err
        assert main(["solve", str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize(
        "scene, reported",
        [('{"bottle_xy": [0.0]}', "scene.bottle_xy"), ('{"arms": ["arm0", "arm0"]}', "scene.arms")],
    )
    def test_short_pair_and_repeated_arm_exit_1(self, tmp_path, capsys, scene, reported):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"domain": "bottle-cap", "scene": {scene}}}')
        assert main(["solve", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"'{reported}'" in err
        assert "Traceback" not in err

    def test_non_object_section_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"domain": "bottle-cap", "scene": 5}')
        assert main(["solve", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "'scene' must be an object" in err
        assert "Traceback" not in err

    def test_non_finite_value_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"domain": "nut-fastening", "perturbation": {"mu_rel": NaN}}')
        assert main(["solve", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "'perturbation.mu_rel' must be a finite number" in err
        assert "Traceback" not in err

    def test_overflowing_value_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"domain": "bottle-cap", "perturbation": {"wrench_rel": 1e308}}')
        assert main(["solve", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "'perturbation.wrench_rel' must be at most 1e+06 in magnitude" in err
        assert "Traceback" not in err

    def test_bad_stage_value_exits_1_before_any_solve(self, tmp_path, capsys):
        bad = tmp_path / "bad_stage.json"
        bad.write_text(
            '{"domain": "nut-fastening", "ablation": {"stages": [{"name": "two-arms"},'
            ' {"name": "one-arm", "overrides": {"scene.weight_spots": [0.4]}}]}}'
        )
        assert main(["ablate", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "scene.weight_spots[0]" in captured.err
        assert "Traceback" not in captured.err
        assert "two-arms" not in captured.out

    @pytest.mark.parametrize(
        "stage_b, reported",
        [
            (
                '{"name": "b", "overrides": {"scene.frictoin.bottle-table": 0.1}}',
                "unknown key 'scene.frictoin'",
            ),
            (
                '{"name": "b", "overrides": {"scene.bottle_mass": -1.0}}',
                "'scene.bottle_mass' must be nonnegative",
            ),
            ('{"name": "a"}', "'ablation.stages[1].name' repeats 'a'"),
        ],
        ids=["typo-path", "negative-mass", "repeated-name"],
    )
    def test_bad_later_stage_fails_a_solve_of_stage_a(self, tmp_path, capsys, stage_b, reported):
        bad = tmp_path / "bad_stage.json"
        bad.write_text(
            f'{{"domain": "bottle-cap", "ablation": {{"stages": [{{"name": "a"}}, {stage_b}]}}}}'
        )
        assert main(["solve", str(bad), "--stage", "a"]) == 1
        err = capsys.readouterr().err
        assert reported in err
        assert "Traceback" not in err


class TestArguments:
    @pytest.mark.parametrize(
        "argv, reported",
        [
            (["solve", "nut_stiff.json", "--seed", "-1"], "--seed"),
            (["ablate", "nut_stiff.json", "--seed", "-1"], "--seed"),
            (["robustness", "nut_default.json", "--seed", "-1"], "--seed"),
            (["robustness", "nut_default.json", "--samples", "0"], "--samples"),
            (["robustness", "nut_default.json", "--samples", "-5"], "--samples"),
            (["robustness", "nut_default.json", "--sweep", "nan:1:2"], "--sweep"),
            (["robustness", "nut_default.json", "--sweep=-1:1:3"], "--sweep"),
            (["robustness", "bottle_default.json", "--sweep=-100:0:3"], "--sweep"),
            (["robustness", "nut_default.json", "--sweep", "0:1e300:2"], "at most 1e+06"),
            (["robustness", "bottle_default.json", "--sweep", "0:2e6:3"], "at most 1e+06"),
            (["robustness", "nut_default.json", "--samples", "1000001"], "--samples"),
        ],
    )
    def test_bad_arguments_exit_1(self, capsys, argv, reported):
        argv = [argv[0], str(SCENARIOS / argv[1]), *argv[2:]]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert reported in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, reported",
        [
            (["solve", "{dir}"], "Is a directory"),
            (["solve", "{stiff}", "--out", "{dir}"], "Is a directory"),
            (["ablate", "{stiff}", "--out", "{dir}"], "Is a directory"),
            (["solve", "{latin1}"], "is not UTF-8 text"),
        ],
        ids=["solve-directory", "solve-out-directory", "ablate-out-directory",
             "not-utf-8"],
    )
    def test_file_errors_exit_1(self, tmp_path, capsys, argv, reported):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"domain": "nut-fastening"} // caf\xe9'.encode("latin-1"))
        paths = {"dir": tmp_path, "stiff": SCENARIOS / "nut_stiff.json", "latin1": latin1}
        assert main([a.format(**paths) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert reported in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_pipe_exits_1_quietly(self, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(ROOT / "src")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [
                    sys.executable, "-m", "forceplan.cli", "robustness",
                    str(SCENARIOS / "nut_default.json"),
                    "--samples", "1", "--sweep", "0:1:2",
                ],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == b""


class TestAblate:
    def test_stage_table_matches_scenario_design(self, tmp_path, capsys):
        out1 = tmp_path / "t1.csv"
        out2 = tmp_path / "t2.csv"
        scenario = str(SCENARIOS / "nut_default.json")
        assert main(["ablate", scenario, "--out", str(out1)]) == 0
        assert main(["ablate", scenario, "--out", str(out2)]) == 0
        rows1, rows2 = read_csv(out1), read_csv(out2)
        assert [r["stage"] for r in rows1] == ["two-arms", "one-arm"]
        assert [int(r["steps"]) for r in rows1] == [4, 6]
        assert [r["route"] for r in rows1] == ["arm-hold", "weight-hold"]
        assert all(r["solved"] == "1" for r in rows1)
        for r1, r2 in zip(rows1, rows2):
            for key in r1:
                if key != "wall_time_s":
                    assert r1[key] == r2[key]


class TestRobustness:
    def test_bottle_failure_curves_have_the_right_shape(self, tmp_path):
        out = tmp_path / "rob.csv"
        scenario = str(SCENARIOS / "bottle_default.json")
        assert main(["robustness", scenario, "--samples", "200", "--out", str(out)]) == 0
        rows = read_csv(out)
        curves = {}
        for row in rows:
            curves.setdefault(row["method"], []).append(
                float(row["failure_probability"])
            )
        assert all(f <= 0.05 for f in curves["wrap-grip"])
        assert all(f == 1.0 for f in curves["fingertip-press"])
        assert all(f == 0.0 for f in curves["arm-hold"])
        assert all(f == 0.0 for f in curves["vise-hold"])
        for method in ("palm-press", "twist-tool", "table-friction", "mat-friction"):
            fails = curves[method]
            assert all(b <= a for a, b in zip(fails, fails[1:])), method
        for mat, table in zip(curves["mat-friction"], curves["table-friction"]):
            assert mat <= table

    def test_nut_mass_sweep_curves(self, tmp_path):
        out = tmp_path / "rob.csv"
        scenario = str(SCENARIOS / "nut_default.json")
        assert main([
            "robustness", scenario, "--samples", "200",
            "--sweep", "0.25:5:10", "--out", str(out),
        ]) == 0
        rows = read_csv(out)
        hold = [float(r["failure_probability"]) for r in rows if r["method"] == "weight-hold"]
        carry = [float(r["failure_probability"]) for r in rows if r["method"] == "weight-carry"]
        assert len(hold) == 10 and len(carry) == 10
        assert all(b <= a for a, b in zip(hold, hold[1:]))
        assert all(b >= a for a, b in zip(carry, carry[1:]))
        assert hold[0] > 0.5 and hold[-1] == 0.0
        assert carry[0] == 0.0 and carry[-1] == 1.0

    @pytest.mark.parametrize(
        "scenario, digest",
        [
            ("bottle_default.json", "03316bbdb55800ed92e05cfee763c937d8139babc0d41fcc0568f6eaddc81312"),
            ("nut_default.json", "594fa155906ba7ee70fcefd5fd78c7a5d2a3fcd62d69ec65a4f82db01ebf1be7"),
        ],
    )
    def test_curves_file_is_pinned(self, tmp_path, capsys, scenario, digest):
        # At the default 1,000 samples every estimate is user-visible output:
        # a change to these bytes is a change of behaviour.
        out = tmp_path / "rob.csv"
        assert main(["robustness", str(SCENARIOS / scenario), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "domain, entries, code, shown",
        [
            ("bottle-cap", '"scene": {"arms": []}', 1, "'scene.arms'"),
            ("nut-fastening", '"scene": {"arms": []}', 1, "'scene.arms'"),
            ("nut-fastening", '"scene": {"weight_spots": []}', 1, "'scene.weight_spots'"),
            ("nut-fastening", '"disable": ["weight-hold"]', 1, "'weight-hold'"),
            (
                "bottle-cap", '"scene": {"bottle_xy": [3.0, 3.0]}', 0,
                ["table-friction", "mat-friction", "arm-hold", "vise-hold"],
            ),
            ("nut-fastening", '"scene": {"beam_center_xy": [3.0, 3.0]}', 0, ["weight-hold"]),
            (
                "bottle-cap",
                '"disable": ["table-friction", "mat-friction", "arm-hold", "vise-hold"],'
                ' "scene": {"bottle_xy": [3.0, 3.0]}',
                1, "nothing to sweep",
            ),
        ],
        ids=["bottle-no-arms", "nut-no-arms", "nut-no-spots", "nut-no-weight-hold",
             "bottle-unreachable", "nut-unreachable", "bottle-nothing-to-sweep"],
    )
    def test_scenes_without_a_usable_arm_or_spot(
        self, tmp_path, capsys, domain, entries, code, shown
    ):
        # A method whose hand target the arm cannot reach is left out; no
        # arm at all, no weight spot to sweep, a disabled weight hold, or
        # no method left at all is a scenario error.
        bad = tmp_path / "scene.json"
        bad.write_text(f'{{"domain": "{domain}", {entries}}}')
        out = tmp_path / "rob.csv"
        argv = ["robustness", str(bad), "--samples", "10", "--out", str(out)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert shown in err
            assert not out.exists()
        else:
            methods = list(dict.fromkeys(r["method"] for r in read_csv(out)))
            assert methods == shown

    def test_bad_sweep_spec_exits_1(self, capsys):
        scenario = str(SCENARIOS / "nut_default.json")
        # A count numpy cannot allocate is refused before any grid is built,
        # and so is one too long to finish in useful time.
        for spec in ("zebra", "0:1:1000000000000", "0:1:10001"):
            assert main(["robustness", scenario, "--sweep", spec]) == 1
            err = capsys.readouterr().err
            assert "sweep" in err and "Traceback" not in err
        assert "--sweep count must be at most 10000" in err
