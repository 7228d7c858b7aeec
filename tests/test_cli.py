import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sandlab
from sandlab import analysis
from sandlab.cli import main
from sandlab.pile import parse_literal


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_gk_815_json(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--rule", "gk", "--init", "8,1,5")
        assert code == 0
        doc = json.loads(out)
        assert doc["rule"] == {
            "kind": "gk",
            "neighborhood": [-1, 1],
            "distribution": [1, 1],
            "theta": 2,
        }
        assert doc["transient_time"] == 6
        assert doc["equilibrium"] is True
        assert [s["total"] for s in doc["steps"]] == [14] * 7
        assert doc["steps"][-1]["values"] == [4, 4, 3, 2, 1]

    def test_fp_six_table_matches_the_printed_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--rule", "fp", "--init", "6", "--format", "table"
        )
        assert code == 0
        assert out.splitlines() == [
            "t=0  0,0,0|6,0,0,0",
            "t=1  0,0,1|4,1,0,0",
            "t=2  0,0,2|2,2,0,0",
            "t=3  0,1,1|2,1,1,0",
            "t=4  0,1,2|0,2,1,0",
            "t=5  0,2,0|2,0,2,0",
            "t=6  1,0,2|0,2,0,1",
            "t=7  1,1,0|2,0,1,1",
            "t=8  1,1,1|0,1,1,1",
            "equilibrium at t=8",
        ]

    def test_zero_initial_state(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--rule", "gk", "--init", "0")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["steps"]) == 1
        assert doc["transient_time"] == 0

    def test_step_cap_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--rule", "gk", "--init", "6", "--max-steps", "1"
        )
        assert code == 3
        assert json.loads(out)["step_cap_reached"] is True

    def test_height_rule_accepts_signed_literals(self, capsys):
        # values starting with '-' use the --flag=value spelling
        code, out, _ = run_cli(capsys, "run", "--rule", "height", "--init=-6|6")
        assert code == 0
        doc = json.loads(out)
        assert doc["steps"][-1]["values"] == [-3, 1, 1, 1]

    def test_bad_literal_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "run", "--rule", "gk", "--init", "1|")
        assert code == 1
        assert "origin marker" in err

    def test_bad_flag_combination_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--rule", "gk", "--init", "6", "--neighborhood=-2,2"
        )
        assert code == 1
        assert "neighborhood" in err

    def test_unknown_rule_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--rule", "bogus", "--init", "6"])
        assert exc.value.code == 1

    def test_custom_fp_rule_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--rule", "fp",
            "--init", "9",
            "--neighborhood=-2,-1,1,2",
            "--distribution", "1,2,2,1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rule"]["theta"] == 6
        assert doc["rule"]["neighborhood"] == [-2, -1, 1, 2]


GOLDEN = Path(__file__).parent / "golden"


class TestRunJsonGolden:
    """``run`` JSON pinned byte for byte, so its schema and layout cannot drift."""

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("run-gk-815.json", ["--rule", "gk", "--init", "8,1,5"]),
            ("run-fp-6.json", ["--rule", "fp", "--init", "6"]),
            (
                "run-fp-9-radius2.json",
                ["--rule", "fp", "--init", "9", "--neighborhood=-2,-1,1,2",
                 "--distribution", "1,2,2,1"],
            ),
        ],
        ids=["gk-8,1,5", "fp-6", "fp-9-radius2"],
    )
    def test_stdout_bytes(self, capsys, golden, argv):
        code, out, _ = run_cli(capsys, "run", *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / golden).read_bytes()


class TestDigraphCommand:
    def test_5421_dot_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "digraph", "--init", "5,4,2,1", "--rules", "vr_d"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "digraph transitions {"
        assert lines[-1] == "}"
        node_lines = [l for l in lines if re.match(r'^  "[0-9,|]+"( \[peripheries=2\])?;$', l)]
        assert len(node_lines) == 10
        edge_lines = [l for l in lines if "->" in l]
        assert len(edge_lines) == 12
        assert all(re.search(r'\[label="VRd@-?\d+"\];$', l) for l in edge_lines)
        assert '  "4,3,2,2,1" [peripheries=2];' in lines

    def test_three_granule_diamond(self, capsys):
        code, out, _ = run_cli(
            capsys, "digraph", "--init", "3", "--rules", "vr_d,vr_s"
        )
        assert code == 0
        assert '"3"' in out and '"1|1,1" [peripheries=2];' in out

    def test_zero_initial_state(self, capsys):
        code, out, _ = run_cli(capsys, "digraph", "--init", "0", "--out", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["nodes"] == ["0"]
        assert doc["equilibria"] == ["0"]

    def test_node_cap_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "digraph", "--init", "5,4,2,1", "--rules", "vr_d",
            "--node-cap", "3", "--out", "json",
        )
        assert code == 4
        doc = json.loads(out)
        assert doc["node_cap_reached"] is True
        assert len(doc["nodes"]) == 3

    def test_json_round_trips_through_the_literal_grammar(self, capsys):
        code, out, _ = run_cli(
            capsys, "digraph", "--init", "3", "--rules", "vr_d,vr_s", "--out", "json"
        )
        assert code == 0
        doc = json.loads(out)
        parsed = [parse_literal(n) for n in doc["nodes"]]
        assert len(set(parsed)) == len(parsed) == 4

    def test_unknown_move_token_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "digraph", "--init", "3", "--rules", "vr_x")
        assert code == 1
        assert "vr_x" in err

    def test_quotient_translations_merges_equilibria(self, capsys):
        args = ["digraph", "--init", "3", "--rules", "vr_d,vr_s,hr_d,hr_s", "--out", "json"]
        _, full_out, _ = run_cli(capsys, *args)
        _, quotient_out, _ = run_cli(capsys, *args, "--quotient-translations")
        assert len(json.loads(full_out)["equilibria"]) == 3
        assert len(json.loads(quotient_out)["equilibria"]) == 1

    def test_bt_floor_freezes_low_plateaus(self, capsys):
        args = ["digraph", "--init", "0,2|1,1,0", "--rules", "bt_d,bt_s", "--out", "json"]
        _, floor1, _ = run_cli(capsys, *args)
        _, floor2, _ = run_cli(capsys, *args, "--bt-floor", "2")
        assert len(json.loads(floor1)["nodes"]) > 1
        assert json.loads(floor2)["nodes"] == ["2|1,1"]


class TestDecomposeCommand:
    def test_necessity_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "decompose", "--source", "0,1|2,1,0", "--target", "0,2|0,2,0",
            "--necessity",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "VR: unreachable"
        assert lines[1] == "VR+HR: unreachable"
        assert lines[2].startswith("VR+HR+BT: reachable")
        assert "minimal family: VR+HR+BT" in out

    def test_necessity_honours_the_convention_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "decompose", "--source", "1", "--target", "0,1",
            "--no-hr-convention", "--necessity",
        )
        assert code == 0
        assert out.splitlines() == [
            "VR: unreachable",
            "VR+HR: reachable (shortest length 1)",
            "VR+HR+BT: reachable (shortest length 1)",
            "minimal family: VR+HR",
        ]

    def test_necessity_rejects_rules(self, capsys):
        code, out, err = run_cli(
            capsys,
            "decompose", "--source", "3", "--target", "1|1,1",
            "--rules", "vr_d", "--necessity",
        )
        assert code == 1
        assert out == ""
        assert "--rules" in err

    def test_reachable_paths(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "decompose", "--source", "3", "--target", "1|1,1",
            "--rules", "vr_d,vr_s",
        )
        assert code == 0
        assert out.count("path:") == 2

    def test_not_reachable_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "decompose", "--source", "0,1|2,1,0", "--target", "0,2|0,2,0",
            "--rules", "vr_d,vr_s",
        )
        assert code == 2
        assert "NOT REACHABLE" in out

    def test_budget_exceeded_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--source", "2", "--target", "1|0,1"
        )
        assert code == 5
        assert "INCONCLUSIVE" in out

    def test_trivial_empty_path(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--source", "0", "--target", "0")
        assert code == 0
        assert "(empty)" in out


class TestVerifyCommand:
    def test_partitions_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "partitions")
        assert code == 0
        assert "PASS ordered-counts" in out
        assert "FAIL" not in out

    def test_nn_suite_reports_the_pair_rule_split(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "nn", "--n-max", "300")
        assert code == 0
        assert "PASS pair-rule-y1" in out
        assert "PASS pair-rule-y2" in out
        assert "PASS pair-rule-y3" in out
        assert "PASS pair-rule-y4" in out

    def test_conservation_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "conservation", "--n-max", "300"
        )
        assert code == 0
        assert "PASS gk-conservation" in out
        assert "PASS const-g1-violation" in out

    def test_env_seed_overrides_the_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("SANDLAB_SEED", "42")
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "commutation", "--n-max", "50", "--seed", "7"
        )
        assert code == 0
        assert "seed=42" in out

    def test_failing_suite_exits_six(self, capsys, monkeypatch):
        def broken(seed=0, cases=0):
            return [analysis.CheckResult("broken", False, "synthetic failure")]

        monkeypatch.setitem(analysis.VERIFY_SUITES, "commutation", broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "commutation")
        assert code == 6
        assert "FAIL broken" in out

    def test_output_is_deterministic(self, capsys):
        first = run_cli(capsys, "verify", "--suite", "commutation", "--n-max", "50")
        second = run_cli(capsys, "verify", "--suite", "commutation", "--n-max", "50")
        assert first == second


class TestConsoleEntry:
    def test_module_invocation(self):
        # the child imports the same sandlab as this process, installed or not
        paths = [str(Path(sandlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run(
            [sys.executable, "-m", "sandlab", "run", "--rule", "gk", "--init", "3"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["equilibrium"] is True
