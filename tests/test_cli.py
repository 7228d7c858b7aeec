import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sandlab
from sandlab import analysis, cli, rules
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

    @pytest.mark.parametrize("fail_at", [0, 3, 8])
    def test_no_silent_half_document(self, capsys, monkeypatch, fail_at):
        # a bad cap is rejected before anything is written
        code, out, err = run_cli(capsys, "run", "--rule", "fp", "--init", "6", "--max-steps", "-1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        # a step that fails mid-orbit leaves a document that does not parse
        real_step, calls = rules.step, []

        def failing_step(state, rule):
            if len(calls) == fail_at:
                raise ValueError("synthetic step failure")
            calls.append(state)
            return real_step(state, rule)

        _, whole, _ = run_cli(capsys, "run", "--rule", "fp", "--init", "6")
        monkeypatch.setattr(rules, "step", failing_step)
        code, out, err = run_cli(capsys, "run", "--rule", "fp", "--init", "6")
        assert code != 0
        assert "error: synthetic step failure" in err
        with pytest.raises(ValueError):
            json.loads(out)
        # the header and each step record were written as they were made: the steps before
        # the failing one, whole, and nothing after them
        header = whole[: whole.index('"steps": ') + len('"steps": ')]
        cut = whole.index(',\n    {\n      "t": %d,' % fail_at) if fail_at else len(header)
        assert out == whole[:cut]
        assert out.count('"t": ') == fail_at
        # the table's rows share one window, so the orbit fails before the first row is written
        calls.clear()
        code, out, err = run_cli(capsys, "run", "--rule", "fp", "--init", "6", "--format", "table")
        assert (code, out) == (1, "")
        assert "error: synthetic step failure" in err

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

    @pytest.mark.parametrize(
        "rule, flag, message",
        [
            ("gk", "--neighborhood=1,2", "rule kind 'gk' is fixed to"),
            ("height", "--distribution=2,2", "rule kind 'height' is fixed to"),
            ("sm1", "--neighborhood=-2,2", "rule kind 'sm1' is fixed to"),
            ("const-g1", "--distribution=1,2", "const-g1 uses the constant unit distribution"),
        ],
    )
    def test_a_value_the_kind_fixes_otherwise_exits_one(self, capsys, rule, flag, message):
        code, out, err = run_cli(capsys, "run", "--rule", rule, "--init", "6", flag)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "rule, init, flag",
        [
            ("gk", "8,1,5", "--neighborhood=1,-1"),
            ("height", "-6|6", "--distribution=1,1"),
            ("sm1", "2,1", "--neighborhood=-1,1"),
            ("const-g1", "2", "--distribution=1,1"),
        ],
    )
    def test_the_fixed_value_itself_gives_the_default_bytes(self, capsys, rule, init, flag):
        args = ["run", "--rule", rule, f"--init={init}", "--max-steps", "5"]
        code, out, err = run_cli(capsys, *args, flag)
        assert err == "" and out
        assert (code, out, err) == run_cli(capsys, *args)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--neighborhood="],
            ["--neighborhood=-1,,1"],
            ["--neighborhood=-1, ,1"],
            ["--neighborhood=-2,-1,1,2", "--distribution=1,,2,2,1"],
            ["--distribution="],
        ],
        ids=["empty-hood", "empty-hood-token", "blank-hood-token", "empty-payout-token",
             "empty-distribution"],
    )
    def test_an_empty_list_entry_is_rejected(self, capsys, flags):
        # each of these once ran with a default or a dropped token and exited 0
        code, out, err = run_cli(capsys, "run", "--rule", "fp", "--init", "5", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert flags[-1].split("=")[0] in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--init", "1_0"], "expected an integer, got '1_0' (byte 0)"),
            (["--init", "٣"], "expected an integer, got '٣' (byte 0)"),
            (["--init", "4", "--neighborhood=1_0,２"], "got '1_0,２'"),
            (["--init", "4", "--neighborhood=-1,1", "--distribution=1,١"], "got '1,١'"),
        ],
        ids=["underscore-init", "arabic-indic-init", "coerced-hood", "coerced-payout"],
    )
    def test_a_numeric_token_int_would_coerce_is_rejected(self, capsys, flags, message):
        # int() reads 1_0 as 10 and ٣ as 3; each of these once ran from the coerced value
        code, out, err = run_cli(capsys, "run", "--rule", "fp", *flags)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err

    def test_signed_list_flags_take_the_form_their_help_shows(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "-h"])
        text = " ".join(capsys.readouterr().out.split())
        assert "e.g. --neighborhood=-1,1" in text and "e.g. --distribution=-2,3" in text
        code, out, _ = run_cli(
            capsys, "run", "--rule", "gen1g", "--init", "2", "--neighborhood=-1,1",
            "--distribution=-2,3", "--max-steps", "1",
        )
        assert code in (0, 3)
        assert json.loads(out)["rule"]["distribution"] == [-2, 3]
        # the space-separated form is read as an option, which is why the help shows '='
        with pytest.raises(SystemExit) as exc:
            main(["run", "--rule", "fp", "--init", "2", "--neighborhood", "-1,1"])
        assert exc.value.code == 1
        assert "expected one argument" in capsys.readouterr().err

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
        "golden, argv, exit_code",
        [
            ("run-gk-815.json", ["--rule", "gk", "--init", "8,1,5"], 0),
            ("run-fp-6.json", ["--rule", "fp", "--init", "6"], 0),
            (
                "run-fp-9-radius2.json",
                ["--rule", "fp", "--init", "9", "--neighborhood=-2,-1,1,2",
                 "--distribution", "1,2,2,1"],
                0,
            ),
            ("run-gk-zero.json", ["--rule", "gk", "--init", "0"], 0),
            ("run-gk-6-step-cap.json", ["--rule", "gk", "--init", "6", "--max-steps", "1"], 3),
            (
                "run-gen1g-2-negative.json",
                ["--rule", "gen1g", "--init", "2", "--neighborhood=-3,3", "--max-steps", "5"],
                3,
            ),
            ("run-height-6.json", ["--rule", "height", "--init=-6|6"], 0),
        ],
        ids=["gk-8,1,5", "fp-6", "fp-9-radius2", "zero", "step-cap", "negative", "height"],
    )
    def test_stdout_bytes(self, capsys, golden, argv, exit_code):
        code, out, _ = run_cli(capsys, "run", *argv)
        assert code == exit_code
        assert out.encode() == (GOLDEN / golden).read_bytes()


class TestDigraphJsonGolden:
    """``digraph --out json`` pinned byte for byte, and one ``--out dot`` document."""

    @pytest.mark.parametrize(
        "golden, argv, exit_code",
        [
            ("digraph-5421-vrd.json", ["--init", "5,4,2,1", "--rules", "vr_d", "--out", "json"], 0),
            (
                "digraph-3-vr-hr-quotient.json",
                ["--init", "3", "--rules", "vr_d,vr_s,hr_d,hr_s", "--quotient-translations",
                 "--out", "json"],
                0,
            ),
            ("digraph-6-node-cap-1.json", ["--init", "6", "--node-cap", "1", "--out", "json"], 4),
            ("digraph-5421-vrd.dot", ["--init", "5,4,2,1", "--rules", "vr_d", "--out", "dot"], 0),
        ],
        ids=["5421-vrd", "3-quotient", "node-cap-1", "5421-vrd-dot"],
    )
    def test_stdout_bytes(self, capsys, golden, argv, exit_code):
        code, out, _ = run_cli(capsys, "digraph", *argv)
        assert code == exit_code
        assert out.encode() == (GOLDEN / golden).read_bytes()


def test_decompose_output_is_pinned(capsys):
    # the first four of 3,700,146 geodesics, in move order, from 171 states stored in the Φ round
    argv = ["--source", "10", "--target", "2,2,2,2,2", "--max-paths", "4"]
    code, out, _ = run_cli(capsys, "decompose", *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / "decompose-10-22222.txt").read_bytes()


class TestJsonBlock:
    @pytest.mark.parametrize("brackets", ["[]", "{}"])
    @pytest.mark.parametrize(
        "members",
        [{}, {"3": 0}, {"1|1,1": 0, "0,2|1": 1, "4,3,2,2,1": 12}],
        ids=["empty", "one", "three"],
    )
    def test_a_block_is_laid_out_as_json_dumps(self, members, brackets):
        # as digraph's nodes array and levels object: one '"literal"' or '"literal": level' per item
        if brackets == "[]":
            value, items = list(members), ['"%s"' % key for key in members]
        else:
            value, items = members, ['"%s": %d' % member for member in members.items()]
        block = "".join(cli._json_block(items, brackets))
        assert '{\n  "field": ' + block + "\n}" == json.dumps({"field": value}, indent=2)


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

    def test_depth_cap_exit_code(self, capsys):
        # the vr_d digraph of 5,4,2,1 is 6 levels deep; a cap of 2 leaves moves unexplored
        args = ["digraph", "--init", "5,4,2,1", "--rules", "vr_d", "--out", "json"]
        code, out, _ = run_cli(capsys, *args, "--depth-cap", "2")
        assert code == 4
        doc = json.loads(out)
        assert doc["node_cap_reached"] is True
        assert max(doc["levels"].values()) == 2
        _, full, _ = run_cli(capsys, *args)
        assert run_cli(capsys, *args, "--depth-cap", "6") == (0, full, "")

    def test_negative_depth_cap_is_rejected(self, capsys):
        code, out, err = run_cli(capsys, "digraph", "--init", "3", "--depth-cap", "-1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "depth_cap" in err

    def test_summary_strict_without_the_convention_is_rejected(self, capsys):
        # the strict flag once did nothing here: same bytes, same exit 4, with or without it
        code, out, err = run_cli(
            capsys,
            "digraph", "--init", "2,1", "--node-cap", "300", "--out", "json",
            "--no-hr-convention", "--hr-summary-strict",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "hr_summary_strict" in err

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

    @pytest.mark.parametrize("rules_flag", ["--rules=", "--rules=vr_d,,vr_s"])
    def test_an_empty_rules_entry_is_rejected(self, capsys, rules_flag):
        # "--rules=" once explored all six moves, as if the flag were absent
        code, out, err = run_cli(capsys, "digraph", "--init", "3", rules_flag, "--node-cap", "50")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "--rules" in err

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

    def test_necessity_rows_above_the_minimal_family_are_reachable(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "decompose", "--source", "6,1", "--target", "3,2,2", "--necessity", "--node-cap", "9",
        )
        assert code == 0
        assert out.splitlines() == [
            "VR: reachable (shortest length 5)",
            "VR+HR: reachable (shortest length 5)",
            "VR+HR+BT: reachable (contains VR; budget exceeded before its shortest length)",
            "minimal family: VR",
        ]

    def test_necessity_of_a_different_total_is_a_plain_unreachable(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--source", "10", "--target", "9", "--necessity"
        )
        assert code == 2
        assert out.splitlines() == [
            "VR: unreachable",
            "VR+HR: unreachable",
            "VR+HR+BT: unreachable",
            "minimal family: none",
        ]

    def test_necessity_certifies_a_target_without_predecessors(self, capsys):
        # bottom-up jumps make the forward space infinite; 1|0,1 has no predecessor at all
        code, out, _ = run_cli(
            capsys, "decompose", "--source", "2", "--target", "1|0,1", "--necessity"
        )
        assert code == 2
        assert "inconclusive" not in out

    def test_necessity_rejects_rules(self, capsys):
        code, out, err = run_cli(
            capsys,
            "decompose", "--source", "3", "--target", "1|1,1",
            "--rules", "vr_d", "--necessity",
        )
        assert code == 1
        assert out == ""
        assert "--rules" in err

    def test_necessity_rejects_max_paths(self, capsys):
        code, out, err = run_cli(
            capsys,
            "decompose", "--source", "3", "--target", "1|1,1",
            "--max-paths", "3", "--necessity",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "--max-paths" in err

    def test_default_prints_sixteen_paths(self, capsys):
        # 10 -> 4,3,2,1 under vr_d has 34 geodesics
        code, out, _ = run_cli(
            capsys, "decompose", "--source", "10", "--target", "4,3,2,1", "--rules", "vr_d"
        )
        assert code == 0
        assert out.count("path:") == 16

    def test_a_cut_path_list_says_how_many_geodesics_exist(self, capsys):
        args = ["decompose", "--source", "10", "--target", "4,3,2,1", "--rules", "vr_d"]
        _, out, _ = run_cli(capsys, *args)
        assert out.splitlines()[-1] == "(16 of 34 shortest paths shown)"
        _, out, _ = run_cli(capsys, *args, "--max-paths", "33")
        assert out.splitlines()[-1] == "(33 of 34 shortest paths shown)"
        for complete in ("34", "40"):
            _, out, _ = run_cli(capsys, *args, "--max-paths", complete)
            assert out.count("path:") == 34
            assert "shown" not in out
        _, out, _ = run_cli(capsys, *args, "--max-paths", "0")
        assert out.splitlines() == ["REACHABLE in 10 moves (19 states explored)"]

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

    def test_a_different_total_is_not_reachable_without_a_search(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--source", "10", "--target", "9", "--node-cap", "10000"
        )
        assert code == 2
        assert out == "NOT REACHABLE (totals differ: 10 vs 9)\n"

    def test_an_exhausted_backward_closure_is_not_reachable(self, capsys):
        # the forward space is unbounded under bottom-up jumps; 1|0,1 has no predecessor
        code, out, _ = run_cli(
            capsys, "decompose", "--source", "2", "--target", "1|0,1"
        )
        assert code == 2
        assert out == "NOT REACHABLE (4 states exhausted)\n"

    def test_budget_exceeded_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--source", "3", "--target", "1|1,1", "--depth-cap", "1"
        )
        assert code == 5
        assert "INCONCLUSIVE" in out

    def test_depth_cap_on_equilibria_is_conclusive(self, capsys):
        # both states within the cap are explored and 1,1 has no move
        code, out, _ = run_cli(
            capsys,
            "decompose", "--source", "2", "--target", "0,2",
            "--rules", "vr_d", "--depth-cap", "1",
        )
        assert code == 2
        assert out == "NOT REACHABLE (3 states exhausted)\n"

    def test_negative_max_paths_is_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "decompose", "--source", "3", "--target", "1|1,1", "--max-paths", "-1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "max_paths" in err

    @pytest.mark.parametrize("necessity", [(), ("--necessity",)], ids=["plain", "necessity"])
    def test_negative_depth_cap_is_rejected(self, capsys, necessity):
        code, out, err = run_cli(
            capsys,
            "decompose", "--source", "3", "--target", "1|1,1", "--depth-cap", "-1", *necessity,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "depth_cap" in err

    @pytest.mark.parametrize("necessity", [(), ("--necessity",)], ids=["plain", "necessity"])
    def test_summary_strict_without_the_convention_is_rejected(self, capsys, necessity):
        code, out, err = run_cli(
            capsys,
            "decompose", "--source", "3", "--target", "2,1",
            "--no-hr-convention", "--hr-summary-strict", *necessity,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "hr_summary_strict" in err

    @pytest.mark.parametrize("necessity", [(), ("--necessity",)], ids=["plain", "necessity"])
    def test_a_tight_node_cap_is_inconclusive(self, capsys, necessity):
        # 3 -> 2,1 is one VRd move; both ends are stored first, so a cap of one state
        # stops the search before its first level
        args = ["decompose", "--source", "3", "--target", "2,1", *necessity]
        assert run_cli(capsys, *args)[0] == 0
        code, out, _ = run_cli(capsys, *args, "--node-cap", "1")
        assert code == 5
        if necessity:
            assert "VR: unreachable (budget exceeded, inconclusive)" in out
        else:
            assert out == "INCONCLUSIVE: budget exceeded after 2 states\n"

    @pytest.mark.parametrize("necessity", [(), ("--necessity",)], ids=["plain", "necessity"])
    def test_a_node_cap_below_one_is_rejected(self, capsys, necessity):
        code, out, err = run_cli(
            capsys,
            "decompose", "--source", "3", "--target", "2,1", "--node-cap", "0", *necessity,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "node_cap" in err

    def test_help_states_the_default_caps(self, capsys):
        with pytest.raises(SystemExit):
            main(["decompose", "-h"])
        text = " ".join(capsys.readouterr().out.split())
        assert "default max(2n², 8), n the source total" in text
        assert "default 10⁶" in text

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

    def test_shapes_stdout_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "shapes")
        assert code == 0
        assert out.encode() == (GOLDEN / "verify-shapes.txt").read_bytes()

    @pytest.mark.parametrize("suite", ["shapes", "partitions"])
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_an_exhaustive_suite_notes_an_ignored_seed(self, capsys, monkeypatch, suite, via):
        code, out, err = run_cli(capsys, "verify", "--suite", suite)
        assert err == ""
        if via == "env":
            monkeypatch.setenv("SANDLAB_SEED", "5")
            seeded = run_cli(capsys, "verify", "--suite", suite)
        else:
            seeded = run_cli(capsys, "verify", "--suite", suite, "--seed", "5")
        # stdout differs only in the echoed seed, and the exit code not at all
        assert seeded == (
            code,
            out.replace(f"suite={suite} seed=0\n", f"suite={suite} seed=5\n", 1),
            f"note: suite {suite} is exhaustive and ignores the seed\n",
        )
        if suite == "shapes":
            assert out.encode() == (GOLDEN / "verify-shapes.txt").read_bytes()

    @pytest.mark.parametrize("seed", [[], ["--seed", "3"]], ids=["default", "given"])
    def test_a_sampled_suite_takes_the_seed_without_a_note(self, capsys, seed):
        code, out, err = run_cli(capsys, "verify", "--suite", "commutation", "--n-max", "5", *seed)
        assert (code, err) == (0, "")
        assert out.startswith(f"suite=commutation seed={seed[1] if seed else 0}\n")

    def test_conservation_stdout_bytes(self, capsys):
        # pins the move-application count: a kernel that drops or repeats an image fails
        code, out, _ = run_cli(capsys, "verify", "--suite", "conservation", "--seed", "0")
        assert code == 0
        assert out.encode() == (GOLDEN / "verify-conservation.txt").read_bytes()

    def test_env_seed_overrides_the_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("SANDLAB_SEED", "42")
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "commutation", "--n-max", "50", "--seed", "7"
        )
        assert code == 0
        assert "seed=42" in out

    @pytest.mark.parametrize("value", ["1_0", "٣", "７", " "])
    def test_an_env_seed_int_would_coerce_is_rejected(self, capsys, monkeypatch, value):
        # int() read SANDLAB_SEED=1_0 as seed 10 and ran the suite from it
        monkeypatch.setenv("SANDLAB_SEED", value)
        code, out, err = run_cli(capsys, "verify", "--suite", "commutation", "--n-max", "5")
        assert (code, out) == (1, "")
        assert err == f"error: SANDLAB_SEED must be an integer, got {value!r}\n"

    def test_an_env_seed_with_a_sign_and_spaces_is_read(self, capsys, monkeypatch):
        monkeypatch.setenv("SANDLAB_SEED", " +42 ")
        code, out, _ = run_cli(capsys, "verify", "--suite", "commutation", "--n-max", "5")
        assert code == 0
        assert out.startswith("suite=commutation seed=42\n")

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_a_negative_seed_is_rejected(self, capsys, monkeypatch, via):
        # random.Random(-1) draws the cases of random.Random(1), under a header saying seed=-1
        if via == "env":
            monkeypatch.setenv("SANDLAB_SEED", "-1")
            code, out, err = run_cli(capsys, "verify", "--suite", "nn", "--n-max", "5")
            assert err == "error: SANDLAB_SEED must be non-negative, got -1\n"
        else:
            code, out, err = run_cli(capsys, "verify", "--suite", "nn", "--n-max", "5", "--seed=-1")
            assert err == "error: --seed must be non-negative, got -1\n"
        assert (code, out) == (1, "")

    @pytest.mark.parametrize(
        "suite, detail",
        [
            ("conservation", "PASS gk-conservation — 3 random configurations"),
            ("nn", "PASS fp-non-negativity — 3 random rule/state pairs"),
            ("commutation", "PASS transform-commutation — 3 configurations"),
            ("shapes", "PASS gk-equilibrium-shapes — n <= 3"),
            ("partitions", "PASS ordered-counts — recurrence cross-check, n <= 3"),
        ],
        ids=["conservation", "nn", "commutation", "shapes", "partitions"],
    )
    def test_n_max_reaches_every_suite_as_its_size(self, capsys, suite, detail):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--n-max", "3")
        assert code == 0
        assert detail in out.splitlines()

    def test_failing_suite_exits_six(self, capsys, monkeypatch):
        def broken(seed=0, cases=0):
            return [analysis.CheckResult("broken", False, "synthetic failure")]

        monkeypatch.setitem(analysis.VERIFY_SUITES, "commutation", broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "commutation")
        assert code == 6
        assert "FAIL broken" in out

    @pytest.mark.parametrize("suite", sorted(analysis.VERIFY_SUITES))
    def test_negative_n_max_is_rejected(self, capsys, suite):
        for n_max in ("-3", "0"):  # 0 would give verdicts on no cases
            code, out, err = run_cli(capsys, "verify", "--suite", suite, "--n-max", n_max)
            assert code == 1
            assert f"error: --n-max must be positive, got {n_max}" in err
            assert not re.search(r"^(PASS|FAIL) ", out, re.MULTILINE)

    def test_a_negative_kernel_cell_fails_fp_non_negativity(self, capsys, monkeypatch):
        # the kernel's outputs skip the index pass, not the per-cell check that this line reads
        real = rules._stencil

        def stencil(state, rule):
            out, lo = real(state, rule)
            if rule.kind is rules.RuleKind.FP:
                out[len(out) // 2] = -1
            return out, lo

        monkeypatch.setattr(rules, "_stencil", stencil)
        code, out, _ = run_cli(capsys, "verify", "--suite", "nn", "--n-max", "20")
        assert code == 6
        lines = out.splitlines()[1:]
        assert [line for line in lines if line.startswith("FAIL ")] == [
            "FAIL fp-non-negativity — 20 random rule/state pairs"
        ]
        assert len(lines) > 1 and all(line.startswith(("PASS ", "FAIL ")) for line in lines)

    def test_output_is_deterministic(self, capsys):
        first = run_cli(capsys, "verify", "--suite", "commutation", "--n-max", "50")
        second = run_cli(capsys, "verify", "--suite", "commutation", "--n-max", "50")
        assert first == second


# every integer flag, with the argv before it: each once read its value through int()
INT_FLAGS = [
    (("run", "--rule", "gk", "--init", "3"), "--max-steps"),
    (("digraph", "--init", "3", "--rules", "vr_d"), "--node-cap"),
    (("digraph", "--init", "3", "--rules", "vr_d"), "--depth-cap"),
    (("digraph", "--init", "3", "--rules", "vr_d"), "--bt-floor"),
    (("decompose", "--source", "3", "--target", "2,1"), "--node-cap"),
    (("decompose", "--source", "3", "--target", "2,1"), "--depth-cap"),
    (("decompose", "--source", "3", "--target", "2,1"), "--max-paths"),
    (("verify", "--suite", "partitions"), "--n-max"),
    (("verify", "--suite", "commutation", "--n-max", "5"), "--seed"),
]


class TestIntegerFlags:
    @pytest.mark.parametrize("argv, flag", INT_FLAGS, ids=[f"{a[0]}{f}" for a, f in INT_FLAGS])
    @pytest.mark.parametrize("value", ["1_0", "٣", "１", "1.0", ""])
    def test_a_value_int_would_coerce_is_rejected(self, capsys, argv, flag, value):
        # `run ... --max-steps 1_0` ran with a cap of 10, `verify ... --n-max ٣` checked n <= 3
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")

    @pytest.mark.parametrize("argv, flag", INT_FLAGS, ids=[f"{a[0]}{f}" for a, f in INT_FLAGS])
    def test_a_signed_or_spaced_value_is_read_as_int_reads_it(self, capsys, argv, flag):
        assert run_cli(capsys, *argv, flag, " +1 ") == run_cli(capsys, *argv, flag, "1")


def child_env() -> dict[str, str]:
    """Environment for a child that imports the same sandlab as this process, installed or not."""
    paths = [str(Path(sandlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sandlab", "run", "--rule", "gk", "--init", "3"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["equilibrium"] is True

    def test_reader_closing_the_pipe_early_gives_no_traceback(self):
        # as `sandlab run --rule fp --init 60 | head -3`: 374 kB of JSON, far past a pipe buffer
        proc = subprocess.Popen(
            [sys.executable, "-m", "sandlab", "run", "--rule", "fp", "--init", "60"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        head = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert head == [b"{\n", b'  "rule": {\n', b'    "kind": "fp",\n']
        assert err == b""

    def test_a_table_reader_closing_the_pipe_early_gives_no_traceback(self):
        # as `sandlab run --rule fp --init 100 --format table | head -1`: 1,805 lines, 378 kB
        argv = ["run", "--rule", "fp", "--init", "100", "--format", "table"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "sandlab", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        head = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert head.startswith(b"t=0  0,0,") and b"|100,0," in head and head.endswith(b",0\n")
        assert err == b""

    def test_a_dot_reader_closing_the_pipe_early_gives_no_traceback(self):
        # as `sandlab digraph --init 40 --rules vr_d | head -2`: the DOT lines go out in chunks
        proc = subprocess.Popen(
            [sys.executable, "-m", "sandlab", "digraph", "--init", "40", "--rules", "vr_d"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert head == [b"digraph transitions {\n", b"  rankdir=TB;\n"]
        assert err == b""
