from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rsplits
import rsplits.cli
from conftest import NINE_VERTEX_EDGES
from rsplits.cli import build_parser, main
from rsplits.graph import GRAPH_FORMAT_HELP, format_graph, parse_graph
from rsplits.hypergraph import HYPERGRAPH_FORMAT_HELP, equals, parse_closed, parse_hypergraph
from rsplits.splits import enumerate_r_splits
from rsplits.verification import run_verification_suite

SRC = str(Path(rsplits.__file__).resolve().parent.parent)


@pytest.fixture()
def nine_vertex_file(tmp_path, nine_vertex_graph):
    path = tmp_path / "nine.graph"
    path.write_text(format_graph(nine_vertex_graph))
    return str(path)


@pytest.fixture()
def c4_file(tmp_path, c4):
    path = tmp_path / "c4.graph"
    path.write_text(format_graph(c4))
    return str(path)


class TestFormatHelp:
    @pytest.mark.parametrize(
        "command, text",
        [("splits", GRAPH_FORMAT_HELP), ("member", HYPERGRAPH_FORMAT_HELP)],
        ids=["graph", "hypergraph"],
    )
    def test_file_option_help_states_the_format(self, monkeypatch, capsys, command, text):
        monkeypatch.setenv("COLUMNS", "1000")   # no wrapping, so no split "cl-empty"
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        assert " ".join(text.split()) in " ".join(capsys.readouterr().out.split())

    def test_command_list_states_that_member_trusts_k2(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "1000")
        with pytest.raises(SystemExit):
            main(["-h"])
        assert "the file is trusted to be closed under K2" in capsys.readouterr().out


# One argv per subcommand, and the namespace it parses to apart from `func`:
# every dest with its value, so a dropped, renamed or re-typed option fails.
OPTION_TABLE = [
    (["rank", "--graph", "g", "-X", "1,3"],
     {"command": "rank", "json": False, "graph": "g", "set": "1,3"}),
    (["splits", "-g", "g", "-r", "2"],
     {"command": "splits", "graph": "g", "r": 2, "output": None}),
    (["connected", "-g", "g", "-r", "2", "--json"],
     {"command": "connected", "json": True, "graph": "g", "r": 2}),
    (["essential", "-g", "g", "-r", "1", "--output", "o"],
     {"command": "essential", "graph": "g", "r": 1, "output": "o"}),
    (["closure", "--hypergraph", "h", "-r", "1"],
     {"command": "closure", "hypergraph": "h", "r": 1, "degenerate": False, "output": None}),
    (["member", "-H", "h", "-r", "0", "-X", "-"],
     {"command": "member", "json": False, "hypergraph": "h", "r": 0, "set": "-"}),
    (["ortho", "-n", "6", "-r", "1", "-A", "1,2", "-B", "2,3"],
     {"command": "ortho", "json": False, "n": 6, "r": 1, "set_a": "1,2", "set_b": "2,3",
      "oracle": False}),
    (["crossfree", "-H", "h", "-r", "3"],
     {"command": "crossfree", "json": False, "hypergraph": "h", "r": 3}),
    (["family", "-r", "2", "-k", "3", "-o", "o"],
     {"command": "family", "r": 2, "k": 3, "output": "o"}),
    (["bounds", "-H", "h", "-r", "1"],
     {"command": "bounds", "json": False, "hypergraph": "h", "r": 1}),
    (["verify"],
     {"command": "verify", "json": False, "graph": None, "r": None, "seed": None,
      "profile": None}),
]

HELP_FLAGS = {
    "rank": ["--json", "-g", "--graph", "-X"],
    "splits": ["-g", "--graph", "-r", "-o", "--output"],
    "connected": ["--json", "-g", "--graph", "-r"],
    "essential": ["-g", "--graph", "-r", "-o", "--output"],
    "closure": ["-H", "--hypergraph", "-r", "--degenerate", "-o", "--output"],
    "member": ["--json", "-H", "--hypergraph", "-r", "-X"],
    "ortho": ["--json", "-n", "-r", "-A", "-B", "--oracle"],
    "crossfree": ["--json", "-H", "--hypergraph", "-r"],
    "family": ["-r", "-k", "-o", "--output"],
    "bounds": ["--json", "-H", "--hypergraph", "-r"],
    "verify": ["--json", "-g", "--graph", "-r", "--seed", "--profile"],
}


class TestOptionTable:
    def test_one_argv_per_subcommand(self):
        commands = sorted(name[4:] for name in vars(rsplits.cli) if name.startswith("cmd_"))
        assert sorted(argv[0] for argv, _ in OPTION_TABLE) == sorted(HELP_FLAGS) == commands

    @pytest.mark.parametrize("argv, expected", OPTION_TABLE, ids=[a[0] for a, _ in OPTION_TABLE])
    def test_namespace(self, argv, expected):
        parsed = vars(build_parser().parse_args(argv))
        assert parsed.pop("func") is getattr(rsplits.cli, f"cmd_{argv[0]}")
        assert sorted((k, v, type(v)) for k, v in parsed.items()) == sorted(
            (k, v, type(v)) for k, v in expected.items())

    @pytest.mark.parametrize("command", sorted(HELP_FLAGS))
    def test_help_lists_every_flag(self, monkeypatch, capsys, command):
        monkeypatch.setenv("COLUMNS", "1000")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--?\w[\w-]*", capsys.readouterr().out))
        assert {"-h", "--help", *HELP_FLAGS[command]} <= listed


CONTRACT_FILES = {
    "c6.txt": "6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n",
    "two-edges.txt": "4 2\n1 2\n3 4\n",
    "cross.txt": "6\n1,2,3\n3,4,5\n",
    "nocross.txt": "6\n1,2,3\n4,5\n",
}

# The result contract of every reporting subcommand, one row per verdict:
# argv (files as in CONTRACT_FILES, plus c6.closed, the 2-splits of C6),
# exit code, the text lines, and the --json object apart from its "command".
# The suite's row takes its lines and object from the suite's own report.
CONTRACT = [
    (["rank", "-g", "c6.txt", "-X", "1,2"], 0, ["2"], {"n": 6, "rank": 2, "set": "1,2"}),
    (["connected", "-g", "c6.txt", "-r", "2"], 0, ["2-rank connected"],
     {"n": 6, "r": 2, "r_rank_connected": True}),
    (["connected", "-g", "two-edges.txt", "-r", "1"], 1, ["not 1-rank connected"],
     {"n": 4, "r": 1, "r_rank_connected": False}),
    (["member", "-H", "c6.closed", "-r", "2", "-X", "1,2"], 0, ["member"],
     {"n": 6, "r": 2, "set": "1,2", "member": True}),
    (["member", "-H", "c6.closed", "-r", "2", "-X", "1,2,4"], 1, ["not a member"],
     {"n": 6, "r": 2, "set": "1,2,4", "member": False}),
    (["ortho", "-n", "6", "-r", "1", "-A", "1,2", "-B", "1,2,3"], 0, ["orthogonal"],
     {"n": 6, "r": 1, "a": "1,2", "b": "1,2,3", "mode": "formula", "orthogonal": True}),
    (["ortho", "-n", "6", "-r", "1", "-A", "1,2,3", "-B", "3,4,5", "--oracle"], 1, ["crossing"],
     {"n": 6, "r": 1, "a": "1,2,3", "b": "3,4,5", "mode": "definition", "orthogonal": False}),
    (["crossfree", "-H", "nocross.txt", "-r", "1"], 0, ["cross-free"],
     {"n": 6, "r": 1, "cross_free": True, "crossing_pair": None}),
    (["crossfree", "-H", "cross.txt", "-r", "1"], 1, ["crossing pair: 1,2,3 3,4,5"],
     {"n": 6, "r": 1, "cross_free": False, "crossing_pair": ["1,2,3", "3,4,5"]}),
    (["bounds", "-H", "nocross.txt", "-r", "1"], 0,
     ["middle edges        2", "closure middles     4", "closure total       18",
      "closure cap         28", "chain 2 <= 4 <= 4: holds", "cap 18 <= 28: holds"],
     {"n": 6, "r": 1, "edge_count": 2, "middle_edges": 2, "closure_middles": 4,
      "closure_total": 18, "closure_cap": 28, "chain_holds": True, "cap_holds": True,
      "passed": True}),
    (["verify", "-g", "c6.txt", "-r", "2"], 0,
     ["splits (middles)    8", "essential members   8", "essential bound     20",
      "closure round trip  ok", "PASS"],
     {"n": 6, "r": 2, "middle_count": 8, "essential_count": 8, "essential_bound": 20,
      "closure_matches": True, "passed": True}),
    (["verify", "--seed", "99"], 0, None, None),
]


class TestResultContract:
    def test_every_reporting_subcommand_has_a_row(self):
        assert {argv[0] for argv, *_ in CONTRACT} == {
            command for command, flags in HELP_FLAGS.items() if "--json" in flags}

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("argv, code, lines, payload", CONTRACT,
                             ids=[" ".join(argv) for argv, *_ in CONTRACT])
    def test_row(self, tmp_path, monkeypatch, capsys, argv, code, lines, payload, as_json):
        monkeypatch.chdir(tmp_path)
        for name, text in CONTRACT_FILES.items():
            (tmp_path / name).write_text(text)
        assert main(["splits", "-g", "c6.txt", "-r", "2", "-o", "c6.closed"]) == 0
        if lines is None:
            suite = run_verification_suite(seed=99, profile="quick")
            lines, payload = suite.format_lines().splitlines(), suite.to_dict()
        assert main(argv + ["--json"] * as_json) == code
        out, err = capsys.readouterr()
        assert err == ""
        if as_json:
            assert json.loads(out) == {"command": argv[0], **payload}
            assert out.count("\n") == 1
        else:
            assert out.splitlines() == lines


class TestRank:
    def test_prints_rank(self, nine_vertex_file, capsys):
        assert main(["rank", "-g", nine_vertex_file, "-X", "1,2,3,4,5"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_json(self, nine_vertex_file, capsys):
        assert main(["rank", "-g", nine_vertex_file, "-X", "1,2,3,4,5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == 2

    def test_bad_set_is_usage_error(self, nine_vertex_file, capsys):
        assert main(["rank", "-g", nine_vertex_file, "-X", "5,2"]) == 2

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["rank", "-g", "/nonexistent", "-X", "1"]) == 2


class TestSplitsAndClosure:
    def test_splits_round_trip(self, c4_file, c4, tmp_path, capsys):
        out = tmp_path / "c4.splits"
        assert main(["splits", "-g", c4_file, "-r", "1", "-o", str(out)]) == 0
        parsed = parse_closed(out.read_text())
        assert equals(parsed, enumerate_r_splits(c4, 1))

    def test_closure_of_essential_matches_splits(self, c4_file, tmp_path, capsys):
        splits_file = tmp_path / "c4.splits"
        ess_file = tmp_path / "c4.ess"
        assert main(["splits", "-g", c4_file, "-r", "1", "-o", str(splits_file)]) == 0
        assert main(["essential", "-g", c4_file, "-r", "1", "-o", str(ess_file)]) == 0
        assert main(["closure", "-H", str(ess_file), "-r", "1"]) == 0
        stdout = capsys.readouterr().out
        assert stdout == splits_file.read_text()

    def test_negative_universe_is_usage_error(self, tmp_path, capsys):
        hg = tmp_path / "neg.hg"
        hg.write_text("-2\n")
        assert main(["closure", "-H", str(hg), "-r", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "universe size must be >= 0, got -2" in captured.err

    def test_degenerate_closure(self, tmp_path, capsys):
        hg = tmp_path / "h.hg"
        hg.write_text("8\n1,2,3\n2,3,4,5\n")
        assert main(["closure", "-H", str(hg), "-r", "2", "--degenerate"]) == 0
        parsed = parse_closed(capsys.readouterr().out)
        assert len(parsed.middles) == 4

    def test_essential_refuses_disconnected(self, tmp_path, capsys):
        path = tmp_path / "disc.graph"
        path.write_text("4 2\n1 2\n3 4\n")
        assert main(["essential", "-g", str(path), "-r", "1"]) == 1
        assert "not 1-rank connected" in capsys.readouterr().err


class TestConnected:
    def test_exit_codes(self, c4_file, nine_vertex_file, capsys):
        assert main(["connected", "-g", c4_file, "-r", "1"]) == 0
        assert main(["connected", "-g", nine_vertex_file, "-r", "2"]) == 1

    def test_connected_verdict_names_r(self, tmp_path, capsys):
        path = tmp_path / "c6.graph"
        path.write_text("6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n")
        assert main(["connected", "-g", str(path), "-r", "2"]) == 0
        assert capsys.readouterr() == ("2-rank connected\n", "")

    def test_disconnected_verdict_names_r(self, tmp_path, capsys):
        path = tmp_path / "two-edges.graph"
        path.write_text("4 2\n1 2\n3 4\n")
        assert main(["connected", "-g", str(path), "-r", "1"]) == 1
        assert capsys.readouterr() == ("not 1-rank connected\n", "")
        assert main(["connected", "-g", str(path), "-r", "1", "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "command": "connected", "n": 4, "r": 1, "r_rank_connected": False}


class TestMember:
    def test_member_and_nonmember(self, c4_file, tmp_path, capsys):
        splits_file = tmp_path / "c4.splits"
        main(["splits", "-g", c4_file, "-r", "1", "-o", str(splits_file)])
        assert main(["member", "-H", str(splits_file), "-r", "1", "-X", "1,3"]) == 0
        assert main(["member", "-H", str(splits_file), "-r", "1", "-X", "1,2"]) == 1

    def test_rank_mismatch_is_usage_error(self, c4_file, tmp_path, capsys):
        splits_file = tmp_path / "c4.splits"
        main(["splits", "-g", c4_file, "-r", "1", "-o", str(splits_file)])
        assert main(["member", "-H", str(splits_file), "-r", "2", "-X", "1,3"]) == 2


class TestOrtho:
    def test_orthogonal_pair(self, capsys):
        assert main(["ortho", "-n", "12", "-r", "3", "-A", "1,2,3", "-B", "2,3,4,5,6"]) == 0

    def test_oracle_mode(self, capsys):
        assert main(
            ["ortho", "-n", "12", "-r", "3", "-A", "1,2,3,4,5,6", "-B", "4,5,6,7,8,9", "--oracle"]
        ) == 0

    def test_crossing_pair(self, capsys):
        assert main(["ortho", "-n", "6", "-r", "1", "-A", "1,2,3", "-B", "3,4,5"]) == 1

    def test_json_payload(self, capsys):
        assert main(["ortho", "-n", "6", "-r", "1", "-A", "1,2,3", "-B", "3,4,5", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["orthogonal"] is False
        assert payload["mode"] == "formula"

    def test_universe_error_does_not_blame_a_set(self, capsys):
        assert main(["ortho", "-n", "129", "-r", "1", "-A", "1", "-B", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: universe size 129 exceeds the configured budget (128); "
            "raise rsplits.limits.MAX_UNIVERSE to allow it\n"
        )


class TestCrossfree:
    def test_cross_free_family(self, tmp_path, capsys):
        fam = tmp_path / "fam.hg"
        assert main(["family", "-r", "2", "-k", "3", "-o", str(fam)]) == 0
        assert main(["crossfree", "-H", str(fam), "-r", "2"]) == 0

    def test_crossing_family_prints_pair(self, tmp_path, capsys):
        hg = tmp_path / "h.hg"
        hg.write_text("6\n1,2,3\n3,4,5\n")
        assert main(["crossfree", "-H", str(hg), "-r", "1"]) == 1
        assert "1,2,3" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["4\n", "4\n1,2\n"])
    def test_negative_rank_is_usage_error(self, tmp_path, capsys, text):
        hg = tmp_path / "h.hg"
        hg.write_text(text)
        assert main(["crossfree", "-H", str(hg), "-r", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: r must be >= 0\n"


class TestFamily:
    def test_nine_lines_first_is_147(self, capsys):
        assert main(["family", "-r", "2", "-k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "9"
        assert len(lines) == 10
        assert lines[1] == "1,4,7"

    def test_output_reparses(self, tmp_path):
        fam = tmp_path / "fam.hg"
        assert main(["family", "-r", "1", "-k", "4", "-o", str(fam)]) == 0
        parsed = parse_hypergraph(fam.read_text())
        assert len(parsed) == 4

    def test_refuses_k_to_the_r_above_the_explicit_family_limit(self, capsys):
        assert main(["family", "-r", "20", "-k", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: family for r=20, k=6 would have k^r = {6**20} edges (limit 4194304)\n"
        )


class TestOutputPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ["family", "-r", "1", "-k", "2"],
            ["closure", "-H", "{hg}", "-r", "1"],
            ["splits", "-g", "{graph}", "-r", "1"],
        ],
    )
    def test_missing_directory_is_a_usage_error(self, tmp_path, c4_file, capsys, argv):
        hg = tmp_path / "h.hg"
        hg.write_text("4\n1,2\n")
        out = tmp_path / "missing" / "out.txt"
        argv = [a.format(hg=hg, graph=c4_file) for a in argv]
        assert main(argv + ["-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: [Errno 2] ")
        assert captured.err.count("\n") == 1

    def test_directory_is_a_usage_error(self, tmp_path, capsys):
        assert main(["family", "-r", "1", "-k", "2", "-o", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {tmp_path}: [Errno 21] ")


class TestClosedPipe:
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [["verify", "--seed", "99"], ["splits", "-g", "c6.txt", "-r", "2"]],
        ids=["verify", "splits"],
    )
    def test_closed_reader_is_a_silent_exit_1(self, tmp_path, argv, unbuffered):
        # The read end is closed before the child starts, so its first write
        # to stdout fails, whether it happens in print or in the final flush.
        (tmp_path / "c6.txt").write_text("6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "rsplits.cli", *argv], cwd=tmp_path,
                                  env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  timeout=60)
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 1


class TestBounds:
    def test_report_and_exit(self, tmp_path, capsys):
        fam = tmp_path / "fam.hg"
        main(["family", "-r", "2", "-k", "3", "-o", str(fam)])
        assert main(["bounds", "-H", str(fam), "-r", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["middle_edges"] == 9
        assert payload["closure_middles"] == 18
        assert payload["passed"] is True

    def test_crossing_input_fails(self, tmp_path, capsys):
        hg = tmp_path / "h.hg"
        hg.write_text("6\n1,2,3\n3,4,5\n")
        assert main(["bounds", "-H", str(hg), "-r", "1"]) == 1


class TestVerify:
    def test_graph_mode(self, c4_file, capsys):
        assert main(["verify", "-g", c4_file, "-r", "1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_graph_mode_refuses_nonconnected(self, nine_vertex_file, capsys):
        assert main(["verify", "-g", nine_vertex_file, "-r", "2"]) == 1
        assert capsys.readouterr().err == "error: graph is not 2-rank connected\n"

    def test_graph_parse_error_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("3 2\n1 2\n1 x\n")
        assert main(["verify", "-g", str(path), "-r", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 3: bad edge line '1 x', expected 'u v'\n"
        )

    def test_edge_count_error_names_the_header_line(self, tmp_path, capsys):
        path = tmp_path / "short.graph"
        path.write_text("3 1\n1 2\n2 3")
        assert main(["verify", "-g", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: line 1: header promises 1 edges, file has 2\n"

    def test_rank_without_graph_is_usage_error(self, capsys):
        assert main(["verify", "-r", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: -r needs -g\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "5"], "--seed cannot be used with -g"),
            (["--profile", "full"], "--profile cannot be used with -g"),
            (["--seed", "5", "--profile", "quick"], "--seed cannot be used with -g"),
        ],
    )
    def test_suite_flags_with_graph_are_usage_errors(self, c4_file, capsys, flags, message):
        assert main(["verify", "-g", c4_file] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_suite_mode_defaults(self, capsys):
        assert main(["verify", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["seed"], payload["profile"]) == (2024, "quick")

    def test_suite_mode_json(self, capsys):
        assert main(["verify", "--seed", "3", "--profile", "quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert len(payload["results"]) > 10

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--profile", "bogus"])
        assert exc.value.code == 2


class TestGraphParsing:
    def test_graph_output_reparses(self, nine_vertex_file, nine_vertex_graph):
        text = Path(nine_vertex_file).read_text(encoding="utf-8")
        assert parse_graph(text) == nine_vertex_graph
        assert sorted(parse_graph(text).edges()) == sorted(NINE_VERTEX_EDGES)

    def test_negative_vertex_count_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "neg.graph"
        path.write_text("-2 0\n")
        assert main(["rank", "-g", str(path), "-X", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: line 1: universe size must be >= 0, got -2\n"

    def test_undecodable_file_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.graph"
        path.write_bytes(b"2 1\n1 2 \xff\n")
        assert main(["connected", "-g", str(path), "-r", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: 'utf-8' codec")


class TestJsonFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["splits", "-g", "g", "-r", "1"],
            ["essential", "-g", "g", "-r", "1"],
            ["closure", "-H", "h", "-r", "1"],
            ["family", "-r", "1", "-k", "2"],
        ],
    )
    def test_rejected_where_it_is_not_honoured(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err


class TestHypergraphParseErrors:
    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["closure", "-r", "1"], "# family\n4x\n1,2\n", "line 2: bad universe line '4x', expected 'n'"),
            (["member", "-r", "1", "-X", "1,3"], "4\nr x\n1,3\n2,4\n",
             "line 2: bad rank header 'r x', expected 'r <value>'"),
            (["crossfree", "-r", "1"], "4\n1,2\n# next\n1,x\n", "line 4: bad vertex set '1,x'"),
            (["closure", "-r", "1"], "1_0\n+1, 2\n", "line 1: bad universe line '1_0', expected 'n'"),
            (["closure", "-r", "1"], "4\n+1, 2\n", "line 2: bad vertex set '+1, 2'"),
            (["member", "-r", "1", "-X", "1,3"], "4\nr \u0661\n1,3\n2,4\n",
             "line 2: bad rank header 'r \u0661', expected 'r <value>'"),
            (["bounds", "-r", "1"], "4\n1,2\n# again\n1,2\n",
             "line 4: duplicate vertex set '1,2' (first on line 2)"),
            (["member", "-r", "1", "-X", "1,3"], "4\nr 1\n1,3\n2,4\n1,3\n",
             "line 5: duplicate vertex set '1,3' (first on line 3)"),
            (["member", "-r", "1", "-X", "1,3"], "4\nr 1\n1,3\n",
             "line 3: '1,3' has no complement '2,4' in the file"),
        ],
    )
    def test_exit_2_with_one_line_naming_the_line(self, tmp_path, capsys, argv, text, message):
        path = tmp_path / "bad.hg"
        path.write_text(text, encoding="utf-8")
        assert main(argv[:1] + ["-H", str(path)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"


class TestGraphNumberSpellings:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("+3 1\n1 2\n", "line 1: bad graph header '+3 1', expected 'n m'"),
            ("\u0663 0\n", "line 1: bad graph header '\u0663 0', expected 'n m'"),
            ("3 1\n# edge\n1 2_0\n", "line 3: bad edge line '1 2_0', expected 'u v'"),
        ],
    )
    @pytest.mark.parametrize("command", ["splits", "essential", "connected", "verify"])
    def test_exit_2_naming_the_line(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "bad.graph"
        path.write_text(text, encoding="utf-8")
        assert main([command, "-g", str(path), "-r", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"


class TestCommandLineNumbers:
    @pytest.mark.parametrize(
        "argv, flag, token",
        [
            (["family", "-r", "\u0662", "-k", "2"], "-r", "\u0662"),
            (["family", "-r", "2", "-k", "1_0"], "-k", "1_0"),
            (["ortho", "-n", "\uff13", "-r", "1", "-A", "1", "-B", "2"], "-n", "\uff13"),
            (["ortho", "-n", "3", "-r", "+1", "-A", "1", "-B", "2"], "-r", "+1"),
            (["verify", "--seed", "+5"], "--seed", "+5"),
            (["verify", "--seed", "0x5"], "--seed", "0x5"),
        ],
    )
    def test_numbers_follow_the_file_formats_rule(self, capsys, argv, flag, token):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: invalid integer {token!r}" in capsys.readouterr().err

    def test_ascii_decimal_numbers_are_taken(self, capsys):
        assert main(["ortho", "-n", "03", "-r", "1", "-A", "1", "-B", "1,2"]) == 0
        assert capsys.readouterr().out == "orthogonal\n"

    def test_env_cap_follows_the_same_rule(self, c4_file, capsys, monkeypatch):
        monkeypatch.setenv("RSPLIT_MAX_N", "3_0")
        assert main(["connected", "-g", c4_file, "-r", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: RSPLIT_MAX_N must be an integer, got '3_0'\n"
