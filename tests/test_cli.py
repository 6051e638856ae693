import io
import json
import subprocess
import sys

import pytest

from cakewalk.cli import main
from cakewalk.dsl import parse
from cakewalk.ir import structurally_equal
from cakewalk.jsonio import protocol_from_json, valuations_to_json
from cakewalk.library import gen_cut_and_choose
from cakewalk.valuation import random_valuation


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cc_json(tmp_path, capsys):
    path = tmp_path / "cc.json"
    code, out, _ = run_cli(capsys, "gen", "cut-and-choose", "--model", "bc",
                           "--out", str(path))
    assert code == 0
    return str(path)


class TestGenAndStats:
    def test_selfridge_conway_reports_150(self, capsys, tmp_path):
        path = tmp_path / "sc.json"
        code, _, _ = run_cli(capsys, "gen", "selfridge-conway", "--model", "bc",
                             "--out", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "stats", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["nodes"] == 150

    def test_pipe_gen_into_stats(self):
        gen = subprocess.run(
            [sys.executable, "-m", "cakewalk.cli", "gen", "selfridge-conway",
             "--model", "bc"],
            capture_output=True, text=True, check=True,
        )
        stats = subprocess.run(
            [sys.executable, "-m", "cakewalk.cli", "stats", "-", "--json"],
            input=gen.stdout, capture_output=True, text=True, check=True,
        )
        assert json.loads(stats.stdout)["nodes"] == 150

    def test_gen_cake_format(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "cut-and-choose", "--format", "cake")
        assert code == 0
        parsed, diags = parse(out)
        assert parsed is not None
        bc, _, _ = gen_cut_and_choose()
        assert structurally_equal(parsed, bc)


class TestFmt:
    def test_json_to_cake(self, capsys, cc_json):
        code, out, _ = run_cli(capsys, "fmt", cc_json)
        assert code == 0
        assert out.startswith("(bc :agents 2")

    def test_fmt_idempotent(self, capsys, cc_json, tmp_path):
        code, once, _ = run_cli(capsys, "fmt", cc_json)
        cake = tmp_path / "cc.cake"
        cake.write_text(once)
        code, twice, _ = run_cli(capsys, "fmt", str(cake))
        assert once == twice


class TestConvert:
    def test_bc_to_gcc_and_back(self, capsys, cc_json, tmp_path):
        gcc_path = tmp_path / "cc_gcc.json"
        code, _, _ = run_cli(capsys, "convert", cc_json, "--to", "gcc",
                             "--out", str(gcc_path))
        assert code == 0
        obj = json.loads(gcc_path.read_text())
        assert obj["model"] == "gcc"
        code, out, _ = run_cli(capsys, "convert", str(gcc_path), "--to", "bc")
        assert code == 0
        assert json.loads(out)["model"] == "bc"

    def test_wrong_source_flag(self, capsys, cc_json):
        code, _, err = run_cli(capsys, "convert", cc_json, "--from", "gcc",
                               "--to", "bc")
        assert code == 2

    def test_unsupported_direction(self, capsys, cc_json, tmp_path):
        gcc_path = tmp_path / "g.json"
        run_cli(capsys, "convert", cc_json, "--to", "gcc", "--out", str(gcc_path))
        code, _, err = run_cli(capsys, "convert", str(gcc_path), "--to", "extbc")
        assert code == 2

    def test_dag_to_bc(self, capsys, tmp_path):
        dag = tmp_path / "d.cake"
        dag.write_text(
            "(bcdag :agents 1\n"
            "  (node r (choose :agent 1 a b))\n"
            "  (node a (cut :agent 1 :piece 1 :child leaf))\n"
            "  (node b (cut :agent 1 :piece 1 :child leaf))\n"
            "  (node leaf (leaf (1 -> 1) (2 -> 1))))\n"
        )
        code, out, _ = run_cli(capsys, "convert", str(dag), "--from", "dag",
                               "--to", "bc")
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == "bc"

    def test_normalize_cbc_bc(self, capsys, cc_json):
        code, out, _ = run_cli(capsys, "normalize", cc_json, "--pass", "cbc-bc")
        assert code == 0
        assert json.loads(out)["model"] == "bc"

    def test_normalize_cbc_ext_preserves_node_count(self, capsys, tmp_path):
        ext = tmp_path / "p.json"
        run_cli(capsys, "gen", "dubins-spanier", "--model", "extbc", "--n", "3",
                "--out", str(ext))
        code, before, _ = run_cli(capsys, "stats", str(ext), "--json")
        out_path = tmp_path / "norm.json"
        code, _, _ = run_cli(capsys, "normalize", str(ext), "--pass", "cbc-ext",
                             "--out", str(out_path))
        assert code == 0
        code, after, _ = run_cli(capsys, "stats", str(out_path), "--json")
        assert json.loads(before)["nodes"] == json.loads(after)["nodes"]

    def test_cake_budget_env(self, capsys, cc_json, monkeypatch):
        monkeypatch.setenv("CAKE_BUDGET", "2")
        code, _, err = run_cli(capsys, "normalize", cc_json, "--pass", "cbc-bc")
        assert code in (0, 1)  # tiny protocol may fit; env must parse
        monkeypatch.setenv("CAKE_BUDGET", "not-a-number")
        code, _, err = run_cli(capsys, "normalize", cc_json, "--pass", "cbc-bc")
        assert code == 1
        assert "CAKE_BUDGET" in err


class TestRun:
    def test_generated_protocol_with_bundle(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--gen", "cut-and-choose",
                               "--model", "bc", "--random-vals", "3",
                               "--seed", "7", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["envy"][1][0] == "0"

    def test_human_readable_summary(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--gen", "cut-and-choose",
                               "--model", "bc", "--random-vals", "1")
        assert code == 0
        assert "agent 1: value 1/2" in out
        assert "envy-free" in out

    def test_loaded_protocol_with_named_bundle(self, capsys, cc_json, tmp_path):
        vals = tmp_path / "vals.json"
        vals.write_text(json.dumps(valuations_to_json(
            [random_valuation(1, 3), random_valuation(2, 2)]
        )))
        code, out, _ = run_cli(capsys, "run", cc_json, "--bundle-name",
                               "cut-and-choose", "--model", "bc",
                               "--vals", str(vals), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["envy"][1][0] == "0"  # the chooser never envies

    def test_scripted_strategies(self, capsys, cc_json, tmp_path):
        script1 = tmp_path / "s1.json"
        script1.write_text(json.dumps({"decisions": {"0": "1/4"}}))
        script2 = tmp_path / "s2.json"
        script2.write_text(json.dumps({"decisions": {"1": 1}}))
        code, out, _ = run_cli(
            capsys, "run", cc_json, "--random-vals", "1",
            "--strategies", f"scripted:{script1},scripted:{script2}", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trace"]["cuts"] == ["1/4"]
        assert payload["values"][0][0] == "1/4"

    def test_human_prompt_round(self, capsys, cc_json, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.stdin", io.StringIO("7/9\n1/2\n2\n"))
        out_path = tmp_path / "run.json"
        code = main(["run", cc_json, "--random-vals", "1",
                     "--strategies", "human,human", "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out_path.read_text())
        # 7/9 was... a legal first answer, so the cut landed there; then the
        # branch answer 2 keeps the right piece for agent 2.
        assert payload["trace"]["cuts"] == ["7/9"]
        assert payload["trace"]["events"][1]["index"] == 1

    def test_human_illegal_input_reprompts(self, capsys, cc_json, monkeypatch,
                                           tmp_path):
        monkeypatch.setattr("sys.stdin", io.StringIO("3/2\nnope\n1/2\n9\n1\n"))
        out_path = tmp_path / "run.json"
        code = main(["run", cc_json, "--random-vals", "1",
                     "--strategies", "human,human", "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["trace"]["cuts"] == ["1/2"]
        assert payload["trace"]["events"][1]["index"] == 0

    def test_human_eof_saves_partial_trace(self, capsys, cc_json, monkeypatch,
                                           tmp_path):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        out_path = tmp_path / "partial.json"
        code = main(["run", cc_json, "--random-vals", "1",
                     "--strategies", "human,human", "--out", str(out_path)])
        capsys.readouterr()
        assert code == 1
        payload = json.loads(out_path.read_text())
        assert payload["aborted"] is True

    def test_human_replay_matches(self, capsys, cc_json, monkeypatch, tmp_path):
        from cakewalk.engine import Trace, replay
        monkeypatch.setattr("sys.stdin", io.StringIO("1/3\n1\n"))
        out_path = tmp_path / "run.json"
        code = main(["run", cc_json, "--random-vals", "1",
                     "--strategies", "human,human", "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out_path.read_text())
        protocol = protocol_from_json(
            json.loads(open(cc_json).read())
        )
        alloc = replay(protocol, Trace.from_json(payload["trace"]))
        assert alloc.to_json() == payload["allocation"]


class TestVerify:
    def test_equivalent_conversion(self, capsys, cc_json, tmp_path):
        gcc_path = tmp_path / "img.json"
        run_cli(capsys, "convert", cc_json, "--to", "gcc", "--out", str(gcc_path))
        code, out, _ = run_cli(
            capsys, "verify", cc_json, str(gcc_path), "--notion", "pairwise",
            "--grid-q", "3", "--random-vals", "1", "--json",
        )
        assert code == 0
        assert json.loads(out)["equivalent"] is True

    def test_inequivalent_protocols(self, capsys, tmp_path):
        p1 = tmp_path / "one.cake"
        p1.write_text("(bc :agents 2 (leaf (1 -> 1)))")
        p2 = tmp_path / "two.cake"
        p2.write_text("(bc :agents 2 (leaf (1 -> 2)))")
        code, out, _ = run_cli(
            capsys, "verify", str(p1), str(p2), "--notion", "value",
            "--grid-q", "2", "--random-vals", "1",
        )
        assert code == 1
        assert "NOT equivalent" in out


class TestDeterminism:
    def test_gen_is_byte_stable(self, capsys):
        _, first, _ = run_cli(capsys, "gen", "even-paz", "--model", "gcc",
                              "--n", "4")
        _, second, _ = run_cli(capsys, "gen", "even-paz", "--model", "gcc",
                               "--n", "4")
        assert first == second

    def test_run_is_seed_deterministic(self, capsys):
        args = ("run", "--gen", "selfridge-conway", "--model", "bc",
                "--random-vals", "3", "--seed", "11", "--json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert json.loads(first)["envy"] == [["0"] * 3] * 3


class TestErrors:
    def test_invalid_protocol_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.cake"
        bad.write_text("(bc :agents 1 (cut :agent 1 :piece 1 (leaf (1 -> 1))))")
        code, _, err = run_cli(capsys, "stats", str(bad))
        assert code == 1
        assert "validation" in err

    @staticmethod
    def chain(tmp_path, depth: int, suffix: str) -> str:
        """A file holding a chain of ``depth`` single-child chooses."""
        if suffix == ".cake":
            text = ("(bc :agents 1 " + "(choose :agent 1 " * depth
                    + "(leaf (1 -> 1))" + ")" * depth + ")")
        else:
            text = ('{"model": "bc", "agents": 1, "root": '
                    + "".join('{"id": %d, "kind": "choose", "agent": 1, "children": ['
                              % i for i in range(depth))
                    + '{"id": %d, "kind": "leaf", "assign": [1]}' % depth
                    + "]}" * depth + "}")
        deep = tmp_path / f"deep{depth}{suffix}"
        deep.write_text(text)
        return str(deep)

    @pytest.mark.parametrize("suffix", [".cake", ".json"])
    def test_deep_input_is_one_error_line(self, capsys, tmp_path, suffix):
        deep = self.chain(tmp_path, 1500, suffix)
        for command in ("stats", "fmt"):
            code, _, err = run_cli(capsys, command, deep)
            assert code == 1
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["stats", "fmt"])
    def test_400_deep_chain_is_processed(self, capsys, tmp_path, command):
        # Reading, lowering, validating, renumbering, counting and printing
        # each cost at most two Python frames per level.
        code, out, _ = run_cli(capsys, command, self.chain(tmp_path, 400, ".cake"))
        assert code == 0
        assert "depth: 401" in out if command == "stats" else out.count("\n") == 402

    @pytest.mark.parametrize("text", [
        '{"model":"bc","agents":1,"root":{"id":0,"kind":"cut","piece":1}}',
        '{"model":"bc","agents":1,"root":{"id":0,"kind":"leaf","assign":5}}',
        '{"model":"bcdag","agents":1,"root":0,"nodes":[{"id":0,"kind":"leaf"}]}',
        '{"model":"bc","agents":1,"root":{"id":0,',
    ], ids=["missing-agent", "int-assign", "dag-leaf-no-assign", "truncated"])
    def test_malformed_json_is_one_error_line(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, _, err = run_cli(capsys, "stats", str(bad))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_truncated_vals_is_one_error_line(self, capsys, tmp_path, cc_json):
        vals = tmp_path / "vals.json"
        vals.write_text('{"valuations": [')
        code, _, err = run_cli(capsys, "run", cc_json, "--vals", str(vals))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("valuation", [
        {"breakpoints": ["a"], "densities": []},
        {"breakpoints": ["0", "1"], "densities": ["x"]},
        {"breakpoints": ["0", "1"], "densities": ["1/0"]},
    ], ids=["letter-breakpoint", "letter-density", "zero-denominator"])
    def test_non_numeric_vals_is_one_error_line(self, capsys, tmp_path, cc_json,
                                                valuation):
        vals = tmp_path / "vals.json"
        vals.write_text(json.dumps({"valuations": [valuation, valuation]}))
        code, _, err = run_cli(capsys, "run", cc_json, "--vals", str(vals))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("script", [[1, 2], {"decisions": [1]}, {"0": "x"}],
                             ids=["list", "list-of-decisions", "letter-cut"])
    def test_malformed_script_is_one_error_line(self, capsys, tmp_path, cc_json,
                                                script):
        first = tmp_path / "s1.json"
        first.write_text(json.dumps(script))
        second = tmp_path / "s2.json"
        second.write_text(json.dumps({"1": 1}))
        code, _, err = run_cli(capsys, "run", cc_json, "--random-vals", "1",
                               "--strategies", f"scripted:{first},scripted:{second}")
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "stats", "/nonexistent.cake")
        assert code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_strategy_source(self, capsys, cc_json):
        code, _, err = run_cli(capsys, "run", cc_json, "--random-vals", "1",
                               "--strategies", "oracle,oracle")
        assert code == 1
