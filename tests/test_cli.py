import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cakewalk.cli import main
from cakewalk.dsl import parse, print_protocol
from cakewalk.ir import stats, structurally_equal
from cakewalk.jsonio import protocol_from_json, valuations_to_json
from cakewalk.library import gen_cut_and_choose
from cakewalk.transform import bc_to_gcc
from cakewalk.valuation import random_valuation

from helpers import many_chooses_tree

GOLDEN = Path(__file__).parent / "golden"


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

    def test_closed_pipe_is_no_traceback(self, capsys, tmp_path):
        # As ``cakewalk convert --to bc EP4.cake | head -1``: the output
        # (about 2.8 MB) outgrows the pipe, so writing fails once it closes.
        ep4 = tmp_path / "ep4.cake"
        assert main(["gen", "even-paz", "--model", "extbc", "--n", "4",
                     "--format", "cake", "--out", str(ep4)]) == 0
        proc = subprocess.Popen(
            [sys.executable, "-m", "cakewalk", "convert", "--to", "bc", str(ep4)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err and err == ""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_first_line_then_closed_pipe(self, tmp_path, unbuffered):
        # As ``cakewalk convert --to bc STEM.cake | head -1`` with and without
        # PYTHONUNBUFFERED: the 1,462 bytes of the reconverging DAG's image
        # go out in one write, so closing the pipe after their first line
        # fails nothing; EP4's 2.8 MB outgrow the pipe, and the write fails.
        ep4 = tmp_path / "ep4.cake"
        assert main(["gen", "even-paz", "--model", "extbc", "--n", "4",
                     "--format", "cake", "--out", str(ep4)]) == 0
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
        for path, code in ((GOLDEN / "reconverging_bcdag.cake", 0), (ep4, 1)):
            proc = subprocess.Popen(
                [sys.executable, "-m", "cakewalk", "convert", "--to", "bc", str(path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            )
            assert proc.stdout.readline() == "{\n"
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert (proc.wait(timeout=120), err) == (code, "")

    @pytest.mark.parametrize("argv", [
        ("gen", "cut-and-choose"),
        ("gen", "cut-and-choose", "--format", "cake"),
        ("convert", "--to", "bc", str(GOLDEN / "reconverging_bcdag.cake")),
    ], ids=["json", "cake", "convert"])
    def test_one_write_per_result(self, monkeypatch, argv):
        # Unbuffered (PYTHONUNBUFFERED=1), a write for the closing newline
        # after the text would fail on a pipe that ``head -1`` has closed.
        class Writes(io.StringIO):
            calls = 0

            def write(self, text):
                self.calls += 1
                return super().write(text)

        out = Writes()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(list(argv)) == 0
        assert out.calls == 1
        assert out.getvalue().endswith("}\n" if "cake" not in argv else ")\n")

    @pytest.mark.parametrize("name", ["even-paz", "dubins-spanier"])
    def test_default_model_names_the_forms(self, capsys, name):
        code, out, err = run_cli(capsys, "gen", name)
        assert (code, out) == (1, "")
        assert err == f"error: {name} exists in gcc and extbc forms\n"

    @pytest.mark.parametrize("argv, err", [
        (("gen", "cut-and-choose", "--n", "5"), "cut-and-choose is a 2-agent protocol"
         ", not 5 agents"),
        (("gen", "selfridge-conway", "--model", "gcc", "--n", "2"),
         "selfridge-conway is a 3-agent protocol, not 2 agents"),
        (("run", "--gen", "cut-and-choose", "--n", "5", "--random-vals", "1"),
         "cut-and-choose is a 2-agent protocol, not 5 agents"),
        (("run", "--gen", "selfridge-conway", "--n", "4", "--random-vals", "1"),
         "selfridge-conway is a 3-agent protocol, not 4 agents"),
    ], ids=["gen-cc", "gen-sc", "run-cc", "run-sc"])
    def test_fixed_size_generator_refuses_another_n(self, capsys, argv, err):
        assert run_cli(capsys, *argv) == (1, "", f"error: {err}\n")

    def test_fixed_size_generator_takes_its_own_n(self, capsys):
        assert run_cli(capsys, "gen", "cut-and-choose", "--n", "2") \
            == run_cli(capsys, "gen", "cut-and-choose")

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
        # Splitting cut-and-choose's cut back into BC nodes takes ids past 2.
        monkeypatch.setenv("CAKE_BUDGET", "2")
        code, _, err = run_cli(capsys, "normalize", cc_json, "--pass", "intermediate")
        assert code == 1
        assert "size budget of 2 nodes" in err
        monkeypatch.setenv("CAKE_BUDGET", "not-a-number")
        code, _, err = run_cli(capsys, "normalize", cc_json, "--pass", "cbc-bc")
        assert code == 1
        assert "CAKE_BUDGET" in err

    def test_convert_to_gcc_of_1201_chooses(self, capsys, tmp_path):
        # Its GCC image opens with 1,221 nested cuts; printed as .cake.
        tree = many_chooses_tree()
        path = tmp_path / "many.cake"
        path.write_text(print_protocol(tree))
        code, out, err = run_cli(capsys, "convert", str(path), "--to", "gcc",
                                 "--format", "cake")
        assert code == 0, err
        assert out == print_protocol(bc_to_gcc(tree))

    def test_budget_zero_is_a_budget(self, capsys):
        code, _, err = run_cli(capsys, "convert", "--to", "bc", "--budget", "0",
                               str(GOLDEN / "even_paz_extbc_2.cake"))
        assert code == 1
        assert "size budget of 0 nodes" in err

    @pytest.mark.parametrize("flag, env, name", [
        (("--budget", "-3"), None, "--budget"),
        ((), "-3", "CAKE_BUDGET"),
    ], ids=["flag", "env"])
    def test_negative_budget_is_one_error_line(self, capsys, monkeypatch, flag, env,
                                               name):
        if env is not None:
            monkeypatch.setenv("CAKE_BUDGET", env)
        code, _, err = run_cli(capsys, "convert", "--to", "bc",
                               str(GOLDEN / "even_paz_extbc_2.cake"), *flag)
        assert code == 1
        assert err == f"error: {name} must not be negative, got -3\n"

    @pytest.mark.parametrize("argv", [
        ("convert", "--to", "bc", "reconverging_bcdag.cake"),
        ("convert", "--to", "bc", "even_paz_extbc_2.cake"),
        ("convert", "--to", "bc", "dubins_spanier_gcc_3.cake"),
        ("convert", "--to", "gcc", "cut_and_choose_bc.cake"),
        ("normalize", "--pass", "cbc-bc", "selfridge_conway_bc.cake"),
        ("normalize", "--pass", "intermediate", "cut_and_choose_bc.cake"),
    ], ids=lambda argv: f"{argv[0]}-{argv[-1].removesuffix('.cake')}")
    def test_budget_reaches_every_budgeted_conversion(self, capsys, argv):
        *args, name = argv
        code, _, err = run_cli(capsys, *args, str(GOLDEN / name), "--budget", "2")
        assert code == 1
        assert "size budget of 2 nodes" in err


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


    def test_human_gcc_prompts(self, capsys, monkeypatch):
        # Agent 1's gcc-cut asks for a piece, then a position in it; agent
        # 2's gcc-choose asks for a piece.  Each prompt repeats until legal.
        answers = ["0", "x", "2", "1", "3/2", "a/b", "1/3",  # the cut
                   "0", "3", "2"]                              # the choose
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(answers) + "\n"))
        code, out, err = run_cli(capsys, "run", "--gen", "cut-and-choose",
                                 "--model", "gcc", "--random-vals", "1",
                                 "--strategies", "human,human", "--json")
        assert code == 0
        payload = json.loads(out)
        events = payload["trace"]["events"]
        assert [(e["type"], e.get("piece"), e.get("position"), e.get("index"))
                for e in events] == [("cut", 0, "1/3", None), ("piece", None, None, 1),
                                     ("piece", None, None, 0)]
        assert payload["allocation"] == [[["0", "1/3"]], [["1/3", "1"]]]
        assert err.count("piece 1..1: ") == 4 and err.count("piece 1..2: ") == 3
        assert err.count("  not a legal piece, try again") == 5
        assert err.count("  not a fraction, try again") == 1
        assert err.count("  outside the mandated piece, try again") == 1
        assert err.count("  option 1: [0, 1]") == 1
        assert err.count("  option 2: [1/3, 1]") == 1

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

    def test_budget_error_is_one_line(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", str(GOLDEN / "cut_and_choose_bc.cake"),
            str(GOLDEN / "cut_and_choose_gcc.cake"), "--grid-q", "3",
            "--random-vals", "2", "--budget", "10",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: check_equiv pairwise, protocol 1: oracle budget"
                              " of 10 node evaluations exceeded in the walk for")
        assert err.count("\n") == 1 and err.endswith("\n")


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
        # Only lowering costs a Python frame per level: reading, validating,
        # renumbering, counting and printing keep a stack.
        code, out, _ = run_cli(capsys, command, self.chain(tmp_path, 400, ".cake"))
        assert code == 0
        assert "depth: 401" in out if command == "stats" else out.count("\n") == 402

    def test_900_deep_chain_through_stats(self, capsys, tmp_path):
        # stats walks with a stack, so the .cake lowerer, one frame per
        # level, sets how deep a chain may go (987 levels, as for fmt).
        path = self.chain(tmp_path, 900, ".cake")
        code, out, _ = run_cli(capsys, "stats", path, "--json")
        assert code == 0
        tree, diagnostics = parse(Path(path).read_text())
        assert not diagnostics
        counts = stats(tree).to_json()
        assert json.loads(out) == {**counts, "model": "bc", "agents": 1}
        assert counts["depth"] == 901 and counts["chooses"] == 900

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

    def test_directory_as_input_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "stats", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_utf8_file_is_one_error_line(self, capsys, tmp_path):
        bad = tmp_path / "latin1.cake"
        bad.write_bytes("(bc :agents 1 (leaf (1 -> 1))) ; caf\xe9".encode("latin-1"))
        code, _, err = run_cli(capsys, "stats", str(bad))
        assert code == 1
        assert err == f"error: {bad} is not UTF-8 text\n"

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_random_vals_must_be_an_integer(self, capsys, cc_json, command):
        inputs = [cc_json] if command == "run" else [cc_json, cc_json]
        with pytest.raises(SystemExit) as caught:
            main([command, *inputs, "--random-vals", "x"])
        assert caught.value.code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err

    def test_random_vals_0_reaches_the_segment_check(self, capsys, cc_json):
        code, _, err = run_cli(capsys, "run", cc_json, "--random-vals", "0")
        assert code == 1
        assert err == "error: segments must be >= 1\n"

    @pytest.mark.parametrize("agent", ["x", "3"])
    def test_human_agent_must_be_an_agent(self, capsys, agent):
        code, _, err = run_cli(capsys, "run", "--gen", "cut-and-choose",
                               "--random-vals", "1", "--strategies", f"human:{agent}")
        assert code == 1
        assert err == f"error: 'human:{agent}' does not name an agent in 1..2\n"

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_strategy_source(self, capsys, cc_json):
        code, _, err = run_cli(capsys, "run", cc_json, "--random-vals", "1",
                               "--strategies", "oracle,oracle")
        assert code == 1
