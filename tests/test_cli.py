import argparse
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import wordeq.cli
from wordeq import EnumerationBudget, enumerate_solutions, oracle, words
from wordeq.cli import _GROUPS, COMMANDS, _human_lines, _json_text, _Parser, run
from wordeq.polynomials import IntPolynomial
from wordeq.words import _minimal_factor_cover

from conftest import random_equation

ROOT = Path(__file__).resolve().parent.parent
RECIPES = json.loads((ROOT / "recipes" / "recipes.json").read_text())


def invoke(argv, cwd=ROOT):
    """``run``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    import os

    old = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        os.chdir(old)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, out, err = invoke(argv)
    assert code == 0, err
    return json.loads(out)


class TestBasicCommands:
    def test_encode(self):
        report = invoke_json(["--json", "encode", "1212"])
        assert report["results"]["polynomial"] == "1 + 2X + X^2 + 2X^3"

    def test_ratfun(self):
        report = invoke_json(["--json", "ratfun", "1212"])
        assert report["results"]["rational_function"] == "(1 + 2X)/(-1 + X^2)"

    def test_primroot(self):
        report = invoke_json(["--json", "primroot", "121121"])
        assert report["results"]["primitive_root"] == "121"
        assert report["results"]["exponent"] == 2

    def test_commute(self):
        report = invoke_json(["--json", "commute", "12", "1212"])
        assert report["results"]["commute"] is True
        assert report["results"]["ratfun_equal"] is True

    def test_finewilf(self):
        report = invoke_json(["--json", "finewilf", "12", "121", "3"])
        assert report["results"]["bound"] == 4
        assert report["results"]["premise_holds"] is False

    def test_human_output_runs(self):
        code, out, _ = invoke(["encode", "1212"])
        assert code == 0
        assert "1 + 2X + X^2 + 2X^3" in out

    def test_json_flag_after_subcommand(self):
        report = invoke_json(["encode", "1212", "--json"])
        assert report["results"]["polynomial"] == "1 + 2X + X^2 + 2X^3"


class TestFileCommands:
    def test_eq_rank(self, tmp_path):
        f = tmp_path / "system.txt"
        f.write_text("x y = y x\nx y = y x\n")
        report = invoke_json(["--json", "eq", "rank", str(f), "--lengths", "1,1"])
        assert report["results"]["rank"] == 1

    def test_system_graph(self, tmp_path):
        f = tmp_path / "system.txt"
        f.write_text("unknowns: x y z w\nx y = y x\n")
        report = invoke_json(["--json", "system", "graph", str(f)])
        assert report["results"]["components"] == 3

    def test_system_independent(self, tmp_path):
        f = tmp_path / "system.txt"
        f.write_text("x y = y x\n")
        report = invoke_json(
            ["--json", "system", "independent", str(f), "--max-total", "3"]
        )
        assert report["results"]["verdict"] == "independent within budget"
        # the omitted equation is written with the file's unknown names, as the system is echoed
        report = invoke_json(
            ["--json", "system", "independent", "recipes/inputs/cycle.txt", "--max-total", "4"]
        )
        omitted = [entry["omitted"] for entry in report["results"]["subsystems"]]
        assert omitted == report["inputs"]["system"] == ["x y z = z x y"]

    def test_chain_bound(self):
        report = invoke_json(
            ["--json", "chain", "bound", "recipes/inputs/cycle.txt", "-k", "1", "-l", "3"]
        )
        assert report["results"]["bound"] == 17
        assert report["results"]["three_unknown_chain_bound"] == 21

    def test_chain_check(self):
        report = invoke_json(
            ["--json", "chain", "check", "recipes/inputs/pair.txt", "--max-total", "6"]
        )
        assert report["results"]["realized_chain_length"] == 2

    def test_enumerate_jsonl(self, tmp_path):
        f = tmp_path / "eq.txt"
        f.write_text("x1 x1 = x2\n")
        report = invoke_json(
            ["--json", "system", "enumerate", str(f), "--max-total", "3", "--jsonl"]
        )
        lines = report["results"]["jsonl"].splitlines()
        assert len(lines) == report["results"]["solution_count"] == 3

    def test_enumerate_rank_filter(self):
        report = invoke_json(
            [
                "--json", "system", "enumerate", "recipes/inputs/cycle.txt",
                "--max-total", "4", "--rank", "2",
            ]
        )
        assert report["results"]["solution_count"] > 0
        assert all(s["rank"] == 2 for s in report["results"]["solutions"])

    def test_full_pairing_cover(self):
        report = invoke_json(
            ["--json", "pair", "cover", "recipes/inputs/pair.txt", "--full-pairing"]
        )
        assert report["results"]["full_pairing"] is True
        assert report["results"]["plane_count"] >= 4


class TestExitCodes:
    def test_missing_file(self):
        code, _, err = invoke(["eq", "coeffs", "no-such-file.txt", "--lengths", "1"])
        assert code == 1
        assert "input error" in err

    @pytest.mark.parametrize("name", ["missing", "empty", "directory", "through-a-file"])
    def test_unreadable_path_message(self, name, tmp_path):
        (tmp_path / "file.txt").write_text("x = x\n")
        path, expected = {
            "missing": (tmp_path / "missing.txt", "no such file: {}"),
            "empty": ("", "no such file: {}"),
            "directory": (tmp_path, "[Errno 21] Is a directory: '{}'"),
            "through-a-file": (tmp_path / "file.txt" / "x", "no such file: {}"),
        }[name]
        code, out, err = invoke(["eq", "rank", str(path), "--lengths", "1"])
        assert (code, out, err) == (1, "", f"input error: {expected.format(path)}\n")

    def test_malformed_equation_reports_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("x y = y x\nx y y x\n")
        code, _, err = invoke(
            ["eq", "rank", str(f), "--lengths", "1,1"]
        )
        assert code == 1
        assert "line 2" in err

    def test_repeated_unknown_name(self, tmp_path):
        f = tmp_path / "repeated.txt"
        f.write_text("unknowns: x x y\nx y = y x\n")
        code, out, err = invoke(["system", "enumerate", str(f), "--max-total", "2"])
        assert code == 1
        assert out == ""
        assert "line 1: unknown 'x' declared twice" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("unknowns: eps y\neps = y\n", "line 1: 'eps' cannot name an unknown"),
            ("unknowns: x y\nunknowns: a b\na = b\n", "line 2: second unknown declaration"),
        ],
        ids=["eps-name", "second-declaration"],
    )
    def test_ambiguous_unknown_declaration(self, tmp_path, text, message):
        f = tmp_path / "declared.txt"
        f.write_text(text)
        code, out, err = invoke(["system", "enumerate", str(f), "--max-total", "2"])
        assert code == 1
        assert out == ""
        assert message in err

    def test_enumerate_lengths_of_the_wrong_size(self):
        # the same check and message as eq coeffs and eq rank
        for argv in (
            ["system", "enumerate", "recipes/inputs/cycle.txt", "--max-total", "4"],
            ["eq", "rank", "recipes/inputs/cycle.txt"],
        ):
            code, out, err = invoke(argv + ["--lengths", "1,1"])
            assert code == 1
            assert out == ""
            assert "length type size does not match the unknown count" in err

    @pytest.mark.parametrize("argv", [
        ["eq", "coeffs", "recipes/inputs/cycle.txt"],
        ["eq", "rank", "recipes/inputs/cycle.txt"],
        ["system", "enumerate", "recipes/inputs/cycle.txt", "--max-total", "4"],
    ], ids=["coeffs", "rank", "enumerate"])
    def test_lengths_echoed_as_parsed(self, argv):
        # every command echoes the length type it read, not the text it was given
        report = invoke_json(["--json", *argv, "--lengths", "1,01,2"])
        assert report["inputs"]["lengths"] == [1, 1, 2]

    def test_rank_search_past_the_state_bound_is_input_error(self, monkeypatch):
        monkeypatch.setattr(words, "MAX_RANK_STATES", 5)
        _minimal_factor_cover.cache_clear()
        code, out, err = invoke(
            ["--json", "system", "enumerate", "recipes/inputs/cycle.txt", "--max-total", "4"]
        )
        assert code == 1
        assert out == ""
        assert "input error: the combinatorial rank search passed 5 states" in err

    def test_power_identity_past_the_letter_bound_is_input_error(self):
        code, out, err = invoke(
            ["--json", "powerid", "recipes/inputs/telescope.txt", "--indices", "1,20000"]
        )
        assert code == 1
        assert out == ""
        assert f"letters, more than {oracle.MAX_CANDIDATES}" in err

    def test_listing_past_the_image_bound_is_input_error(self, tmp_path):
        # 20 unknowns over one letter: 888,030 candidates pass the budget, but
        # 230,230 solutions of 20 images each would be listed
        f = tmp_path / "system.txt"
        f.write_text("x1 x2 = x2 x1\nx20 = x20\n")
        code, out, err = invoke(["--json", "system", "enumerate", str(f), "--alphabet", "1", "--max-total", "6"])
        assert code == 1
        assert out == ""
        assert f"the budget lists more than {oracle.MAX_CANDIDATES} solution images" in err

    def test_probe_past_the_type_bound_is_input_error(self, tmp_path):
        # 99 unknowns over one letter: a type holds one candidate, so only the types walked bound the probe
        f = tmp_path / "system.txt"
        f.write_text("x1 x2 = x2 x1\nx1 = x99\n")
        code, out, err = invoke(["--json", "system", "independent", str(f), "--alphabet", "1"])
        assert code == 1
        assert out == ""
        assert "input error: the probe walked 10102 length types of 99 unknowns without a witness" in err

    def test_unknown_flag(self):
        code, _, err = invoke(["encode", "--frobnicate", "1"])
        assert code == 1

    def test_bad_word(self):
        code, _, err = invoke(["encode", "10x"])
        assert code == 1

    def test_nonsolution_factorize_is_input_error(self, tmp_path):
        eqf = tmp_path / "eq.txt"
        eqf.write_text("x y = y x\n")
        hf = tmp_path / "h.txt"
        hf.write_text("x = 1\ny = 2\n")
        code, _, err = invoke(["factorize", str(eqf), str(hf)])
        assert code == 1

    @pytest.mark.parametrize("k, l", [("1", "9"), ("0", "2"), ("2", "2")])
    @pytest.mark.parametrize(
        "argv",
        [
            ["pair", "minor", "recipes/inputs/pair.txt"],
            ["pair", "cover", "recipes/inputs/pair.txt"],
            ["chain", "bound", "recipes/inputs/cycle.txt"],
        ],
        ids=["pair-minor", "pair-cover", "chain-bound"],
    )
    def test_unknown_pair_out_of_range_or_equal(self, argv, k, l):
        # both input files have three unknowns
        code, out, err = invoke(argv + ["-k", k, "-l", l])
        assert code == 1
        assert "-k and -l must be two different unknowns in 1..3" in err
        assert out == ""

    def test_failed_identity_exits_2(self, monkeypatch):
        # a nonzero residual for a real solution contradicts the residual theorem
        monkeypatch.setattr(wordeq.cli, "residual", lambda eq, h: IntPolynomial.one())
        code, out, err = invoke(RECIPES["eq-verify"])
        assert code == 2
        assert "theorem check failed" in err
        assert out == ""


def eager_parser():
    """The whole parser tree with every leaf built up front: the slow twin of ``build_parser``."""
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="machine-readable report",
    )
    root = _Parser(prog="wordeq", description=wordeq.cli.__doc__)
    root.add_argument("--json", action="store_true", help="machine-readable report")
    groups = {"": root.add_subparsers(dest="command", required=True)}
    for name, (help_text, arguments, handler) in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="subcommand", required=True
            )
        p = groups[group].add_parser(leaf, parents=[json_flag], help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(handler=handler)
    return root


def selected(parser, words):
    """The parser below ``parser`` that the command words ``words`` select."""
    for word in words:
        [action] = parser._subparsers._group_actions
        parser = action.choices[word]
    return parser


def outcome(argv):
    """``invoke`` with the elapsed time masked."""
    code, out, err = invoke(argv)
    return code, re.sub(r'(elapsed_ms"?: )[0-9.]+', r"\g<1>0", out), err


USAGE_ARGVS = {
    "no-command": [],
    "json-only": ["--json"],
    "missing-word": ["encode"],
    "missing-required-option": ["eq", "coeffs", "recipes/inputs/cycle.txt"],
    "missing-k-and-l": ["--json", "pair", "minor", "recipes/inputs/pair.txt"],
    "unknown-flag": ["encode", "--frobnicate", "1"],
    "unknown-flag-in-group": ["system", "enumerate", "recipes/inputs/cycle.txt", "--frobnicate"],
    "unknown-command": ["nosuch"],
    "unknown-leaf": ["system", "nosuch"],
    "bad-int": ["system", "enumerate", "recipes/inputs/cycle.txt", "--max-total", "z"],
    "bare-group": ["system"],
    "bare-group-json": ["--json", "chain"],
    "extra-argument": ["commute", "12", "1212", "12"],
    "json-before": ["--json", "chain", "bound", "recipes/inputs/cycle.txt", "-k", "1", "-l", "2"],
    "json-after": ["chain", "bound", "recipes/inputs/cycle.txt", "-k", "1", "-l", "2", "--json"],
    "json-twice": ["--json", "encode", "1212", "--json"],
    "human": ["system", "enumerate", "recipes/inputs/cycle.txt", "--max-total", "4"],
    "root-help": ["--help"],
    "group-help": ["pair", "-h"],
    "leaf-help": ["system", "enumerate", "--help"],
}


class TestLazyParser:
    """The parser tree with leaves built on first use, against the eager twin."""

    @pytest.mark.parametrize("words", [[], *([g] for g in _GROUPS), *(n.split() for n in COMMANDS)],
                             ids=lambda words: " ".join(words) or "root")
    def test_help_matches_the_eager_tree(self, words):
        assert selected(wordeq.cli.build_parser(), words).format_help() == \
            selected(eager_parser(), words).format_help()

    @pytest.mark.parametrize("argv", list(USAGE_ARGVS.values()), ids=list(USAGE_ARGVS))
    def test_run_matches_the_eager_tree(self, argv, monkeypatch):
        lazy = outcome(argv)
        monkeypatch.setattr(wordeq.cli, "build_parser", eager_parser)
        assert lazy == outcome(argv)

    @pytest.mark.parametrize("argv", [["--help"], ["system", "enumerate", "-h"]], ids=["root", "leaf"])
    def test_help_returns_its_exit_code(self, argv):
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: wordeq")

    @pytest.mark.parametrize("argv, leaf", [
        (["--json", "encode", "1212"], ["wordeq encode"]),
        (["system", "graph", "recipes/inputs/cycle.txt", "--json"], ["wordeq system graph"]),
        (["system", "nosuch"], []),
    ], ids=["top-level", "in-group", "unknown-leaf"])
    def test_builds_only_the_selected_leaf(self, argv, leaf, monkeypatch):
        built = []
        init = _Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(_Parser, "__init__", counting)
        outcome(argv)
        assert built == ["wordeq", "wordeq eq", "wordeq pair", "wordeq system", "wordeq chain", *leaf]


class TestReportShape:
    def test_json_round_trip(self):
        report = invoke_json(["--json", "pair", "cover", "recipes/inputs/pair.txt"])
        assert json.loads(json.dumps(report)) == report
        assert list(report.keys()) == ["command", "inputs", "results", "checks", "elapsed_ms"]

    def test_reports_are_deterministic_modulo_timing(self):
        a = invoke_json(["--json", "pair", "cover", "recipes/inputs/pair.txt"])
        b = invoke_json(["--json", "pair", "cover", "recipes/inputs/pair.txt"])
        a["elapsed_ms"] = b["elapsed_ms"] = 0
        assert a == b


def random_json_value(rng, depth=0):
    """A nested value of everything json encodes, with empty containers at every depth."""
    kind = rng.randrange(8 if depth < 4 else 4)
    if kind == 0:
        return "".join(rng.choice(['a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\x00', '\x1f',
                                   '\x7f', 'é', 'ß', '€', '\u2028', '😀'])
                       for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.choice([True, False, None, 0.5, -1.25e-7, 1e300, float("inf"), float("nan")])
    if kind in (2, 3):
        return rng.choice([0, -1, 7, 2**64, -(10**40) - 3, rng.randint(-(2**70), 2**70)])
    size = rng.randrange(4)
    if kind in (4, 5):
        items = [random_json_value(rng, depth + 1) for _ in range(size)]
        return tuple(items) if kind == 5 else items
    keys = ["a", "é", 'q"', "", "x\ny", 1, -2, True, None]
    return {rng.choice(keys): random_json_value(rng, depth + 1) for _ in range(size)}


class TestJsonWriter:
    def test_matches_json_dumps_on_random_values(self):
        rng = random.Random(8080)
        for _ in range(2000):
            value = random_json_value(rng)
            assert _json_text(value) == json.dumps(value, indent=2)

    def test_matches_json_dumps_on_edge_values(self):
        for value in ({}, [], (), {"a": {}}, [[]], [{}, [[], {}]], {"k": [[], {"e": []}]}, "", 0):
            assert _json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("path", sorted((ROOT / "recipes" / "golden").glob("*.json")),
                             ids=lambda p: p.stem)
    def test_matches_json_dumps_on_golden_reports(self, path):
        text = path.read_text()
        value = json.loads(text)
        assert _json_text(value) == json.dumps(value, indent=2)
        assert _json_text(value) + "\n" == text

    @pytest.mark.parametrize("value", [
        {1, 2}, [1, {"a": {2}}], {(1, 2): 3}, {"a": [object()]}, Fraction(1, 2), b"12",
    ], ids=["set", "nested-set", "tuple-key", "object", "fraction", "bytes"])
    def test_raises_type_error_where_json_dumps_does(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _json_text(value)


def dict_entries(sols):
    """The report entries of a solution set as dicts, the shape json.dumps is given."""
    return [
        {"images": [w.to_text() for w in h], "length_type": [len(w) for w in h], "rank": r}
        for h, r in zip(sols.solutions, sols.ranks)
    ]


def solution_sets():
    [cycle], _ = wordeq.cli.parse_system((ROOT / "recipes" / "inputs" / "cycle.txt").read_text())
    ranked = enumerate_solutions([cycle], EnumerationBudget((1, 2), 5))
    wide = enumerate_solutions([cycle], EnumerationBudget((1, 12), 4))
    free = enumerate_solutions([], EnumerationBudget((3, 11), 3), n=2)
    # x4 = eps leaves x1, x2 and x3 free, so (1, 1, 1, 0) has generic rank 3
    [cycle4], _ = wordeq.cli.parse_system("x1 x2 x3 x4 = x4 x1 x2 x3\n")
    four = enumerate_solutions([cycle4], EnumerationBudget((1, 2, 3), 4))
    assert 3 in four.ranks
    return {
        "ranked": ranked,
        "rank-1": ranked.of_rank(1),
        "lengths": ranked.of_length_type((1, 1, 2)),
        "empty": ranked.of_rank(3),
        "letters-past-9": wide,
        "two-digit-letters": enumerate_solutions([cycle], EnumerationBudget((10, 11), 4)),
        "one-letter": enumerate_solutions([cycle], EnumerationBudget((1,), 6)),
        "no-equation": free.nonerasing(),
        "four-unknowns": four,
    }


class TestSolutionEntries:
    """The solution list, written from the set, against json.dumps of its dict entries."""

    @pytest.mark.parametrize("name", sorted(solution_sets()))
    def test_compact_texts(self, name):
        sols = solution_sets()[name]
        expected = [json.dumps(entry) for entry in dict_entries(sols)]
        assert sols.entry_texts() == expected
        assert sols.to_json_lines() == "\n".join(expected)

    @pytest.mark.parametrize("name", sorted(solution_sets()))
    def test_indented_report(self, name):
        sols = solution_sets()[name]
        entries = dict_entries(sols)
        for wrap in (
            lambda v: v,
            lambda v: {"results": {"solution_count": 1, "solutions": v, "jsonl": ""}},
            lambda v: [[{"a": [v, v]}], v],
        ):
            assert _json_text(wrap(sols)) == json.dumps(wrap(entries), indent=2)

    @pytest.mark.parametrize("name", sorted(solution_sets()))
    def test_human_lines(self, name):
        sols = solution_sets()[name]
        entries = dict_entries(sols)

        def report(solutions):
            return {"command": "system enumerate", "inputs": {}, "results": {"solutions": solutions},
                    "checks": [], "elapsed_ms": 0}

        lines = _human_lines(report(sols))
        expected = [f"  solutions  - {json.dumps(entry)}" for entry in entries[:20]]
        assert lines[3:3 + len(expected)] == expected
        assert lines == _human_lines(report(entries))
        if not entries:
            assert lines[2] == "  solutions: []"

    def test_human_lines_write_only_the_listed_entries(self, monkeypatch):
        [cycle], _ = wordeq.cli.parse_system((ROOT / "recipes" / "inputs" / "cycle.txt").read_text())
        written = []
        to_text = words.Word.to_text
        monkeypatch.setattr(words.Word, "to_text", lambda w: written.append(w) or to_text(w))
        for alphabet in ((1, 2), (1, 12)):
            written.clear()
            sols = enumerate_solutions([cycle], EnumerationBudget(alphabet, 8))
            lines = _human_lines({"command": "system enumerate", "inputs": {},
                                  "results": {"solutions": sols}, "checks": [], "elapsed_ms": 0})
            assert lines[-2] == f"  solutions    ... {len(sols) - 20} more"
            # the report is written from the blocks: no solution is spelled out as a morphism
            assert "solutions" not in vars(sols)
            listed = {w for h in sols.solutions[:20] for w in h}
            assert len({w for h in sols for w in h}) > 10 * len(listed)
            # over letters 1-9 the entries come from templates and no word is quoted; past 9,
            # each word of the 20 listed entries is quoted once, and no other word
            assert sorted(written) == ([] if alphabet == (1, 2) else sorted(listed))

    @pytest.mark.parametrize("extra", [
        [], ["--rank", "1"], ["--lengths", "1,1,2"], ["--rank", "2", "--lengths", "2,1,3"],
        ["--rank", "3"], ["--alphabet", "1,12", "--max-total", "4"],
    ], ids=["all", "rank", "lengths", "rank-and-lengths", "empty", "letters-past-9"])
    def test_command_reports(self, extra):
        argv = ["system", "enumerate", "recipes/inputs/cycle.txt", "--max-total", "6", "--jsonl"]
        code, text, err = invoke(["--json", *argv, *extra])
        assert code == 0, err
        report = json.loads(text)
        assert text == json.dumps(report, indent=2) + "\n"
        lines = report["results"]["jsonl"].splitlines()
        assert lines == [json.dumps(entry) for entry in report["results"]["solutions"]]
        code, text, err = invoke([*argv, *extra])
        assert code == 0, err
        # the human report of the same results, its elapsed time aside
        expected = "\n".join(_human_lines(report)[:-1]) + "\nelapsed_ms: "
        assert text[:text.rindex("elapsed_ms: ") + 12] == expected


class TestEntryTextsOnSeededSystems:
    """entry_texts against json.dumps of the dict entries, over seeded systems, views, depths and stops."""

    ALPHABETS = ((1,), (1, 2), (1, 2, 3), (2, 9), (2, 10))

    @staticmethod
    def assert_texts_match(sols):
        entries = dict_entries(sols)
        for depth in (None, 0, 1, 2, 3):
            if depth is None:
                expected = [json.dumps(entry) for entry in entries]
            else:
                # an entry nested depth levels deep: every line after its first is indented that much more
                expected = [json.dumps(entry, indent=2).replace("\n", "\n" + "  " * depth) for entry in entries]
            for stop in (None, 0, 1, 5, 20):
                assert sols.entry_texts(depth, stop) == expected[:stop], (sols.system, depth, stop)

    def test_views_of_seeded_systems(self):
        rng = random.Random(2819)
        seen = set()
        for trial in range(150):
            alphabet = self.ALPHABETS[trial % len(self.ALPHABETS)]
            n = rng.randint(1, 4)
            system = [random_equation(rng, n) for _ in range(rng.randint(1, 2))]
            sols = enumerate_solutions(system, EnumerationBudget(alphabet, rng.randint(0, 4)))
            views = [sols, *(sols.of_rank(r) for r in range(4)), sols.of_length_type(rng.choice(sols.blocks).lt)]
            for view in views:
                self.assert_texts_match(view)
            features = {
                "eps image": any(not all(b.lt) for b in sols.blocks),
                "all-zero type": any(not any(b.lt) for b in sols.blocks),
                "ranks differ in a block": any(len(set(b.ranks)) > 1 for b in sols.blocks),
                "narrowed block": any(len(b.assignments) < len(alphabet) ** b.record.count
                                      for view in views for b in view.blocks),
            }
            seen.update(name for name, present in features.items() if present)
        assert seen == {"eps image", "all-zero type", "ranks differ in a block", "narrowed block"}

    def test_blocks_of_ten_or_more_classes(self):
        # two-digit class tokens: a token for class 1 must not match inside one for class 10 or more
        [swapped], _ = wordeq.cli.parse_system("x1 x2 x3 = x1 x3 x2\n")
        for system, n, alphabet, top in (([], 1, (1, 2), 10), ([], 2, (1,), 12), ([swapped], 3, (1,), 14)):
            sols = enumerate_solutions(system, EnumerationBudget(alphabet, top), n=n)
            assert max(b.record.count for b in sols.blocks) >= 10
            for view in (sols, sols.of_rank(1), sols.of_rank(2)):
                self.assert_texts_match(view)

    def test_rendered_without_the_traced_product(self, monkeypatch):
        # perfbench's tracer swaps oracle.itertools for a counting product: rendering must not call it
        [cycle], _ = wordeq.cli.parse_system("x y z = z x y\n")
        sols = enumerate_solutions([cycle], EnumerationBudget((1, 2), 6))
        views = [sols, sols.of_rank(1), sols.of_rank(2)]
        expected = [view.entry_texts(2) for view in views]
        monkeypatch.setattr(oracle, "itertools", None)
        assert [view.entry_texts(2) for view in views] == expected


def test_closed_pipe_exits_without_traceback():
    # the report (about 1 MB) is far larger than a pipe buffer, so printing it
    # meets the closed pipe
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["--json", "system", "enumerate", "recipes/inputs/cycle.txt", "--max-total", "8"]
    proc = subprocess.Popen([sys.executable, "-m", "wordeq.cli", *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert b"Traceback" not in err, err.decode()
    assert proc.returncode == 1


def test_budget_past_the_candidate_bound_exits_before_any_scan():
    # about 1e12 candidates: a scan would not end within the timeout
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["--json", "system", "enumerate", "recipes/inputs/cycle.txt", "--max-total", "30"]
    proc = subprocess.run([sys.executable, "-m", "wordeq.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=10)
    assert proc.returncode == 1
    assert f"more than {oracle.MAX_CANDIDATES}".encode() in proc.stderr


class TestRecipes:
    @pytest.mark.parametrize("name", sorted(RECIPES))
    def test_recipe_matches_golden(self, name):
        report = invoke_json(RECIPES[name])
        report["elapsed_ms"] = 0
        # compared as text, so key order is pinned too
        golden = (ROOT / "recipes" / "golden" / f"{name}.json").read_text()
        assert json.dumps(report, indent=2) + "\n" == golden


def test_readme_lists_every_command():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```text", 1)[1].split("```", 1)[0]
    # a command name is the lowercase words after "wordeq"; arguments are uppercase or digits
    listed = [name.strip() for name in re.findall(r"^wordeq((?: [a-z]+)+)", block, re.M)]
    assert listed == list(COMMANDS)
