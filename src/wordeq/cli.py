"""Command-line front end; every analysis is a subcommand with text or JSON output.

Exit codes: 0 success, 1 malformed input, 2 a guaranteed identity failed
(which indicates an implementation bug, not bad data).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from functools import cached_property
from json.encoder import encode_basestring_ascii

from .covers import (
    chain_bound,
    chain_bound_corollary,
    chain_check,
    cover_pair,
    graph_components,
)
from .equations import (
    balance_profile,
    coefficient_matrix,
    coefficient_row,
    parse_system,
    rank_polymatrix,
    residual,
)
from .errors import InputFormatError, TheoremCheckError
from .genpoly import minor_t
from .oracle import (
    EnumerationBudget,
    SolutionSet,
    enumerate_solutions,
    independence_check,
    power_identity_check,
)
from .polynomials import encode_poly, encode_ratfun, fine_wilf_check
from .transforms import factorize_solution
from .words import (
    LengthType,
    commute_check,
    parse_digits,
    parse_morphism,
    parse_word,
    primitive_root,
)


class _ArgumentError(Exception):
    """A usage problem found by argparse."""


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as input errors (exit 1)."""

    def error(self, message):
        raise _ArgumentError(message)


class _Report:
    """The inputs, results and checks of one report, in the order a handler fills them."""

    def __init__(self):
        self.inputs: dict = {}
        self.results: dict = {}
        self.checks: list[dict] = []

    def check(self, name: str, passed: bool, failure: str | None = None):
        """Record a check; given a failure message, a failed check aborts with exit 2."""
        self.checks.append({"name": name, "passed": passed})
        if failure is not None and not passed:
            raise TheoremCheckError(failure, report=self.results)


# full name ("encode", "eq rank") -> (help, argument specs, handler), in --help order
COMMANDS: dict[str, tuple] = {}

_GROUPS = {
    "eq": "single-equation analyses",
    "pair": "two-equation analyses",
    "system": "system analyses",
    "chain": "chain-length analyses",
}


def _arg(*flags, **kwargs):
    """One argument spec, as passed to ``add_argument``."""
    return flags, kwargs


def _command(name: str, help_text: str, *arguments):
    """Declare the subcommand ``name`` with its help text and argument specs."""

    def declare(handler):
        COMMANDS[name] = (help_text, arguments, handler)
        return handler

    return declare


# --json is accepted both before and after the subcommand; the trailing
# copy suppresses its default so it cannot shadow a leading one
_JSON_ARG = _arg("--json", action="store_true", default=argparse.SUPPRESS,
                 help="machine-readable report")


class _Leaf:
    """A subcommand's parser, built from its ``COMMANDS`` entry on first use.

    argparse keeps a leaf's name and help text apart from its parser, for
    choices, usage errors and the group's --help; of the parser itself it
    only calls ``parse_known_args``, on the one leaf a query selects.
    """

    def __init__(self, command: str, kwargs: dict):
        self._command = command
        self._kwargs = kwargs  # add_parser's keyword arguments

    @cached_property
    def _parser(self) -> _Parser:
        _, arguments, handler = COMMANDS[self._command]
        parser = _Parser(**self._kwargs)
        for flags, kwargs in (_JSON_ARG, *arguments):
            parser.add_argument(*flags, **kwargs)
        parser.set_defaults(handler=handler)
        return parser

    def __getattr__(self, name):
        return getattr(self._parser, name)


def _subparser(command: str | None = None, **kwargs):
    """The parser ``add_parser`` makes: a group's at once, a leaf's as a ``_Leaf``."""
    return _Parser(**kwargs) if command is None else _Leaf(command, kwargs)


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(prog="wordeq", description=__doc__)
    root.add_argument("--json", action="store_true", help="machine-readable report")
    groups = {"": root.add_subparsers(dest="command", required=True, parser_class=_subparser)}
    for name, (help_text, _, _) in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="subcommand", required=True, parser_class=_subparser
            )
        groups[group].add_parser(leaf, help=help_text, command=name)
    return root


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except (FileNotFoundError, NotADirectoryError):
        raise InputFormatError(f"no such file: {path}") from None


def _int_list(text: str, what: str) -> list[int]:
    """The comma-separated decimal numbers of an option's text; ``what`` names it in the error."""
    try:
        return [parse_digits(p.strip()) for p in text.split(",")]
    except InputFormatError as exc:
        shown = text if len(text) <= 20 else text[:20] + "..."
        raise InputFormatError(f"bad {what} {shown!r}: {exc}") from None


def _parse_lengths(text: str, n: int) -> LengthType:
    lt = LengthType(_int_list(text, "length vector"))
    if len(lt) != n:
        raise InputFormatError("length type size does not match the unknown count")
    return lt


def _words(args, out: _Report, *dests: str, empty_error: str | None = None):
    """Parse and echo the word arguments ``dests``; given ``empty_error``, reject empty ones."""
    words = [parse_word(getattr(args, dest)) for dest in dests]
    if empty_error is not None and not all(words):
        raise InputFormatError(empty_error)
    for dest, w in zip(dests, words):
        out.inputs[dest] = w.to_text()
    return words


def _load_system(path: str, out: _Report, count: int | None = None):
    """Parse a system file and echo it as "system", or require exactly
    ``count`` (1 or 2) equations and echo them as "equation" or "equations"."""
    eqs, names = parse_system(_read(path))
    texts = [e.to_text(names) for e in eqs]
    if count is None:
        out.inputs["system"] = texts
    elif len(eqs) != count:
        expected = "one equation" if count == 1 else "two equations"
        raise InputFormatError(f"{path}: expected exactly {expected}, found {len(eqs)}")
    elif count == 1:
        out.inputs["equation"] = texts[0]
    else:
        out.inputs["equations"] = texts
    return eqs, names


def _load_morphism(path: str, names: list[str], out: _Report):
    """Parse a morphism file over the unknowns ``names`` and echo it as "morphism"."""
    h = parse_morphism(_read(path), names=names, n=len(names))
    out.inputs["morphism"] = {names[i]: h[i].to_text() for i in range(h.n)}
    return h


_BUDGET_ARGS = (
    _arg("--alphabet", default="1,2", help="comma-separated letters"),
    _arg("--max-total", type=int, default=10, help="total image length bound"),
)


def _budget(args, out: _Report) -> EnumerationBudget:
    """The enumeration budget of --alphabet and --max-total, echoed as "budget"."""
    alphabet = tuple(_int_list(args.alphabet, "alphabet"))
    budget = EnumerationBudget(alphabet=alphabet, max_total_length=args.max_total)
    out.inputs["budget"] = budget.describe()
    return budget


def _unknown_args(required: bool):
    """The argument specs of -k and -l."""
    return tuple(_arg(flag, type=int, required=required) for flag in ("-k", "-l"))


def _unknown_pair(args, n: int) -> tuple[int, int] | None:
    """The unknowns -k and -l, both given or neither: two different indices in 1..n."""
    if (args.k is None) != (args.l is None):
        raise InputFormatError("give both -k and -l or neither")
    if args.k is None:
        return None
    if not (1 <= args.k <= n and 1 <= args.l <= n) or args.k == args.l:
        raise InputFormatError(
            f"-k and -l must be two different unknowns in 1..{n}, got {args.k} and {args.l}"
        )
    return args.k, args.l


@_command("encode", "polynomial encoding of a word", _arg("word"))
def _encode(args, out):
    [w] = _words(args, out, "word")
    out.results["polynomial"] = encode_poly(w).to_text()


@_command("ratfun", "reduced rational encoding of a nonempty word", _arg("word"))
def _ratfun(args, out):
    [w] = _words(args, out, "word", empty_error="the rational encoding needs a nonempty word")
    out.results["rational_function"] = encode_ratfun(w).to_text()


@_command("primroot", "primitive root of a nonempty word", _arg("word"))
def _primroot(args, out):
    [w] = _words(args, out, "word", empty_error="the primitive root needs a nonempty word")
    root = primitive_root(w)
    out.results["primitive_root"] = root.to_text()
    out.results["exponent"] = len(w) // len(root)


@_command("commute", "whether two words share a primitive root", _arg("u"), _arg("v"))
def _commute(args, out):
    u, v = _words(args, out, "u", "v", empty_error="commutation needs nonempty words")
    out.results["commute"] = commute_check(u, v)
    out.results["ratfun_equal"] = encode_ratfun(u) == encode_ratfun(v)
    out.check(
        "root and rational encodings agree",
        out.results["commute"] == out.results["ratfun_equal"],
        "commutation criteria disagree",
    )


@_command("finewilf", "periodicity agreement test for two words",
          _arg("u"), _arg("v"), _arg("len", type=int))
def _finewilf(args, out):
    u, v = _words(args, out, "u", "v", empty_error="the periodicity test needs nonempty words")
    out.inputs["len"] = args.len
    verdict = fine_wilf_check(u, v, args.len)
    out.results.update(
        bound=verdict.bound,
        agreement=verdict.agreement,
        premise_holds=verdict.premise_holds,
        roots_equal=verdict.roots_equal,
    )


@_command("eq coeffs", "coefficient polynomials at a length type",
          _arg("eqfile"), _arg("--lengths", required=True))
def _eq_coeffs(args, out):
    [eq], names = _load_system(args.eqfile, out, count=1)
    lt = _parse_lengths(args.lengths, eq.n)
    out.inputs["lengths"] = list(lt)
    out.results["coefficients"] = {
        name: q.to_text() for name, q in zip(names, coefficient_row(eq, lt))
    }


@_command("eq rank", "rank of the coefficient matrix of a system",
          _arg("systemfile"), _arg("--lengths", required=True))
def _eq_rank(args, out):
    eqs, _ = _load_system(args.systemfile, out)
    lt = _parse_lengths(args.lengths, eqs[0].n)
    out.inputs["lengths"] = list(lt)
    matrix = coefficient_matrix(eqs, lt)
    out.results["rank"] = rank_polymatrix(matrix)
    out.results["matrix"] = [[p.to_text() for p in row] for row in matrix.entries]


@_command("eq verify", "test a morphism against an equation", _arg("eqfile"), _arg("morphismfile"))
def _eq_verify(args, out):
    [eq], names = _load_system(args.eqfile, out, count=1)
    h = _load_morphism(args.morphismfile, names, out)
    res = residual(eq, h)
    solves = eq.solved_by(h)
    out.results["residual"] = res.to_text()
    out.results["solves"] = solves
    out.results["length_type"] = list(h.length_type())
    out.check(
        "zero residual iff solution", res.is_zero == solves,
        "residual and direct verdicts disagree",
    )


@_command("pair minor", "2x2 minor of the symbolic coefficient matrix",
          _arg("pairfile"), *_unknown_args(required=True))
def _pair_minor(args, out):
    [eq1, eq2], _ = _load_system(args.pairfile, out, count=2)
    k, l = _unknown_pair(args, eq1.n)
    out.inputs.update(k=k, l=l)
    t = minor_t(eq1, eq2, k, l)
    out.results["minor"] = t.to_text()
    out.results["term_count"] = t.term_count


@_command("pair cover", "hyperplane cover of maximal-rank length types",
          _arg("pairfile"), _arg("--full-pairing", action="store_true"),
          *_unknown_args(required=False))
def _pair_cover(args, out):
    [eq1, eq2], _ = _load_system(args.pairfile, out, count=2)
    cover = cover_pair(eq1, eq2, kl=_unknown_pair(args, eq1.n), full_pairing=args.full_pairing)
    out.results.update(cover.to_report())
    if not args.full_pairing:
        out.check("plane count within bound", len(cover.planes) <= cover.bound)


@_command("system graph", "components of the leading-unknown graph", _arg("systemfile"))
def _system_graph(args, out):
    eqs, names = _load_system(args.systemfile, out)
    out.results["components"] = graph_components(eqs)
    out.results["edges"] = [[names[e.lhs[0] - 1], names[e.rhs[0] - 1]] for e in eqs]


@_command("system enumerate", "exhaustive solutions within a budget",
          _arg("systemfile"), *_BUDGET_ARGS, _arg("--rank", type=int), _arg("--lengths"),
          _arg("--jsonl", action="store_true",
               help="add one JSON line per solution to the report, as the string results.jsonl"))
def _system_enumerate(args, out):
    eqs, _ = _load_system(args.systemfile, out)
    budget = _budget(args, out)
    lt = None if args.lengths is None else _parse_lengths(args.lengths, eqs[0].n)
    sols = enumerate_solutions(eqs, budget)
    if lt is not None:
        sols = sols.of_length_type(lt)
        out.inputs["lengths"] = list(lt)
    if args.rank is not None:
        sols = sols.of_rank(args.rank)
        out.inputs["rank"] = args.rank
    out.results["candidates_visited"] = sols.candidates_visited
    out.results["solution_count"] = len(sols)
    # the report writers render the entries from the set itself
    out.results["solutions"] = sols
    if args.jsonl:
        out.results["jsonl"] = sols.to_json_lines()


@_command("system independent", "leave-one-out independence probe",
          _arg("systemfile"), *_BUDGET_ARGS)
def _system_independent(args, out):
    eqs, names = _load_system(args.systemfile, out)
    out.results.update(independence_check(eqs, _budget(args, out), names))


@_command("chain bound", "chain bound from occurrence counts",
          _arg("eqfile"), *_unknown_args(required=True))
def _chain_bound(args, out):
    [eq], _ = _load_system(args.eqfile, out, count=1)
    k, l = _unknown_pair(args, eq.n)
    out.inputs.update(k=k, l=l)
    out.results["bound"] = chain_bound(eq, k, l)
    out.results["three_unknown_chain_bound"] = chain_bound_corollary(eq, k, l)
    out.results["balance_profile"] = list(balance_profile(eq))


@_command("chain check", "strict descent of prefix solution sets",
          _arg("systemfile"), *_BUDGET_ARGS)
def _chain_check(args, out):
    eqs, _ = _load_system(args.systemfile, out)
    out.results.update(chain_check(eqs, _budget(args, out)))


# a comma outside brackets: no "]" follows it before the next "["
_SPEC_COMMA = re.compile(r",(?![^\[]*\])")


def _parse_powerid_spec(text: str):
    """The word lists of the keys s, t, u and v, one "key: word, word, ..." line each."""
    parts = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise InputFormatError(f"line {lineno}: expected 'key: words', got {raw!r}")
        key, _, rest = line.partition(":")
        key = key.strip()
        if key not in ("s", "t", "u", "v"):
            raise InputFormatError(f"line {lineno}: unknown key {key!r}")
        if key in parts:
            raise InputFormatError(f"line {lineno}: duplicate key {key!r}")
        words = [parse_word(w) for w in _SPEC_COMMA.split(rest)] if rest.strip() else []
        parts[key] = words
    missing = [k for k in ("s", "t", "u", "v") if k not in parts]
    if missing:
        raise InputFormatError(f"power identity file lacks keys {missing}")
    return parts


@_command("powerid", "power identity certificate",
          _arg("specfile"), _arg("--indices", required=True))
def _powerid(args, out):
    parts = _parse_powerid_spec(_read(args.specfile))
    indices = set(_int_list(args.indices, "index set"))
    out.inputs["spec"] = {k: [w.to_text() for w in ws] for k, ws in parts.items()}
    out.inputs["indices"] = sorted(indices)
    out.results.update(
        power_identity_check(parts["s"], parts["t"], parts["u"], parts["v"], indices)
    )


@_command("factorize", "factor a solution into elementary steps",
          _arg("eqfile"), _arg("morphismfile"))
def _factorize(args, out):
    [eq], names = _load_system(args.eqfile, out, count=1)
    h = _load_morphism(args.morphismfile, names, out)
    # a ValueError (h does not solve eq) is reported by run as an input error
    fact = factorize_solution(eq, h)
    out.results["script"] = fact.to_text(names)
    out.results["erased"] = fact.s
    out.results["singular_steps"] = fact.t
    out.results["rank_bound"] = fact.rank_bound
    out.check("recomposition matches", fact.recompose() == h)


def _human_lines(report: dict) -> list[str]:
    lines = [f"command: {report['command']}"]
    for key, value in report["inputs"].items():
        lines.append(f"  {key}: {value}")
    lines.append("results:")

    def listing(prefix, size, texts):
        """A list of ``size`` entries as its size and ``texts``, the JSON texts of its first 20."""
        lines.append(f"{prefix}: [{size} entries]" if size else f"{prefix}: []")
        lines.extend(f"{prefix}  - {text}" for text in texts)
        if size > 20:
            lines.append(f"{prefix}    ... {size - 20} more")

    def emit(prefix, value):
        if isinstance(value, dict):
            lines.append(f"{prefix}:")
            for k, v in value.items():
                emit(f"{prefix}  {k}", v)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            listing(prefix, len(value), [json.dumps(v) for v in value[:20]])
        elif isinstance(value, SolutionSet):
            listing(prefix, len(value), value.entry_texts(stop=20))
        else:
            lines.append(f"{prefix}: {value}")

    for key, value in report["results"].items():
        emit(f"  {key}", value)
    for check in report["checks"]:
        mark = "ok" if check["passed"] else "FAILED"
        lines.append(f"check [{mark}] {check['name']}")
    lines.append(f"elapsed_ms: {report['elapsed_ms']}")
    return lines


def _key_text(key) -> str:
    """An object key's JSON text: a string quoted, and a number, bool or None
    key coerced as json coerces it, with json's TypeError for any other key."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    return json.dumps({key: 0})[1:-4]


def _json_text(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for ``value`` nested ``depth`` levels deep.

    A nonempty list, tuple or dict is written one item a line, each item by
    this function one level deeper; a nonempty ``SolutionSet`` is written
    from the entry texts it renders at that depth.  Anything else json
    writes on one line, and raises its TypeError for what it cannot encode.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    if isinstance(value, SolutionSet):
        if not value:
            return "[]"
        brackets, items = "[]", value.entry_texts(depth + 1)
    elif isinstance(value, dict) and value:
        brackets = "{}"
        items = [_key_text(k) + ": " + _json_text(v, depth + 1) for k, v in value.items()]
    elif isinstance(value, (list, tuple)) and value:
        brackets, items = "[]", [_json_text(v, depth + 1) for v in value]
    else:
        return json.dumps(value)
    outer = "\n" + "  " * depth
    inner = outer + "  "
    return brackets[0] + inner + ("," + inner).join(items) + outer + brackets[1]


def run(argv) -> int:
    """Entry point used by tests; returns the process exit code."""
    parser = build_parser()
    started = time.perf_counter()
    out = _Report()
    try:
        args = parser.parse_args(argv)
        args.handler(args, out)
    except SystemExit as exc:
        # argparse's help action exits once it has printed the help text
        return exc.code
    except _ArgumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except TheoremCheckError as exc:
        print(f"theorem check failed: {exc}", file=sys.stderr)
        return 2
    except (InputFormatError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    elapsed = round((time.perf_counter() - started) * 1000.0, 3)
    command = " ".join(
        [args.command] + ([args.subcommand] if getattr(args, "subcommand", None) else [])
    )
    report = {
        "command": command,
        "inputs": out.inputs,
        "results": out.results,
        "checks": out.checks,
        "elapsed_ms": elapsed,
    }
    if args.json:
        print(_json_text(report))
    else:
        print("\n".join(_human_lines(report)))
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): point stdout at devnull so
        # the flush at interpreter exit cannot fail again, as in the "Note on
        # SIGPIPE" of Python's signal documentation
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
