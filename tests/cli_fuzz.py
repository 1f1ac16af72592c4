"""Seeded argvs for every wordeq command, and a runner that checks how each query ends.

A query must exit 0 or 1, raise nothing out of ``wordeq.cli.run`` and end
within a time cap.  The inputs mix good and bad ones: random and bracketed
words, long digit runs, digits outside ASCII, system files in both name
styles with stray lines and large indices, morphism files, budgets and
power identity specs with bracketed words.

tests/test_cli.py runs a short sample; for a longer seeded run:

    PYTHONPATH=src python tests/cli_fuzz.py SEED [QUERIES]
"""

import io
import random
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from wordeq.cli import COMMANDS, run

LONG_DIGITS = "9" * 5000

# words for the word commands and for morphism and spec files; a callable draws one
WORDS = (
    *[lambda rng: "".join(rng.choice("12") for _ in range(rng.randint(1, 12)))] * 4,
    *[lambda rng: "[" + ",".join(str(rng.randint(1, 12)) for _ in range(rng.randint(0, 4))) + "]"] * 2,
    "eps", "0", "12a", "[10,", "²", "١٢", "[" + LONG_DIGITS + "]", "1" * 300,
)

# comma lists for --lengths, --alphabet and --indices, each with its good draw first
LISTS = {
    "lengths": lambda rng: ",".join(str(rng.randint(0, 3)) for _ in range(rng.randint(1, 4))),
    "alphabet": lambda rng: rng.choice(("1", "1,2", "12", "1,12")),
    "indices": lambda rng: ",".join(str(i) for i in rng.sample(range(6), rng.randint(1, 4))),
}
BAD_LISTS = ("", "1,,2", "a", "-1,2", "1,٢", LONG_DIGITS, "1," + LONG_DIGITS, "0")

SPECS = (
    "s: 1, eps\nu: 21\nt: eps, 1\nv: 12\n",
    "s: [10], eps\nu: [2,10]\nt: eps, [10]\nv: [10,2]\n",
    "s: [10,2], eps\nu: 1\nt: eps, [10,2]\nv: 1\n",
    "s: 1, eps\ns: 1, eps\nu: 21\nt: eps, 1\nv: 12\n",
    "s: 1, eps\nu: 21\nt: eps, 1\n",
    "s: 1, eps\nu: [2,1\nt: eps, 1\nv: 12\n",
    "s: 1, eps\nw: 2\n",
)


def _draw(rng, choices):
    choice = rng.choice(choices)
    return choice(rng) if callable(choice) else choice


def _side(rng, n, letters):
    if rng.random() < 0.1:
        return "eps"
    names = [letters[i] if letters else f"x{i + 1}" for i in range(n)]
    return " ".join(rng.choice(names) for _ in range(rng.randint(1, 4)))


def _system_text(rng) -> str:
    n = rng.randint(1, 4)
    letters = "xyzw" if rng.random() < 0.4 else None
    lines = [f"{_side(rng, n, letters)} = {_side(rng, n, letters)}" for _ in range(rng.randint(1, 3))]
    if letters and rng.random() < 0.5:
        lines.insert(0, "unknowns: " + " ".join(letters[:n]))
    return "\n".join(lines) + "\n"


# system files with fixed texts; each run adds random ones
SYSTEMS = (
    "x1 x2 x3 = x3 x1 x2\nx1 x2 x1 x3 x2 x3 = x3 x1 x3 x2 x1 x2\n",
    "unknowns: x y z\nx y z = z x y\n",
    "xyz = zxy\n",
    "x1x2 = x2x1\n",
    "x1 x2 = x2 x1\nfoo\n",
    "= x1\n",
    "x1 x2 = x2 x1  # a comment\n\n",
    "unknowns:\nx = x\n",
    "",
    "x1 x2 = x2 x1\nx1 = x2000\n",
    "x1 x2 = x2 x1\nx1 = x" + LONG_DIGITS + "\n",
    "x1 = x٣\n",
    "unknowns: " + " ".join(f"y{i}" for i in range(600)) + "\ny1 = y2\n",
    "x1 y = y x1\n",
    "x0 = x1\n",
)


def _morphism_text(rng) -> str:
    lines = [f"x{i} = {_draw(rng, WORDS)}" for i in range(1, rng.randint(1, 4) + 1)]
    if rng.random() < 0.2:
        lines.append(rng.choice(("x1 = 1", "x9 = 1", "x1 12", "x = 1")))
    return "\n".join(lines) + "\n"


def write_inputs(directory: Path, rng, count: int = 12) -> dict[str, list[str]]:
    """Paths of the input files by kind, written to ``directory``: ``count`` random
    systems, then the fixed ones, ``count`` random morphisms and every spec."""
    texts = {
        "system": [_system_text(rng) for _ in range(count)] + list(SYSTEMS),
        "morphism": [_morphism_text(rng) for _ in range(count)],
        "spec": list(SPECS),
    }
    paths = {}
    for kind, kind_texts in texts.items():
        paths[kind] = []
        for i, text in enumerate(kind_texts):
            path = directory / f"{kind}{i}.txt"
            path.write_text(text, encoding="utf-8")
            paths[kind].append(str(path))
        paths[kind].append(str(directory / "no-such-file.txt"))
    return paths


def _list(rng, kind):
    return LISTS[kind](rng) if rng.random() < 0.7 else rng.choice(BAD_LISTS)


def _pair(rng):
    return ["-k", rng.choice("01239"), "-l", rng.choice("1239")]


def _budget(rng):
    argv = []
    if rng.random() < 0.8:
        argv += ["--alphabet", _list(rng, "alphabet")]
    if rng.random() < 0.8:
        argv += ["--max-total", rng.choice(("0", "1", "2", "3", "4", "5", "-1", "x", LONG_DIGITS))]
    return argv


def draw_argv(rng, paths) -> list[str]:
    """One query: a command drawn from ``COMMANDS`` with its arguments."""
    command = rng.choice(list(COMMANDS))
    # half the queries read one of the random systems, which come first
    systems = paths["system"]
    system = rng.choice(systems[:len(systems) - len(SYSTEMS) - 1] if rng.random() < 0.5 else systems)
    morphism = rng.choice(paths["morphism"])
    words = [_draw(rng, WORDS) for _ in range(2)]
    rest = {
        "encode": words[:1],
        "ratfun": words[:1],
        "primroot": words[:1],
        "commute": words,
        "finewilf": words + [rng.choice(("3", "0", "12", "-1", "x", LONG_DIGITS))],
        "eq coeffs": [system, "--lengths", _list(rng, "lengths")],
        "eq rank": [system, "--lengths", _list(rng, "lengths")],
        "eq verify": [system, morphism],
        "factorize": [system, morphism],
        "pair minor": [system, *_pair(rng)],
        "pair cover": [system, *rng.choice(([], ["--full-pairing"])), *rng.choice(([], _pair(rng)))],
        "system graph": [system],
        "system enumerate": [system, *_budget(rng), *rng.choice(([], ["--rank", "1"], ["--jsonl"])),
                             *rng.choice(([], ["--lengths", _list(rng, "lengths")]))],
        "system independent": [system, *_budget(rng)],
        "chain bound": [system, *_pair(rng)],
        "chain check": [system, *_budget(rng)],
        "powerid": [rng.choice(paths["spec"]), "--indices", _list(rng, "indices")],
    }[command]
    return rng.choice(([], ["--json"])) + command.split() + rest


def run_query(argv) -> tuple[int, str, str, float]:
    """``run``'s exit code, stdout, stderr and wall seconds for one query."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - started


def failures(seed: int, queries: int, directory: Path, cap_s: float) -> tuple[list[str], dict]:
    """The queries of one seeded run that end wrongly, and the exit code counts."""
    rng = random.Random(seed)
    paths = write_inputs(directory, rng)
    found, codes = [], {}
    for _ in range(queries):
        argv = draw_argv(rng, paths)
        shown = [a if len(a) <= 30 else a[:30] + "..." for a in argv]
        try:
            code, out, err, seconds = run_query(argv)
        except Exception as exc:  # anything out of run is a finding
            found.append(f"{shown}: raised {exc!r}")
            continue
        codes[code] = codes.get(code, 0) + 1
        if code not in (0, 1) or (code == 0) != bool(out) or (code == 1) != err.startswith("input error"):
            found.append(f"{shown}: exit {code}, stderr {err[:200]!r}")
        elif seconds > cap_s:
            found.append(f"{shown}: took {seconds:.2f} s")
    return found, codes


def main(argv) -> int:
    seed = int(argv[0]) if argv else 1
    queries = int(argv[1]) if len(argv) > 1 else 5000
    with tempfile.TemporaryDirectory() as directory:
        found, codes = failures(seed, queries, Path(directory), cap_s=10)
    print(f"seed {seed}: {queries} queries, exit codes {dict(sorted(codes.items()))}")
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
