"""Correctness checks on the program's reports, computed without the program.

``check_report`` returns None when a report is right and a one-line reason
when it is not.  Every check recomputes what it compares from the query's
own inputs: concatenated images, position classes, positional coefficient
polynomials, primitive roots.  ``replay_recipes`` diffs the committed
recipes against their golden reports, and ``digest`` fingerprints a result
for the committed per-seed digest files.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

from .workloads import ALPHABET, coefficient_rows, word_text

_TERM = re.compile(r"^(\d*)(X(?:\^(\d+))?)?$")


def parse_poly(text: str) -> dict[int, int]:
    """Degree -> coefficient of a polynomial rendered like ``1 + 2X - X^3``."""
    if text == "0":
        return {}
    out: dict[int, int] = {}
    sign = 1
    for token in text.split(" "):
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -1, token[1:]
        m = _TERM.match(token)
        if not m or not token:
            raise ValueError(f"bad polynomial term {token!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        degree = 0 if not m.group(2) else int(m.group(3) or 1)
        out[degree] = out.get(degree, 0) + sign * coeff
        sign = 1
    return {d: c for d, c in out.items() if c}


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for da, ca in a.items():
        for db, cb in b.items():
            out[da + db] = out.get(da + db, 0) + ca * cb
    return {d: c for d, c in out.items() if c}


def primitive_root(w: tuple) -> tuple:
    size = len(w)
    for p in range(1, size + 1):
        if size % p == 0 and w[:p] * (size // p) == w:
            return w[:p]
    return w


def _letters(text: str) -> tuple[int, ...]:
    return () if text == "eps" else tuple(int(ch) for ch in text)


def _image(side, images) -> tuple:
    return tuple(a for x in side for a in images[x - 1])


def _solves(equation, images) -> bool:
    return _image(equation[0], images) == _image(equation[1], images)


def integer_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    rows = [list(r) for r in rows if any(r)]
    rank, prev = 0, 1
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], rows[rank])]
        prev = p
        rank += 1
    return rank


def certified_rank(matrix) -> int:
    """Rank over Q(X) of a matrix of integer polynomials, from one evaluation.

    The l1 norm of every minor is at most the product of the rows' l1 sums
    H, so no nonzero minor has a root at the integer H + 2 (Cauchy's bound).
    """
    bound = 1
    for row in matrix:
        bound *= max(1, sum(abs(c) for p in row for c in p.values()))
    point = bound + 2
    return integer_rank([[sum(c * point**d for d, c in p.items()) for p in row] for row in matrix])


def _check_enumerate(q, r):
    e = q.expect
    if r["candidates_visited"] != e["visited"]:
        return f"candidates_visited {r['candidates_visited']} != {e['visited']}"
    sols = r["solutions"]
    if r["solution_count"] != len(sols) or len(sols) != e["solutions"]:
        return f"solution count {r['solution_count']} != {e['solutions']}"
    previous = None
    for s in sols:
        images = tuple(_letters(w) for w in s["images"])
        if s["length_type"] != [len(w) for w in images]:
            return f"length type {s['length_type']} does not match {s['images']}"
        if any(a not in ALPHABET for w in images for a in w):
            return f"letter outside the alphabet in {s['images']}"
        if not all(_solves(eq, images) for eq in e["system"]):
            return f"{s['images']} does not solve the system"
        key = (tuple(map(len, images)), images)
        if previous is not None and key <= previous:
            return "solutions are not sorted and distinct"
        previous = key
        nonempty = {w for w in images if w}
        roots = {primitive_root(w) for w in nonempty}
        rank = s["rank"]
        if (rank == 0) != (not nonempty) or (rank == 1) != (len(roots) == 1):
            return f"rank {rank} wrong for {s['images']}"
        if not 0 <= rank <= min(e["n"], len(nonempty)):
            return f"rank {rank} out of range for {s['images']}"
    return None


def _check_independent(q, r):
    e = q.expect
    entries = r["subsystems"]
    if len(entries) != len(e["probes"]):
        return "wrong number of subsystems"
    for i, (entry, probe) in enumerate(zip(entries, e["probes"])):
        if entry["omitted_index"] != i or entry["provably_redundant"] != probe["redundant"]:
            return f"subsystem {i} misreported"
        want = None if probe["witness"] is None else [word_text(w) for w in probe["witness"]]
        if entry["witness"] != want:
            return f"witness {entry['witness']} != first witness {want}"
        if want is not None:
            images = tuple(_letters(w) for w in entry["witness"])
            rest = [eq for j, eq in enumerate(e["system"]) if j != i]
            if not all(_solves(eq, images) for eq in rest) or _solves(e["system"][i], images):
                return f"witness {want} does not separate subsystem {i}"
    if any(p["redundant"] for p in e["probes"]):
        verdict = "dependent"
    elif all(p["witness"] is not None for p in e["probes"]):
        verdict = "independent within budget"
    else:
        verdict = "not separable within budget"
    return None if r["verdict"] == verdict else f"verdict {r['verdict']!r} != {verdict!r}"


def _check_chain(q, r):
    e = q.expect
    sizes, strict = r["prefix_set_sizes"], r["strict_descent"]
    if len(sizes) != len(e["system"]) or len(strict) != len(sizes) - 1:
        return "wrong number of prefix sets"
    if sizes[0] > e["first_solutions"]:
        return f"{sizes[0]} rank-deficient solutions exceed {e['first_solutions']} solutions"
    if any(b > a for a, b in zip(sizes, sizes[1:])):
        return f"prefix set sizes {sizes} increase"
    if strict != [b < a for a, b in zip(sizes, sizes[1:])]:
        return "strict descent flags disagree with the sizes"
    realized = 1 + next((i for i, s in enumerate(strict) if not s), len(strict))
    if r["realized_chain_length"] != realized:
        return f"realized chain length {r['realized_chain_length']} != {realized}"
    if r.get("bound_checked") and realized > min(r["bound"], r["cover_bound"]):
        return "realized chain exceeds its bound"
    return None


def _check_rank(q, r):
    e = q.expect
    matrix = coefficient_rows(e["system"], e["lengths"])
    got = [[parse_poly(p) for p in row] for row in r["matrix"]]
    if got != matrix:
        return "coefficient matrix differs from the positional coefficients"
    rank = certified_rank(matrix)
    return None if r["rank"] == rank else f"rank {r['rank']} != {rank}"


def _check_minor(q, r):
    want = len(q.expect["minor"])
    return None if r["term_count"] == want else f"term count {r['term_count']} != {want}"


def _check_cover(q, r):
    e = q.expect
    minor = e["minors"].get((r["k"], r["l"]))
    if not minor:
        return f"cover uses a zero minor at {(r['k'], r['l'])}"
    if r["minor_terms_after"] != len(minor):
        return f"minor terms {r['minor_terms_after']} != {len(minor)}"
    if r["plane_count"] != len(r["planes"]) or r["full_pairing"] != e["full"]:
        return "cover report is inconsistent"
    if not e["full"] and r["plane_count"] > r["bound"]:
        return f"{r['plane_count']} planes exceed the bound {r['bound']}"
    return None


def _check_chain_bound(q, r):
    e = q.expect
    lhs, rhs = e["system"][0]
    base = sum((lhs + rhs).count(x) for x in (e["k"], e["l"])) ** 2
    profile = [lhs.count(x) - rhs.count(x) for x in range(1, e["n"] + 1)]
    if r["bound"] != base + 1 or r["three_unknown_chain_bound"] != base + 5:
        return f"chain bounds {r['bound']}, {r['three_unknown_chain_bound']} != {base} + 1, + 5"
    return None if r["balance_profile"] == profile else "balance profile differs"


def _check_encode(q, r):
    want = {k: a for k, a in enumerate(q.expect["word"])}
    return None if parse_poly(r["polynomial"]) == want else "encoding differs from the letters"


def _check_ratfun(q, r):
    w = q.expect["word"]
    m = re.fullmatch(r"\((.*)\)/\((.*)\)", r["rational_function"])
    if not m:
        return "unreadable rational function"
    num, den = parse_poly(m.group(1)), parse_poly(m.group(2))
    encoded = {k: a for k, a in enumerate(w)}
    xn_minus_1 = {0: -1, len(w): 1}
    if _poly_mul(num, xn_minus_1) != _poly_mul(den, encoded):
        return "rational function is not P(w)/(X^|w| - 1)"
    if not den or den[max(den)] < 0 or max(den) > len(primitive_root(w)):
        return "rational function is not reduced"
    return None


def _check_primroot(q, r):
    w = q.expect["word"]
    root = primitive_root(w)
    ok = _letters(r["primitive_root"]) == root and r["exponent"] == len(w) // len(root)
    return None if ok else "primitive root or exponent differs"


def _check_commute(q, r):
    u, v = q.expect["u"], q.expect["v"]
    want = primitive_root(u) == primitive_root(v)
    ok = r["commute"] == want and r["ratfun_equal"] == want
    return None if ok else "commutation verdicts differ"


def _check_finewilf(q, r):
    u, v, k = q.expect["u"], q.expect["v"], q.expect["prefix"]
    bound = len(u) + len(v) - math.gcd(len(u), len(v))
    agree = all(u[i % len(u)] == v[i % len(v)] for i in range(k))
    want = {
        "bound": bound,
        "agreement": agree,
        "premise_holds": agree and k >= bound,
        "roots_equal": primitive_root(u) == primitive_root(v),
    }
    return None if r == want else f"periodicity verdict {r} != {want}"


def _check_verify(q, r):
    images = q.expect["images"]
    ok = r["residual"] == "0" and r["solves"] is True
    ok = ok and r["length_type"] == [len(w) for w in images]
    return None if ok else "a built solution was not verified"


def _check_factorize(q, r):
    erased = sum(1 for w in q.expect["images"] if not w)
    return None if r["erased"] == erased else f"erased {r['erased']} != {erased}"


CHECKS = {
    "system enumerate": _check_enumerate,
    "system independent": _check_independent,
    "chain check": _check_chain,
    "eq rank": _check_rank,
    "pair minor": _check_minor,
    "pair cover": _check_cover,
    "chain bound": _check_chain_bound,
    "encode": _check_encode,
    "ratfun": _check_ratfun,
    "primroot": _check_primroot,
    "commute": _check_commute,
    "finewilf": _check_finewilf,
    "eq verify": _check_verify,
    "factorize": _check_factorize,
}


def check_report(query, code: int, out: str) -> str | None:
    """None if the query's exit code and report are right, else the reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(out)
    except ValueError:
        return "report is not JSON"
    if report.get("command") != query.kind:
        return f"command {report.get('command')!r} != {query.kind!r}"
    if not all(c["passed"] for c in report["checks"]):
        return "a self-check failed"
    try:
        return CHECKS[query.kind](query, report["results"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"


def digest(code: int, out: str) -> str:
    """Exit code plus the canonical ``results`` block, hashed."""
    results = json.loads(out)["results"] if code == 0 else None
    blob = json.dumps([code, results], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def replay_recipes(root: Path, invoke):
    """Run every recipe through ``invoke(argv) -> (code, out)``.

    Yields (recipe name, None or the reason its report is wrong); the
    timing field is zeroed on both sides before comparing.
    """
    recipes = json.loads((root / "recipes" / "recipes.json").read_text())
    for name, argv in recipes.items():
        code, out = invoke(argv)
        if code != 0:
            yield name, f"exit code {code}"
            continue
        golden = json.loads((root / "recipes" / "golden" / f"{name}.json").read_text())
        try:
            report = json.loads(out)
        except ValueError:
            yield name, "report is not JSON"
            continue
        report["elapsed_ms"] = golden["elapsed_ms"] = 0
        yield name, None if report == golden else "report differs from its golden file"
