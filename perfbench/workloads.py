"""Seeded query pools for the three benchmark workloads.

A pool is a list of CLI queries plus the input files they read.  The same
workload, seed and scale always give byte-identical files and argument
lists.  Pools have a fixed composition: every workload fills fixed quotas
of query kinds and estimated cost classes, so the spread of a run's
figures across seeds comes from the inputs inside each class, not from how
many expensive queries a seed happens to draw.  The oracle quotas are the
classes' shares in the traffic's own random draws.  Cost estimates come from
the position-class model in ``model.py`` and from input sizes, never from
running the program, so a faster program sees the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from . import model

WORKLOADS = ("oracle-sweep", "symbolic-algebra", "word-encodings")

# Input guards: a query past any of these is never emitted.
CANDIDATE_CAP = 50_000  # candidates one oracle query may visit, summed over probes
RANK_MAX_EQUATIONS = 6
RANK_MAX_UNKNOWNS = 7
RANK_MAX_LENGTH = 9
MAX_ATTEMPTS = 200_000

ALPHABET = (1, 2)


@dataclass(frozen=True)
class Query:
    """One CLI invocation and what its checker needs to know about it."""

    kind: str
    argv: tuple[str, ...]
    expect: dict


def unknown_names(n: int) -> list[str]:
    return [f"x{i}" for i in range(1, n + 1)]


def system_text(system, n: int) -> str:
    names = unknown_names(n)
    lines = ["unknowns: " + " ".join(names)]
    for lhs, rhs in system:
        left = " ".join(names[x - 1] for x in lhs) or "eps"
        right = " ".join(names[x - 1] for x in rhs) or "eps"
        lines.append(f"{left} = {right}")
    return "\n".join(lines) + "\n"


def word_text(letters) -> str:
    return "".join(str(a) for a in letters) or "eps"


class _Pool:
    """Collects queries and writes their input files under one directory."""

    def __init__(self, workdir: Path, tag: str):
        self.workdir = workdir
        self.tag = tag
        self.files = 0
        self.queries: list[Query] = []

    def file(self, text: str) -> str:
        path = self.workdir / f"{self.tag}{self.files:05d}.txt"
        self.files += 1
        path.write_text(text)
        return str(path)

    def add(self, kind: str, argv, **expect):
        self.queries.append(Query(kind, ("--json",) + tuple(argv), expect))


def _random_side(rng: random.Random, n: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, n) for _ in range(rng.randint(lo, hi)))


def _nontrivial_equation(rng, n, lo, hi):
    while True:
        lhs, rhs = _random_side(rng, n, lo, hi), _random_side(rng, n, lo, hi)
        if lhs != rhs:
            return lhs, rhs


def _scale_quota(quota: int, scale: float) -> int:
    return max(1, round(quota * scale)) if quota else 0


# --- oracle-sweep -----------------------------------------------------------

# Cost classes by estimated milliseconds: upper edges a factor 2^(1/4)
# apart, from 3 ms to about 1 s.  Each command's pool holds its classes in
# their natural shares: ORACLE_CLASS_COUNTS is how many of SHARE_DRAWS
# unconstrained draws (``natural_query``, seeded with SHARE_SEED) fall in
# each class, and ``natural_counts`` recomputes it.
ORACLE_EDGES_MS = tuple(3.0 * 2 ** (k / 4) for k in range(34))
ORACLE_PER_COMMAND = 150
ORACLE_COMMANDS = ("enumerate", "independent", "chain")
ORACLE_TOTALS = {2: (8, 11), 3: (6, 9)}
SHARE_DRAWS = 3000
SHARE_SEED = "oracle-sweep:shares"
ORACLE_CLASS_COUNTS = {
    "enumerate": (
        0, 831, 611, 75, 516, 160, 110, 35, 0, 158, 14, 27, 103, 104, 6, 23, 83, 5, 0, 2,
        108, 0, 0, 0, 28, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0
    ),
    "independent": (
        1618, 143, 38, 31, 9, 12, 9, 8, 1, 4, 5, 12, 29, 24, 33, 37, 36, 63, 66, 45, 62, 50,
        89, 64, 53, 28, 60, 60, 43, 5, 0, 0, 0, 0, 0
    ),
    "chain": (
        0, 367, 388, 202, 390, 442, 68, 113, 268, 74, 117, 141, 112, 5, 6, 202, 16, 0, 0, 70,
        14, 2, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
    ),
}


def _probe_plan(system):
    """Per omitted equation: whether the CLI skips it as provably redundant."""
    plan = []
    for i, (lhs, rhs) in enumerate(system):
        rest = [eq for j, eq in enumerate(system) if j != i]
        redundant = lhs == rhs or any(eq in ((lhs, rhs), (rhs, lhs)) for eq in rest)
        plan.append((rest, (lhs, rhs), redundant))
    return plan


def _occurrences(equation) -> int:
    return len(equation[0]) + len(equation[1])


def oracle_estimate(command: str, system, n: int, t: int) -> tuple[float, int]:
    """Estimated milliseconds and candidates visited of one oracle query.

    The coefficients are a least-squares fit, weighted for relative error,
    of the scaled times of 874 natural queries (see README.md); they only
    sort queries into cost classes.
    """
    if command in ("enumerate", "chain"):
        target = system if command == "enumerate" else system[:1]
        visited, feasible, solutions = model.enumeration_profile(target, n, t, len(ALPHABET))[t]
        if command == "enumerate":
            return 3.0 + 0.0000564 * visited + 0.000279 * feasible + 0.0190 * solutions, visited
        return 2.92 + 0.0000506 * visited + 0.000568 * feasible + 0.00679 * solutions, visited
    ms, visited = 2.74, 0
    for rest, omitted, redundant in _probe_plan(system):
        if redundant:
            continue
        images, scanned = model.first_witness(rest, omitted, n, t, ALPHABET)
        if images is None:
            scanned = model.candidate_count(n, t, len(ALPHABET))
        visited += scanned
        # each candidate is a morphism tested against the first remaining equation
        ms += scanned * (0.00471 + 0.000428 * (_occurrences(rest[0]) if rest else 0))
    return ms, visited


def _cost_class(ms: float, edges) -> int:
    for i, edge in enumerate(edges):
        if ms < edge:
            return i
    return len(edges)


def natural_query(rng: random.Random, command: str):
    """One oracle query as the traffic draws it: (system, n, max-total, class).

    The class is None when the query visits more than CANDIDATE_CAP candidates.
    """
    n = rng.choice((2, 3))
    m = rng.randint(2, 3) if command == "chain" else rng.randint(1, 3)
    system = [_nontrivial_equation(rng, n, 1, rng.randint(1, 6)) for _ in range(m)]
    lo, hi = ORACLE_TOTALS[n]
    t = rng.randint(lo, hi)
    ms, visited = oracle_estimate(command, system, n, t)
    cls = _cost_class(ms, ORACLE_EDGES_MS) if visited <= CANDIDATE_CAP else None
    return system, n, t, cls


def natural_counts(command: str, draws: int = SHARE_DRAWS) -> tuple[int, ...]:
    """How many of ``draws`` natural queries fall in each cost class, cap obeyed."""
    rng = random.Random(f"{SHARE_SEED}:{command}")
    counts = [0] * (len(ORACLE_EDGES_MS) + 1)
    for _ in range(draws):
        cls = natural_query(rng, command)[3]
        if cls is not None:
            counts[cls] += 1
    return tuple(counts)


def apportion(weights, total: int) -> list[int]:
    """Whole quotas summing to ``total``, proportional to ``weights`` (largest remainder)."""
    whole = sum(weights)
    exact = [w * total / whole for w in weights]
    quotas = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: (quotas[i] - exact[i], i))
    for i in by_remainder[: total - sum(quotas)]:
        quotas[i] += 1
    return quotas


def oracle_pool(seed: int, workdir: Path, scale: float, tag: str) -> list[Query]:
    rng = random.Random(f"oracle-sweep:{seed}")
    pool = _Pool(workdir, tag)
    size = max(1, round(ORACLE_PER_COMMAND * scale))
    left = {cmd: apportion(ORACLE_CLASS_COUNTS[cmd], size) for cmd in ORACLE_COMMANDS}
    order = []  # (command, system, n, max_total), in the order drawn
    attempts = 0
    while any(any(q) for q in left.values()):
        attempts += 1
        if attempts > MAX_ATTEMPTS:
            raise RuntimeError("oracle pool quotas could not be filled")
        command = rng.choice([c for c, q in left.items() if any(q)])
        system, n, t, cls = natural_query(rng, command)
        if cls is None or not left[command][cls]:
            continue
        left[command][cls] -= 1
        order.append((command, system, n, t))
    for command, system, n, t in order:
        path = pool.file(system_text(system, n))
        budget = ("--max-total", str(t))
        if command == "enumerate":
            counts = model.enumeration_counts(system, n, t, len(ALPHABET))
            pool.add(
                "system enumerate",
                ("system", "enumerate", path) + budget,
                system=system, n=n, max_total=t, **counts,
            )
        elif command == "independent":
            probes = []
            for rest, omitted, redundant in _probe_plan(system):
                witness = None
                if not redundant:
                    witness, _ = model.first_witness(rest, omitted, n, t, ALPHABET)
                probes.append({"redundant": redundant, "witness": witness})
            pool.add(
                "system independent",
                ("system", "independent", path) + budget,
                system=system, n=n, max_total=t, probes=probes,
            )
        else:
            counts = model.enumeration_counts(system[:1], n, t, len(ALPHABET))
            pool.add(
                "chain check",
                ("chain", "check", path) + budget,
                system=system, n=n, max_total=t, first_solutions=counts["solutions"],
            )
    return pool.queries


# --- symbolic-algebra -------------------------------------------------------

# Rank slots fix the structure (equations, unknowns, occurrences per side,
# sum of the length vector); the seed draws the equations and lengths.  A
# draw's cost varies about twofold within a slot and nothing cheap predicts
# it, so a run holds many draws of moderate shapes rather than a few
# expensive ones: then no single draw decides a run's throughput.
RANK_SLOTS = (
    (4, 5, 4, 12), (4, 5, 5, 16), (4, 6, 5, 18), (4, 7, 7, 26),
    (5, 6, 5, 20), (4, 5, 6, 20), (5, 5, 5, 18), (5, 6, 6, 26),
    (5, 7, 6, 26), (5, 6, 6, 22), (5, 7, 7, 28), (5, 6, 7, 24),
    (6, 6, 5, 20), (6, 7, 5, 24),
)
RANK_REPEATS = 18
PAIR_REPEATS = 75  # of each pair command


def _q_poly(lhs, rhs, x, lt) -> dict[int, int]:
    out: dict[int, int] = {}
    for side, sign in ((lhs, 1), (rhs, -1)):
        pos = 0
        for y in side:
            if y == x:
                out[pos] = out.get(pos, 0) + sign
            pos += lt[y - 1]
    return {d: c for d, c in out.items() if c}


def coefficient_rows(system, lt):
    """Positional coefficient polynomials (degree -> coefficient), row per equation."""
    n = len(lt)
    return [[_q_poly(lhs, rhs, x, lt) for x in range(1, n + 1)] for lhs, rhs in system]


def _s_poly(lhs, rhs, x, n):
    out: dict[tuple[int, ...], int] = {}
    for side, sign in ((lhs, 1), (rhs, -1)):
        counts = [0] * n
        for y in side:
            if y == x:
                form = tuple(counts)
                out[form] = out.get(form, 0) + sign
            counts[y - 1] += 1
    return {f: c for f, c in out.items() if c}


def _gp_mul(a, b):
    out: dict[tuple[int, ...], int] = {}
    for fa, ca in a.items():
        for fb, cb in b.items():
            f = tuple(p + q for p, q in zip(fa, fb))
            out[f] = out.get(f, 0) + ca * cb
    return out


def symbolic_minor(eq1, eq2, k: int, l: int, n: int) -> dict:
    """The 2x2 minor S1_k S2_l - S1_l S2_k as exponent-vector -> coefficient."""
    pos = _gp_mul(_s_poly(*eq1, k, n), _s_poly(*eq2, l, n))
    neg = _gp_mul(_s_poly(*eq1, l, n), _s_poly(*eq2, k, n))
    for f, c in neg.items():
        pos[f] = pos.get(f, 0) - c
    return {f: c for f, c in pos.items() if c}


def _rank_system(rng, m, n, occ, lt_sum):
    system = [
        (tuple(rng.randint(1, n) for _ in range(occ)), tuple(rng.randint(1, n) for _ in range(occ)))
        for _ in range(m)
    ]
    lt = [0] * n
    for _ in range(lt_sum):  # spread the total over unknowns, each at most the cap
        x = rng.choice([i for i in range(n) if lt[i] < RANK_MAX_LENGTH])
        lt[x] += 1
    return system, tuple(lt)


def symbolic_pool(seed: int, workdir: Path, scale: float, tag: str) -> list[Query]:
    rng = random.Random(f"symbolic-algebra:{seed}")
    pool = _Pool(workdir, tag)
    slots = [("rank", s) for s in RANK_SLOTS for _ in range(_scale_quota(RANK_REPEATS, scale))]
    pairs = _scale_quota(PAIR_REPEATS, scale)
    slots += [(kind, None) for kind in ("minor", "cover", "cover-full", "bound") for _ in range(pairs)]
    rng.shuffle(slots)
    for kind, shape in slots:
        if kind == "rank":
            m, n, occ, lt_sum = shape
            if m > RANK_MAX_EQUATIONS or n > RANK_MAX_UNKNOWNS or lt_sum > n * RANK_MAX_LENGTH:
                raise ValueError(f"rank slot {shape} is outside the input guards")
            system, lt = _rank_system(rng, m, n, occ, lt_sum)
            path = pool.file(system_text(system, n))
            pool.add(
                "eq rank",
                ("eq", "rank", path, "--lengths", ",".join(map(str, lt))),
                system=system, n=n, lengths=lt,
            )
            continue
        n = rng.randint(3, 4)
        while True:
            eq1 = _nontrivial_equation(rng, n, 2, 8)
            eq2 = _nontrivial_equation(rng, n, 2, 8)
            k = rng.randint(1, n - 1)
            l = rng.randint(k + 1, n)
            minors = {
                (a, b): symbolic_minor(eq1, eq2, a, b, n)
                for a in range(1, n + 1)
                for b in range(a + 1, n + 1)
            }
            # the cover needs some nonzero minor; keep it for every pair kind
            if any(minors.values()) and (kind != "minor" or minors[(k, l)]):
                break
        if kind == "bound":
            path = pool.file(system_text([eq1], n))
            pool.add(
                "chain bound",
                ("chain", "bound", path, "-k", str(k), "-l", str(l)),
                system=[eq1], n=n, k=k, l=l,
            )
            continue
        path = pool.file(system_text([eq1, eq2], n))
        if kind == "minor":
            pool.add(
                "pair minor",
                ("pair", "minor", path, "-k", str(k), "-l", str(l)),
                system=[eq1, eq2], n=n, k=k, l=l, minor=minors[(k, l)],
            )
        else:
            full = kind == "cover-full"
            pool.add(
                "pair cover",
                ("pair", "cover", path) + (("--full-pairing",) if full else ()),
                system=[eq1, eq2], n=n, full=full, minors=minors,
            )
    return pool.queries


# --- word-encodings ---------------------------------------------------------

RATFUN_LENGTHS = (10, 12, 16, 20, 24, 30, 36, 40, 48, 60, 72, 80, 96, 120)
RATFUN_REPEATS = 6  # of each length, once as a power and once not
CHEAP_REPEATS = 40  # of each cheap command
SOLUTION_REPEATS = 30  # of eq verify and of factorize
WORD_LETTERS = (1, 2, 3)


def _word(rng, length: int, letters=WORD_LETTERS) -> tuple[int, ...]:
    return tuple(rng.choice(letters) for _ in range(length))


def _power(rng, length: int) -> tuple[int, ...]:
    """A word of the given length that is a proper power of a random root."""
    d = rng.choice([d for d in range(1, length) if length % d == 0])
    return _word(rng, d) * (length // d)


def built_solution(rng, n: int):
    """An equation and a morphism solving it, both read off products of atoms.

    Images are products of seeded atom words; one unknown's image is the
    product of two others', so replacing it by those two on one side gives
    a different side with the same image.
    """
    atoms = [_word(rng, rng.randint(1, 3), (1, 2)) for _ in range(rng.randint(2, 3))]
    products = [tuple(rng.randrange(len(atoms)) for _ in range(rng.randint(0, 2))) for _ in range(n)]
    a, b, c = rng.sample(range(n), 3)
    products[c] = products[a] + products[b]
    images = [tuple(x for i in prod for x in atoms[i]) for prod in products]
    side = list(_random_side(rng, n, 1, 4))
    side.insert(rng.randint(0, len(side)), c + 1)
    other = list(side)
    spots = [i for i, x in enumerate(other) if x == c + 1]
    for i in sorted(rng.sample(spots, rng.randint(1, len(spots))), reverse=True):
        other[i : i + 1] = [a + 1, b + 1]
    lhs, rhs = tuple(side), tuple(other)
    if rng.random() < 0.5:
        lhs, rhs = rhs, lhs
    return (lhs, rhs), images


def encoding_pool(seed: int, workdir: Path, scale: float, tag: str) -> list[Query]:
    rng = random.Random(f"word-encodings:{seed}")
    pool = _Pool(workdir, tag)
    slots = [
        ("ratfun", (length, power))
        for length in RATFUN_LENGTHS
        for power in (True, False)
        for _ in range(_scale_quota(RATFUN_REPEATS, scale))
    ]
    for kind in ("encode", "primroot", "commute", "finewilf"):
        slots += [(kind, None)] * _scale_quota(CHEAP_REPEATS, scale)
    for kind in ("eq verify", "factorize"):
        slots += [(kind, None)] * _scale_quota(SOLUTION_REPEATS, scale)
    rng.shuffle(slots)
    for kind, shape in slots:
        if kind == "ratfun":
            length, power = shape
            w = _power(rng, length) if power else _word(rng, length)
            pool.add("ratfun", ("ratfun", word_text(w)), word=w)
        elif kind == "encode":
            w = _word(rng, rng.randint(1, 60))
            pool.add("encode", ("encode", word_text(w)), word=w)
        elif kind == "primroot":
            length = rng.randint(2, 60)
            w = _power(rng, length) if rng.random() < 0.5 else _word(rng, length)
            pool.add("primroot", ("primroot", word_text(w)), word=w)
        elif kind == "commute":
            if rng.random() < 0.5:
                root = _word(rng, rng.randint(1, 5))
                u, v = root * rng.randint(1, 6), root * rng.randint(1, 6)
            else:
                u, v = _word(rng, rng.randint(1, 30)), _word(rng, rng.randint(1, 30))
            pool.add("commute", ("commute", word_text(u), word_text(v)), u=u, v=v)
        elif kind == "finewilf":
            if rng.random() < 0.5:
                root = _word(rng, rng.randint(1, 4))
                u, v = root * rng.randint(1, 4), root * rng.randint(1, 4)
            else:
                u, v = _word(rng, rng.randint(1, 12)), _word(rng, rng.randint(1, 12))
            prefix = rng.randint(0, len(u) + len(v) + 3)
            pool.add("finewilf", ("finewilf", word_text(u), word_text(v), str(prefix)),
                     u=u, v=v, prefix=prefix)
        else:
            n = rng.randint(3, 5)
            eq, images = built_solution(rng, n)
            eq_path = pool.file(system_text([eq], n))
            names = unknown_names(n)
            morph = "".join(f"{names[i]} = {word_text(w)}\n" for i, w in enumerate(images))
            h_path = pool.file(morph)
            argv = ("eq", "verify") if kind == "eq verify" else ("factorize",)
            pool.add(kind, argv + (eq_path, h_path), equation=eq, images=images)
    return pool.queries


BUILDERS = {
    "oracle-sweep": oracle_pool,
    "symbolic-algebra": symbolic_pool,
    "word-encodings": encoding_pool,
}


def build(workload: str, seed: int, workdir: Path, scale: float = 1.0, tag: str = "q") -> list[Query]:
    """Write the workload's input files under workdir and return its queries."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, workdir, scale, tag)

