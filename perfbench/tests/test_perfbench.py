"""Tests of the benchmark itself: inputs, model, checks, tracing and a smoke run.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, model, speed, trace, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _argv(queries, directory: Path):
    return [tuple(x.replace(str(directory), "") for x in q.argv) for q in queries]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    a = workloads.build(workload, 7, tmp_path / "a", scale=0.1)
    b = workloads.build(workload, 7, tmp_path / "b", scale=0.1)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _argv(a, tmp_path / "a") == _argv(b, tmp_path / "b")
    c = workloads.build(workload, 8, tmp_path / "c", scale=0.1)
    assert _argv(c, tmp_path / "c") != _argv(a, tmp_path / "a")


def test_oracle_queries_respect_the_candidate_cap(tmp_path):
    commands = {"system enumerate": "enumerate", "system independent": "independent",
                "chain check": "chain"}
    for query in workloads.build("oracle-sweep", 3, tmp_path, scale=0.3):
        e = query.expect
        t = e["max_total"]
        _, visited = workloads.oracle_estimate(commands[query.kind], e["system"], e["n"], t)
        assert visited <= workloads.CANDIDATE_CAP


def test_rank_queries_stay_within_the_guards(tmp_path):
    for query in workloads.build("symbolic-algebra", 3, tmp_path):
        if query.kind == "eq rank":
            e = query.expect
            assert len(e["system"]) <= workloads.RANK_MAX_EQUATIONS
            assert e["n"] <= workloads.RANK_MAX_UNKNOWNS
            assert max(e["lengths"]) <= workloads.RANK_MAX_LENGTH


@pytest.mark.parametrize("command", workloads.ORACLE_COMMANDS)
def test_oracle_class_counts_are_the_natural_draws(command):
    assert workloads.natural_counts(command) == workloads.ORACLE_CLASS_COUNTS[command]


def test_apportion_is_proportional_and_exact():
    assert workloads.apportion((1, 1, 2), 8) == [2, 2, 4]
    assert workloads.apportion((5, 3, 0, 2), 5) == [3, 1, 0, 1]
    for total in range(1, 60):
        quotas = workloads.apportion(workloads.ORACLE_CLASS_COUNTS["independent"], total)
        assert sum(quotas) == total


def test_oracle_pool_holds_the_apportioned_classes(tmp_path):
    commands = {"system enumerate": "enumerate", "system independent": "independent",
                "chain check": "chain"}
    held = {cmd: [0] * (len(workloads.ORACLE_EDGES_MS) + 1) for cmd in workloads.ORACLE_COMMANDS}
    for query in workloads.build("oracle-sweep", 4, tmp_path, scale=0.4):
        e, cmd = query.expect, commands[query.kind]
        ms, _ = workloads.oracle_estimate(cmd, e["system"], e["n"], e["max_total"])
        held[cmd][workloads._cost_class(ms, workloads.ORACLE_EDGES_MS)] += 1
    for cmd, counts in workloads.ORACLE_CLASS_COUNTS.items():
        assert held[cmd] == workloads.apportion(counts, round(0.4 * workloads.ORACLE_PER_COMMAND))


def test_scaling_uses_the_median_calibration_around_each_query():
    samples = [(0.01, 0.001)] * 30
    samples[12] = (0.02, 0.005)  # a slow calibration after one query
    scaled = speed.scale(samples)
    ref = speed.REFERENCE_S
    assert scaled[12] == pytest.approx(0.02 * ref / 0.001)
    assert all(t == pytest.approx(0.01 * ref / 0.001) for i, t in enumerate(scaled) if i != 12)
    assert speed.scale([(0.5, 0.002)]) == [pytest.approx(0.5 * ref / 0.002)]


def test_every_round_starts_from_the_same_rank_cache(tmp_path):
    from perfbench import run

    bench = run.Run("oracle-sweep", 2, 0.1)
    warm = workloads.build("oracle-sweep", 9, tmp_path, scale=0.1)
    sizes = []
    for _ in range(2):
        bench.rewarm(warm)
        words = sys.modules["wordeq.words"]
        sizes.append(words._minimal_factor_cover.cache_info())
    assert sizes[0] == sizes[1] and sizes[0].currsize > 0


def test_model_matches_the_enumerator():
    from wordeq.equations import Equation
    from wordeq.oracle import EnumerationBudget, _first_separating_morphism, enumerate_solutions

    rng = random.Random(11)
    for _ in range(120):
        n, top = rng.randint(1, 3), rng.randint(0, 6)
        system = [
            (tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4))),
             tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4))))
            for _ in range(rng.randint(1, 3))
        ]
        eqs = [Equation(lhs, rhs, n) for lhs, rhs in system]
        budget = EnumerationBudget((1, 2), top)
        sols = enumerate_solutions(eqs, budget, n=n)
        counts = model.enumeration_counts(system, n, top, 2)
        assert (counts["visited"], counts["solutions"]) == (sols.candidates_visited, len(sols))
        for i in range(len(system)):
            rest = [eq for j, eq in enumerate(system) if j != i]
            found = _first_separating_morphism(eqs[:i] + eqs[i + 1:], eqs[i], budget, n)
            want, _ = model.first_witness(rest, system[i], n, top, (1, 2))
            assert (None if found is None else tuple(w.letters for w in found.images)) == want


def test_first_witness_scan_count_matches_the_traced_candidates():
    import wordeq.oracle as oracle
    from wordeq.equations import Equation

    system = [((1, 2), (2, 1)), ((1, 2, 2), (2, 2, 1))]
    tracer = trace.Tracer()
    tracer.install()
    try:
        eqs = [Equation(lhs, rhs, 2) for lhs, rhs in system]
        oracle._first_separating_morphism(eqs[:1], eqs[1], oracle.EnumerationBudget((1, 2), 7), 2)
    finally:
        tracer.uninstall()
    _, scanned = model.first_witness(system[:1], system[1], 2, 7, (1, 2))
    assert tracer.counts["oracle.candidates"] == scanned


def _fraction_rank(rows) -> int:
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_integer_rank_matches_rational_elimination():
    rng = random.Random(3)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        base = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rng.randint(1, rows))]
        matrix = [
            [sum(rng.randint(-1, 1) * b[j] for b in base) for j in range(cols)]
            for _ in range(rows)
        ]
        assert checks.integer_rank(matrix) == _fraction_rank(matrix)


def test_certified_rank_matches_rank_polymatrix():
    from wordeq.equations import coefficient_matrix, parse_system, rank_polymatrix
    from wordeq.words import LengthType

    rng = random.Random(5)
    for _ in range(30):
        n, m = rng.randint(2, 5), rng.randint(2, 4)
        system = [
            (tuple(rng.randint(1, n) for _ in range(rng.randint(1, 5))),
             tuple(rng.randint(1, n) for _ in range(rng.randint(1, 5))))
            for _ in range(m)
        ]
        lt = tuple(rng.randint(0, 4) for _ in range(n))
        eqs, _ = parse_system(workloads.system_text(system, n))
        want = rank_polymatrix(coefficient_matrix(eqs, LengthType(lt)))
        assert checks.certified_rank(workloads.coefficient_rows(system, lt)) == want


def test_parse_poly_reads_the_program_rendering():
    from wordeq.polynomials import IntPolynomial

    for coeffs in ({}, {0: 1}, {0: -2, 3: 1}, {1: -1, 2: 5, 10: -12}, {4: 1}):
        assert checks.parse_poly(IntPolynomial(coeffs).to_text()) == coeffs


def test_self_time_subtracts_covered_child_time():
    # query, span id, parent, layer, name, start, end
    spans = [
        (0, 1, 0, "cli", "run", 0.0, 10.0),
        (0, 2, 1, "oracle", "enumerate_solutions", 1.0, 6.0),
        (0, 3, 2, "words", "combinatorial_rank", 2.0, 3.0),
        (0, 4, 2, "words", "combinatorial_rank", 2.5, 4.0),  # overlaps its sibling
        (0, 5, 1, "covers", "cover_pair", 7.0, 8.0),
    ]
    own = trace.self_times(spans)
    assert own == {1: 4.0, 2: 3.0, 3: 1.0, 4: 1.5, 5: 1.0}
    per_layer = trace.layer_metrics(spans, queries=2)
    assert per_layer["cli.calls"] == 0.5
    assert per_layer["cli.self_ms"] == 2000.0
    assert per_layer["words.self_ms"] == 1250.0
    assert per_layer["genpoly.calls"] == 0


def test_tracer_restores_every_name():
    import wordeq.cli
    import wordeq.oracle

    before = (wordeq.cli.rank_polymatrix, wordeq.oracle.itertools, wordeq.cli.build_parser)
    tracer = trace.Tracer()
    tracer.install()
    assert wordeq.cli.rank_polymatrix is not before[0]
    tracer.uninstall()
    assert (wordeq.cli.rank_polymatrix, wordeq.oracle.itertools, wordeq.cli.build_parser) == before


def _smoke(workload: str, trace_flag: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace_flag), "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_has_no_failures_and_the_declared_metrics(workload):
    result = _smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_pass_emits_the_declared_layer_metrics():
    result = _smoke("symbolic-algebra", 1)
    assert result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for layer in trace.LAYERS:
        assert f"{layer}.calls" in declared and f"{layer}.self_ms" in declared


def test_metric_and_workload_names_follow_the_grammar():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "word-encodings", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
