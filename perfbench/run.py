"""wordeq benchmark: seeded CLI queries in a closed loop, one client, one thread.

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 20 --trace 0

Each query is ``wordeq.cli.run(argv)`` in this process, with stdout and
stderr captured; the next query starts when the previous one returns.
Set-up (import, writing the seeded inputs, replaying the recipes against
their golden reports, a warm-up on queries from another seed) is repeated
three times and its median reported as ``setup_s``.  The timed pass then
runs whole rounds of the query pool until ``--seconds`` of query time have
passed.  Before every round wordeq is imported afresh and the warm-up is
replayed, untimed, so every round starts from the same cache state.  Every
report is checked against values the benchmark computes itself; checking
is not timed.  Times are scaled to a reference host speed (see
``speed.py``); the raw wall-clock figures are printed beside them.

With ``--trace 1`` untraced and traced rounds alternate, and only
per-layer metrics are reported (see ``trace.py``).  End-to-end figures
come from ``--trace 0`` runs only.  The last line of stdout is the result
as one JSON object.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

PROCESS_START = time.perf_counter()  # before wordeq is imported
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, speed, trace, workloads  # noqa: E402

SETUPS = 3
MIN_ROUNDS = 2
WARMUP_SEED_OFFSET = 1_000_000
WARMUP_SCALE = 0.1  # a tenth of each quota: a fixed composition
DEFAULT_SEED = 1
DIGESTS = ROOT / "perfbench" / "digests"


class Run:
    """Queries, checks and counts of one benchmark process."""

    def __init__(self, workload: str, seed: int, scale: float):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.attempted = 0
        self.failures: list[str] = []
        self.cli = None

    def invoke(self, argv, tracer=None):
        """Run one query; returns (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                if tracer is None:
                    code = self.cli.run(list(argv))
                else:
                    code = tracer.span("cli", "run", self.cli.run, list(argv))
            except Exception as exc:  # a crash is a failed query, not a failed run
                code = f"crash {exc!r}"
        return code, out.getvalue()

    def record(self, label: str, reason):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{label}: {reason}")

    def check(self, index: int, query, code, out, digests=None):
        reason = checks.check_report(query, code, out)
        if reason is None and digests is not None and checks.digest(code, out) != digests[index]:
            reason = "result digest differs from the committed digest"
        self.record(f"query {index} ({' '.join(query.argv)})", reason)

    def _import(self):
        for name in [m for m in sys.modules if m == "wordeq" or m.startswith("wordeq.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("wordeq.cli")

    def rewarm(self, warm):
        """Import wordeq afresh, which empties its caches, and replay the warm-up."""
        self._import()
        for query in warm:
            self.invoke(query.argv)

    def setup(self, workdir: Path):
        """Import wordeq afresh, write the inputs, replay recipes and warm up.

        Returns the pool, the warm-up and the set-up's samples (see
        ``speed.timed``), calibration excluded.
        """
        samples = []

        def step(fn, *args):
            result, sample = speed.timed(fn, *args)
            samples.append(sample)
            return result

        step(self._import)
        shutil.rmtree(workdir, ignore_errors=True)
        pool = step(workloads.build, self.workload, self.seed, workdir / "pool", self.scale)
        warm = step(
            workloads.build, self.workload, self.seed + WARMUP_SEED_OFFSET, workdir / "warm",
            WARMUP_SCALE * self.scale, "w",
        )
        for name, reason in checks.replay_recipes(ROOT, lambda argv: step(self.invoke, argv)):
            self.record(f"recipe {name}", reason)
        for i, query in enumerate(warm):
            code, out = step(self.invoke, query.argv)
            self.check(i, query, code, out)
        return pool, warm, samples

    def digests(self, pool):
        if self.seed != DEFAULT_SEED or self.scale != 1.0:
            return None
        stored = json.loads((DIGESTS / f"{self.workload}.json").read_text())
        if len(stored) != len(pool):
            raise SystemExit(f"{self.workload}: digest file does not match the pool")
        return stored

    def round(self, pool, digests=None, tracer=None):
        """One pass over the pool; per-query samples (see ``speed.timed``)."""
        samples = []
        for i, query in enumerate(pool):
            if tracer is not None:
                tracer.query = i
            (code, out), sample = speed.timed(self.invoke, query.argv, tracer)
            samples.append(sample)
            if tracer is not None:
                tracer.count("cli.report_bytes", len(out.encode()))
            self.check(i, query, code, out, digests)
        return samples


def _ratio(num, den):
    return num / den if den else 0.0


def _latency_figures(times) -> tuple[float, float, float]:
    """Queries per second, median and 90th percentile (ms) of query seconds."""
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return len(times) / sum(times), statistics.median(times) * 1000.0, deciles[8] * 1000.0


def end_to_end(run: Run, pool, warm, seconds: float, setups) -> dict:
    """Rounds of the whole pool until ``seconds`` of query time have passed.

    Every query of every round is one sample of the figures.
    """
    digests = run.digests(pool)
    rounds = []
    while len(rounds) < MIN_ROUNDS or sum(w for r in rounds for w, _ in r) < seconds:
        run.rewarm(warm)
        rounds.append(run.round(pool, digests))
    qps, p50, p90 = _latency_figures([t for r in rounds for t in speed.scale(r)])
    raw_qps, raw_p50, raw_p90 = _latency_figures([w for r in rounds for w, _ in r])
    print(f"timed pass: {len(rounds)} rounds of {len(pool)} queries, "
          f"{len(rounds) * len(pool)} latency samples")
    print(f"wall clock, unscaled: {raw_qps:.6g} queries/s, p50 {raw_p50:.6g} ms, "
          f"p90 {raw_p90:.6g} ms, set-up {statistics.median(w for w, _ in setups):.6g} s")
    return {
        "queries_per_s": (qps, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _rank_cache() -> tuple[int, int]:
    """(hits, misses) so far of the rank cache in ``wordeq.words``, if it has one."""
    cache = getattr(sys.modules["wordeq.words"], "_minimal_factor_cover", None)
    if not hasattr(cache, "cache_info"):
        return 0, 0
    info = cache.cache_info()
    return info.hits, info.misses


def per_layer(run: Run, pool, warm, seconds: float) -> dict:
    """Alternate untraced and traced rounds; per-layer figures from the traced ones.

    Every round starts from the same cache state, so the two sides of the
    overhead ratio and every traced round see the same caches.
    """
    untraced = traced = 0.0
    hits = misses = 0
    queries = 0
    tracer = trace.Tracer()
    while untraced + traced < seconds or not queries:
        run.rewarm(warm)
        untraced += sum(speed.scale(run.round(pool)))
        run.rewarm(warm)
        before = _rank_cache()
        tracer.install()
        try:
            traced += sum(speed.scale(run.round(pool, tracer=tracer)))
        finally:
            tracer.uninstall()
        after = _rank_cache()
        hits, misses = hits + after[0] - before[0], misses + after[1] - before[1]
        queries += len(pool)
    out = {
        name: (value, "ms/query" if name.endswith("_ms") else "calls/query")
        for name, value in trace.layer_metrics(tracer.spans, queries).items()
    }
    c = tracer.counts
    candidates, solutions = c.get("oracle.candidates", 0), c.get("oracle.solutions", 0)
    out.update({
        "oracle.candidates": (candidates / queries, "count/query"),
        "oracle.solutions": (solutions / queries, "count/query"),
        "oracle.yield_ratio": (_ratio(solutions, candidates), "ratio"),
        "words.rank_cache_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "equations.matrix_entries": (c.get("equations.matrix_entries", 0) / queries, "count/query"),
        "covers.minor_terms_after": (c.get("covers.minor_terms_after", 0) / queries, "count/query"),
        "covers.planes": (c.get("covers.planes", 0) / queries, "count/query"),
        "cli.parser_ms": (trace.parser_ms(tracer.spans, queries), "ms/query"),
        "cli.report_bytes": (c.get("cli.report_bytes", 0) / queries, "bytes/query"),
        "trace_overhead_ratio": (_ratio(traced, untraced), "ratio"),
    })
    print(f"traced pass: {queries} queries, {len(tracer.spans)} spans")
    return out


def environment() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.exists() else ref[5:]
        else:
            commit = ref
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "wordeq").glob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_lines": src_lines,
        "WORDEQ_WORKERS": "unset",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="pool size factor (tests)")
    parser.add_argument("--write-digests", action="store_true",
                        help="store the default seed's result digests and exit")
    return parser.parse_args(argv)


def write_digests(run: Run, pool):
    stored = []
    for query in pool:
        code, out = run.invoke(query.argv)
        reason = checks.check_report(query, code, out)
        if reason is not None:
            raise SystemExit(f"refusing to store digests: {' '.join(query.argv)}: {reason}")
        stored.append(checks.digest(code, out))
    DIGESTS.mkdir(exist_ok=True)
    (DIGESTS / f"{run.workload}.json").write_text(json.dumps(stored, indent=0) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in ("src/wordeq/cli.py", "recipes/recipes.json"):
        if not (ROOT / needed).is_file():
            print(f"benchmark: {needed} is missing; run from a wordeq checkout", file=sys.stderr)
            return 2
    os.chdir(ROOT)
    os.environ.pop("WORDEQ_WORKERS", None)
    sys.path.insert(0, str(ROOT / "src"))
    run = Run(args.workload, args.seed, args.scale)
    workdir = ROOT / "perfbench" / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for i in range(SETUPS):
            started = time.perf_counter()
            pool, warm, samples = run.setup(workdir)
            wall = sum(w for w, _ in samples)
            scaled = sum(speed.scale(samples))
            if i == 0:  # the first set-up also counts from process start
                lead = started - PROCESS_START
                wall, scaled = wall + lead, scaled + lead * scaled / wall
            setups.append((wall, scaled))
        if args.write_digests:
            write_digests(run, pool)
            return 0
        if args.trace:
            metrics = per_layer(run, pool, warm, args.seconds)
        else:
            metrics = end_to_end(run, pool, warm, args.seconds, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name}: {value:.6g} {unit}")
    print(f"failed_ratio: {len(run.failures)}/{run.attempted} "
          f"= {_ratio(len(run.failures), run.attempted):.4g}")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    print("environment: " + json.dumps(environment()))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
