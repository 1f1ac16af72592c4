"""Spans and work counts at the boundaries between wordeq's modules.

Tracing rebinds, in each wordeq module, the names it imports from another
wordeq module (``wordeq.cli.rank_polymatrix``, ``wordeq.covers.
enumerate_solutions``, ``wordeq.equations.exact_div``, ...) to wrappers that
record a span: query id, span id, parent span id, layer, name, start and
end.  A few same-module names are wrapped as well, for the counts they
carry.  Nothing under ``src/`` changes, and ``uninstall`` restores every
name.  Work done through methods of wordeq's classes (``IntPolynomial``
arithmetic, ``Equation.holds_for``) opens no span, so it counts as self
time of the function that called it.

Spans stay in memory until ``layer_metrics`` turns them into per-layer
calls and self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import types
from time import perf_counter

LAYERS = ("cli", "oracle", "words", "equations", "polynomials", "genpoly", "covers", "transforms")

# same-module names wrapped for the counts their results carry
EXTRA = {"cli": ("build_parser",), "oracle": ("_first_separating_morphism",)}


class Tracer:
    """Records spans and work counts while installed; one per traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.query = 0
        self._stack = [0]
        self._next = 1
        self._restore: list[tuple] = []

    def count(self, name: str, amount: float = 1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, layer: str, name: str, fn, *args):
        """Call fn(*args) inside a span."""
        return self.wrap(fn, layer, name)(*args)

    def wrap(self, fn, layer: str, name: str, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((tracer.query, sid, parent, layer, name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _hooks(self):
        def parser(p):
            p.parse_args = self.wrap(p.parse_args, "cli", "parse_args")

        def solutions(s):
            self.count("oracle.solutions", len(s.solutions))

        def witness(h):
            self.count("oracle.solutions", h is not None)

        def matrix(m):
            self.count("equations.matrix_entries", m.rows * m.cols)

        def cover(c):
            self.count("covers.minor_terms_after", c.minor_terms_after)
            self.count("covers.planes", len(c.planes))

        return {
            "build_parser": parser,
            "enumerate_solutions": solutions,
            "_first_separating_morphism": witness,
            "coefficient_matrix": matrix,
            "cover_pair": cover,
        }

    def install(self):
        """Rebind the cross-module names in every wordeq module."""
        hooks = self._hooks()
        for layer in LAYERS:
            module = importlib.import_module(f"wordeq.{layer}")
            for name, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                owner = value.__module__.rpartition(".")[2]
                if value.__module__.startswith("wordeq.") and owner in LAYERS and (
                    owner != layer or name in EXTRA.get(layer, ())
                ):
                    self._rebind(module, name, self.wrap(value, owner, name, hooks.get(name)))
        # every candidate the oracle tests comes out of itertools.product
        oracle = importlib.import_module("wordeq.oracle")
        counting = types.SimpleNamespace(product=self._counting_product)
        self._rebind(oracle, "itertools", counting)

    def _counting_product(self, *pools, **kwargs):
        for item in itertools.product(*pools, **kwargs):
            self.counts["oracle.candidates"] = self.counts.get("oracle.candidates", 0) + 1
            yield item

    def _rebind(self, module, name, value):
        self._restore.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def uninstall(self):
        while self._restore:
            module, name, value = self._restore.pop()
            setattr(module, name, value)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, parent, _, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for _, sid, _, _, _, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans, queries: int) -> dict[str, float]:
    """``<layer>.calls`` and ``<layer>.self_ms`` per query, for every layer."""
    own = self_times(spans)
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        calls[span[3]] += 1
        busy[span[3]] += own[span[1]]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / queries
        out[f"{layer}.self_ms"] = busy[layer] * 1000.0 / queries
    return out


def parser_ms(spans, queries: int) -> float:
    """Time building the parser and parsing arguments, per query."""
    total = sum(end - start for *_, name, start, end in spans if name in ("build_parser", "parse_args"))
    return total * 1000.0 / queries
