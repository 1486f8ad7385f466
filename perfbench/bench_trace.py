"""Span tracing of the program's public functions, installed from outside.

The tracer replaces each target with a wrapper in every threeweight module
namespace that binds it (a function imported into another module is a
second binding), and replaces methods on their class.  A wrapper times the
call, charges the time to its caller's span, and aggregates by
(name, parent); low-frequency names also keep each span with its job id.
Self time is a span's duration minus the time its traced children cover.

Hot leaf helpers (encode_vector/decode_vector, binomial, krawtchouk,
FieldMatrix accessors) are left alone: their per-call cost is close to the
wrapper's own, so tracing them would mostly measure the tracer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

from bench_oracles import box_cells

MARK = "__perfbench_span__"

# (module, attribute or Class.method, span name, keep individual spans)
TARGETS = (
    ("cli", "main", "cli.main", True),
    ("cli", "emit_report", "cli.emit_report", True),
    ("matrixio", "parse_matrix_file", "matrixio.parse", True),
    ("gfmat", "FieldMatrix.rref", "gfmat.rref", False),
    ("code", "LinearCode.weight_distribution", "code.weight_distribution", True),
    ("code", "LinearCode.is_projective", "code.is_projective", False),
    ("transform", "three_weight_solve", "transform.three_weight_solve", False),
    ("transform", "solve_three_weight_general", "transform.solve_three_weight_general", False),
    ("transform", "dual_distribution", "transform.dual_distribution", False),
    ("transform", "krawtchouk_column", "transform.krawtchouk_column", False),
    ("feasibility", "weight_triples", "feasibility.weight_triples", False),
    ("feasibility", "evaluate_candidate", "feasibility.evaluate_candidate", False),
    ("feasibility", "dual_sequence_exact", "feasibility.dual_sequence_exact", False),
    ("feasibility", "apply_filters", "feasibility.apply_filters", False),
    ("feasibility", "dodunekov_check", "feasibility.dodunekov_check", False),
    ("feasibility", "enumerate_candidates", "feasibility.enumerate_candidates", True),
    ("feasibility", "load_annotations", "feasibility.load_annotations", True),
    ("feasibility", "merge_annotations", "feasibility.merge_annotations", True),
    ("feasibility", "feasibility_report", "feasibility.feasibility_report", True),
    ("feasibility", "counterexample_scan", "feasibility.counterexample_scan", True),
    ("swrg", "coset_graph", "swrg.coset_graph", True),
    ("swrg", "CosetGraph.apply_adjacency", "swrg.apply_adjacency", False),
    ("swrg", "CosetGraph.spectrum_multiplicities", "swrg.spectrum_multiplicities", True),
    ("swrg", "verify_spectrum", "swrg.verify_spectrum", True),
    ("swrg", "is_s_swrg", "swrg.is_s_swrg", True),
    ("swrg", "tss_check", "swrg.tss_check", True),
    ("curve", "search_report", "curve.search_report", True),
    ("curve", "search_integral_points", "curve.search_integral_points", True),
    ("curve", "monomial_sum", "curve.monomial_sum", False),
)

LAYERS = ("cli", "matrixio", "gfmat", "code", "transform", "feasibility", "swrg", "curve")

# Per-layer metric name -> unit.  Suffixes: .calls counts calls, .s is
# inclusive time, .self_s is time minus traced children.
PER_LAYER = {
    "cli.main.self_s": "s",
    "cli.emit_report.s": "s",
    "matrixio.parse.calls": "count",
    "matrixio.parse.self_s": "s",
    "gfmat.rref.calls": "count",
    "gfmat.rref.s": "s",
    "code.weight_distribution.calls": "count",
    "code.enum_q2.s": "s",
    "code.enum_q3.s": "s",
    "code.codewords_q2": "count",
    "code.codewords_q3": "count",
    "code.enum_q2.codewords_per_s": "1/s",
    "code.enum_q3.codewords_per_s": "1/s",
    "code.is_projective.calls": "count",
    "code.is_projective.s": "s",
    "transform.three_weight_solve.calls": "count",
    "transform.three_weight_solve.self_s": "s",
    "transform.solve_three_weight_general.calls": "count",
    "transform.solve_three_weight_general.s": "s",
    "transform.dual_distribution.calls": "count",
    "transform.dual_distribution.s": "s",
    "transform.krawtchouk_column.calls": "count",
    "transform.krawtchouk_column.s": "s",
    "feasibility.weight_triples.calls": "count",
    "feasibility.evaluate_candidate.calls": "count",
    "feasibility.evaluate_candidate.self_s": "s",
    "feasibility.admitted": "count",
    "feasibility.admit_ratio": "ratio",
    "feasibility.dual_sequence_exact.calls": "count",
    "feasibility.dual_reach_ratio": "ratio",
    "feasibility.apply_filters.calls": "count",
    "feasibility.apply_filters.s": "s",
    "feasibility.dodunekov_check.calls": "count",
    "feasibility.dodunekov_check.s": "s",
    "feasibility.load_annotations.calls": "count",
    "feasibility.load_annotations.s": "s",
    "feasibility.merge_annotations.s": "s",
    "feasibility.scan_survivors": "count",
    "swrg.coset_graph.calls": "count",
    "swrg.coset_graph.s": "s",
    "swrg.apply_adjacency.q2.s": "s",
    "swrg.apply_adjacency.q3.s": "s",
    "swrg.adjacency_ops": "count",
    "swrg.spectrum_multiplicities.calls": "count",
    "swrg.spectrum_multiplicities.s": "s",
    "swrg.verify_spectrum.s": "s",
    "swrg.is_s_swrg.s": "s",
    "swrg.tss_check.calls": "count",
    "swrg.tss_check.s": "s",
    "swrg.tss_triples": "count",
    "curve.search_integral_points.calls": "count",
    "curve.search_integral_points.self_s": "s",
    "curve.monomial_sum.calls": "count",
    "curve.monomial_sum.s": "s",
    "curve.box_cells": "count",
    "curve.points": "count",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}

# Counters filled by hooks: exact counts must repeat from round to round.
EXACT_COUNTERS = (
    "codewords_q2",
    "codewords_q3",
    "admitted",
    "scan_survivors",
    "adjacency_ops",
    "tss_triples",
    "box_cells",
    "points",
)


class Tracer:
    """Installs span wrappers, collects one round's aggregates, restores."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, time covered by children]
        self.stats: dict[tuple[str, str | None], list] = {}  # calls, total, child
        self.spans: list[tuple] = []  # name, start, end, parent, job
        self.counters: Counter = Counter()
        self.job: str | None = None
        self.hook_errors: list[str] = []
        self.missing: list[str] = []
        self._seen_codes: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._epoch = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        modules = _program_modules()
        for module, attr, name, keep in TARGETS:
            owner = modules.get(f"threeweight.{module}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(method) if cls is not None else None
                if original is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                self._patch(cls, method, original, name, keep)
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, name, keep)

    def _patch(self, owner: object, key: str, original, name: str, keep: bool) -> None:
        setattr(owner, key, self._wrap(original, name, keep))
        self._patches.append((owner, key, original))

    def restore(self) -> list[str]:
        """Put every original back; return the bindings still wrapped."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        left = []
        for mod_name, mod in _program_modules().items():
            for key, value in vars(mod).items():
                if getattr(value, MARK, None):
                    left.append(f"{mod_name}.{key}")
                if isinstance(value, type):
                    left += [
                        f"{mod_name}.{key}.{m}"
                        for m, v in vars(value).items()
                        if getattr(v, MARK, None)
                    ]
        return left

    def _wrap(self, fn, name: str, keep: bool):
        stack, stats, spans, clock = self.stack, self.stats, self.spans, time.perf_counter
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                entry = stats.get((name, parent))
                if entry is None:
                    stats[(name, parent)] = [1, elapsed, frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += frame[1]
                if keep:
                    epoch = tracer._epoch
                    spans.append((name, start - epoch, end - epoch, parent, tracer.job))
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result, elapsed)
                except Exception as exc:  # a hook must never disturb the program
                    tracer.hook_errors.append(f"{name}: {exc!r}")
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    # -- results -------------------------------------------------------------

    def reset(self) -> None:
        """Clear the collected data, keeping the installed wrappers."""
        self.stats.clear()
        self.spans.clear()
        self.counters.clear()
        self._seen_codes.clear()

    def call_counts(self) -> dict[str, int]:
        out = {f"{n}<-{p}": v[0] for (n, p), v in sorted(self.stats.items(), key=str)}
        out.update({c: self.counters[c] for c in EXACT_COUNTERS})
        return out

    def root_calls(self, name: str) -> int:
        entry = self.stats.get((name, None))
        return entry[0] if entry else 0

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        out: dict[str, list] = {}
        for (name, _), (calls, total, child) in self.stats.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += total - child
        return {k: tuple(v) for k, v in out.items()}

    def aggregate_rows(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "calls": c, "s": t, "self_s": t - ch}
            for (n, p), (c, t, ch) in sorted(self.stats.items(), key=str)
        ]

    def per_layer_metrics(self, overhead_s: float) -> dict[str, float]:
        """Every PER_LAYER metric of the collected round (0 where unused)."""
        tot = self.totals()
        column = {"calls": 0, "s": 1, "self_s": 2}
        out = {}
        for metric in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if kind in column:
                out[metric] = tot.get(base, (0, 0.0, 0.0))[column[kind]]
        c = self.counters
        evaluated = out["feasibility.evaluate_candidate.calls"]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                v[2] for n, v in tot.items() if n.split(".", 1)[0] == layer
            )
        for q in (2, 3):
            enum_s = c[f"enum_q{q}_s"]
            out[f"code.enum_q{q}.s"] = enum_s
            out[f"code.codewords_q{q}"] = c[f"codewords_q{q}"]
            rate = c[f"codewords_q{q}"] / enum_s if enum_s else 0.0
            out[f"code.enum_q{q}.codewords_per_s"] = rate
            out[f"swrg.apply_adjacency.q{q}.s"] = c[f"adjacency_q{q}_s"]
        out["feasibility.admitted"] = c["admitted"]
        out["feasibility.admit_ratio"] = c["admitted"] / evaluated if evaluated else 0.0
        out["feasibility.dual_reach_ratio"] = (
            out["feasibility.dual_sequence_exact.calls"] / evaluated if evaluated else 0.0
        )
        out["feasibility.scan_survivors"] = c["scan_survivors"]
        out["swrg.adjacency_ops"] = c["adjacency_ops"]
        out["swrg.tss_triples"] = c["tss_triples"]
        out["curve.box_cells"] = c["box_cells"]
        out["curve.points"] = c["points"]
        out["trace.overhead_s"] = overhead_s
        return out


def _program_modules() -> dict[str, object]:
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "threeweight" or name.startswith("threeweight."))
    }


# -- hooks: counts computed from a call's arguments and result ------------------


def _weight_distribution(tracer, args, kwargs, result, elapsed):
    code = args[0]
    tracer.counters[f"enum_q{code.q}_s"] += elapsed
    if id(code) not in tracer._seen_codes:
        tracer._seen_codes[id(code)] = code  # held so the id is not reused
        tracer.counters[f"codewords_q{code.q}"] += code.q**code.k


def _apply_adjacency(tracer, args, kwargs, result, elapsed):
    graph = args[0]
    tracer.counters[f"adjacency_q{graph.q}_s"] += elapsed
    tracer.counters["adjacency_ops"] += graph.nvertices * graph.degree


def _evaluate_candidate(tracer, args, kwargs, result, elapsed):
    tracer.counters["admitted"] += result is not None


def _counterexample_scan(tracer, args, kwargs, result, elapsed):
    tracer.counters["scan_survivors"] += len(result)


def _tss_check(tracer, args, kwargs, result, elapsed):
    tracer.counters["tss_triples"] += result.size**3


def _search_integral_points(tracer, args, kwargs, result, elapsed):
    query = args[0] if args else kwargs["query"]
    tracer.counters["box_cells"] += _box_cells(query.bound)
    tracer.counters["points"] += len(result)


@functools.lru_cache(maxsize=None)
def _box_cells(bound: int) -> int:
    return box_cells(bound)


_HOOKS = {
    "code.weight_distribution": _weight_distribution,
    "swrg.apply_adjacency": _apply_adjacency,
    "feasibility.evaluate_candidate": _evaluate_candidate,
    "feasibility.counterexample_scan": _counterexample_scan,
    "swrg.tss_check": _tss_check,
    "curve.search_integral_points": _search_integral_points,
}
