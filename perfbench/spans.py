"""Spans around gofusion's public functions, recorded from outside the program.

``install`` replaces each function named in ``SPANS`` by a timing wrapper
wherever one of ``CALL_SITES`` binds it, so the program's own code is not
edited.  Spans nest per thread: a span's self time is its duration minus
the time of the spans it called.  ``layer_metrics`` turns a recorded
snapshot into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict

CALL_SITES = ("gofusion.cli", "gofusion.fusion", "gofusion.clustering", "gofusion.enrichment")

# (span name, module defining the function, function name)
SPANS = (
    ("ontology.parse_obo", "gofusion.ontology", "parse_obo"),
    ("annotations.load_annotations", "gofusion.annotations", "load_annotations"),
    ("annotations.build_corpus", "gofusion.annotations", "build_corpus"),
    ("expression.load_expression", "gofusion.expression", "load_expression"),
    ("expression.expression_distance_matrix", "gofusion.expression", "expression_distance_matrix"),
    ("expression.write_distance_tsv", "gofusion.expression", "write_distance_tsv"),
    ("expression.read_distance_tsv", "gofusion.expression", "read_distance_tsv"),
    ("clustering.read_partition_tsv", "gofusion.clustering", "read_partition_tsv"),
    ("semantic.semantic_distance_matrix", "gofusion.semantic", "semantic_distance_matrix"),
    ("fusion.tune_gamma", "gofusion.fusion", "tune_gamma"),
    ("fusion.combine_gamma", "gofusion.fusion", "combine_gamma"),
    ("fusion.percentile_equalize", "gofusion.fusion", "percentile_equalize"),
    ("clustering.cluster_a", "gofusion.clustering", "cluster_a"),
    ("clustering.build_medoids", "gofusion.clustering", "build_medoids"),
    ("clustering.swap_refine", "gofusion.clustering", "swap_refine"),
    ("clustering.assign_b", "gofusion.clustering", "assign_b"),
    ("enrichment.enrich_partition", "gofusion.enrichment", "enrich_partition"),
    ("enrichment.infer_functions", "gofusion.enrichment", "infer_functions"),
    ("enrichment.enrich_cluster", "gofusion.enrichment", "enrich_cluster"),
    ("enrichment.export_term_graph", "gofusion.enrichment", "export_term_graph"),
    ("metrics.semantic_compactness", "gofusion.metrics", "semantic_compactness"),
    ("metrics.bhi", "gofusion.metrics", "bhi"),
    ("metrics.bc", "gofusion.metrics", "bc"),
    ("metrics.fowlkes_mallows", "gofusion.metrics", "fowlkes_mallows"),
    ("metrics.recall_inferred", "gofusion.metrics", "recall_inferred"),
    ("metrics.label_counts", "gofusion.metrics", "label_counts"),
    ("metrics.popular_terms", "gofusion.metrics", "popular_terms"),
)

MAIN = "cli.main"


class Tracer:
    """In-memory span totals; one stack of open spans per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.parent_calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.last: dict[str, list] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span; ``before(*args, **kw)`` and ``after(result)``
        run outside the span's time and are charged to no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if before is not None:
                h0 = time.perf_counter()
                before(*args, **kwargs)
                self._hook_time(stack, time.perf_counter() - h0)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                with self._lock:
                    self.total[name] += dt
                    self.self_time[name] += dt - frame[1]
                    self.calls[name] += 1
                    if parent is not None:
                        self.parent_calls[f"{name}<{parent[0]}"] += 1
            if after is not None:
                h0 = time.perf_counter()
                after(result)
                self._hook_time(stack, time.perf_counter() - h0)
            return result

        return wrapper

    @staticmethod
    def _hook_time(stack: list, dt: float) -> None:
        # hook time counts as child time of the enclosing span, not its self time
        if stack:
            stack[-1][1] += dt

    def _count_semantic(self, o, c, genes, *args, **kwargs) -> None:
        union = {t for g in genes for t in c.direct_terms(g)}
        n, u = len(genes), len(union)
        with self._lock:
            self.counters["semantic.union_terms"] += u
            self.counters["semantic.gene_pairs"] += n * (n - 1) // 2
            self.counters["semantic.term_pairs"] += u * (u + 1) // 2
            self.counters["semantic.ancestors"] += sum(len(o.ancestors(t)) for t in union)

    def _keep(self, key: str):
        def after(result) -> None:
            self.last[key] = sorted(int(m) for m in result)

        return after

    def snapshot(self) -> dict:
        build, final = self.last.get("build", []), self.last.get("swap", [])
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "parent_calls": dict(self.parent_calls),
            "counters": dict(self.counters),
            "medoids_moved": len(set(build) - set(final)),
        }


def install(tracer: Tracer) -> None:
    """Wrap every function of ``SPANS`` at each call site that binds it.

    A function that no call site binds raises, so a refactor that moves or
    renames a call site stops the traced run instead of reporting zeros.
    """
    hooks = {
        "semantic.semantic_distance_matrix": {"before": tracer._count_semantic},
        "clustering.build_medoids": {"after": tracer._keep("build")},
        "clustering.swap_refine": {"after": tracer._keep("swap")},
    }
    sites = [importlib.import_module(m) for m in CALL_SITES]
    for name, home, attr in SPANS:
        original = getattr(importlib.import_module(home), attr)
        wrapper = tracer.wrap(name, original, **hooks.get(name, {}))
        bound = [site for site in sites if getattr(site, attr, None) is original]
        if not bound:
            raise RuntimeError(f"no call site binds {home}.{attr}")
        for site in bound:
            setattr(site, attr, wrapper)


# Per-layer metrics: name -> unit.  Times are totals over the run ("self"
# excludes child spans); the rest are exact counts.
LAYER_UNITS = {
    "cli.self_s": "s",
    "ontology.parse_s": "s",
    "annotations.load_s": "s",
    "expression.load_s": "s",
    "expression.distance_s": "s",
    "expression.tsv_write_s": "s",
    "expression.tsv_read_s": "s",
    "semantic.matrix_s": "s",
    "semantic.calls": "count",
    "semantic.union_terms": "count",
    "semantic.gene_pairs": "count",
    "semantic.term_pairs": "count",
    "semantic.mean_ancestors": "count",
    "fusion.tune_gamma_s": "s",
    "fusion.tune_gamma_self_s": "s",
    "fusion.cells": "count",
    "fusion.cell_ms": "ms",
    "fusion.equalize_s": "s",
    "fusion.combine_s": "s",
    "clustering.cluster_a_s": "s",
    "clustering.cluster_a_calls": "count",
    "clustering.build_s": "s",
    "clustering.swap_s": "s",
    "clustering.swap_ms_per_call": "ms",
    "clustering.medoids_moved": "count",
    "clustering.assign_b_s": "s",
    "enrichment.enrich_s": "s",
    "enrichment.enrich_cluster_calls": "count",
    "enrichment.term_graph_s": "s",
    "metrics.eval_s": "s",
    "metrics.compactness_calls": "count",
}

# Counts that must repeat exactly on every run of one workload and seed.
EXACT_COUNTS = (
    "semantic.calls",
    "semantic.union_terms",
    "semantic.gene_pairs",
    "semantic.term_pairs",
    "semantic.mean_ancestors",
    "fusion.cells",
    "clustering.cluster_a_calls",
    "clustering.medoids_moved",
    "enrichment.enrich_cluster_calls",
    "metrics.compactness_calls",
)


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (see ``LAYER_UNITS``)."""
    total, calls, counters = snap["total"], snap["calls"], snap["counters"]

    def t(*names: str) -> float:
        return sum(total.get(n, 0.0) for n in names)

    def per_call_ms(seconds: float, n: int) -> float:
        return 1000.0 * seconds / n if n else 0.0

    union = counters.get("semantic.union_terms", 0)
    cells = snap["parent_calls"].get("clustering.cluster_a<fusion.tune_gamma", 0)
    metric_fns = [name for name, home, _ in SPANS if home == "gofusion.metrics"]
    return {
        "cli.self_s": snap["self"].get(MAIN, 0.0),
        "ontology.parse_s": t("ontology.parse_obo"),
        "annotations.load_s": t("annotations.load_annotations", "annotations.build_corpus"),
        "expression.load_s": t("expression.load_expression"),
        "expression.distance_s": t("expression.expression_distance_matrix"),
        "expression.tsv_write_s": t("expression.write_distance_tsv"),
        "expression.tsv_read_s": t("expression.read_distance_tsv", "clustering.read_partition_tsv"),
        "semantic.matrix_s": t("semantic.semantic_distance_matrix"),
        "semantic.calls": calls.get("semantic.semantic_distance_matrix", 0),
        "semantic.union_terms": union,
        "semantic.gene_pairs": counters.get("semantic.gene_pairs", 0),
        "semantic.term_pairs": counters.get("semantic.term_pairs", 0),
        "semantic.mean_ancestors": counters.get("semantic.ancestors", 0) / union if union else 0.0,
        "fusion.tune_gamma_s": t("fusion.tune_gamma"),
        "fusion.tune_gamma_self_s": snap["self"].get("fusion.tune_gamma", 0.0),
        "fusion.cells": cells,
        "fusion.cell_ms": per_call_ms(t("fusion.tune_gamma"), cells),
        "fusion.equalize_s": t("fusion.percentile_equalize"),
        "fusion.combine_s": t("fusion.combine_gamma"),
        "clustering.cluster_a_s": t("clustering.cluster_a"),
        "clustering.cluster_a_calls": calls.get("clustering.cluster_a", 0),
        "clustering.build_s": t("clustering.build_medoids"),
        "clustering.swap_s": t("clustering.swap_refine"),
        "clustering.swap_ms_per_call": per_call_ms(
            t("clustering.swap_refine"), calls.get("clustering.swap_refine", 0)
        ),
        "clustering.medoids_moved": snap["medoids_moved"],
        "clustering.assign_b_s": t("clustering.assign_b"),
        "enrichment.enrich_s": t("enrichment.enrich_partition", "enrichment.infer_functions"),
        "enrichment.enrich_cluster_calls": calls.get("enrichment.enrich_cluster", 0),
        "enrichment.term_graph_s": t("enrichment.export_term_graph"),
        "metrics.eval_s": t(*metric_fns),
        "metrics.compactness_calls": calls.get("metrics.semantic_compactness", 0),
    }


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced invocations; a count that
    repeats keeps its exact value."""
    out = {}
    for k in per_run[0]:
        values = [m[k] for m in per_run]
        out[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
