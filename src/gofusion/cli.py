"""Command-line pipeline: distances, balancing, clustering, assignment,
enrichment, inference and evaluation, each also exposed as a subcommand.

``COMMANDS`` lists each subcommand with the options it reads, and each
takes only those flags (``pipeline`` takes them all).  A flat
``key = value`` file (``--config``) may set any option for any
subcommand; a command-line flag of the same name wins.  Every pipeline run
writes ``run_manifest.json`` with all resolved parameters, input digests
and tool versions, which is sufficient to reproduce the run byte for byte
(``pipeline --from-manifest``), and the ``LoadDiagnostics`` of each
annotation file it read (``inputs.annotations.diagnostics``, and
``inputs.truth.diagnostics`` with ``--truth``), also when a later stage
fails.  Exit codes: 0 ok, 2 config error, 3 data error, 4
numeric/degenerate error.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, fields
from hashlib import sha256
from inspect import signature
from pathlib import Path
from types import UnionType
from typing import TextIO, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .annotations import AnnotationCorpus, build_corpus, load_annotations
from .clustering import (
    PAM_BUILD,
    Partition,
    assign_b,
    assigned_subpartition,
    cluster_a,
    partition_cost,
    partition_metadata,
    read_partition_tsv,
    with_members_b,
    write_partition_tsv,
)
from .enrichment import (
    CORRECTIONS,
    InferredAnnotation,
    enrich_partition,
    export_term_graph,
    infer_functions,
    read_inferred_tsv,
    write_enrichment_tsv,
    write_inferred_tsv,
)
from .errors import ConfigError, DataError, GofusionError
from .expression import (
    METRICS,
    DistanceMatrix,
    ExpressionMatrix,
    expression_distance_matrix,
    load_expression,
    read_distance_tsv,
    upper_triangle,
    write_distance_tsv,
)
from .fusion import combine_gamma, percentile_equalize, tune_gamma
from .metrics import (
    MetricReport,
    bc,
    bhi,
    fowlkes_mallows,
    label_counts,
    popular_terms,
    recall_inferred,
    semantic_compactness,
)
from .ontology import Ontology, parse_obo
from .semantic import SIMILARITY_KINDS, semantic_distance_matrix
from .synth import make_dataset, write_dataset

BALANCINGS = ("percentile", "gamma_tuning", "fixed_gamma")

# rows of a distance matrix per histogram call
_HISTOGRAM_ROWS = 128
# equal bins of [0, 1] in each ``hist_*.csv``
_HISTOGRAM_BINS = 50

_CHOICES = {
    "metric": METRICS,
    "similarity": SIMILARITY_KINDS,
    "balancing": BALANCINGS,
    "correction": CORRECTIONS,
}


@dataclass
class PipelineConfig:
    """Resolved configuration; unset keys stay None until validated."""

    obo: Path | None = None
    annotations: Path | None = None
    expression_a: Path | None = None
    expression_b: Path | None = None
    truth: Path | None = None
    d_e: Path | None = None
    d_go: Path | None = None
    partition: Path | None = None
    inferred: Path | None = None
    against: Path | None = None
    out_dir: Path | None = None
    namespace: str = "biological_process"
    metric: str = "euclidean"
    similarity: str = "relevance"
    balancing: str = "gamma_tuning"
    correction: str = "none"
    gamma: float | None = None
    grid_step: float = 0.05
    split: float = 0.5
    alpha: float = 0.05
    m: int = 20
    k: int | None = None
    runs: int = 10
    seed: int | None = None
    workers: int = 1
    popular_threshold: int | None = None
    evidence_exclude: tuple[str, ...] = ("ND",)

    def require(self, *keys: str) -> None:
        missing = [k for k in keys if getattr(self, k) is None]
        if missing:
            raise ConfigError(f"missing required option(s): {', '.join(missing)}")
        for k in keys:
            v = getattr(self, k)
            if k != "out_dir" and isinstance(v, Path) and not v.exists():
                raise ConfigError(f"{k} path does not exist: {v}")

    def validate_choices(self) -> None:
        for key, choices in _CHOICES.items():
            v = getattr(self, key)
            if v is not None and v not in choices:
                raise ConfigError(f"{key} must be one of {choices}, got {v!r}")
        if self.balancing == "fixed_gamma" and self.gamma is None:
            raise ConfigError("balancing=fixed_gamma requires gamma")
        if self.balancing != "fixed_gamma" and self.gamma is not None:
            raise ConfigError("gamma is only valid with balancing=fixed_gamma")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")

    def as_manifest_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                out[f.name] = None
            elif isinstance(v, Path):
                out[f.name] = str(v.resolve())
            elif isinstance(v, tuple):
                out[f.name] = ",".join(v)
            else:
                out[f.name] = v
        return out


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines; quotes optional, # starts a comment line."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected key = value, got {line!r}")
        key = key.strip()
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] == '"':
            value = value[1:-1]
        out[key] = value
    return out


def _option_type(hint: object) -> type:
    """The type an option's value takes: ``Path`` for ``Path | None``."""
    if get_origin(hint) is UnionType:
        return next(t for t in get_args(hint) if t is not type(None))
    return get_origin(hint) or hint


# each option's type, as ``PipelineConfig`` declares it
_OPTION_TYPES = {k: _option_type(h) for k, h in get_type_hints(PipelineConfig).items()}


def _coerce(key: str, value) -> object:
    if value is None:
        return None
    kind = _OPTION_TYPES[key]
    noun = {int: "an integer", float: "a number", Path: "a path"}.get(kind, "a string")
    # a manifest holds JSON values: int() and float() accept a JSON true,
    # int() truncates 7.9 and str() takes anything; each would replay
    # another run than the manifest names
    if (
        isinstance(value, bool)
        or kind is int and isinstance(value, float)
        or kind in (str, tuple) and not isinstance(value, str)
    ):
        raise ConfigError(f"{key} must be {noun}, got {value!r}")
    if kind is tuple:
        return tuple(v.strip() for v in value.split(",") if v.strip())
    try:
        return kind(value)
    except (TypeError, ValueError):  # TypeError: a manifest value of another JSON type
        raise ConfigError(f"{key} must be {noun}, got {value!r}") from None


def _removed_option(key: str, value: object) -> bool:
    """Whether ``key`` is ``seeding``, which chose the medoid build until
    ``pam_build`` was the only one; an older manifest or config file that
    sets it to another value is a ConfigError."""
    if key == "seeding" and value != PAM_BUILD:
        raise ConfigError(f"seeding {value!r} was removed: the literal build score "
                          f"is gone, and medoids are built with {PAM_BUILD!r} only")
    return key == "seeding"


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """Layer defaults < manifest < config file < CLI flags."""
    values: dict[str, object] = {}
    manifest_path = getattr(args, "from_manifest", None)
    if manifest_path:
        try:
            manifest = json.loads(Path(manifest_path).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read manifest {manifest_path}: {e}") from None
        config = manifest.get("config", {}) if isinstance(manifest, dict) else None
        if not isinstance(config, dict):
            raise ConfigError(f"manifest {manifest_path} has no config object")
        for key, v in config.items():
            # None: an unset option, also one this version no longer has
            if v is None or _removed_option(key, v):
                continue
            if key not in _OPTION_TYPES:
                raise ConfigError(f"manifest {manifest_path} sets unknown option {key!r}")
            values[key] = _coerce(key, v)
    if getattr(args, "config", None):
        try:
            raw = parse_config_text(Path(args.config).read_text())
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config file {args.config}: {e}") from None
        for key, v in raw.items():
            if _removed_option(key, v):
                continue
            if key not in _OPTION_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _coerce(key, v)
    for f in fields(PipelineConfig):
        cli_val = getattr(args, f.name, None)
        if cli_val is not None:
            values[f.name] = _coerce(f.name, cli_val)
    cfg = PipelineConfig(**values)
    cfg.validate_choices()
    return cfg


# -- inputs --------------------------------------------------------------------


def _read(cfg: PipelineConfig, key: str, inputs: dict | None = None) -> str:
    """Text of the input file named by option ``key``.

    A missing option or path, or a path that cannot be read (a directory,
    no permission), is a ConfigError; bytes that are not UTF-8 are a
    DataError.  A leading UTF-8 byte-order mark is dropped.  With
    ``inputs``, records the path and the SHA-256 of its bytes there.
    """
    cfg.require(key)
    path = getattr(cfg, key)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise ConfigError(f"cannot read {key} {path}: {e}") from None
    if inputs is not None:
        inputs[key] = {"path": str(path.resolve()), "sha256": sha256(data).hexdigest()}
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        raise DataError(f"{key} {path} is not UTF-8: {e}") from None


def _load_annotations(
    cfg: PipelineConfig, key: str, o: Ontology, inputs: dict | None = None
) -> AnnotationCorpus:
    """The corpus in the file named by option ``key``; with ``inputs``, also
    records its ``LoadDiagnostics`` there, next to the file's digest."""
    corpus = load_annotations(
        _read(cfg, key, inputs), o, cfg.namespace, frozenset(cfg.evidence_exclude)
    )
    if inputs is not None:
        inputs[key]["diagnostics"] = asdict(corpus.diagnostics)
    return corpus


def _load_truth(
    cfg: PipelineConfig, o: Ontology, inputs: dict | None = None
) -> dict[str, frozenset[str]] | None:
    if cfg.truth is None:
        return None
    return dict(_load_annotations(cfg, "truth", o, inputs).direct)


def _require_annotated(what: str, genes: Iterable[str], corpus: AnnotationCorpus) -> None:
    """DataError unless the corpus annotates every gene of ``genes``."""
    missing = [g for g in genes if g not in corpus.direct]
    if missing:
        raise DataError(f"{len(missing)} {what} genes lack annotations, e.g. {missing[:5]}")


def _load_a(
    cfg: PipelineConfig, inputs: dict | None = None
) -> tuple[Ontology, AnnotationCorpus, ExpressionMatrix]:
    """Ontology, annotations and the A expression matrix, every A gene annotated."""
    o = parse_obo(_read(cfg, "obo", inputs))
    corpus = _load_annotations(cfg, "annotations", o, inputs)
    expr_a = load_expression(_read(cfg, "expression_a", inputs))
    _require_annotated("expression", expr_a.genes, corpus)
    return o, corpus, expr_a


def _load_partition_inputs(
    cfg: PipelineConfig,
) -> tuple[Ontology, AnnotationCorpus, Partition]:
    """What ``enrich``, ``infer`` and ``eval`` start from, every A gene annotated."""
    cfg.require("partition", "obo", "annotations", "out_dir")
    o = parse_obo(_read(cfg, "obo"))
    corpus = _load_annotations(cfg, "annotations", o)
    part = read_partition_tsv(_read(cfg, "partition"))
    _require_annotated("partition A", sorted(part.genes_a()), corpus)
    return o, corpus, part


def _histogram_csv(dm: DistanceMatrix) -> str:
    """Counts of the strict upper triangle's values in ``_HISTOGRAM_BINS``
    equal bins of [0, 1], taken over blocks of rows: each value's bin depends
    on that value alone, so the blocks' integer counts add up to the same numbers."""
    n = len(dm.genes)
    upper = upper_triangle(n)
    bins = _HISTOGRAM_BINS
    counts = np.zeros(bins, dtype=np.int64)
    for lo in range(0, n, _HISTOGRAM_ROWS):
        rows = slice(lo, lo + _HISTOGRAM_ROWS)
        counts += np.histogram(dm.d[rows][upper[rows]], bins=bins, range=(0.0, 1.0))[0]
    edges = np.histogram_bin_edges(dm.d, bins=bins, range=(0.0, 1.0))
    mids = (edges[:-1] + edges[1:]) / 2.0
    lines = ["value,count"]
    for v, n in zip(mids, counts):
        lines.append(f"{v:.10g},{int(n)}")
    return "\n".join(lines) + "\n"


@contextmanager
def _output(out_dir: Path, name: str) -> Iterator[TextIO]:
    """One output file, open for writing text; an ``out_dir`` that cannot
    hold it is a ConfigError, also when a write into it fails."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with (out_dir / name).open("w", newline="\n") as f:
            yield f
    except OSError as e:
        raise ConfigError(f"cannot write {name} to out_dir {out_dir}: {e}") from None


# ru_maxrss counts KiB on Linux and bytes on macOS
_RSS_PER_MB = 1024 * 1024 if sys.platform == "darwin" else 1024


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _RSS_PER_MB


def _write(out_dir: Path, name: str, text: str) -> None:
    with _output(out_dir, name) as f:
        f.write(text)


def _merged_corpus(
    corpus: AnnotationCorpus, truth: dict[str, frozenset[str]], o: Ontology, namespace: str
) -> AnnotationCorpus:
    merged = {g: set(ts) for g, ts in corpus.direct.items()}
    for g, ts in truth.items():
        merged.setdefault(g, set()).update(ts)
    return build_corpus(merged, o, namespace)


# -- stages shared by pipeline and the subcommands ------------------------------


def _matrices(
    cfg: PipelineConfig, o: Ontology, corpus: AnnotationCorpus, expr_a: ExpressionMatrix
) -> tuple[DistanceMatrix, DistanceMatrix]:
    """The expression and semantic distance matrices over the A genes."""
    d_e = expression_distance_matrix(expr_a, cfg.metric)
    return d_e, semantic_distance_matrix(o, corpus, expr_a.genes, cfg.similarity)


def _distances(
    cfg: PipelineConfig, o: Ontology, corpus: AnnotationCorpus, expr_a: ExpressionMatrix
) -> tuple[DistanceMatrix, DistanceMatrix]:
    """``_matrices``, also written with their histograms."""
    d_e, d_go = _matrices(cfg, o, corpus, expr_a)
    for name, dm in (("d_e", d_e), ("d_go", d_go)):
        with _output(cfg.out_dir, f"{name}.tsv") as f:
            write_distance_tsv(dm, f)
        _write(cfg.out_dir, f"hist_{name}.csv", _histogram_csv(dm))
    return d_e, d_go


def _tune(
    cfg: PipelineConfig, expr_a: ExpressionMatrix, d_e: DistanceMatrix, d_go: DistanceMatrix
) -> float:
    """Run ``tune_gamma``, write ``tuning.json``/``tuning.csv``, return the best gamma."""
    report = tune_gamma(
        expr_a,
        d_e,
        d_go,
        cfg.k,
        grid_step=cfg.grid_step,
        runs=cfg.runs,
        split=cfg.split,
        seed=cfg.seed,
        metric=cfg.metric,
    )
    _write(cfg.out_dir, "tuning.json", report.to_json())
    _write(cfg.out_dir, "tuning.csv", report.to_csv())
    return report.best_gamma


def _fuse(
    cfg: PipelineConfig,
    held_e: list[DistanceMatrix],
    d_go: DistanceMatrix,
    gamma: float | None = None,
) -> tuple[float, DistanceMatrix]:
    """The percentile blend at 0.5, or the raw blend at ``gamma`` (by default
    the configured one); writes ``d_gamma.tsv`` and returns the gamma used.

    ``held_e`` is a one-item list holding ``d_e``, which is taken out, so that
    when the caller keeps no other reference the raw ``d_e`` is freed once it
    is equalized, before ``d_go`` is."""
    d_e = held_e.pop()
    if cfg.balancing == "percentile":
        gamma = 0.5
        eq_e = percentile_equalize(d_e, cfg.m)
        del d_e
        d_gamma = combine_gamma(eq_e, percentile_equalize(d_go, cfg.m), gamma)
    else:
        gamma = float(cfg.gamma) if gamma is None else gamma
        d_gamma = combine_gamma(d_e, d_go, gamma)
    with _output(cfg.out_dir, "d_gamma.tsv") as f:
        write_distance_tsv(d_gamma, f)
    return gamma, d_gamma


def _cluster(cfg: PipelineConfig, d_gamma: DistanceMatrix) -> tuple[Partition, float]:
    """``cluster_a`` on ``d_gamma`` and the partition's cost there."""
    part = cluster_a(d_gamma, cfg.k)
    medoids = [d_gamma.index_of(cl.medoid) for cl in part.clusters]
    return part, partition_cost(d_gamma.d, medoids)


def _assign(
    cfg: PipelineConfig, part: Partition, expr_a: ExpressionMatrix, expr_b: ExpressionMatrix
) -> Partition:
    """Attach the B genes by expression distance, percentile-equalized under
    ``balancing=percentile`` and raw otherwise, and write ``partition.tsv``."""
    if expr_a.conditions != expr_b.conditions:
        raise DataError("A and B expression files have different condition columns")
    overlap = set(expr_a.genes) & set(expr_b.genes)
    if overlap:
        raise DataError(f"B genes overlap A genes: {sorted(overlap)[:5]}")
    combined = ExpressionMatrix(
        expr_a.genes + expr_b.genes,
        expr_a.conditions,
        np.vstack([expr_a.values, expr_b.values]),
    )
    d_ab = expression_distance_matrix(combined, cfg.metric)
    if cfg.balancing == "percentile":
        d_ab = percentile_equalize(d_ab, cfg.m)
    part = assign_b(part, d_ab)
    _write(cfg.out_dir, "partition.tsv", write_partition_tsv(part))
    return part


def _enrich(cfg: PipelineConfig, part: Partition, corpus: AnnotationCorpus) -> None:
    """Write ``enrichment.tsv`` for the clusters that received B genes."""
    rows = enrich_partition(
        assigned_subpartition(part), part.genes_a(), corpus, cfg.alpha, cfg.correction
    )
    _write(cfg.out_dir, "enrichment.tsv", write_enrichment_tsv(rows))


def _infer(
    cfg: PipelineConfig,
    part: Partition,
    corpus: AnnotationCorpus,
    o: Ontology,
    truth: dict[str, frozenset[str]] | None,
) -> list[InferredAnnotation]:
    """Write ``inferred.tsv`` and ``term_graph.dot``; return the inferred labels."""
    inferred = infer_functions(
        assigned_subpartition(part), part.genes_a(), corpus, cfg.alpha, cfg.correction
    )
    _write(cfg.out_dir, "inferred.tsv", write_inferred_tsv(inferred))
    _write(cfg.out_dir, "term_graph.dot", export_term_graph(inferred, truth, o))
    return inferred


def _recall(
    cfg: PipelineConfig,
    report: MetricReport,
    inferred: list[InferredAnnotation],
    truth: dict[str, frozenset[str]],
    scope: AnnotationCorpus,
    o: Ontology,
) -> None:
    """Recall of the inferred labels of genes with truth, and without popular labels."""
    scored = [r for r in inferred if r.gene in truth]
    if not scored:
        return
    report.recall = recall_inferred(scored, truth)
    if cfg.popular_threshold is not None:
        counts = label_counts(scope, set(scope.direct), o)
        popular = popular_terms(counts, cfg.popular_threshold)
        report.popular_labels = [(t, n) for t, _name, n in counts if t in popular]
        report.recall_no_popular = recall_inferred(scored, truth, exclude=popular)


def _score(
    report: MetricReport, p: Partition, scope: AnnotationCorpus, d: DistanceMatrix
) -> None:
    """Set the BHI (over ``scope``), BC and semantic compactness (over ``d``)
    of ``p``.  Only the B genes ``d`` covers count; with none, no compactness."""
    b_labels = p.labels("b")
    covered = [g for g in d.genes if g in b_labels]
    p = with_members_b(p, covered, [b_labels[g] for g in covered])
    report.bhi = bhi(p, scope)
    report.bc = bc(p, d)
    if p.genes_b():
        report.sc = semantic_compactness(p, d)


# -- pipeline ------------------------------------------------------------------


def run_pipeline(cfg: PipelineConfig) -> None:
    """Full workflow: distances, balancing, clustering, assignment,
    enrichment, inference, metrics, manifest."""
    cfg.require("out_dir")
    out = cfg.out_dir
    try:  # before any work: an out_dir that cannot be made would fail the first write
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot write to out_dir {out}: {e}") from None
    cfg.require("obo", "annotations", "expression_a", "expression_b", "seed", "k")
    stages: dict[str, str] = {}
    profile: dict[str, dict[str, float]] = {}
    inputs: dict[str, dict] = {}
    manifest: dict = {
        "config": cfg.as_manifest_dict(),
        "versions": {
            "gofusion": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "inputs": inputs,
        "stages": stages,
        "profile": profile,
    }

    def finish_manifest() -> None:
        _write(out, "run_manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    def end_stage(status: str) -> None:
        """Record the status of ``stage``, its wall time and the peak RSS so far."""
        nonlocal clock
        now = time.perf_counter()
        stages[stage] = status
        profile[stage] = {"wall_s": now - clock, "peak_rss_mb": _peak_rss_mb()}
        clock = now

    clock = time.perf_counter()
    try:
        stage = "load"
        o, corpus, expr_a = _load_a(cfg, inputs)
        manifest["ontology_digest"] = inputs["obo"]["sha256"]
        manifest["gene_universe_size"] = corpus.gene_universe_size
        expr_b = load_expression(_read(cfg, "expression_b", inputs))
        truth = _load_truth(cfg, o, inputs)
        end_stage("ok")

        stage = "distances"
        d_e, d_go = _distances(cfg, o, corpus, expr_a)
        end_stage("ok")

        stage = "balancing"
        tuned = None
        if cfg.balancing == "gamma_tuning":
            tuned = _tune(cfg, expr_a, d_e, d_go)
        held_e = [d_e]
        del d_e  # the later stages read d_go, d_gamma and the expression only
        gamma_used, d_gamma = _fuse(cfg, held_e, d_go, tuned)
        manifest["balancing"] = {
            "mode": cfg.balancing,
            "gamma_used": gamma_used,
            "assign_distance": "equalized" if cfg.balancing == "percentile" else "raw",
        }
        end_stage("ok")

        stage = "cluster"
        part, total_cost = _cluster(cfg, d_gamma)
        del d_gamma
        end_stage("ok")

        stage = "assign"
        part = _assign(cfg, part, expr_a, expr_b)
        _write(
            out,
            "cluster_meta.json",
            partition_metadata(
                part,
                gamma_used,
                total_cost,
                extra={"balancing": cfg.balancing, "ontology_digest": manifest["ontology_digest"]},
            ),
        )
        end_stage("ok")

        stage = "enrich"
        _enrich(cfg, part, corpus)
        inferred = _infer(cfg, part, corpus, o, truth)
        end_stage("ok")

        stage = "metrics"
        report = MetricReport()
        scope, d_scored = corpus, d_go
        if truth is not None:
            scope = _merged_corpus(corpus, truth, o, cfg.namespace)
            genes = list(expr_a.genes) + [g for g in expr_b.genes if g in scope.direct]
            d_scored = semantic_distance_matrix(o, scope, genes, cfg.similarity)
            _recall(cfg, report, inferred, truth, scope, o)
        _score(report, assigned_subpartition(part), scope, d_scored)
        _write(out, "metrics.json", report.to_json())
        end_stage("ok")
        finish_manifest()
    except GofusionError as e:
        end_stage("failed")
        record = {"stage": stage, "error": type(e).__name__, "message": str(e)}
        with suppress(ConfigError):  # an out_dir that takes no file keeps no record
            _write(out, "error.json", json.dumps(record, sort_keys=True, indent=2) + "\n")
            finish_manifest()
        raise


# -- subcommands ---------------------------------------------------------------


def cmd_synth(cfg: PipelineConfig, **sizes: float) -> None:
    cfg.require("out_dir", "seed")
    ds = make_dataset(seed=cfg.seed, **sizes)
    try:
        files = write_dataset(ds, cfg.out_dir)
    except OSError as e:
        raise ConfigError(f"cannot write the dataset to out_dir {cfg.out_dir}: {e}") from None
    for name, path in sorted(files.items()):
        print(f"{name}\t{path}")


def cmd_distances(cfg: PipelineConfig) -> None:
    cfg.require("obo", "annotations", "expression_a", "out_dir")
    _distances(cfg, *_load_a(cfg))


def cmd_tune_gamma(cfg: PipelineConfig) -> None:
    cfg.require("obo", "annotations", "expression_a", "out_dir", "seed", "k")
    o, corpus, expr_a = _load_a(cfg)
    print(f"best_gamma\t{_tune(cfg, expr_a, *_matrices(cfg, o, corpus, expr_a)):.10g}")


def cmd_cluster(cfg: PipelineConfig) -> None:
    cfg.require("d_e", "d_go", "out_dir", "k")
    if cfg.balancing == "gamma_tuning":
        raise ConfigError(
            "cluster works with balancing=percentile or fixed_gamma; "
            "run tune-gamma first and pass --balancing fixed_gamma --gamma <best>"
        )
    held_e = [read_distance_tsv(_read(cfg, "d_e"))]
    d_go = read_distance_tsv(_read(cfg, "d_go"))
    gamma_used, d_gamma = _fuse(cfg, held_e, d_go)
    part, total_cost = _cluster(cfg, d_gamma)
    _write(cfg.out_dir, "partition.tsv", write_partition_tsv(part))
    _write(
        cfg.out_dir,
        "cluster_meta.json",
        partition_metadata(part, gamma_used, total_cost, extra={"balancing": cfg.balancing}),
    )


def cmd_assign(cfg: PipelineConfig) -> None:
    cfg.require("partition", "expression_a", "expression_b", "out_dir")
    part = read_partition_tsv(_read(cfg, "partition"))
    expr_a = load_expression(_read(cfg, "expression_a"))
    _assign(cfg, part, expr_a, load_expression(_read(cfg, "expression_b")))


def cmd_enrich(cfg: PipelineConfig) -> None:
    _o, corpus, part = _load_partition_inputs(cfg)
    _enrich(cfg, part, corpus)


def cmd_infer(cfg: PipelineConfig) -> None:
    o, corpus, part = _load_partition_inputs(cfg)
    _infer(cfg, part, corpus, o, _load_truth(cfg, o))


def cmd_eval(cfg: PipelineConfig) -> None:
    o, corpus, part = _load_partition_inputs(cfg)
    report = MetricReport()
    truth = _load_truth(cfg, o)
    scope = _merged_corpus(corpus, truth, o, cfg.namespace) if truth else corpus
    genes = sorted((part.genes_a() | part.genes_b()) & set(scope.direct))
    _score(report, part, scope, semantic_distance_matrix(o, scope, genes, cfg.similarity))
    if cfg.against is not None:
        other = read_partition_tsv(_read(cfg, "against"))
        report.fm = fowlkes_mallows(part.labels(), other.labels()).value
    if cfg.inferred is not None and truth is not None:
        inferred = read_inferred_tsv(_read(cfg, "inferred"), part.labels("b"))
        _recall(cfg, report, inferred, truth, scope, o)
    _write(cfg.out_dir, "metrics.json", report.to_json())


# -- argument parsing ----------------------------------------------------------

# synth passes on only the sizes given, so make_dataset alone holds their defaults
_SYNTH_SIZES = ("subgroups_per_family", "genes_per_subgroup", "leaves_per_subgroup",
                "conditions", "noise", "b_fraction")
# add_argument keywords of the flags that are not PipelineConfig options
_OWN_FLAGS = {
    "from_manifest": {"help": "re-run from a run_manifest.json"},
    **{k: {"type": type(signature(make_dataset).parameters[k].default)} for k in _SYNTH_SIZES},
}
# what _load_a and _load_partition_inputs read
_LOAD_A = ("obo", "annotations", "expression_a", "namespace", "evidence_exclude")
_LOAD_PARTITION = ("partition", "obo", "annotations", "out_dir", "namespace", "evidence_exclude")

# subcommand -> (help, function, the options it reads); every subcommand
# also takes --config, and a config file or manifest may name any option
COMMANDS = {
    "synth": ("generate a synthetic benchmark", cmd_synth, ("out_dir", "seed", *_SYNTH_SIZES)),
    "distances": ("expression and semantic distance matrices", cmd_distances,
                  (*_LOAD_A, "out_dir", "metric", "similarity")),
    "tune-gamma": ("grid-search the gamma weight", cmd_tune_gamma,
                   (*_LOAD_A, "out_dir", "metric", "similarity", "grid_step",
                    "split", "k", "runs", "seed")),
    "cluster": ("cluster annotated genes on the fused distance", cmd_cluster,
                ("d_e", "d_go", "out_dir", "balancing", "gamma", "m", "k")),
    "assign": ("attach unannotated genes to clusters", cmd_assign,
               ("expression_a", "expression_b", "partition", "out_dir", "metric", "balancing",
                "m")),
    "enrich": ("over-representation analysis per cluster", cmd_enrich,
               (*_LOAD_PARTITION, "correction", "alpha")),
    "infer": ("transfer enriched terms to unannotated genes", cmd_infer,
              (*_LOAD_PARTITION, "truth", "correction", "alpha")),
    "eval": ("partition and inference quality metrics", cmd_eval,
             (*_LOAD_PARTITION, "truth", "inferred", "against", "similarity",
              "popular_threshold")),
    "pipeline": ("run the full workflow", run_pipeline, (*_OPTION_TYPES, "from_manifest")),
}


def main(argv: list[str] | None = None) -> int:
    top = argparse.ArgumentParser(
        prog="gofusion",
        description="Infer GO biological-process labels for unannotated genes "
        "by fusing expression and semantic distances.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    # the top parser takes no flag but --help, so argparse hands the command
    # line to the subcommand named by the first argument that is not a flag;
    # only that one's flags are built
    argv = sys.argv[1:] if argv is None else argv
    invoked = next((a for a in argv if not a.startswith("-")), None)
    for name, (text, run, options) in COMMANDS.items():
        # no abbreviations: a flag a subcommand lacks must not match a longer one
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.set_defaults(run=run)
        if name == invoked:
            p.add_argument("--config", help="flat key = value config file")
            for key in options:
                p.add_argument(f"--{key.replace('_', '-')}", dest=key, **_OWN_FLAGS.get(key, {}))

    # a subcommand hands the flags it lacks back to the top parser, whose
    # usage line would not show the flags that subcommand does take
    args, extra = top.parse_known_args(argv)
    if extra:
        sub.choices[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    sizes = {k: v for k in _SYNTH_SIZES if (v := getattr(args, k, None)) is not None}
    try:
        args.run(build_config(args), **sizes)
    except GofusionError as e:
        print(f"error ({type(e).__name__}): {e}", file=sys.stderr)
        return e.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
