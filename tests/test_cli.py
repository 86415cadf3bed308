import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from hashlib import sha256
from pathlib import Path

import pytest

import gofusion
from gofusion.annotations import load_annotations
from gofusion.clustering import partition_cost
from gofusion.cli import (
    _OWN_FLAGS,
    COMMANDS,
    PipelineConfig,
    build_config,
    main,
    parse_config_text,
)
from gofusion.errors import ConfigError
from gofusion.expression import expression_distance_matrix, load_expression, read_distance_tsv
from gofusion.fusion import combine_gamma
from gofusion.ontology import parse_obo
from gofusion.semantic import semantic_distance_matrix
from gofusion.synth import ROOT, make_dataset, write_dataset

BP = "biological_process"


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    ds = make_dataset(seed=5, subgroups_per_family=6, genes_per_subgroup=5)
    write_dataset(ds, out)
    return out


@pytest.fixture(scope="module")
def run_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(pipeline_args(data_dir, out, "--balancing", "fixed_gamma", "--gamma", "0.5")) == 0
    return out


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m gofusion`` in a fresh interpreter, as a user would."""
    src = str(Path(gofusion.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gofusion", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def same_outputs(a: Path, b: Path) -> None:
    """Both runs wrote the same files with the same bytes, the manifest aside."""
    names = sorted(f.name for f in a.iterdir() if f.name != "run_manifest.json")
    assert names == sorted(f.name for f in b.iterdir() if f.name != "run_manifest.json")
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def pipeline_args(data: Path, out: Path, *extra: str) -> list[str]:
    return [
        "pipeline",
        "--obo", str(data / "go.obo"),
        "--annotations", str(data / "annotations.tsv"),
        "--expression-a", str(data / "expression_a.tsv"),
        "--expression-b", str(data / "expression_b.tsv"),
        "--out-dir", str(out),
        "--seed", "7",
        "--k", "12",
        *extra,
    ]


class TestConfigParsing:
    def test_flat_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            '# pipeline setup\nk = 8\nmetric = "pearson"\nseed = 3\n'
            "evidence_exclude = ND,IEA\n"
        )
        raw = parse_config_text(cfg_file.read_text())
        assert raw == {"k": "8", "metric": "pearson", "seed": "3", "evidence_exclude": "ND,IEA"}

    def test_cli_overrides_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k = 8\nseed = 3\n")
        import argparse

        args = argparse.Namespace(config=str(cfg_file), k="20", seed=None)
        cfg = build_config(args)
        assert cfg.k == 20
        assert cfg.seed == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("clusters = 8\n")
        import argparse

        with pytest.raises(ConfigError):
            build_config(argparse.Namespace(config=str(cfg_file)))

    def test_gamma_only_with_fixed_mode(self):
        import argparse

        with pytest.raises(ConfigError):
            build_config(argparse.Namespace(config=None, balancing="gamma_tuning", gamma="0.4"))

    def test_fixed_mode_needs_gamma(self):
        import argparse

        with pytest.raises(ConfigError):
            build_config(argparse.Namespace(config=None, balancing="fixed_gamma"))


class TestSubcommandFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--k", "5"],
            ["distances", "--workers", "2"],
            ["tune-gamma", "--gamma", "0.5"],
            ["cluster", "--gam", "0.5"],  # a prefix of --gamma, which cluster reads
            ["assign", "--k", "5"],
            ["enrich", "--metric", "pearson"],
            ["infer", "--similarity", "lin"],
            ["eval", "--alpha", "0.01"],
            ["pipeline", "--assign-distance", "raw"],  # follows from --balancing
            ["pipeline", "--seeding", "literal"],  # removed: pam_build is the only build
            ["tune-gamma", "--seeding", "pam_build"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_flag_not_read_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
        assert err.startswith(f"usage: gofusion {argv[0]} ")  # the subcommand's own flags

    def test_pipeline_takes_every_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"^\s+(--[a-z-]+)", capsys.readouterr().out, re.M))
        options = {f"--{f.name.replace('_', '-')}" for f in fields(PipelineConfig)}
        assert flags == options | {"--config", "--from-manifest"}

    @staticmethod
    def reference_parser():
        """The parser as built before only the invoked subcommand got its
        flags: every subcommand with all of its flags."""
        top = argparse.ArgumentParser(
            prog="gofusion",
            description="Infer GO biological-process labels for unannotated genes "
            "by fusing expression and semantic distances.",
        )
        sub = top.add_subparsers(dest="command", required=True)
        for name, (text, run, options) in COMMANDS.items():
            p = sub.add_parser(name, help=text, allow_abbrev=False)
            p.add_argument("--config", help="flat key = value config file")
            for key in options:
                p.add_argument(f"--{key.replace('_', '-')}", dest=key, **_OWN_FLAGS.get(key, {}))
            p.set_defaults(run=run)
        return top, sub

    @classmethod
    def reference_outcome(cls, argv, capsys):
        top, sub = cls.reference_parser()
        with pytest.raises(SystemExit) as exc:
            args, extra = top.parse_known_args(argv)
            sub.choices[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    @staticmethod
    def outcome(argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["-h", "pipeline"],
            *([name, "--help"] for name in COMMANDS),
            ["nosuch"],
            ["nosuch", "--k", "5"],
            [],
            ["--k", "5", "eval"],  # a flag before the subcommand
            ["cluster", "--k", "5", "--metric", "pearson"],  # assign's flag
            ["distances", "--seed", "1", "pipeline"],  # tune-gamma's flag; an extra word
            ["infer", "--alpha"],  # a flag without its value
        ],
        ids=lambda argv: " ".join(argv) or "none",
    )
    def test_same_text_as_full_parser(self, capsys, argv):
        """Building only the invoked subcommand's flags changes no help
        text, usage line or error message."""
        got = self.outcome(argv, capsys)
        assert got == self.reference_outcome(argv, capsys)
        assert got[1] or got[2]

    def test_config_file_may_name_any_option(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 5\nk = 12\nworkers = 2\nmetric = pearson\n")
        assert main(["synth", "--config", str(cfg_file), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "go.obo").exists()

    @pytest.mark.parametrize(
        "extra, sizes", [([], {}), (["--noise", "0.9"], {"noise": 0.9})], ids=["defaults", "noise"]
    )
    def test_synth_writes_make_dataset_bytes(self, tmp_path, extra, sizes):
        cli = tmp_path / "cli"
        assert main(["synth", "--seed", "5", "--out-dir", str(cli), *extra]) == 0
        files = write_dataset(make_dataset(seed=5, **sizes), tmp_path / "lib")
        assert sorted(f.name for f in cli.iterdir()) == sorted(f.name for f in files.values())
        for f in files.values():
            assert (cli / f.name).read_bytes() == f.read_bytes(), f.name

    @pytest.mark.parametrize(
        "flag, value",
        [("--b-fraction", "nan"), ("--b-fraction", "5"), ("--b-fraction", "1"),
         ("--leaves-per-subgroup", "1"), ("--genes-per-subgroup", "0"),
         ("--subgroups-per-family", "0"), ("--noise", "-1"), ("--noise", "nan"),
         ("--conditions", "1")],
    )
    def test_bad_synth_size_is_config_error(self, tmp_path, flag, value):
        """Each bad size is named, and nothing is written."""
        res = run_cli("synth", "--seed", "1", "--out-dir", str(tmp_path / "out"), flag, value)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert f"error (ConfigError): {flag[2:].replace('-', '_')} must" in res.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha", ["-0.01", "1.5", "nan"])
    def test_alpha_outside_unit_interval_is_config_error(self, tmp_path, capsys, alpha):
        """Every subcommand rejects the alpha before it looks for an input."""
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"alpha = {alpha}\n")
        for command in COMMANDS:
            assert main([command, "--config", str(cfg_file), "--out-dir", str(tmp_path)]) == 2
            assert f"alpha must lie in [0, 1], got {float(alpha)}" in capsys.readouterr().err


class TestPipeline:
    def test_fixed_gamma_zero_matches_expression_matrix(self, data_dir, tmp_path):
        out = tmp_path / "run"
        rc = main(pipeline_args(data_dir, out, "--balancing", "fixed_gamma", "--gamma", "0"))
        assert rc == 0
        assert (out / "d_gamma.tsv").read_bytes() == (out / "d_e.tsv").read_bytes()
        assert not (out / "tuning.json").exists()

    def test_tuning_mode_outputs(self, data_dir, tmp_path):
        out = tmp_path / "run"
        rc = main(
            pipeline_args(
                data_dir, out, "--balancing", "gamma_tuning",
                "--runs", "2", "--grid-step", "0.5",
            )
        )
        assert rc == 0
        report = json.loads((out / "tuning.json").read_text())
        assert report["grid"] == [0.0, 0.5, 1.0]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["balancing"]["gamma_used"] == report["best_gamma"]
        assert all(v == "ok" for v in manifest["stages"].values())

    def test_percentile_mode_uses_equalized_assignment(self, data_dir, tmp_path):
        out = tmp_path / "run"
        rc = main(pipeline_args(data_dir, out, "--balancing", "percentile", "--m", "10"))
        assert rc == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["balancing"] == {
            "mode": "percentile", "gamma_used": 0.5, "assign_distance": "equalized",
        }

    def test_truth_enables_recall_metrics(self, data_dir, tmp_path):
        out = tmp_path / "run"
        rc = main(
            pipeline_args(
                data_dir, out, "--balancing", "fixed_gamma", "--gamma", "1",
                "--truth", str(data_dir / "truth.tsv"), "--popular-threshold", "3",
            )
        )
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["recall"] is not None
        assert metrics["sc"] is not None
        assert metrics["recall_no_popular"] is not None
        assert metrics["popular_labels"]

    def test_truth_missing_a_b_gene_still_scores(self, data_dir, tmp_path):
        rows = (data_dir / "truth.tsv").read_text().splitlines(keepends=True)
        dropped = rows[1].split("\t")[0]
        partial = tmp_path / "truth.tsv"
        partial.write_text("".join(r for r in rows if r.split("\t")[0] != dropped))
        out = tmp_path / "run"
        res = run_cli(
            *pipeline_args(data_dir, out, "--balancing", "fixed_gamma", "--gamma", "0.5"),
            "--truth", str(partial), "--popular-threshold", "3",
        )
        assert res.returncode == 0, res.stderr
        assert not (out / "error.json").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        for key in ("sc", "bhi", "bc", "recall", "recall_no_popular"):
            assert 0.0 <= metrics[key] <= 1.0, key

    def test_in_process_rerun_identical(self, data_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(pipeline_args(data_dir, out, "--balancing", "fixed_gamma", "--gamma", "0.5"))
            outs.append(out)
        for f in ("partition.tsv", "inferred.tsv", "metrics.json"):
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()

    # k = 5000 fails in the cluster stage, after the inputs are loaded
    @pytest.mark.parametrize("k, rc", [("12", 0), ("5000", 2)])
    def test_manifest_records_load_diagnostics(self, data_dir, tmp_path, k, rc):
        out = tmp_path / "run"
        argv = pipeline_args(data_dir, out, "--balancing", "fixed_gamma", "--gamma", "0.5")
        argv[argv.index("--k") + 1] = k
        assert main([*argv, "--truth", str(data_dir / "truth.tsv")]) == rc
        inputs = json.loads((out / "run_manifest.json").read_text())["inputs"]
        o = parse_obo((data_dir / "go.obo").read_bytes())
        for key, name in (("annotations", "annotations.tsv"), ("truth", "truth.tsv")):
            expected = load_annotations((data_dir / name).read_bytes(), o, BP).diagnostics
            assert inputs[key]["diagnostics"] == asdict(expected)
            assert inputs[key]["diagnostics"]["rows_kept"] > 0

    # k = 5000 fails in the cluster stage: the stages up to it are profiled
    @pytest.mark.parametrize("k, last", [("12", "metrics"), ("5000", "cluster")])
    def test_manifest_profiles_each_stage(self, data_dir, tmp_path, k, last):
        out = tmp_path / "run"
        argv = pipeline_args(data_dir, out, "--balancing", "percentile")
        argv[argv.index("--k") + 1] = k
        main(argv)
        manifest = json.loads((out / "run_manifest.json").read_text())
        order = ["load", "distances", "balancing", "cluster", "assign", "enrich", "metrics"]
        ran = order[: order.index(last) + 1]
        assert sorted(manifest["profile"]) == sorted(manifest["stages"]) == sorted(ran)
        profile = [manifest["profile"][stage] for stage in ran]
        assert all(p["wall_s"] >= 0.0 for p in profile)
        peaks = [p["peak_rss_mb"] for p in profile]
        assert 0.0 < peaks[0] and peaks == sorted(peaks)

    def test_manifest_rerun_identical(self, data_dir, tmp_path):
        first = tmp_path / "first"
        main(pipeline_args(data_dir, first, "--balancing", "fixed_gamma", "--gamma", "0.5"))
        redo = tmp_path / "redo"
        rc = main(
            [
                "pipeline",
                "--from-manifest", str(first / "run_manifest.json"),
                "--out-dir", str(redo),
            ]
        )
        assert rc == 0
        for f in ("partition.tsv", "inferred.tsv", "metrics.json", "d_gamma.tsv"):
            assert (first / f).read_bytes() == (redo / f).read_bytes()

    def test_manifest_unknown_option(self, data_dir, tmp_path):
        first = tmp_path / "first"
        main(pipeline_args(data_dir, first, "--balancing", "percentile"))
        manifest = json.loads((first / "run_manifest.json").read_text())
        # an unset option that this version no longer has replays unchanged
        manifest["config"]["assign_distance"] = None
        old = tmp_path / "old.json"
        old.write_text(json.dumps(manifest))
        assert main(["pipeline", "--from-manifest", str(old), "--out-dir", str(tmp_path / "redo")]) == 0
        for f in ("partition.tsv", "inferred.tsv", "metrics.json"):
            assert (first / f).read_bytes() == (tmp_path / "redo" / f).read_bytes()
        # a set one would replay another run than the manifest names
        manifest["config"]["assign_distance"] = "raw"
        old.write_text(json.dumps(manifest))
        res = run_cli("pipeline", "--from-manifest", str(old), "--out-dir", str(tmp_path / "x"))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "ConfigError" in res.stderr
        assert "unknown option 'assign_distance'" in res.stderr
        assert not (tmp_path / "x").exists()

    def test_manifest_from_before_seeding_was_removed(self, run_dir, tmp_path, capsys):
        manifest = json.loads((run_dir / "run_manifest.json").read_text())
        assert "seeding" not in manifest["config"]
        # a manifest written while seeding was an option names the default
        manifest["config"]["seeding"] = "pam_build"
        old = tmp_path / "old.json"
        old.write_text(json.dumps(manifest))
        redo = tmp_path / "redo"
        assert main(["pipeline", "--from-manifest", str(old), "--out-dir", str(redo)]) == 0
        same_outputs(run_dir, redo)
        manifest["config"]["seeding"] = "literal"
        old.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["pipeline", "--from-manifest", str(old), "--out-dir", str(tmp_path / "x")]) == 2
        assert "seeding 'literal' was removed" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "seeding, rc", [("pam_build", 0), ('"literal"', 2)], ids=["pam_build", "literal"]
    )
    def test_config_file_from_before_seeding_was_removed(
        self, data_dir, run_dir, tmp_path, capsys, seeding, rc
    ):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"seeding = {seeding}\n")
        out = tmp_path / "run"
        argv = pipeline_args(data_dir, out, "--balancing", "fixed_gamma", "--gamma", "0.5")
        assert main([*argv, "--config", str(cfg_file)]) == rc
        if rc == 0:
            same_outputs(run_dir, out)
        else:
            assert "seeding 'literal' was removed" in capsys.readouterr().err
            assert not out.exists()


class TestStagedSubcommands:
    def test_distances_cluster_assign_enrich_infer_eval(self, data_dir, tmp_path):
        out = tmp_path / "staged"
        base = [
            "--obo", str(data_dir / "go.obo"),
            "--annotations", str(data_dir / "annotations.tsv"),
            "--out-dir", str(out),
        ]
        rc = main(["distances", *base, "--expression-a", str(data_dir / "expression_a.tsv")])
        assert rc == 0
        rc = main(
            [
                "cluster",
                "--d-e", str(out / "d_e.tsv"),
                "--d-go", str(out / "d_go.tsv"),
                "--balancing", "fixed_gamma", "--gamma", "0.8",
                "--k", "12", "--out-dir", str(out),
            ]
        )
        assert rc == 0
        rc = main(
            [
                "assign",
                "--partition", str(out / "partition.tsv"),
                "--expression-a", str(data_dir / "expression_a.tsv"),
                "--expression-b", str(data_dir / "expression_b.tsv"),
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        rc = main(["enrich", *base, "--partition", str(out / "partition.tsv")])
        assert rc == 0
        rc = main(["infer", *base, "--partition", str(out / "partition.tsv")])
        assert rc == 0
        rc = main(
            [
                "eval", *base,
                "--partition", str(out / "partition.tsv"),
                "--truth", str(data_dir / "truth.tsv"),
                "--inferred", str(out / "inferred.tsv"),
            ]
        )
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["bhi"] is not None
        assert metrics["recall"] is not None

    def test_eval_recall_scores_b_genes_without_inferred_rows(self, data_dir, tmp_path):
        run, truth = tmp_path / "run", str(data_dir / "truth.tsv")
        argv = pipeline_args(
            data_dir, run, "--balancing", "fixed_gamma", "--gamma", "0.5",
            "--alpha", "1e-4", "--truth", truth,
        )
        assert main(argv) == 0
        rows = [ln.split("\t") for ln in (run / "partition.tsv").read_text().splitlines()[1:]]
        b_genes = {r[0] for r in rows if r[2] == "B"}
        inferred_rows = (run / "inferred.tsv").read_text().splitlines()[1:]
        inferred = {ln.split("\t")[0] for ln in inferred_rows}
        assert inferred < b_genes  # some cluster with B genes passed no term
        res = run_cli(
            "eval",
            "--obo", str(data_dir / "go.obo"),
            "--annotations", str(data_dir / "annotations.tsv"),
            "--partition", str(run / "partition.tsv"),
            "--truth", truth,
            "--inferred", str(run / "inferred.tsv"),
            "--out-dir", str(tmp_path / "eval"),
        )
        assert res.returncode == 0, res.stderr
        evaluated = json.loads((tmp_path / "eval" / "metrics.json").read_text())["recall"]
        piped = json.loads((run / "metrics.json").read_text())["recall"]
        assert evaluated == pytest.approx(piped)

    def test_cluster_meta_total_cost_is_partition_cost(self, data_dir, run_dir, tmp_path):
        """``total_cost`` is the cost of the written medoids on the fused
        distance, for a pipeline run (gamma 0.5) and a cluster run (0.8)."""
        o = parse_obo((data_dir / "go.obo").read_bytes())
        corpus = load_annotations((data_dir / "annotations.tsv").read_bytes(), o, BP)
        expr = load_expression((data_dir / "expression_a.tsv").read_bytes())
        d_e = expression_distance_matrix(expr, "euclidean")
        d_go = semantic_distance_matrix(o, corpus, expr.genes, "relevance")
        staged = [read_distance_tsv((run_dir / f"{n}.tsv").read_bytes()) for n in ("d_e", "d_go")]
        out = tmp_path / "cluster"
        assert main([
            "cluster", "--d-e", str(run_dir / "d_e.tsv"), "--d-go", str(run_dir / "d_go.tsv"),
            "--balancing", "fixed_gamma", "--gamma", "0.8", "--k", "12", "--out-dir", str(out),
        ]) == 0
        for run, d_gamma in ((run_dir, combine_gamma(d_e, d_go, 0.5)),
                             (out, combine_gamma(*staged, 0.8))):
            rows = (run / "partition.tsv").read_text().splitlines()[1:]
            medoids = [d_gamma.index_of(r.split("\t")[0]) for r in rows if r.endswith("\tA\t1")]
            meta = json.loads((run / "cluster_meta.json").read_text())
            assert meta["k"] == len(medoids) == 12
            assert meta["total_cost"] == partition_cost(d_gamma.d, medoids)

    def test_ontology_digest_is_the_obo_file_digest(self, data_dir, tmp_path):
        """Behind a byte-order mark too, the run's ontology digest is the
        SHA-256 of the OBO file's bytes."""
        obo = tmp_path / "go.obo"
        obo.write_bytes(b"\xef\xbb\xbf" + (data_dir / "go.obo").read_bytes())
        out = tmp_path / "run"
        argv = pipeline_args(data_dir, out, "--balancing", "fixed_gamma", "--gamma", "0.5")
        argv[argv.index("--obo") + 1] = str(obo)
        assert main(argv) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        digest = sha256(obo.read_bytes()).hexdigest()
        assert manifest["ontology_digest"] == manifest["inputs"]["obo"]["sha256"] == digest
        assert json.loads((out / "cluster_meta.json").read_text())["ontology_digest"] == digest

    def test_tune_gamma_subcommand(self, data_dir, tmp_path):
        out = tmp_path / "tune"
        rc = main(
            [
                "tune-gamma",
                "--obo", str(data_dir / "go.obo"),
                "--annotations", str(data_dir / "annotations.tsv"),
                "--expression-a", str(data_dir / "expression_a.tsv"),
                "--out-dir", str(out),
                "--seed", "3", "--k", "8", "--runs", "2", "--grid-step", "0.5",
            ]
        )
        assert rc == 0
        assert (out / "tuning.csv").exists()


class TestExitCodes:
    def test_missing_required_is_config_error(self, tmp_path):
        rc = main(["pipeline", "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_bad_data_is_data_error(self, data_dir, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("gene_id\tc1\tc2\ng1\t1\n")
        rc = main(
            pipeline_args(data_dir, tmp_path / "out")[:-4]
            + ["--expression-a", str(bad), "--seed", "7", "--k", "3"]
        )
        assert rc == 3

    def test_degenerate_is_numeric_error(self, data_dir, tmp_path):
        # constant A rows: the maximum euclidean distance is zero
        ds = make_dataset(seed=5, subgroups_per_family=6, genes_per_subgroup=5)
        flat = tmp_path / "flat.tsv"
        flat.write_text(
            "gene_id\tc1\tc2\n" + "\n".join(f"{g}\t1\t2" for g in ds.a_genes) + "\n"
        )
        args = [
            "pipeline",
            "--obo", str(data_dir / "go.obo"),
            "--annotations", str(data_dir / "annotations.tsv"),
            "--expression-a", str(flat),
            "--expression-b", str(data_dir / "expression_b.tsv"),
            "--out-dir", str(tmp_path / "out"),
            "--seed", "1", "--k", "3",
            "--balancing", "fixed_gamma", "--gamma", "0.5",
        ]
        rc = main(args)
        assert rc == 4
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["stage"] == "distances"
        assert err["error"] == "DegenerateError"
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["stages"]["distances"] == "failed"
        assert manifest["stages"]["load"] == "ok"

    def test_error_record_lists_failed_stage(self, data_dir, tmp_path):
        # k larger than the gene count fails in the cluster stage
        out = tmp_path / "out"
        args = pipeline_args(data_dir, out, "--balancing", "fixed_gamma", "--gamma", "0.5")
        args[args.index("--k") + 1] = "5000"
        rc = main(args)
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["stage"] == "cluster"

    @pytest.mark.parametrize(
        "flag, content",
        [
            ("--config", None),
            ("--config", b"k = \xff\n"),
            ("--from-manifest", b"{not json"),
            ("--from-manifest", b"[1, 2]"),
        ],
        ids=["missing-config", "config-not-utf8", "malformed-manifest", "manifest-not-object"],
    )
    def test_unreadable_config_is_config_error(self, tmp_path, flag, content):
        path = tmp_path / "input"
        if content is not None:
            path.write_bytes(content)
        res = run_cli("pipeline", flag, str(path), "--out-dir", str(tmp_path / "out"))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "ConfigError" in res.stderr

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"k": [1]}, "k must be an integer"),
            ({"gamma": {}}, "gamma must be a number"),
            ({"obo": 5}, "obo must be a path"),
            ({"k": 7.9}, "k must be an integer, got 7.9"),
            ({"k": 7.0}, "k must be an integer, got 7.0"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"alpha": False}, "alpha must be a number, got False"),
            ({"evidence_exclude": 5}, "evidence_exclude must be a string, got 5"),
            ({"namespace": True}, "namespace must be a string, got True"),
        ],
        ids=["int", "float", "path", "int-given-float", "int-given-whole-float",
             "int-given-bool", "float-given-bool", "list-given-int", "str-given-bool"],
    )
    def test_manifest_value_of_wrong_type_is_config_error(self, tmp_path, config, message):
        manifest = tmp_path / "run_manifest.json"
        manifest.write_text(json.dumps({"config": config}))
        res = run_cli("pipeline", "--from-manifest", str(manifest), "--out-dir", str(tmp_path))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "ConfigError" in res.stderr
        assert message in res.stderr

    @pytest.mark.parametrize(
        "row",
        ["g1\tGO:0008150\tnot-a-number\t0", "g1\tGO:0008150\t0.01\tzero"],
        ids=["p-value", "cluster-index"],
    )
    def test_non_numeric_inferred_field_is_data_error(self, data_dir, run_dir, tmp_path, row):
        bad = tmp_path / "inferred.tsv"
        bad.write_text(row + "\n")
        res = run_cli(
            "eval",
            "--obo", str(data_dir / "go.obo"),
            "--annotations", str(data_dir / "annotations.tsv"),
            "--partition", str(run_dir / "partition.tsv"),
            "--truth", str(data_dir / "truth.tsv"),
            "--inferred", str(bad),
            "--out-dir", str(tmp_path / "eval"),
        )
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert "line 1" in res.stderr

    @pytest.mark.parametrize("with_b", [True, False], ids=["cluster-with-b", "cluster-without-b"])
    @pytest.mark.parametrize("command", ["enrich", "infer", "eval"])
    def test_unannotated_partition_a_gene_is_data_error(
        self, data_dir, run_dir, tmp_path, capsys, command, with_b
    ):
        rows = [ln.split("\t") for ln in (run_dir / "partition.tsv").read_text().splitlines()[1:]]
        has_b = {r[1] for r in rows if r[2] == "B"}
        gene = min(r[0] for r in rows if r[2] == "A" and (r[1] in has_b) == with_b)
        annotations = tmp_path / "annotations.tsv"
        kept = [ln for ln in (data_dir / "annotations.tsv").read_text().splitlines()
                if ln.split("\t")[0] != gene]
        annotations.write_text("\n".join(kept) + "\n")
        rc = main([
            command,
            "--obo", str(data_dir / "go.obo"),
            "--annotations", str(annotations),
            "--partition", str(run_dir / "partition.tsv"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"1 partition A genes lack annotations, e.g. ['{gene}']" in err

    @pytest.mark.parametrize(
        "command, flag, bad",
        [
            ("pipeline", "--truth", "missing"),
            ("pipeline", "--obo", "directory"),
            ("eval", "--against", "missing"),
            ("eval", "--inferred", "missing"),
            ("eval", "--partition", "directory"),
        ],
    )
    def test_unreadable_input_is_config_error(
        self, data_dir, run_dir, tmp_path, command, flag, bad
    ):
        out = tmp_path / "out"
        if command == "pipeline":
            argv = pipeline_args(data_dir, out, "--balancing", "fixed_gamma", "--gamma", "0.5")
        else:
            argv = [
                "eval",
                "--obo", str(data_dir / "go.obo"),
                "--annotations", str(data_dir / "annotations.tsv"),
                "--partition", str(run_dir / "partition.tsv"),
                "--against", str(run_dir / "partition.tsv"),
                "--inferred", str(run_dir / "inferred.tsv"),
                "--out-dir", str(out),
            ]
        argv += ["--truth", str(data_dir / "truth.tsv")]
        argv[argv.index(flag) + 1] = str(tmp_path / "absent.tsv" if bad == "missing" else tmp_path)
        res = run_cli(*argv)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "ConfigError" in res.stderr
        if command == "pipeline":
            assert json.loads((out / "error.json").read_text())["stage"] == "load"

    @pytest.mark.parametrize("where", ["file", "under-file"])
    @pytest.mark.parametrize("command", ["synth", "distances", "pipeline"])
    def test_unusable_out_dir_is_config_error(self, data_dir, tmp_path, command, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker if where == "file" else blocker / "out"
        if command == "synth":
            argv = ["synth", "--seed", "1", "--out-dir", str(out)]
        elif command == "pipeline":
            argv = pipeline_args(data_dir, out, "--balancing", "fixed_gamma", "--gamma", "0.5")
        else:
            argv = [
                "distances",
                "--obo", str(data_dir / "go.obo"),
                "--annotations", str(data_dir / "annotations.tsv"),
                "--expression-a", str(data_dir / "expression_a.tsv"),
                "--out-dir", str(out),
            ]
        res = run_cli(*argv)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "ConfigError" in res.stderr
        assert "cannot write" in res.stderr
        assert blocker.read_text() == "kept\n"

    def test_unusable_out_dir_reported_before_missing_input(self, data_dir, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        argv = pipeline_args(data_dir, blocker, "--balancing", "fixed_gamma", "--gamma", "0.5")
        argv[argv.index("--obo") + 1] = str(tmp_path / "missing.obo")
        res = run_cli(*argv)
        assert res.returncode == 2
        assert "ConfigError" in res.stderr
        assert f"cannot write to out_dir {blocker}" in res.stderr
        assert "missing.obo" not in res.stderr

    @pytest.mark.parametrize(
        "command, flag, damage, code, message",
        [
            ("distances", "--obo",
             "[Term]\nid: GO:0999991\nname: gone\nnamespace: biological_process\n"
             f"is_a: {ROOT}\nis_obsolete: true\n\n"
             "[Term]\nid: GO:0999992\nname: x\nnamespace: biological_process\n"
             "is_a: GO:0999991\n",
             3, "term GO:0999992 has obsolete parent(s): GO:0999991"),
            ("distances", "--obo",
             "[Term]\nid: GO:0999993\nname: x\nnamespace: biological_process\n"
             f"is_a: {ROOT}\nis_a: GO:0999993\n",
             3, "cycle through GO:0999993"),
            ("distances", "--obo",
             "[Term]\nid: GO:0999994\nname: x\nnamespace: biological_process\n",
             3, "multiple parentless terms"),
            ("distances", "--obo",
             "[Term]\nid: GO:0999995\nname: mf\nnamespace: molecular_function\n\n"
             "[Term]\nid: GO:0999996\nname: x\nnamespace: biological_process\n"
             "is_a: GO:0999995\n",
             3, "cannot reach the biological_process root"),
            ("distances", "--expression-a", "", 3, "empty expression file"),
            ("cluster", "--d-e", "gene_id\ta\tb\na\t0\t1\n", 3, "expected 2 data rows"),
            ("cluster", "--d-e", "gene_id\n", 3, "line 1: header must name"),
            # a UTF-8 byte-order mark is dropped, so the header stays a header
            ("pipeline", "--annotations", "\ufeff", 0, ""),
            ("enrich", "--partition", "\ufeff", 0, ""),
        ],
        ids=["obsolete-parent", "self-loop", "two-roots", "stranded-term",
             "empty-expression", "non-square-distances", "header-only-distances",
             "bom-annotations", "bom-partition"],
    )
    def test_bad_input_exit_code(
        self, data_dir, run_dir, tmp_path, command, flag, damage, code, message
    ):
        out = tmp_path / "out"
        ann = ["--obo", str(data_dir / "go.obo"), "--annotations", str(data_dir / "annotations.tsv")]
        if command == "cluster":
            argv = ["cluster", "--d-e", "", "--d-go", str(run_dir / "d_go.tsv"),
                    "--balancing", "percentile", "--k", "2"]
        elif command == "pipeline":
            argv = pipeline_args(data_dir, out, "--balancing", "fixed_gamma", "--gamma", "0.5")
        elif command == "enrich":
            argv = ["enrich", *ann, "--partition", str(run_dir / "partition.tsv")]
        else:
            argv = ["distances", *ann, "--expression-a", str(data_dir / "expression_a.tsv")]
        bad = tmp_path / "bad"
        good = Path(argv[argv.index(flag) + 1])
        if flag == "--obo":  # a well-formed release with the damage appended
            bad.write_text(good.read_text() + "\n" + damage)
        elif damage == "\ufeff":  # a well-formed file behind a byte-order mark
            bad.write_bytes(damage.encode("utf-8") + good.read_bytes())
        else:
            bad.write_text(damage)
        argv[argv.index(flag) + 1] = str(bad)
        res = run_cli(*argv, "--out-dir", str(out))
        assert res.returncode == code, res.stderr
        assert "Traceback" not in res.stderr
        assert message in res.stderr
        if command == "pipeline":  # loaded as the file without the mark, digested with it
            recorded = json.loads((out / "run_manifest.json").read_text())["inputs"]["annotations"]
            o = parse_obo((data_dir / "go.obo").read_bytes())
            expected = load_annotations(good.read_bytes(), o, BP).diagnostics
            assert recorded["diagnostics"] == asdict(expected)
            assert recorded["sha256"] == sha256(bad.read_bytes()).hexdigest()
        elif command == "enrich":
            assert (out / "enrichment.tsv").read_bytes() == (run_dir / "enrichment.tsv").read_bytes()
